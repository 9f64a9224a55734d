import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stormsim import place_devices, ta_index, ta_step_m


class TestTaStep:
    def test_step_at_mu0(self):
        step = ta_step_m(0)
        assert 78.0 <= step <= 78.2

    def test_step_halves_per_numerology(self):
        for mu in range(3):
            assert ta_step_m(mu) / ta_step_m(mu + 1) == 2.0

    @pytest.mark.parametrize("bad", [-1, 4, 10])
    def test_numerology_range(self, bad):
        with pytest.raises(ValueError, match="numerology_mu must be one of 0..3"):
            ta_step_m(bad)

    def test_index_checks_the_numerology(self):
        with pytest.raises(ValueError, match="numerology_mu must be one of 0..3"):
            ta_index(100.0, 4)


class TestTaIndex:
    def test_zero_distance(self):
        assert ta_index(0.0, 2) == 0

    def test_known_indices(self):
        # floor(1510 / 19.5177) = 77, floor(2000 / 19.5177) = 102,
        # floor(2000 / 78.0710) = 25
        assert ta_index(1510.0, 2) == 77
        assert ta_index(2000.0, 2) == 102
        assert ta_index(2000.0, 0) == 25

    def test_sub_step_distance(self):
        assert ta_index(10.0, 0) == 0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="distance_m must be non-negative"):
            ta_index(-0.1, 0)

    @given(
        st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
        st.sampled_from([0, 1, 2, 3]),
    )
    def test_monotone_in_distance(self, d1, d2, mu):
        lo, hi = sorted((d1, d2))
        assert ta_index(lo, mu) <= ta_index(hi, mu)

    @given(st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False), st.sampled_from([0, 1, 2, 3]))
    def test_index_interval_membership(self, d, mu):
        step = ta_step_m(mu)
        k = ta_index(d, mu)
        # d sits in [k*step, (k+1)*step) up to one float ulp at the boundary
        assert k * step <= d * (1 + 1e-12) and d < (k + 1) * step * (1 + 1e-12)


class TestPlacement:
    def test_empty(self):
        assert place_devices(0, 2000.0, np.random.default_rng(0)).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            place_devices(-1, 2000.0, np.random.default_rng(0))

    @pytest.mark.parametrize("radius", [0.0, -10.0])
    def test_positive_radius_required(self, radius):
        with pytest.raises(ValueError, match="cell_radius_m must be positive"):
            place_devices(5, radius, np.random.default_rng(0))

    def test_support_bound(self):
        radii = place_devices(500, 2000.0, np.random.default_rng(3))
        assert radii.shape == (500,)
        assert np.all((radii >= 0.0) & (radii <= 2000.0))

    def test_uniform_disk_mean_distance(self):
        # E[r] = 2R/3 for uniform density over a disk of radius R
        radii = place_devices(100_000, 2000.0, np.random.default_rng(7))
        mean = float(np.mean(radii))
        expected = 2.0 * 2000.0 / 3.0
        assert abs(mean - expected) / expected < 0.01

    def test_deterministic_given_seed(self):
        a = place_devices(50, 1000.0, np.random.default_rng(42))
        b = place_devices(50, 1000.0, np.random.default_rng(42))
        assert np.array_equal(a, b)
