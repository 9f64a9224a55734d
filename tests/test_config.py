import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stormsim import (
    AttackSpec,
    ConfigError,
    LegitTrafficSpec,
    ScenarioConfig,
    ScoringMode,
    config_from_dict,
    config_to_dict,
    parse_config,
)

from conftest import check

NESTED_SPECS = {"legit": LegitTrafficSpec, "attack": AttackSpec}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def build_in_code(doc):
    """The config ``doc`` describes, built with the dataclass constructors instead of parsed."""
    nested = {key: NESTED_SPECS[key](**value) for key, value in doc.items() if key in NESTED_SPECS}
    return ScenarioConfig(**{**doc, **nested})


class TestParsing:
    def test_empty_document_gives_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, {}))
        assert config == ScenarioConfig()
        assert config.legit.device_count == 100
        assert config.attack.adversary_count == 5
        assert config.gamma_grid == tuple(i * 0.5 for i in range(21))
        assert config.scoring_mode is ScoringMode.PER_RSR

    def test_partial_nested_spec_keeps_other_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, {"legit": {"base_rate_per_hour": 5}}))
        assert config.legit.base_rate_per_hour == 5.0
        assert config.legit.diurnal_amplitude == 0.35
        assert config.legit.device_count == 100

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="interval_secs"):
            parse_config(write_config(tmp_path, {"interval_secs": 300}))

    def test_unknown_nested_key(self, tmp_path):
        with pytest.raises(ConfigError, match="rate"):
            parse_config(write_config(tmp_path, {"legit": {"rate": 5}}))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(path)

    def test_deeply_nested_json_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigError, match=f"^{path}: invalid JSON"):
            parse_config(path)

    def test_non_utf8_config_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"scoring_mode": "pe\xff"}')
        with pytest.raises(ConfigError, match=f"^{path}: invalid JSON .*can't decode byte 0xff"):
            parse_config(path)

    def test_non_numeric_grid_entry(self, tmp_path):
        path = write_config(tmp_path, {"gamma_grid": [0.5, "high"]})
        with pytest.raises(ConfigError, match=f"^{path}: gamma_grid entry must be a number"):
            parse_config(path)

    def test_unknown_key_names_the_file(self, tmp_path):
        path = write_config(tmp_path, {"attack": {"rate": 5}})
        with pytest.raises(ConfigError, match=f"^{path}: unknown attack keys: rate"):
            parse_config(path)

    def test_round_trip_through_dict(self):
        config = ScenarioConfig(seed_train=9, seed_eval=10, gamma=3.0)
        assert config_from_dict(config_to_dict(config)) == config

    def test_float_fields_built_in_code_are_floats(self):
        # scenario.json writes config_to_dict and summary.json Metrics.gamma; both must say 4.0
        config = ScenarioConfig(
            gamma=4,
            gamma_grid=[0, 2],
            sigma_floor=1,
            cell_radius_m=2000,
            legit=LegitTrafficSpec(base_rate_per_hour=5, diurnal_amplitude=0),
            attack=AttackSpec(bursts_per_day=3, burst_window_s=np.int64(5)),
        )
        doc = config_to_dict(config)
        assert type(config.gamma) is float
        assert doc["gamma"] == 4.0
        assert json.dumps(doc["gamma"]) == "4.0"
        assert config.gamma_grid == (0.0, 2.0) and all(type(g) is float for g in config.gamma_grid)
        assert type(config.sigma_floor) is float and type(config.cell_radius_m) is float
        assert json.dumps(doc["legit"]["base_rate_per_hour"]) == "5.0"
        assert json.dumps(doc["legit"]["diurnal_amplitude"]) == "0.0"
        assert json.dumps(doc["attack"]) == json.dumps(config_to_dict(ScenarioConfig())["attack"])
        assert config == config_from_dict(doc)

    def test_scoring_mode_value_built_in_code(self):
        config = ScenarioConfig(scoring_mode="interval_end")
        assert config.scoring_mode is ScoringMode.INTERVAL_END
        assert config_to_dict(config)["scoring_mode"] == "interval_end"
        assert config == config_from_dict(config_to_dict(config))

    def test_numpy_integer_day_count_stored_as_int(self):
        config = ScenarioConfig(training_days=np.int64(7), legit=LegitTrafficSpec(device_count=np.uint16(3)))
        assert type(config.training_days) is int and config.training_days == 7
        assert type(config.legit.device_count) is int and config.legit.device_count == 3
        assert json.dumps(config_to_dict(config)["training_days"]) == "7"

    @pytest.mark.parametrize("field, value", [("gamma", "4"), ("sigma_floor", True), ("gamma_grid", (1.0, None))])
    def test_non_numeric_float_field_rejected_in_code(self, field, value):
        with pytest.raises(ConfigError, match="must be a number"):
            ScenarioConfig(**{field: value})


class TestValidation:
    def test_interval_must_divide_day(self, tmp_path):
        with pytest.raises(ConfigError, match="86400"):
            parse_config(write_config(tmp_path, {"interval_seconds": 299}))

    @pytest.mark.parametrize(
        "doc",
        [
            {"cell_radius_m": 0},
            {"cell_radius_m": -10},
            {"numerology_mu": 4},
            {"legit": {"base_rate_per_hour": 0}},
            {"legit": {"diurnal_amplitude": 1.0}},
            {"legit": {"diurnal_amplitude": -0.1}},
            {"legit": {"device_count": -1}},
            {"attack": {"adversary_count": -1}},
            {"attack": {"bursts_per_day": 0}},
            {"attack": {"rsrs_per_burst": 0}},
            {"attack": {"burst_window_s": 0}},
            {"training_days": 0},
            {"eval_days": 0},
            {"sigma_floor": 0},
            {"sigma_floor": -1.0},
            {"gamma_grid": []},
            {"seed_train": -1},
            {"seed_eval": 2**64},
            {"scoring_mode": "sometimes"},
            {"interval_seconds": 300.0},
            {"legit": {"device_count": True}},
            {"numerology_mu": 2.0},
            {"seed_train": 1.5},
            {"legit": {"device_count": "100"}},
            {"attack": {"rsrs_per_burst": 1.5}},
            {"gamma_grid": 5},
            {"gamma_grid": None},
            {"legit": {"base_rate_per_hour": float("nan")}},
            {"legit": {"base_rate_per_hour": float("inf")}},
            {"attack": {"bursts_per_day": float("nan")}},
            {"attack": {"bursts_per_day": float("inf")}},
            {"attack": {"burst_window_s": float("nan")}},
            {"attack": {"burst_window_s": float("inf")}},
            {"sigma_floor": float("nan")},
            {"sigma_floor": float("inf")},
        ],
    )
    def test_rejected_documents(self, tmp_path, doc):
        # parsed or built in code, a config meets the same checks
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, doc))
        with pytest.raises(ConfigError):
            build_in_code(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"gamma": float("nan")}, "gamma must not be NaN"),
            ({"gamma_grid": [1.0, float("nan")]}, "gamma_grid must not contain NaN"),
        ],
    )
    def test_nan_gamma_rejected(self, tmp_path, doc, message):
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"^{path}: {message}$"):
            parse_config(path)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build_in_code(doc)

    @pytest.mark.parametrize("field", ["legit", "attack"])
    def test_nested_spec_of_the_wrong_type_rejected_in_code(self, field):
        with pytest.raises(ConfigError, match="^legit must be a LegitTrafficSpec and attack an AttackSpec$"):
            ScenarioConfig(**{field: {}})
        with pytest.raises(ConfigError, match="^legit must be a LegitTrafficSpec and attack an AttackSpec$"):
            ScenarioConfig(**{field: NESTED_SPECS["attack" if field == "legit" else "legit"]()})

    @pytest.mark.parametrize("doc", [[], "x", 3, None])
    def test_document_not_an_object(self, tmp_path, doc):
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"^{path}: configuration must be a JSON object$"):
            parse_config(path)

    @pytest.mark.parametrize("field", ["legit", "attack"])
    @pytest.mark.parametrize("value", [[], 5, "x", None])
    def test_nested_spec_not_an_object(self, tmp_path, field, value):
        path = write_config(tmp_path, {field: value})
        with pytest.raises(ConfigError, match=f"^{path}: {field} must be an object$"):
            parse_config(path)

    def test_interval_end_mode_accepted(self, tmp_path):
        config = parse_config(write_config(tmp_path, {"scoring_mode": "interval_end"}))
        assert config.scoring_mode is ScoringMode.INTERVAL_END


class TestTableCap:
    """The dense (days, slots, TA) count table is bounded up front, at 8 bytes a cell, its widest dtype."""

    @pytest.mark.parametrize("days", [{"training_days": 30, "eval_days": 1}, {"training_days": 1, "eval_days": 30}])
    def test_oversized_table_rejected(self, days):
        # mu=3 at 2 km gives 205 TA bins: 30 days x 86400 slots x 205 x 8 B is about 4 GiB
        with pytest.raises(ConfigError, match="4.0 GiB, over the 1 GiB cap"):
            ScenarioConfig(numerology_mu=3, interval_seconds=1, **days)

    def test_table_under_cap_accepted(self):
        # the fine-profile scale: 40 days x 2880 slots x 205 bins x 8 B is 180 MiB
        ScenarioConfig(numerology_mu=3, interval_seconds=30, training_days=40, eval_days=2)

    @given(
        radius=st.floats(min_value=1e-9, max_value=2000.0, allow_nan=False),
        mu=st.sampled_from([0, 1, 2, 3]),
    )
    def test_max_ta_matches_the_independent_formula(self, radius, mu):
        config = ScenarioConfig(cell_radius_m=radius, numerology_mu=mu)
        assert config.max_ta == check.max_ta({"cell_radius_m": radius, "numerology_mu": mu})

    @pytest.mark.parametrize("radius", [1e6, 1e20, 1e300])
    def test_huge_cell_refused_with_its_exact_bin_count(self, radius):
        # the TA bin count is an exact Python integer (5.1e18 bins at 1e20 m,
        # 300 digits at 1e300 m), so the cap sees the true table, not a wrapped one
        n_ta = check.max_ta({"cell_radius_m": radius, "numerology_mu": 2}) + 1
        with pytest.raises(ConfigError, match=rf"^a 30-day count table of 288 slots x {n_ta} TA bins takes .* over the 1 GiB cap"):
            ScenarioConfig(cell_radius_m=radius)

    @pytest.mark.parametrize("radius", [float("inf"), float("nan")])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ConfigError, match="cell_radius_m"):
            ScenarioConfig(cell_radius_m=radius)


class TestWorkloadCap:
    """A workload's generated request times are bounded up front, at 8 bytes each, by the table cap."""

    @pytest.mark.parametrize(
        "doc, match",
        [
            (
                {"attack": {"rsrs_per_burst": 10**13}},
                r"^a 30-day trace of about 4\.5e\+15 request times in bursts of 10000000000000 passes the 1 GiB cap",
            ),
            ({"legit": {"device_count": 10**12}}, r"about 4\.86e\+15 request times"),
            ({"attack": {"bursts_per_day": 1e12}}, r"about 1\.5e\+16 request times"),
            # too large for a float: the cap still holds, and no OverflowError escapes
            ({"legit": {"device_count": 10**400}}, "about inf request times"),
            # no adversary, so no attack times are expected, but one burst row is still over the cap
            ({"attack": {"adversary_count": 0, "rsrs_per_burst": 2**27 + 1}}, "in bursts of 134217729 passes"),
        ],
    )
    def test_ungeneratable_workload_rejected(self, doc, match):
        with pytest.raises(ConfigError, match=match):
            build_in_code(doc)

    def test_burst_row_at_the_cap_accepted(self):
        ScenarioConfig(attack=AttackSpec(adversary_count=0, rsrs_per_burst=2**27))

    def test_device_count_capped(self):
        # idle devices add no request times, but each costs its placement and substream
        idle = {"base_rate_per_hour": 1e-9}
        with pytest.raises(ConfigError, match=r"^2097153 devices and adversaries at about 0\.45 KiB each"):
            build_in_code({"legit": dict(idle, device_count=2**21 - 4)})  # plus the 5 default adversaries
        build_in_code({"legit": dict(idle, device_count=2**21 - 5)})


# one valid non-default value for every field of the three dataclasses
NON_DEFAULTS = {
    "cell_radius_m": 1500.0,
    "numerology_mu": 1,
    "interval_seconds": 600,
    "legit.base_rate_per_hour": 2.5,
    "legit.diurnal_amplitude": 0.0,
    "legit.device_count": 0,
    "attack.adversary_count": 0,
    "attack.bursts_per_day": 0.5,
    "attack.rsrs_per_burst": 1,
    "attack.burst_window_s": 0.25,
    "training_days": 7,
    "eval_days": 3,
    "sigma_floor": 0.5,
    "gamma": 4.25,
    "gamma_grid": (1.0, 2.5),
    "seed_train": 2**64 - 1,
    "seed_eval": 0,
    "scoring_mode": ScoringMode.INTERVAL_END,
}


def schema_keys():
    """Every settable key, a nested field named ``legit.x`` or ``attack.x``."""
    keys = []
    for f in dataclasses.fields(ScenarioConfig):
        if f.name in NESTED_SPECS:
            keys += [f"{f.name}.{g.name}" for g in dataclasses.fields(NESTED_SPECS[f.name])]
        else:
            keys.append(f.name)
    return keys


class TestSchema:
    """Parsing, checks and serialisation all follow the dataclass fields."""

    def test_every_field_has_a_non_default_case(self):
        assert sorted(NON_DEFAULTS) == sorted(schema_keys())

    @pytest.mark.parametrize("key", sorted(NON_DEFAULTS))
    def test_field_round_trips(self, key):
        value = NON_DEFAULTS[key]
        spec, _, name = key.rpartition(".")
        if spec:
            config = ScenarioConfig(**{spec: NESTED_SPECS[spec](**{name: value})})
            default = getattr(getattr(ScenarioConfig(), spec), name)
        else:
            config = ScenarioConfig(**{name: value})
            default = getattr(ScenarioConfig(), name)
        assert value != default
        doc = config_to_dict(config)
        assert config_from_dict(doc) == config
        assert config_from_dict(json.loads(json.dumps(doc))) == config
        assert json.loads(json.dumps(doc)) == doc

    def test_readme_table_names_every_field(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Configuration reference", 1)[1].split("\n\n", 2)[1]
        rows = [line.split("|")[1] for line in table.splitlines()[2:]]
        documented = [key for row in rows for key in re.findall(r"`([^`]+)`", row)]
        assert sorted(documented) == sorted(schema_keys())
