import json

import pytest

from stormsim import ConfigError, ScenarioConfig, ScoringMode, config_from_dict, config_to_dict, parse_config


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


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

    def test_non_numeric_grid_entry(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma_grid"):
            parse_config(write_config(tmp_path, {"gamma_grid": [0.5, "high"]}))

    def test_round_trip_through_dict(self):
        config = ScenarioConfig(seed_train=9, seed_eval=10, gamma=3.0)
        assert config_from_dict(config_to_dict(config)) == config

    def test_float_fields_built_in_code_are_floats(self):
        # scenario.json writes config_to_dict and summary.json Metrics.gamma; both must say 4.0
        config = ScenarioConfig(gamma=4, gamma_grid=[0, 2], sigma_floor=1, cell_radius_m=2000)
        assert type(config.gamma) is float
        assert config_to_dict(config)["gamma"] == 4.0
        assert json.dumps(config_to_dict(config)["gamma"]) == "4.0"
        assert config.gamma_grid == (0.0, 2.0) and all(type(g) is float for g in config.gamma_grid)
        assert type(config.sigma_floor) is float and type(config.cell_radius_m) is float
        assert config == config_from_dict(config_to_dict(config))

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
        ],
    )
    def test_rejected_documents(self, tmp_path, doc):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, doc))

    def test_interval_end_mode_accepted(self, tmp_path):
        config = parse_config(write_config(tmp_path, {"scoring_mode": "interval_end"}))
        assert config.scoring_mode is ScoringMode.INTERVAL_END


class TestTableCap:
    """The dense int64 (days, slots, TA) count table is bounded up front."""

    @pytest.mark.parametrize("days", [{"training_days": 30, "eval_days": 1}, {"training_days": 1, "eval_days": 30}])
    def test_oversized_table_rejected(self, days):
        # mu=3 at 2 km gives 205 TA bins: 30 days x 86400 slots x 205 x 8 B is about 4 GiB
        with pytest.raises(ConfigError, match="4.0 GiB, over the 1 GiB cap"):
            ScenarioConfig(numerology_mu=3, interval_seconds=1, **days)

    def test_table_under_cap_accepted(self):
        # the fine-profile scale: 40 days x 2880 slots x 205 bins x 8 B is 180 MiB
        ScenarioConfig(numerology_mu=3, interval_seconds=30, training_days=40, eval_days=2)

    @pytest.mark.parametrize("radius", [float("inf"), float("nan")])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ConfigError, match="cell_radius_m"):
            ScenarioConfig(cell_radius_m=radius)
