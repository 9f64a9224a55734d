"""Golden outputs: ``stormsim train``, ``run`` and ``sweep --profile`` on a small
fixed config must write byte for byte what the recorded digests say, and so
must ``train`` and ``run`` on a config whose profile spans several write and
parse blocks, and on one whose eval trace is large enough for trace I/O to
split it between two processes.

A refactor that keeps behaviour leaves every digest alone. A change that
alters an output on purpose updates the digest here and says so in
CHANGES.md.
"""

import hashlib
import json

import pytest

from conftest import bits
from stormsim import DetectorConfig, build_trace, read_trace, run
from stormsim.cli import main
from stormsim.config import config_from_dict
from stormsim.core import ROWS_PER_WRITE
from stormsim.profiler import load_profile, save_profile

CONFIG = {
    "legit": {"device_count": 12},
    "attack": {"adversary_count": 2, "bursts_per_day": 4.0},
    "training_days": 2,
    "eval_days": 2,
    "gamma": 4.0,
    "gamma_grid": [0.0, 2.0, 4.0, 6.5],
    "seed_train": 41,
    "seed_eval": 42,
}

GOLDEN = {
    "per_rsr": {
        "bursts.json": "93ae1fe36b9e8aff9f5491460862ba13e0b1af9c081170b0d9b70eadd5bbe8d7",
        "policies.jsonl": "0997bc92e08d9c96d720379337b2290e1e81f7099996ab8e5c4895825ce61b9b",
        "profile.csv": "411c923942ba325cca1e03b24bfd94d99e116a1110c2330b5924f98c01cbfae2",
        "scenario.json": "1c6738fa6ed2d592dbe5e5250a61ee5e4471ad21c53093c0797456d54c665706",
        "summary.json": "41a0d0948860b0b2f4cca6e38eea72f738887efc87abf2afccb8991b01f36190",
        "sweep.csv": "ce3a14299e9f3136e60c5790070dda586251f0e3b4ae825a61af0c6257764ffa",
        "trace.jsonl": "de76d388d07b7b8c6c664b48f97bf8f64cd32ab809c6ed2e37edb6015677ec6a",
    },
    "interval_end": {
        "bursts.json": "93ae1fe36b9e8aff9f5491460862ba13e0b1af9c081170b0d9b70eadd5bbe8d7",
        "policies.jsonl": "3044849a7254f189c8193ca09cafab35bedfa6c1bede3c8a41d6138a55e9d792",
        "profile.csv": "411c923942ba325cca1e03b24bfd94d99e116a1110c2330b5924f98c01cbfae2",
        "scenario.json": "ba64f271671ecd12118997234bbae8f966c1a9f63f70cd3a28739335f3cda400",
        "summary.json": "8511df936ce7e992f3b2a02d1d3c6e96e3b682251ec77f7432ca5e742b51d4a1",
        "sweep.csv": "ce3a14299e9f3136e60c5790070dda586251f0e3b4ae825a61af0c6257764ffa",
        "trace.jsonl": "f3597ee066dd20b5fc4a62957b5c8d179de69253c2ad1ba2963398e7cca0fc7e",
    },
}

# mu=3 and 30 s intervals: about 13k profile rows, four ROWS_PER_WRITE blocks
MULTI_BLOCK_CONFIG = {
    "numerology_mu": 3,
    "interval_seconds": 30,
    "legit": {"device_count": 40},
    "training_days": 3,
    "eval_days": 1,
    "seed_train": 41,
    "seed_eval": 42,
}

MULTI_BLOCK_GOLDEN = {
    "profile.csv": "2f086bdc706b99f732a7bdf6c207a2c9e5f01f5cf128f6eea01a8380863b1b91",
    "policies.jsonl": "62188fc6cbabb2ec52e664dff002dd1f8327f9ac6e36c33939b2563b2b1eb14d",
    "trace.jsonl": "373cc44e6a67144408893c9c0255fd184b3b25880fd93b12d7f767d42d290f24",
}

# Hour-long windows at 48 bursts a day over one eval day: 10 of the 145 bursts
# start late enough for the horizon to cut them, some down to a single RSR
TRUNCATING_CONFIG = {
    "legit": {"device_count": 12},
    "attack": {"adversary_count": 3, "bursts_per_day": 48, "rsrs_per_burst": 20, "burst_window_s": 3600},
    "training_days": 1,
    "eval_days": 1,
    "seed_train": 41,
    "seed_eval": 42,
}

TRUNCATING_GOLDEN = {
    "bursts.json": "3878bd4742a83f44edc34814ee1896309c32b4afc5702bb92a42e2a8e6bf7c88",
    "scenario.json": "129f6eb7371f0ef7a08b0b7fbbb68c57a9e863c99586ab79122fab78282868dd",
    "summary.json": "19b8bfd4e3a02cd70756ba93edc4e34e69242c8761ec268f4f26e96f815b831f",
    "trace.jsonl": "ba1eb6ebc9f849b6b5cd4e75b75cf5618eeef4e22ce82820d9bee3f3a3095893",
}

# The default cell over 5 eval days: 66,481 rows, more than twice the 32,768
# (8 * ROWS_PER_WRITE) rows at which write_trace and read_trace split a trace
LARGE_TRACE_CONFIG = {"training_days": 1, "eval_days": 5, "seed_train": 41, "seed_eval": 42}

LARGE_TRACE_GOLDEN = "f0b8542f79a403f611a11c293b8245e018303cb97e46bd3c83a5eddf0cb16d09"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_cli_outputs_match_golden_digests(tmp_path, mode):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIG, scoring_mode=mode)))
    profile, out, sweep = tmp_path / "profile.csv", tmp_path / "out", tmp_path / "sweep.csv"
    common = ["--config", str(config)]
    assert main(["train", *common, "--out", str(profile)]) == 0
    assert main(["run", *common, "--profile", str(profile), "--out", str(out)]) == 0
    assert main(["sweep", *common, "--profile", str(profile), "--out", str(sweep)]) == 0
    files = {"profile.csv": profile, "sweep.csv": sweep}
    for name in ("trace.jsonl", "bursts.json", "policies.jsonl", "summary.json", "scenario.json"):
        files[name] = out / name
    assert {name: sha256(path) for name, path in files.items()} == GOLDEN[mode]


def test_multi_block_profile_matches_golden_digests(tmp_path):
    # trace.jsonl carries every anomaly, so it also pins the profile as load_profile read it back
    config = tmp_path / "config.json"
    config.write_text(json.dumps(MULTI_BLOCK_CONFIG))
    profile, out, resaved = tmp_path / "profile.csv", tmp_path / "out", tmp_path / "resaved.csv"
    assert main(["train", "--config", str(config), "--out", str(profile)]) == 0
    assert main(["run", "--config", str(config), "--profile", str(profile), "--out", str(out)]) == 0
    save_profile(load_profile(profile), resaved)
    files = {"profile.csv": profile, "policies.jsonl": out / "policies.jsonl", "trace.jsonl": out / "trace.jsonl"}
    assert {name: sha256(path) for name, path in files.items()} == MULTI_BLOCK_GOLDEN
    assert resaved.read_bytes() == profile.read_bytes()


def test_horizon_truncated_bursts_match_golden_digests(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TRUNCATING_CONFIG))
    profile, out = tmp_path / "profile.csv", tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(profile)]) == 0
    assert main(["run", "--config", str(config), "--profile", str(profile), "--out", str(out)]) == 0
    assert {name: sha256(out / name) for name in TRUNCATING_GOLDEN} == TRUNCATING_GOLDEN
    counts = [b["count"] for b in json.loads((out / "bursts.json").read_text())]
    assert min(counts) < TRUNCATING_CONFIG["attack"]["rsrs_per_burst"]


def test_large_trace_matches_golden_digest_and_reads_back(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(LARGE_TRACE_CONFIG))
    profile, out = tmp_path / "profile.csv", tmp_path / "out"
    assert main(["train", "--config", str(config_file), "--out", str(profile)]) == 0
    assert main(["run", "--config", str(config_file), "--profile", str(profile), "--out", str(out)]) == 0
    assert sha256(out / "trace.jsonl") == LARGE_TRACE_GOLDEN
    # the columns cmd_run wrote, rebuilt in-process, come back bit for bit
    config = config_from_dict(LARGE_TRACE_CONFIG)
    trace, _bursts, _layout = build_trace(config, seed=config.seed_eval, days=config.eval_days, include_attacks=True)
    detector = DetectorConfig(gamma=config.gamma, sigma_floor=config.sigma_floor)
    report = run(trace, load_profile(profile), detector, config.eval_days, config.scoring_mode)
    assert len(trace) > 2 * 8 * ROWS_PER_WRITE
    assert bits(*read_trace(out / "trace.jsonl")) == bits(trace, report.verdicts)
