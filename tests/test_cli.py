import csv
import json

import pytest

from hwq.errors import SchemaError
from hwq.cli import emit, main, parse_config

MINIMAL = {
    "schema_version": "hwq-config/1",
    "seed": 7,
    "system": {"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.0}], "r": 4.0, "a": 1.0},
    "policy": "fifo",
}


def _config(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return raw


def test_parse_minimal_config():
    cfg = parse_config(_config())
    assert cfg.seed == 7
    assert cfg.policy == "fifo"
    assert cfg.system().n_servers == 6


def test_parse_round_trip():
    cfg = parse_config(_config())
    again = parse_config(emit(cfg))
    assert again.raw == cfg.raw
    assert again.r_values == cfg.r_values


def test_parse_rejects_bad_json():
    with pytest.raises(SchemaError):
        parse_config("{not json")


def test_parse_rejects_non_unit_load():
    from hwq.errors import NonUnitLoad

    bad = _config(system={"classes": [{"lambda": 0.9, "mu": 1.0}], "r": 4.0, "a": 1.0})
    with pytest.raises(NonUnitLoad):
        parse_config(bad)


def test_parse_rejects_unknown_policy():
    with pytest.raises(SchemaError, match="preemptive_priority"):
        parse_config(_config(policy="round_robin"))


def test_parse_reports_error_location():
    bad = _config(system={"classes": [{"mu": 1.0}], "r": 4.0, "a": 1.0})
    with pytest.raises(SchemaError, match=r"system\.classes\[0\]\.lambda"):
        parse_config(bad)


def test_parse_rejects_unknown_functional():
    bad = _config(sweep={"functionals": [{"id": "bogus"}]})
    with pytest.raises(SchemaError, match="bogus"):
        parse_config(bad)


def test_parse_rejects_functional_missing_param():
    bad = _config(sweep={"functionals": [{"id": "exp_sum_zhat_plus"}]})
    with pytest.raises(SchemaError, match=r"sweep\.functionals\[0\].*theta"):
        parse_config(bad)


def test_validate_command(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    rc = main(["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "validate.csv")))
    assert rows[0]["n_servers"] == "6"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert manifest["outputs"] == ["validate.csv"]


def test_verify_command_exit_zero(tmp_path):
    raw = _config(
        policy="preemptive_priority",
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.0}], "r": 16.0, "a": 1.0},
        verify={"checks": ["drift_identity", "lyapunov"], "K": 60,
                "theta_list": [0.1, 0.5]},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    rc = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "verify.csv")))
    assert all(r["violations"] == "0" for r in rows)
    assert {r["method"] for r in rows} == {"drift_identity", "lyapunov"}


def test_couple_monotone_bad_nu_prime_exits_one(tmp_path):
    raw = _config(
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.5}], "r": 4.0, "a": 1.0},
        couple={"coupling": "monotone", "nu_prime": [2.0], "n_events": 100},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    rc = main(["couple", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_exact_command(tmp_path):
    raw = _config(
        policy="preemptive_priority",
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 1.0}], "r": 16.0, "a": 1.0},
        exact={"functionals": [{"id": "z_total"}]},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    rc = main(["exact", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "exact.csv")))
    assert abs(float(rows[0]["estimate"]) - 16.0) < 1e-6  # Poisson(16) mean


def test_couple_threads_merge_deterministic(tmp_path):
    raw = _config(
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.5}], "r": 4.0, "a": 1.0},
        couple={"coupling": "infserver", "n_events": 5_000, "n_seeds": 4},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    rc1 = main(["couple", "--config", str(cfg_file), "--out", str(tmp_path / "a"),
                "--threads", "1"])
    rc2 = main(["couple", "--config", str(cfg_file), "--out", str(tmp_path / "b"),
                "--threads", "4"])
    assert rc1 == rc2 == 0
    assert (tmp_path / "a" / "couple.csv").read_bytes() == \
        (tmp_path / "b" / "couple.csv").read_bytes()


def test_sweep_byte_identical(tmp_path):
    raw = _config(
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.0}],
                "r_list": [4.0, 9.0], "a": 1.0},
        sweep={"n_batches": 10, "events_per_batch": 2_000, "warmup_events": 500,
               "estimator": "batch_means"},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
        (tmp_path / "b" / "sweep.csv").read_bytes()


def test_seed_override(tmp_path):
    raw = _config(
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.0}],
                "r_list": [4.0], "a": 1.0},
        sweep={"n_batches": 10, "events_per_batch": 1_000, "warmup_events": 100,
               "estimator": "batch_means"},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "a")])
    main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "b"),
          "--seed", "99"])
    assert (tmp_path / "a" / "sweep.csv").read_bytes() != \
        (tmp_path / "b" / "sweep.csv").read_bytes()
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_provenance_columns_everywhere(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    main(["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    header = open(tmp_path / "out" / "validate.csv").readline().strip().split(",")
    assert header[:5] == ["r", "a", "policy", "seed", "method"]


def test_exit_code_three_on_violations(tmp_path, monkeypatch):
    import hwq.cli as cli

    def fake(cfg, out_dir, threads):
        return [], 2

    monkeypatch.setitem(cli._DISPATCH, "validate", fake)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    rc = main(["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 3


def test_threads_env_fallback(tmp_path, monkeypatch):
    captured = {}
    import hwq.cli as cli

    real_dispatch = cli.dispatch

    def spy(command, cfg, out_dir, threads=1):
        captured["threads"] = threads
        return real_dispatch(command, cfg, out_dir, threads=threads)

    monkeypatch.setattr(cli, "dispatch", spy)
    monkeypatch.setenv("HWQ_THREADS", "3")
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    rc = main(["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert captured["threads"] == 3


@pytest.mark.parametrize("method", ["foo", "power"])
def test_exact_method_other_than_auto_exits_one(tmp_path, capsys, method):
    assert parse_config(_config(exact={"method": "auto"})).sections["exact"]["method"] == "auto"
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config(policy="preemptive_priority",
                                           exact={"method": method})))
    rc = main(["exact", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "exact.method" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["exact", "verify", "sweep"])
@pytest.mark.parametrize("K", ["50", 0, 2.5])
def test_bad_truncation_exits_one(tmp_path, capsys, command, K):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config(policy="preemptive_priority", **{command: {"K": K}})))
    rc = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{command}.K" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_null_truncation_takes_default():
    cfg = parse_config(_config(exact={"K": None}, verify={"K": 40}))
    assert cfg.sections["exact"]["K"] is None and cfg.sections["verify"]["K"] == 40


@pytest.mark.parametrize("flag, env, source", [
    (None, "two", "HWQ_THREADS"),
    (None, "0", "HWQ_THREADS"),
    ("0", None, "--threads"),
    ("-2", None, "--threads"),
])
def test_bad_thread_count_exits_one(tmp_path, capsys, monkeypatch, flag, env, source):
    if env is None:
        monkeypatch.delenv("HWQ_THREADS", raising=False)
    else:
        monkeypatch.setenv("HWQ_THREADS", env)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    argv = ["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
    rc = main(argv + (["--threads", flag] if flag is not None else []))
    assert rc == 1
    err = capsys.readouterr().err
    assert source in err and len(err.strip().splitlines()) == 1
