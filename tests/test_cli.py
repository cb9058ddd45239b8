import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hwq.errors import OrderingViolation, SchemaError
from hwq.cli import _SCHEMA, COMMANDS, main, parse_config
from hwq.simulate import usable_cores

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
    again = parse_config(json.dumps(cfg.raw))
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp overflows on purpose
def test_verify_generator_identity_counts_nan_residuals(tmp_path, capsys):
    # at theta = 200 the test functions overflow: two residuals are nan, and
    # a nan residual is not within its bound, so every row counts a violation
    raw = _config(
        policy="preemptive_priority",
        system={"classes": [{"lambda": 0.5, "mu": 1.0, "nu": 0.5},
                            {"lambda": 1.0, "mu": 2.0, "nu": 1.0}], "r": 16.0, "a": 1.0},
        verify={"checks": ["generator_identity"], "theta": 200},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    rc = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "hwq: 3 invariant violation(s)" in capsys.readouterr().err
    rows = list(csv.DictReader(open(tmp_path / "out" / "verify.csv")))
    assert len(rows) == 3 and all(r["violations"] == "1" for r in rows)
    assert [r["residual_or_err"] for r in rows].count("nan") == 2


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


def test_exact_truncated_square_mgf_is_finite(tmp_path):
    # most states have phi_hat > k = 1 and 20 * z_hat**2 beyond exp's range;
    # truncated states must add 0, not inf * 0 = nan
    raw = _config(
        policy="preemptive_priority",
        system={"classes": [{"lambda": 0.5, "mu": 1.0, "nu": 0.0},
                            {"lambda": 1.0, "mu": 2.0, "nu": 0.0}], "r": 16.0, "a": 1.0},
        exact={"functionals": [{"id": "exp_zhat_plus_sq_trunc", "theta": 20, "k": 1}]},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    rc = main(["exact", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "exact.csv")))
    assert math.isfinite(float(rows[0]["estimate"]))


def _couple_file(tmp_path, n_seeds=4, n_events=5_000, coupling="infserver"):
    raw = _config(
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.5}], "r": 4.0, "a": 1.0},
        couple={"coupling": coupling, "n_events": n_events, "n_seeds": n_seeds},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    return cfg_file


def test_couple_threads_merge_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv("HWQ_JOBS", raising=False)
    cfg_file = _couple_file(tmp_path)
    outputs = []
    for name, extra in (("one", ["--jobs", "1"]), ("two", ["--jobs", "2"]),
                        ("default", [])):
        argv = ["couple", "--config", str(cfg_file), "--out", str(tmp_path / name)]
        assert main(argv + extra) == 0
        outputs.append((tmp_path / name / "couple.csv").read_bytes())
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert len(manifest["unit_wall_s"]) == 4
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("coupling", ["infserver", "monotone"])
def test_couple_manifest_counts_states_checked(tmp_path, coupling):
    # one counters entry per stream; each distinct joint state is checked
    # once, and a run revisits states, so fewer states than events
    cfg_file = _couple_file(tmp_path, n_seeds=2, n_events=3_000, coupling=coupling)
    assert main(["couple", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                 "--jobs", "1"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    counters = manifest["counters"]
    assert [c["stream"] for c in counters] == [0, 1]
    for c in counters:
        assert set(c) == {"stream", "events", "ordering_checks", "states_checked", "kev_per_s"}
        assert c["events"] == c["ordering_checks"] == 3_000
        assert 0 < c["states_checked"] < c["events"]
        assert c["kev_per_s"] > 0.0
    # each stream's warm-up and measured run, timed in the process that ran it
    assert [p["stream"] for p in manifest["phases"]] == [0, 1]
    for p, c in zip(manifest["phases"], counters):
        assert set(p) == {"stream", "warmup_s", "run_s"}
        assert p["warmup_s"] > 0.0 and p["run_s"] > 0.0
        assert c["kev_per_s"] == pytest.approx(3_000 / (p["warmup_s"] + p["run_s"]) / 1e3)


@pytest.mark.parametrize("estimator", ["regenerative", "batch_means"])
def test_manifest_explains_simulate(tmp_path, estimator):
    # one phase, the estimate's wall time, and one counters entry: the
    # method, the events simulated (the warm-up too) and their rate; the
    # regenerative method also gives its cycles
    section = ({"n_cycles": 200} if estimator == "regenerative" else
               {"n_batches": 10, "events_per_batch": 1_000, "warmup_events": 500})
    raw = _config(simulate={"functionals": [{"id": "z_total"}], "estimator": estimator,
                            **section})
    assert main(["simulate", "--config", json.dumps(raw), "--out", str(tmp_path / "out"),
                 "--jobs", "1"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    [phases] = manifest["phases"]
    [counters] = manifest["counters"]
    assert set(phases) == {"estimate_s"} and phases["estimate_s"] > 0.0
    assert counters["method"] == estimator
    assert counters["kev_per_s"] == pytest.approx(counters["events"] / phases["estimate_s"] / 1e3)
    if estimator == "regenerative":
        assert set(counters) == {"method", "events", "cycles", "states", "kev_per_s"}
        assert counters["cycles"] == 200 and counters["events"] >= 400
    else:
        assert set(counters) == {"method", "events", "states", "kev_per_s"}
        assert counters["events"] == 500 + 10 * 1_000
    assert 1 < counters["states"] <= counters["events"]


def test_sweep_jobs_byte_identical(tmp_path):
    raw = _config(
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.0}],
                "r_list": [4.0, 9.0, 16.0], "a": 1.0},
        sweep={"n_batches": 10, "events_per_batch": 2_000, "warmup_events": 500,
               "estimator": "batch_means"},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    for jobs in ("1", "2"):
        argv = ["sweep", "--config", str(cfg_file), "--out", str(tmp_path / jobs)]
        assert main(argv + ["--jobs", jobs]) == 0
        manifest = json.loads((tmp_path / jobs / "manifest.json").read_text())
        assert manifest["jobs"] == min(int(jobs), usable_cores())
        assert len(manifest["unit_wall_s"]) == 3
        # the points run from the largest r down, and come back in r_list order
        assert [p["r"] for p in manifest["phases"]] == [4.0, 9.0, 16.0]
        assert [c["r"] for c in manifest["counters"]] == [4.0, 9.0, 16.0]
    assert (tmp_path / "1" / "sweep.csv").read_bytes() == \
        (tmp_path / "2" / "sweep.csv").read_bytes()


def test_worker_ordering_violation_exits_three(tmp_path, monkeypatch, capsys):
    import hwq.cli as cli

    def broken(*args, **kwargs):
        raise OrderingViolation("G_0 > Z_0 at event 1")

    monkeypatch.setattr(cli, "run_infserver_coupled", broken)  # forked workers inherit it
    cfg_file = _couple_file(tmp_path, n_seeds=2)
    rc = main(["couple", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
               "--jobs", "2"])
    assert rc == 3
    assert "G_0 > Z_0" in capsys.readouterr().err


def test_jobs_capped_by_units_and_usable_cores(tmp_path):
    cfg_file = _couple_file(tmp_path, n_seeds=3, n_events=500)
    rc = main(["couple", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
               "--jobs", "64"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["jobs"] == min(3, usable_cores())
    assert "threads" not in manifest


def test_manifest_of_serial_command(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    assert main(["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
                 "--jobs", "2"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["jobs"] == 1 and manifest["unit_wall_s"] == []


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

    def fake(cfg, out_dir, jobs, record):
        return [], 2

    monkeypatch.setitem(cli._DISPATCH, "validate", fake)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    rc = main(["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 3


def _dispatched_jobs(tmp_path, monkeypatch, argv_extra=()):
    import hwq.cli as cli

    captured = {}
    real_dispatch = cli.dispatch

    def spy(command, cfg, out_dir, jobs=1):
        captured["jobs"] = jobs
        return real_dispatch(command, cfg, out_dir, jobs=jobs)

    monkeypatch.setattr(cli, "dispatch", spy)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    rc = main(["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
               *argv_extra])
    assert rc == 0
    return captured["jobs"]


def test_jobs_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HWQ_JOBS", "3")
    assert _dispatched_jobs(tmp_path, monkeypatch) == 3
    assert _dispatched_jobs(tmp_path, monkeypatch, ["--jobs", "5"]) == 5


def test_jobs_default_is_usable_cores(tmp_path, monkeypatch):
    monkeypatch.delenv("HWQ_JOBS", raising=False)
    assert _dispatched_jobs(tmp_path, monkeypatch) == usable_cores()


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
    (None, "two", "HWQ_JOBS"),
    (None, "0", "HWQ_JOBS"),
    ("0", None, "--jobs"),
    ("-2", None, "--jobs"),
])
def test_bad_job_count_exits_one(tmp_path, capsys, monkeypatch, flag, env, source):
    if env is None:
        monkeypatch.delenv("HWQ_JOBS", raising=False)
    else:
        monkeypatch.setenv("HWQ_JOBS", env)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config()))
    argv = ["validate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
    rc = main(argv + (["--jobs", flag] if flag is not None else []))
    assert rc == 1
    err = capsys.readouterr().err
    assert source in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, code, needle", [
    pytest.param(["validate", "--config", "c.json"], 1, "--out", id="missing-out"),
    pytest.param(["frobnicate", "--config", "c.json", "--out", "out"], 1, "frobnicate",
                 id="unknown-command"),
    pytest.param([], 1, "command", id="no-command"),
    pytest.param(["couple", "--config", "c.json", "--out", "out", "--seed", "x"], 1,
                 "--seed", id="bad-seed"),
    pytest.param(["--help"], 0, None, id="help"),
    pytest.param(["couple", "--help"], 0, None, id="command-help"),
])
def test_usage_exit_codes(capsys, argv, code, needle):
    assert main(argv) == code
    captured = capsys.readouterr()
    if needle is None:
        assert "usage:" in captured.out and captured.err == ""
    else:
        assert needle in captured.err and len(captured.err.strip().splitlines()) == 1


def test_cli_import_skips_scipy_stats():
    code = "import sys, hwq.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


# scipy submodules that cost about 0.35 s to import; only the commands that
# solve a chain exactly (exact, verify, and a sweep with an exact point) may
# load them; the t quantile of simulate and sweep comes from mpmath
_HEAVY = ("scipy.sparse", "scipy.special", "scipy.linalg", "scipy._lib._array_api")


def _run_fresh(code, *args):
    """Standard output of ``python -c code args`` on this test's import path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_import_loads_no_heavy_scipy():
    code = f"import sys, hwq, hwq.cli; print([m for m in {_HEAVY!r} if m in sys.modules])"
    assert _run_fresh(code).strip() == "[]"


@pytest.mark.parametrize("coupling", ["infserver", "monotone"])
def test_couple_command_loads_no_heavy_scipy(tmp_path, coupling):
    cfg_file = _couple_file(tmp_path, n_seeds=2, n_events=2_000, coupling=coupling)
    code = ("import sys, hwq.cli\n"
            "rc = hwq.cli.main(['couple', '--config', sys.argv[1], '--out', sys.argv[2],"
            " '--jobs', '1'])\n"
            f"print(rc, [m for m in {_HEAVY!r} + ('mpmath',) if m in sys.modules])")
    out = _run_fresh(code, str(cfg_file), str(tmp_path / "out"))
    assert out.strip() == "0 []"
    assert (tmp_path / "out" / "couple.csv").exists()


# Spies on the estimator to see whether the t quantile's module was imported
# before estimate_s started, and whether the estimator computed a quantile
# (its df was not yet in t975's cache), then reports the heavy scipy modules
# loaded.
_SIMULATE_PROBE = f"""
import sys, hwq.cli
from hwq.simulate import t975

seen = []


def spy(estimator):
    def run(*args, **kwargs):
        seen.append("mpmath" in sys.modules)
        misses = t975.cache_info().misses
        out = estimator(*args, **kwargs)
        seen.append(t975.cache_info().misses - misses)
        return out
    return run


hwq.cli.batch_means_multi = spy(hwq.cli.batch_means_multi)
hwq.cli.regenerative_estimate = spy(hwq.cli.regenerative_estimate)
rc = hwq.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
print(rc, seen, [m for m in {_HEAVY!r} if m in sys.modules])
"""


@pytest.mark.parametrize("estimator", ["batch_means", "regenerative"])
def test_simulate_command_loads_no_heavy_scipy(tmp_path, estimator):
    section = ({"n_cycles": 50} if estimator == "regenerative" else
               {"n_batches": 10, "events_per_batch": 500, "warmup_events": 100})
    raw = _config(simulate={"functionals": [{"id": "z_total"}], "estimator": estimator,
                            **section})
    out = _run_fresh(_SIMULATE_PROBE, json.dumps(raw), str(tmp_path / "out"))
    assert out.strip() == "0 [True, 0] []"
    assert (tmp_path / "out" / "simulate.csv").exists()


def test_sweep_command_loads_no_heavy_scipy(tmp_path):
    raw = _config(
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.0}],
                "r_list": [4.0, 9.0], "a": 1.0},
        sweep={"n_batches": 10, "events_per_batch": 500, "warmup_events": 100,
               "estimator": "batch_means"},
    )
    code = ("import sys, hwq.cli\n"
            "rc = hwq.cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2],"
            " '--jobs', '1'])\n"
            f"print(rc, [m for m in {_HEAVY!r} if m in sys.modules])")
    out = _run_fresh(code, json.dumps(raw), str(tmp_path / "out"))
    assert out.strip() == "0 []"
    assert (tmp_path / "out" / "sweep.csv").exists()


# Routes every sweep point through a probe that writes, to a file of its own,
# the scipy and mpmath modules the point imported itself and the t quantiles
# it computed itself; forked workers inherit the patched name.  The parent
# reports whether it loaded mpmath.
_SWEEP_PROBE = """
import json, os, sys
import hwq.verify
from hwq.model import ClassParams
from hwq.simulate import t975
from hwq.verify import FunctionalSpec, sweep

point = hwq.verify._sweep_point


def probe(*args):
    inherited, misses = set(sys.modules), t975.cache_info().misses
    rows = point(*args)
    new = sorted(m for m in set(sys.modules) - inherited if m.startswith(("scipy", "mpmath")))
    with open(os.path.join(sys.argv[3], f"r{args[0].r}.json"), "w") as f:
        json.dump({"pid": os.getpid(), "new": new,
                   "quantiles": t975.cache_info().misses - misses}, f)
    return rows


hwq.verify._sweep_point = probe
record = {}
rows = sweep([ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)], 1.0, [4.0, 9.0],
             sys.argv[1], [FunctionalSpec("z_total")], 7, estimator=sys.argv[2],
             n_batches=10, events_per_batch=500, warmup_events=100, jobs=2, record=record)
print(json.dumps({"parent": os.getpid(), "jobs": record["jobs"], "rows": len(rows),
                  "mpmath": "mpmath" in sys.modules}))
"""


@pytest.mark.parametrize("kind, estimator", [("fifo", "batch_means"),
                                             ("preemptive_priority", "exact")])
def test_sweep_workers_import_no_scipy(tmp_path, kind, estimator):
    parent = json.loads(_run_fresh(_SWEEP_PROBE, kind, estimator, str(tmp_path)))
    units = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("r*.json"))]
    assert parent["jobs"] == min(2, usable_cores()) and parent["rows"] == 2
    assert [(u["new"], u["quantiles"]) for u in units] == [([], 0), ([], 0)]
    # a batch-means sweep computes the t quantile, loading mpmath, before
    # the workers fork; an all-exact sweep computes none
    assert parent["mpmath"] == (estimator == "batch_means")
    if parent["jobs"] > 1:
        assert parent["parent"] not in {u["pid"] for u in units}


@pytest.mark.parametrize("section, key", [
    ("exact", "fucntionals"),
    ("simulate", "n_batchs"),
    ("couple", "n_event"),
    ("verify", "chekcs"),
    ("sweep", "estimater"),
])
def test_unknown_section_key_exits_one(tmp_path, capsys, section, key):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config(policy="preemptive_priority",
                                           **{section: {key: 1}})))
    rc = main([section, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, values, path", [
    ("verify", {"checks": "drift_identity"}, "verify.checks"),
    ("verify", {"checks": ["drift_identity", "bogus"]}, "verify.checks"),
    ("simulate", {"estimator": "bogus"}, "simulate.estimator"),
    ("sweep", {"estimator": "regenerative"}, "sweep.estimator"),
    ("couple", {"n_seeds": 0}, "couple.n_seeds"),
    ("couple", {"n_events": 0}, "couple.n_events"),
    ("couple", {"n_events": 500, "warmup_events": 500}, "couple.n_events"),
    ("couple", {"warmup_events": -1}, "couple.warmup_events"),
    ("simulate", {"n_batches": 5}, "simulate.n_batches"),
    ("simulate", {"events_per_batch": "x"}, "simulate.events_per_batch"),
    ("simulate", {"warmup_events": -1}, "simulate.warmup_events"),
    ("simulate", {"n_cycles": 1}, "simulate.n_cycles"),
    ("simulate", {"max_events_per_cycle": 0}, "simulate.max_events_per_cycle"),
    ("sweep", {"n_batches": 9.5}, "sweep.n_batches"),
    ("sweep", {"events_per_batch": 0}, "sweep.events_per_batch"),
    ("sweep", {"warmup_events": "none"}, "sweep.warmup_events"),
], ids=["checks-string", "checks-unknown", "simulate-estimator", "sweep-estimator",
        "n_seeds-zero", "n_events-zero", "warmup-at-n_events", "warmup-negative",
        "simulate-n_batches-five", "simulate-events_per_batch-string",
        "simulate-warmup-negative", "simulate-n_cycles-one",
        "simulate-max_events_per_cycle-zero", "sweep-n_batches-float",
        "sweep-events_per_batch-zero", "sweep-warmup-string"])
def test_bad_section_value_exits_one_before_output(tmp_path, capsys, section, values, path):
    raw = _config(policy="preemptive_priority", **{section: values})
    _assert_exits_one_before_output(tmp_path, capsys, section, raw, path)


def _assert_exits_one_before_output(tmp_path, capsys, command, raw, path):
    """raw (a dict, or JSON text) under command exits 1 with one line that
    starts with path, and leaves no output directory."""
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    rc = main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"hwq: config error: {path}") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _schema_keys(schema, parent=""):
    """(path of the object, key) for every key at every level of the schema
    table; a list of objects is walked at its first entry."""
    for key, (check, _) in schema.items():
        yield parent, key
        path = f"{parent}.{key}" if parent else key
        item = getattr(check, "item", None)
        if hasattr(item, "schema"):
            yield from _schema_keys(item.schema, f"{path}[0]")
        elif hasattr(check, "schema"):
            yield from _schema_keys(check.schema, path)


SCHEMA_KEYS = list(_schema_keys(_SCHEMA))
NAN, INF = float("nan"), float("inf")

# one bad value for every key of the schema table, by (path of its object,
# key): a key added without a value here fails
# test_every_schema_key_rejects_a_bad_value
BAD_VALUES = {
    ("", "schema_version"): "hwq-config/2",
    ("", "system"): [],
    ("", "policy"): "lifo",
    ("", "seed"): 1.5,
    ("", "exact"): [],
    ("", "simulate"): None,
    ("", "couple"): 1,
    ("", "verify"): "drift_identity",
    ("", "sweep"): 0,
    ("system", "classes"): {},
    ("system", "a"): INF,
    ("system", "r"): NAN,
    ("system", "r_list"): [],
    ("system.classes[0]", "lambda"): "x",
    ("system.classes[0]", "mu"): None,
    ("system.classes[0]", "nu"): True,
    ("exact", "functionals"): [],
    ("exact.functionals[0]", "id"): 5,
    ("exact.functionals[0]", "theta"): "x",
    ("exact.functionals[0]", "k"): None,
    ("exact.functionals[0]", "x"): NAN,
    ("exact", "K"): "50",
    ("exact", "method"): "power",
    ("simulate", "functionals"): [{"id": "exp_sum_zhat_plus", "theta": "x"}],
    ("simulate.functionals[0]", "id"): None,
    ("simulate.functionals[0]", "theta"): 10 ** 400,
    ("simulate.functionals[0]", "k"): [],
    ("simulate.functionals[0]", "x"): "1",
    ("simulate", "estimator"): "exact",
    ("simulate", "n_batches"): 9,
    ("simulate", "events_per_batch"): 0,
    ("simulate", "warmup_events"): -1,
    ("simulate", "n_cycles"): 1,
    ("simulate", "max_events_per_cycle"): True,
    ("couple", "coupling"): "bogus",
    ("couple", "n_events"): 0,
    ("couple", "warmup_events"): None,
    ("couple", "n_seeds"): 0,
    ("couple", "nu_prime"): ["a", "b"],
    ("verify", "checks"): ["drift_identity", "bogus"],
    ("verify", "K"): 2.5,
    ("verify", "theta_list"): "x",
    ("verify", "k"): "x",
    ("verify", "theta"): "x",
    ("sweep", "functionals"): [{"id": "bogus"}],
    ("sweep.functionals[0]", "id"): [],
    ("sweep.functionals[0]", "theta"): -INF,
    ("sweep.functionals[0]", "k"): "5",
    ("sweep.functionals[0]", "x"): True,
    ("sweep", "estimator"): "regenerative",
    ("sweep", "K"): 0,
    ("sweep", "n_batches"): 9.5,
    ("sweep", "events_per_batch"): "x",
    ("sweep", "warmup_events"): "none",
}


def _with_value(parent, key, value):
    """The preemptive MINIMAL config with value at parent.key; a section or a
    functional list on the way is made when absent, with one z_total entry."""
    raw = _config(policy="preemptive_priority")
    obj = raw
    for name, index in re.findall(r"(\w+)(?:\[(\d+)\])?", parent):
        obj = obj.setdefault(name, [{"id": "z_total"}] if index else {})
        obj = obj[int(index)] if index else obj
    obj[key] = value
    return raw


def _command_for(path):
    """The command whose section holds path; validate for the other keys."""
    section = path.split(".")[0]
    return section if section in COMMANDS else "validate"


@pytest.mark.parametrize("parent, key", SCHEMA_KEYS,
                         ids=[f"{p}-{k}" if p else k for p, k in SCHEMA_KEYS])
def test_every_schema_key_rejects_a_bad_value(tmp_path, capsys, parent, key):
    path = f"{parent}.{key}" if parent else key
    raw = _with_value(parent, key, BAD_VALUES[parent, key])
    _assert_exits_one_before_output(tmp_path, capsys, _command_for(path), raw, path)


def test_bad_values_name_only_schema_keys():
    assert set(BAD_VALUES) == set(SCHEMA_KEYS)
    assert {p for p, _ in SCHEMA_KEYS} >= {"", "system", "system.classes[0]",
                                           "exact.functionals[0]"}


@pytest.mark.parametrize("parent, key", [
    ("", "simualte"),
    ("system", "r_lst"),
    ("system.classes[0]", "Nu"),
    ("exact.functionals[0]", "tehta"),
])
def test_unknown_key_at_every_level_exits_one(tmp_path, capsys, parent, key):
    path = f"{parent}.{key}" if parent else key
    raw = _with_value(parent, key, 0.5)
    _assert_exits_one_before_output(tmp_path, capsys, _command_for(path), raw,
                                    f"{path}: unknown key")


@pytest.mark.parametrize("command, overrides, path", [
    ("validate", {"system": {"classes": [{"lambda": 1.0, "mu": 1.0}], "r_list": ["x"],
                             "a": 1.0}}, "system.r_list[0]"),
    ("verify", {"verify": {"theta_list": [0.1, "x"]}}, "verify.theta_list[1]"),
    ("couple", {"couple": {"coupling": "monotone", "nu_prime": [0.0, 0.0]}},
     "couple.nu_prime"),
    ("couple", {"couple": {"n_events": 500, "warmup_events": 500}}, "couple.n_events"),
    ("sweep", {"policy": "fifo", "sweep": {"estimator": "exact"}}, "sweep.estimator"),
], ids=["r_list-string", "theta_list-string-entry", "nu_prime-per-class",
        "warmup-at-n_events", "sweep-exact-fifo"])
def test_rules_beyond_one_key_exit_one_before_output(tmp_path, capsys, command, overrides,
                                                     path):
    raw = _config(**{"policy": "preemptive_priority", **overrides})
    _assert_exits_one_before_output(tmp_path, capsys, command, raw, path)


TWO_CLASS_SYSTEM = {"classes": [{"lambda": 0.5, "mu": 1.0, "nu": 0.5}] * 2, "r": 4.0,
                    "a": 1.0}


@pytest.mark.parametrize("command, overrides, literal, path", [
    ("validate", {"system": {**MINIMAL["system"], "r": "@"}}, "Infinity", "system.r"),
    ("validate", {"system": {**MINIMAL["system"], "r": "@"}}, "1e400", "system.r"),
    ("validate", {"system": {**MINIMAL["system"], "r": "@"}}, "NaN", "system.r"),
    ("validate", {"system": {**MINIMAL["system"], "a": "@"}}, "Infinity", "system.a"),
    ("validate", {"system": {**MINIMAL["system"], "a": "@"}}, "1" + "0" * 400, "system.a"),
    ("couple", {"system": TWO_CLASS_SYSTEM,
                "couple": {"coupling": "monotone", "nu_prime": ["@", 0.1]}}, "NaN",
     "couple.nu_prime[0]"),
    ("verify", {"verify": {"checks": ["generator_identity"], "theta": "@"}}, "NaN",
     "verify.theta"),
    ("exact", {"exact": {"functionals": [{"id": "qhat_tail", "x": "@"}]}}, "NaN",
     "exact.functionals[0].x"),
], ids=["r-inf", "r-1e400", "r-nan", "a-inf", "a-huge-int", "nu_prime-nan", "theta-nan",
        "functional-x-nan"])
def test_non_finite_number_exits_one_before_output(tmp_path, capsys, command, overrides,
                                                   literal, path):
    text = json.dumps(_config(**{"policy": "preemptive_priority", **overrides}))
    _assert_exits_one_before_output(tmp_path, capsys, command,
                                    text.replace('"@"', literal), f"{path}: expected a finite")


@pytest.mark.parametrize("system, path", [
    ({"classes": [{"lambda": -1, "mu": 1}], "r": 4, "a": 1}, "system.classes[0]: arrival"),
    ({"classes": [{"lambda": 1, "mu": 0}], "r": 4, "a": 1}, "system.classes[0]: service"),
    ({"classes": [{"lambda": 2, "mu": 1}], "r": 4, "a": 1}, "system.classes: sum"),
    ({"classes": [{"lambda": 1, "mu": 1}], "r": 0.5, "a": 1}, "system.r: scale"),
    ({"classes": [{"lambda": 1, "mu": 1}], "r_list": [4, 0.5], "a": 1},
     "system.r_list[1]: scale"),
    ({"classes": [{"lambda": 1, "mu": 1}], "r": 4, "a": 0}, "system.a: spare"),
    ({"classes": [], "r": 4, "a": 1}, "system.classes: at least one"),
    ({"classes": [{"lambda": 1, "mu": 1}], "r": 4, "r_list": [9], "a": 1},
     "system: needs exactly one"),
    ({"classes": [{"lambda": 1, "mu": 1}], "a": 1}, "system: needs exactly one"),
], ids=["lambda-negative", "mu-zero", "load-two", "r-half", "r_list-entry-half", "a-zero",
        "no-classes", "r-and-r_list", "neither-r-nor-r_list"])
def test_system_rule_names_its_path(tmp_path, capsys, system, path):
    _assert_exits_one_before_output(tmp_path, capsys, "validate", _config(system=system), path)


@pytest.mark.parametrize("command, overrides, path", [
    ("verify", {"system": TWO_CLASS_SYSTEM, "verify": {"checks": ["lyapunov"], "K": 20}},
     "verify.checks[0]"),
    ("verify", {"verify": {"checks": ["drift_identity", "lyapunov"], "theta_list": [2.0]}},
     "verify.theta_list[0]"),
    ("verify", {"system": {"classes": [{"lambda": 0.5, "mu": 1.0, "nu": 0.5},
                                       {"lambda": 0.5, "mu": 1.0}], "r": 4.0, "a": 1.0},
                "verify": {"checks": ["abandon_bounds"]}}, "verify.checks[0]"),
    ("couple", {"system": TWO_CLASS_SYSTEM,
                "couple": {"coupling": "monotone", "nu_prime": [0.5, 0.75]}},
     "couple.nu_prime[1]"),
    ("couple", {"system": {"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 2.0}], "r": 4.0,
                           "a": 1.0}}, "couple.coupling"),
    ("exact", {"policy": "fifo"}, "policy"),
    ("verify", {"policy": "fifo"}, "policy"),
], ids=["lyapunov-nu-positive", "lyapunov-theta-two", "abandon-bounds-nu-zero",
        "monotone-nu_prime-above-nu", "infserver-nu-above-mu", "exact-fifo", "verify-fifo"])
def test_command_hypotheses_exit_one_before_output(tmp_path, capsys, command, overrides,
                                                   path):
    raw = _config(**{"policy": "preemptive_priority", **overrides})
    parse_config(raw)  # the config itself is valid: only the command refuses it
    _assert_exits_one_before_output(tmp_path, capsys, command, raw, path)


def test_lyapunov_server_rule_exits_one_before_output(tmp_path, capsys):
    # r = 1, a = 0.1: n_servers = ceil(1.1) = 2 > r*(1+a) = 1.1
    raw = _config(system={"classes": [{"lambda": 1.0, "mu": 1.0}], "r": 1.0, "a": 0.1},
                  verify={"checks": ["lyapunov"]})
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    rc = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1 and not (tmp_path / "out").exists()
    assert err.startswith("hwq: config error: verify.checks[0]")
    assert "n_servers <= r*(1+a)" in err


@pytest.mark.parametrize("command, section", [
    ("exact", {"K": 10**7}),
    ("verify", {"K": 10**7, "checks": ["drift_identity"]}),
])
def test_state_index_beyond_memory_exits_one_before_output(tmp_path, command, section):
    # two preemptive classes at K = 10^7: C(10^7 + 2, 2) states, whose index
    # alone takes 56 bytes each.  The run is capped at 2 GiB of address
    # space, so that a regression that enumerates fails without exhausting
    # the host.
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config(policy="preemptive_priority",
                                           system=TWO_CLASS_SYSTEM, **{command: section})))
    out = tmp_path / "out"
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "import hwq.cli\n"
            "sys.exit(hwq.cli.main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, command, "--config", str(cfg_file),
                           "--out", str(out), "--jobs", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and not out.exists()
    assert proc.stderr.startswith("hwq: config error: K = 10000000: the state index of "
                                  f"{math.comb(10**7 + 2, 2)} states needs")
    assert proc.stderr.rstrip().endswith("physical memory")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_hypotheses_of_other_commands_are_not_checked(tmp_path):
    # nu > mu refuses the default infserver coupling, but simulate does not need it;
    # theta_list outside [0, 1] matters only when lyapunov runs
    raw = _config(system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 2.0}], "r": 4.0,
                          "a": 1.0},
                  simulate={"estimator": "batch_means", "n_batches": 10,
                            "events_per_batch": 200, "warmup_events": 0},
                  verify={"theta_list": [2.0]})
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    for command in ("simulate", "validate"):
        argv = [command, "--config", str(cfg_file), "--out", str(tmp_path / command)]
        assert main(argv + ["--jobs", "1"]) == 0
    raw.update(policy="preemptive_priority", system={**MINIMAL["system"], "r": 16.0})
    cfg_file.write_text(json.dumps(raw))
    argv = ["verify", "--config", str(cfg_file), "--out", str(tmp_path / "verify")]
    assert main(argv + ["--jobs", "1"]) == 0


@pytest.mark.parametrize("functional", [{"id": "z_total", "theta": "x"},
                                        {"id": "exp_sum_zhat_plus"}])
def test_functional_error_names_its_path_once(functional):
    with pytest.raises(SchemaError) as exc:
        parse_config(_config(exact={"functionals": [functional]}))
    assert str(exc.value).count("exact.functionals[0]") == 1


def test_absent_keys_take_the_defaults():
    from hwq.verify import FunctionalSpec

    z_total = [FunctionalSpec("z_total")]
    batch_means = {"n_batches": 20, "events_per_batch": 50_000, "warmup_events": None}
    sections = parse_config(_config()).sections
    assert {cmd: {key: list(v) if isinstance(v, tuple) else v for key, v in sec.items()}
            for cmd, sec in sections.items()} == {
        "exact": {"functionals": z_total, "K": None, "method": "auto"},
        "simulate": {"functionals": z_total, "estimator": "auto", **batch_means,
                     "n_cycles": 1000, "max_events_per_cycle": 1_000_000},
        "couple": {"coupling": "infserver", "n_events": 100_000, "warmup_events": 0,
                   "n_seeds": 1, "nu_prime": None},
        "verify": {"checks": ["drift_identity"], "K": None,
                   "theta_list": [0.05, 0.1, 0.2, 0.5], "k": 5.0, "theta": 0.2},
        "sweep": {"functionals": [FunctionalSpec("exp_sum_zhat_plus", theta=0.1),
                                  FunctionalSpec("exp_sum_zhat_minus", theta=0.1)],
                  "estimator": "auto", "K": None, **batch_means},
    }


def test_readme_schema_lists_each_section_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Config schema")[1].split("```jsonc")[1].split("```")[0]

    def keys(text):  # the quoted names before a colon outside the lists in text
        return set(re.findall(r'"(\w+)":', re.sub(r"\[[^\]]*\]", "", text)))

    # an entry starts at a two-space indent and runs until the next one
    entries = re.split(r'^  "(\w+)":', block, flags=re.M)[1:]
    listed = dict(zip(entries[::2], map(keys, entries[1::2])))
    assert set(listed) == set(_SCHEMA)
    for name, (check, _) in _SCHEMA.items():
        if hasattr(check, "schema"):
            assert listed[name] == set(check.schema), name
    system = _SCHEMA["system"][0].schema
    classes = re.search(r'"classes": \[(.*?)\]', block, flags=re.S).group(1)
    assert keys(classes) == set(system["classes"][0].item.schema)
    functional = re.search(r'"functionals" is (\{.*?\})', block).group(1)
    assert keys(functional) == set(_SCHEMA["exact"][0].schema["functionals"][0].item.schema)


def test_null_warmup_takes_default():
    cfg = parse_config(_config(simulate={"warmup_events": None},
                               sweep={"warmup_events": None}))
    assert cfg.sections["simulate"]["warmup_events"] is None


def test_long_inline_config_is_parsed(tmp_path, capsys):
    text = json.dumps(_config(simulate={"estimator": "batch_means", "n_batches": 10,
                                        "events_per_batch": 100, "warmup_events": 0,
                                        "functionals": [{"id": "z_total"}]}))
    text += " " * (300 - len(text))
    assert len(text) == 300
    assert parse_config(text).seed == 7
    out = tmp_path / "out"
    assert main(["simulate", "--config", text, "--out", str(out), "--jobs", "1"]) == 0
    assert (out / "simulate.csv").exists()
    bad = text.replace('"policy": "fifo"', '"policy": "lifo"')
    assert main(["simulate", "--config", bad, "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert "policy" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "bad").exists()


def test_long_config_path_exits_one(tmp_path, capsys):
    rc = main(["validate", "--config", "x" * 300, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config file" in err and len(err.strip().splitlines()) == 1


def test_shipped_configs_use_known_keys():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "demos" / "configs").glob("*.json")) \
        + sorted((root / "bench" / "configs").glob("*.json"))
    assert len(paths) == 6
    for path in paths:
        parse_config(str(path))


def test_manifest_explains_exact_and_verify(tmp_path):
    raw = _config(
        policy="preemptive_priority",
        system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 1.0}], "r_list": [4.0, 9.0],
                "a": 1.0},
        verify={"K": 40,
                "checks": ["drift_identity", "abandon_bounds", "generator_identity"]},
    )
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    assert main(["exact", "--config", str(cfg_file), "--out", str(tmp_path / "e")]) == 0
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert [p["r"] for p in manifest["phases"]] == [4.0, 9.0]
    for phases in manifest["phases"]:
        assert set(phases) == {"r", "enumerate_s", "build_s", "solve_s"}
    assert [set(c) for c in manifest["counters"]] == [{
        "r", "n_states", "nnz", "generator_bytes", "level_width", "method", "iterations",
        "residual", "deficit"}] * 2
    assert manifest["counters"][0]["method"] == "gth"

    assert main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "v")]) == 0
    manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
    assert [set(p) for p in manifest["phases"]] == [{
        "r", "enumerate_s", "build_s", "solve_s", "drift_identity_s", "abandon_bounds_s",
        "generator_identity_s"}]
    assert all(v >= 0.0 for v in manifest["phases"][0].values())
    # the first system's chain: 41 states and 40 rates up, 40 down, 41 diagonal;
    # generator_identity needs pi, so the solver's counters follow
    [counters] = manifest["counters"]
    assert set(counters) == {"r", "n_states", "nnz", "generator_bytes", "level_width",
                             "method", "iterations", "residual", "deficit"}
    assert (counters["r"], counters["n_states"], counters["nnz"], counters["method"]) == (
        4.0, 41, 121, "gth")
    # Q: 121 float64 rates, 121 int32 columns, 42 int32 row pointers; the one
    # state on level 40 drops one arrival, so one row each of int64 z and psi
    assert counters["generator_bytes"] == 121 * 8 + 121 * 4 + 42 * 4 + 2 * 8

    # a verify without generator_identity does not solve
    raw["verify"]["checks"] = ["drift_identity"]
    cfg_file.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg_file), "--out", str(tmp_path / "d")]) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert [set(p) for p in manifest["phases"]] == [{
        "r", "enumerate_s", "build_s", "drift_identity_s"}]
    assert manifest["counters"] == [{"r": 4.0, "n_states": 41, "nnz": 121,
                                     "generator_bytes": 121 * 12 + 42 * 4 + 16}]

    # each exact sweep point records what hwq exact records, in r order
    raw["sweep"] = {"estimator": "exact", "K": 40}
    cfg_file.write_text(json.dumps(raw))
    for jobs in ("1", "2"):
        out = tmp_path / f"s{jobs}"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                     "--jobs", jobs]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [p["r"] for p in manifest["phases"]] == [4.0, 9.0]
        assert [set(p) for p in manifest["phases"]] == [
            {"r", "enumerate_s", "build_s", "solve_s"}] * 2
        assert [c["r"] for c in manifest["counters"]] == [4.0, 9.0]
        assert [set(c) for c in manifest["counters"]] == [{
            "r", "n_states", "nnz", "generator_bytes", "level_width", "method",
            "iterations", "residual", "deficit"}] * 2


def test_manifest_explains_batch_means_sweep(tmp_path):
    # each batch-means sweep point records its estimation time and its
    # events, warm-up included, in r order at any worker count
    raw = _config(system={"classes": [{"lambda": 1.0, "mu": 1.0, "nu": 0.5}],
                          "r_list": [9.0, 4.0, 16.0], "a": 1.0},
                  sweep={"estimator": "batch_means", "functionals": [{"id": "z_total"}],
                         "n_batches": 10, "events_per_batch": 300, "warmup_events": 100})
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    for jobs in ("1", "2"):
        out = tmp_path / f"s{jobs}"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out),
                     "--jobs", jobs]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [p["r"] for p in manifest["phases"]] == [9.0, 4.0, 16.0]
        assert all(set(p) == {"r", "estimate_s"} and p["estimate_s"] > 0.0
                   for p in manifest["phases"])
        assert [c["r"] for c in manifest["counters"]] == [9.0, 4.0, 16.0]
        for c in manifest["counters"]:
            assert set(c) == {"r", "method", "events", "states", "kev_per_s"}
            assert (c["method"], c["events"]) == ("batch_means", 100 + 10 * 300)
            assert c["kev_per_s"] > 0.0 and 1 < c["states"] <= c["events"]


def test_auto_sweep_decides_before_enumerating(tmp_path, monkeypatch):
    # r = 400 takes default K = 1,060: 86,713,791 states, about 7 GB to
    # enumerate, which an auto sweep must count instead
    import hwq.verify
    from hwq.exact import count_states

    original = hwq.verify.enumerate_states

    def guarded(cfg, kind, K):
        if count_states(cfg, kind, K) > hwq.verify._SWEEP_EXACT_MAX_STATES:
            raise AssertionError(f"enumerated a chain above the exact limit at r = {cfg.r}")
        return original(cfg, kind, K)

    monkeypatch.setattr(hwq.verify, "enumerate_states", guarded)
    raw = _config(policy="nonpreemptive_priority",
                  system={"classes": [{"lambda": 0.5, "mu": 1.0}, {"lambda": 1.0, "mu": 2.0}],
                          "r_list": [4.0, 400.0], "a": 1.0},
                  sweep={"functionals": [{"id": "z_total"}], "n_batches": 10,
                         "events_per_batch": 200, "warmup_events": 100})
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out), "--jobs", "1"]) == 0
    with open(out / "sweep.csv") as fh:
        assert [(row["r"], row["method"]) for row in csv.DictReader(fh)] == [
            ("4.0", "exact"), ("400.0", "batch_means")]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [(c["r"], c.get("method")) for c in manifest["counters"]] == [
        (4.0, "gth"), (400.0, "batch_means")]


def test_band_beyond_memory_exits_one(tmp_path, capsys, monkeypatch):
    # a machine of 100 bytes: the level blocks of the smallest chain do not fit
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else 100)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(_config(policy="preemptive_priority")))
    rc = main(["exact", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
               "--jobs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "physical memory" in err and len(err.strip().splitlines()) == 1
