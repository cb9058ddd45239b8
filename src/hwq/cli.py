"""Experiment runner: JSON configs in, CSV tables + a run manifest out.

Commands::

    hwq validate|exact|simulate|couple|verify|sweep --config FILE --out DIR
        [--seed N] [--jobs M]

The config is a single JSON document (schema documented in the README and
enforced here before any computation).  Every CSV row carries the
(r, a, policy, seed, method) provenance columns.  Given the same config and
seed the emitted CSVs are byte-identical across runs; the manifest echoes
everything needed to reproduce them.

``--jobs M`` (``HWQ_JOBS`` as fallback, a positive integer; default every
usable core) runs the independent units of ``couple`` (the streams) and
``sweep`` (the r points) in up to M forked worker processes, never more
than there are units or usable cores.  Each unit draws from its own
``RngStream(seed, k)`` and results merge in unit order, so the CSVs are
byte-identical for any M.  The manifest records the workers used (``jobs``)
and each unit's wall time (``unit_wall_s``).  The other commands run in
this process.

Exit codes: 0 success (and ``--help``), 1 usage, configuration or
precondition error, 2 numeric non-convergence, 3 an invariant check failed
(e.g. drift violations or an ordering failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from . import __version__
from .errors import (
    CycleTimeout,
    EmptySource,
    HypothesisViolated,
    InsufficientMemory,
    InvalidRate,
    NonUnitLoad,
    NotConverged,
    OrderingViolation,
    Reducible,
    SchemaError,
    ThetaOutOfRange,
    TruncationTooSmall,
    Unsupported,
)
from .model import ClassParams, SystemConfig, build_config, nominal_utilization
from .policy import KINDS
from .simulate import (
    RngStream,
    batch_means_multi,
    check_event_counts,
    choose_estimator,
    default_warmup,
    fan_out,
    regenerative_estimate,
    usable_cores,
)
from .coupling import run_infserver_coupled, run_monotone_coupled
from .exact import build_generator, enumerate_states, expectation, stationary
from .verify import (
    FunctionalSpec,
    default_truncation,
    drift_bounds_abandon_check,
    drift_identity_check,
    generator_identity_check,
    lyapunov_pointwise_check,
    sweep,
)

SCHEMA_VERSION = "hwq-config/1"
COMMANDS = ("validate", "exact", "simulate", "couple", "verify", "sweep")
# the keys each command's section may hold: those its _cmd_* function reads
_SECTION_KEYS = {
    "exact": {"functionals", "K", "method"},
    "simulate": {"functionals", "estimator", "warmup_events", "n_cycles",
                 "max_events_per_cycle", "n_batches", "events_per_batch"},
    "couple": {"coupling", "n_events", "nu_prime", "warmup_events", "n_seeds"},
    "verify": {"checks", "K", "theta_list", "k", "theta"},
    "sweep": {"functionals", "estimator", "K", "n_batches", "events_per_batch",
              "warmup_events"},
}
# the values a section key may take; the first is its default
_CHOICES = {
    ("simulate", "estimator"): ("auto", "regenerative", "batch_means"),
    ("sweep", "estimator"): ("auto", "exact", "batch_means"),
    ("couple", "coupling"): ("infserver", "monotone"),
    ("exact", "method"): ("auto",),  # the solver follows the chain's size
}
# the least value of each estimator count; warmup_events may also be null
_COUNT_MINIMA = {
    ("simulate", "n_batches"): 10,
    ("simulate", "events_per_batch"): 1,
    ("simulate", "warmup_events"): 0,
    ("simulate", "n_cycles"): 2,
    ("simulate", "max_events_per_cycle"): 1,
    ("sweep", "n_batches"): 10,
    ("sweep", "events_per_batch"): 1,
    ("sweep", "warmup_events"): 0,
}
_CHECKS = ("drift_identity", "lyapunov", "abandon_bounds", "generator_identity")

_CONFIG_ERRORS = (
    SchemaError, NonUnitLoad, InvalidRate, HypothesisViolated, Unsupported,
    TruncationTooSmall, ThetaOutOfRange, EmptySource, InsufficientMemory,
)
_NUMERIC_ERRORS = (NotConverged, CycleTimeout, Reducible)


def _fail(path: str, message: str) -> SchemaError:
    return SchemaError(f"{path}: {message}")


def _require(obj, path, key, typ, default=None, required=False):
    if key not in obj:
        if required:
            raise _fail(f"{path}.{key}", "missing required field")
        return default
    val = obj[key]
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, typ) or isinstance(val, bool) and typ is not bool:
        raise _fail(f"{path}.{key}", f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _parse_functionals(raw, path) -> list[FunctionalSpec]:
    if not isinstance(raw, list) or not raw:
        raise _fail(path, "expected a non-empty list of functional objects")
    specs = []
    for i, item in enumerate(raw):
        here = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise _fail(here, "expected an object")
        fid = _require(item, here, "id", str, required=True)
        try:
            spec = FunctionalSpec(
                fid=fid,
                theta=_require(item, here, "theta", float),
                k=_require(item, here, "k", float),
                x=_require(item, here, "x", float),
            )
        except ValueError as exc:
            raise _fail(here, str(exc)) from None
        specs.append(spec)
    return specs


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    seed: int
    policy: str
    a: float
    r_values: tuple[float, ...]
    systems: tuple[SystemConfig, ...]
    sections: dict

    def system(self) -> SystemConfig:
        return self.systems[0]


def parse_config(source) -> ExperimentConfig:
    """Parse and validate a config from a path, JSON text, or dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        # inline JSON never reaches the filesystem: it may exceed the name limit
        if not text.lstrip().startswith("{"):
            try:
                text = Path(text).read_text()
            except FileNotFoundError:
                raise SchemaError(f"config file not found: {source}") from None
            except OSError as exc:
                raise SchemaError(f"config file not readable: {exc.strerror}") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("config root must be a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise _fail("schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}")

    system = _require(raw, "", "system", dict, required=True)
    classes_raw = _require(system, "system", "classes", list, required=True)
    classes = []
    for i, c in enumerate(classes_raw):
        here = f"system.classes[{i}]"
        if not isinstance(c, dict):
            raise _fail(here, "expected an object")
        classes.append(ClassParams(
            lam=_require(c, here, "lambda", float, required=True),
            mu=_require(c, here, "mu", float, required=True),
            nu=_require(c, here, "nu", float, default=0.0),
        ))
    a = _require(system, "system", "a", float, required=True)
    if "r_list" in system:
        r_values = tuple(float(v) for v in _require(system, "system", "r_list", list))
        if not r_values:
            raise _fail("system.r_list", "must be non-empty")
    elif "r" in system:
        r_values = (_require(system, "system", "r", float),)
    else:
        raise _fail("system", "needs either 'r' or 'r_list'")

    policy = _require(raw, "", "policy", str, required=True)
    if policy not in KINDS:
        raise _fail("policy", f"unknown policy {policy!r}; valid kinds: {list(KINDS)}")
    seed = _require(raw, "", "seed", int, default=0)

    systems = tuple(build_config(classes, r, a) for r in r_values)
    n_servers = max(sc.n_servers for sc in systems)
    sections = {}
    for cmd, known in _SECTION_KEYS.items():
        sec = raw.get(cmd, {})
        if not isinstance(sec, dict):
            raise _fail(cmd, "expected an object")
        for key in sorted(set(sec) - known):
            raise _fail(f"{cmd}.{key}", f"unknown key; known keys: {sorted(known)}")
        sections[cmd] = sec
        if "functionals" in sec:
            sections[cmd] = dict(sec)
            sections[cmd]["functionals"] = _parse_functionals(
                sec["functionals"], f"{cmd}.functionals"
            )
        if sec.get("K") is not None and _require(sec, cmd, "K", int) < n_servers:
            raise _fail(f"{cmd}.K", f"must be null or at least n_servers = {n_servers}")
    for (cmd, key), choices in _CHOICES.items():
        val = sections[cmd].get(key, choices[0])
        if val not in choices:
            raise _fail(f"{cmd}.{key}", f"expected one of {list(choices)}, got {val!r}")
    checks = sections["verify"].get("checks", ["drift_identity"])
    if not isinstance(checks, list) or any(c not in _CHECKS for c in checks):
        raise _fail("verify.checks", f"expected a list of names from {list(_CHECKS)}")
    couple = sections["couple"]
    n_events = _require(couple, "couple", "n_events", int, default=100_000)
    warmup = _require(couple, "couple", "warmup_events", int, default=0)
    try:
        check_event_counts(n_events, warmup)
    except ValueError as exc:
        raise _fail("couple.n_events", str(exc)) from None
    if _require(couple, "couple", "n_seeds", int, default=1) < 1:
        raise _fail("couple.n_seeds", "must be at least 1")
    for (cmd, key), least in _COUNT_MINIMA.items():
        if key == "warmup_events" and sections[cmd].get(key) is None:
            continue  # null takes the default warm-up
        val = _require(sections[cmd], cmd, key, int, default=least)
        if val < least:
            raise _fail(f"{cmd}.{key}", f"must be at least {least}, got {val}")
    return ExperimentConfig(
        raw=raw, seed=seed, policy=policy, a=a,
        r_values=r_values, systems=systems, sections=sections,
    )


def emit(cfg: ExperimentConfig) -> str:
    """Canonical JSON text; parse(emit(cfg)) reproduces cfg."""
    return json.dumps(cfg.raw, indent=2, sort_keys=True)


@dataclass(frozen=True)
class ReportBundle:
    csv_paths: tuple[str, ...]
    manifest_path: str
    violations: int


PROVENANCE = ("r", "a", "policy", "seed", "method")


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _cmd_validate(cfg, out_dir, jobs, record):
    rows = []
    for sc in cfg.systems:
        rows.append([sc.r, sc.a, cfg.policy, cfg.seed, "validate",
                     sc.n_servers, nominal_utilization(sc), sum(sc.rho), sc.a_eff])
    path = out_dir / "validate.csv"
    _write_csv(path, PROVENANCE + ("n_servers", "utilization", "load", "a_eff"), rows)
    return [path], 0


def _generator(sc, policy, K, record):
    """The truncated generator of sc's chain (K null for the default); the
    wall times of enumeration and assembly go to the manifest's phases."""
    started = time.perf_counter()
    idx = enumerate_states(sc, policy, K or default_truncation(sc))
    enumerated = time.perf_counter()
    gen = build_generator(idx)
    phases = {"r": sc.r, "enumerate_s": enumerated - started,
              "build_s": time.perf_counter() - enumerated}
    record["phases"].append(phases)
    return gen, phases


def _cmd_exact(cfg, out_dir, jobs, record):
    sec = cfg.sections["exact"]
    specs = sec.get("functionals", [FunctionalSpec("z_total")])
    rows = []
    for sc in cfg.systems:
        gen, phases = _generator(sc, cfg.policy, sec.get("K"), record)
        started = time.perf_counter()
        sv = stationary(gen)
        phases["solve_s"] = time.perf_counter() - started
        record["counters"].append(dict(
            r=sc.r, n_states=gen.idx.n_states, nnz=gen.Q.nnz, envelope_width=sv.envelope_width,
            method=sv.method, iterations=sv.iterations, residual=sv.residual,
            deficit=sv.deficit_estimate))
        for spec in specs:
            vals = spec.vector(sc)(gen.idx.z, gen.idx.psi, sc)
            rows.append([sc.r, sc.a, cfg.policy, cfg.seed, sv.method,
                         spec.label(), spec.theta, spec.k, spec.x,
                         expectation(sv.pi, vals), sv.residual, sv.deficit_estimate])
    path = out_dir / "exact.csv"
    _write_csv(path, PROVENANCE + ("functional", "theta", "k", "x",
                                   "estimate", "solver_residual", "deficit"), rows)
    return [path], 0


def _cmd_simulate(cfg, out_dir, jobs, record):
    sec = cfg.sections["simulate"]
    sc = cfg.system()
    specs = sec.get("functionals", [FunctionalSpec("z_total")])
    method = sec.get("estimator", "auto")
    if method == "auto":
        method = choose_estimator(sc)
    warmup = sec.get("warmup_events")
    warmup = default_warmup(sc) if warmup is None else warmup
    fns = {spec.label(): spec.scalar(sc) for spec in specs}
    if method == "regenerative":
        ests = regenerative_estimate(
            sc, cfg.policy, fns, sec.get("n_cycles", 1000), RngStream(cfg.seed, 0),
            max_events_per_cycle=sec.get("max_events_per_cycle", 1_000_000),
        )
    else:
        ests = batch_means_multi(
            sc, cfg.policy, fns, sec.get("n_batches", 20),
            sec.get("events_per_batch", 50_000), warmup, RngStream(cfg.seed, 0),
        )
    rows = []
    for spec in specs:
        est = ests[spec.label()]
        rows.append([sc.r, sc.a, cfg.policy, cfg.seed, est.method, spec.label(),
                     est.value, est.half_width, est.cycles_or_batches, est.warmup_events])
    path = out_dir / "simulate.csv"
    _write_csv(path, PROVENANCE + ("functional", "estimate", "half_width",
                                   "cycles_or_batches", "warmup_events"), rows)
    return [path], 0


def _couple_stream(sc, kind, coupling, nu_prime, n_events, warmup, seed, stream):
    """One coupled replication on stream (seed, stream); a module-level
    function, so a worker process can run it."""
    rng = RngStream(seed, stream)
    if coupling == "infserver":
        rep = run_infserver_coupled(sc, kind, n_events, rng, warmup_events=warmup)
        return rep.ordering_checks, rep.violations, rep.z_time_avg, rep.g_time_avg
    rep = run_monotone_coupled(sc, nu_prime, kind, n_events, rng, warmup_events=warmup)
    return rep.ordering_checks, rep.violations, rep.z_time_avg, rep.z_prime_time_avg


def _cmd_couple(cfg, out_dir, jobs, record):
    sec = cfg.sections["couple"]
    sc = cfg.system()
    coupling = sec.get("coupling", "infserver")
    n_events = sec.get("n_events", 100_000)
    nu_prime = sec.get("nu_prime", list(sc.nus))
    streams = [(sc, cfg.policy, coupling, nu_prime, n_events, sec.get("warmup_events", 0),
                cfg.seed, stream) for stream in range(sec.get("n_seeds", 1))]
    results = fan_out(_couple_stream, streams, jobs, record)

    nc = sc.n_classes
    other = "g_avg" if coupling == "infserver" else "zprime_avg"
    columns = PROVENANCE + ("stream", "events", "ordering_checks", "violations") \
        + tuple(f"z_avg_{i}" for i in range(nc)) + tuple(f"{other}_{i}" for i in range(nc))
    rows = []
    violations = 0
    for stream, (checks, viol, z_avg, other_avg) in enumerate(results):
        violations += viol
        rows.append([sc.r, sc.a, cfg.policy, cfg.seed, coupling, stream,
                     n_events, checks, viol, *z_avg, *other_avg])
    path = out_dir / "couple.csv"
    _write_csv(path, columns, rows)
    return [path], violations


def _cmd_verify(cfg, out_dir, jobs, record):
    sec = cfg.sections["verify"]
    sc = cfg.system()
    checks = sec.get("checks", ["drift_identity"])
    theta_list = sec.get("theta_list", [0.05, 0.1, 0.2, 0.5])
    k = sec.get("k", 5.0)
    gen, _ = _generator(sc, cfg.policy, sec.get("K"), record)
    rows = []
    violations = 0
    for check in checks:
        if check == "drift_identity":
            rep = drift_identity_check(sc, cfg.policy, gen=gen)
            violations += rep.violations
            rows.append([sc.r, sc.a, cfg.policy, cfg.seed, check, "phi_hat",
                         rep.n_states, rep.violations, rep.max_rel_err, None])
        elif check == "lyapunov":
            for theta in theta_list:
                rep = lyapunov_pointwise_check(sc, cfg.policy, theta, gen=gen)
                violations += rep.violations
                rows.append([sc.r, sc.a, cfg.policy, cfg.seed, check, rep.label,
                             rep.n_states, rep.violations, None, rep.worst_slack])
        elif check == "abandon_bounds":
            rep = drift_bounds_abandon_check(sc, cfg.policy, gen=gen)
            violations += rep.violations
            for side in (rep.upper, rep.lower):
                rows.append([sc.r, sc.a, cfg.policy, cfg.seed, check, side.label,
                             side.n_states, side.violations, None, side.worst_slack])
        elif check == "generator_identity":
            theta = sec.get("theta", 0.2)
            rep = generator_identity_check(sc, cfg.policy, theta=theta, k=k, gen=gen)
            for row in rep.rows:
                if not row.ok:
                    violations += 1
                rows.append([sc.r, sc.a, cfg.policy, cfg.seed, check, row.functional,
                             gen.idx.n_states, int(not row.ok), row.residual,
                             row.bound])
    path = out_dir / "verify.csv"
    _write_csv(path, PROVENANCE + ("label", "n_states", "violations",
                                   "residual_or_err", "bound_or_slack"), rows)
    return [path], violations


def _cmd_sweep(cfg, out_dir, jobs, record):
    sec = cfg.sections["sweep"]
    specs = sec.get("functionals", [FunctionalSpec("exp_sum_zhat_plus", theta=0.1),
                                    FunctionalSpec("exp_sum_zhat_minus", theta=0.1)])
    classes = cfg.system().classes
    rows = sweep(
        classes, cfg.a, cfg.r_values, cfg.policy, specs, cfg.seed,
        estimator=sec.get("estimator", "auto"),
        K=sec.get("K"),
        n_batches=sec.get("n_batches", 20),
        events_per_batch=sec.get("events_per_batch", 50_000),
        warmup_events=sec.get("warmup_events"),
        jobs=jobs,
        record=record,
    )
    out_rows = [[row.r, cfg.a, cfg.policy, cfg.seed, row.method, row.functional,
                 row.theta, row.estimate, row.half_width] for row in rows]
    path = out_dir / "sweep.csv"
    _write_csv(path, PROVENANCE + ("functional", "theta", "estimate", "half_width"),
               out_rows)
    paths = [path]
    svg = _plot_sweep(rows, out_dir)
    if svg is not None:
        paths.append(svg)
    return paths, 0


def _plot_sweep(rows, out_dir):
    """Log-log estimate-vs-r plot; skipped when matplotlib is unavailable."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None
    by_fn = {}
    for row in rows:
        by_fn.setdefault(row.functional, []).append(row)
    fig, ax = plt.subplots(figsize=(6, 4))
    for fn, pts in sorted(by_fn.items()):
        pts.sort(key=lambda p: p.r)
        rs = [p.r for p in pts]
        es = [p.estimate for p in pts]
        errs = [p.half_width for p in pts]
        ax.errorbar(rs, es, yerr=errs, marker="o", label=fn)
    ax.set_xscale("log")
    ax.set_yscale("log")
    ax.set_xlabel("r")
    ax.set_ylabel("estimate")
    ax.legend(fontsize=7)
    path = out_dir / "sweep.svg"
    fig.savefig(path, metadata={"Date": None})
    plt.close(fig)
    return path


_DISPATCH = {
    "validate": _cmd_validate,
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
    "couple": _cmd_couple,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def dispatch(command: str, cfg: ExperimentConfig, out_dir, jobs: int = 1) -> ReportBundle:
    """Run one command on up to ``jobs`` worker processes; write its CSVs and
    the run manifest."""
    if command not in _DISPATCH:
        raise SchemaError(f"unknown command {command!r}; valid: {COMMANDS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    # a fan-out overwrites jobs and unit_wall_s; exact and verify fill the rest
    record = {"jobs": 1, "unit_wall_s": [], "phases": [], "counters": []}
    paths, violations = _DISPATCH[command](cfg, out_dir, jobs, record)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "seed": cfg.seed,
        **record,
        "config": cfg.raw,
        "outputs": [p.name for p in paths],
        "violations": violations,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ReportBundle(
        csv_paths=tuple(str(p) for p in paths),
        manifest_path=str(manifest_path),
        violations=violations,
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line; exit 2 means non-convergence."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="hwq",
        description="Halfin-Whitt multiclass queue experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--jobs", default=None,
                       help="worker processes for replications (HWQ_JOBS as "
                            "fallback; default: every usable core)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return exc.code

    try:
        source = "--jobs" if args.jobs is not None else "HWQ_JOBS"
        text = args.jobs if args.jobs is not None else os.environ.get(source)
        if text is None:
            jobs = usable_cores()
        elif text.isdecimal() and int(text) >= 1:
            jobs = int(text)
        else:
            raise SchemaError(f"{source}: expected a positive integer, got {text!r}")
        cfg = parse_config(args.config)
        if args.seed is not None:
            raw = dict(cfg.raw)
            raw["seed"] = args.seed
            cfg = parse_config(raw)
        bundle = dispatch(args.command, cfg, args.out, jobs=jobs)
    except _CONFIG_ERRORS as exc:
        print(f"hwq: config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"hwq: numeric failure: {exc}", file=sys.stderr)
        return 2
    except OrderingViolation as exc:
        print(f"hwq: invariant violation: {exc}", file=sys.stderr)
        return 3
    if bundle.violations > 0:
        print(f"hwq: {bundle.violations} invariant violation(s); see reports",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
