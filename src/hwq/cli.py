"""Experiment runner: JSON configs in, CSV tables + a run manifest out.

Commands::

    hwq validate|exact|simulate|couple|verify|sweep --config FILE --out DIR
        [--seed N] [--jobs M]

The config is a single JSON document, documented in the README.  ``_SCHEMA``
declares every key at every level of it, each with its check and default;
``parse_config`` checks every key, and the rules that span keys, before any
computation.  ``dispatch`` checks the running command's hypotheses on the
system before it creates the output directory.
Every CSV row carries the (r, a, policy, seed, method) provenance columns.
Given the same config and seed the emitted CSVs are byte-identical across
runs; the manifest echoes everything needed to reproduce them.

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
from .policy import FIFO, KINDS
from .simulate import (
    RngStream,
    batch_means_multi,
    choose_estimator,
    default_warmup,
    fan_out,
    import_quantile,
    regenerative_estimate,
    usable_cores,
)
from .coupling import coupling_applies, run_infserver_coupled, run_monotone_coupled
from .exact import check_chain_fits, expectation, off_diagonal
# imported only so that bench/spans.py finds these names here to wrap; the
# commands call them through hwq.verify.exact_chain
from .exact import build_generator, enumerate_states, stationary  # noqa: F401
from .verify import (
    BOUND_HYPOTHESES,
    FunctionalSpec,
    bound_applies,
    default_truncation,
    drift_bounds_abandon_check,
    drift_identity_check,
    exact_chain,
    generator_identity_check,
    lyapunov_pointwise_check,
    sweep,
)

SCHEMA_VERSION = "hwq-config/1"
COMMANDS = ("validate", "exact", "simulate", "couple", "verify", "sweep")

_CONFIG_ERRORS = (
    SchemaError, NonUnitLoad, InvalidRate, HypothesisViolated, Unsupported,
    TruncationTooSmall, ThetaOutOfRange, EmptySource, InsufficientMemory,
)
_NUMERIC_ERRORS = (NotConverged, CycleTimeout, Reducible)


def _fail(path: str, message: str) -> SchemaError:
    return SchemaError(f"{path or 'config root'}: {message}")


# A check takes (value, path), raises a SchemaError naming the path, and
# returns the value to run with: numbers stay as written, since labels print them.
def _typed(typ):
    """A check that the value is a typ; an int counts as a float, a bool as
    neither, and a float must be finite (an int too, within float range)."""
    def check(val, path):
        if isinstance(val, bool) or not isinstance(val, (int, float) if typ is float else typ):
            raise _fail(path, f"expected {typ.__name__}, got {type(val).__name__}")
        if typ is float and not abs(val) <= sys.float_info.max:
            raise _fail(path, "expected a finite number")
        return val
    return check


_number = _typed(float)
_REQUIRED = object()  # the default of a key the config must hold


def _real(val, path):  # the system's numbers and a functional's run as floats
    return float(_number(val, path))


def _count(least):
    def check(val, path):
        if _typed(int)(val, path) < least:
            raise _fail(path, f"must be at least {least}, got {val}")
        return val
    return check


def _one_of(*choices):
    def check(val, path):
        if val not in choices:
            raise _fail(path, f"expected one of {list(choices)}, got {val!r}")
        return val
    return check


def _list_of(item, nonempty=False):
    def check(val, path):
        if not _typed(list)(val, path) and nonempty:
            raise _fail(path, "must be non-empty")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(val)]
    check.item = item
    return check


def _or_null(check):
    return lambda val, path: None if val is None else check(val, path)


def _object(schema, make=dict):
    """A check that the value is an object holding only the keys of schema
    (key -> (check, default)).  A present key passes its check; an absent one
    takes its default, fails if that is _REQUIRED, and is checked as {} if
    that is {}.  make(fields) builds the value to run with."""
    def check(val, path):
        prefix = f"{path}." if path else ""
        for key in _typed(dict)(val, path):
            if key not in schema:
                raise _fail(f"{prefix}{key}", f"unknown key; known keys: {sorted(schema)}")
        fields = {}
        for key, (item, default) in schema.items():
            if key in val or isinstance(default, dict):
                fields[key] = item(val.get(key, default), prefix + key)
            elif default is _REQUIRED:
                raise _fail(prefix + key, "missing required field")
            else:
                fields[key] = default
        try:
            return make(fields)
        except ValueError as exc:  # a FunctionalSpec refuses its id or parameters
            raise _fail(path, str(exc)) from None
    check.schema = schema
    return check


_FUNCTIONALS = _list_of(_object({
    "id": (_typed(str), _REQUIRED),
    **{name: (_real, None) for name in ("theta", "k", "x")},
}, make=lambda fields: FunctionalSpec(fields.pop("id"), **fields)), nonempty=True)
_Z_TOTAL = (FunctionalSpec("z_total"),)
_TRUNCATION = (_or_null(_count(1)), None)  # null: default_truncation; >= n_servers below
_BATCH_MEANS = {
    "n_batches": (_count(10), 20),
    "events_per_batch": (_count(1), 50_000),
    "warmup_events": (_or_null(_count(0)), None),  # null: default_warmup
}
# key -> (check, default) at every level of the config: the keys each
# object may hold; defaults are shared by every parse, so they are immutable
_SCHEMA = {
    "schema_version": (_one_of(SCHEMA_VERSION), SCHEMA_VERSION),
    "system": (_object({
        "classes": (_list_of(_object({
            "lambda": (_real, _REQUIRED),
            "mu": (_real, _REQUIRED),
            "nu": (_real, 0.0),
        }, make=lambda rates: ClassParams(*rates.values()))), _REQUIRED),
        "a": (_real, _REQUIRED),
        "r": (_real, None),  # exactly one of r and r_list, checked below
        "r_list": (_list_of(_real, nonempty=True), None),
    }), _REQUIRED),
    "policy": (_one_of(*KINDS), _REQUIRED),
    "seed": (_typed(int), 0),
    "exact": (_object({
        "functionals": (_FUNCTIONALS, _Z_TOTAL),
        "K": _TRUNCATION,
        "method": (_one_of("auto"), "auto"),  # the solver follows the chain's size
    }), {}),
    "simulate": (_object({
        "functionals": (_FUNCTIONALS, _Z_TOTAL),
        "estimator": (_one_of("auto", "regenerative", "batch_means"), "auto"),
        **_BATCH_MEANS,
        "n_cycles": (_count(2), 1000),
        "max_events_per_cycle": (_count(1), 1_000_000),
    }), {}),
    "couple": (_object({
        "coupling": (_one_of("infserver", "monotone"), "infserver"),
        "n_events": (_count(1), 100_000),
        "warmup_events": (_count(0), 0),
        "n_seeds": (_count(1), 1),
        "nu_prime": (_or_null(_list_of(_number)), None),  # null: the system's nu
    }), {}),
    "verify": (_object({
        "checks": (_list_of(_one_of("drift_identity", "lyapunov", "abandon_bounds",
                                    "generator_identity")), ("drift_identity",)),
        "K": _TRUNCATION,
        "theta_list": (_list_of(_number), (0.05, 0.1, 0.2, 0.5)),
        "k": (_number, 5.0),
        "theta": (_number, 0.2),
    }), {}),
    "sweep": (_object({
        "functionals": (_FUNCTIONALS, (FunctionalSpec("exp_sum_zhat_plus", theta=0.1),
                                       FunctionalSpec("exp_sum_zhat_minus", theta=0.1))),
        "estimator": (_one_of("auto", "exact", "batch_means"), "auto"),
        "K": _TRUNCATION,
        **_BATCH_MEANS,
    }), {}),
}


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
    """Parse and validate a config from a path, JSON text, or dict; every
    key at every level passes its ``_SCHEMA`` check, and absent keys take
    its default."""
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
    doc = _object(_SCHEMA)(raw, "")
    classes, a, r, r_list = (doc["system"][key] for key in ("classes", "a", "r", "r_list"))
    if (r is None) == (r_list is None):
        raise _fail("system", "needs exactly one of 'r' and 'r_list'")
    r_values = tuple(r_list or [r])
    systems = []
    for i, scale in enumerate(r_values):
        try:
            systems.append(build_config(classes, scale, a))
        except (InvalidRate, NonUnitLoad) as exc:  # its message starts with the argument
            key, _, message = str(exc).partition(": ")
            if key == "r" and r_list is not None:
                key = f"r_list[{i}]"
            raise type(exc)(f"system.{key}: {message}") from None
    n_servers = max(sc.n_servers for sc in systems)
    sections = {cmd: doc[cmd] for cmd in COMMANDS if cmd in doc}
    for cmd, sec in sections.items():
        if sec.get("K") is not None and sec["K"] < n_servers:
            raise _fail(f"{cmd}.K", f"must be null or at least n_servers = {n_servers}")
    couple = sections["couple"]
    if couple["n_events"] <= couple["warmup_events"]:
        raise _fail("couple.n_events", "must exceed couple.warmup_events")
    if couple["nu_prime"] is not None and len(couple["nu_prime"]) != len(classes):
        raise _fail("couple.nu_prime", f"expected one entry per class, {len(classes)}")
    if doc["policy"] == FIFO and sections["sweep"]["estimator"] == "exact":
        raise _fail("sweep.estimator", "no exact solve for FIFO; use auto or batch_means")
    return ExperimentConfig(
        raw=raw, seed=doc["seed"], policy=doc["policy"], a=a,
        r_values=r_values, systems=tuple(systems), sections=sections,
    )


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


def _cmd_exact(cfg, out_dir, jobs, record):
    sec = cfg.sections["exact"]
    rows = []
    for sc in cfg.systems:
        gen, sv = exact_chain(sc, cfg.policy, sec["K"], record)
        for spec in sec["functionals"]:
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
    specs = sec["functionals"]
    method = sec["estimator"]
    if method == "auto":
        method = choose_estimator(sc)
    warmup = default_warmup(sc) if sec["warmup_events"] is None else sec["warmup_events"]
    fns = {spec.label(): spec.vector(sc) for spec in specs}
    import_quantile()  # first, so that estimate_s times no import
    started = time.perf_counter()
    if method == "regenerative":
        run = {}
        ests = regenerative_estimate(
            sc, cfg.policy, fns, sec["n_cycles"], RngStream(cfg.seed, 0),
            max_events_per_cycle=sec["max_events_per_cycle"], record=run,
        )
        counters = {"method": method, "events": run["events"], "cycles": sec["n_cycles"],
                    "states": run["states"]}
    else:
        run = {}
        ests = batch_means_multi(
            sc, cfg.policy, fns, sec["n_batches"],
            sec["events_per_batch"], warmup, RngStream(cfg.seed, 0), record=run,
        )
        counters = {"method": method,
                    "events": warmup + sec["n_batches"] * sec["events_per_batch"],
                    "states": run["states"]}
    estimate_s = time.perf_counter() - started
    record["phases"].append({"estimate_s": estimate_s})
    record["counters"].append({**counters, "kev_per_s": counters["events"] / estimate_s / 1e3})
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
    """One coupled replication on stream (seed, stream), with the wall times
    of its warm-up and of the rest; a module-level function, so a worker
    process can run it."""
    rng = RngStream(seed, stream)
    times = {}
    if coupling == "infserver":
        rep = run_infserver_coupled(sc, kind, n_events, rng, warmup_events=warmup,
                                    record=times)
        other = rep.g_time_avg
    else:
        rep = run_monotone_coupled(sc, nu_prime, kind, n_events, rng, warmup_events=warmup,
                                   record=times)
        other = rep.z_prime_time_avg
    return rep.ordering_checks, rep.states_checked, rep.z_time_avg, other, times


def _cmd_couple(cfg, out_dir, jobs, record):
    sec = cfg.sections["couple"]
    sc = cfg.system()
    coupling, n_events = sec["coupling"], sec["n_events"]
    nu_prime = sc.nus if sec["nu_prime"] is None else sec["nu_prime"]
    streams = [(sc, cfg.policy, coupling, nu_prime, n_events, sec["warmup_events"],
                cfg.seed, stream) for stream in range(sec["n_seeds"])]
    results = fan_out(_couple_stream, streams, jobs, record)

    nc = sc.n_classes
    other = "g_avg" if coupling == "infserver" else "zprime_avg"
    columns = PROVENANCE + ("stream", "events", "ordering_checks", "violations") \
        + tuple(f"z_avg_{i}" for i in range(nc)) + tuple(f"{other}_{i}" for i in range(nc))
    # a violated ordering raises OrderingViolation, so a written row has none
    rows = [[sc.r, sc.a, cfg.policy, cfg.seed, coupling, stream, n_events, checks, 0,
             *z_avg, *other_avg]
            for stream, (checks, _, z_avg, other_avg, _) in enumerate(results)]
    record["phases"] = [{"stream": stream, **times}
                        for stream, (*_, times) in enumerate(results)]
    record["counters"] = [{"stream": stream, "events": n_events, "ordering_checks": checks,
                           "states_checked": states,
                           "kev_per_s": n_events / (times["warmup_s"] + times["run_s"]) / 1e3}
                          for stream, (checks, states, _, _, times) in enumerate(results)]
    path = out_dir / "couple.csv"
    _write_csv(path, columns, rows)
    return [path], 0


def _cmd_verify(cfg, out_dir, jobs, record):
    sec = cfg.sections["verify"]
    sc = cfg.system()
    gen, sv = exact_chain(sc, cfg.policy, sec["K"], record,
                          solve="generator_identity" in sec["checks"])
    phases = record["phases"][-1]
    moves = off_diagonal(gen.Q)  # selected once, for every check that applies the rate operator
    # the checks are looked up when this runs, so bench/spans.py can wrap them
    calls = {
        "drift_identity": lambda: drift_identity_check(gen, moves),
        "lyapunov": lambda: [row for theta in sec["theta_list"]
                             for row in lyapunov_pointwise_check(gen, theta, moves)],
        "abandon_bounds": lambda: drift_bounds_abandon_check(gen, moves),
        "generator_identity": lambda: generator_identity_check(gen, sv, sec["theta"], sec["k"],
                                                               moves),
    }
    rows = []
    violations = 0
    for check in sec["checks"]:
        started = time.perf_counter()
        for row in calls[check]():
            violations += row.violations
            rows.append([sc.r, sc.a, cfg.policy, cfg.seed, check, *row])
        key = f"{check}_s"  # a check listed twice adds to its phase
        phases[key] = phases.get(key, 0.0) + time.perf_counter() - started
    path = out_dir / "verify.csv"
    _write_csv(path, PROVENANCE + ("label", "n_states", "violations",
                                   "residual_or_err", "bound_or_slack"), rows)
    return [path], violations


def _cmd_sweep(cfg, out_dir, jobs, record):
    sec = cfg.sections["sweep"]
    rows = sweep(
        cfg.system().classes, cfg.a, cfg.r_values, cfg.policy, sec["functionals"], cfg.seed,
        estimator=sec["estimator"],
        K=sec["K"],
        n_batches=sec["n_batches"],
        events_per_batch=sec["events_per_batch"],
        warmup_events=sec["warmup_events"],
        jobs=jobs,
        record=record,
    )
    out_rows = [[row.r, cfg.a, cfg.policy, cfg.seed, row.method, row.functional,
                 row.theta, row.estimate, row.half_width] for row in rows]
    path = out_dir / "sweep.csv"
    _write_csv(path, PROVENANCE + ("functional", "theta", "estimate", "half_width"),
               out_rows)
    return [path], 0


def _check_hypotheses(command, cfg):
    """Refuse, before any output exists, a verify check or a coupling whose
    hypotheses the system fails, by the predicates the library calls use,
    and an exact solve of a FIFO chain or of a chain whose state index
    exceeds physical memory."""
    sc, sec = cfg.system(), cfg.sections.get(command)
    if command == "verify":
        for i, check in enumerate(sec["checks"]):
            if not bound_applies(check, sc):
                raise _fail(f"verify.checks[{i}]",
                            f"{check} is stated for {BOUND_HYPOTHESES[check]}; got nu = "
                            f"{sc.nus}, n_servers = {sc.n_servers}, r*(1+a) = "
                            f"{sc.r * (1.0 + sc.a):g}")
            for j, theta in enumerate(sec["theta_list"] if check == "lyapunov" else ()):
                if not bound_applies(check, sc, theta):
                    raise _fail(f"verify.theta_list[{j}]",
                                f"lyapunov is proved for theta in [0, 1], got {theta}")
    elif command == "couple" and sec["coupling"] == "infserver":
        if not all(coupling_applies(sc, i) for i in range(sc.n_classes)):
            raise _fail("couple.coupling",
                        f"infserver needs nu <= mu; nu = {sc.nus}, mu = {sc.mus}")
    elif command == "couple":
        for i, nu_prime in enumerate(sec["nu_prime"] or ()):
            if not coupling_applies(sc, i, nu_prime):
                raise _fail(f"couple.nu_prime[{i}]",
                            f"monotone needs 0 <= nu' <= nu = {sc.nus[i]}, got {nu_prime}")
    if command in ("exact", "verify"):
        if cfg.policy == FIFO:
            raise _fail("policy", f"exact solve supports priority policies only, not {FIFO!r}")
        for system in cfg.systems if command == "exact" else (sc,):
            check_chain_fits(system, cfg.policy, sec["K"] or default_truncation(system))


_DISPATCH = {
    "validate": _cmd_validate,
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
    "couple": _cmd_couple,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def dispatch(command: str, cfg: ExperimentConfig, out_dir, jobs: int = 1) -> int:
    """Run one command on up to ``jobs`` worker processes; write its CSVs and
    the run manifest.  Returns the number of invariant violations."""
    if command not in _DISPATCH:
        raise SchemaError(f"unknown command {command!r}; valid: {COMMANDS}")
    _check_hypotheses(command, cfg)
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
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(manifest_text)
    return violations


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
        violations = dispatch(args.command, cfg, args.out, jobs=jobs)
    except _CONFIG_ERRORS as exc:
        print(f"hwq: config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"hwq: numeric failure: {exc}", file=sys.stderr)
        return 2
    except OrderingViolation as exc:
        print(f"hwq: invariant violation: {exc}", file=sys.stderr)
        return 3
    if violations > 0:
        print(f"hwq: {violations} invariant violation(s); see reports",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
