"""Benchmark of the hwq CLI on four workloads, end to end and per layer.

Usage::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all   # every workload, one process each

One client drives ``hwq.cli.main`` in process, in a closed loop: each command
finishes before the next starts.  No ``--threads`` flag is passed and
``HWQ_THREADS`` is cleared, so every command runs at its default fan-out.
``--seed`` is handed to every command; without it each config's own seed is
used.

``--trace 0`` repeats the workload's commands until ``--seconds`` have
passed (at least once) and reports the end-to-end metrics: mean wall time
per repetition, median set-up time over several fresh interpreters, and the
process's peak resident memory.  ``--trace 1`` runs the workload once
untraced, then every workload once with spans installed, then the per-layer
microbenchmarks, and reports the per-layer metrics; ``--seconds`` does not
apply.

Every repetition's outputs are checked (see ``checks.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the machine, the environment and
every sample goes to ``.bench_out/runs/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    Checker,
    check_command,
    check_couple,
    check_exact_banded,
    check_exact_wide,
    check_sweep,
    read_rows,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEMO_CONFIGS = ROOT / "demos" / "configs"

SETUP_SAMPLES = 3  # fresh interpreters timed per run


@dataclass(frozen=True)
class Call:
    """One CLI command of a workload and the checks on its CSV."""

    command: str
    config: Path
    csv: str
    n_rows: int
    check: Callable[[Checker, list], None]

    @property
    def name(self) -> str:
        return f"{self.command}:{self.config.stem}"

    def simulated_events(self) -> int:
        raw = json.loads(self.config.read_text())
        sec = raw.get(self.command, {})
        if self.command == "sweep":
            per_r = sec["warmup_events"] + sec["n_batches"] * sec["events_per_batch"]
            return per_r * len(raw["system"]["r_list"])
        if self.command == "couple":
            return sec["n_events"] * sec["n_seeds"]
        return 0


# Each workload loads one layer heavily and leaves the others nearly idle.
WORKLOADS = {
    # dense GTH on a narrow band (n=3655, envelope 85): solver bound
    "exact_banded": (
        Call("verify", BENCH / "configs" / "exact_banded.json", "verify.csv", 6,
             check_exact_banded),
    ),
    # n=45255 (envelope 1366): generator assembly in Python plus power iteration
    "exact_wide": (
        Call("exact", BENCH / "configs" / "exact_wide.json", "exact.csv", 3,
             check_exact_wide),
    ),
    # FIFO batch means at r = 25, 100, 400: the event loop and FifoState
    "sim_sweep": (
        Call("sweep", DEMO_CONFIGS / "sweep_fifo_tightness.json", "sweep.csv", 6,
             check_sweep),
    ),
    # joint-chain runners with an ordering check after every event
    "couple": (
        Call("couple", DEMO_CONFIGS / "couple_infserver_r25.json", "couple.csv", 4,
             functools.partial(check_couple, coupling="infserver")),
        Call("couple", BENCH / "configs" / "couple_monotone_r25.json", "couple.csv", 4,
             functools.partial(check_couple, coupling="monotone")),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Span-derived metrics and their units.  A traced run executes every
# workload's commands once with spans installed; each workload reports the
# metrics of the layers it calls, prefixed by its name, so no metric is a
# layer that its workload never enters.
SPAN_UNITS = {
    "exact.enumerate_s": "s",
    "exact.build_s": "s",
    "exact.solve_s": "s",
    "exact.abar_s": "s",
    "exact.n_states": "count",
    "exact.nnz": "count",
    "exact.envelope_width": "count",
    "exact.solve_iterations": "count",
    "exact.residual": "rate",
    "exact.dense_bytes": "B",
    "verify.drift_identity_s": "s",
    "verify.abandon_bounds_s": "s",
    "verify.generator_identity_s": "s",
    "verify.sweep_s": "s",
    "simulate.estimator_s": "s",
    "simulate.events": "count",
    "coupling.runner_s": "s",
    "coupling.events": "count",
    "cli.parse_config_s": "s",
    "cli.self_s": "s",
}
_CLI = ("cli.parse_config_s", "cli.self_s")
TRACED = {
    "exact_banded": ("exact.enumerate_s", "exact.build_s", "exact.solve_s",
                     "exact.abar_s", "exact.n_states", "exact.nnz",
                     "exact.envelope_width", "exact.residual", "exact.dense_bytes",
                     "verify.drift_identity_s", "verify.abandon_bounds_s",
                     "verify.generator_identity_s", *_CLI),
    "exact_wide": ("exact.enumerate_s", "exact.build_s", "exact.solve_s",
                   "exact.n_states", "exact.nnz", "exact.envelope_width",
                   "exact.solve_iterations", "exact.residual", *_CLI),
    "sim_sweep": ("verify.sweep_s", "simulate.estimator_s", "simulate.events", *_CLI),
    "couple": ("coupling.runner_s", "coupling.events", *_CLI),
}
# Microbenchmark metrics (see micro.py) and the tracing overhead of the
# workload named on the command line.
PROBE_UNITS = {
    "simulate.sample_event_ns": "ns",
    **{f"simulate.{k}.r{r}.kev_per_s": "kev/s"
       for k in ("fifo", "preemptive", "nonpreemptive") for r in (25, 100, 400)},
    **{f"policy.{k}.{op}_ns": "ns"
       for k in ("fifo", "preemptive", "nonpreemptive")
       for op in ("arrival", "service", "abandon")},
    **{f"coupling.{c}.{k}.kev_per_s": "kev/s"
       for c in ("infserver", "monotone") for k in ("fifo", "preemptive")},
    "coupling.ordering_checks_per_event": "ratio",
    "model.scale_arrays_ms": "ms",
    "trace.overhead_s": "s",
}
PER_LAYER = {
    **{f"{w}.{m}": SPAN_UNITS[m] for w, names in TRACED.items() for m in names},
    **PROBE_UNITS,
}


def environment() -> dict:
    """Machine and library record; HWQ_THREADS is cleared by then."""
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "hwq_threads_cleared": "HWQ_THREADS" not in os.environ,
    }


def measure_setup(configs) -> list[float]:
    """Seconds from spawning an interpreter until hwq.cli is imported and the
    configs are parsed, once per sample."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, configs)]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_rep(calls, seed, out_dir: Path, chk: Checker, reference: dict,
            tracer=None) -> float:
    """Run the workload's commands once, check their outputs, return wall time.

    ``reference`` maps each call to the CSV bytes of the run's first
    repetition; later repetitions must match them exactly.
    """
    from hwq.cli import main

    wall = 0.0
    for i, call in enumerate(calls):
        call_out = out_dir / f"call{i}"
        argv = [call.command, "--config", str(call.config), "--out", str(call_out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        wall += time.perf_counter() - t0
        csv_path = call_out / call.csv
        rows = read_rows(csv_path)
        check_command(chk, call.name, rc, rows, call.n_rows)
        call.check(chk, rows)
        data = csv_path.read_bytes() if csv_path.exists() else b""
        if i in reference:
            chk.check(f"{call.name}.csv_identical", data == reference[i],
                      "CSV differs from the first repetition at the same seed")
        else:
            reference[i] = data
        shutil.rmtree(call_out, ignore_errors=True)
    return wall


def envelope_width(Q) -> int:
    """max_k (k - lo(k)), lo(k) the lowest index coupled to k in either
    direction: the band GTH fill-in stays inside."""
    import numpy as np

    coo = Q.tocoo()
    off = coo.row != coo.col
    hi = np.maximum(coo.row[off], coo.col[off])
    lo = np.arange(Q.shape[0])
    np.minimum.at(lo, hi, np.minimum(coo.row[off], coo.col[off]))
    return int((np.arange(Q.shape[0]) - lo).max())


def span_metrics(tracer) -> dict:
    """Every SPAN_UNITS metric from one workload's traced commands."""
    st = tracer.self_times()
    enum = [c.result for c in tracer.results("exact.enumerate")]
    gens = [c.result for c in tracer.results("exact.build")]
    solves = [c.result for c in tracer.results("exact.solve")]
    return {
        "exact.enumerate_s": st.get("exact.enumerate", 0.0),
        "exact.build_s": st.get("exact.build", 0.0),
        "exact.solve_s": st.get("exact.solve", 0.0),
        "exact.abar_s": st.get("exact.abar", 0.0),
        "exact.n_states": max((idx.n_states for idx in enum), default=0),
        "exact.nnz": max((g.Q.nnz for g in gens), default=0),
        "exact.envelope_width": max((envelope_width(g.Q) for g in gens), default=0),
        "exact.solve_iterations": sum(sv.iterations for sv in solves),
        "exact.residual": max((sv.residual for sv in solves), default=0.0),
        # computed, not measured: one dense n x n float64 copy per GTH solve
        "exact.dense_bytes": max((8 * sv.pi.size ** 2 for sv in solves
                                  if sv.method == "gth"), default=0),
        "verify.drift_identity_s": st.get("verify.drift_identity", 0.0),
        "verify.abandon_bounds_s": st.get("verify.abandon_bounds", 0.0),
        "verify.generator_identity_s": st.get("verify.generator_identity", 0.0),
        "verify.sweep_s": st.get("verify.sweep", 0.0),
        "simulate.estimator_s": st.get("simulate.estimator", 0.0),
        "simulate.events": sum(
            c.args["warmup_events"] + c.args["n_batches"] * c.args["events_per_batch"]
            for c in tracer.results("simulate.estimator")
        ),
        "coupling.runner_s": st.get("coupling.runner", 0.0),
        "coupling.events": sum(c.result.events for c in tracer.results("coupling.runner")),
        "cli.parse_config_s": st.get("cli.parse_config", 0.0),
        "cli.self_s": st.get("cli.main", 0.0),
    }


def layer_metrics(tracers: dict, overhead: float, seed: int) -> dict:
    """PER_LAYER values from each workload's tracer plus the microbenchmarks."""
    import micro

    values = {}
    for workload, tracer in tracers.items():
        sm = span_metrics(tracer)
        values.update({f"{workload}.{m}": sm[m] for m in TRACED[workload]})

    monotone_config = BENCH / "configs" / "couple_monotone_r25.json"
    values.update(micro.policy_and_sampling(monotone_config, seed))
    values.update(micro.simulate_throughput(DEMO_CONFIGS / "sweep_fifo_tightness.json", seed))
    probes, checks, events = micro.coupling_throughput(monotone_config, seed)
    values.update(probes)
    for tracer in tracers.values():
        for call in tracer.results("coupling.runner"):
            checks += call.result.ordering_checks
            events += call.result.events
    values["coupling.ordering_checks_per_event"] = checks / events
    values["model.scale_arrays_ms"] = micro.scale_arrays_ms(
        BENCH / "configs" / "exact_wide.json")
    values["trace.overhead_s"] = overhead
    return values


def _spread(values) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{len(values)} samples, median {med:.4g}, q1 {q1:.4g}, q3 {q3:.4g}"


def run_workload(name: str, seed, seconds: float, trace: bool) -> dict:
    calls = WORKLOADS[name]
    effective_seed = seed if seed is not None else json.loads(
        calls[0].config.read_text()).get("seed", 0)
    work = OUT / f"work-{name}-{os.getpid()}"
    chk = Checker()
    reference: dict = {}
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "environment": environment(),
              "loadavg_before": os.getloadavg()}
    try:
        if not trace:
            setup = measure_setup([c.config for c in calls])
            walls = []
            started = time.perf_counter()
            while not walls or time.perf_counter() - started < seconds:
                walls.append(run_rep(calls, seed, work / f"rep{len(walls)}", chk,
                                     reference))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # the mean over the window, not the median of repetitions: on a
            # shared host speed drifts in phases of several seconds, and the
            # median of a few repetitions jumps between fast and slow phases
            values = {"wall_s": statistics.fmean(walls),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": peak_mb}
            record["samples"] = {"wall_s": walls, "setup_s": setup}
        else:
            from spans import Tracer

            untraced = run_rep(calls, seed, work / "untraced", chk, reference)
            tracers = {w: Tracer() for w in WORKLOADS}
            traced_walls = {}
            for w, w_calls in WORKLOADS.items():
                with tracers[w].installed():
                    traced_walls[w] = run_rep(
                        w_calls, seed, work / f"traced-{w}", chk,
                        reference if w == name else {}, tracers[w])
            overhead = traced_walls[name] - untraced
            values = layer_metrics(tracers, overhead, effective_seed)
            record["samples"] = {"untraced_wall_s": untraced,
                                 "traced_wall_s": traced_walls}
            record["spans"] = {w: [vars(s) for s in t.spans] for w, t in tracers.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()

    declared = PER_LAYER if trace else END_TO_END
    if set(values) != set(declared):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(declared))}")
    metrics = {k: {"value": values[k], "unit": declared[k]} for k in declared}
    result = {"correct": chk.failed == 0, "attempted": chk.attempted,
              "failed": chk.failed, "metrics": metrics}
    record["failures"] = chk.failures
    record["result"] = result

    print(f"workload {name}  seed {effective_seed}  trace {int(trace)}")
    if trace:
        for k, v in values.items():
            print(f"  {k:42s} {v:.6g} {declared[k]}")
    else:
        samples = record["samples"]
        print(f"  wall_s      {values['wall_s']:.4f} s   (mean; {_spread(samples['wall_s'])})")
        print(f"  setup_s     {values['setup_s']:.4f} s   (median; {_spread(samples['setup_s'])})")
        print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB  (process peak)")
        events = sum(c.simulated_events() for c in calls)
        if events:
            print(f"  kev_per_s   {events / values['wall_s'] / 1e3:.2f} kev/s"
                  f"  ({events} events per repetition)")
    print(f"  fail_frac   {chk.fail_frac:.4g}  ({chk.failed} of {chk.attempted} "
          f"commands and checks failed)")
    for failure in chk.failures:
        print(f"  FAILED {failure}")
    print(f"  environment {json.dumps(record['environment'])}")
    print(f"  loadavg before {record['loadavg_before'][0]:.2f}, "
          f"after {record['loadavg_after'][0]:.2f}")

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{name}-seed{effective_seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    return result


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hwq" / "cli.py").is_file():
        print(f"bench: no hwq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HWQ_THREADS", None)
    import hwq

    if Path(hwq.__file__).resolve().parent != SRC / "hwq":
        print(f"bench: imported hwq from {hwq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
