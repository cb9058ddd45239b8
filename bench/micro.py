"""Per-layer microbenchmarks for code too fine-grained to trace.

* policy: ``apply_arrival``, ``apply_departure(SERVICE)`` and
  ``apply_departure(QUEUE)`` per kind, on states sampled from a warmed-up
  r=400 trajectory.  Each op runs on a fresh copy made outside the timed
  loop, so the sampled states never drift.  Times include the loop overhead.
* simulate: ``sample_event`` on the same states, and batch-means throughput
  per kind at r = 25, 100, 400 with the sweep's two functionals.
* coupling: throughput of both joint-chain runners for FIFO and preemptive
  priority at r=25, with their ordering-check counts.
* model: ``scale_arrays`` on the 45k-state arrays of ``exact_wide``.
"""

from __future__ import annotations

import random
import statistics
import time

from hwq.cli import parse_config
from hwq.coupling import run_infserver_coupled, run_monotone_coupled
from hwq.exact import enumerate_states
from hwq.model import build_config, scale_arrays
from hwq.policy import FIFO, NONPREEMPTIVE, PREEMPTIVE, QUEUE, SERVICE, init_state
from hwq.simulate import RngStream, batch_means_multi, default_warmup, sample_event, step
from hwq.verify import default_truncation

KINDS = {"fifo": FIFO, "preemptive": PREEMPTIVE, "nonpreemptive": NONPREEMPTIVE}
SWEEP_RS = (25.0, 100.0, 400.0)
OPS = ("arrival", "service", "abandon")

POLICY_R = 400.0
POOL_SIZE = 64  # sampled states per op
COPIES = 40  # copies of each sampled state per timed round
ROUNDS = 5
BATCH_EVENTS = 4000  # per batch, 10 batches, after default_warmup
COUPLING_EVENTS = 40_000
SCALE_REPEATS = 15


def _pick(weights, rng) -> int:
    u = rng.random() * sum(weights)
    for i, w in enumerate(weights):
        u -= w
        if u < 0.0:
            return i
    return max(i for i, w in enumerate(weights) if w > 0.0)


def _sample_pools(cfg, kind, rng):
    """op -> [(state, cls)] from one trajectory, classes drawn by their rates."""
    state = init_state(cfg, kind)
    for _ in range(20 * cfg.n_servers):
        step(state, cfg, rng)
    pools = {op: [] for op in OPS}
    for _ in range(200 * POOL_SIZE):
        if all(len(p) >= POOL_SIZE for p in pools.values()):
            break
        for _ in range(50):
            step(state, cfg, rng)
        z, psi = state.z, state.psi
        weights = {
            "arrival": list(cfg.arrival_rates),
            "service": [m * p for m, p in zip(cfg.mus, psi)],
            "abandon": [n * (zi - p) for n, zi, p in zip(cfg.nus, z, psi)],
        }
        for op, w in weights.items():
            if len(pools[op]) < POOL_SIZE and sum(w) > 0.0:
                pools[op].append((state.copy(), _pick(w, rng)))
    return pools


def _time_op(pool, op, rng) -> float:
    per_op = []
    for _ in range(ROUNDS):
        work = [(s.copy(), c) for s, c in pool for _ in range(COPIES)]
        t0 = time.perf_counter_ns()
        if op == "arrival":
            for s, c in work:
                s.apply_arrival(c, rng)
        elif op == "service":
            for s, c in work:
                s.apply_departure(c, SERVICE, rng)
        else:
            for s, c in work:
                s.apply_departure(c, QUEUE, rng)
        per_op.append((time.perf_counter_ns() - t0) / len(work))
    return statistics.median(per_op)


def _time_sample_event(counts, cfg, rng) -> float:
    per_op = []
    for _ in range(ROUNDS):
        work = counts * COPIES
        t0 = time.perf_counter_ns()
        for z, psi in work:
            sample_event(z, psi, cfg, rng)
        per_op.append((time.perf_counter_ns() - t0) / len(work))
    return statistics.median(per_op)


def policy_and_sampling(config, seed: int) -> dict:
    """policy.<kind>.<op>_ns for every kind and op, plus simulate.sample_event_ns,
    with the config's classes at r = POLICY_R."""
    parsed = parse_config(config)
    cfg = build_config(parsed.system().classes, POLICY_R, parsed.a)
    rng = random.Random(seed)
    out = {}
    counts = []
    for short, kind in KINDS.items():
        pools = _sample_pools(cfg, kind, rng)
        for op in OPS:
            if not pools[op]:
                raise RuntimeError(f"no {kind} state allows a {op} at r={POLICY_R:g}")
            out[f"policy.{short}.{op}_ns"] = _time_op(pools[op], op, rng)
        counts += [(list(s.z), list(s.psi)) for s, _ in pools["arrival"]]
    out["simulate.sample_event_ns"] = _time_sample_event(counts, cfg, rng)
    return out


def simulate_throughput(sweep_config, seed: int) -> dict:
    """simulate.<kind>.r<r>.kev_per_s through batch_means_multi."""
    cfg = parse_config(sweep_config)
    classes = cfg.system().classes
    specs = cfg.sections["sweep"]["functionals"]
    out = {}
    for short, kind in KINDS.items():
        for pos, r in enumerate(SWEEP_RS):
            sc = build_config(classes, r, cfg.a)
            fns = {spec.label(): spec.scalar(sc) for spec in specs}
            warmup = default_warmup(sc)
            t0 = time.perf_counter()
            batch_means_multi(sc, kind, fns, 10, BATCH_EVENTS, warmup,
                              RngStream(seed, pos))
            elapsed = time.perf_counter() - t0
            out[f"simulate.{short}.r{r:g}.kev_per_s"] = (
                (warmup + 10 * BATCH_EVENTS) / elapsed / 1e3
            )
    return out


def coupling_throughput(monotone_config, seed: int) -> tuple[dict, int, int]:
    """coupling.<coupling>.<kind>.kev_per_s; also (ordering checks, events).

    System and shadow rates come from the monotone companion config.
    """
    cfg = parse_config(monotone_config)
    sc = cfg.system()
    nu_prime = cfg.sections["couple"]["nu_prime"]
    out = {}
    checks = events = 0
    for short in ("fifo", "preemptive"):
        kind = KINDS[short]
        for coupling in ("infserver", "monotone"):
            rng = RngStream(seed, 0)
            t0 = time.perf_counter()
            if coupling == "infserver":
                rep = run_infserver_coupled(sc, kind, COUPLING_EVENTS, rng)
            else:
                rep = run_monotone_coupled(sc, nu_prime, kind, COUPLING_EVENTS, rng)
            elapsed = time.perf_counter() - t0
            out[f"coupling.{coupling}.{short}.kev_per_s"] = rep.events / elapsed / 1e3
            checks += rep.ordering_checks
            events += rep.events
    return out, checks, events


def scale_arrays_ms(exact_config) -> float:
    """Median time of one scale_arrays call over every state of the config."""
    cfg = parse_config(exact_config)
    sc = cfg.system()
    idx = enumerate_states(sc, cfg.policy, default_truncation(sc))
    times = []
    for _ in range(SCALE_REPEATS):
        t0 = time.perf_counter()
        scale_arrays(idx.z, idx.psi, sc)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3
