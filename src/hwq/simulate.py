"""Exact continuous-time jump simulation and steady-state estimators.

One jump kernel (:func:`jumps`) drives every simulator in the package: the
estimators here and both coupling runners.  A chain object builds its
table of per-category rates once, when the kernel starts, and each jump
applies an event and then rewrites that table in place, so a chain's state
may be edited only before the kernel starts.  The kernel draws the holding
time at the total rate and the category proportionally to the rates.  For a
policy chain the total rate is ``sum_i lam_i*r + sum_i (mu_i*psi_i +
nu_i*q_i)``; rates depend only on the per-class counts, so each event costs
O(n_classes).

Steady-state functionals are estimated two ways: the regenerative method
(i.i.d. cycles between visits to the empty state, usable only when the empty
state recurs quickly, i.e. small r) and batch means (the default in heavy
traffic).  All averages are time weighted: stationary expectations of a CTMC
are time averages, not event averages.

The estimators do not evaluate functionals along the path.  Per batch or
regenerative cycle they accumulate an occupancy measure (:func:`occupancy`):
the holding time spent in each visited state ``(z, psi)``.  The distinct
states of a batch, or of a group of cycles, are stacked into int64 arrays,
each functional is called once on them, and its values are integrated
against the measure.  The sample path and the random stream are those of a
per-event evaluation; only the order of summation differs.  Memory holds
one batch, or one group of cycles that closes at the first cycle bringing
it to ``GROUP_STATES`` distinct states, never the whole run.

Functionals take the array form ``f(Z, PSI, cfg)`` of
:meth:`hwq.verify.FunctionalSpec.vector` and of the exact path: ``Z`` and
``PSI`` are int64 arrays of shape (n_states, n_classes), and ``f`` returns
one float per row.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from math import log

import numpy as np
from scipy.special import stdtrit

from .errors import CycleTimeout
from .model import MacroState, SystemConfig
from .policy import QUEUE, SERVICE, init_state

_REGENERATIVE_MAX_R = 50.0  # choose_estimator's limits on r and nu_max
_REGENERATIVE_MAX_NU = 2.0
GROUP_STATES = 2 ** 16  # regenerative cycles are integrated in groups of this many states


@dataclass(frozen=True)
class RngStream:
    """Named random stream: (seed, stream) -> reproducible generator.

    The generator is seeded with the first 128 bits of
    ``sha256(f"{seed}/{stream}")``, so replication k of a run with master
    seed s always sees the same stream, independent of execution order or
    worker count.
    """

    seed: int
    stream: int = 0

    def make(self) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}/{self.stream}".encode()).digest()
        return random.Random(int.from_bytes(digest[:16], "big"))


def usable_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _timed(fn, args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def fan_out(fn, items, jobs: int = 1, record: dict | None = None) -> list:
    """``[fn(*args) for args in items]``, on up to ``jobs`` worker processes.

    ``fn`` must be a module-level function and every argument picklable.
    ``min(jobs, len(items), usable_cores())`` workers are forked, so they
    inherit the imported modules: a forked pool of two starts in about
    20 ms, a spawned one re-imports numpy and scipy in each worker and
    takes about 1 s.  Fork only from a process that runs no other Python
    threads; the CLI starts none.  With one worker, or where ``fork`` is not
    available, the calls run in this process.  Results come back in input
    order, and each unit draws from its own :class:`RngStream`, so they do
    not depend on the worker count.  When ``record`` is a dict it receives
    ``jobs``, the workers used, and ``unit_wall_s``, each unit's wall time
    in input order.
    """
    items = list(items)
    workers = min(jobs, len(items), usable_cores())
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
            timed = list(pool.map(_timed, [fn] * len(items), items))
    else:
        workers = 1
        timed = [_timed(fn, args) for args in items]
    if record is not None:
        record["jobs"] = workers
        record["unit_wall_s"] = [round(wall, 4) for _, wall in timed]
    return [result for result, _ in timed]


@dataclass(frozen=True)
class StationaryEstimate:
    """Point estimate of a steady-state functional with a 95% half-width."""

    value: float
    half_width: float
    method: str  # "regenerative" | "batch_means"
    cycles_or_batches: int
    warmup_events: int


def jumps(chain, rng: random.Random):
    """The jump kernel: an endless generator of holding times of ``chain``.

    ``chain`` provides ``rates()``, which builds its list of per-category
    rates at the current state and returns it, and ``jump(k)``, which
    applies an event of category ``k`` and then rewrites that same list in
    place for the new state.  The kernel calls ``rates()`` once, when the
    generator starts, and afterwards reads only the live list, so a chain's
    state may be edited only before then.  Each step draws the holding time
    at the total rate, then picks a category with probability proportional
    to its rate and applies it; the jump itself may draw further numbers
    from the same ``rng``.  The holding time is yielded after the jump, so
    a caller that needs the state the chain held during it must read that
    state before advancing the generator.
    """
    jump = chain.jump
    u01 = rng.random
    r = chain.rates()
    last = len(r) - 1
    while True:
        total = sum(r)
        holding = -log(1.0 - u01()) / total  # random.expovariate(total), inlined
        u = u01() * total
        k = 0
        acc = r[0]
        while acc <= u and k < last:
            k += 1
            acc += r[k]
        jump(k)
        yield holding


def advance(events, n: int) -> None:
    """Consume the next ``n`` jumps of a kernel generator."""
    next(islice(events, n, n), None)


def time_integrals(events, n_events: int, observe, grid_dt: float = 0.0):
    """Integrate ``observe()`` over the next ``n_events`` jumps.

    ``observe`` returns a list of floats read from the current state.
    Returns ``(integrals, span, grid)``: the time integral of each entry,
    the elapsed time, and, when ``grid_dt > 0``, the observed list holding
    at each multiple of ``grid_dt`` (measured from the start).  The state
    holding at a grid instant is an unbiased stationary draw, whereas
    event-indexed states follow the jump-chain law.
    """
    vals = observe()
    acc = [0.0] * len(vals)
    span = 0.0
    grid = []
    next_grid = grid_dt if grid_dt > 0.0 else float("inf")
    for holding in islice(events, n_events):
        span += holding
        for j, v in enumerate(vals):
            acc[j] += v * holding
        while next_grid <= span:  # the pre-jump state occupies the instant
            grid.append(vals)
            next_grid += grid_dt
        vals = observe()
    return acc, span, grid


def occupancy(events, n_events: int, z, psi, until_empty: bool = False):
    """Holding time per visited state over the next ``n_events`` jumps.

    ``z`` and ``psi`` are the per-class count lists the jumps update in
    place.  Returns ``(occ, span)``: ``occ`` maps each visited state
    ``(*z, *psi)`` to the time spent in it, in order of first visit, so it
    has at most ``n_events`` entries; ``span`` is the elapsed time.  With
    ``until_empty`` it also stops after the first jump into the empty state.
    """
    occ = {}
    get = occ.get
    span = 0.0
    key = (*z, *psi)
    for holding in islice(events, n_events):
        occ[key] = get(key, 0.0) + holding
        span += holding
        if until_empty and not any(z):
            break
        key = (*z, *psi)
    return occ, span


def _integrate(occs, funcs, cfg: SystemConfig) -> list[list[float]]:
    """``sum_s f(s) * occ[s]`` for each ``f`` in ``funcs`` and each ``occ``
    in ``occs``, one list per measure.  The states of all the measures are
    stacked into one pair of int64 arrays, and each functional is called
    once on them."""
    nc = cfg.n_classes
    sizes = [len(occ) for occ in occs]
    n = sum(sizes)
    states = np.fromiter(chain.from_iterable(chain.from_iterable(occs)), np.int64,
                         n * 2 * nc).reshape(n, 2 * nc)
    held = np.fromiter(chain.from_iterable(occ.values() for occ in occs), float, n)
    Z, PSI = states[:, :nc], states[:, nc:]
    starts = np.cumsum([0] + sizes[:-1])
    sums = [np.add.reduceat(f(Z, PSI, cfg) * held, starts) for f in funcs]
    return np.reshape(sums, (len(funcs), len(occs))).T.tolist()


EVENT_KINDS = ("arrival", "service_completion", "abandonment")


class PolicyChain:
    """A policy state as a jump chain, updated in place.

    Categories are arrivals, then service completions, then abandonments,
    each by class index; rates depend only on the per-class counts.
    ``jump`` rewrites every class's rates after the policy operation, since
    a FIFO service completion or a preemptive reallocation moves the psi of
    classes other than the one that jumped.
    """

    __slots__ = ("state", "rng", "_nc", "_rows", "_rates")

    def __init__(self, state, cfg: SystemConfig, rng=None):
        nc = cfg.n_classes
        self.state = state
        self.rng = rng
        self._nc = nc
        # per class: its index, mu, nu, and its slots in the departure blocks
        self._rows = [(i, cfg.mus[i], cfg.nus[i], nc + i, 2 * nc + i) for i in range(nc)]
        self._rates = list(cfg.arrival_rates) + [0.0] * (2 * nc)

    def rates(self) -> list[float]:
        z = self.state.z
        psi = self.state.psi
        r = self._rates
        for i, mu, nu, svc, ab in self._rows:
            r[svc] = mu * psi[i]
            r[ab] = nu * (z[i] - psi[i])
        return r

    def jump(self, k: int) -> None:
        cat, i = divmod(k, self._nc)
        st = self.state
        if cat == 0:
            st.apply_arrival(i, self.rng)
        else:
            st.apply_departure(i, SERVICE if cat == 1 else QUEUE, self.rng)
        z = st.z
        psi = st.psi
        r = self._rates
        for j, mu, nu, svc, ab in self._rows:
            pj = psi[j]
            r[svc] = mu * pj
            r[ab] = nu * (z[j] - pj)


class _Probe(PolicyChain):
    """Policy rates at fixed counts; a jump only records its category, so
    the table ``rates()`` built stays current."""

    __slots__ = ("k",)

    def jump(self, k: int) -> None:
        self.k = k


def sample_event(z, psi, cfg: SystemConfig, rng: random.Random):
    """Draw (kind, cls, total rate) for the next event at the given counts.

    The draw goes through the jump kernel and changes no state.
    """
    probe = _Probe(MacroState(z=z, psi=psi), cfg)
    next(jumps(probe, rng))
    cat, cls = divmod(probe.k, cfg.n_classes)
    return EVENT_KINDS[cat], cls, sum(probe.rates())


def step(state, cfg: SystemConfig, rng: random.Random) -> float:
    """Advance ``state`` by one jump in place; return the holding time
    spent in the state before the jump."""
    return next(jumps(PolicyChain(state, cfg, rng), rng))


def _policy_events(cfg: SystemConfig, kind: str, rng):
    """Fresh empty state of ``kind`` and the kernel generator driving it."""
    if isinstance(rng, RngStream):
        rng = rng.make()
    state = init_state(cfg, kind)
    return state, jumps(PolicyChain(state, cfg, rng), rng)


def check_event_counts(n_events: int, warmup_events: int) -> None:
    """Reject runs whose measured part would be empty."""
    if warmup_events < 0 or n_events <= warmup_events:
        raise ValueError(
            f"need n_events > warmup_events >= 0, got {n_events}, {warmup_events}"
        )


def regenerative_estimate(cfg: SystemConfig, kind: str, functionals: dict,
                          n_cycles: int, rng,
                          max_events_per_cycle: int = 1_000_000) -> dict:
    """Ratio estimators over i.i.d. excursions between visits to the empty
    state, for several functionals from a single trajectory.

    Feasible only when the empty state recurs within the event budget, which
    in practice means small r.  Raises :class:`CycleTimeout` otherwise.
    Cycles are integrated in groups of at least ``GROUP_STATES`` distinct
    states (the last group may be smaller), one call per functional and
    group.
    """
    if n_cycles < 2:
        raise ValueError("need at least 2 regenerative cycles")
    state, events = _policy_events(cfg, kind, rng)  # empty state regenerates
    z = state.z
    funcs = list(functionals.values())
    ys = []  # per cycle, the integral of each functional
    taus = []
    group = []  # occupancy measures of the cycles not yet integrated
    stacked = 0
    for c in range(n_cycles):
        occ, tau = occupancy(events, max_events_per_cycle, z, state.psi, until_empty=True)
        if any(z):
            raise CycleTimeout(
                f"cycle {c} did not return to the empty state within "
                f"{max_events_per_cycle} events"
            )
        group.append(occ)
        taus.append(tau)
        stacked += len(occ)
        if stacked >= GROUP_STATES or c == n_cycles - 1:
            ys += _integrate(group, funcs, cfg)
            group = []
            stacked = 0
    total_tau = sum(taus)
    mean_tau = total_tau / n_cycles
    tcrit = float(stdtrit(n_cycles - 1, 0.975))
    out = {}
    for j, name in enumerate(functionals):
        est = sum(y[j] for y in ys) / total_tau
        resid = [y[j] - est * t for y, t in zip(ys, taus)]
        s2 = sum(v * v for v in resid) / (n_cycles - 1)
        half = tcrit * (s2 ** 0.5) / (mean_tau * n_cycles ** 0.5)
        out[name] = StationaryEstimate(
            value=est, half_width=half, method="regenerative",
            cycles_or_batches=n_cycles, warmup_events=0,
        )
    return out


def batch_means_multi(cfg: SystemConfig, kind: str, functionals: dict,
                      n_batches: int, events_per_batch: int, warmup_events: int,
                      rng) -> dict:
    """Batch-means estimates for several functionals from a single trajectory."""
    if n_batches < 10:
        raise ValueError("need at least 10 batches for a usable CI")
    state, events = _policy_events(cfg, kind, rng)
    funcs = list(functionals.values())
    advance(events, warmup_events)
    batch_means = []  # per batch, the time average of each functional
    for _ in range(n_batches):
        occ, span = occupancy(events, events_per_batch, state.z, state.psi)
        batch_means.append([a / span for a in _integrate([occ], funcs, cfg)[0]])
    tcrit = float(stdtrit(n_batches - 1, 0.975))
    out = {}
    for j, name in enumerate(functionals):
        bm = [b[j] for b in batch_means]
        mean = sum(bm) / n_batches
        var = sum((b - mean) ** 2 for b in bm) / (n_batches - 1)
        half = tcrit * (var ** 0.5) / n_batches ** 0.5
        out[name] = StationaryEstimate(
            value=mean, half_width=half, method="batch_means",
            cycles_or_batches=n_batches, warmup_events=warmup_events,
        )
    return out


def default_warmup(cfg: SystemConfig) -> int:
    """Crude relaxation-time proxy: 10 events per server."""
    return 10 * cfg.n_servers


def choose_estimator(cfg: SystemConfig) -> str:
    """Regenerative for small r with modest abandonment, batch means otherwise.

    Empty-state returns become astronomically rare as r grows, which starves
    the regenerative method.
    """
    if cfg.r <= _REGENERATIVE_MAX_R and cfg.nu_max <= _REGENERATIVE_MAX_NU:
        return "regenerative"
    return "batch_means"
