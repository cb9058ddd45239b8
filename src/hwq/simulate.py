"""Exact continuous-time jump simulation and steady-state estimators.

One jump kernel (:func:`jumps`) drives every simulator in the package: the
estimators here and both coupling runners.  A chain object supplies its
per-category rates and applies a jump; the kernel draws the holding time
at the total rate and the category proportionally to the rates.  For a
policy chain the total rate is ``sum_i lam_i*r + sum_i (mu_i*psi_i +
nu_i*q_i)``; rates depend only on the per-class counts, so each event costs
O(n_classes).

Steady-state functionals are estimated two ways: the regenerative method
(i.i.d. cycles between visits to the empty state, usable only when the empty
state recurs quickly, i.e. small r) and batch means (the default in heavy
traffic).  All averages are time weighted: stationary expectations of a CTMC
are time averages, not event averages.

Functionals passed to the estimators take ``(z, psi, cfg)`` where ``z`` and
``psi`` are per-class count lists.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import islice

from scipy import stats as _stats

from .errors import CycleTimeout
from .model import MacroState, SystemConfig
from .policy import QUEUE, SERVICE, init_state


@dataclass(frozen=True)
class RngStream:
    """Named random stream: (seed, stream) -> reproducible generator.

    The generator is seeded with the first 128 bits of
    ``sha256(f"{seed}/{stream}")``, so replication k of a run with master
    seed s always sees the same stream, independent of execution order or
    thread count.
    """

    seed: int
    stream: int = 0

    def make(self) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}/{self.stream}".encode()).digest()
        return random.Random(int.from_bytes(digest[:16], "big"))


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

    ``chain`` provides ``rates()``, its list of per-category rates at the
    current state, and ``jump(k)``, which applies an event of category
    ``k``.  Each step draws the holding time at the total rate, then picks
    a category with probability proportional to its rate and applies it;
    the jump itself may draw further numbers from the same ``rng``.  The
    holding time is yielded after the jump, so a caller that needs the
    state the chain held during it must read that state before advancing
    the generator.
    """
    rates = chain.rates
    jump = chain.jump
    u01 = rng.random
    expov = rng.expovariate
    r = rates()
    last = len(r) - 1
    while True:
        total = sum(r)
        holding = expov(total)
        u = u01() * total
        k = 0
        acc = r[0]
        while acc <= u and k < last:
            k += 1
            acc += r[k]
        jump(k)
        yield holding
        r = rates()


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


EVENT_KINDS = ("arrival", "service_completion", "abandonment")


class PolicyChain:
    """A policy state as a jump chain, updated in place.

    Categories are arrivals, then service completions, then abandonments,
    each by class index; rates depend only on the per-class counts.
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
        if cat == 0:
            self.state.apply_arrival(i, self.rng)
        else:
            self.state.apply_departure(i, SERVICE if cat == 1 else QUEUE, self.rng)


class _Probe(PolicyChain):
    """Policy rates at fixed counts; a jump only records its category."""

    __slots__ = ("k",)

    def jump(self, k: int) -> None:
        self.k = k


def event_rates(z, psi, cfg: SystemConfig) -> list[float]:
    """Per-category rates: arrivals, then service completions, then
    abandonments, each by class index."""
    return list(PolicyChain(MacroState(z=z, psi=psi), cfg).rates())


def total_rate(s: MacroState, cfg: SystemConfig) -> float:
    """Total transition rate out of a macro state."""
    return sum(event_rates(s.z, s.psi, cfg))


def sample_event(z, psi, cfg: SystemConfig, rng: random.Random):
    """Draw (kind, cls, total_rate) for the next event at the given counts.

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


@dataclass(frozen=True)
class RunSummary:
    time_averages: dict
    events: int
    warmup_events: int
    sim_time: float


def run(cfg: SystemConfig, kind: str, n_events: int, warmup_events: int,
        rng, functionals: dict) -> RunSummary:
    """Time-averaged functionals over the post-warmup span of one trajectory.

    ``rng`` may be an :class:`RngStream` or a ``random.Random``.  The result
    is a deterministic function of the stream.
    """
    check_event_counts(n_events, warmup_events)
    state, events = _policy_events(cfg, kind, rng)
    names = list(functionals)
    funcs = [functionals[n] for n in names]
    z = state.z
    psi = state.psi
    advance(events, warmup_events)
    acc, span, _ = time_integrals(
        events, n_events - warmup_events, lambda: [f(z, psi, cfg) for f in funcs]
    )
    if span <= 0.0:
        raise ValueError("post-warmup span has zero length")
    return RunSummary(
        time_averages={n: a / span for n, a in zip(names, acc)},
        events=n_events,
        warmup_events=warmup_events,
        sim_time=span,
    )


def regenerative_estimate(cfg: SystemConfig, kind: str, functional, n_cycles: int,
                          rng, max_events_per_cycle: int = 1_000_000) -> StationaryEstimate:
    """Ratio estimator over i.i.d. excursions between visits to the empty state.

    Feasible only when the empty state recurs within the event budget, which
    in practice means small r.  Raises :class:`CycleTimeout` otherwise.
    """
    if n_cycles < 2:
        raise ValueError("need at least 2 regenerative cycles")
    state, events = _policy_events(cfg, kind, rng)  # empty state regenerates
    z = state.z
    psi = state.psi
    ys = []
    taus = []
    for c in range(n_cycles):
        y = 0.0
        tau = 0.0
        v = functional(z, psi, cfg)
        for holding in islice(events, max_events_per_cycle):
            y += v * holding
            tau += holding
            if not any(z):
                break
            v = functional(z, psi, cfg)
        else:
            raise CycleTimeout(
                f"cycle {c} did not return to the empty state within "
                f"{max_events_per_cycle} events"
            )
        ys.append(y)
        taus.append(tau)
    total_tau = sum(taus)
    est = sum(ys) / total_tau
    mean_tau = total_tau / n_cycles
    resid = [y - est * t for y, t in zip(ys, taus)]
    s2 = sum(v * v for v in resid) / (n_cycles - 1)
    tcrit = float(_stats.t.ppf(0.975, n_cycles - 1))
    half = tcrit * (s2 ** 0.5) / (mean_tau * n_cycles ** 0.5)
    return StationaryEstimate(
        value=est, half_width=half, method="regenerative",
        cycles_or_batches=n_cycles, warmup_events=0,
    )


def batch_means_multi(cfg: SystemConfig, kind: str, functionals: dict,
                      n_batches: int, events_per_batch: int, warmup_events: int,
                      rng) -> dict:
    """Batch-means estimates for several functionals from a single trajectory."""
    if n_batches < 10:
        raise ValueError("need at least 10 batches for a usable CI")
    state, events = _policy_events(cfg, kind, rng)
    names = list(functionals)
    funcs = [functionals[n] for n in names]
    z = state.z
    psi = state.psi

    def observe():
        return [f(z, psi, cfg) for f in funcs]

    advance(events, warmup_events)
    batch_means = [[] for _ in funcs]
    for _ in range(n_batches):
        acc, span, _ = time_integrals(events, events_per_batch, observe)
        for j, a in enumerate(acc):
            batch_means[j].append(a / span)
    tcrit = float(_stats.t.ppf(0.975, n_batches - 1))
    out = {}
    for j, name in enumerate(names):
        bm = batch_means[j]
        mean = sum(bm) / n_batches
        var = sum((b - mean) ** 2 for b in bm) / (n_batches - 1)
        half = tcrit * (var ** 0.5) / n_batches ** 0.5
        out[name] = StationaryEstimate(
            value=mean, half_width=half, method="batch_means",
            cycles_or_batches=n_batches, warmup_events=warmup_events,
        )
    return out


def batch_means_estimate(cfg: SystemConfig, kind: str, functional, n_batches: int,
                         events_per_batch: int, warmup_events: int, rng) -> StationaryEstimate:
    return batch_means_multi(
        cfg, kind, {"f": functional}, n_batches, events_per_batch, warmup_events, rng
    )["f"]


def default_warmup(cfg: SystemConfig) -> int:
    """Crude relaxation-time proxy: 10 events per server."""
    return 10 * cfg.n_servers


def choose_estimator(cfg: SystemConfig, r_threshold: float = 50.0,
                     nu_threshold: float = 2.0) -> str:
    """Regenerative for small r with modest abandonment, batch means otherwise.

    Empty-state returns become astronomically rare as r grows, which starves
    the regenerative method.
    """
    if cfg.r <= r_threshold and cfg.nu_max <= nu_threshold:
        return "regenerative"
    return "batch_means"
