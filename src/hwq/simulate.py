"""Exact continuous-time jump simulation and steady-state estimators.

One jump kernel (:func:`jumps`) drives every simulator in the package: the
estimators here and both coupling runners.  A chain object declares the
per-class count lists its rates depend on, computes its table of
per-category rates from their values, and applies an event of each
category through an action table.  Per event the kernel draws two
uniforms: the holding time's, ``u``, which :func:`holding_time` turns into
an exponential holding time at the total rate, and a point below the
total rate, which picks the category proportionally to the rates, by
bisection on the cumulative rates.  It caches the total and the
cumulative rates of each distinct state, keyed by the values of the count
lists, so a state's table is built once however often it is visited (the
direct method of Gillespie with cached propensities), and a chain's
state may be edited only before the kernel starts.  For a policy chain
the total rate is ``sum_i lam_i*r + sum_i (mu_i*psi_i + nu_i*q_i)``.

The cache also stores, per state and category, the successor the first
event of that category reached: the visited part of the generator, built
lazily.  Where an event's successor is not a function of the counts, the
chain hands the kernel a draw, which makes the event's random choices,
changes any state kept outside the counts, and returns which of a few
outcomes occurred: the monotone thinning, or a FIFO queue, which stays
outside the cache key and only picks the successor through the class of
the head a freed server takes.  The slot then holds one successor per
outcome.  A revisit costs the draws and a bisection, with no key, no
lookup and no action, and the chain's count lists stop following the
path; they are loaded with the current state on a miss from a state
they do not hold and when the generator is closed.  So read a state the
kernel held from its :class:`Path`; a FIFO queue stays live.  The memo
changes no draw: the path and the random stream are those of an action
applied on every event.  The cache names each successor by its state id,
so it holds no reference cycle, and the estimators pause the cyclic
garbage collector while the kernel runs (:func:`collector_paused`).

Steady-state functionals are estimated two ways: the regenerative method
(i.i.d. cycles between visits to a central state, ``z_i = round(rho_i*r)``
with nobody waiting, where the run starts; any fixed recurrent state
regenerates the chain, whereas the empty state has probability of order
``e^{-r}``) and batch means (the default in heavy traffic).  All averages
are time weighted: stationary expectations of a CTMC are time averages,
not event averages.  Each event is weighted by its
expected holding time ``1/q``, the conditional mean of the holding time
given the jump chain, where ``q`` is the total rate of the state held.  A
time average keeps its limit under this weighting, and the asymptotic
variance of a ratio estimator does not grow (Hordijk, Iglehart &
Schassberger, Adv. Appl. Prob. 8, 1976; Fox & Glynn, Oper. Res. Lett. 5,
1986).  Elapsed time is therefore the expected elapsed time ``sum 1/q``,
unless a time grid is asked for (below).  The kernel still draws each
holding time's uniform, so the jump chain at a given seed is the one the
exponential holding times would drive.

Every time average in the package, here and in :mod:`hwq.coupling`, comes
from one fold of the kernel's record, :func:`segments`: the occupancy
measure, the weight of the events spent in each visited state, of each
segment of the run.  A segment ends every n events (a batch, or a coupled
run after its warm-up, as one segment) or at each visit to the state the
run started from (a regenerative cycle); that is the only difference
between the estimators.  The kernel records, per event, the id of the
state held in a typed array (a :class:`Path`); the state's total rate is
in the kernel's cache.  The fold reads the record with numpy at least
every ``GROUP_STATES`` events: ``np.bincount`` sums each (segment, state)
pair's weights in time order, as one running sum per pair would, and each
segment's states are kept in order of first visit.  Nothing is evaluated
along the path.  The segments' distinct states are stacked into int64
arrays in groups, each functional is called once per group, and its
values are integrated against each segment's measure.  The sample path,
the random stream and the sums are those of a per-event evaluation; only
the order of summation differs.  Memory holds the kernel's cache, one fold
of the record and one group of segments, which closes at the first fold
bringing it to ``GROUP_STATES`` distinct states, never the whole run.  On
request the fold also records the state holding at each point of a time
grid, which the infinite-server coupling samples; a state holding at a
grid instant is a stationary draw only in real time, so there each event
is weighted by its holding time, ``holding_time(u, q)`` of the uniform the
kernel yields.

Functionals take the array form ``f(Z, PSI, cfg)`` of
:meth:`hwq.verify.FunctionalSpec.vector` and of the exact path: ``Z`` and
``PSI`` are int64 arrays of shape (n_states, n_classes), and ``f`` returns
one float per row.

No scipy module is imported here.  The t quantile of the confidence
intervals comes from mpmath, which :func:`t975` imports when it is first
called, so the jump kernel and the coupling runners never load it.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import multiprocessing
import os
import random
import time
from array import array
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, islice
from math import log
from operator import mul, sub

import numpy as np

from .errors import CycleTimeout
from .model import MacroState, SystemConfig, central_counts
from .policy import QUEUE, SERVICE, init_state

_REGENERATIVE_MAX_R = 50.0  # choose_estimator's limits on r and nu_max
_REGENERATIVE_MAX_NU = 2.0
GROUP_STATES = 2 ** 16  # events per fold of the record, rows per group of segments, cells per pass


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
    takes about 1 s.  The caller must import what its units import before
    it calls this: a module a worker imports itself is imported again in
    every worker of every run (the exact path's scipy modules cost about
    0.2 s).  Fork only from a process that runs no other Python threads;
    the CLI starts none.
    With one worker, or where ``fork`` is not available, the calls run in
    this process.  Results come back in input order, and each unit draws
    from its own :class:`RngStream`, so they do not depend on the worker
    count.  When ``record`` is a dict it receives ``jobs``, the workers
    used, and ``unit_wall_s``, each unit's wall time in input order.
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


_NO_IDS = np.zeros(0, np.int64)


class Path:
    """What the jump kernel records of a run.

    ``table`` is the kernel's rate cache: for each visited state, keyed by
    the values of the chain's count lists, ``(id, total rate, cumulative
    rates, successors)``, with ids numbering the states in order of first
    visit.  ``successors`` (see :func:`jumps`) holds one slot per category,
    plus one for a draw that lands beyond the cumulative rates: None until
    that category first fires from the state, then the target's id, or
    for a category whose event draws (the chain's ``branch``) a list
    ``[*targets, draw]`` of the target id of each outcome (None until that
    outcome first occurs) and the draw.
    ``ids`` is a typed array that receives, per event, the id of the state
    held, and ``cleared`` counts the events discarded from it.
    :meth:`take` hands it over as numpy arrays and clears it: the events'
    observed ids and the exit rate ``q`` of each event's state, from a
    per-state array of the cached totals, so a consumer weights an event by
    ``1/q`` with one lookup per fold.  A state is observed through its
    first ``width`` counts (all of them when ``width`` is None), the
    observed states are numbered in order of first visit, and ``states``
    holds their rows.  A policy chain is observed whole; a coupling is
    observed through ``(G, Z)`` or ``(Z, Z')``, without the allocation that
    completes its state.
    """

    __slots__ = ("table", "ids", "cleared", "width", "states", "_index", "_observed",
                 "_rates")

    def __init__(self, width: int | None = None):
        self.table = {}
        self.ids = array("q")
        self.cleared = 0
        self.width = width
        self.states = None  # int64 rows of the observed states, once any is taken
        self._index = {}  # observed key -> observed id
        self._observed = _NO_IDS  # state id -> observed id
        self._rates = np.zeros(0)  # state id -> total rate

    def clear(self) -> None:
        """Discard the events recorded so far."""
        self.cleared += len(self.ids)
        del self.ids[:]

    def take(self):
        """``(ids, q)``: the observed id of the state held at each event
        recorded since the last call, and that state's total rate, as an
        int64 and a float array; the record is cleared."""
        known = len(self._observed)
        if len(self.table) > known:
            entries = list(islice(self.table.items(), known, None))
            self._rates = np.concatenate([self._rates, [entry[1] for _, entry in entries]])
            keys = [key for key, _ in entries]
            if self.width is None:  # observed whole: an observed id is the state's id
                fresh = np.arange(known, len(self.table))
            else:
                index = self._index
                rows = len(index)
                fresh = [index.setdefault(key[:self.width], len(index)) for key in keys]
                keys = list(islice(index, rows, None))
            self._observed = np.concatenate([self._observed, fresh])
            if keys:
                new = np.array(keys, np.int64)
                self.states = new if self.states is None else np.concatenate([self.states, new])
        sids = np.frombuffer(self.ids, np.int64)
        ids, rates = self._observed[sids], self._rates[sids]
        del sids  # a buffer the record exports cannot be cleared
        self.clear()
        return ids, rates


def load_counts(lists, key) -> None:
    """Set the count lists, in place and in order, to the values of the
    cache key ``key``."""
    start = 0
    for live in lists:
        end = start + len(live)
        live[:] = key[start:end]
        start = end


def holding_time(u: float, q: float) -> float:
    """The holding time at total rate ``q`` that the kernel's yielded
    uniform ``u`` draws: ``random.expovariate(q)``'s expression."""
    return -log(1.0 - u) / q


def jumps(chain, rng: random.Random, path: Path | None = None):
    """The jump kernel: an endless generator of ``chain``'s jumps, yielding
    per jump the uniform of its holding time.

    ``chain`` provides ``counts()``, the live per-class count lists its
    rates depend on; ``rates()``, its list of per-category rates, a function
    of the values of those lists; and ``actions()``, per category a
    function and the arguments with which it applies an event of that
    category.  The kernel calls ``counts()`` and ``actions()`` once, when
    the generator starts, so a chain's state may be edited only before the
    kernel starts.  It calls ``rates()`` once per distinct state:
    ``path.table`` caches, keyed by the values of the count lists, the
    state's id, its total rate ``q = sum(rates())`` and its cumulative
    rates.  ``rates()`` may raise on a state the chain rejects (a coupling
    checks its orderings there); such a state never enters the cache, and
    the generator stops with the exception.  Each step draws the holding
    time's uniform ``u``, then a point uniform below the total, and applies
    the first category whose cumulative rate exceeds that point (the last
    category when none does); the action may draw further numbers from the
    same ``rng``.  The step then records the state's id in ``path`` (a
    fresh :class:`Path` when None) and yields ``u``.  The holding time is
    ``holding_time(u, q)``; the estimators weight the event by its mean
    ``1/q`` instead and never compute it.

    The chain also provides ``branch(k)``, called with the lists at the
    source state the first time category ``k`` fires from it, and nothing
    else: the kernel calls no other method.  ``branch`` returns None
    when the successor is a function of the state; otherwise ``(draw,
    outcomes)``: ``draw`` is either a probability ``p``, against which the
    kernel compares a fresh uniform (outcome 1 when the uniform is at
    least ``p``, else 0), or a function that makes the event's random
    choices, applies the event's change to any state outside the count
    lists (a FIFO queue), and returns the outcome, an index below
    ``outcomes``.  The kernel stores each (state, category) pair's
    successor in the state's cache entry the first time it fires, or per
    outcome of its draw (see :class:`Path`), and runs the draw on every
    event of the pair, hit or miss, after the category's uniform.  A
    revisit moves straight to the successor: no key, no lookup, no
    action, and the count lists are left behind.  The kernel keeps the id
    of the state the lists hold: the last miss's target, or the first
    state before any miss.  On a miss from another state it loads the
    lists with the source's key (:func:`load_counts`), applies the action,
    given the outcome as a last argument where the pair draws (an action
    given an outcome applies only the change to the count lists), and
    looks the target up as above, so ``rates()`` still sees every new
    state.  Closing the generator loads
    the current state in the same way.  The kernel counts no events apart
    from ``path``: ``path.cleared + len(path.ids)`` events have run, and
    when ``rates()`` raises, the last of them reached the rejected state.
    The random stream and the path are those of the action applied, whole,
    on every event.

    The count lists therefore hold the current state only after the
    generator is closed, which loads them: a caller that needs the state
    the chain held during a step must read it from ``path`` (the id of
    each event's state, and its key in ``path.table``).
    """
    if path is None:
        path = Path()
    table = path.table
    get = table.get
    rates, branch = chain.rates, chain.branch
    act = chain.actions()
    act = [*act, act[-1]]  # a draw beyond the cumulative rates picks the last category
    last = len(act) - 2
    record_id = path.ids.append
    u01 = rng.random
    lists = chain.counts()
    a, b, *rest = lists
    c = rest[0] if rest else ()
    keys = list(table)  # state id -> key
    entries = list(table.values())  # state id -> entry

    def enter(key):
        r = rates()
        keys.append(key)
        entry = table[key] = (len(table), sum(r), tuple(accumulate(r)), [None] * len(act))
        entries.append(entry)
        return entry

    key = (*a, *b, *c)
    entry = get(key) or enter(key)
    held = entry[0]  # the id of the state the count lists hold
    try:
        while True:
            sid, total, cum, slots = entry
            u = u01()  # drawn also where only 1/q is used, so the weighting never moves the path
            k = bisect_right(cum, u01() * total)
            nxt = slots[k]
            if nxt.__class__ is int:  # a cached successor's id
                entry = entries[nxt]
                record_id(sid)
                yield u
                continue
            if nxt is not None:  # a branching slot: [*successor ids, draw]
                d = nxt[-1]
                o = (u01() >= d) if d.__class__ is float else d()
                if nxt[o] is not None:
                    entry = entries[nxt[o]]
                    record_id(sid)
                    yield u
                    continue
            # a miss: apply the event to the count lists, loaded with the source state
            if sid != held:
                load_counts(lists, keys[sid])
            apply, args = act[k]
            if nxt is None:
                drawn = branch(min(k, last))
                if drawn is None:
                    apply(*args)
                    fill, o = slots, k
                else:
                    d, n = drawn
                    nxt = slots[k] = [None] * n + [d]
                    o = (u01() >= d) if d.__class__ is float else d()
            if nxt is not None:
                apply(*args, o)
                fill = nxt
            entry = None  # the lists hold the target
            record_id(sid)
            yield u
            key = (*a, *b, *c)
            entry = get(key) or enter(key)
            held = fill[o] = entry[0]
    finally:  # on close: bring the count lists to the current state
        if entry is not None and entry[0] != held:
            load_counts(lists, keys[entry[0]])


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector over a run of the kernel.

    The cache holds a few tracked containers per distinct state (its entry
    and successor slots), and a growing cache triggers collections of the
    oldest generation again and again, each traversing all of it.  A run
    makes no cyclic garbage, and the cache names successors by state id,
    so it holds no reference cycle either: a runner drops its
    :class:`Path` and its generator before the collector resumes, and
    reference counting frees them."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def advance(events, n: int, path: Path | None = None) -> None:
    """Consume the next ``n`` jumps of a kernel generator, discarding what
    they record in ``path`` every ``GROUP_STATES`` events."""
    while n > 0:
        step = n if path is None else min(n, GROUP_STATES)
        next(islice(events, step, step), None)
        n -= step
        if path is not None:
            path.clear()


def _grid_events(ends, next_grid: float, grid_dt: float, room: int, n_events: int):
    """The grid instants ``next_grid``, ``next_grid + grid_dt``, ... up to
    ``ends[-1]``, each the previous plus ``grid_dt`` as a running sum adds
    them, located among the event end times ``ends[1:]``: per block of
    instants, the index of the first event ending at or after each; and the
    next instant.  More than ``room`` instants raise ``ValueError``."""
    span = ends[-1]
    found = []
    while next_grid <= span:
        gap = (span - next_grid) / grid_dt
        want = room + 1 if gap >= room else int(gap) + 2
        steps = np.full(want, grid_dt)
        steps[0] = next_grid
        instants = np.add.accumulate(steps)
        k = int(np.searchsorted(instants, span, "right"))
        room -= k
        if room < 0:
            raise ValueError(f"g_sample_dt = {grid_dt:g} samples more grid instants "
                             f"than the run's {n_events} events")
        found.append(np.searchsorted(ends[1:], instants[:k]))
        next_grid = float(instants[k]) if k < want else float(instants[-1]) + grid_dt
    return found, next_grid


def segments(events, path: Path, count: int, length: int = 0, max_events: int = 0,
             grid_dt: float = 0.0, grid: list | None = None):
    """The occupancy measure of each of the next ``count`` segments of the
    run, in groups: the weight of the events spent in each state visited.

    A segment ends every ``length`` events, or, when ``length`` is 0, at
    each visit to the first state recorded (id 0): a regenerative cycle,
    which then starts with that visit.  ``path`` is the :class:`Path` the
    kernel records into; what it recorded before the call is discarded.
    Each event is weighted by its expected holding time ``1/q``, or, when
    ``grid_dt > 0``, by its holding time ``holding_time(u, q)`` of the
    uniform the kernel yields.  A segment longer than ``max_events`` events
    (when that is not 0) raises :class:`CycleTimeout`.

    Yields ``(states, held, starts, spans)`` per group: the rows of each
    segment's observed states in order of first visit, stacked, as an int64
    array; the weight of each, summed in time order; the row at which each
    segment starts; and each segment's span, a running sum of its weights
    (the expected elapsed time when ``grid_dt == 0``).  A group closes at
    the fold that brings it to ``GROUP_STATES`` rows, or at the last
    segment.

    With ``grid_dt > 0`` the list ``grid`` receives, per fold, the rows of
    the states occupying each multiple of ``grid_dt`` (measured from the
    start) in it.  The state holding at a grid instant is an unbiased
    stationary draw, whereas event-indexed states follow the jump-chain
    law.  The grid holds at most ``count * length`` rows: a step that would
    record more raises ``ValueError`` (naming ``g_sample_dt``, the runner
    option that sets it).

    The record is folded at least every ``GROUP_STATES`` events: the open
    segment's states and sums are put in front of the fold's events, each
    (segment, state) pair's first visit is found with ``np.minimum.at`` on a
    table of at most ``GROUP_STATES`` cells per pass (a pass of several
    segments where they have few states), and ``np.bincount`` adds each
    pair's weights in time order, as one running sum per pair would.
    """
    path.clear()
    carry_ids = _NO_IDS  # the open segment: its states in order of first visit,
    carry_held = np.zeros(0)  # the weight of each,
    carry_span = 0.0  # its span
    carry_events = 0  # and its events
    total = count * length  # the events of a run of fixed-length segments
    elapsed = 0.0  # the time since the start, on a grid
    next_grid = grid_dt if grid_dt > 0.0 else float("inf")
    room = total  # grid instants left
    pieces = []
    stacked = done = simulated = 0
    while done < count:
        if length:
            n = min(GROUP_STATES, total - simulated)
        else:  # about as many events as the remaining cycles need, by the mean so far
            n = min(GROUP_STATES, (count - done) * simulated // max(done, 1) + 256)
        simulated += n
        if grid_dt > 0.0:
            uniforms = array("d", islice(events, n))
            ids, rates = path.take()
            held = np.array(list(map(holding_time, uniforms, rates.tolist())))
            ends = np.add.accumulate(np.concatenate([[elapsed], held]))
            found, next_grid = _grid_events(ends, next_grid, grid_dt, room, total)
            for at in found:
                grid.append(path.states[ids[at]])
                room -= len(at)
            elapsed = float(ends[-1])
        else:
            advance(events, n)
            ids, rates = path.take()
            held = 1.0 / rates
        # the events that start a segment after the open one, which at the
        # run's start is the segment its first event starts
        bounds = (np.arange(-carry_events % length, n, length) if length
                  else np.flatnonzero(ids == 0))
        if not carry_events:
            bounds = bounds[1:]
        lengths = np.diff(bounds, prepend=0, append=n)  # per segment, its events in the fold
        n_seg = len(lengths)
        # each segment's span, summed in time order from the open one's
        spans = np.bincount(np.concatenate([[0], np.repeat(np.arange(n_seg), lengths)]),
                            np.concatenate([[carry_span], held]), n_seg)
        lengths[0] += carry_events
        too_long = np.flatnonzero(lengths[:count - done] > max_events) if max_events else ()
        if len(too_long):
            raise CycleTimeout(
                f"cycle {done + int(too_long[0])} did not return to the regeneration state "
                f"within {max_events} events"
            )
        seq = np.concatenate([carry_ids, ids])
        starts = np.concatenate([[0], len(carry_ids) + bounds, [len(seq)]])  # per segment, its row
        # each (segment, state) pair's first visit, on a table of the pairs of a pass of segments
        m = len(path.states)
        rank = np.empty(len(seq), np.int64)  # per row, the rank of its pair's first visit
        rows = []  # the rows of first visits, in time order
        ranked = 0
        per_pass = max(1, GROUP_STATES // m)
        for s in range(0, n_seg, per_pass):
            edges = starts[s:s + per_pass + 1]
            lo, hi = edges[0], edges[-1]
            keys = seq[lo:hi]
            if len(edges) > 2:
                keys = np.repeat(np.arange(len(edges) - 1) * m, np.diff(edges)) + keys
            first = np.full((len(edges) - 1) * m, hi)
            np.minimum.at(first, keys, np.arange(lo, hi))
            found = np.sort(first[first < hi])
            first[keys[found - lo]] = np.arange(ranked, ranked + len(found))
            np.take(first, keys, out=rank[lo:hi])
            rows.append(found)
            ranked += len(found)
        rows = np.concatenate(rows)
        sums = np.bincount(rank, np.concatenate([carry_held, held]), ranked)
        # the last segment stays open, unless the run's last event ends it
        closed = min(n_seg - (simulated < total or not length), count - done)
        k = int(np.searchsorted(rows, starts[closed]))
        pieces.append((path.states[seq[rows[:k]]], sums[:k],
                       np.searchsorted(rows, starts[:closed]) + stacked, spans[:closed]))
        stacked += k
        done += closed
        carry_ids, carry_held = seq[rows[k:]], sums[k:]
        carry_span, carry_events = float(spans[-1]), int(lengths[-1])
        if stacked >= GROUP_STATES or done == count:
            yield tuple(np.concatenate(part) for part in zip(*pieces))
            pieces = []
            stacked = 0


def _integrate(states, held, starts, funcs, cfg: SystemConfig) -> list[list[float]]:
    """``sum_s f(s) * held[s]`` over each measure, for each ``f`` in
    ``funcs``: one list per measure.  ``states`` stacks the measures' states,
    one int64 row ``(*z, *psi)`` each, and ``starts`` gives the row at which
    each measure starts; each functional is called once on them."""
    nc = cfg.n_classes
    Z, PSI = states[:, :nc], states[:, nc:]
    sums = [np.add.reduceat(f(Z, PSI, cfg) * held, starts) for f in funcs]
    return np.reshape(sums, (len(funcs), len(starts))).T.tolist()


EVENT_KINDS = ("arrival", "service_completion", "abandonment")
_SOURCES = (None, SERVICE, QUEUE)  # per event kind, the source a departure leaves


class PolicyChain:
    """A policy state as a jump chain.

    Categories are arrivals, then service completions, then abandonments,
    each by class index; each action is the state's own operation.  The
    rates depend only on the count lists ``z`` and ``psi``, and so does
    the successor of a priority state; a FIFO state's queue half is the
    chain's :meth:`branch` draw (:meth:`hwq.policy.FifoState.draw`).
    ``state`` may be a :class:`~hwq.model.MacroState` where only
    ``rates()`` is read.  Like every chain, it provides only the methods
    :func:`jumps` calls; the kernel loads the count lists itself.
    """

    __slots__ = ("state", "rng", "_arrivals", "_mus", "_nus")

    def __init__(self, state, cfg: SystemConfig, rng=None):
        self.state = state
        self.rng = rng
        self._arrivals = cfg.arrival_rates
        self._mus = cfg.mus
        self._nus = cfg.nus

    def counts(self):
        return self.state.z, self.state.psi

    def branch(self, k: int):
        """The queue half of category ``k``'s event at the current state
        (see :meth:`hwq.policy.FifoState.draw`): None for a priority
        policy, whose state is its counts."""
        cat, i = divmod(k, len(self._mus))
        return self.state.draw(i, _SOURCES[cat], self.rng)

    def rates(self) -> list[float]:
        z = self.state.z
        psi = self.state.psi
        return [*self._arrivals, *map(mul, self._mus, psi),
                *map(mul, self._nus, map(sub, z, psi))]

    def actions(self) -> list:
        arrive, depart, rng = self.state.apply_arrival, self.state.apply_departure, self.rng
        classes = range(len(self._mus))
        return ([(arrive, (i, rng)) for i in classes]
                + [(depart, (i, SERVICE, rng)) for i in classes]
                + [(depart, (i, QUEUE, rng)) for i in classes])


class _Probe(PolicyChain):
    """Policy rates at fixed counts; an action only records its category."""

    __slots__ = ("k",)

    def branch(self, k: int) -> None:
        return None

    def actions(self) -> list:
        return [(setattr, (self, "k", k)) for k in range(3 * len(self._mus))]


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
    spent in the state before the jump, drawn from the uniform the kernel
    yields (:func:`holding_time`)."""
    path = Path()
    u = next(jumps(PolicyChain(state, cfg, rng), rng, path))
    [(_, total, _, _)] = path.table.values()  # the one state the jump left
    return holding_time(u, total)


def _policy_events(cfg: SystemConfig, kind: str, rng, central: bool = False):
    """The :class:`Path` and the kernel generator of a fresh state of
    ``kind``: the empty state, or with ``central`` the regeneration state
    ``z_i = round(rho_i * r)``, its total capped at ``n_servers`` by
    lowering the last classes (:func:`hwq.model.central_counts`).  That
    state is built from the empty one by the policy's own arrivals; no
    customer waits in it, so its counts fix it for every policy, a FIFO
    queue included (it is empty)."""
    if isinstance(rng, RngStream):
        rng = rng.make()
    state = init_state(cfg, kind)
    for i, n in enumerate(central_counts(cfg) if central else ()):
        for _ in range(n):
            state.apply_arrival(i, rng)
    path = Path()
    return path, jumps(PolicyChain(state, cfg, rng), rng, path)


def check_event_counts(n_events: int, warmup_events: int) -> None:
    """Reject runs whose measured part would be empty."""
    if warmup_events < 0 or n_events <= warmup_events:
        raise ValueError(
            f"need n_events > warmup_events >= 0, got {n_events}, {warmup_events}"
        )


@functools.cache
def t975(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` degrees of freedom,
    correctly rounded.

    It is the root in t of ``I_x(df/2, 1/2) / 2 = 1/40`` with ``x = df /
    (df + t^2)``, the upper tail of t as a regularized incomplete beta,
    found by mpmath on the bracket [1.9, 13] (the quantile is 12.71 at one
    degree of freedom and falls to the normal 1.96) at 30 digits, then
    rounded to a float.  It equals the float nearest a 45- or 50-digit root
    at every df from 1 to 300 and at 53 df up to 1e7.  A call takes 3-10 ms;
    the result is cached per ``df``."""
    import mpmath

    with mpmath.workdps(30):
        half_df = mpmath.mpf(df) / 2
        upper = mpmath.mpf(1) / 20  # I_x(df/2, 1/2) = P(|T| > t)

        def excess(t):
            return mpmath.betainc(half_df, 0.5, 0, df / (df + t * t),
                                  regularized=True) - upper

        return float(mpmath.findroot(excess, (mpmath.mpf(1.9), mpmath.mpf(13)),
                                     solver="anderson"))


def regenerative_estimate(cfg: SystemConfig, kind: str, functionals: dict,
                          n_cycles: int, rng,
                          max_events_per_cycle: int = 1_000_000,
                          record: dict | None = None) -> dict:
    """Ratio estimators over i.i.d. excursions between visits to a central
    state, for several functionals from a single trajectory.

    Any fixed recurrent state of the chain regenerates it (Asmussen & Glynn,
    *Stochastic Simulation*, 2007, ch. IV).  The empty state has stationary
    probability of order ``e^{-r}`` in the Halfin-Whitt regime, so the run
    starts at, and regenerates at, ``z_i = round(rho_i * r)`` with no
    customer waiting (see :func:`_policy_events`); the first cycle starts
    at time 0, and no warm-up is needed.  A cycle longer than
    ``max_events_per_cycle`` events raises :class:`CycleTimeout`.
    Cycles are the segments of :func:`segments` that end at each return to
    the start, integrated in groups of at least ``GROUP_STATES`` distinct
    states (the last group may be smaller), one call per functional and
    group.  When ``record`` is a dict it receives ``events``, the events
    simulated, which include those after the last cycle up to the fold
    that closed it, and ``states``, the number of distinct states the
    kernel cached.
    """
    if n_cycles < 2:
        raise ValueError("need at least 2 regenerative cycles")
    path, events = _policy_events(cfg, kind, rng, central=True)  # id 0 regenerates
    funcs = list(functionals.values())
    ys = []  # per cycle, the integral of each functional
    taus = []
    with collector_paused():
        for states, held, starts, spans in segments(events, path, n_cycles,
                                                    max_events=max_events_per_cycle):
            ys += _integrate(states, held, starts, funcs, cfg)
            taus += spans.tolist()
        simulated, cached = path.cleared, len(path.table)
        del events, path  # the cache is acyclic: reference counting frees it
    if record is not None:
        record["events"] = simulated
        record["states"] = cached
    total_tau = sum(taus)
    mean_tau = total_tau / n_cycles
    tcrit = t975(n_cycles - 1)
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
                      rng, record: dict | None = None) -> dict:
    """Batch-means estimates for several functionals from a single trajectory.

    After ``warmup_events`` events, the batches are the segments of
    ``events_per_batch`` events of :func:`segments`, integrated in groups
    of at least ``GROUP_STATES`` distinct states, one call per functional
    and group; a batch mean is its integral over its span.  A negative
    warm-up, an empty batch or fewer than 10 batches raise ``ValueError``.
    When ``record`` is a dict it receives ``states``, the number of
    distinct states the kernel cached."""
    check_event_counts(warmup_events + n_batches * events_per_batch, warmup_events)
    if n_batches < 10:
        raise ValueError("need at least 10 batches for a usable CI")
    path, events = _policy_events(cfg, kind, rng)
    funcs = list(functionals.values())
    batch_means = []  # per batch, the time average of each functional
    with collector_paused():
        advance(events, warmup_events, path)
        for states, held, starts, spans in segments(events, path, n_batches, events_per_batch):
            batch_means += [[a / span for a in y] for y, span in
                            zip(_integrate(states, held, starts, funcs, cfg), spans.tolist())]
        cached = len(path.table)
        del events, path  # the cache is acyclic: reference counting frees it
    if record is not None:
        record["states"] = cached
    tcrit = t975(n_batches - 1)
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

    A regenerative cycle returns to the central state in a number of events
    that grows with r (on the two-class system of the tests, about 57, 93
    and 362 events at r = 16, 25 and 100), so a run of ``n_cycles`` cycles
    grows with r too.
    """
    if cfg.r <= _REGENERATIVE_MAX_R and cfg.nu_max <= _REGENERATIVE_MAX_NU:
        return "regenerative"
    return "batch_means"
