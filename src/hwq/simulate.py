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
path; they are loaded with the current state on a miss and when the
generator is closed.  So read a state the kernel held from its
:class:`Path`; a FIFO queue stays live.  The memo changes no draw: the
path and the random stream are those of an action applied on every
event.  The cache names each successor by its state id, so it holds no
reference cycle, and the estimators pause the cyclic garbage collector
while the kernel runs (:func:`collector_paused`).

Steady-state functionals are estimated two ways: the regenerative method
(i.i.d. cycles between visits to the empty state, usable only when the empty
state recurs quickly, i.e. small r) and batch means (the default in heavy
traffic).  All averages are time weighted: stationary expectations of a CTMC
are time averages, not event averages.  Each event is weighted by its
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
from one accumulator, the occupancy measure (:func:`occupancy`): the
weight of the events spent in each visited state.  The kernel records,
per event, the id of the state held in a typed array (a :class:`Path`);
the state's total rate is in the kernel's cache.  The accumulator folds
the record with numpy at least every ``GROUP_STATES`` events:
``np.bincount`` sums each state's weights in time order, as one running
sum per state would, and the states are kept in order of first visit.
Nothing is evaluated along the path.  Per batch or regenerative cycle,
the distinct states are stacked into int64 arrays, each functional is
called once on them, and its values are integrated against the measure.
The sample path, the random stream and the sums are those of a per-event
evaluation; only the order of summation differs.  Memory holds the
kernel's cache, one fold of the record and one batch, or one group of
cycles that closes at the first fold bringing it to ``GROUP_STATES``
distinct states, never the whole run.  On request the accumulator also
records the state holding at each point of a time grid, which the
infinite-server coupling samples; a state holding at a grid instant is a
stationary draw only in real time, so there the accumulator weights each
event by its holding time, ``holding_time(u, q)`` of the uniform the
kernel yields.

Functionals take the array form ``f(Z, PSI, cfg)`` of
:meth:`hwq.verify.FunctionalSpec.vector` and of the exact path: ``Z`` and
``PSI`` are int64 arrays of shape (n_states, n_classes), and ``f`` returns
one float per row.

No scipy module is imported here.  The t quantile of the confidence
intervals comes from mpmath, which :func:`t975` imports when it is first
called (:func:`import_quantile` imports it ahead), so the jump kernel and
the coupling runners never load it.
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
from .model import MacroState, SystemConfig
from .policy import QUEUE, SERVICE, init_state

_REGENERATIVE_MAX_R = 50.0  # choose_estimator's limits on r and nu_max
_REGENERATIVE_MAX_NU = 2.0
GROUP_STATES = 2 ** 16  # events per fold of the record, and states per group of cycles


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

    The chain also provides ``load(key, events)``, which sets its count
    lists to the cached state ``key`` that event number ``events``
    reached, and ``branch(k)``, called with the lists at the source state
    the first time category ``k`` fires from it.  ``branch`` returns None
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
    action, and the count lists are left behind.  On a miss the kernel
    brings the lists to the source state, and the chain's event count to
    the number of events recorded before this one, with ``load`` (not
    needed right after a miss, whose action left them there), applies the
    action, given the outcome as a last argument where the pair draws (an
    action given an outcome applies only the change to the count lists),
    and looks the target up as above, so ``rates()`` still sees every new
    state, with the chain's event count at the event that reached it.
    Closing the generator loads the current state and the events recorded
    in the same way, unless the last event was a miss.  The random stream
    and the path are those of the action applied, whole, on every event.

    The count lists therefore hold the current state only after the
    generator is closed, which loads them: a caller that needs the state
    the chain held during a step must read it from ``path`` (the id of
    each event's state, and its key in ``path.table``).
    """
    if path is None:
        path = Path()
    table = path.table
    get = table.get
    rates, load, branch = chain.rates, chain.load, chain.branch
    act = chain.actions()
    act = [*act, act[-1]]  # a draw beyond the cumulative rates picks the last category
    last = len(act) - 2
    record_id = path.ids.append
    u01 = rng.random
    a, b, *rest = chain.counts()
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
    synced = path.cleared + len(path.ids)  # the event count at which the lists hold the source
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
            events = path.cleared + len(path.ids)
            if events != synced:
                load(keys[sid], events)
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
            entry = None  # the lists hold the target, and the chain counted the event
            synced = events + 1
            record_id(sid)
            yield u
            key = (*a, *b, *c)
            entry = get(key) or enter(key)
            fill[o] = entry[0]
    finally:  # on close: bring the count lists to the current state
        if entry is not None:
            load(keys[entry[0]], path.cleared + len(path.ids))


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


def occupancy(events, path: Path, n_events: int, grid_dt: float = 0.0):
    """Weight per visited state over the next ``n_events`` jumps.

    ``path`` is the :class:`Path` the kernel records into; what it recorded
    before the call is discarded.  Each event is weighted by its expected
    holding time ``1/q``, or, when ``grid_dt > 0``, by its holding time
    ``holding_time(u, q)`` of the uniform the kernel yields.  Returns
    ``(states, held, span, grid)``: the rows of the observed states
    visited, in order of first visit, as an int64 array; the weight of
    each, summed in time order; the elapsed time, a running sum of the
    weights (the expected elapsed time when ``grid_dt == 0``); and, when
    ``grid_dt > 0``, the rows of the states occupying each multiple of
    ``grid_dt`` (measured from the start), empty otherwise.  The state
    holding at a grid instant is an unbiased stationary draw, whereas
    event-indexed states follow the jump-chain law.  The grid holds at most
    ``n_events`` rows: a step that would record more raises ``ValueError``
    (naming ``g_sample_dt``, the runner option that sets it).

    The record is folded at least every ``GROUP_STATES`` events: the states
    met so far, in order of first visit, and their sums are put in front of
    the new events, so that ``np.bincount`` adds each state's weights in
    time order, as one running sum per state would.
    """
    path.clear()
    order = np.zeros(0, np.int64)  # observed ids, in order of first visit
    sums = np.zeros(0)
    span = 0.0
    grid = []
    next_grid = grid_dt if grid_dt > 0.0 else float("inf")
    room = n_events
    left = n_events
    while left:
        n = min(left, GROUP_STATES)
        left -= n
        if grid_dt > 0.0:
            uniforms = array("d", islice(events, n))
            ids, rates = path.take()
            held = np.array(list(map(holding_time, uniforms, rates.tolist())))
        else:
            advance(events, n)
            ids, rates = path.take()
            held = 1.0 / rates
        m = len(path.states)
        seq = np.concatenate([order, ids])
        first = np.full(m, len(seq))
        np.minimum.at(first, seq, np.arange(len(seq)))
        seen = np.flatnonzero(first < len(seq))
        totals = np.bincount(seq, np.concatenate([sums, held]), m)
        order = seen[np.argsort(first[seen])]
        sums = totals[order]
        ends = np.add.accumulate(np.concatenate([[span], held]))
        found, next_grid = _grid_events(ends, next_grid, grid_dt, room, n_events)
        for at in found:
            grid.append(ids[at])
            room -= len(at)
        span = float(ends[-1])
    grid = np.concatenate(grid) if grid else np.zeros(0, np.int64)
    return path.states[order], sums, span, path.states[grid]


def _cycle_groups(events, path: Path, n_cycles: int, max_events: int):
    """The first ``n_cycles`` regenerative cycles of a chain started empty,
    in groups: yields ``(states, held, starts, taus)`` per group, the rows
    of each cycle's visited states in order of first visit, stacked, the
    weight of each, the row at which each cycle starts, and each cycle's
    length in expected time.  Each event is weighted by its expected
    holding time ``1/q``.

    A cycle starts at each visit to the empty state, the first state
    recorded (id 0).  A group closes at the fold that brings it to
    ``GROUP_STATES`` rows, or at the last cycle.  A cycle longer than
    ``max_events`` events raises :class:`CycleTimeout`.  Each fold keys the
    events by cycle and state, finds each key's first visit with
    ``np.unique``, and sums its weights in time order with
    ``np.bincount``; the open cycle's states and sums are put in front of
    the next fold's events, as in :func:`occupancy`.
    """
    carry_ids = np.zeros(0, np.int64)  # the open cycle: its states in order of first visit,
    carry_held = np.zeros(0)  # the weight of each,
    carry_span = 0.0  # its length in expected time
    carry_events = 0  # and in events
    pieces = []
    stacked = 0
    done = 0
    simulated = 0
    while done < n_cycles:
        # about as many events as the remaining cycles need, by the mean so far
        n = min(GROUP_STATES, (n_cycles - done) * simulated // max(done, 1) + 256)
        advance(events, n)
        simulated += n
        ids, rates = path.take()
        held = 1.0 / rates
        seq = np.concatenate([carry_ids, ids])
        seg = np.cumsum(seq == 0) - 1  # cycle of each row, from the open one
        seg_new = seg[len(carry_ids):]
        n_seg = int(seg[-1]) + 1
        lengths = np.bincount(seg_new, minlength=n_seg)
        lengths[0] += carry_events
        taus = np.bincount(np.concatenate([[0], seg_new]),
                           np.concatenate([[carry_span], held]), n_seg)
        too_long = np.flatnonzero(lengths[:n_cycles - done] > max_events)
        if len(too_long):
            raise CycleTimeout(
                f"cycle {done + int(too_long[0])} did not return to the empty state "
                f"within {max_events} events"
            )
        m = len(path.states)
        keys, first, inverse = np.unique(seg * m + seq, return_index=True,
                                         return_inverse=True)
        rank = np.empty(len(keys), np.int64)
        by_visit = np.argsort(first)
        rank[by_visit] = np.arange(len(keys))
        sums = np.bincount(rank[inverse], np.concatenate([carry_held, held]))
        keys = keys[by_visit]
        key_seg, key_id = np.divmod(keys, m)
        closed = min(n_seg - 1, n_cycles - done)
        rows = int(np.searchsorted(key_seg, closed))
        pieces.append((path.states[key_id[:rows]], sums[:rows],
                       np.searchsorted(key_seg, np.arange(closed)) + stacked,
                       taus[:closed]))
        stacked += rows
        done += closed
        open_rows = key_seg == n_seg - 1
        carry_ids, carry_held = key_id[open_rows], sums[open_rows]
        carry_span, carry_events = float(taus[-1]), int(lengths[-1])
        if stacked >= GROUP_STATES or done == n_cycles:
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
    ``rates()`` is read.
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

    def load(self, key, events: int) -> None:
        load_counts(self.counts(), key)

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

    def load(self, key, events: int) -> None:
        pass  # the counts never move

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


def _policy_events(cfg: SystemConfig, kind: str, rng):
    """The :class:`Path` and the kernel generator of a fresh empty state of
    ``kind``."""
    if isinstance(rng, RngStream):
        rng = rng.make()
    path = Path()
    return path, jumps(PolicyChain(init_state(cfg, kind), cfg, rng), rng, path)


def check_event_counts(n_events: int, warmup_events: int) -> None:
    """Reject runs whose measured part would be empty."""
    if warmup_events < 0 or n_events <= warmup_events:
        raise ValueError(
            f"need n_events > warmup_events >= 0, got {n_events}, {warmup_events}"
        )


def import_quantile() -> None:
    """Import the module :func:`t975` calls, so that a timer started
    after this counts no import."""
    import mpmath  # noqa: F401


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
    """Ratio estimators over i.i.d. excursions between visits to the empty
    state, for several functionals from a single trajectory.

    Feasible only when the empty state recurs within the event budget, which
    in practice means small r.  Raises :class:`CycleTimeout` otherwise.
    Cycles are integrated in groups of at least ``GROUP_STATES`` distinct
    states (the last group may be smaller), one call per functional and
    group.  When ``record`` is a dict it receives ``events``, the events
    simulated, which include those after the last cycle up to the fold
    that closed it, and ``states``, the number of distinct states the
    kernel cached.
    """
    if n_cycles < 2:
        raise ValueError("need at least 2 regenerative cycles")
    path, events = _policy_events(cfg, kind, rng)  # empty state regenerates
    funcs = list(functionals.values())
    ys = []  # per cycle, the integral of each functional
    taus = []
    with collector_paused():
        for states, held, starts, group_taus in _cycle_groups(events, path, n_cycles,
                                                               max_events_per_cycle):
            ys += _integrate(states, held, starts, funcs, cfg)
            taus += group_taus.tolist()
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

    When ``record`` is a dict it receives ``states``, the number of
    distinct states the kernel cached."""
    if n_batches < 10:
        raise ValueError("need at least 10 batches for a usable CI")
    path, events = _policy_events(cfg, kind, rng)
    funcs = list(functionals.values())
    batch_means = []  # per batch, the time average of each functional
    with collector_paused():
        advance(events, warmup_events, path)
        for _ in range(n_batches):
            states, held, span, _ = occupancy(events, path, events_per_batch)
            batch_means.append([a / span for a in _integrate(states, held, [0], funcs, cfg)[0]])
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

    Empty-state returns become astronomically rare as r grows, which starves
    the regenerative method.
    """
    if cfg.r <= _REGENERATIVE_MAX_R and cfg.nu_max <= _REGENERATIVE_MAX_NU:
        return "regenerative"
    return "batch_means"
