"""Independent oracles used to freeze expected values.

Everything here is deliberately written from first principles (cumulative
products, direct summation) and does not touch the solver/simulator code
paths under test.  ``replay_generator`` is one exception: it drives the
policy objects the simulators use, so that the exact generator is checked
against them.  The ``per_event_*`` estimators are the other: they drive
the simulators' chains by ``reference_jumps``, which applies every event
to the chain, so its live count lists follow the path (the kernel leaves
them behind); they record every event's state and
weight without merging repeated states, and evaluate each functional once
over that path: the oracle for the occupancy-measure estimators.  The
kernel draws the reference's random stream, which
``test_kernel_reproduces_reference_stream`` checks.  An event's weight
is its expected holding time ``1/q``, with ``q`` the sum of a fresh rate
table of the state held; where a time grid is asked for, it is the
holding time ``-log(1 - u)/q`` of the uniform ``u`` the kernel yields.
``per_event_coupled`` does the same for the two coupling runners, with the
time grid walked over the recorded event end times.  ``validate_macro_state`` is
the invariant oracle for the policy states.  ``censor_odd_levels_stacked``
forms the censored chain from scipy's block stacking, the oracle for
``D_O`` and the censored operator that ``hwq.exact`` applies without
forming that chain.  ``reference_jumps`` and
``reference_occupancy`` are the kernel and the accumulator as they were
before the kernel cached each state's rates: a fresh rate table per event,
scanned linearly, and a dict of running sums per state.  The cached kernel
must reproduce their random stream and their sums bit for bit.
"""

import math
from itertools import accumulate
from math import log
from typing import NamedTuple

import numpy as np
from scipy import sparse, stats

from hwq.exact import SparseGenerator
from hwq.policy import PREEMPTIVE, QUEUE, SERVICE, init_state
from hwq.simulate import PolicyChain, advance


def birth_death_stationary(birth, death, K):
    """Stationary distribution of a birth-death chain on 0..K.

    ``birth(n)`` and ``death(n)`` give the rates; computed via cumulative
    products of birth/death ratios, normalized.
    """
    weights = [1.0]
    for n in range(1, K + 1):
        weights.append(weights[-1] * birth(n - 1) / death(n))
    total = sum(weights)
    return [w / total for w in weights]


def birth_death_mean(birth, death, K):
    pi = birth_death_stationary(birth, death, K)
    return sum(n * p for n, p in enumerate(pi))


def mmn_stationary(lam, mu, n_servers, K):
    """M/M/N queue: birth lam, death mu*min(n, N)."""
    return birth_death_stationary(
        lambda n: lam, lambda n: mu * min(n, n_servers), K
    )


def erlang_a_stationary(lam, mu, nu, n_servers, K):
    """M/M/N with abandonment: death mu*min(n,N) + nu*(n-N)^+."""
    return birth_death_stationary(
        lambda n: lam,
        lambda n: mu * min(n, n_servers) + nu * max(n - n_servers, 0),
        K,
    )


def poisson_pmf_ref(mean, n):
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def covers(estimate, truth, n_sigma=3.0):
    """True when |estimate.value - truth| <= n_sigma standard errors.

    The 95% half-width is ~1.96 standard errors.
    """
    se = estimate.half_width / 1.96
    return abs(estimate.value - truth) <= n_sigma * max(se, 1e-300)


def dense_stationary(Q):
    """pi with pi Q = 0 and sum(pi) = 1: least squares on the stacked system
    [Q^T; 1] pi = [0; 1] over the dense generator."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(np.vstack([Q.T, np.ones((1, n))]), rhs, rcond=None)[0]


def ctmc_stationary_law(start, moves, key, project):
    """Stationary law of ``project(state)`` for the finite CTMC reachable
    from ``start``.

    ``moves(state)`` yields ``(rate, next_state)`` pairs and ``key(state)``
    identifies states.  The generator is solved densely with the
    normalization replacing one balance equation.
    """
    states = [start]
    index = {key(start): 0}
    edges = []
    i = 0
    while i < len(states):
        for rate, nxt in moves(states[i]):
            k = key(nxt)
            if k not in index:
                index[k] = len(states)
                states.append(nxt)
            edges.append((i, index[k], rate))
        i += 1
    n = len(states)
    Q = np.zeros((n, n))
    for a, b, rate in edges:
        Q[a, b] += rate
        Q[a, a] -= rate
    A = Q.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(A, rhs)
    law = {}
    for st, p in zip(states, pi):
        m = project(st)
        law[m] = law.get(m, 0.0) + p
    return law


class Transitions(NamedTuple):
    """Every transition out of an indexed state, one entry each, in source
    order: ``dst`` is the target's index, -1 beyond K, and ``dst_z``,
    ``dst_psi`` are the target's digits."""

    src: np.ndarray
    rate: np.ndarray
    dst: np.ndarray
    dst_z: np.ndarray
    dst_psi: np.ndarray


def replay_generator(idx):
    """The generator of ``idx``'s chain, assembled by replaying the
    :mod:`hwq.policy` operations that drive the simulators, one state and one
    event at a time, with targets found in a dict of the enumerated states.

    Returns ``(gen, moves)``: the generator and the :class:`Transitions` it
    is assembled from, which keep each transition apart where ``gen.Q`` sums
    those with a common target.
    """
    cfg = idx.cfg
    nc = cfg.n_classes
    n = idx.n_states
    preemptive = idx.kind == PREEMPTIVE
    lookup = {}
    for i in range(n):
        z, psi = tuple(idx.z[i]), tuple(idx.psi[i])
        lookup[z if preemptive else (z, psi)] = i
    state = init_state(cfg, idx.kind)
    src_l, rate_l, dst_l, dst_z_l, dst_psi_l = [], [], [], [], []

    def load(i):
        if preemptive:
            state.set_counts(idx.z[i])
        else:
            state.set_counts(idx.z[i], idx.psi[i])

    def emit(i, rate):
        zt = tuple(state.z)
        pt = tuple(state.psi)
        src_l.append(i)
        rate_l.append(rate)
        dst_l.append(lookup.get(zt if preemptive else (zt, pt), -1))
        dst_z_l.append(zt)
        dst_psi_l.append(pt)

    for i in range(n):
        z_row = idx.z[i]
        psi_row = idx.psi[i]
        level = int(z_row.sum())
        first = len(src_l)
        for cls in range(nc):
            load(i)
            state.apply_arrival(cls)
            emit(i, cfg.arrival_rates[cls])
        for cls in range(nc):
            p = int(psi_row[cls])
            if p > 0:
                load(i)
                state.apply_departure(cls, SERVICE)
                emit(i, cfg.mus[cls] * p)
            q = int(z_row[cls]) - p
            if q > 0 and cfg.nus[cls] > 0.0:
                load(i)
                state.apply_departure(cls, QUEUE)
                emit(i, cfg.nus[cls] * q)
        if level < idx.K and any(d < 0 for d in dst_l[first:]):
            raise AssertionError(f"interior state {i} produced an unindexed target")

    src = np.array(src_l, dtype=np.int64)
    rate = np.array(rate_l, dtype=np.float64)
    dst = np.array(dst_l, dtype=np.int64)
    dst_z = np.array(dst_z_l, dtype=np.int64).reshape(-1, nc)
    dst_psi = np.array(dst_psi_l, dtype=np.int64).reshape(-1, nc)
    kept = dst >= 0
    off = sparse.coo_matrix((rate[kept], (src[kept], dst[kept])), shape=(n, n)).tocsr()
    exit_rates = np.asarray(off.sum(axis=1)).ravel()
    dropped = np.zeros(n)
    np.add.at(dropped, src[~kept], rate[~kept])
    gen = SparseGenerator(
        idx=idx,
        Q=(off + sparse.diags(-exit_rates)).tocsr(),
        beyond_z=dst_z[~kept],
        beyond_psi=dst_psi[~kept],
        max_exit_rate=float(exit_rates.max() + dropped.max()),
    )
    return gen, Transitions(src, rate, dst, dst_z, dst_psi)


def censor_odd_levels_stacked(Q, level):
    """The chain censored to the even levels, ``(Q_E, D_O)``, formed as
    ``hwq.exact._censor_odd_levels`` formed it before it wrote its factors'
    arrays itself, and before it returned those factors, transposed, for
    the operator ``v -> d v + B^T (A^T v)`` in place of Q_E: the
    off-diagonal rates in row order, the blocks Q_EO and D_O^{-1} Q_OE, and
    the product [Q_EO | I] [D_O^{-1} Q_OE ; I] of scipy's ``hstack`` and
    ``vstack`` with an identity; each diagonal entry of the product is then
    replaced by minus its row's off-diagonal sum, by ``np.bincount``."""
    n = Q.shape[0]
    row = np.repeat(np.arange(n, dtype=Q.indices.dtype), np.diff(Q.indptr))
    k = np.flatnonzero(Q.indices != row)
    row, col, rate = row[k], Q.indices[k], Q.data[k]
    even = level % 2 == 0
    n_even = int(even.sum())
    n_odd = n - n_even
    pos = np.empty(n, dtype=Q.indices.dtype)
    pos[even], pos[~even] = np.arange(n_even), np.arange(n_odd)
    eo = even[row]
    oe = ~eo
    src, dst = pos[row], pos[col]
    exit_odd = np.bincount(src[oe], weights=rate[oe], minlength=n_odd)

    def block(mask, vals, shape):
        ptr = np.concatenate([[0], np.cumsum(np.bincount(src[mask], minlength=shape[0]))])
        return sparse.csr_matrix((vals, dst[mask], ptr), shape=shape)

    unit = sparse.identity(n_even, format="csr")
    left = sparse.hstack([block(eo, rate[eo], (n_even, n_odd)), unit], format="csr")
    right = sparse.vstack([block(oe, rate[oe] / exit_odd[src[oe]], (n_odd, n_even)), unit],
                          format="csr")
    QE = left @ right
    rows = np.repeat(np.arange(n_even, dtype=QE.indices.dtype), np.diff(QE.indptr))
    diag = QE.indices == rows
    QE.data[diag] = 0.0
    QE.data[diag] = -np.bincount(rows, weights=QE.data, minlength=n_even)
    return QE, exit_odd


def validate_macro_state(s, cfg):
    """Every state invariant that ``s`` (anything with per-class ``z`` and
    ``psi``) violates; an empty list means valid."""
    problems = []
    if len(s.z) != cfg.n_classes or len(s.psi) != cfg.n_classes:
        problems.append(
            f"state has {len(s.z)}/{len(s.psi)} components, expected {cfg.n_classes}"
        )
        return problems
    for i, (zi, pi) in enumerate(zip(s.z, s.psi)):
        if zi < 0:
            problems.append(f"z[{i}] = {zi} < 0")
        if pi < 0:
            problems.append(f"psi[{i}] = {pi} < 0")
        if pi > zi:
            problems.append(f"psi[{i}] = {pi} > z[{i}] = {zi}")
    total_z = sum(s.z)
    total_psi = sum(s.psi)
    expected = min(cfg.n_servers, total_z)
    if total_psi != expected:
        problems.append(
            f"non-idling broken: sum(psi) = {total_psi}, "
            f"min(N, sum(z)) = {expected}"
        )
    return problems


def _per_event_path(cfg, kind, stream, counts=()):
    """The state of ``kind`` that ``counts[i]`` arrivals of each class ``i``
    build from the empty one, its chain, and the reference kernel driving
    the chain on ``stream``."""
    rng = stream.make()
    state = init_state(cfg, kind)
    for i, n in enumerate(counts):
        for _ in range(n):
            state.apply_arrival(i)
    chain = PolicyChain(state, cfg, rng)
    return state, chain, reference_jumps(chain, rng)


def _weight(chain, events, real_time):
    """The weight of ``chain``'s next jump: ``1/q``, or with ``real_time``
    the holding time ``-log(1 - u)/q``, where ``q`` sums a fresh rate table
    of the state before the jump and ``u`` is the uniform the kernel yields."""
    q = sum(chain.rates())
    u = next(events)
    return -log(1.0 - u) / q if real_time else 1.0 / q


def _record(chain, a, b, events, n_events, until=None, real_time=False):
    """``(a, b, weight)`` of each of the next ``n_events`` jumps of
    ``chain`` (see :func:`_weight`), read from the live count lists ``a``
    and ``b`` (a policy's ``z`` and ``psi``, or a coupling's observed pair)
    before the jump, one per event with no merging of repeated states; with
    ``until`` it also stops after the first jump that brings ``(a, b)`` to
    ``until``."""
    path = []
    for _ in range(n_events):
        path.append((tuple(a), tuple(b), _weight(chain, events, real_time)))
        if (tuple(a), tuple(b)) == until:
            break
    return path


def _integrals(path, functionals, cfg, ends):
    """Per segment ``path[start:end]`` (``ends`` closes each), the integral
    of each functional and the time spent, each summed by ``math.fsum``.
    Each functional is evaluated once, in its array form, over the whole
    path."""
    Z = np.array([z for z, _, _ in path], dtype=np.int64)
    PSI = np.array([psi for _, psi, _ in path], dtype=np.int64)
    held = [h for _, _, h in path]
    vals = [f(Z, PSI, cfg) for f in functionals.values()]
    return [([math.fsum(float(v[k]) * held[k] for k in range(s, e)) for v in vals],
             math.fsum(held[s:e]))
            for s, e in zip([0] + ends[:-1], ends)]


def per_event_batch_means(cfg, kind, functionals, n_batches, events_per_batch,
                          warmup_events, stream):
    """``{name: (mean, 95% half-width)}`` of batch means evaluated per event."""
    state, chain, events = _per_event_path(cfg, kind, stream)
    advance(events, warmup_events)
    path = _record(chain, state.z, state.psi, events, n_batches * events_per_batch)
    ends = [events_per_batch * (b + 1) for b in range(n_batches)]
    batches = [[a / span for a in acc]
               for acc, span in _integrals(path, functionals, cfg, ends)]
    tcrit = stats.t.ppf(0.975, n_batches - 1)
    out = {}
    for j, name in enumerate(functionals):
        bm = [b[j] for b in batches]
        mean = sum(bm) / n_batches
        var = sum((b - mean) ** 2 for b in bm) / (n_batches - 1)
        out[name] = (mean, tcrit * math.sqrt(var / n_batches))
    return out


def per_event_regenerative(cfg, kind, functionals, n_cycles, stream):
    """``{name: (ratio estimate, 95% half-width)}`` over cycles between
    visits to the state ``z_i = round(rho_i * r)``, all in service, where
    the run starts, evaluated per event."""
    counts = [round(load) for load in cfg.rho_r]
    assert sum(counts) <= cfg.n_servers  # nobody waits: the counts fix the state
    state, chain, events = _per_event_path(cfg, kind, stream, counts)
    start = (tuple(state.z), tuple(state.psi))
    path, ends = [], []
    for _ in range(n_cycles):
        path += _record(chain, state.z, state.psi, events, 1_000_000, until=start)
        ends.append(len(path))
    ys, taus = zip(*_integrals(path, functionals, cfg, ends))
    total = sum(taus)
    tcrit = stats.t.ppf(0.975, n_cycles - 1)
    out = {}
    for j, name in enumerate(functionals):
        est = sum(y[j] for y in ys) / total
        s2 = sum((y[j] - est * t) ** 2 for y, t in zip(ys, taus)) / (n_cycles - 1)
        out[name] = (est, tcrit * math.sqrt(s2) / (total / n_cycles * math.sqrt(n_cycles)))
    return out


def per_event_coupled(chain, rng, observed, n_events, warmup_events, grid_dt=0.0):
    """``(first, second, span, grid)`` of a coupling chain evaluated per
    event: after ``warmup_events`` jumps, the time average of
    each coordinate of the two live count lists ``observed`` over the other
    jumps, each by ``math.fsum`` over the unmerged path, the time spent,
    and the first list's value holding at each multiple ``k * grid_dt``
    (when ``grid_dt > 0``), found by walking the event end times.  Events
    are weighted by ``1/q``, or by their holding times when ``grid_dt > 0``
    (see :func:`_weight`).  The reference kernel drives the chain."""
    events = reference_jumps(chain, rng)
    a, b = observed
    advance(events, warmup_events)
    path = _record(chain, a, b, events, n_events - warmup_events,
                   real_time=grid_dt > 0.0)
    span = math.fsum(h for _, _, h in path)
    first = [math.fsum(x[j] * h for x, _, h in path) / span for j in range(len(a))]
    second = [math.fsum(y[j] * h for _, y, h in path) / span for j in range(len(b))]
    grid = []
    if grid_dt > 0.0:
        k = 1
        for (x, _, _), end in zip(path, accumulate(h for _, _, h in path)):
            while k * grid_dt <= end:
                grid.append(x)
                k += 1
    return first, second, span, grid


def reference_jumps(chain, rng):
    """The jump kernel without its rate cache: the chain's rate table is
    built afresh at every event, summed, and scanned linearly.  Yields the
    uniform of each holding time, as the kernel does."""
    actions = chain.actions()
    u01 = rng.random
    while True:
        r = chain.rates()
        last = len(r) - 1
        total = sum(r)
        holding_uniform = u01()
        u = u01() * total
        k = 0
        acc = r[0]
        while acc <= u and k < last:
            k += 1
            acc += r[k]
        apply, args = actions[k]
        apply(*args)
        yield holding_uniform


def reference_occupancy(chain, events, n_events, until_empty=False, grid_dt=0.0):
    """``(occ, span, grid)`` over the next ``n_events`` jumps of ``chain``,
    with one running sum per state in a dict: ``occ`` maps each visited
    state ``(*a, *b)`` of its first two live count lists ``a`` and ``b`` to
    the weight of the events spent in it (see :func:`_weight`; the holding
    times when ``grid_dt > 0``), in order of first visit; ``span`` is the
    sum of the weights; ``grid`` holds the state occupying each multiple of
    ``grid_dt``.  With ``until_empty`` it also stops after the first jump
    that empties ``a``."""
    a, b = chain.counts()[:2]
    occ = {}
    get = occ.get
    span = 0.0
    grid = []
    next_grid = grid_dt if grid_dt > 0.0 else float("inf")
    for _ in range(n_events):
        key = (*a, *b)
        weight = _weight(chain, events, grid_dt > 0.0)
        occ[key] = get(key, 0.0) + weight
        span += weight
        while next_grid <= span:  # the pre-jump state occupies the instant
            if len(grid) == n_events:
                raise ValueError(f"g_sample_dt = {grid_dt:g} samples more grid instants "
                                 f"than the run's {n_events} events")
            grid.append(key)
            next_grid += grid_dt
        if until_empty and not any(a):
            break
    return occ, span, grid
