"""Independent oracles used to freeze expected values.

Everything here is deliberately written from first principles (cumulative
products, direct summation) and does not touch the solver/simulator code
paths under test.  ``replay_generator`` is one exception: it drives the
policy objects the simulators use, so that the exact generator is checked
against them.  The ``per_event_*`` estimators are the other: they run the
simulators' jump kernel and evaluate every functional at every event, the
oracle for the occupancy-measure estimators.  ``validate_macro_state`` is
the invariant oracle for the policy states.
"""

import math

import numpy as np
from scipy import sparse, stats

from hwq.exact import SparseGenerator
from hwq.policy import PREEMPTIVE, QUEUE, SERVICE, init_state
from hwq.simulate import PolicyChain, advance, jumps, time_integrals


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


def replay_generator(idx):
    """The generator of ``idx``'s chain, assembled by replaying the
    :mod:`hwq.policy` operations that drive the simulators, one state and one
    event at a time, with targets found in a dict of the enumerated states.
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
    row_ptr = np.zeros(n + 1, dtype=np.int64)

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
        row_ptr[i + 1] = len(src_l)
        if level < idx.K and any(d < 0 for d in dst_l[row_ptr[i]:]):
            raise AssertionError(f"interior state {i} produced an unindexed target")

    src = np.array(src_l, dtype=np.int64)
    rate = np.array(rate_l, dtype=np.float64)
    dst = np.array(dst_l, dtype=np.int64)
    kept = dst >= 0
    off = sparse.coo_matrix((rate[kept], (src[kept], dst[kept])), shape=(n, n)).tocsr()
    exit_rates = np.asarray(off.sum(axis=1)).ravel()
    dropped = np.zeros(n)
    np.add.at(dropped, src[~kept], rate[~kept])
    return SparseGenerator(
        idx=idx,
        Q=(off + sparse.diags(-exit_rates)).tocsr(),
        src=src,
        rate=rate,
        dst=dst,
        dst_z=np.array(dst_z_l, dtype=np.int64),
        dst_psi=np.array(dst_psi_l, dtype=np.int64),
        row_ptr=row_ptr,
        boundary_mask=dropped > 0.0,
        dropped_rate=dropped,
        max_exit_rate=float(exit_rates.max() + dropped.max()),
    )


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


def _per_event_path(cfg, kind, stream, functionals):
    """The empty chain of ``kind`` driven by the jump kernel on ``stream``,
    and an ``observe`` closure that calls every functional on its state."""
    rng = stream.make()
    state = init_state(cfg, kind)
    events = jumps(PolicyChain(state, cfg, rng), rng)
    funcs = list(functionals.values())

    def observe():
        return [f(state.z, state.psi, cfg) for f in funcs]

    return state, events, observe


def per_event_run(cfg, kind, n_events, warmup_events, stream, functionals):
    """Post-warmup time averages with every functional evaluated per event."""
    _, events, observe = _per_event_path(cfg, kind, stream, functionals)
    advance(events, warmup_events)
    acc, span, _ = time_integrals(events, n_events - warmup_events, observe)
    return {name: a / span for name, a in zip(functionals, acc)}


def per_event_batch_means(cfg, kind, functionals, n_batches, events_per_batch,
                          warmup_events, stream):
    """``{name: (mean, 95% half-width)}`` of batch means evaluated per event."""
    _, events, observe = _per_event_path(cfg, kind, stream, functionals)
    advance(events, warmup_events)
    batches = []
    for _ in range(n_batches):
        acc, span, _ = time_integrals(events, events_per_batch, observe)
        batches.append([a / span for a in acc])
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
    visits to the empty state, evaluated per event."""
    state, events, observe = _per_event_path(cfg, kind, stream, functionals)
    ys, taus = [], []
    for _ in range(n_cycles):
        y = [0.0] * len(functionals)
        tau = 0.0
        while True:
            acc, span, _ = time_integrals(events, 1, observe)
            y = [a + b for a, b in zip(y, acc)]
            tau += span
            if not any(state.z):
                break
        ys.append(y)
        taus.append(tau)
    total = sum(taus)
    tcrit = stats.t.ppf(0.975, n_cycles - 1)
    out = {}
    for j, name in enumerate(functionals):
        est = sum(y[j] for y in ys) / total
        s2 = sum((y[j] - est * t) ** 2 for y, t in zip(ys, taus)) / (n_cycles - 1)
        out[name] = (est, tcrit * math.sqrt(s2) / (total / n_cycles * math.sqrt(n_cycles)))
    return out
