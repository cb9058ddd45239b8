import dataclasses
import itertools
import math
import random
import re
import statistics
import time
from itertools import accumulate, chain as chain_from, islice

import numpy as np
import pytest

from helpers import birth_death_mean, per_event_coupled, reference_jumps, reference_occupancy
from hwq.errors import HypothesisViolated, OrderingViolation
from hwq.model import ClassParams, build_config
from hwq.policy import FIFO, KINDS, NONPREEMPTIVE, PREEMPTIVE, init_state
from hwq import simulate
from hwq.simulate import Path, PolicyChain, RngStream, advance, jumps, occupancy
from hwq.exact import build_generator, enumerate_states, expectation, scaled_poisson_mgf, stationary
from hwq.coupling import (
    InfServerChain,
    MonotoneChain,
    poisson_fit_pvalue,
    run_infserver_coupled,
    run_monotone_coupled,
)

TWO_CLASS = build_config(
    [ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 25.0, 1.0
)


def _infserver_blocks(chain, i):
    """Per-class rates of the chain's current table, by block name."""
    nc = chain.cfg.n_classes
    r = chain.rates()
    C = InfServerChain
    return {
        "arrival": r[C.ARRIVAL * nc + i],
        "shared": r[C.SHARED_SERVICE * nc + i] + r[C.SHARED_QUEUE * nc + i],
        "shared_service": r[C.SHARED_SERVICE * nc + i],
        "g_only": r[C.G_ONLY * nc + i],
        "z_only": r[C.Z_SERVICE * nc + i] + r[C.Z_QUEUE * nc + i],
    }


def test_joint_rates_bookkeeping_identity():
    # at every state the runner reaches, shared + g_only = mu*G (the M/M/inf
    # marginal) and shared + z_only = mu*psi + nu*q (the primary marginal);
    # the matching pairs G with in-service partners first, and nu = mu
    # leaves no G-only deaths.  The state after each of 20k events is read
    # from the kernel's path (it is the state held at the next event) and
    # loaded into a second chain, whose rates are a function of it
    one_class = build_config([ClassParams(1.0, 1.0, 1.0)], 25.0, 1.0)
    for cfg, kind in ((TWO_CLASS, FIFO), (TWO_CLASS, NONPREEMPTIVE),
                      (one_class, PREEMPTIVE)):
        rng = random.Random(3)
        path = Path()
        next(islice(jumps(InfServerChain(cfg, kind, rng), rng, path), 20_000, None))
        keys = list(path.table)
        chain = InfServerChain(cfg, kind, None)
        g, z, psi = chain.counts()
        queued_partners = 0
        for sid in path.ids[1:]:
            chain.load(keys[sid], 0)
            for i in range(cfg.n_classes):
                row = _infserver_blocks(chain, i)
                mu, nu, q = cfg.mus[i], cfg.nus[i], z[i] - psi[i]
                assert min(chain.rates()) >= 0.0
                assert row["arrival"] == cfg.arrival_rates[i]
                assert row["shared"] + row["g_only"] == pytest.approx(mu * g[i])
                assert row["shared"] + row["z_only"] == pytest.approx(mu * psi[i] + nu * q)
                assert row["shared_service"] == mu * min(g[i], psi[i])
                if nu == mu:
                    assert row["g_only"] == 0.0
                queued_partners += g[i] > psi[i]
        assert queued_partners > 0  # the queued-partner rows were exercised


def test_joint_rates_empty_system():
    chain = InfServerChain(TWO_CLASS, FIFO, random.Random(0))
    for i in range(2):
        row = _infserver_blocks(chain, i)
        assert row["shared"] == row["g_only"] == row["z_only"] == 0.0
        assert row["arrival"] > 0.0


def test_joint_rates_hypothesis_guard():
    bad = build_config([ClassParams(1.0, 1.0, 2.0)], 4.0, 1.0)  # nu > mu
    with pytest.raises(HypothesisViolated):
        InfServerChain(bad, PREEMPTIVE, random.Random(0))
    with pytest.raises(HypothesisViolated):
        run_infserver_coupled(bad, PREEMPTIVE, 10, RngStream(0, 0))


def test_maximal_matching_constructor():
    # G = (4, 1) at psi = (2, 2), q = (3, 0): class 0 has 2 partners in
    # service and 2 queued, class 1 its one partner in service
    cfg = dataclasses.replace(TWO_CLASS, n_servers=4)
    chain = InfServerChain(cfg, NONPREEMPTIVE, random.Random(0))
    chain.state.set_counts([5, 2], [2, 2])
    chain.g[:] = [4, 1]
    mu, nu = cfg.mus, cfg.nus
    rows = [_infserver_blocks(chain, i) for i in range(2)]
    assert rows[0]["shared_service"] == mu[0] * 2
    assert rows[0]["shared"] == pytest.approx(mu[0] * 2 + nu[0] * 2)
    assert rows[0]["g_only"] == pytest.approx((mu[0] - nu[0]) * 2)
    assert rows[0]["z_only"] == pytest.approx(nu[0] * 1)
    assert rows[1]["shared"] == mu[1] * 1
    assert rows[1]["g_only"] == 0.0
    assert rows[1]["z_only"] == pytest.approx(mu[1] * 1)


def test_infserver_run_ordering_and_g_marginal():
    # time-average of G_i approaches rho_i * r; se for the time average of an
    # M/M/inf count over span T is ~ sqrt(2 * rho*r / (mu*T))
    rep = run_infserver_coupled(TWO_CLASS, FIFO, 300_000, RngStream(11, 0),
                                warmup_events=20_000)
    assert rep.ordering_checks == 300_000
    T = rep.sim_time
    for i in range(2):
        target = TWO_CLASS.rho_r[i]
        se = math.sqrt(2.0 * target / (TWO_CLASS.mus[i] * T))
        assert abs(rep.g_time_avg[i] - target) <= 4 * se


def test_infserver_primary_marginal_matches_exact():
    # the coupling must not disturb the primary law: compare E[Z] to the solver
    cfg = build_config([ClassParams(1.0, 1.0, 0.5)], 4.0, 1.0)
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, 60))
    truth = expectation(stationary(gen).pi, gen.idx.z.sum(axis=1))
    vals = []
    for s in range(5):
        rep = run_infserver_coupled(cfg, PREEMPTIVE, 150_000, RngStream(21, s),
                                    warmup_events=10_000)
        vals.append(rep.z_time_avg[0])
    half = 2.78 * statistics.stdev(vals) / math.sqrt(5)  # t(4, 97.5%)
    assert abs(statistics.mean(vals) - truth) <= half


def test_infserver_g_fits_poisson_small_and_medium():
    for r in (4.0, 25.0):
        cfg = build_config([ClassParams(1.0, 1.0, 0.5)], r, 1.0)
        rep = run_infserver_coupled(cfg, FIFO, 250_000, RngStream(31, int(r)),
                                    warmup_events=20_000, g_sample_dt=8.0)
        p = poisson_fit_pvalue([g[0] for g in rep.g_samples], r)
        assert p > 2 * 3.1671e-5  # 4-sigma equivalent


def test_infserver_scaled_mgf_matches_closed_form():
    theta, r = 0.5, 25.0
    cfg = build_config([ClassParams(1.0, 1.0, 1.0)], r, 1.0)
    truth = scaled_poisson_mgf(theta, 1.0, r)

    vals = []
    for s in range(5):
        # G on the time grid: each snapshot is a stationary draw
        rep = run_infserver_coupled(cfg, PREEMPTIVE, 150_000, RngStream(41, s),
                                    warmup_events=10_000, g_sample_dt=1.0)
        vals.append(statistics.mean(math.exp(theta * (g[0] - cfg.rho_r[0]) / cfg.sqrt_r)
                                    for g in rep.g_samples))
    half = 2.78 * statistics.stdev(vals) / math.sqrt(5)
    assert abs(statistics.mean(vals) - truth) <= half


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.mark.parametrize("coupling, g_sample_dt", [("infserver", 0.0), ("infserver", 0.5),
                                                   ("monotone", 0.0)])
@pytest.mark.parametrize("kind", [FIFO, PREEMPTIVE])
def test_runners_match_per_event_oracle(coupling, g_sample_dt, kind):
    # the occupancy-measure averages and the time grid against one record
    # per event, on the same stream
    n, warmup, stream = 30_000, 3_000, RngStream(81, 0)
    rng = stream.make()
    if coupling == "infserver":
        rep = run_infserver_coupled(TWO_CLASS, kind, n, stream, warmup_events=warmup,
                                    g_sample_dt=g_sample_dt)
        chain = InfServerChain(TWO_CLASS, kind, rng)
        avgs = (rep.g_time_avg, rep.z_time_avg)
        observed = (chain.g, chain.state.z)
    else:
        nu_prime = [0.0, 0.5]
        rep = run_monotone_coupled(TWO_CLASS, nu_prime, kind, n, stream, warmup_events=warmup)
        chain = MonotoneChain(TWO_CLASS, nu_prime, kind, rng)
        avgs = (rep.z_time_avg, rep.z_prime_time_avg)
        observed = (chain.state.z, chain.zp)
    first, second, span, grid = per_event_coupled(chain, rng, observed, n, warmup, g_sample_dt)
    assert _rel(rep.sim_time, span) <= 1e-12
    for got, want in zip(avgs, (first, second)):
        assert len(got) == len(want) == 2
        assert all(_rel(g, w) <= 1e-12 for g, w in zip(got, want))
    if coupling == "infserver":
        assert rep.g_samples == grid
        assert (len(grid) > 100) == (g_sample_dt > 0.0)


@pytest.mark.parametrize("kind", [FIFO, PREEMPTIVE])
def test_grid_changes_the_weights_not_the_path(kind, monkeypatch):
    # a time grid turns the kernel's uniforms into holding times, but draws
    # nothing more: at one seed, the runs with and without a grid visit the
    # same observed states in the same order, event by event; without a
    # grid each event weighs 1.0/q, bit for bit
    taken, occupied = [], []
    take = Path.take

    def spy_take(self):
        ids, rates = take(self)
        taken[-1].append((ids, rates))
        return ids, rates

    def spy_occupancy(*args):
        occupied.append(occupancy(*args))
        return occupied[-1]

    monkeypatch.setattr(Path, "take", spy_take)
    monkeypatch.setattr("hwq.coupling.occupancy", spy_occupancy)
    reports = []
    for g_sample_dt in (0.0, 0.5):
        taken.append([])
        reports.append(run_infserver_coupled(TWO_CLASS, kind, 30_000, RngStream(82, 0),
                                             warmup_events=3_000, g_sample_dt=g_sample_dt))
    plain, gridded = reports
    assert (plain.events, plain.ordering_checks, plain.states_checked) == \
        (gridded.events, gridded.ordering_checks, gridded.states_checked)
    assert plain.g_samples == [] and len(gridded.g_samples) > 100
    (states, held, span, _), (grid_states, _, grid_span, _) = occupied
    assert states.tolist() == grid_states.tolist()
    ids, rates = (np.concatenate(part) for part in zip(*taken[0]))
    grid_ids, grid_rates = (np.concatenate(part) for part in zip(*taken[1]))
    assert len(ids) == 30_000 - 3_000
    assert ids.tolist() == grid_ids.tolist() and rates.tolist() == grid_rates.tolist()
    sums = {}  # observed id -> running sum, in order of first visit
    elapsed = 0.0
    for i, q in zip(ids.tolist(), rates.tolist()):
        sums[i] = sums.get(i, 0.0) + 1.0 / q
        elapsed += 1.0 / q
    assert held.tolist() == list(sums.values()) and span == elapsed == plain.sim_time
    # the expected and the real elapsed time differ, by little
    assert span != grid_span and abs(span / grid_span - 1.0) < 0.05


def test_bad_grid_step_and_empty_samples_raise():
    for dt in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="g_sample_dt"):
            run_infserver_coupled(TWO_CLASS, FIFO, 100, RngStream(0, 0), g_sample_dt=dt)
    # 200 events at a step of 1e-6 would sample about 2.7 million instants;
    # the grid stops at the first sample beyond the event count
    started = time.perf_counter()
    with pytest.raises(ValueError, match="g_sample_dt"):
        run_infserver_coupled(TWO_CLASS, FIFO, 200, RngStream(0, 0), g_sample_dt=1e-6)
    assert time.perf_counter() - started < 1.0
    # a valid step longer than the run samples nothing, and the fit says so
    rep = run_infserver_coupled(TWO_CLASS, FIFO, 100, RngStream(0, 0), g_sample_dt=1e9)
    assert rep.g_samples == []
    with pytest.raises(ValueError, match="empty samples"):
        poisson_fit_pvalue([g[0] for g in rep.g_samples], TWO_CLASS.rho_r[0])


def _monotone_chain(classes, n_servers, nu_prime, z, psi, zp):
    cfg = dataclasses.replace(build_config(classes, 1.0, 1.0), n_servers=n_servers)
    chain = MonotoneChain(cfg, nu_prime, NONPREEMPTIVE, random.Random(0))
    chain.state.set_counts(z, psi)
    chain.zp[:] = zp
    return chain


def test_thinning_probability_examples():
    # q = 3, psi = 4, mu = 1, nu = 2: p = q (nu - nu') / (nu q + mu psi)
    two = [ClassParams(1.0, 1.0, 2.0)]
    assert _monotone_chain(two, 4, [1.0], [7], [4], [7]).thinning_probability(0) \
        == pytest.approx(0.3)
    assert _monotone_chain(two, 4, [2.0], [7], [4], [7]).thinning_probability(0) == 0.0
    zero = [ClassParams(1.0, 1.0, 0.0)]  # nu = 0 is fine in the cancelled form
    assert _monotone_chain(zero, 4, [0.0], [9], [4], [9]).thinning_probability(0) == 0.0
    with pytest.raises(HypothesisViolated):
        MonotoneChain(build_config(two, 1.0, 1.0), [3.0], FIFO, random.Random(0))


def test_shadow_allocation_rules():
    # mirror first, then ascending fill; non-idling on the shadow counts
    classes = [ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)]
    chain = _monotone_chain(classes, 7, [0.0, 0.0], [2, 3], [2, 3], [6, 4])
    chain.allocate_shadow()
    assert chain.psip == [4, 3]  # 2 extra go to class 0 first
    assert sum(chain.psip) == min(7, sum(chain.zp))
    chain = _monotone_chain(classes, 5, [0.0, 0.0], [0, 0], [0, 0], [0, 0])
    chain.allocate_shadow()
    assert chain.psip == [0, 0]
    # along a trajectory: psi <= psi' <= Z' and the shadow never idles;
    # psi' is allocated once per distinct state, so allocate it here
    rng = random.Random(4)
    chain = MonotoneChain(TWO_CLASS, [0.0, 0.5], FIFO, rng)
    events = jumps(chain, rng)
    for _ in range(20_000):
        next(events)
        chain.allocate_shadow()
        psi, psip, zp = chain.state.psi, chain.psip, chain.zp
        assert all(p <= pp <= zz for p, pp, zz in zip(psi, psip, zp))
        assert sum(psip) == min(TWO_CLASS.n_servers, sum(zp))


# r = 4 (6 servers): queues form often, so every block of each table moves
SMALL = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 4.0, 1.0)

CHAINS = {
    "policy": lambda kind, rng: PolicyChain(init_state(SMALL, kind), SMALL, rng),
    "infserver": lambda kind, rng: InfServerChain(SMALL, kind, rng),
    "monotone": lambda kind, rng: MonotoneChain(SMALL, [0.0, 0.5], kind, rng),
}


def _key(chain):
    """The kernel's cache key: the values of the chain's count lists."""
    return tuple(chain_from.from_iterable(chain.counts()))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CHAINS)
def test_cached_rate_table_matches_recompute(name, kind):
    # at every visited state the kernel's cached total and cumulative rates
    # equal, exactly, those of a fresh rates() at that state, so the count
    # lists a chain declares determine its rates.  The state of each event
    # and its fresh rates come from a second chain on the same stream, which
    # the reference kernel moves on every event; every chain's entry has
    # one successor slot per category and one for a draw beyond the
    # cumulative rates, FIFO's too
    rng = random.Random(8)
    path = Path()
    events = jumps(CHAINS[name](kind, rng), rng, path)
    ref_rng = random.Random(8)
    chain = CHAINS[name](kind, ref_rng)
    ref_events = reference_jumps(chain, ref_rng)
    first_visits = {}
    tables = []
    for _ in range(5_000):
        key = _key(chain)
        r = chain.rates()
        assert next(events) == next(ref_events)
        first_visits.setdefault(key, len(first_visits))
        sid, total, cum, slots = path.table[key]
        assert (sid, total, cum) == (first_visits[key], sum(r), tuple(accumulate(r)))
        assert path.ids[-1] == sid
        assert len(slots) == len(r) + 1
        tables.append(r)
    assert len(path.table) == len(first_visits)
    # every departure rate takes more than one value along the path
    assert all(len(set(col)) > 1 for col in list(zip(*tables))[SMALL.n_classes:])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CHAINS)
def test_kernel_reproduces_reference_stream(name, kind, monkeypatch):
    # the cached kernel against the kernel before the cache, on one stream:
    # every event's state and yielded uniform; then its folded record
    # against a dict of running sums: the occupancy, the span and the grid,
    # bit for bit, weighted by 1/q without a grid and by the holding times
    # with one.  FIFO abandonments and the monotone thinning draw from the
    # same stream, and small folds carry the sums across several of them
    # the kernel's states are read from its path, the reference's from the
    # chain it moves on every event
    rng = random.Random(8)
    path = Path()
    yields = list(islice(jumps(CHAINS[name](kind, rng), rng, path), 3_000))
    keys = list(path.table)
    rng = random.Random(8)
    chain = CHAINS[name](kind, rng)
    events = reference_jumps(chain, rng)
    assert [(keys[sid], u) for sid, u in zip(path.ids, yields)] == \
        [(_key(chain), next(events)) for _ in range(3_000)]

    monkeypatch.setattr(simulate, "GROUP_STATES", 700)
    n, warmup = 5_000, 1_000
    for grid_dt in (0.0, 0.25):
        rng = random.Random(9)
        chain = CHAINS[name](kind, rng)
        path = Path(2 * SMALL.n_classes)
        events = jumps(chain, rng, path)
        advance(events, warmup, path)
        states, held, span, grid = occupancy(events, path, n, grid_dt)
        rng = random.Random(9)
        chain = CHAINS[name](kind, rng)
        events = reference_jumps(chain, rng)
        advance(events, warmup)
        occ, want_span, want_grid = reference_occupancy(chain, events, n, grid_dt=grid_dt)
        assert list(map(tuple, states.tolist())) == list(occ)
        assert held.tolist() == list(occ.values())
        assert span == want_span
        assert list(map(tuple, grid.tolist())) == want_grid
        assert (len(want_grid) > 100) == (grid_dt > 0.0)


@pytest.mark.parametrize("name", CHAINS)
def test_fifo_chain_fills_successor_slots(name):
    # a FIFO state is not a function of its counts, but its queue only
    # picks which of a few successors an event reaches: the queue half is
    # drawn outside the cache key, so FIFO entries fill successor slots as
    # the preemptive chain's do, among them branching slots, a list of the
    # successors ending in the draw (the preemptive policy and
    # infinite-server chains draw nothing)
    filled = {}
    for kind in (FIFO, PREEMPTIVE):
        rng = random.Random(10)
        path = Path()
        chain = CHAINS[name](kind, rng)
        next(islice(jumps(chain, rng, path), 5_000, None))
        filled[kind] = [slot for *_, slots in path.table.values() for slot in slots
                        if slot is not None]
        assert len(path.table) > 50
    assert len(filled[FIFO]) > 100 and len(filled[PREEMPTIVE]) > 100
    assert any(slot.__class__ is list for slot in filled[FIFO])
    assert any(slot.__class__ is list for slot in filled[PREEMPTIVE]) == (name == "monotone")


@pytest.mark.parametrize("kind", [PREEMPTIVE, NONPREEMPTIVE, FIFO])
@pytest.mark.parametrize("name", CHAINS)
def test_memoized_kernel_matches_reference_over_200k_events(name, kind):
    # each chain's run against the reference kernel, which applies every
    # event: the same state at each of 200k events, numbered in order of
    # first visit, and the same yielded uniforms; after every event the
    # same FIFO queue, which the kernel keeps live, and once the kernel is
    # closed the same count lists
    n = 200_000
    rng = random.Random(12)
    path = Path()
    memo = CHAINS[name](kind, rng)
    kernel = jumps(memo, rng, path)
    rng = random.Random(12)
    chain = CHAINS[name](kind, rng)
    events = reference_jumps(chain, rng)
    ids, want = {}, []
    queued = 0
    for _ in range(n):
        want.append(ids.setdefault(_key(chain), len(ids)))
        assert next(events) == next(kernel)
        if kind == FIFO:
            assert memo.state.queue == chain.state.queue
            queued += len(chain.state.queue) > 0
    assert path.ids.tolist() == want and list(path.table) == list(ids)
    assert (queued > n // 10) == (kind == FIFO)
    kernel.close()
    assert _key(memo) == _key(chain)


def test_ordering_check_g_le_z():
    cfg = dataclasses.replace(TWO_CLASS, n_servers=4)
    chain = InfServerChain(cfg, NONPREEMPTIVE, random.Random(0))
    chain.state.set_counts([2, 0], [2, 0])
    chain.g[:] = [4, 0]
    with pytest.raises(OrderingViolation, match=r"G\[0\] = 3 > Z\[0\] = 2"):
        chain.jump(InfServerChain.G_ONLY * 2)  # G-only death: 4 -> 3, still > 2


ONE_CLASS = [ClassParams(1.0, 1.0, 0.5)]


def test_ordering_check_z_le_zprime():
    # an arrival moves both to Z = 4 > Z' = 3
    chain = _monotone_chain(ONE_CLASS, 4, [0.0], [3], [3], [2])
    with pytest.raises(OrderingViolation, match=r"Z\[0\] = 4 > Z'\[0\] = 3"):
        chain.jump(0)


def test_ordering_check_psi_le_psiprime():
    # three in service on two servers; the shadow, capped at two, serves fewer
    chain = _monotone_chain(ONE_CLASS, 2, [0.0], [3], [3], [4])
    with pytest.raises(OrderingViolation, match=r"psi\[0\] = 3 > psi'\[0\] = 2"):
        chain.jump(3)  # shadow-only departure: Z' = 3


def test_ordering_check_q_le_qprime():
    # the primary serves 1 of 3 and the shadow 3 of 3 after its departure;
    # a larger Q without Z > Z' or psi > psi' needs an idle primary, so the
    # idling check would fail too, but the Q check comes first
    chain = _monotone_chain(ONE_CLASS, 4, [0.0], [3], [1], [4])
    with pytest.raises(OrderingViolation, match=r"Q\[0\] = 2 > Q'\[0\] = 0"):
        chain.jump(3)


def test_ordering_check_primary_non_idling():
    # one of four servers busy with two waiting; the shadow's queue is longer
    chain = _monotone_chain(ONE_CLASS, 4, [0.0], [3], [1], [8])
    with pytest.raises(OrderingViolation, match=r"psi sums to 1 < 4 but Q\[0\] > 0"):
        chain.jump(3)


def test_ordering_check_shadow_non_idling(monkeypatch):
    # a shadow allocation that leaves psi' as set by hand: one of two
    # shadow customers served while four servers are free; it returns the
    # totals (sum Z', sum psi) as the real one does
    monkeypatch.setattr(MonotoneChain, "allocate_shadow",
                        lambda self: (sum(self.zp), sum(self.state.psi)))
    chain = _monotone_chain(ONE_CLASS, 4, [0.0], [1], [1], [3])
    chain.psip[:] = [1]
    with pytest.raises(OrderingViolation, match=r"psi' sums to 1, not min\(N, sum Z'\) = min\(4, 2\)"):
        chain.jump(3)


# The one-step oracle: every transition of each coupling at every ordered
# joint state of a small system, against the law each marginal must keep.
ORACLE_LEVEL = 12  # primary and shadow levels; FIFO queues up to ORACLE_QUEUE
ORACLE_QUEUE = 4


class _Choice:
    """Stands in for an rng whose draws are fixed: ``random()`` returns
    ``u`` and ``randrange(n)`` returns ``j``."""

    def __init__(self, u, j):
        self.u, self.j = u, j

    def random(self):
        return self.u

    def randrange(self, n):
        assert 0 <= self.j < n
        return self.j


def _primary_states(kind):
    """``(key, state)`` of every primary state of ``SMALL`` up to
    ``ORACLE_LEVEL`` (FIFO: queues up to ``ORACLE_QUEUE``), each state built
    through the policy operations."""
    if kind != FIFO:
        idx = enumerate_states(SMALL, kind, ORACLE_LEVEL)
        for z, psi in zip(idx.z.tolist(), idx.psi.tolist()):
            st = init_state(SMALL, kind)
            if kind == PREEMPTIVE:
                st.set_counts(z)
            else:
                st.set_counts(z, psi)
            yield _primary_key(st), st
        return
    n = SMALL.n_servers
    for busy in range(n + 1):
        queues = [()] if busy < n else [q for m in range(ORACLE_QUEUE + 1)
                                         for q in itertools.product(range(2), repeat=m)]
        for psi0 in range(busy + 1):
            for queue in queues:
                st = init_state(SMALL, FIFO)
                for c in [0] * psi0 + [1] * (busy - psi0) + list(queue):
                    st.apply_arrival(c)  # servers fill first, then the queue in order
                yield _primary_key(st), st


def _primary_key(st):
    if st.kind == PREEMPTIVE:
        return tuple(st.z)
    if st.kind == NONPREEMPTIVE:
        return tuple(st.z), tuple(st.psi)
    return tuple(st.psi), tuple(st.queue)


def _primary_rows(kind):
    """Primary key -> {target key: rate}: the rows of ``build_generator``'s
    ``Q`` (indexed one level beyond the states, so no target is dropped),
    or for FIFO the label-sequence rules: the queue head takes a freed
    server, and each queued customer abandons at its own rate."""
    rows = {}
    if kind != FIFO:
        gen = build_generator(enumerate_states(SMALL, kind, ORACLE_LEVEL + 1))
        z, psi = gen.idx.z.tolist(), gen.idx.psi.tolist()
        keys = [tuple(a) if kind == PREEMPTIVE else (tuple(a), tuple(b))
                for a, b in zip(z, psi)]
        Q = gen.Q
        for i, key in enumerate(keys):
            lo, hi = Q.indptr[i], Q.indptr[i + 1]
            rows[key] = {keys[j]: rate for j, rate in zip(Q.indices[lo:hi].tolist(),
                                                         Q.data[lo:hi].tolist()) if j != i}
        return rows
    lam, mu, nu, n = SMALL.arrival_rates, SMALL.mus, SMALL.nus, SMALL.n_servers
    for key, _ in _primary_states(FIFO):
        psi, queue = key
        row = {}

        def add(target_psi, target_queue, rate):
            target = (tuple(target_psi), tuple(target_queue))
            row[target] = row.get(target, 0.0) + rate

        for c in range(2):
            if sum(psi) < n:
                add([p + (d == c) for d, p in enumerate(psi)], queue, lam[c])
            else:
                add(psi, queue + (c,), lam[c])
            if psi[c]:
                served = [p - (d == c) for d, p in enumerate(psi)]
                if queue:
                    served[queue[0]] += 1
                add(served, queue[1:], mu[c] * psi[c])
        for pos, c in enumerate(queue):
            add(psi, queue[:pos] + queue[pos + 1:], nu[c])
        rows[key] = row
    return rows


def _shadow_allocation(psi, zp):
    """The shadow's servers: the primary's, then the rest by ascending class."""
    rem = min(SMALL.n_servers, sum(zp)) - sum(psi)
    out = []
    for p, zpi in zip(psi, zp):
        extra = min(zpi - p, rem)
        out.append(p + extra)
        rem -= extra
    return out


def _outcomes(chain, k, kind):
    """``(weight, rng stand-in)`` per outcome of the random choices an event
    of category ``k`` makes at the chain's state: a FIFO abandonment's
    queued customer, each at 1/q, and the monotone thinning, kept at ``p``
    and followed at ``1 - p``."""
    block, i = divmod(k, SMALL.n_classes)
    st = chain.state
    queued = st.z[i] - st.psi[i]
    abandons = block in ((2,) if isinstance(chain, MonotoneChain)
                         else (InfServerChain.SHARED_QUEUE, InfServerChain.Z_QUEUE))
    picks = [(1.0 / queued, j) for j in range(queued)] if kind == FIFO and abandons \
        else [(1.0, 0)]
    draws = [(1.0, 0.0)]
    if isinstance(chain, MonotoneChain) and block in (1, 2):
        p = chain.thinning_probability(i)
        draws = [(w, u) for w, u in ((p, 0.0), (1.0 - p, p)) if w > 0.0]
    return [(wp * wu, _Choice(u, j)) for wp, j in picks for wu, u in draws]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("coupling", ["infserver", "monotone"])
def test_one_step_oracle(coupling, kind):
    # at every joint state of SMALL up to level 12 (FIFO: queues up to 4)
    # that satisfies the ordering, every category with a positive rate is
    # applied by jump() under each outcome of its random choices, weighted
    # by its probability: no target breaks an ordering, the weighted rates
    # summed by primary target give the primary's own row, and summed by
    # G (or Z') target give the M/M/inf row mu_i G_i (or the nu'-system row
    # mu_i psi'_i + nu'_i Q'_i), so each marginal keeps its own law
    # (strong lumpability) and the order survives every jump
    nc, lam = SMALL.n_classes, SMALL.arrival_rates
    nu_prime = [0.0, 0.5]
    rows = _primary_rows(kind)
    checked = 0
    for key, primary in _primary_states(kind):
        z, psi = list(primary.z), list(primary.psi)
        if coupling == "infserver":
            others = itertools.product(*(range(zi + 1) for zi in z))
        else:
            others = (zp for zp in itertools.product(*(range(zi, ORACLE_LEVEL + 1) for zi in z))
                      if sum(zp) <= ORACLE_LEVEL)
        for other in others:
            if coupling == "infserver":
                chain = InfServerChain(SMALL, kind, None)
                own = chain.g
                want = {(i, 1): lam[i] for i in range(nc)}
                want.update({(i, -1): SMALL.mus[i] * other[i] for i in range(nc)})
            else:
                chain = MonotoneChain(SMALL, nu_prime, kind, None)
                own = chain.zp
                psip = _shadow_allocation(psi, other)
                want = {(i, 1): lam[i] for i in range(nc)}
                want.update({(i, -1): SMALL.mus[i] * psip[i]
                             + nu_prime[i] * (other[i] - psip[i]) for i in range(nc)})
            want = {move: rate for move, rate in want.items() if rate > 0.0}
            chain.state = primary.copy()
            own[:] = other
            chain.check()
            rates = chain.rates()
            got_primary, got_other = {}, {}
            for k, rate in enumerate(rates):
                if rate <= 0.0:
                    continue
                chain.state = primary.copy()
                own[:] = other
                for weight, choice in _outcomes(chain, k, kind):
                    chain.state = primary.copy()
                    own[:] = other
                    chain.rng = choice
                    chain.jump(k)  # raises OrderingViolation on a broken order
                    target = _primary_key(chain.state)
                    if target != key:
                        got_primary[target] = got_primary.get(target, 0.0) + rate * weight
                    moved = [(i, own[i] - other[i]) for i in range(nc) if own[i] != other[i]]
                    if moved:
                        [move] = moved
                        got_other[move] = got_other.get(move, 0.0) + rate * weight
            assert got_primary == pytest.approx(rows[key], rel=1e-12, abs=0.0), (key, other)
            assert got_other == pytest.approx(want, rel=1e-12, abs=0.0), (key, other)
            checked += 1
    assert checked > 1_000


RUNNERS = {
    "infserver": (InfServerChain,
                  lambda kind, n, stream, warmup: run_infserver_coupled(
                      TWO_CLASS, kind, n, stream, warmup_events=warmup),
                  lambda kind, rng: InfServerChain(TWO_CLASS, kind, rng)),
    "monotone": (MonotoneChain,
                 lambda kind, n, stream, warmup: run_monotone_coupled(
                     TWO_CLASS, [0.0, 0.5], kind, n, stream, warmup_events=warmup),
                 lambda kind, rng: MonotoneChain(TWO_CLASS, [0.0, 0.5], kind, rng)),
}


def _break_ordering_at(monkeypatch, cls, at):
    """Make event number ``at`` of every ``cls`` chain break an ordering
    where the chain's action applies it: after it, the event's class has G
    one above Z (infinite-server) or Z' one below Z (monotone)."""
    event = cls._event

    def faulty(self, block, i, *outcome):
        event(self, block, i, *outcome)
        if self.checks == at:
            if cls is InfServerChain:
                self.g[i] = self.state.z[i] + 1
            else:
                self.zp[i] = self.state.z[i] - 1

    monkeypatch.setattr(cls, "_event", faulty)


@pytest.mark.parametrize("at, n", [(4_321, 10_000), (10_000, 10_000)])
@pytest.mark.parametrize("kind", [FIFO, PREEMPTIVE])
@pytest.mark.parametrize("coupling", RUNNERS)
def test_runner_catches_fault_at_the_reference_event(coupling, kind, at, n, monkeypatch):
    # the runner checks a state when the kernel builds its rate table, and
    # the state the last event leaves at the end; the reference kernel calls
    # rates(), and so check(), on every event.  Both must raise naming the
    # faulty event, with the same message; at == n only the final check sees
    # it.  The kernel runs a chain's action only on the first occurrence
    # of its (state, category) pair and outcome, FIFO's too, so the fault
    # goes in at the first event from ``at`` on that runs the action, found
    # on a clean run; with at == n the run ends at that event
    cls, run, make = RUNNERS[coupling]
    stream = RngStream(91, 0)
    event = cls._event
    applied = []

    def spy(self, *args):
        event(self, *args)
        applied.append(self.checks)

    monkeypatch.setattr(cls, "_event", spy)
    run(kind, n + 5_000, stream, 1_000)
    monkeypatch.setattr(cls, "_event", event)
    final = at == n
    at = next(e for e in applied if e >= at)
    n = at if final else n
    assert at < n + 5_000 and len(applied) < n + 5_000
    _break_ordering_at(monkeypatch, cls, at)
    with pytest.raises(OrderingViolation) as got:
        run(kind, n, stream, 1_000)
    rng = stream.make()
    events = reference_jumps(make(kind, rng), rng)
    with pytest.raises(OrderingViolation) as want:
        for _ in range(n + 1):
            next(events)
    assert str(got.value) == str(want.value)
    assert re.search(rf"event {at}\b", str(got.value))


@pytest.mark.parametrize("kind", [FIFO, PREEMPTIVE])
@pytest.mark.parametrize("coupling", RUNNERS)
def test_runner_checks_each_cached_state_once_and_the_last(coupling, kind, monkeypatch):
    cls, run, _ = RUNNERS[coupling]
    check = cls.check
    calls = []

    def counted(self):
        calls.append(self.checks)
        check(self)

    monkeypatch.setattr(cls, "check", counted)
    rep = run(kind, 20_000, RngStream(92, 0), 1_000)
    assert rep.ordering_checks == 20_000
    assert 0 < rep.states_checked < rep.ordering_checks
    assert len(calls) == rep.states_checked + 1
    assert calls[-1] == 20_000  # the final check, on the state the last event left


def test_ordering_checks_count_events_over_many_short_runs():
    # short runs end on a cached hop into the state the last miss reached
    # often enough that some of these do, and the count must still be n
    for seed in range(200):
        stream = RngStream(seed, 0)
        assert run_monotone_coupled(SMALL, [0.0, 0.5], PREEMPTIVE, 300,
                                    stream).ordering_checks == 300
        assert run_infserver_coupled(SMALL, PREEMPTIVE, 300, stream).ordering_checks == 300


COUPLED = {"infserver": InfServerChain, "monotone": MonotoneChain}


def _back_to_last_miss(name, n, monkeypatch):
    """Events of a clean n-event run of the preemptive ``name`` chain at
    which it holds the state its last miss reached, after cached hops away
    from it (no event leaves a state unchanged): ``(e, whether event e is
    a miss)`` for each such event number e, counted from 0."""
    cls = COUPLED[name]
    event = cls._event
    path = Path()
    misses = set()

    def spy(self, *args):
        misses.add(len(path.ids))
        event(self, *args)

    monkeypatch.setattr(cls, "_event", spy)
    rng = random.Random(13)
    advance(jumps(CHAINS[name](PREEMPTIVE, rng), rng, path), n)
    monkeypatch.setattr(cls, "_event", event)
    ids = path.ids.tolist()
    target = None
    found = []
    for e in range(1, n):
        if e - 1 in misses:
            target = ids[e]
        elif ids[e] == target:
            found.append((e, e in misses))
    return found


@pytest.mark.parametrize("name", COUPLED)
def test_event_count_is_synced_after_hops_back_to_the_last_miss(name, monkeypatch):
    # the count lists already hold the state the last miss reached when the
    # path hops back to it, but the event count has moved on: closing the
    # kernel there, and a miss from there, must still load it
    found = _back_to_last_miss(name, 3_000, monkeypatch)
    ends = [e for e, _ in found[:20]]
    assert len(ends) == 20
    for e in ends:  # runs of e events, the last a cached hop into that state
        rng = random.Random(13)
        chain = CHAINS[name](PREEMPTIVE, rng)
        events = jumps(chain, rng, Path())
        advance(events, e)
        events.close()
        assert chain.checks == e

    # break the ordering on the action of a miss from such a state: the
    # check of the state it reaches names that event, counted from 1
    at = next(e for e, miss in found if miss)
    cls = COUPLED[name]
    event = cls._event
    path = Path()

    def faulty(self, block, i, *outcome):
        event(self, block, i, *outcome)
        if len(path.ids) == at:
            if cls is InfServerChain:
                self.g[i] = self.state.z[i] + 1
            else:
                self.zp[i] = self.state.z[i] - 1

    monkeypatch.setattr(cls, "_event", faulty)
    rng = random.Random(13)
    with pytest.raises(OrderingViolation, match=rf"event {at + 1}\b"):
        advance(jumps(CHAINS[name](PREEMPTIVE, rng), rng, path), at + 2)


def test_monotone_identical_rates_degenerate():
    rep = run_monotone_coupled(TWO_CLASS, list(TWO_CLASS.nus), PREEMPTIVE,
                               100_000, RngStream(51, 0))
    assert rep.z_time_avg == rep.z_prime_time_avg


def test_monotone_ordering_two_class():
    for kind in (FIFO, PREEMPTIVE, NONPREEMPTIVE):
        rep = run_monotone_coupled(TWO_CLASS, [0.0, 0.0], kind, 120_000,
                                   RngStream(61, 0), warmup_events=5_000)
        assert rep.ordering_checks == 120_000
        for i in range(2):
            assert rep.z_prime_time_avg[i] >= rep.z_time_avg[i]


def test_monotone_gap_against_exact_oracle():
    # 1 class, r=25: primary nu=1 (Poisson(25) law), shadow nu'=0 (M/M/30);
    # both oracle means from an independent birth-death recursion
    r, K = 25.0, 200
    cfg = build_config([ClassParams(1.0, 1.0, 1.0)], r, 1.0)
    n = cfg.n_servers
    truth_primary = birth_death_mean(lambda k: r, lambda k: float(k), K)
    truth_shadow = birth_death_mean(lambda k: r, lambda k: float(min(k, n)), K)
    assert truth_shadow > truth_primary  # smaller abandonment, larger system

    gaps, prim, shad = [], [], []
    for s in range(5):
        rep = run_monotone_coupled(cfg, [0.0], PREEMPTIVE, 200_000,
                                   RngStream(71, s), warmup_events=15_000)
        prim.append(rep.z_time_avg[0])
        shad.append(rep.z_prime_time_avg[0])
        gaps.append(rep.z_prime_time_avg[0] - rep.z_time_avg[0])
    tcrit = 2.78
    assert abs(statistics.mean(prim) - truth_primary) <= \
        tcrit * statistics.stdev(prim) / math.sqrt(5)
    assert abs(statistics.mean(shad) - truth_shadow) <= \
        tcrit * statistics.stdev(shad) / math.sqrt(5)
    # gap positive beyond 3 standard errors
    assert statistics.mean(gaps) > 3 * statistics.stdev(gaps) / math.sqrt(5)


def test_monotone_rejects_larger_nu_prime():
    with pytest.raises(HypothesisViolated):
        run_monotone_coupled(TWO_CLASS, [1.0, 2.0], FIFO, 10, RngStream(0, 0))
    with pytest.raises(HypothesisViolated):
        run_monotone_coupled(TWO_CLASS, [0.5], FIFO, 10, RngStream(0, 0))
    with pytest.raises(HypothesisViolated):  # NaN is no rate
        run_monotone_coupled(TWO_CLASS, [math.nan, 0.1], FIFO, 10, RngStream(0, 0))


def test_poisson_fit_pvalue_calibration():
    # draws actually from the right Poisson give healthy p-values
    import random

    rng = random.Random(5)

    def draw(mean):
        # inverse-cdf draw, independent of the package pmf code
        u = rng.random()
        acc, n, term = 0.0, 0, math.exp(-mean)
        while True:
            acc += term
            if u <= acc or n > 10 * mean:
                return n
            n += 1
            term *= mean / n
    good = [draw(12.5) for _ in range(2000)]
    assert poisson_fit_pvalue(good, 12.5) > 1e-3
    # grossly wrong mean is rejected
    assert poisson_fit_pvalue(good, 20.0) < 1e-10


def test_chi_square_tail_matches_scipy_stats():
    from scipy import stats
    from scipy.special import chdtrc

    rng = random.Random(5)
    for _ in range(200):
        dof, x = rng.randint(1, 60), rng.uniform(0.0, 150.0)
        assert chdtrc(dof, x) == stats.chi2.sf(x, dof)
