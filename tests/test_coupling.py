import dataclasses
import math
import random
import statistics
import time

import pytest

from helpers import birth_death_mean, per_event_coupled
from hwq.errors import HypothesisViolated, OrderingViolation
from hwq.model import ClassParams, build_config
from hwq.policy import FIFO, KINDS, NONPREEMPTIVE, PREEMPTIVE, init_state
from hwq.simulate import PolicyChain, RngStream, jumps
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
    # leaves no G-only deaths
    one_class = build_config([ClassParams(1.0, 1.0, 1.0)], 25.0, 1.0)
    for cfg, kind in ((TWO_CLASS, FIFO), (TWO_CLASS, NONPREEMPTIVE),
                      (one_class, PREEMPTIVE)):
        rng = random.Random(3)
        chain = InfServerChain(cfg, kind, rng)
        events = jumps(chain, rng)
        queued_partners = 0
        for _ in range(20_000):
            next(events)
            z, psi, g = chain.state.z, chain.state.psi, chain.g
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
    # along a trajectory: psi <= psi' <= Z' and the shadow never idles
    rng = random.Random(4)
    chain = MonotoneChain(TWO_CLASS, [0.0, 0.5], FIFO, rng)
    events = jumps(chain, rng)
    for _ in range(20_000):
        next(events)
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CHAINS)
def test_live_rate_table_matches_recompute(name, kind):
    # jump rewrites the table the kernel reads; after every event it must
    # equal, exactly, the table rates() recomputes from the state
    rng = random.Random(8)
    chain = CHAINS[name](kind, rng)
    live = chain.rates()
    events = jumps(chain, rng)
    moved = [False] * len(live)
    before = list(live)
    for _ in range(5_000):
        next(events)
        after = list(live)
        assert after == chain.rates()  # rates() refills the same list
        moved = [m or a != b for m, a, b in zip(moved, after, before)]
        before = after
    assert all(moved[SMALL.n_classes:])  # every departure rate changed at least once


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
