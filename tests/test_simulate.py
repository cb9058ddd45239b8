import math
import os
import random
from itertools import islice

import numpy as np
import pytest
from scipy import stats

from helpers import (
    covers,
    per_event_batch_means,
    per_event_regenerative,
    reference_jumps,
    reference_occupancy,
)
from hwq.errors import CycleTimeout
from hwq.model import ClassParams, MacroState, build_config
from hwq.policy import FIFO, PREEMPTIVE, init_state
from hwq import simulate
from hwq.verify import FunctionalSpec
from hwq.simulate import (
    GROUP_STATES,
    Path,
    PolicyChain,
    RngStream,
    _Probe,
    batch_means_multi,
    check_event_counts,
    choose_estimator,
    default_warmup,
    fan_out,
    jumps,
    occupancy,
    regenerative_estimate,
    sample_event,
    step,
    usable_cores,
)

MM2 = build_config([ClassParams(1.0, 1.0, 0.0)], 1.0, 1.0)  # N=2


def z_total(Z, PSI, cfg):
    return Z.sum(axis=1).astype(float)


def constant(value):
    return lambda Z, PSI, cfg: np.full(len(Z), value)


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(123, 0).make()
    b = RngStream(123, 0).make()
    c = RngStream(123, 1).make()
    xs = [a.random() for _ in range(5)]
    assert xs == [b.random() for _ in range(5)]
    assert xs != [c.random() for _ in range(5)]


def test_total_rate_empty_state():
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 100.0, 1.0)
    rates = PolicyChain(MacroState(z=(0,), psi=(0,)), cfg).rates()
    assert sum(rates) == pytest.approx(100.0)


def test_total_rate_full_system():
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 100.0, 1.0)  # N=110
    rates = PolicyChain(MacroState(z=(110,), psi=(110,)), cfg).rates()
    assert sum(rates) == pytest.approx(210.0)


def test_total_rate_two_class_hand_sum():
    # lam=(.5,1), mu=(1,2), nu=(1,.5), r=4: 2+4 + (2+1) + (4+0) = 13
    cfg = build_config(
        [ClassParams(0.5, 1.0, 1.0), ClassParams(1.0, 2.0, 0.5)], 4.0, 1.0
    )
    rates = PolicyChain(MacroState(z=(3, 2), psi=(2, 2)), cfg).rates()
    assert sum(rates) == pytest.approx(13.0)
    # the same state gives P(abandonment class 0) = nu*q/total = 1/13
    assert rates[4] / sum(rates) == pytest.approx(1.0 / 13.0)


def test_empty_system_next_event_is_arrival():
    rng = random.Random(0)
    for _ in range(200):
        kind, cls, total = sample_event([0], [0], MM2, rng)
        assert kind == "arrival" and cls == 0


def test_mean_holding_time_at_empty():
    # the kernel on a frozen chain at the empty state, as sample_event drives
    # it; each yielded uniform u gives the holding time -log(1 - u)/total
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 100.0, 1.0)
    rng = random.Random(2024)
    probe = _Probe(MacroState(z=[0], psi=[0]), cfg)
    total = sum(probe.rates())
    events = jumps(probe, rng)
    n = 100_000
    mean = sum(-math.log(1.0 - u) / total for u in islice(events, n)) / n
    # Exp(100): mean 0.01, sd of the sample mean = 0.01/sqrt(n)
    assert abs(mean - 0.01) <= 3 * 0.01 / math.sqrt(n)


def test_kernel_holding_time_is_expovariate():
    # the kernel yields the uniform of random.expovariate's expression, so
    # the stream is unchanged: -log(1 - u)/total of the first yield equals
    # expovariate(total) at the seed
    cfg = build_config(
        [ClassParams(0.5, 1.0, 1.0), ClassParams(1.0, 2.0, 0.5)], 4.0, 1.0
    )
    probe = _Probe(MacroState(z=[3, 2], psi=[2, 2]), cfg)
    total = sum(probe.rates())
    for seed in range(20):
        u = next(jumps(probe, random.Random(seed)))
        assert -math.log(1.0 - u) / total == random.Random(seed).expovariate(total)


class _Cap:
    """One counter and two categories, the last at an infinite rate: every
    draw lands at or beyond the cumulative rates, as a total from a
    compensated ``sum`` can on Python 3.12 and later.  The counter counts
    the events, so every state is new and the kernel runs every action."""

    def __init__(self):
        self.n = [0]
        self.picked = []

    def counts(self):
        return self.n, ()

    def load(self, key, events):
        self.n[:] = key

    def branch(self, k):
        return None

    def rates(self):
        return [1.0, math.inf]

    def pick(self, k):
        self.picked.append(k)
        self.n[0] += 1

    def actions(self):
        return [(self.pick, (k,)) for k in range(2)]


def test_kernel_caps_the_category_at_the_last():
    picked, yields = [], []
    for kernel in (jumps, reference_jumps):
        chain = _Cap()
        yields.append(list(islice(kernel(chain, random.Random(3)), 50)))
        picked.append(chain.picked)
    assert picked[0] == picked[1] == [1] * 50
    # the holding times at an infinite total rate are 0
    assert yields[0] == yields[1]
    assert [-math.log(1.0 - u) / math.inf for u in yields[0]] == [0.0] * 50


@pytest.mark.parametrize("kind", [FIFO, PREEMPTIVE])
def test_cycle_groups_reproduce_reference_cycles(kind, monkeypatch):
    # each regenerative cycle's folded record against a dict of running sums
    # per cycle, bit for bit; small folds carry open cycles across them
    monkeypatch.setattr(simulate, "GROUP_STATES", 300)
    n_cycles = 400
    rng = random.Random(21)
    state = init_state(TWO_CLASS, kind)
    path = Path()
    events = jumps(PolicyChain(state, TWO_CLASS, rng), rng, path)
    groups = list(simulate._cycle_groups(events, path, n_cycles, 10_000))
    rng = random.Random(21)
    chain = PolicyChain(init_state(TWO_CLASS, kind), TWO_CLASS, rng)
    events = reference_jumps(chain, rng)
    cycles = [reference_occupancy(chain, events, 10_000, until_empty=True)[:2]
              for _ in range(n_cycles)]
    assert len(groups) > 1
    got = []
    for states, held, starts, taus in groups:
        rows = list(map(tuple, states.tolist()))
        ends = [*starts[1:].tolist(), len(rows)]
        got += [(dict(zip(rows[s:e], held[s:e].tolist())), tau)
                for s, e, tau in zip(starts.tolist(), ends, taus.tolist())]
    assert [(list(occ.items()), tau) for occ, tau in got] == \
        [(list(occ.items()), tau) for occ, tau in cycles]


def test_event_category_frequencies_match_rates():
    # frozen state, chi-square over sampled categories within 4 sigma
    cfg = build_config(
        [ClassParams(0.5, 1.0, 1.0), ClassParams(1.0, 2.0, 0.5)], 4.0, 1.0
    )
    z, psi = [3, 2], [2, 2]
    rates = PolicyChain(MacroState(z=z, psi=psi), cfg).rates()
    rng = random.Random(99)
    n = 100_000
    counts = {}
    for _ in range(n):
        kind, cls, _ = sample_event(z, psi, cfg, rng)
        counts[(kind, cls)] = counts.get((kind, cls), 0) + 1
    keys = [("arrival", 0), ("arrival", 1), ("service_completion", 0),
            ("service_completion", 1), ("abandonment", 0), ("abandonment", 1)]
    total = sum(rates)
    observed = [counts.get(k, 0) for k in keys]
    expected = [n * r / total for r in rates if r > 0]
    observed = [o for o, r in zip(observed, rates) if r > 0]
    stat, p = stats.chisquare(observed, expected)
    assert p > 2 * stats.norm.sf(4)  # 4-sigma equivalent


def test_step_applies_sampled_event():
    cfg = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 4.0, 1.0)
    rng = random.Random(5)
    st = init_state(cfg, PREEMPTIVE)
    probe_rng = random.Random()
    for _ in range(5000):
        before_z = list(st.z)
        # the same random numbers make sample_event draw the event step applies
        probe_rng.setstate(rng.getstate())
        kind, cls, _ = sample_event(before_z, list(st.psi), cfg, probe_rng)
        holding = step(st, cfg, rng)
        assert holding > 0
        delta = [a - b for a, b in zip(st.z, before_z)]
        expected = [0] * cfg.n_classes
        expected[cls] = 1 if kind == "arrival" else -1
        assert delta == expected


def test_run_poisson_instance_mean():
    # nu = mu: stationary Z is Poisson(r), mean r
    cfg = build_config([ClassParams(1.0, 1.0, 1.0)], 25.0, 1.0)
    est = batch_means_multi(cfg, PREEMPTIVE, {"z": z_total}, 20, 20_000,
                            default_warmup(cfg), RngStream(2, 0))["z"]
    assert covers(est, 25.0)


def test_run_zero_span_rejected():
    # the coupling runners' guard: no events left after the warm-up
    for n_events, warmup in ((100, 100), (100, 200), (100, -1)):
        with pytest.raises(ValueError):
            check_event_counts(n_events, warmup)
    check_event_counts(101, 100)


def test_run_deterministic_given_stream():
    def run(stream):
        return batch_means_multi(MM2, FIFO, {"z": z_total}, 10, 2_000, 100, stream)

    a = run(RngStream(7, 3))
    assert a == run(RngStream(7, 3))
    assert a["z"].value != run(RngStream(7, 4))["z"].value


def test_regenerative_mm2():
    est = regenerative_estimate(MM2, PREEMPTIVE, {"z": z_total}, 10_000,
                                RngStream(3, 0))["z"]
    assert est.method == "regenerative"
    assert abs(est.value - 4.0 / 3.0) <= est.half_width


def test_regenerative_constant_functional():
    est = regenerative_estimate(MM2, PREEMPTIVE, {"c": constant(1.0)}, 50,
                                RngStream(3, 1))["c"]
    assert est.value == pytest.approx(1.0)
    assert est.half_width == pytest.approx(0.0)


def test_regenerative_timeout_in_heavy_traffic():
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 400.0, 1.0)
    with pytest.raises(CycleTimeout):
        regenerative_estimate(cfg, PREEMPTIVE, {"z": z_total}, 3, RngStream(4, 0),
                              max_events_per_cycle=200_000)


TWO_CLASS = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 4.0, 1.0)
ORACLE_FNS = {spec.label(): spec.vector(TWO_CLASS) for spec in (
    FunctionalSpec("exp_sum_zhat_plus", theta=0.2), FunctionalSpec("qhat_tail", x=0.25),
    FunctionalSpec("psi_share"))}


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.mark.parametrize("kind", [FIFO, PREEMPTIVE])
def test_run_and_batch_means_equal_per_event_oracle(kind):
    fns = ORACLE_FNS
    ests = batch_means_multi(TWO_CLASS, kind, fns, 12, 2_500, 500, RngStream(12, 0))
    oracle = per_event_batch_means(TWO_CLASS, kind, fns, 12, 2_500, 500, RngStream(12, 0))
    for name, (value, half) in oracle.items():
        assert _rel(ests[name].value, value) <= 1e-12, name
        assert _rel(ests[name].half_width, half) <= 1e-12, name


@pytest.mark.parametrize("kind", [FIFO, PREEMPTIVE])
def test_regenerative_equals_per_event_oracle(kind):
    fns = ORACLE_FNS
    ests = regenerative_estimate(TWO_CLASS, kind, fns, 300, RngStream(13, 0))
    oracle = per_event_regenerative(TWO_CLASS, kind, fns, 300, RngStream(13, 0))
    for name, (value, half) in oracle.items():
        assert _rel(ests[name].value, value) <= 1e-12, name
        assert _rel(ests[name].half_width, half) <= 1e-12, name


def _counting(calls):
    """z_total that appends the number of rows of each call to ``calls``."""
    def f(Z, PSI, cfg):
        calls.append(len(Z))
        return z_total(Z, PSI, cfg)
    return f


def test_estimators_call_each_functional_once_per_batch_or_group(monkeypatch):
    calls = []
    batch_means_multi(TWO_CLASS, FIFO, {"z": _counting(calls)}, 12, 2_000, 100,
                      RngStream(15, 0))
    assert len(calls) == 12

    # the two-class sweep system at r = 4
    cfg = build_config([ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)], 4.0, 1.0)
    calls = []
    ests = regenerative_estimate(cfg, FIFO, {"z": _counting(calls)}, 3_000, RngStream(15, 1))
    assert len(calls) <= sum(calls) / GROUP_STATES + 1
    # smaller groups: more calls, still far fewer than cycles, same estimate
    monkeypatch.setattr(simulate, "GROUP_STATES", 2_000)
    calls = []
    small = regenerative_estimate(cfg, FIFO, {"z": _counting(calls)}, 3_000, RngStream(15, 1))
    assert 1 < len(calls) <= sum(calls) / 2_000 + 1 < 3_000
    assert _rel(small["z"].value, ests["z"].value) <= 1e-12
    assert _rel(small["z"].half_width, ests["z"].half_width) <= 1e-12


@pytest.mark.parametrize("kind", [FIFO, PREEMPTIVE])
def test_occupancy_has_at_most_one_state_per_event(kind):
    for grid_dt in (0.0, 0.5):
        rng = random.Random(14)
        state = init_state(TWO_CLASS, kind)
        path = Path()
        events = jumps(PolicyChain(state, TWO_CLASS, rng), rng, path)
        states, held, span, grid = occupancy(events, path, 5_000, grid_dt=grid_dt)
        visited = set(map(tuple, states.tolist()))
        assert 1 < len(states) == len(visited) == len(held) <= 5_000
        assert sum(held) == pytest.approx(span, rel=1e-12)
        assert states.shape[1] == 2 * TWO_CLASS.n_classes
        # one visited state per grid instant in (0, span]
        assert len(grid) == (math.floor(span / grid_dt) if grid_dt else 0)
        assert all(key in visited for key in map(tuple, grid.tolist()))


def test_batch_means_mm2():
    est = batch_means_multi(MM2, PREEMPTIVE, {"z": z_total}, 20, 20_000, 2_000,
                            RngStream(5, 0))["z"]
    assert est.method == "batch_means"
    assert covers(est, 4.0 / 3.0)


def test_batch_means_constant_functional():
    est = batch_means_multi(MM2, PREEMPTIVE, {"c": constant(2.5)}, 10, 500, 0,
                            RngStream(5, 1))["c"]
    assert est.value == pytest.approx(2.5)
    assert est.half_width == pytest.approx(0.0)


def test_batch_means_matches_exact_mgf():
    # functional exp(0.1 * zhat^+) on the nu = mu instance, r = 25
    from hwq.exact import build_generator, enumerate_states, expectation, stationary

    cfg = build_config([ClassParams(1.0, 1.0, 1.0)], 25.0, 1.0)
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, 115))
    sv = stationary(gen)
    zhat = (gen.idx.z.sum(axis=1) - cfg.rho_r_total) / cfg.sqrt_r
    truth = expectation(sv.pi, np.exp(0.1 * np.maximum(zhat, 0.0)))

    def f(Z, PSI, c):
        return np.exp(0.1 * np.maximum((Z.sum(axis=1) - c.rho_r_total) / c.sqrt_r, 0.0))

    est = batch_means_multi(cfg, PREEMPTIVE, {"f": f}, 20, 20_000,
                            default_warmup(cfg), RngStream(6, 0))["f"]
    assert covers(est, truth)


def test_work_conservation_under_no_abandonment():
    # time-average of sum(psi)/N equals the nominal utilization
    from hwq.model import nominal_utilization

    cfg = build_config([ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)], 16.0, 1.0)
    est = batch_means_multi(
        cfg, FIFO, {"busy": lambda Z, PSI, c: PSI.sum(axis=1) / c.n_servers}, 20, 25_000,
        default_warmup(cfg), RngStream(8, 0),
    )["busy"]
    assert covers(est, nominal_utilization(cfg))


def test_ci_coverage_over_seeds():
    # reported 95% CIs must cover the truth for most of 100 seeds
    hits = 0
    for s in range(100):
        est = batch_means_multi(MM2, PREEMPTIVE, {"z": z_total}, 20, 1_500, 500,
                                RngStream(424242, s))["z"]
        if abs(est.value - 4.0 / 3.0) <= est.half_width:
            hits += 1
    # Binomial(100, .95): P(X <= 88) < 1%
    assert hits >= 89


def test_choose_estimator_thresholds():
    assert choose_estimator(MM2) == "regenerative"
    big = build_config([ClassParams(1.0, 1.0, 0.0)], 400.0, 1.0)
    assert choose_estimator(big) == "batch_means"


def _pid_and_square(x):
    return os.getpid(), x * x


def test_fan_out_keeps_input_order_and_records_workers():
    items = [(x,) for x in range(7)]
    record = {}
    serial = fan_out(_pid_and_square, items, jobs=1, record=record)
    assert [sq for _, sq in serial] == [x * x for x in range(7)]
    assert {pid for pid, _ in serial} == {os.getpid()}  # no pool at one job
    assert record["jobs"] == 1 and len(record["unit_wall_s"]) == 7

    parallel = fan_out(_pid_and_square, items, jobs=64, record=record)
    assert [sq for _, sq in parallel] == [x * x for x in range(7)]
    assert record["jobs"] == min(7, usable_cores())
    pids = {pid for pid, _ in parallel}
    assert len(pids) <= record["jobs"]
    if record["jobs"] > 1:
        assert os.getpid() not in pids


def test_fan_out_reraises_worker_errors():
    with pytest.raises(ValueError, match="math domain"):
        fan_out(math.sqrt, [(4.0,), (-1.0,)], jobs=2)


def _t_central(t, df):
    """P(|T| <= t) for Student's t with ``df`` degrees of freedom, by the
    finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even
    df), in the current mpmath precision."""
    import mpmath

    theta = mpmath.atan(t / mpmath.sqrt(df))
    cos2 = mpmath.cos(theta) ** 2
    total = 0
    if df % 2:  # theta + sin cos (1 + 2/3 cos^2 + 2*4/(3*5) cos^4 + ...)
        term = mpmath.cos(theta)
        for k in range(1, (df - 1) // 2 + 1):
            total += term
            term *= cos2 * (2 * k) / (2 * k + 1)
        return 2 / mpmath.pi * (theta + mpmath.sin(theta) * total)
    term = mpmath.mpf(1)  # sin (1 + 1/2 cos^2 + 1*3/(2*4) cos^4 + ...)
    for k in range(1, df // 2 + 1):
        total += term
        term *= cos2 * (2 * k - 1) / (2 * k)
    return mpmath.sin(theta) * total


def _t975_series(df):
    """The 0.975 quantile of t by bisection on :func:`_t_central` at 50
    digits, to a bracket of relative width 1e-40, rounded to a float."""
    import mpmath

    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(1), mpmath.mpf(13)
        while hi - lo > lo * mpmath.mpf(10) ** -40:
            mid = (lo + hi) / 2
            if _t_central(mid, df) < mpmath.mpf(19) / 20:
                lo = mid
            else:
                hi = mid
        return float(lo)


def test_t975_within_four_ulp_of_scipy():
    # scipy is the oracle: within 4 ulp of stdtrit at df 1-300 and at 50
    # seeded df up to 1e7; where the two differ by more, the 50-digit
    # series must side with t975, i.e. stdtrit is the one that is off
    from scipy.special import stdtrit

    draw = random.Random(29)
    dfs = list(range(1, 301)) + [draw.randint(301, 10 ** 7) for _ in range(50)]
    for df in dfs:
        ours, theirs = simulate.t975(df), float(stdtrit(df, 0.975))
        if abs(ours - theirs) > 4 * np.spacing(theirs):
            assert df <= 300 and ours == _t975_series(df), df


def test_t975_correctly_rounded():
    # bit-equal to the float nearest an independent 50-digit root: the
    # A&S series for every df, and the closed form cot(pi/40) for df = 1
    import mpmath

    expected = {9: 2.2621571627982053, 19: 2.0930240544083096, 999: 1.96234146113345}
    for df, value in expected.items():
        assert _t975_series(df) == value
        assert simulate.t975(df) == value
    with mpmath.workdps(50):
        assert simulate.t975(1) == float(mpmath.cot(mpmath.pi / 40))
