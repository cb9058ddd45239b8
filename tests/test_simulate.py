import math
import random

import pytest
from scipy import stats

from helpers import covers
from hwq.errors import CycleTimeout
from hwq.model import ClassParams, MacroState, build_config
from hwq.policy import FIFO, PREEMPTIVE, init_state
from hwq.simulate import (
    RngStream,
    batch_means_estimate,
    choose_estimator,
    default_warmup,
    event_rates,
    regenerative_estimate,
    run,
    sample_event,
    step,
    total_rate,
)

MM2 = build_config([ClassParams(1.0, 1.0, 0.0)], 1.0, 1.0)  # N=2


def z_total(z, psi, cfg):
    return float(sum(z))


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(123, 0).make()
    b = RngStream(123, 0).make()
    c = RngStream(123, 1).make()
    xs = [a.random() for _ in range(5)]
    assert xs == [b.random() for _ in range(5)]
    assert xs != [c.random() for _ in range(5)]


def test_total_rate_empty_state():
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 100.0, 1.0)
    assert total_rate(MacroState(z=(0,), psi=(0,)), cfg) == pytest.approx(100.0)


def test_total_rate_full_system():
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 100.0, 1.0)  # N=110
    assert total_rate(MacroState(z=(110,), psi=(110,)), cfg) == pytest.approx(210.0)


def test_total_rate_two_class_hand_sum():
    # lam=(.5,1), mu=(1,2), nu=(1,.5), r=4: 2+4 + (2+1) + (4+0) = 13
    cfg = build_config(
        [ClassParams(0.5, 1.0, 1.0), ClassParams(1.0, 2.0, 0.5)], 4.0, 1.0
    )
    s = MacroState(z=(3, 2), psi=(2, 2))
    assert total_rate(s, cfg) == pytest.approx(13.0)
    # the same state gives P(abandonment class 0) = nu*q/total = 1/13
    rates = event_rates([3, 2], [2, 2], cfg)
    assert sum(rates) == pytest.approx(13.0)
    assert rates[4] / sum(rates) == pytest.approx(1.0 / 13.0)


def test_empty_system_next_event_is_arrival():
    rng = random.Random(0)
    for _ in range(200):
        kind, cls, total = sample_event([0], [0], MM2, rng)
        assert kind == "arrival" and cls == 0


def test_mean_holding_time_at_empty():
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 100.0, 1.0)
    rng = random.Random(2024)
    n = 100_000
    acc = 0.0
    for _ in range(n):
        acc += rng.expovariate(100.0)
    mean = acc / n
    # Exp(100): mean 0.01, sd of the sample mean = 0.01/sqrt(n)
    assert abs(mean - 0.01) <= 3 * 0.01 / math.sqrt(n)


def test_event_category_frequencies_match_rates():
    # frozen state, chi-square over sampled categories within 4 sigma
    cfg = build_config(
        [ClassParams(0.5, 1.0, 1.0), ClassParams(1.0, 2.0, 0.5)], 4.0, 1.0
    )
    z, psi = [3, 2], [2, 2]
    rates = event_rates(z, psi, cfg)
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
        before = st.project()
        # the same random numbers make sample_event draw the event step applies
        probe_rng.setstate(rng.getstate())
        kind, cls, _ = sample_event(before.z, before.psi, cfg, probe_rng)
        holding = step(st, cfg, rng)
        after = st.project()
        assert holding > 0
        delta = [a - b for a, b in zip(after.z, before.z)]
        expected = [0] * cfg.n_classes
        expected[cls] = 1 if kind == "arrival" else -1
        assert delta == expected


def test_run_mm2_mean():
    summary = run(MM2, PREEMPTIVE, 400_000, 5_000, RngStream(1, 0), {"z": z_total})
    # compare against an independent batch-means CI on the same functional
    est = batch_means_estimate(MM2, PREEMPTIVE, z_total, 20, 20_000, 5_000, RngStream(1, 1))
    assert abs(summary.time_averages["z"] - 4.0 / 3.0) <= 3 * est.half_width


def test_run_poisson_instance_mean():
    # nu = mu: stationary Z is Poisson(r), mean r
    cfg = build_config([ClassParams(1.0, 1.0, 1.0)], 25.0, 1.0)
    est = batch_means_estimate(cfg, PREEMPTIVE, z_total, 20, 20_000,
                               default_warmup(cfg), RngStream(2, 0))
    assert covers(est, 25.0)


def test_run_zero_span_rejected():
    with pytest.raises(ValueError):
        run(MM2, PREEMPTIVE, 100, 100, RngStream(0, 0), {"z": z_total})


def test_run_deterministic_given_stream():
    a = run(MM2, FIFO, 20_000, 100, RngStream(7, 3), {"z": z_total})
    b = run(MM2, FIFO, 20_000, 100, RngStream(7, 3), {"z": z_total})
    c = run(MM2, FIFO, 20_000, 100, RngStream(7, 4), {"z": z_total})
    assert a == b
    assert a.time_averages != c.time_averages


def test_regenerative_mm2():
    est = regenerative_estimate(MM2, PREEMPTIVE, z_total, 10_000, RngStream(3, 0))
    assert est.method == "regenerative"
    assert abs(est.value - 4.0 / 3.0) <= est.half_width


def test_regenerative_constant_functional():
    est = regenerative_estimate(MM2, PREEMPTIVE, lambda z, psi, c: 1.0, 50, RngStream(3, 1))
    assert est.value == pytest.approx(1.0)
    assert est.half_width == pytest.approx(0.0)


def test_regenerative_timeout_in_heavy_traffic():
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 400.0, 1.0)
    with pytest.raises(CycleTimeout):
        regenerative_estimate(cfg, PREEMPTIVE, z_total, 3, RngStream(4, 0),
                              max_events_per_cycle=200_000)


def test_batch_means_mm2():
    est = batch_means_estimate(MM2, PREEMPTIVE, z_total, 20, 20_000, 2_000, RngStream(5, 0))
    assert est.method == "batch_means"
    assert covers(est, 4.0 / 3.0)


def test_batch_means_constant_functional():
    est = batch_means_estimate(MM2, PREEMPTIVE, lambda z, psi, c: 2.5, 10, 500, 0, RngStream(5, 1))
    assert est.value == pytest.approx(2.5)
    assert est.half_width == pytest.approx(0.0)


def test_batch_means_matches_exact_mgf():
    # functional exp(0.1 * zhat^+) on the nu = mu instance, r = 25
    from hwq.exact import build_generator, enumerate_states, expectation, stationary
    import numpy as np

    cfg = build_config([ClassParams(1.0, 1.0, 1.0)], 25.0, 1.0)
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, 115))
    sv = stationary(gen)
    zhat = (gen.idx.z.sum(axis=1) - cfg.rho_r_total) / cfg.sqrt_r
    truth = expectation(sv.pi, np.exp(0.1 * np.maximum(zhat, 0.0)))

    def f(z, psi, c):
        zh = (sum(z) - c.rho_r_total) / c.sqrt_r
        return math.exp(0.1 * zh) if zh > 0.0 else 1.0

    est = batch_means_estimate(cfg, PREEMPTIVE, f, 20, 20_000,
                               default_warmup(cfg), RngStream(6, 0))
    assert covers(est, truth)


def test_work_conservation_under_no_abandonment():
    # time-average of sum(psi)/N equals the nominal utilization
    from hwq.model import nominal_utilization

    cfg = build_config([ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)], 16.0, 1.0)
    est = batch_means_estimate(
        cfg, FIFO, lambda z, psi, c: sum(psi) / c.n_servers, 20, 25_000,
        default_warmup(cfg), RngStream(8, 0),
    )
    assert covers(est, nominal_utilization(cfg))


def test_ci_coverage_over_seeds():
    # reported 95% CIs must cover the truth for most of 100 seeds
    hits = 0
    for s in range(100):
        est = batch_means_estimate(MM2, PREEMPTIVE, z_total, 20, 1_500, 500,
                                   RngStream(424242, s))
        if abs(est.value - 4.0 / 3.0) <= est.half_width:
            hits += 1
    # Binomial(100, .95): P(X <= 88) < 1%
    assert hits >= 89


def test_choose_estimator_thresholds():
    assert choose_estimator(MM2) == "regenerative"
    big = build_config([ClassParams(1.0, 1.0, 0.0)], 400.0, 1.0)
    assert choose_estimator(big) == "batch_means"
