"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The couplings (criteria
7 and 8) simulate 4e7 events in 40 independent runs, fanned out over every
usable core, and dominate the runtime (a few minutes); all other criteria
finish in seconds.
"""

import math

import numpy as np
import pytest

from hwq.model import ClassParams, build_config
from hwq.policy import FIFO, NONPREEMPTIVE, PREEMPTIVE
from hwq.simulate import RngStream, fan_out, usable_cores
from hwq.exact import (
    build_generator,
    enumerate_states,
    expectation,
    negpart_square_bound,
    negpart_square_mgf,
    poisson_bound_scan,
    poisson_pmf,
    stationary,
)
from hwq.coupling import poisson_fit_pvalue, run_infserver_coupled, run_monotone_coupled
from hwq.verify import (
    FunctionalSpec,
    default_truncation,
    drift_bounds_abandon_check,
    drift_identity_check,
    fit_log_slope,
    generator_identity_check,
    lyapunov_pointwise_check,
    sweep,
)

ONE_NU0 = [ClassParams(1.0, 1.0, 0.0)]
ONE_NU1 = [ClassParams(1.0, 1.0, 1.0)]
TWO_NU0 = [ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)]
TWO_AB = [ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)]

COUPLE_CFG = build_config(TWO_AB, 25.0, 1.0)
COUPLE_NU_PRIME = [0.0, 0.5]
COUPLE_SEEDS = 10
COUPLE_EVENTS = 1_000_000
COUPLE_WARMUP = 20_000
G_SAMPLE_DT = 8.0  # time units between stationary G snapshots (~8 relaxation times)


def _gen(cfg, kind, K=None):
    return build_generator(enumerate_states(cfg, kind, K or default_truncation(cfg)))


def _report(cid: str, ok: bool, detail: str):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def _by_kind(runs):
    """Split a FIFO-then-preemptive fan-out into {kind: reports}."""
    return {FIFO: runs[:COUPLE_SEEDS], PREEMPTIVE: runs[COUPLE_SEEDS:]}


@pytest.fixture(scope="module")
def infserver_runs():
    return _by_kind(fan_out(run_infserver_coupled, [
        (COUPLE_CFG, kind, COUPLE_EVENTS, RngStream(20250810, s), COUPLE_WARMUP,
         G_SAMPLE_DT if kind == FIFO else 0.0)
        for kind in (FIFO, PREEMPTIVE) for s in range(COUPLE_SEEDS)
    ], jobs=usable_cores()))


@pytest.fixture(scope="module")
def monotone_runs():
    return _by_kind(fan_out(run_monotone_coupled, [
        (COUPLE_CFG, COUPLE_NU_PRIME, kind, COUPLE_EVENTS, RngStream(20250811, s),
         COUPLE_WARMUP)
        for kind in (FIFO, PREEMPTIVE) for s in range(COUPLE_SEEDS)
    ], jobs=usable_cores()))


def test_c01_poisson_identity_at_nu_eq_mu():
    # nu = mu makes the death rate exactly z: stationary law is Poisson(r)
    r = 25.0
    cfg = build_config(ONE_NU1, r, 1.0)
    K = math.ceil(r + 12.0 * math.sqrt(r))
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K))
    sv = stationary(gen)
    pois = poisson_pmf(r, np.arange(K + 1))
    tv = 0.5 * (np.abs(sv.pi - pois).sum() + max(0.0, 1.0 - pois.sum()))
    _report("C01", tv <= 1e-8, f"total variation vs Poisson(25) = {tv:.3e} <= 1e-8")


def test_c02_mmn_oracle():
    cfg = build_config(ONE_NU0, 1.0, 1.0)  # N = 2
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, 60))
    sv = stationary(gen)
    ez = expectation(sv.pi, gen.idx.z.sum(axis=1))
    err = abs(ez - 4.0 / 3.0)
    _report("C02", err <= 1e-10, f"M/M/2 E[Z] = {ez:.12f}, |err| = {err:.2e} <= 1e-10")


def test_c03_drift_identity_three_instances():
    instances = [
        (build_config(TWO_NU0, 16.0, 1.0), PREEMPTIVE),
        (build_config(TWO_AB, 16.0, 1.0), PREEMPTIVE),
        (build_config(ONE_NU1, 25.0, 1.0), PREEMPTIVE),
    ]
    worst = 0.0
    states = 0
    for cfg, kind in instances:
        [row] = drift_identity_check(_gen(cfg, kind))
        assert row.violations == 0
        worst = max(worst, row.residual_or_err)
        states += row.n_states
    _report("C03", worst <= 1e-12,
            f"workload drift identity exact at {states} states over 3 instances "
            f"(max rel err {worst:.2e} <= 1e-12)")


def test_c04_lyapunov_inequality_scan():
    total_violations = 0
    total_states = 0
    for classes, r in ((TWO_NU0, 16.0), (ONE_NU0, 25.0)):
        cfg = build_config(classes, r, 1.0)
        for kind in (PREEMPTIVE, NONPREEMPTIVE):
            gen = _gen(cfg, kind)
            for theta in (0.1, 0.2, 0.5, 1.0):
                [row] = lyapunov_pointwise_check(gen, theta)
                total_violations += row.violations
                total_states += row.n_states
    _report("C04", total_violations == 0,
            f"exponential Lyapunov bound: {total_violations} violations over "
            f"{total_states} state evaluations (r in {{16,25}}, both policies, "
            f"theta in {{0.1,0.2,0.5,1.0}})")


def test_c05_abandonment_drift_bounds():
    cfg = build_config(TWO_AB, 16.0, 1.0)
    violations = 0
    states = 0
    for kind in (PREEMPTIVE, NONPREEMPTIVE):
        upper, lower = drift_bounds_abandon_check(_gen(cfg, kind))
        violations += upper.violations + lower.violations
        states += upper.n_states
    _report("C05", violations == 0,
            f"two-sided abandonment drift bounds: {violations} violations over "
            f"{states} states (2-class r=16, both policies)")


def test_c06_generator_identity():
    two = _gen(build_config(TWO_AB, 16.0, 1.0), PREEMPTIVE, 50)
    one = _gen(build_config(ONE_NU1, 16.0, 1.0), PREEMPTIVE, 140)
    rows = [
        *generator_identity_check(two, stationary(two), theta=0.2, k=3.0),
        *generator_identity_check(one, stationary(one), theta=0.3, k=5.0),
    ]
    ok = all(row.violations == 0 for row in rows)
    worst = max(row.residual_or_err for row in rows)
    bound = min(row.bound_or_slack for row in rows)
    _report("C06", ok,
            f"|E_pi[Abar F]| <= 1e-8 + deficit for all six test functions "
            f"(worst residual {worst:.2e}, tightest bound {bound:.2e})")


def test_c07_coupling_orderings(infserver_runs, monotone_runs):
    # the runners assert the orderings at every event and raise on failure,
    # so reaching this point with every event checked is the criterion
    checks = 0
    for kind in (FIFO, PREEMPTIVE):
        for rep in infserver_runs[kind] + monotone_runs[kind]:
            checks += rep.ordering_checks
    expected = 4 * COUPLE_SEEDS * COUPLE_EVENTS
    _report("C07", checks == expected,
            f"G<=Z and Z<=Z', psi<=psi' held at every one of {checks} events "
            f"(10 seeds x 1e6 events x {{FIFO, preemptive}} x both couplings)")


def test_c08_infinite_server_marginal(infserver_runs):
    worst_p = 1.0
    for rep in infserver_runs[FIFO]:
        for i in range(2):
            p = poisson_fit_pvalue([g[i] for g in rep.g_samples],
                                   COUPLE_CFG.rho_r[i])
            worst_p = min(worst_p, p)
    _report("C08", worst_p > 1e-4,
            f"stationary G_i fits Poisson(rho_i*r) at r=25: min chi-square "
            f"p-value {worst_p:.2e} > 1e-4 across 10 seeds x 2 classes")


def test_c09_mgf_bound_for_negative_part():
    theta = 1.0
    bound = math.exp(theta ** 2 / 2.0) + 1.0  # single class, rho = 1
    values = {}
    for r in (25.0, 100.0):
        rows = sweep(ONE_NU1, 1.0, [r], PREEMPTIVE,
                     [FunctionalSpec("exp_sum_zhat_minus", theta=theta)],
                     seed=0, estimator="exact")
        values[r] = rows[0].estimate
        assert rows[0].half_width == 0.0
    ok = all(v <= bound for v in values.values())
    _report("C09", ok,
            f"E exp(sum zhat_minus) = {values[25.0]:.5f} (r=25), "
            f"{values[100.0]:.5f} (r=100) <= e^0.5 + 1 = {bound:.5f}")


def test_c10_tightness_sweep_no_growth():
    specs = [FunctionalSpec("exp_sum_zhat_plus", theta=0.1),
             FunctionalSpec("exp_sum_zhat_minus", theta=0.1)]
    rows = sweep(TWO_NU0, 1.0, [25.0, 100.0, 400.0], FIFO, specs,
                 seed=20250810, estimator="batch_means",
                 n_batches=20, events_per_batch=40_000, warmup_events=60_000)
    ok = True
    details = []
    for spec in specs:
        pts = [(r.r, r.estimate, r.half_width) for r in rows
               if r.functional == spec.label()]
        slope, se = fit_log_slope(pts)
        ok = ok and abs(slope) <= 1.96 * se
        details.append(f"{spec.fid}: slope {slope:+.4f} +- {1.96 * se:.4f}")
    _report("C10", ok,
            "log-estimate vs log-r slope within CI of 0 (FIFO, r in "
            "{25,100,400}): " + "; ".join(details))


def test_c11_subgaussian_sweep_bounded():
    c0 = 1.2  # common constant; the N(0,1) limit value is ~1.053
    rows = sweep(ONE_NU1, 1.0, [25.0, 100.0, 400.0], PREEMPTIVE,
                 [FunctionalSpec("exp_zhat_plus_sq_trunc", theta=0.05, k=5.0)],
                 seed=0, estimator="exact")
    values = [row.estimate for row in rows]
    # frozen regression values from the exact solver
    frozen = [1.0288782194, 1.0279540830, 1.0274976441]
    assert values == pytest.approx(frozen, abs=1e-6)
    ok = all(v <= c0 for v in values)
    _report("C11", ok,
            f"truncated E[exp(0.05 (zhat^+)^2); phi_hat<=5] = "
            f"{[round(v, 6) for v in values]} <= {c0} across r in {{25,100,400}}")


def test_c12_poisson_tail_bound():
    cs = {p: poisson_bound_scan(p) for p in (50.0, 100.0, 1000.0, 10_000.0)}
    ok = all(c <= 2.0 for c in cs.values())
    mgf_ok = True
    for p in (50.0, 100.0, 1000.0):
        v = negpart_square_mgf(0.4, p)
        mgf_ok = mgf_ok and v <= negpart_square_bound(0.4, p, C=cs[p])
    _report("C12", ok and mgf_ok,
            f"minimal C over p in {{50,100,1000,1e4}}: "
            f"{[round(c, 4) for c in cs.values()]} <= 2.0; "
            f"negpart square-MGF within the scan-derived integral bound")


def test_c13_sweep_determinism(tmp_path):
    import json

    from hwq.cli import main

    raw = {
        "schema_version": "hwq-config/1",
        "seed": 4242,
        "system": {"classes": [{"lambda": 0.5, "mu": 1.0, "nu": 0.0},
                               {"lambda": 1.0, "mu": 2.0, "nu": 0.0}],
                   "r_list": [4.0, 9.0], "a": 1.0},
        "policy": "fifo",
        "sweep": {"estimator": "batch_means", "n_batches": 10,
                  "events_per_batch": 3_000, "warmup_events": 500},
    }
    cfg_file = tmp_path / "sweep.json"
    cfg_file.write_text(json.dumps(raw))
    rc1 = main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "a")])
    rc2 = main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "b")])
    same = (tmp_path / "a" / "sweep.csv").read_bytes() == \
        (tmp_path / "b" / "sweep.csv").read_bytes()
    _report("C13", rc1 == 0 and rc2 == 0 and same,
            "repeated `hwq sweep` with the same manifest emits byte-identical CSV")
