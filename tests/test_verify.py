import math
import random

import numpy as np
import pytest

from hwq.errors import HypothesisViolated, ThetaOutOfRange
from hwq.model import ClassParams, build_config, scale_arrays
from hwq.policy import FIFO, NONPREEMPTIVE, PREEMPTIVE
from hwq.exact import abar_vector, build_generator, enumerate_states, stationary
from hwq.verify import (
    FunctionalSpec,
    drift_bounds_abandon_check,
    drift_identity_check,
    drift_phi_arrays,
    fit_log_slope,
    generator_identity_check,
    lyapunov_constant,
    lyapunov_pointwise_check,
    sweep,
)

NU0_ONE = build_config([ClassParams(1.0, 1.0, 0.0)], 16.0, 1.0)  # N = 20
AB_ONE = build_config([ClassParams(1.0, 1.0, 1.0)], 25.0, 1.0)  # N = 30
AB_TWO = build_config(
    [ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 16.0, 1.0
)
NU0_TWO = build_config(
    [ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)], 16.0, 1.0
)


def _gen(cfg, kind, K):
    return build_generator(enumerate_states(cfg, kind, K))


def drift_phi_row(z, psi, cfg):
    """drift_phi_arrays on the one-row arrays of a single state."""
    return drift_phi_arrays(np.array([z]), np.array([psi]), cfg)[0]


def test_drift_phi_below_spare_capacity():
    # z_hat = 0.5 < a: drift is -0.5 (no abandonment, z = 18 of 20 servers)
    assert drift_phi_row((18,), (18,), NU0_ONE) == pytest.approx(-0.5)


def test_drift_phi_capped_at_spare_capacity():
    # z_hat = 3 > a = 1
    assert drift_phi_row((28,), (20,), NU0_ONE) == pytest.approx(-1.0)


def test_drift_phi_with_abandonment_term():
    # z_hat = 2, q_hat = 0.2, nu = mu = 1: -1 - 0.2
    assert drift_phi_row((35,), (34,), AB_ONE) == pytest.approx(-1.2)


def test_drift_phi_matches_abar_single_state():
    gen = build_generator(enumerate_states(AB_TWO, PREEMPTIVE, 40))

    def phi_hat(Z, PSI, cfg):
        return ((Z - np.asarray(cfg.rho_r)) / np.asarray(cfg.mus)).sum(axis=1) / cfg.sqrt_r

    abar = abar_vector(gen, phi_hat)
    closed = drift_phi_arrays(gen.idx.z, gen.idx.psi, AB_TWO)
    rows = gen.idx.positions(np.array([(0, 0), (5, 3), (10, 12), (20, 19)]), None)
    assert (rows >= 0).all()
    assert abar[rows] == pytest.approx(closed[rows], abs=1e-12)


@pytest.mark.parametrize("cfg,kind", [
    (NU0_TWO, PREEMPTIVE),
    (AB_TWO, PREEMPTIVE),
    (AB_TWO, NONPREEMPTIVE),
    (AB_ONE, PREEMPTIVE),
])
def test_drift_identity_everywhere(cfg, kind):
    [row] = drift_identity_check(_gen(cfg, kind, cfg.n_servers + 40))
    assert row.label == "phi_hat"
    assert row.violations == 0
    assert row.residual_or_err <= 1e-12


def test_lyapunov_zero_violations():
    gen = _gen(NU0_ONE, PREEMPTIVE, 80)
    for theta in (0.2, 1.0):
        [row] = lyapunov_pointwise_check(gen, theta)
        assert row.violations == 0
        assert row.bound_or_slack >= 0.0


def test_lyapunov_two_class_both_policies():
    for kind in (PREEMPTIVE, NONPREEMPTIVE):
        [row] = lyapunov_pointwise_check(_gen(NU0_TWO, kind, 50), 0.5)
        assert row.violations == 0


def test_lyapunov_theta_zero_trivial():
    # at theta = 0 the test function is 1 and both sides vanish at every state
    gen = _gen(NU0_ONE, PREEMPTIVE, 60)
    [row] = lyapunov_pointwise_check(gen, 0.0)
    assert row.violations == 0 and row.bound_or_slack == 0.0
    theta = 0.0
    value = abar_vector(gen, lambda Z, PSI, c: np.exp(theta * scale_arrays(Z, PSI, c).phi_hat))
    sa = scale_arrays(gen.idx.z, gen.idx.psi, NU0_ONE)
    bound = np.exp(theta * sa.phi_hat) * (
        -theta * sa.z_hat_a + 0.5 * theta * theta * lyapunov_constant(NU0_ONE))
    assert (value == 0.0).all() and (bound == 0.0).all()


def test_lyapunov_preconditions():
    with pytest.raises(HypothesisViolated):
        lyapunov_pointwise_check(_gen(AB_ONE, PREEMPTIVE, 60), 0.2)
    with pytest.raises(ThetaOutOfRange):
        lyapunov_pointwise_check(_gen(NU0_ONE, PREEMPTIVE, 60), 1.5)


def test_lyapunov_constant_value():
    # (sum lam + (1+a) mu_max) / mu_min^2 * e^(1/mu_min)
    expected = (1.5 + 2.0 * 2.0) / 1.0 * math.exp(1.0)
    assert lyapunov_constant(NU0_TWO) == pytest.approx(expected)


def test_abandon_bounds_zero_violations():
    upper, lower = drift_bounds_abandon_check(_gen(AB_TWO, PREEMPTIVE, 60))
    assert (upper.label, lower.label) == ("abandon_upper", "abandon_lower")
    assert upper.violations == 0 and lower.violations == 0
    assert upper.bound_or_slack >= 0.0
    assert lower.bound_or_slack >= 0.0


def test_abandon_bounds_equality_at_empty_queue():
    # with q = 0 the abandonment terms vanish: drift is exactly -z_hat_a
    for z in [(3, 2), (10, 8)]:
        sc_total = (sum(z) - AB_TWO.rho_r_total) / AB_TWO.sqrt_r
        assert drift_phi_row(z, z, AB_TWO) == pytest.approx(
            -min(sc_total, AB_TWO.a_eff), abs=1e-12
        )


def test_abandon_bounds_need_positive_rates():
    with pytest.raises(HypothesisViolated):
        drift_bounds_abandon_check(_gen(NU0_TWO, PREEMPTIVE, 50))


def test_generator_identity_residuals():
    gen = _gen(AB_TWO, PREEMPTIVE, 50)
    sv = stationary(gen)
    rows = generator_identity_check(gen, sv, theta=0.2, k=3.0)
    deficit = sv.deficit_estimate
    assert len(rows) == 3
    for row in rows:
        assert row.violations == 0
        assert row.bound_or_slack == 1e-8 + deficit
        assert row.residual_or_err <= 1e-8 + deficit


def test_generator_identity_one_class_nu0():
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 16.0, 1.0)
    gen = _gen(cfg, PREEMPTIVE, 140)
    rows = generator_identity_check(gen, stationary(gen), theta=0.3, k=5.0)
    assert all(row.violations == 0 for row in rows)


def test_monotonicity_echo_in_exact_means():
    # smaller abandonment rates give a (stochastically) larger system
    from hwq.exact import expectation, stationary

    base = build_config([ClassParams(1.0, 1.0, 1.0)], 16.0, 1.0)
    smaller = build_config([ClassParams(1.0, 1.0, 0.25)], 16.0, 1.0)
    means = {}
    for name, cfg in (("nu1", base), ("nu025", smaller)):
        gen = build_generator(enumerate_states(cfg, PREEMPTIVE, 150))
        sv = stationary(gen)
        zhat = (gen.idx.z.sum(axis=1) - cfg.rho_r_total) / cfg.sqrt_r
        means[name] = expectation(sv.pi, zhat)
    assert means["nu025"] >= means["nu1"]


def test_subgaussian_contrast_tail_convexity():
    # at nu = mu the scaled tail log-probabilities decay faster than linear
    from hwq.exact import stationary

    cfg = build_config([ClassParams(1.0, 1.0, 1.0)], 100.0, 1.0)
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, 300))
    sv = stationary(gen)
    zhat = (gen.idx.z.sum(axis=1) - cfg.rho_r_total) / cfg.sqrt_r
    logp = {}
    for x in (1.0, 2.0, 3.0, 4.0):
        logp[x] = math.log(sv.pi[zhat >= x].sum())
    drop1 = logp[2.0] - logp[1.0]
    drop2 = logp[3.0] - logp[2.0]
    drop3 = logp[4.0] - logp[3.0]
    assert drop3 < drop2 < drop1  # strictly convex decay, not exponential


def _by_definition(spec, z, psi, cfg):
    """The functional at one state, written from FunctionalSpec's docstring."""
    zh = [(zi - lam * cfg.r / mu) / math.sqrt(cfg.r)
          for zi, lam, mu in zip(z, (c.lam for c in cfg.classes), cfg.mus)]
    phi = sum(v / mu for v, mu in zip(zh, cfg.mus))
    qh = (sum(z) - sum(psi)) / math.sqrt(cfg.r)
    return {
        "exp_sum_zhat_plus": lambda: math.exp(spec.theta * sum(max(v, 0.0) for v in zh)),
        "exp_sum_zhat_minus": lambda: math.exp(spec.theta * sum(max(-v, 0.0) for v in zh)),
        "exp_zhat_plus_sq_trunc": lambda: (
            math.exp(spec.theta * max(sum(zh), 0.0) ** 2) if phi <= spec.k else 0.0),
        "qhat_tail": lambda: 1.0 if qh >= spec.x else 0.0,
        "z_total": lambda: float(sum(z)),
        "psi_share": lambda: sum(psi) / cfg.n_servers,
    }[spec.fid]()


def test_functional_spec_vector_hand_values():
    # AB_TWO: rho*r = (8, 8), sqrt(r) = 4, mu = (1, 2), N = 20.  z_hat, phi_hat
    # and q_hat are (-1.25, 0.5), -1, 0; then (1, 1.5), 1.75, 1.5 (on qhat_tail's
    # boundary); then (8, 0), 8, 7 (truncated, and 20 * 8**2 overflows exp)
    cfg = AB_TWO
    states = [((3, 10), (3, 10)), ((12, 14), (6, 14)), ((40, 8), (12, 8))]
    Z = np.array([z for z, _ in states], dtype=np.int64)
    PSI = np.array([psi for _, psi in states], dtype=np.int64)
    specs = [
        FunctionalSpec("exp_sum_zhat_plus", theta=0.3),
        FunctionalSpec("exp_sum_zhat_minus", theta=0.7),
        FunctionalSpec("exp_zhat_plus_sq_trunc", theta=20.0, k=2.0),
        FunctionalSpec("qhat_tail", x=1.5),
        FunctionalSpec("z_total"),
        FunctionalSpec("psi_share"),
    ]
    for spec in specs:
        got = spec.vector(cfg)(Z, PSI, cfg)
        want = [_by_definition(spec, z, psi, cfg) for z, psi in states]
        assert got.tolist() == pytest.approx(want, rel=1e-12), spec


def test_functional_spec_validation():
    with pytest.raises(ValueError, match="unknown functional id"):
        FunctionalSpec("nope")
    with pytest.raises(ValueError, match="needs"):
        FunctionalSpec("exp_sum_zhat_plus")  # theta missing
    with pytest.raises(ValueError, match="needs"):
        FunctionalSpec("exp_zhat_plus_sq_trunc", theta=0.1)  # k missing


def test_sweep_exact_path():
    rows = sweep([ClassParams(1.0, 1.0, 1.0)], 1.0, [16.0], PREEMPTIVE,
                 [FunctionalSpec("z_total")], seed=0, estimator="exact")
    assert len(rows) == 1
    assert rows[0].method == "exact"
    assert rows[0].half_width == 0.0
    assert rows[0].estimate == pytest.approx(16.0, abs=1e-6)  # Poisson(16) mean


def test_sweep_theta_zero_rows_are_one():
    rows = sweep([ClassParams(1.0, 1.0, 1.0)], 1.0, [16.0, 25.0], PREEMPTIVE,
                 [FunctionalSpec("exp_sum_zhat_plus", theta=0.0),
                  FunctionalSpec("exp_sum_zhat_minus", theta=0.0)],
                 seed=0, estimator="exact")
    for row in rows:
        assert row.estimate == pytest.approx(1.0, abs=1e-12)


def test_sweep_simulation_path():
    rows = sweep([ClassParams(1.0, 1.0, 0.0)], 1.0, [4.0], FIFO,
                 [FunctionalSpec("z_total"), FunctionalSpec("psi_share")],
                 seed=3, n_batches=10, events_per_batch=4_000)
    assert {r.functional for r in rows} == {"z_total", "psi_share"}
    assert all(r.method == "batch_means" for r in rows)
    assert all(r.half_width > 0.0 for r in rows)


def test_sweep_rows_deterministic():
    kw = dict(seed=9, n_batches=10, events_per_batch=2_000)
    a = sweep([ClassParams(1.0, 1.0, 0.0)], 1.0, [4.0, 9.0], FIFO,
              [FunctionalSpec("z_total")], **kw)
    b = sweep([ClassParams(1.0, 1.0, 0.0)], 1.0, [4.0, 9.0], FIFO,
              [FunctionalSpec("z_total")], **kw)
    assert a == b


def test_fit_log_slope_recovers_power_law():
    pts = [(r, 2.0 * r ** 0.5, 1e-6) for r in (10, 100, 1000)]
    slope, se = fit_log_slope(pts)
    assert slope == pytest.approx(0.5, abs=1e-6)
    assert abs(slope) > 1.96 * se  # growth is detected


def test_no_growth_on_flat_noisy_points():
    rng = random.Random(23)
    pts = [(r, 1.05 * (1 + 0.002 * rng.gauss(0, 1)), 0.02) for r in (25, 100, 400)]
    slope, se = fit_log_slope(pts)
    assert abs(slope) <= 1.96 * se
