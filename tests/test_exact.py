import dataclasses
import json
import math
import os

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy import sparse

from helpers import (
    birth_death_mean,
    dense_stationary,
    erlang_a_stationary,
    mmn_stationary,
    poisson_pmf_ref,
    replay_generator,
)
from hwq.cli import main
from hwq.errors import (
    InsufficientMemory,
    NotConverged,
    Reducible,
    ThetaOutOfRange,
    TruncationTooSmall,
    Unsupported,
)
from hwq.model import ClassParams, build_config
from hwq.policy import FIFO, NONPREEMPTIVE, PREEMPTIVE
from hwq.exact import (
    _GTH_MAX_WORK,
    _KRYLOV_TOL_REL,
    _bicgstab_even,
    _check_key_range,
    _check_levels_fit,
    _gth_levels,
    abar_vector,
    build_generator,
    count_states,
    enumerate_states,
    expectation,
    negpart_square_bound,
    negpart_square_mgf,
    poisson_bound_scan,
    poisson_pmf,
    scaled_poisson_mgf,
    stationary,
)
from hwq.verify import default_truncation

MM2 = build_config([ClassParams(1.0, 1.0, 0.0)], 1.0, 1.0)  # N = 2
TWO_CLASS_AB = build_config(
    [ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 16.0, 1.0
)


def test_enumerate_single_class_count():
    idx = enumerate_states(MM2, PREEMPTIVE, 5)
    assert idx.n_states == 6  # z = 0..5


def test_enumerate_two_class_lattice_count():
    cfg = dataclasses.replace(TWO_CLASS_AB, n_servers=2)
    idx = enumerate_states(cfg, PREEMPTIVE, 2)
    assert idx.n_states == 6  # (0,0),(1,0),(0,1),(2,0),(1,1),(0,2)


def test_enumerate_nonpreemptive_pairs():
    cfg = dataclasses.replace(TWO_CLASS_AB, n_servers=1)
    idx = enumerate_states(cfg, NONPREEMPTIVE, 1)
    keys = {(tuple(idx.z[i]), tuple(idx.psi[i])) for i in range(idx.n_states)}
    assert keys == {
        ((0, 0), (0, 0)),
        ((1, 0), (1, 0)),
        ((0, 1), (0, 1)),
    }


def test_enumerate_rejects_fifo_and_small_K():
    with pytest.raises(Unsupported):
        enumerate_states(MM2, FIFO, 10)
    with pytest.raises(TruncationTooSmall):
        enumerate_states(MM2, PREEMPTIVE, 1)


def test_positions_round_trip_every_state():
    for cfg in (TWO_CLASS_AB, dataclasses.replace(TWO_CLASS_AB, n_servers=3)):
        for kind in (PREEMPTIVE, NONPREEMPTIVE):
            idx = enumerate_states(cfg, kind, 30)
            assert np.array_equal(idx.positions(idx.z, idx.psi), np.arange(idx.n_states))
            for i in range(idx.n_states):
                assert idx.positions(idx.z[i:i + 1], idx.psi[i:i + 1])[0] == i
            # one level above K
            assert idx.positions(np.array([[31, 0]]), np.array([[0, 0]]))[0] == -1


def test_state_key_range_refusal():
    # (K+2)^digits must fit int64: non-preemptive 2, 3 and 6 classes have
    # 4, 6 and 12 digits; 2 preemptive classes have 2
    for K, digits in ((55107, 4), (1447, 6), (37, 12)):
        _check_key_range(K - 1, digits)
        with pytest.raises(Unsupported, match="overflow"):
            _check_key_range(K, digits)
    _check_key_range(3_000_000_000, 2)


def test_band_memory_refusal():
    _check_levels_fit(np.arange(1, 86))  # the exact_banded levels, 3.3 MB
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    w = math.isqrt(phys // 8) + 1  # one level whose LU factor alone outgrows memory
    with pytest.raises(InsufficientMemory, match="physical memory"):
        _check_levels_fit([1, w])


_REPLAY_SYSTEMS = {
    "1 class": build_config([ClassParams(1.0, 1.0, 0.5)], 4.0, 1.0),
    "2 classes, nu_0 = 0": build_config(
        [ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 1.0)], 4.0, 1.0),
    "3 classes, nu_1 = 0": build_config(
        [ClassParams(0.2, 1.0, 0.3), ClassParams(0.6, 2.0, 0.0),
         ClassParams(0.25, 0.5, 0.4)], 1.0, 1.0),
}


@pytest.mark.parametrize("kind", [PREEMPTIVE, NONPREEMPTIVE])
@pytest.mark.parametrize("system", list(_REPLAY_SYSTEMS))
@pytest.mark.parametrize("K_of", ["N", "N+3", "default"])
def test_generator_matches_policy_replay(kind, system, K_of):
    """Every array of the assembled generator equals the one built by
    replaying the simulators' policy operations state by state."""
    cfg = _REPLAY_SYSTEMS[system]
    K = {"N": cfg.n_servers, "N+3": cfg.n_servers + 3,
         "default": default_truncation(cfg)}[K_of]
    idx = enumerate_states(cfg, kind, K)
    gen, oracle = build_generator(idx), replay_generator(idx)
    for field in ("src", "rate", "dst", "dst_z", "dst_psi", "boundary_mask",
                  "dropped_rate"):
        got, want = getattr(gen, field), getattr(oracle, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(gen.Q, field), getattr(oracle.Q, field)), field
    assert gen.max_exit_rate == oracle.max_exit_rate


def test_generator_is_mmn_birth_death():
    idx = enumerate_states(MM2, PREEMPTIVE, 30)
    gen = build_generator(idx)
    Q = gen.Q.toarray()
    for z in range(30):
        assert Q[z, z + 1] == pytest.approx(1.0)  # birth lam*r = 1
    for z in range(1, 31):
        assert Q[z, z - 1] == pytest.approx(min(z, 2))  # death mu*min(z,N)
    # row sums vanish exactly, boundary included
    assert np.abs(Q.sum(axis=1)).max() == 0.0


def test_generator_preemption_rates():
    # 2 classes, N=1, state (1,1): class-1 (high) is served, class-0 queued;
    # departures: high-class service at mu_1, low-class abandonment at nu_0
    cfg = dataclasses.replace(TWO_CLASS_AB, n_servers=1)
    idx = enumerate_states(cfg, PREEMPTIVE, 6)
    gen = build_generator(idx)
    i = idx.positions(np.array([[1, 1]]), None)[0]
    assert i >= 0
    lo, hi = np.searchsorted(gen.src, [i, i + 1])
    departures = {
        tuple(gen.dst_z[t]): gen.rate[t]
        for t in range(lo, hi)
        if gen.dst_z[t].sum() < 2
    }
    assert departures[(1, 0)] == pytest.approx(cfg.mus[1])  # service of class 1
    assert departures[(0, 1)] == pytest.approx(cfg.nus[0])  # abandonment of class 0


def test_stationary_mm2_closed_form():
    gen = build_generator(enumerate_states(MM2, PREEMPTIVE, 60))
    sv = stationary(gen)
    ez = expectation(sv.pi, gen.idx.z.sum(axis=1))
    assert abs(ez - 4.0 / 3.0) <= 1e-10
    # independent birth-death oracle agrees
    oracle = birth_death_mean(lambda n: 1.0, lambda n: min(n, 2), 60)
    assert ez == pytest.approx(oracle, abs=1e-12)


def test_stationary_poisson_at_nu_eq_mu():
    cfg = build_config([ClassParams(1.0, 1.0, 1.0)], 25.0, 1.0)
    K = math.ceil(25 + 12 * 5)
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K))
    sv = stationary(gen)
    pois = poisson_pmf(25.0, np.arange(K + 1))
    tv = 0.5 * (np.abs(sv.pi - pois).sum() + max(0.0, 1.0 - pois.sum()))
    assert tv <= 1e-8


def test_stationary_erlang_a_oracle():
    # independent-recursion oracle for a case with nu != mu, entry by entry
    # down to the far tail, which the solve reaches only through rate ratios
    cfg = build_config([ClassParams(1.0, 1.0, 0.5)], 16.0, 1.0)
    K = 120
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K))
    sv = stationary(gen)
    oracle = np.array(erlang_a_stationary(16.0, 1.0, 0.5, cfg.n_servers, K))
    assert sv.method == "gth" and oracle.min() < 1e-40
    assert (np.abs(sv.pi - oracle) / oracle).max() <= 1e-12


def test_gth_single_state():
    Q = sparse.csr_matrix((1, 1))
    assert _gth_levels(Q, np.zeros(1, dtype=np.int64)) == pytest.approx([1.0])


def _levels(gen):
    return gen.idx.z.sum(axis=1)


def test_gth_levels_level_marginal_is_one_class_law():
    # equal mu and equal nu: the total count is the one-class Erlang-A chain
    cfg = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(0.5, 1.0, 0.5)], 16.0, 1.0)
    K = 120
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K))
    marginal = np.bincount(_levels(gen), weights=_gth_levels(gen.Q, _levels(gen)))
    oracle = np.array(erlang_a_stationary(16.0, 1.0, 0.5, cfg.n_servers, K))
    assert (np.abs(marginal - oracle) / oracle).max() <= 1e-12


@pytest.mark.parametrize("Q, level", [
    # states 1 and 2 share level 1 and trade rates
    (np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]), np.array([0, 1, 1])),
    # state 0 jumps from level 0 straight to level 2
    (np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]), np.array([0, 1, 2])),
], ids=["same_level", "two_levels"])
def test_gth_levels_refuses_non_level_transitions(Q, level):
    with pytest.raises(Unsupported, match="moves"):
        _gth_levels(sparse.csr_matrix(Q), level)


THREE_CLASS_AB = build_config(
    [ClassParams(0.3, 1.0, 0.5), ClassParams(0.8, 2.0, 1.0), ClassParams(0.9, 3.0, 2.0)],
    4.0, 1.0)


TWO_CLASS_R9 = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 9.0, 1.0)


@pytest.mark.parametrize("kind", [PREEMPTIVE, NONPREEMPTIVE])
@pytest.mark.parametrize("cfg", [MM2, TWO_CLASS_R9, THREE_CLASS_AB],
                         ids=["one-class", "two-class", "three-class"])
def test_count_states_matches_enumeration(cfg, kind):
    for K in range(cfg.n_servers, cfg.n_servers + 15):
        assert count_states(cfg, kind, K) == enumerate_states(cfg, kind, K).n_states, K


def test_count_states_of_the_measured_chains():
    # the two benchmark chains (r = 16, K = 84) and two three-class chains at r = 9
    three = build_config(THREE_CLASS_AB.classes, 9.0, 1.0)
    for cfg, kind, K, n in [(TWO_CLASS_AB, PREEMPTIVE, 84, 3_655),
                            (TWO_CLASS_AB, NONPREEMPTIVE, 84, 45_255),
                            (three, NONPREEMPTIVE, 24, 41_769),
                            (three, NONPREEMPTIVE, 30, 121_394)]:
        assert count_states(cfg, kind, K) == n == enumerate_states(cfg, kind, K).n_states


def _assert_close(pi, oracle, tv_max, abs_max):
    if tv_max is not None:
        assert 0.5 * np.abs(oracle - pi).sum() <= tv_max
    if abs_max is not None:
        assert np.abs(oracle - pi).max() <= abs_max


@pytest.mark.parametrize("cfg, kind, K, tv_max, abs_max", [
    (TWO_CLASS_R9, PREEMPTIVE, 40, 1e-9, None),
    (TWO_CLASS_AB, PREEMPTIVE, 84, 1e-9, None),  # the exact_banded benchmark chain
    (THREE_CLASS_AB, NONPREEMPTIVE, 10, None, 1e-10),
    (TWO_CLASS_R9, NONPREEMPTIVE, 29, 1e-9, 1e-10),  # odd top level: odd states on it
    (TWO_CLASS_R9, NONPREEMPTIVE, 30, 1e-9, 1e-10),  # even top level
], ids=["r9_K40", "banded_r16_K84", "three_class_np", "r9_np_K29", "r9_np_K30"])
def test_gth_bicgstab_agreement(cfg, kind, K, tv_max, abs_max):
    gen = build_generator(enumerate_states(cfg, kind, K))
    pi_gth = _gth_levels(gen.Q, _levels(gen))
    pi_k, iterations = _bicgstab_even(gen.Q, _levels(gen), _KRYLOV_TOL_REL * gen.max_exit_rate)
    assert iterations > 0
    assert np.abs(gen.Q.T @ pi_k).max() <= _KRYLOV_TOL_REL * gen.max_exit_rate
    _assert_close(pi_k, pi_gth, tv_max, abs_max)


@pytest.mark.parametrize("K", [120, 121])
def test_bicgstab_even_erlang_a_oracle(K):
    # one state per level: the even levels form a birth-death chain of their own
    cfg = build_config([ClassParams(1.0, 1.0, 0.5)], 16.0, 1.0)
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K))
    pi, iterations = _bicgstab_even(gen.Q, _levels(gen), _KRYLOV_TOL_REL * gen.max_exit_rate)
    assert iterations > 0
    oracle = np.array(erlang_a_stationary(16.0, 1.0, 0.5, cfg.n_servers, K))
    _assert_close(pi, oracle, 1e-9, 1e-10)


@pytest.mark.parametrize("max_work", [0, _GTH_MAX_WORK], ids=["bicgstab", "gth"])
def test_stationary_refuses_two_level_jump(monkeypatch, max_work):
    # the empty state jumps straight to level 2; either solver must refuse it
    monkeypatch.setattr("hwq.exact._GTH_MAX_WORK", max_work)
    gen = build_generator(enumerate_states(TWO_CLASS_R9, NONPREEMPTIVE, 12))
    j = np.flatnonzero(_levels(gen) == 2)[0]
    Q = gen.Q.tolil()
    Q[0, j] = 1.0
    Q[0, 0] -= 1.0
    with pytest.raises(Unsupported, match=f"the transition 0 -> {j} moves 2 levels, not one"):
        stationary(dataclasses.replace(gen, Q=Q.tocsr()))


@pytest.mark.parametrize("kind, n_servers, K", [
    (PREEMPTIVE, 20, 30),  # the TWO_CLASS_AB server count
    (NONPREEMPTIVE, 3, 9),
])
def test_gth_band_matches_dense_oracle(kind, n_servers, K):
    cfg = dataclasses.replace(TWO_CLASS_AB, n_servers=n_servers)
    gen = build_generator(enumerate_states(cfg, kind, K))
    assert np.bincount(_levels(gen)).max() > 1
    oracle = dense_stationary(gen.Q.toarray())
    assert np.abs(_gth_levels(gen.Q, _levels(gen)) - oracle).max() <= 1e-14


def test_gth_levels_state_without_upward_rate():
    # the first, a middle and the last state of level 4 lose their arrivals;
    # their rows of the fill U_4 X must stay zero
    cfg = dataclasses.replace(TWO_CLASS_AB, n_servers=3)
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, 9))
    level = _levels(gen)
    mute = np.flatnonzero(level == 4)[[0, 2, -1]]
    Q = gen.Q.tolil()
    for i in mute:
        for j in np.flatnonzero(level == 5):
            Q[i, j] = 0.0
        Q[i, i] = 0.0
        Q[i, i] = -Q[i].sum()
    Q = Q.tocsr()
    Q.eliminate_zeros()
    assert all(Q[i, level == 5].nnz == 0 for i in mute)
    assert all(Q[i, level == 5].nnz > 0 for i in np.flatnonzero(level == 4)
               if i not in mute)
    oracle = dense_stationary(Q.toarray())
    assert np.abs(_gth_levels(Q, level) - oracle).max() <= 1e-14


def test_gth_band_reducible():
    # state 2, alone on level 2, cannot move down: its level block is singular
    Q = sparse.csr_matrix(np.array([[-1.0, 1.0, 0.0],
                                    [1.0, -2.0, 1.0],
                                    [0.0, 0.0, 0.0]]))
    with pytest.raises(Reducible, match="state 2"):
        _gth_levels(Q, np.arange(3))


def test_stationary_solver_follows_band_work():
    # the preemptive benchmark instance (n = 3655, w = 85) stays on GTH;
    # a non-preemptive chain with wide levels goes to BiCGSTAB
    cases = [(PREEMPTIVE, 84, "gth"), (NONPREEMPTIVE, 50, "bicgstab")]
    for kind, K, method in cases:
        gen = build_generator(enumerate_states(TWO_CLASS_AB, kind, K))
        w = int(np.bincount(_levels(gen)).max())
        work = gen.idx.n_states * w * w
        assert (work <= _GTH_MAX_WORK) == (method == "gth")
        sv = stationary(gen)
        assert sv.method == method and sv.level_width == w
        assert (sv.iterations > 0) == (method == "bicgstab")


def _wide_generator():
    """The wide non-preemptive chain above, which stationary hands to BiCGSTAB."""
    return build_generator(enumerate_states(TWO_CLASS_AB, NONPREEMPTIVE, 50))


def test_bicgstab_missing_contract_raises(tmp_path, capsys, monkeypatch):
    # scipy reports success (info 0) after 5 steps; the residual decides
    real = scipy.sparse.linalg.bicgstab
    monkeypatch.setattr(scipy.sparse.linalg, "bicgstab",
                        lambda A, b, **kw: (real(A, b, maxiter=5, M=kw["M"])[0], 0))
    with pytest.raises(NotConverged, match="bicgstab residual"):
        stationary(_wide_generator())
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({
        "schema_version": "hwq-config/1", "seed": 1, "policy": "nonpreemptive_priority",
        "system": {"classes": [{"lambda": 0.5, "mu": 1.0, "nu": 0.5},
                               {"lambda": 1.0, "mu": 2.0, "nu": 1.0}], "r": 16.0, "a": 1.0},
        "exact": {"K": 50, "functionals": [{"id": "z_total"}]},
    }))
    rc = main(["exact", "--config", str(cfg_file), "--out", str(tmp_path / "out"),
               "--jobs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bicgstab residual" in err and len(err.strip().splitlines()) == 1


def test_bicgstab_breakdown_with_true_solution_is_accepted(monkeypatch):
    gen = _wide_generator()
    expected = stationary(gen).pi
    # the solve runs on the even levels, pinned at the empty state
    x_true = expected[_levels(gen) % 2 == 0][1:] / expected[0]
    monkeypatch.setattr(scipy.sparse.linalg, "bicgstab",
                        lambda A, b, **kw: (x_true.copy(), -11))
    sv = stationary(gen)
    assert sv.method == "bicgstab" and sv.iterations == 0
    assert sv.residual <= _KRYLOV_TOL_REL * gen.max_exit_rate
    assert np.abs(sv.pi - expected).max() <= 1e-15


def test_nonpreemptive_solve_single_class_matches_mmn():
    # one class: non-preemptive and preemptive collapse to the same M/M/N chain
    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 4.0, 1.0)
    K = 70
    sv_np = stationary(build_generator(enumerate_states(cfg, NONPREEMPTIVE, K)))
    oracle = mmn_stationary(4.0, 1.0, cfg.n_servers, K)
    assert np.abs(sv_np.pi - np.array(oracle)).max() <= 1e-12


def test_reducible_detected():
    gen = build_generator(enumerate_states(MM2, PREEMPTIVE, 30))
    Q = gen.Q.tolil()
    Q[5] = 0.0  # absorbing row
    broken = dataclasses.replace(gen, Q=Q.tocsr())
    with pytest.raises(Reducible):
        stationary(broken)


def test_abar_constant_is_zero():
    gen = build_generator(enumerate_states(TWO_CLASS_AB, PREEMPTIVE, 40))
    out = abar_vector(gen, lambda Z, PSI, c: np.ones(Z.shape[0]))
    assert np.abs(out).max() == 0.0
    five = abar_vector(gen, lambda Z, PSI, c: np.full(Z.shape[0], 5.0))
    i = gen.idx.positions(np.array([[3, 2]]), None)[0]
    assert i >= 0 and five[i] == 0.0


def test_abar_apply_matches_hand_sum():
    # Abar phi_hat at an interior state of M/M/2: (lam - mu*min(z,N))/sqrt(r)
    gen = build_generator(enumerate_states(MM2, PREEMPTIVE, 30))

    def phi_hat(Z, PSI, cfg):
        return ((Z - np.asarray(cfg.rho_r)) / np.asarray(cfg.mus)).sum(axis=1)

    abar = abar_vector(gen, phi_hat)
    z = np.array([[0], [1], [2], [5]])
    rows = gen.idx.positions(z, np.minimum(z, 2))
    assert (rows >= 0).all()
    got = abar[rows]
    assert got == pytest.approx(1.0 - np.minimum(z[:, 0], 2), abs=1e-12)


def _abar_all_targets(gen, f_vec):
    """Abar F with F evaluated on every transition target."""
    cfg = gen.idx.cfg
    vals_src = np.asarray(f_vec(gen.idx.z, gen.idx.psi, cfg), dtype=float)
    vals_dst = np.asarray(f_vec(gen.dst_z, gen.dst_psi, cfg), dtype=float)
    return np.bincount(gen.src, weights=gen.rate * (vals_dst - vals_src[gen.src]),
                       minlength=gen.idx.n_states)


@pytest.mark.parametrize("kind, K", [(PREEMPTIVE, 84), (NONPREEMPTIVE, 30)])
def test_abar_matches_all_targets_oracle(kind, K):
    gen = build_generator(enumerate_states(TWO_CLASS_AB, kind, K))
    assert (gen.dst < 0).any()

    def phi(Z, PSI, c):
        return ((Z - np.asarray(c.rho_r)) / np.asarray(c.mus)).sum(axis=1) / c.sqrt_r

    functionals = (
        phi,
        lambda Z, PSI, c: np.exp(0.2 * np.minimum(phi(Z, PSI, c), 5.0)),
        lambda Z, PSI, c: np.exp(-0.2 * phi(Z, PSI, c)),
        lambda Z, PSI, c: (Z - PSI).sum(axis=1) ** 2.0,
    )
    for f in functionals:
        assert np.array_equal(abar_vector(gen, f), _abar_all_targets(gen, f))
    # a functional that is nonzero only above K sees the dropped arrivals alone
    above = abar_vector(gen, lambda Z, PSI, c: (Z.sum(axis=1) > K).astype(float))
    assert np.array_equal(above, np.where(gen.boundary_mask, gen.dropped_rate, 0.0))


def test_generator_identity_truncated_functional():
    gen = build_generator(enumerate_states(MM2, PREEMPTIVE, 60))
    sv = stationary(gen)
    resid = abs(float(sv.pi @ abar_vector(
        gen, lambda Z, PSI, c: np.minimum(Z.sum(axis=1), 3.0)
    )))
    assert resid <= 1e-9
    # identically-1 functional gives exactly zero
    assert abs(float(sv.pi @ abar_vector(gen, lambda Z, PSI, c: np.ones(Z.shape[0])))) == 0.0


def test_truncation_mass_control_on_acceptance_instances():
    # doubling the K-margin moves E[exp(theta*zhat^+)] by < 1e-8 (nu = mu cases)
    for r in (25.0, 100.0):
        cfg = build_config([ClassParams(1.0, 1.0, 1.0)], r, 1.0)
        vals = []
        for mult in (12, 24):
            K = math.ceil(r + mult * math.sqrt(r)) + cfg.n_servers
            gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K))
            sv = stationary(gen)
            zhat = (gen.idx.z.sum(axis=1) - cfg.rho_r_total) / cfg.sqrt_r
            vals.append(expectation(sv.pi, np.exp(0.5 * np.maximum(zhat, 0.0))))
        assert abs(vals[0] - vals[1]) < 1e-8


# --- Poisson closed forms ---------------------------------------------------


def test_poisson_pmf_value_and_normalization():
    assert poisson_pmf(4.0, 4) == pytest.approx(0.19536681, abs=1e-8)
    assert poisson_pmf(4.0, 4) == pytest.approx(poisson_pmf_ref(4.0, 4), rel=1e-12)
    for p in (4.0, 25.0, 100.0, 10_000.0):
        ns = np.arange(0, int(p + 12 * math.sqrt(p)) + 1)
        assert abs(poisson_pmf(p, ns).sum() - 1.0) <= 1e-12


def test_poisson_pmf_zero_below_zero():
    assert poisson_pmf(5.0, -1) == 0.0
    assert poisson_pmf(5.0, -7) == 0.0
    got = poisson_pmf(5.0, np.array([-1, 3, -2, 0]))
    assert got[0] == 0.0 and got[2] == 0.0
    assert got[1] == poisson_pmf(5.0, 3) and got[3] == poisson_pmf(5.0, 0)
    assert np.array_equal(poisson_pmf(5.0, np.array([-3, -1])), [0.0, 0.0])
    assert poisson_pmf(5.0, np.array([], dtype=np.int64)).shape == (0,)


def test_poisson_bound_scan_range():
    c100 = poisson_bound_scan(100.0)
    assert c100 <= 2.0
    # lower sanity: the mode term pmf(floor(p)) * sqrt(p) is ~ 1/sqrt(2 pi)
    assert c100 >= poisson_pmf(100.0, 100) * 10.0


def test_poisson_bound_scan_trend():
    cs = [poisson_bound_scan(p) for p in (50.0, 100.0, 1000.0, 10_000.0)]
    assert all(a >= b for a, b in zip(cs, cs[1:]))  # non-increasing
    assert all(c <= 2.0 for c in cs)
    # stabilizes near the Stirling value 1/sqrt(2 pi) ~ 0.3989
    assert cs[-1] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=0.01)


def test_scaled_poisson_mgf():
    assert scaled_poisson_mgf(0.0, 1.0, 100.0) == pytest.approx(1.0)
    expected = math.exp(-10.0 + 100.0 * (math.exp(0.1) - 1.0))
    assert scaled_poisson_mgf(1.0, 1.0, 100.0) == pytest.approx(expected, rel=1e-12)
    # approaches the Gaussian limit exp(theta^2 rho / 2) from above as r grows
    limit = math.exp(0.5)
    gaps = [abs(scaled_poisson_mgf(1.0, 1.0, r) - limit) for r in (100.0, 400.0, 1600.0)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_negpart_square_mgf():
    assert negpart_square_mgf(0.0, 50.0) == pytest.approx(1.0)
    with pytest.raises(ThetaOutOfRange):
        negpart_square_mgf(0.5, 50.0)
    for p in (50.0, 100.0, 1000.0):
        v = negpart_square_mgf(0.4, p)
        assert v <= negpart_square_bound(0.4, p)


def test_negpart_square_mgf_against_direct_sum():
    # independent direct summation with the reference pmf
    p, theta = 50.0, 0.3
    direct = sum(
        poisson_pmf_ref(p, n) * math.exp(theta * max(p - n, 0.0) ** 2 / p)
        for n in range(0, 300)
    )
    assert negpart_square_mgf(theta, p) == pytest.approx(direct, rel=1e-10)
