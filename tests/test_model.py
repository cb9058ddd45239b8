import numpy as np
import pytest

from helpers import validate_macro_state
from hwq.errors import InvalidRate, NonUnitLoad
from hwq.model import (
    ClassParams,
    MacroState,
    build_config,
    nominal_utilization,
    scale_arrays,
)

ONE_CLASS = [ClassParams(1.0, 1.0, 0.0)]
TWO_CLASS = [ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)]


def test_server_count_integer_case():
    cfg = build_config(ONE_CLASS, 100.0, 1.0)
    assert cfg.n_servers == 110
    assert cfg.a_eff == pytest.approx(1.0)


def test_server_count_ceiling_case():
    cfg = build_config(ONE_CLASS, 2.0, 0.5)
    # 2 + 0.5*sqrt(2) = 2.7071... -> 3
    assert cfg.n_servers == 3


def test_two_class_load_accepted():
    cfg = build_config(TWO_CLASS, 16.0, 1.0)
    assert cfg.rho == (0.5, 0.5)


def test_non_unit_load_rejected():
    with pytest.raises(NonUnitLoad):
        build_config([ClassParams(0.9, 1.0, 0.0)], 16.0, 1.0)


@pytest.mark.parametrize("bad", [
    ClassParams(0.0, 1.0, 0.0),
    ClassParams(1.0, 0.0, 0.0),
    ClassParams(1.0, 1.0, -0.5),
    ClassParams(1.0, 1.0, float("nan")),
])
def test_invalid_rates_rejected(bad):
    with pytest.raises(InvalidRate):
        build_config([bad], 16.0, 1.0)


def test_invalid_scale_and_capacity():
    with pytest.raises(InvalidRate):
        build_config(ONE_CLASS, 0.5, 1.0)
    with pytest.raises(InvalidRate):
        build_config(ONE_CLASS, 16.0, 0.0)
    with pytest.raises(InvalidRate):
        build_config(ONE_CLASS, float("nan"), 1.0)
    with pytest.raises(InvalidRate):
        build_config(ONE_CLASS, 16.0, float("inf"))


def test_nominal_utilization_values():
    assert nominal_utilization(build_config(ONE_CLASS, 100.0, 1.0)) == pytest.approx(10 / 11)
    assert nominal_utilization(build_config(ONE_CLASS, 10_000.0, 2.0)) == pytest.approx(1 - 2 / 102)


def test_utilization_below_one():
    for r in (1.0, 2.0, 7.0, 50.0, 123.0):
        for a in (0.1, 0.5, 1.0, 3.0):
            assert nominal_utilization(build_config(ONE_CLASS, r, a)) < 1.0


def scale_row(z, psi, cfg):
    """scale_arrays on the one-row arrays of a single state."""
    return scale_arrays(np.array([z]), np.array([psi]), cfg)


def test_scale_state_single_class():
    cfg = build_config(ONE_CLASS, 100.0, 1.0)
    sc = scale_row((110,), (110,), cfg)
    assert tuple(sc.z_hat[0]) == (1.0,)
    assert sc.z_hat_a[0] == 1.0  # min(1, a_eff=1)


def test_scale_state_centering():
    cfg = build_config(TWO_CLASS, 100.0, 1.0)
    sc = scale_row((50, 50), (50, 50), cfg)
    assert tuple(sc.z_hat[0]) == (0.0, 0.0)
    assert sc.phi_hat[0] == 0.0


def test_scale_state_two_class_hand_value():
    # mu=(1,2), rho=(.5,.5), r=100, Z=(60,50): z_hat=(1,0), phi_hat=1
    cfg = build_config(TWO_CLASS, 100.0, 1.0)
    sc = scale_row((60, 50), (60, 50), cfg)
    assert tuple(sc.z_hat[0]) == pytest.approx((1.0, 0.0))
    assert sc.phi_hat[0] == pytest.approx(1.0)


def test_scale_state_affine_shift():
    cfg = build_config(TWO_CLASS, 50.0, 1.0)
    base = scale_row((30, 20), (30, 20), cfg)
    for ell in range(2):
        z = [30, 20]
        z[ell] += 1
        shifted = scale_row(z, (30, 20), cfg)
        for i in range(2):
            expected = 1.0 / cfg.sqrt_r if i == ell else 0.0
            assert shifted.z_hat[0, i] - base.z_hat[0, i] == pytest.approx(expected, abs=1e-12)
        assert shifted.phi_hat[0] - base.phi_hat[0] == pytest.approx(
            1.0 / (cfg.mus[ell] * cfg.sqrt_r), abs=1e-12
        )


def test_qhat_below_zhat_plus():
    # q_hat <= max(z_hat_total, 0) pointwise since N >= r
    cfg = build_config(TWO_CLASS, 50.0, 1.0)
    n = cfg.n_servers
    for total_z in (0, 30, 50, n, n + 5, n + 40):
        z1 = min(total_z, 20)
        z = (total_z - z1, z1)
        psi_total = min(n, total_z)
        p1 = min(z1, psi_total)
        psi = (psi_total - p1, p1)
        if any(p > zi for p, zi in zip(psi, z)):
            continue
        sc = scale_row(z, psi, cfg)
        assert sc.q_hat[0] <= max(sc.z_hat_total[0], 0.0) + 1e-12


def test_validate_macro_state_ok():
    cfg = build_config(TWO_CLASS, 16.0, 1.0)  # N = 20
    assert validate_macro_state(MacroState(z=(3, 0), psi=(3, 0)), cfg) == []


def test_validate_macro_state_violations():
    cfg = build_config(TWO_CLASS, 16.0, 1.0)
    idle = validate_macro_state(MacroState(z=(3, 0), psi=(2, 0)), cfg)
    assert any("non-idling" in v for v in idle)
    over = validate_macro_state(MacroState(z=(1, 1), psi=(2, 0)), cfg)
    assert any("psi[0]" in v for v in over)
    neg = validate_macro_state(MacroState(z=(-1, 2), psi=(-1, 2)), cfg)
    assert any("< 0" in v for v in neg)
