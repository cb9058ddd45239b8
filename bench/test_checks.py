"""Tests of the benchmark's own output checks and metric names.

Run with ``python3 -m pytest bench/test_checks.py``; needs no hwq import.
"""

import json
import re
from pathlib import Path

import pytest

import checks
from checks import Checker
from run import END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _banded_rows():
    rows = [
        {"method": "drift_identity", "n_states": "3655", "violations": "0",
         "residual_or_err": "0.0", "bound_or_slack": ""},
        {"method": "abandon_bounds", "n_states": "3655", "violations": "0",
         "residual_or_err": "", "bound_or_slack": "0.0"},
    ]
    rows += [{"method": "generator_identity", "n_states": "3655", "violations": "0",
              "residual_or_err": "1e-17", "bound_or_slack": "1e-08"}] * 2
    return rows


def _wide_rows():
    return [{"functional": fn, "estimate": repr(v)}
            for fn, v in checks.WIDE_REFERENCE.items()]


def _sweep_rows():
    return [{"r": repr(r), "functional": fn, "estimate": repr(est),
             "half_width": repr(hw)}
            for (r, fn), (est, hw) in checks.SWEEP_REFERENCE.items()]


def _infserver_rows():
    return [{"stream": str(s), "events": "200000", "ordering_checks": "200000",
             "violations": "0", "z_avg_0": "12.6", "z_avg_1": "12.7",
             "g_avg_0": "12.5", "g_avg_1": "12.45"} for s in range(4)]


def _monotone_rows():
    return [{"stream": str(s), "events": "200000", "ordering_checks": "200000",
             "violations": "0", "z_avg_0": "12.7", "z_avg_1": "12.5",
             "zprime_avg_0": "13.4", "zprime_avg_1": "12.5"} for s in range(4)]


CASES = {
    "exact_banded": (_banded_rows, checks.check_exact_banded),
    "exact_wide": (_wide_rows, checks.check_exact_wide),
    "sim_sweep": (_sweep_rows, checks.check_sweep),
    "infserver": (_infserver_rows, lambda c, r: checks.check_couple(c, r, "infserver")),
    "monotone": (_monotone_rows, lambda c, r: checks.check_couple(c, r, "monotone")),
}


def _fail_frac(case, rows, rc=0):
    chk = Checker()
    checks.check_command(chk, case, rc, rows, len(rows))
    CASES[case][1](chk, rows)
    return chk.fail_frac


@pytest.mark.parametrize("case", sorted(CASES))
def test_reference_outputs_pass(case):
    assert _fail_frac(case, CASES[case][0]()) == 0.0


@pytest.mark.parametrize("case", sorted(CASES))
def test_nonzero_exit_code_fails(case):
    assert _fail_frac(case, CASES[case][0](), rc=3) > 0.0


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_violation_fails(case):
    rows = [dict(r) for r in CASES[case][0]()]
    rows[0]["violations"] = "1"
    assert _fail_frac(case, rows) > 0.0


def test_wrong_n_states_fails():
    rows = _banded_rows()
    rows[0] = dict(rows[0], n_states="3654")
    assert _fail_frac("exact_banded", rows) > 0.0


def test_generator_identity_over_bound_fails():
    rows = _banded_rows()
    rows[-1] = dict(rows[-1], residual_or_err="2e-08")
    assert _fail_frac("exact_banded", rows) > 0.0


def test_infserver_g_avg_off_by_ten_percent_fails():
    rows = _infserver_rows()
    rows[2] = dict(rows[2], g_avg_1=repr(checks.INFSERVER_MEAN * 1.10))
    assert _fail_frac("infserver", rows) > 0.0


def test_monotone_order_broken_fails():
    rows = _monotone_rows()
    rows[1] = dict(rows[1], z_avg_0="13.5")
    assert _fail_frac("monotone", rows) > 0.0


def test_ordering_checks_short_of_events_fails():
    rows = _infserver_rows()
    rows[0] = dict(rows[0], ordering_checks="199999")
    assert _fail_frac("infserver", rows) > 0.0


def test_exact_wide_off_reference_fails():
    rows = _wide_rows()
    ref = checks.WIDE_REFERENCE["z_total"]
    rows[0] = dict(rows[0], estimate=repr(ref * (1 + 1e-5)))
    assert _fail_frac("exact_wide", rows) > 0.0


def test_sweep_far_from_reference_or_no_interval_fails():
    rows = _sweep_rows()
    est, hw = checks.SWEEP_REFERENCE[(400.0, "[exp_sum_zhat_plus,theta=0.1]")]
    far = [dict(r) for r in rows]
    far[4]["estimate"] = repr(est + 10 * hw)
    assert _fail_frac("sim_sweep", far) > 0.0
    flat = [dict(r) for r in rows]
    flat[0]["half_width"] = "0.0"
    assert _fail_frac("sim_sweep", flat) > 0.0


def test_missing_rows_fail():
    for case, (make, _) in CASES.items():
        chk = Checker()
        checks.check_command(chk, case, 0, make()[:-1], len(make()))
        assert chk.fail_frac > 0.0, case


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for group, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[group]}
        assert listed == declared, group
        for name in declared:
            assert NAME.fullmatch(name), name
