"""Output checks for the benchmark workloads.

Every check is counted as one attempt; ``fail_frac`` is failed / attempted.
Each threshold below carries the reason it has that value, fixed before any
benchmark run, so a later change to the package cannot pass by luck of a
seed and a correct change is not refused for sampling noise.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# exact_banded: two classes, r=16, default truncation K=84 -> 85*86/2 states.
BANDED_N_STATES = 3655

# exact_wide estimates at commit 003e908 (power iteration, residual
# 1.3e-11).  Stopping power iteration right at the residual contract
# max|pi Q| <= 1e-10 * max rate (residual 1.46e-8, max rate 151) moves these
# by at most 2.6e-7 * max(1, |ref|), so any solver meeting the contract lands
# within WIDE_REL_TOL = 1e-6 * max(1, |ref|), about four times that margin.
WIDE_REFERENCE = {
    "z_total": 16.25130425320976,
    "[exp_sum_zhat_plus,theta=0.2]": 1.1410051931576743,
    "[qhat_tail,x=0.5]": 0.11136110286988103,
}
WIDE_REL_TOL = 1e-6

# sim_sweep batch-means estimates at commit 003e908, config seed 20250810:
# (r, functional) -> (estimate, 95% half-width).  Another seed, or a kernel
# that changes sample paths, gives an independent estimate; the two must
# agree within SWEEP_K combined half-widths sqrt(hw_ref^2 + hw^2).  With 19
# batch-means degrees of freedom one combined half-width is about 2.1
# standard errors of the difference, so 4 of them leave room for batch
# correlation that the 95% interval does not capture.
SWEEP_REFERENCE = {
    (25.0, "[exp_sum_zhat_plus,theta=0.1]"): (1.08941106908549, 0.0071553283528460595),
    (25.0, "[exp_sum_zhat_minus,theta=0.1]"): (1.055491514565562, 0.0018833734761131615),
    (100.0, "[exp_sum_zhat_plus,theta=0.1]"): (1.0901146897578076, 0.017251461392597114),
    (100.0, "[exp_sum_zhat_minus,theta=0.1]"): (1.0545222814310635, 0.004619080150548932),
    (400.0, "[exp_sum_zhat_plus,theta=0.1]"): (1.0742819115077766, 0.014376343046652428),
    (400.0, "[exp_sum_zhat_minus,theta=0.1]"): (1.0583595333183635, 0.007368280273940188),
}
SWEEP_K = 4.0

# couple, infserver: G_i is exactly M/M/inf with mean lambda_i*r/mu_i = 12.5
# for both classes.  Over ~2400 time units (190k events) the time average has
# standard deviation about sqrt(2*12.5/(mu_i*T)) <= 0.10, so a 5% tolerance
# (0.625) is over six standard deviations and still catches a 10% bias.
INFSERVER_MEAN = 12.5
INFSERVER_REL_TOL = 0.05


class Checker:
    """Counts attempted checks and records the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def read_rows(path: Path) -> list[dict]:
    """CSV rows as dicts, or [] when the file is missing."""
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except FileNotFoundError:
        return []


def _float(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return math.nan


def check_command(chk: Checker, name: str, rc: int, rows: list[dict],
                  n_rows: int) -> None:
    """Exit code 0, the expected row count, and zero violations per row."""
    chk.check(f"{name}.exit_code", rc == 0, f"exit code {rc}")
    chk.check(f"{name}.rows", len(rows) == n_rows,
              f"{len(rows)} rows, expected {n_rows}")
    for i, row in enumerate(rows):
        if "violations" in row:
            chk.check(f"{name}.row{i}.violations", row["violations"] == "0",
                      f"violations = {row['violations']}")


def check_exact_banded(chk: Checker, rows: list[dict]) -> None:
    for i, row in enumerate(rows):
        chk.check(f"verify.row{i}.n_states", row.get("n_states") == str(BANDED_N_STATES),
                  f"n_states = {row.get('n_states')}, expected {BANDED_N_STATES}")
        if row.get("method") == "generator_identity":
            res = _float(row, "residual_or_err")
            bound = _float(row, "bound_or_slack")
            chk.check(f"verify.row{i}.generator_identity", res <= bound,
                      f"residual {res} > bound {bound}")


def check_exact_wide(chk: Checker, rows: list[dict]) -> None:
    seen = set()
    for row in rows:
        fn = row.get("functional")
        seen.add(fn)
        ref = WIDE_REFERENCE.get(fn)
        if ref is None:
            chk.check(f"exact.{fn}", False, "unexpected functional")
            continue
        est = _float(row, "estimate")
        tol = WIDE_REL_TOL * max(1.0, abs(ref))
        chk.check(f"exact.{fn}", abs(est - ref) <= tol,
                  f"estimate {est} vs reference {ref} (tol {tol:g})")
    chk.check("exact.functionals", seen == set(WIDE_REFERENCE),
              f"functionals {sorted(map(str, seen))}")


def check_sweep(chk: Checker, rows: list[dict]) -> None:
    seen = set()
    for row in rows:
        key = (_float(row, "r"), row.get("functional"))
        seen.add(key)
        est = _float(row, "estimate")
        hw = _float(row, "half_width")
        name = f"sweep.r{key[0]:g}.{key[1]}"
        if not chk.check(f"{name}.finite", math.isfinite(est) and hw > 0.0,
                         f"estimate {est}, half_width {hw}"):
            continue
        ref = SWEEP_REFERENCE.get(key)
        if ref is None:
            chk.check(name, False, "no reference row")
            continue
        combined = math.hypot(ref[1], hw)
        chk.check(name, abs(est - ref[0]) <= SWEEP_K * combined,
                  f"estimate {est} vs reference {ref[0]}: "
                  f"{abs(est - ref[0]) / combined:.2f} combined half-widths > {SWEEP_K}")
    chk.check("sweep.points", seen == set(SWEEP_REFERENCE),
              f"{len(seen)} distinct (r, functional) rows")


def _per_class(row: dict, prefix: str) -> list[float]:
    out = []
    i = 0
    while f"{prefix}_{i}" in row:
        out.append(_float(row, f"{prefix}_{i}"))
        i += 1
    return out


def check_couple(chk: Checker, rows: list[dict], coupling: str) -> None:
    """Ordering checks equal events; per-class time-average orderings."""
    for row in rows:
        name = f"couple.{coupling}.stream{row.get('stream')}"
        chk.check(f"{name}.ordering_checks",
                  row.get("ordering_checks") == row.get("events"),
                  f"{row.get('ordering_checks')} checks for {row.get('events')} events")
        z = _per_class(row, "z_avg")
        if coupling == "infserver":
            g = _per_class(row, "g_avg")
            for i, (zi, gi) in enumerate(zip(z, g)):
                chk.check(f"{name}.g_avg_{i}",
                          abs(gi - INFSERVER_MEAN) <= INFSERVER_REL_TOL * INFSERVER_MEAN,
                          f"g_avg {gi} vs M/M/inf mean {INFSERVER_MEAN}")
                chk.check(f"{name}.z_ge_g_{i}", zi >= gi, f"z_avg {zi} < g_avg {gi}")
            chk.check(f"{name}.classes", len(z) == len(g) > 0, "missing columns")
        else:
            zp = _per_class(row, "zprime_avg")
            for i, (zi, zpi) in enumerate(zip(z, zp)):
                chk.check(f"{name}.z_le_zprime_{i}", zi <= zpi,
                          f"z_avg {zi} > zprime_avg {zpi}")
            chk.check(f"{name}.classes", len(z) == len(zp) > 0, "missing columns")
