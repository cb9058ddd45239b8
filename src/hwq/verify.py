"""Numerical verification of drift formulas, Lyapunov bounds, and r-sweeps.

Everything here reduces to finite sums evaluated exactly, so the inequality
checks run with a slack tolerance of ``1e-12 * scale`` per state: both sides
are short sums and near-zero slack is meaningful.

The closed-form drift of the scaled workload ``phi_hat = sum_i z_hat_i/mu_i``
is

    (A_bar phi_hat)(x) = -min(z_hat_total, a_eff) - sum_i (nu_i/mu_i) q_hat_i,

an exact per-state identity (each departure of class i moves phi_hat by
exactly 1/(mu_i sqrt(r))).  With no abandonment this is -min(z_hat, a_eff),
and the exponential Lyapunov function satisfies, for theta <= 1,

    A_bar exp(theta phi_hat) <= exp(theta phi_hat) *
        [-theta * min(z_hat, a_eff) + theta^2/2 * c1],

with c1 = (sum_i lam_i + (1+a) mu_max) / mu_min^2 * exp(1/mu_min).  With all
abandonment rates positive the drift is bracketed by

    -z_hat_a - c25 * sum z_hat_i^+   <=  A_bar phi_hat
    A_bar phi_hat  <=  -z_hat_a - c1' phi_hat^+ + c2 sum z_hat_i^- + c3,

where c1' = nu_min*mu_min/mu_max, c2 = nu_min/mu_max, c3 = c2 * a_eff,
c25 = nu_max/mu_min.  The checks below scan every enumerated state and
count violations (expected: zero).

Each check takes the truncated generator, whose state index carries the
system and the policy, plus the check's own parameters, and returns a list
of :class:`CheckRow`: the rows ``hwq verify`` writes to ``verify.csv``.
Every command enumerates, builds and solves its chains in :func:`exact_chain`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HypothesisViolated, ThetaOutOfRange
from .exact import (
    SparseGenerator,
    StationaryVector,
    abar_vector,
    build_generator,
    count_states,
    enumerate_states,
    expectation,
    import_scipy,
    stationary,
)
from .model import SystemConfig, build_config, scale_arrays
from .policy import FIFO
from .simulate import (
    RngStream,
    batch_means_multi,
    default_warmup,
    fan_out,
    t975,
)

SLACK_TOL = 1e-12
_SWEEP_EXACT_MAX_STATES = 25_000  # an "auto" sweep solves exactly up to here


def default_truncation(cfg: SystemConfig) -> int:
    """Gaussian-scale tail margin: ceil(r + 12 sqrt(r)) plus the server count."""
    return math.ceil(cfg.r + 12.0 * math.sqrt(cfg.r)) + cfg.n_servers


def exact_chain(cfg: SystemConfig, kind: str, K: int | None, record: dict,
                solve: bool = True) -> tuple[SparseGenerator, StationaryVector | None]:
    """The generator of cfg's chain truncated at K (None: the default) and,
    if ``solve``, its stationary vector; a chain whose state index alone
    exceeds physical memory is refused before it is enumerated
    (:func:`hwq.exact.check_chain_fits`).  Each step's wall time goes to
    ``record["phases"]``, the chain's and the solver's counters to
    ``record["counters"]``; bench/spans.py wraps the calls by these names."""
    import_scipy()  # first, so that no phase times an import
    t0 = time.perf_counter()
    idx = enumerate_states(cfg, kind, K or default_truncation(cfg))
    t1 = time.perf_counter()
    gen = build_generator(idx)
    t2 = time.perf_counter()
    sv = stationary(gen) if solve else None
    phases = {"r": cfg.r, "enumerate_s": t1 - t0, "build_s": t2 - t1}
    held = (gen.Q.data, gen.Q.indices, gen.Q.indptr, gen.beyond_z, gen.beyond_psi)
    counters = {"r": cfg.r, "n_states": idx.n_states, "nnz": gen.Q.nnz,
                "generator_bytes": sum(a.nbytes for a in held)}
    if solve:
        phases["solve_s"] = time.perf_counter() - t2
        counters.update(level_width=sv.level_width, method=sv.method, iterations=sv.iterations,
                        residual=sv.residual, deficit=sv.deficit_estimate)
    record["phases"].append(phases)
    record["counters"].append(counters)
    return gen, sv


def drift_phi_arrays(Z: np.ndarray, PSI: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Closed-form (A_bar phi_hat)(x) per state row x; equals the transition sum exactly."""
    sa = scale_arrays(Z, PSI, cfg)
    ratio = np.asarray(cfg.nus) / np.asarray(cfg.mus)
    aband = ((Z - PSI) * ratio).sum(axis=1) / cfg.sqrt_r
    return -sa.z_hat_a - aband


def lyapunov_constant(cfg: SystemConfig) -> float:
    """c1 of the exponential-Lyapunov drift bound (valid for theta <= 1 and
    the systems ``bound_applies("lyapunov", cfg)`` accepts)."""
    return (
        (cfg.lam_total + (1.0 + cfg.a) * cfg.mu_max)
        / cfg.mu_min ** 2
        * math.exp(1.0 / cfg.mu_min)
    )


class CheckRow(NamedTuple):
    """One result of a verify check: the ``verify.csv`` columns after the
    provenance columns.  A column a check does not fill is None."""

    label: str
    n_states: int
    violations: int
    residual_or_err: float | None
    bound_or_slack: float | None


def _one_sided(label: str, value: np.ndarray, bound: np.ndarray) -> CheckRow:
    """The row of ``value <= bound`` scanned state by state, with the worst
    slack ``min(bound - value)`` (>= -tol when clean)."""
    slack = bound - value
    scale = np.maximum(1.0, np.maximum(np.abs(value), np.abs(bound)))
    violations = int((slack < -SLACK_TOL * scale).sum())
    return CheckRow(label, value.size, violations, None, float(slack.min()))


def _phi_hat(Z, PSI, cfg):
    return scale_arrays(Z, PSI, cfg).phi_hat


def drift_identity_check(gen: SparseGenerator, moves=None) -> list[CheckRow]:
    """Compare the transition-sum drift of phi_hat with the closed form.

    Both are finite sums of the same terms, so they must agree to rounding
    at every state (the operator is evaluated without truncation).  One
    row, ``phi_hat``: the states beyond 1e-12 relative (floored) error and
    the largest such error.  ``moves``, here and in the other checks, is
    ``off_diagonal(gen.Q)`` if already selected (see :func:`abar_vector`).
    """
    abar = abar_vector(gen, _phi_hat, moves)
    closed = drift_phi_arrays(gen.idx.z, gen.idx.psi, gen.idx.cfg)
    scale = np.maximum(1.0, np.maximum(np.abs(abar), np.abs(closed)))
    rel = np.abs(abar - closed) / scale
    return [CheckRow("phi_hat", gen.idx.n_states, int((rel > 1e-12).sum()),
                     float(rel.max()), None)]


# the system each bound is stated for, as bound_applies tests it
BOUND_HYPOTHESES = {"lyapunov": "nu = 0 in every class and n_servers <= r*(1+a)",
                    "abandon_bounds": "nu > 0 in every class"}


def bound_applies(check: str, cfg: SystemConfig, theta: float = 0.0) -> bool:
    """Whether the bound a verify check scans is stated for cfg and theta.

    The lyapunov constant's ``(1+a)`` factor caps ``n_servers/r``, which the
    rounding up of ``n_servers`` breaks only at small r.
    """
    return {"lyapunov": (cfg.nu_max == 0.0 and cfg.n_servers <= cfg.r * (1.0 + cfg.a)
                         and 0.0 <= theta <= 1.0),
            "abandon_bounds": cfg.nu_min > 0.0}.get(check, True)


def lyapunov_pointwise_check(gen: SparseGenerator, theta: float,
                             moves=None) -> list[CheckRow]:
    """Exhaustive scan of the exponential-Lyapunov drift bound (nu == 0).

    One row, ``lyapunov(theta=...)``, with the worst slack.  Raises
    HypothesisViolated unless the generator's system meets the bound's
    hypotheses, and ThetaOutOfRange unless 0 <= theta <= 1.
    """
    cfg = gen.idx.cfg
    if not bound_applies("lyapunov", cfg):
        raise HypothesisViolated(
            f"the exponential drift bound is stated for {BOUND_HYPOTHESES['lyapunov']}")
    if not bound_applies("lyapunov", cfg, theta):
        raise ThetaOutOfRange(f"bound proved for theta in [0, 1], got {theta}")
    c1 = lyapunov_constant(cfg)
    sa = scale_arrays(gen.idx.z, gen.idx.psi, cfg)
    lhs = abar_vector(gen, lambda Z, PSI, c: np.exp(theta * _phi_hat(Z, PSI, c)), moves)
    rhs = np.exp(theta * sa.phi_hat) * (-theta * sa.z_hat_a + 0.5 * theta * theta * c1)
    return [_one_sided(f"lyapunov(theta={theta})", lhs, rhs)]


def drift_bounds_abandon_check(gen: SparseGenerator, moves=None) -> list[CheckRow]:
    """Exhaustive two-sided drift bounds for systems with abandonment.

    Two rows, ``abandon_upper`` and ``abandon_lower``, each with its worst
    slack.  Raises HypothesisViolated unless every abandonment rate of the
    generator's system is positive.
    """
    cfg = gen.idx.cfg
    if not bound_applies("abandon_bounds", cfg):
        raise HypothesisViolated(
            f"abandonment drift bounds are stated for {BOUND_HYPOTHESES['abandon_bounds']}")
    sa = scale_arrays(gen.idx.z, gen.idx.psi, cfg)
    abar_phi = abar_vector(gen, _phi_hat, moves)
    c1 = cfg.nu_min * cfg.mu_min / cfg.mu_max
    c2 = cfg.nu_min / cfg.mu_max
    c3 = c2 * cfg.a_eff
    c25 = cfg.nu_max / cfg.mu_min
    phi_plus = np.maximum(sa.phi_hat, 0.0)
    upper_bound = -sa.z_hat_a - c1 * phi_plus + c2 * sa.sum_z_hat_minus + c3
    lower_bound = -sa.z_hat_a - c25 * sa.sum_z_hat_plus
    return [_one_sided("abandon_upper", abar_phi, upper_bound),
            # flip signs to reuse the one-sided scan: lower <= value
            _one_sided("abandon_lower", -abar_phi, -lower_bound)]


def generator_identity_check(gen: SparseGenerator, sv: StationaryVector,
                             theta: float = 0.2, k: float = 5.0,
                             moves=None) -> list[CheckRow]:
    """|E_pi[A_bar F]| for exponential test functions of the scaled workload,
    with pi the solved stationary vector ``sv`` of ``gen``.

    F runs over exp(theta*phi_hat_(k)), exp(-theta*phi_hat), and
    exp(theta*phi_hat_(k)^2) with phi_hat_(k) = min(phi_hat, k), one row
    each.  Stationarity makes each expectation zero; a row's residual must
    stay within its bound, 1e-8 plus the truncation deficit, and a row
    whose residual does not (NaN included) counts one violation.
    """
    bound = 1e-8 + sv.deficit_estimate
    fs = (
        (f"exp({theta}*min(phi,{k}))",
         lambda Z, PSI, c: np.exp(theta * np.minimum(_phi_hat(Z, PSI, c), k))),
        (f"exp(-{theta}*phi)",
         lambda Z, PSI, c: np.exp(-theta * _phi_hat(Z, PSI, c))),
        (f"exp({theta}*min(phi,{k})^2)",
         lambda Z, PSI, c: np.exp(theta * np.minimum(_phi_hat(Z, PSI, c), k) ** 2)),
    )
    rows = []
    for label, f in fs:
        residual = abs(float(sv.pi @ abar_vector(gen, f, moves)))
        rows.append(CheckRow(label, gen.idx.n_states, int(not residual <= bound),
                             residual, bound))
    return rows


# ---------------------------------------------------------------------------
# Steady-state functionals shared by the exact and simulation paths


_SPEC_PARAMS = {
    "exp_sum_zhat_plus": ("theta",),
    "exp_sum_zhat_minus": ("theta",),
    "exp_zhat_plus_sq_trunc": ("theta", "k"),
    "qhat_tail": ("x",),
    "z_total": (),
    "psi_share": (),
}


@dataclass(frozen=True)
class FunctionalSpec:
    """A steady-state functional identified by id plus parameters.

    With ``z_hat_i = (z_i - rho_i*r)/sqrt(r)``, ``z_hat = sum_i z_hat_i``,
    ``phi_hat = sum_i z_hat_i/mu_i`` and ``q_hat = sum_i (z_i - psi_i)/sqrt(r)``,
    the ids are:

    * ``exp_sum_zhat_plus`` (theta): ``exp(theta * sum_i max(z_hat_i, 0))``;
    * ``exp_sum_zhat_minus`` (theta): ``exp(theta * sum_i max(-z_hat_i, 0))``;
    * ``exp_zhat_plus_sq_trunc`` (theta, k): ``exp(theta * max(z_hat, 0)**2)``
      where ``phi_hat <= k``, and exactly 0 where ``phi_hat > k``;
    * ``qhat_tail`` (x): 1 where ``q_hat >= x``, else 0;
    * ``z_total``: ``sum_i z_i``;
    * ``psi_share``: ``sum_i psi_i / n_servers``.

    :meth:`vector` is the one implementation of each.
    """

    fid: str
    theta: float | None = None
    k: float | None = None
    x: float | None = None

    def __post_init__(self):
        if self.fid not in _SPEC_PARAMS:
            raise ValueError(
                f"unknown functional id {self.fid!r}; valid: {sorted(_SPEC_PARAMS)}"
            )
        missing = [p for p in _SPEC_PARAMS[self.fid] if getattr(self, p) is None]
        if missing:
            raise ValueError(f"functional {self.fid!r} needs {missing}")

    def label(self) -> str:
        parts = [self.fid]
        for name in ("theta", "k", "x"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v:g}")
        return "[" + ",".join(parts) + "]" if len(parts) > 1 else self.fid

    def vector(self, cfg: SystemConfig):
        """The functional as ``f(Z, PSI, cfg)``: one float per row of the
        int64 count arrays ``Z`` and ``PSI`` (n_states, n_classes).

        The one form of each functional: the exact path applies it to the
        enumerated states, and the estimators of :mod:`hwq.simulate` to the
        states a batch or group of regenerative cycles visited.
        """
        theta, k, x = self.theta, self.k, self.x
        if self.fid == "exp_sum_zhat_plus":
            return lambda Z, PSI, c: np.exp(
                theta * scale_arrays(Z, PSI, c).sum_z_hat_plus
            )
        if self.fid == "exp_sum_zhat_minus":
            return lambda Z, PSI, c: np.exp(
                theta * scale_arrays(Z, PSI, c).sum_z_hat_minus
            )
        if self.fid == "exp_zhat_plus_sq_trunc":
            def f(Z, PSI, c):
                sa = scale_arrays(Z, PSI, c)
                zp = np.maximum(sa.z_hat_total, 0.0)
                # exp(-inf) makes a truncated state exactly 0, even where
                # theta*zp^2 would overflow
                return np.exp(np.where(sa.phi_hat <= k, theta * zp * zp, -np.inf))
            return f
        if self.fid == "qhat_tail":
            return lambda Z, PSI, c: (scale_arrays(Z, PSI, c).q_hat >= x).astype(float)
        if self.fid == "z_total":
            return lambda Z, PSI, c: Z.sum(axis=1).astype(float)
        return lambda Z, PSI, c: PSI.sum(axis=1) / c.n_servers  # psi_share

    # bench/micro.py and tests/test_bench_contract.py call this old name of
    # vector; ROADMAP item 3 moves them off it and deletes it
    scalar = vector


@dataclass(frozen=True)
class SweepRow:
    r: float
    theta: float | None
    functional: str
    estimate: float
    half_width: float
    method: str


def sweep(classes, a: float, r_list, kind: str, specs, seed: int,
          estimator: str = "auto", K: int | None = None,
          n_batches: int = 20, events_per_batch: int = 50_000,
          warmup_events: int | None = None, jobs: int = 1,
          record: dict | None = None) -> list[SweepRow]:
    """One row per (r, functional): exact values where the chain is solvable,
    batch-means estimates otherwise.

    ``estimator`` is "auto", "exact", or "batch_means"; "auto" solves a
    point exactly if :func:`count_states` finds at most
    ``_SWEEP_EXACT_MAX_STATES`` states, before any chain is enumerated.
    Replication k of the sweep uses stream (seed, k) where k is the position
    of r in ``r_list``, so rows are reproducible independent of execution
    order.  The r points run on up to ``jobs`` worker processes (see
    :func:`fan_out`, which also fills ``record``), handed out from the
    largest r down, since a point's cost grows with r; the rows,
    ``record``'s ``unit_wall_s`` and each point's phases and counters (see
    :func:`_sweep_point`) come back in ``r_list`` order.
    """
    if estimator == "exact" and kind == FIFO:
        raise ValueError("no exact solve for FIFO; use batch_means")
    specs = tuple(specs)
    cfgs = [build_config(classes, r, a) for r in r_list]
    methods = [estimator if estimator != "auto"
               else "exact" if kind != FIFO and count_states(
                   sc, kind, K or default_truncation(sc)) <= _SWEEP_EXACT_MAX_STATES
               else "batch_means" for sc in cfgs]
    points = [(sc, kind, specs, RngStream(seed, pos), method, K, n_batches,
               events_per_batch, warmup_events)
              for pos, (sc, method) in enumerate(zip(cfgs, methods))]
    # import here what the points import, so forked workers inherit it; the
    # batch-means t quantile is computed here too, and they inherit its cache
    if "batch_means" in methods:
        t975(n_batches - 1)
    if "exact" in methods:
        import_scipy()
    # the largest r first: a point's cost grows with r, and the other
    # workers take the cheaper points meanwhile
    order = sorted(range(len(points)), key=lambda j: cfgs[j].r, reverse=True)
    ran = fan_out(_sweep_point, [points[j] for j in order], jobs, record)
    back = sorted(range(len(order)), key=order.__getitem__)  # r_list position -> run position
    results = [ran[j] for j in back]
    if record is not None:
        record["unit_wall_s"] = [record["unit_wall_s"][j] for j in back]
        for key in ("phases", "counters"):
            record.setdefault(key, []).extend(e for _, entries in results for e in entries[key])
    return [row for rows, _ in results for row in rows]


def _sweep_point(cfg: SystemConfig, kind: str, specs, rng: RngStream, method: str,
                 K, n_batches: int, events_per_batch: int, warmup_events):
    """The rows of one sweep point by ``method``, "exact" or "batch_means",
    and its manifest entries: those :func:`exact_chain` makes, or for batch
    means the phase ``{r, estimate_s}`` and the counters ``{r, method,
    events, states, kev_per_s}``, where ``events`` counts the warm-up too
    and ``states`` the distinct states the kernel cached; a module-level
    function, so a worker process can run it."""
    entries = {"phases": [], "counters": []}
    if method == "exact":
        gen, sv = exact_chain(cfg, kind, K, entries)
        return [SweepRow(r=cfg.r, theta=spec.theta, functional=spec.label(),
                         estimate=expectation(sv.pi, spec.vector(cfg)(
                             gen.idx.z, gen.idx.psi, cfg)),
                         half_width=0.0, method="exact")
                for spec in specs], entries
    warm = default_warmup(cfg) if warmup_events is None else warmup_events
    fns = {spec.label(): spec.vector(cfg) for spec in specs}
    run = {}
    started = time.perf_counter()
    ests = batch_means_multi(cfg, kind, fns, n_batches, events_per_batch, warm, rng, run)
    estimate_s = time.perf_counter() - started
    events = warm + n_batches * events_per_batch
    entries["phases"].append({"r": cfg.r, "estimate_s": estimate_s})
    entries["counters"].append({"r": cfg.r, "method": "batch_means", "events": events,
                                "states": run["states"],
                                "kev_per_s": events / estimate_s / 1e3})
    return [SweepRow(r=cfg.r, theta=spec.theta, functional=spec.label(),
                     estimate=ests[spec.label()].value,
                     half_width=ests[spec.label()].half_width, method="batch_means")
            for spec in specs], entries


def fit_log_slope(points) -> tuple[float, float]:
    """Weighted LS slope of log(estimate) against log(r).

    ``points`` is an iterable of (r, estimate, half_width).  Returns
    (slope, standard_error); the no-growth rendering of a tightness claim is
    |slope| <= 1.96 * se.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two sweep points for a slope")
    xs = np.array([math.log(p[0]) for p in pts])
    ys = np.array([math.log(p[1]) for p in pts])
    sigma = np.array([max(p[2] / (1.96 * p[1]), 1e-12) for p in pts])
    w = 1.0 / sigma ** 2
    xbar = (w * xs).sum() / w.sum()
    sxx = (w * (xs - xbar) ** 2).sum()
    slope = (w * (xs - xbar) * ys).sum() / sxx
    return float(slope), float(1.0 / math.sqrt(sxx))
