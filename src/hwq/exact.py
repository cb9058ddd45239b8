"""Truncated generators, stationary solves, and Poisson closed forms.

The detailed chains of the two priority policies have finitely many states
per population level, so the state space truncated at ``sum(z) <= K`` can be
enumerated outright: preemptive priority needs only the count vector z (the
allocation is a function of z), non-preemptive priority needs (z, psi)
pairs.  FIFO's sequence-valued chain is not finitely parameterized per level
in a tractable way and is excluded.

Truncation drops arrival transitions out of the top level, which keeps row
sums at zero and yields a proper chain; the neglected stationary mass is
bounded by a geometric argument and reported.  The operator application
``abar_vector`` does NOT truncate: it evaluates the test function once per
enumerated state and once more at each target beyond K, so pointwise drift
identities are exact at every indexed state, boundary included.

Stationary solves: every transition moves one population level, and both
solvers censor levels out exactly.  Block GTH censors the top level out one
at a time, each level block factored by LAPACK, at a fixed cost of about
16 us per level.  Where the levels are wide, the odd levels are censored out
at once (an odd-level state jumps only to even levels, so no factoring is
needed) and Jacobi-preconditioned BiCGSTAB solves the balance equations of
the even-level chain, pinned at the empty state; the odd levels follow in
one step.  The level solver's accuracy is what the oracle tests check
(1e-12 relative, entry by entry, against birth-death laws with entries
below 1e-40); LU factoring is not subtraction-free.

scipy is imported by the functions that call it, so importing this module
costs numpy alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    InsufficientMemory,
    NotConverged,
    Reducible,
    ThetaOutOfRange,
    TruncationTooSmall,
    Unsupported,
)
from .model import SystemConfig
from .policy import NONPREEMPTIVE, PREEMPTIVE

if TYPE_CHECKING:
    from scipy import sparse

# The level solver is used wherever affordable, for its accuracy.  On a 2-vCPU
# x86 host it costs 0.07-0.5 ns * n * w^2 (w the widest level) once n * w^2
# passes 1e7: 10 ms at n = 3655, w = 85 and 90 ms at n = 5456, w = 496.  On
# smaller chains its ~16 us per level dominates (2 ms for 121 one-state levels).
_GTH_MAX_WORK = 1e9
_KRYLOV_TOL_REL = 1e-13


def import_scipy() -> None:
    """Import every scipy module the exact path calls, so that a timer
    started afterwards measures no import and a forked worker inherits them."""
    import scipy.linalg.lapack  # noqa: F401  (the level solver)
    import scipy.sparse.csgraph  # noqa: F401  (the irreducibility check)
    import scipy.sparse.linalg  # noqa: F401  (BiCGSTAB, and scipy.sparse)


@dataclass(frozen=True)
class StateIndex:
    """Bijection between detailed states with sum(z) <= K and dense indices.

    A state's key is its number in base K+2 over the digits of z
    (preemptive) or of (z, psi) (non-preemptive); base K+2 also keys the
    targets one level up.  ``keys`` is sorted and ``order[j]`` is the index
    of the state with key ``keys[j]``, so states are found with one
    ``searchsorted``.
    """

    cfg: SystemConfig
    kind: str
    K: int
    z: np.ndarray  # (n_states, n_classes) int64
    psi: np.ndarray  # (n_states, n_classes) int64
    keys: np.ndarray
    order: np.ndarray

    @property
    def n_states(self) -> int:
        return self.z.shape[0]

    def positions(self, Z, PSI) -> np.ndarray:
        """Index of each state (row of Z and PSI), -1 where not enumerated."""
        keys = _state_keys(self.kind, self.K, Z, PSI)
        j = np.minimum(np.searchsorted(self.keys, keys), self.n_states - 1)
        return np.where(self.keys[j] == keys, self.order[j], -1)


def _state_keys(kind: str, K: int, Z, PSI) -> np.ndarray:
    """Each row's key by Horner's rule, one digit column at a time, in place."""
    keys = np.zeros(Z.shape[0], dtype=np.int64)
    for digits in (Z,) if kind == PREEMPTIVE else (Z, PSI):
        for column in digits.T:
            keys *= K + 2
            keys += column
    return keys


def _check_key_range(K: int, n_digits: int) -> None:
    """Refuse a truncation whose state keys would overflow int64."""
    if (K + 2) ** n_digits - 1 > np.iinfo(np.int64).max:
        raise Unsupported(
            f"K = {K}: state keys of {n_digits} digits in base K+2 overflow int64"
        )


def _splits(total, caps):
    """Every split of total[r] into parts 0 <= part_i <= caps[r, i], for each
    row r in turn, splits in lexicographic order: (row r of each, split)."""
    rows, cols, rem, tail = np.arange(len(total)), [], total, caps.sum(axis=1)
    for i in range(caps.shape[1] - 1):
        cap = caps[rows, i]
        tail = tail - cap  # room in the parts after i
        lo, hi = np.maximum(rem - tail, 0), np.minimum(cap, rem)
        counts = hi - lo + 1
        r = np.repeat(np.arange(lo.size), counts)
        v = np.arange(r.size) - (np.cumsum(counts) - counts - lo)[r]
        rows, cols, rem, tail = rows[r], [c[r] for c in cols] + [v], rem[r] - v, tail[r]
    return rows, np.column_stack(cols + [rem])


def _allocate_by_priority(Z, n_servers: int) -> np.ndarray:
    """Row by row, the unique allocation serving higher class indices first."""
    above = np.cumsum(Z[:, ::-1], axis=1)[:, ::-1] - Z  # customers of higher classes
    return np.minimum(Z, np.maximum(n_servers - above, 0))


def enumerate_states(cfg: SystemConfig, kind: str, K: int) -> StateIndex:
    """Enumerate every valid detailed state with ``sum(z) <= K``, by level,
    then z in lexicographic order, then psi in lexicographic order."""
    if kind not in (PREEMPTIVE, NONPREEMPTIVE):
        raise Unsupported(f"exact solve supports priority policies only, not {kind!r}")
    if K < cfg.n_servers:
        raise TruncationTooSmall(f"K = {K} must be at least n_servers = {cfg.n_servers}")
    nc = cfg.n_classes
    _check_key_range(K, nc if kind == PREEMPTIVE else 2 * nc)
    _, Z = _splits(np.arange(K + 1), np.full((K + 1, nc), K))  # level by level
    if kind == PREEMPTIVE:
        PSI = _allocate_by_priority(Z, cfg.n_servers)
    else:  # every psi <= z with sum(psi) = min(N, level)
        rows, PSI = _splits(np.minimum(Z.sum(axis=1), cfg.n_servers), Z)
        Z = Z[rows]
    keys = _state_keys(kind, K, Z, PSI)
    order = np.argsort(keys)
    return StateIndex(cfg=cfg, kind=kind, K=K, z=Z, psi=PSI, keys=keys[order], order=order)


def count_states(cfg: SystemConfig, kind: str, K: int) -> int:
    """The number of states :func:`enumerate_states` lists, in closed form:
    C(K+n, n) preemptive; non-preemptive, level L holds every allocation psi
    (summing to P = min(N, L)) with every queue z - psi (summing to L - P)."""
    n, N = cfg.n_classes, cfg.n_servers
    if kind == PREEMPTIVE:
        return math.comb(K + n, n)
    return sum(math.comb(min(N, L) + n - 1, n - 1) * math.comb(L - min(N, L) + n - 1, n - 1)
               for L in range(K + 1))


@dataclass(frozen=True)
class SparseGenerator:
    """Truncated generator plus the untruncated transition table.

    ``Q`` holds the kept transitions with diagonal = -(row sum), so every
    row sums to zero.  The flat arrays (src, rate, dst, dst_z, dst_psi) list
    ALL transitions of the original chain out of indexed states, including
    arrivals that leave the truncated set (dst == -1), grouped by source
    state in ascending order.  Boundary rows (those with a dropped arrival)
    are flagged, with the dropped rate recorded.
    """

    idx: StateIndex
    Q: sparse.csr_matrix
    src: np.ndarray
    rate: np.ndarray
    dst: np.ndarray
    dst_z: np.ndarray
    dst_psi: np.ndarray
    boundary_mask: np.ndarray
    dropped_rate: np.ndarray
    max_exit_rate: float


def build_generator(idx: StateIndex) -> SparseGenerator:
    """Assemble the transitions of every state at once.

    Each state gets 3 * n_classes transition slots, in the order arrivals by
    class, then service completion and abandonment of each class; slots
    that cannot fire (nobody in service, nobody queued, nu = 0) are dropped.
    Targets restate the :mod:`hwq.policy` operations: the tests replay those
    operations state by state and check that every array here equals the
    replay's, which keeps the exact chain and the simulated chain together.
    """
    from scipy import sparse

    cfg, Z, PSI = idx.cfg, idx.z, idx.psi
    n, nc = Z.shape
    tz = np.repeat(Z[:, None, :], 3 * nc, axis=1)  # (state, slot, class)
    tpsi = np.repeat(PSI[:, None, :], 3 * nc, axis=1)
    rate = np.empty((n, 3 * nc))
    can = np.ones((n, 3 * nc), dtype=bool)
    free = PSI.sum(axis=1) < cfg.n_servers
    for c in range(nc):
        arr, svc, ab = c, nc + 2 * c, nc + 2 * c + 1
        tz[:, arr, c] += 1
        tz[:, [svc, ab], c] -= 1
        tpsi[:, arr, c] += free  # non-preemptive: a free server takes it
        tpsi[:, svc, c] -= 1
        rate[:, arr] = cfg.arrival_rates[c]
        rate[:, svc] = cfg.mus[c] * PSI[:, c]
        rate[:, ab] = cfg.nus[c] * (Z[:, c] - PSI[:, c])
        can[:, svc] = PSI[:, c] > 0
        can[:, ab] = (Z[:, c] > PSI[:, c]) & (cfg.nus[c] > 0.0)
    if idx.kind == PREEMPTIVE:
        tpsi = _allocate_by_priority(tz.reshape(-1, nc), cfg.n_servers).reshape(tz.shape)
    else:  # the freed server takes the highest waiting class, if any
        waiting = tz[:, nc::2] > tpsi[:, nc::2]
        top = nc - 1 - np.argmax(waiting[..., ::-1], axis=-1)
        tpsi[:, nc::2] += (np.arange(nc) == top[..., None]) & waiting.any(axis=-1)[..., None]

    keep = can.ravel()
    src = np.repeat(np.arange(n), 3 * nc)[keep]
    rate = rate.ravel()[keep]
    dst_z = tz.reshape(-1, nc)[keep]
    dst_psi = tpsi.reshape(-1, nc)[keep]
    dst = idx.positions(dst_z, dst_psi)
    lost = src[(dst < 0) & (Z.sum(axis=1) < idx.K)[src]]
    if lost.size:
        raise AssertionError(f"interior state {lost[0]} produced an unindexed target")

    kept = dst >= 0
    off = sparse.coo_matrix((rate[kept], (src[kept], dst[kept])), shape=(n, n)).tocsr()
    exit_rates = np.asarray(off.sum(axis=1)).ravel()
    Q = (off + sparse.diags(-exit_rates)).tocsr()

    dropped = np.zeros(n)
    np.add.at(dropped, src[~kept], rate[~kept])
    return SparseGenerator(
        idx=idx, Q=Q, src=src, rate=rate, dst=dst, dst_z=dst_z, dst_psi=dst_psi,
        boundary_mask=dropped > 0.0, dropped_rate=dropped,
        max_exit_rate=float(exit_rates.max() + dropped.max()),
    )


@dataclass(frozen=True)
class StationaryVector:
    """Stationary distribution of the truncated chain."""

    pi: np.ndarray
    residual: float  # max |pi @ Q|
    method: str  # "gth" | "bicgstab"
    iterations: int
    deficit_estimate: float
    level_width: int  # w, the most states on one level


def _check_levels_fit(widths) -> None:
    """Refuse a level solve whose blocks exceed physical memory.

    The solver holds every level's dense downward block (w_l * w_{l-1}
    float64) and LU factor (w_l^2 float64 plus w_l int32 pivots) at once;
    ``widths`` are the level sizes, lowest level first.  Not counted, as
    they are small next to these: the table of upward rates (16 bytes per
    state and slot, with at most n_classes slots, one per arrival class)
    and the fill U_{l-1} X, summed one slot at a time from gathered rows of
    X, so that at most three level blocks (w_{l-1}^2 float64 each) are live.
    """
    w = np.asarray(widths, dtype=np.int64)
    need = int((8 * w[1:] * (w[1:] + w[:-1]) + 4 * w[1:]).sum())
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise InsufficientMemory(
            f"the level solve of {int(w.sum())} states, widest level {int(w.max())}, "
            f"needs {need} bytes, more than the {have} bytes of physical memory"
        )


def _level_moves(Q: sparse.csr_matrix, level: np.ndarray):
    """The off-diagonal entries of ``Q`` in row order, as (row, col, rate),
    and the level step of each; refuse a rate that moves other than one
    level, which both stationary solvers rely on."""
    coo = Q.tocoo(copy=False)
    off = coo.row != coo.col
    row, col, rate = coo.row[off], coo.col[off], coo.data[off]
    level = level.astype(Q.indices.dtype)  # levels are below n: the narrow index type
    step = level[col]
    step -= level[row]
    bad = (step != 1) & (step != -1)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise Unsupported(f"the transition {row[k]} -> {col[k]} moves {step[k]} levels, not one")
    return row, col, rate, step


def _gth_levels(Q: sparse.csr_matrix, level: np.ndarray) -> np.ndarray:
    """Block GTH over population levels (linear level reduction).

    States must be numbered level by level with one state at the lowest
    level, and every off-diagonal rate of ``Q`` must move exactly one level,
    so ``Q`` is block tridiagonal with diagonal within-level blocks.  From
    the top level down, level l's censored block S_l has the fill
    U_l (-S_{l+1})^{-1} L_{l+1} off the diagonal (U up, L down) and, as in
    GTH, minus the sum of that fill row and the downward row on it.  Each
    -S_l^T is factored by LAPACK; then pi_0 = 1 and
    pi_l = pi_{l-1} U_{l-1} (-S_l)^{-1}.  Only the off-diagonal rates are
    read, no n x n array is formed, and the upward blocks U_l are used
    straight from the flat rate arrays, with no sparse matrix per level.
    """
    from scipy.linalg.lapack import dgetrf, dgetrs

    n = Q.shape[0]
    if (np.diff(level) < 0).any():
        raise Unsupported("the level solver needs states numbered level by level")
    starts = np.concatenate([[0], np.flatnonzero(np.diff(level)) + 1, [n]])
    widths = np.diff(starts)
    if widths[0] != 1:
        raise Unsupported(f"the lowest level holds {widths[0]} states, not one")
    _check_levels_fit(widths)
    row, col, rate, step = _level_moves(Q, level)
    blk = np.repeat(np.arange(widths.size), widths)  # the level block of each state

    # every downward block, dense, in one buffer: block b is w_b x w_{b-1}
    dn = step < 0
    r, c, lr = row[dn], col[dn], blk[row[dn]]
    doff = np.concatenate([[0], np.cumsum(widths[1:] * widths[:-1])])
    down = np.zeros(doff[-1])
    down[doff[lr - 1] + (r - starts[lr]) * widths[lr - 1] + c - starts[lr - 1]] = rate[dn]
    # upward rates in row order, columns counted from the start of the level
    # above; ptr[i] is the first of state i's.  Slot k of state i holds its
    # k-th upward rate and column, or rate 0 where it has fewer than k + 1.
    up = step > 0
    ur, uc, uv = row[up], col[up] - starts[blk[col[up]]], rate[up]
    ptr = np.searchsorted(ur, np.arange(n + 1))
    k = np.arange(ur.size) - ptr[ur]
    slot_c = np.zeros((n, k.max(initial=0) + 1), dtype=np.intp)
    slot_v = np.zeros(slot_c.shape)
    slot_c[ur, k], slot_v[ur, k] = uc, uv

    lus = [None] * widths.size
    fill = np.zeros((widths[-1], widths[-1]))
    for b in range(widths.size - 1, 0, -1):
        L = down[doff[b - 1]:doff[b]].reshape(widths[b], widths[b - 1])
        np.fill_diagonal(fill, 0.0)
        s = fill.sum(axis=1) + L.sum(axis=1)
        A = np.negative(fill, out=fill)
        np.fill_diagonal(A, s)
        lu, piv, info = dgetrf(A.T, overwrite_a=True)  # -S^T, F-ordered: no copy
        if info > 0:  # a zero pivot: -S_b is singular
            raise Reducible(f"state {starts[b] + info - 1} cannot reach a lower level")
        lus[b] = lu, piv
        X, _ = dgetrs(lu, piv, L, trans=1)  # (-S_b)^{-1} L_b
        # U_{b-1} X, slot by slot: each upward rate times its row of X, added
        # in row order; an empty slot adds 0 * (a finite row), so a state
        # with no upward rate gets a zero row
        cols, vals = slot_c[starts[b - 1]:starts[b]], slot_v[starts[b - 1]:starts[b]]
        fill = X[cols[:, 0]] * vals[:, :1]
        for k in range(1, cols.shape[1]):
            fill += X[cols[:, k]] * vals[:, k:k + 1]
    pi = np.ones(n)
    for b in range(1, widths.size):
        i, j = ptr[starts[b - 1]], ptr[starts[b]]  # pi_{b-1} U_{b-1}, by scatter
        x = np.bincount(uc[i:j], weights=uv[i:j] * pi[ur[i:j]], minlength=widths[b])
        pi[starts[b]:starts[b + 1]] = dgetrs(*lus[b], x)[0]
    return pi / pi.sum()


class _ContractMet(Exception):
    """Carries the BiCGSTAB iterate that met the residual contract."""


def _bicgstab(QT: sparse.spmatrix, tol: float) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned BiCGSTAB on QT[1:, 1:] x = -QT[1:, 0], pi = (1, x),
    for the transpose QT of a generator.

    That submatrix of an irreducible generator is a nonsingular M-matrix, so
    its diagonal is nonzero.  It is applied as QT to (0, x), which adds
    exact zeros only, so no submatrix is copied.  The pinned solution sums
    to 1/pi[0], which no absolute tolerance can follow: every tenth iterate
    is clipped, normalized and held to ``max|pi Q| <= tol`` instead, and
    scipy's exit code is ignored.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, bicgstab

    n, iterations = QT.shape[0], 0
    A = LinearOperator((n - 1, n - 1), dtype=float,
                       matvec=lambda x: (QT @ np.concatenate([[0.0], x.ravel()]))[1:])

    def normalized(x):
        pi = np.maximum(np.concatenate([[1.0], x]), 0.0)
        return pi / pi.sum()

    def check(x):
        nonlocal iterations
        iterations += 1
        if iterations % 10 == 0 and np.abs(QT @ normalized(x)).max() <= tol:
            raise _ContractMet(x)

    try:
        x, _ = bicgstab(A, -QT[1:, 0].toarray().ravel(), rtol=0.0,
                        M=sparse.diags(1.0 / QT.diagonal()[1:]), callback=check)
    except _ContractMet as met:
        x = met.args[0]
    return normalized(x), iterations


def _censor_odd_levels(Q: sparse.csr_matrix, level: np.ndarray):
    """The generator of the chain censored to the even levels.

    Every off-diagonal rate must move one level, so the odd-level states O
    jump only to even-level states E and are eliminated exactly, with D_O
    the exit rates of O: Q_E = Q_EE + Q_EO D_O^{-1} Q_OE (the stochastic
    complement; Meyer, SIAM Review 31, 1989).  Q_EE is diagonal, so the
    off-diagonal part of Q_E is that of one product,
    [Q_EO | I] [D_O^{-1} Q_OE ; I], whose blocks are laid out straight from
    the rates in row order.  The unit path through a dummy state stores
    every diagonal entry of the product, and each is then overwritten, as
    in GTH, by minus its row's off-diagonal sum, so the self-returns
    E -> O -> E drop out.  Returns Q_E and D_O.  The flat arrays are freed
    before the product and the factors after it, so the peak stays below
    that of :func:`build_generator`.
    """
    from scipy import sparse

    row, col, rate, _ = _level_moves(Q, level)
    even = level % 2 == 0
    n_even = int(even.sum())
    n_odd = even.size - n_even
    pos = np.empty(even.size, dtype=Q.indices.dtype)  # index within E or within O
    pos[even], pos[~even] = np.arange(n_even), np.arange(n_odd)
    eo = even[row]  # the rates of Q_EO; the others are Q_OE's
    oe = ~eo
    src, dst = pos[row], pos[col]
    del row, col, pos
    exit_odd = np.bincount(src[oe], weights=rate[oe], minlength=n_odd)

    def block(mask, vals, shape):  # rows in order already: no sort
        ptr = np.concatenate([[0], np.cumsum(np.bincount(src[mask], minlength=shape[0]))])
        return sparse.csr_matrix((vals, dst[mask], ptr), shape=shape)

    unit = sparse.identity(n_even, format="csr")
    left = sparse.hstack([block(eo, rate[eo], (n_even, n_odd)), unit], format="csr")
    right = sparse.vstack([block(oe, rate[oe] / exit_odd[src[oe]], (n_odd, n_even)), unit],
                          format="csr")
    del src, dst, rate, eo, oe
    QE = left @ right
    del left, right
    rows = np.repeat(np.arange(n_even, dtype=QE.indices.dtype), np.diff(QE.indptr))
    diag = QE.indices == rows  # one per row, in row order
    QE.data[diag] = 0.0
    QE.data[diag] = -np.bincount(rows, weights=QE.data, minlength=n_even)
    return QE, exit_odd


def _bicgstab_even(Q: sparse.csr_matrix, level: np.ndarray, tol: float):
    """BiCGSTAB on the chain censored to the even levels, then the odd levels.

    pi_E solves Q_E (see :func:`_censor_odd_levels`) by :func:`_bicgstab`,
    pinned at the first even-level state (the empty state, where states are
    numbered level by level), and pi_O = pi_E Q_EO D_O^{-1}; then pi is
    normalized.  (pi Q)_O = 0 by construction and (pi Q)_E = pi_E Q_E, and
    normalizing over O as well only divides, so the contract
    ``max|pi Q| <= tol`` met on Q_E holds on Q.  Half the
    states are solved for, and the Jacobi iteration of this two-cyclic
    system has the square of the full one's spectrum (cyclic reduction), so
    it takes about half the iterations.
    """
    QE, exit_odd = _censor_odd_levels(Q, level)
    pi_even, iterations = _bicgstab(QE.T, tol)  # QE.T is a CSC view: no copy
    odd = level % 2 == 1
    pi = np.zeros(odd.size)
    pi[~odd] = pi_even
    pi[odd] = (Q.T @ pi)[odd] / exit_odd  # pi_E Q_EO, as pi is 0 on O
    return pi / pi.sum(), iterations


def _check_irreducible(Q: sparse.csr_matrix) -> None:
    from scipy.sparse import csgraph

    n_comp, _ = csgraph.connected_components(Q, directed=True, connection="strong")
    if n_comp != 1:
        raise Reducible(f"truncated chain has {n_comp} strongly connected components")


def _deficit_estimate(gen: SparseGenerator, pi: np.ndarray) -> float:
    """Geometric bound on the stationary mass lost to truncation.

    Mass beyond level K is at most (boundary mass) * ratio/(1-ratio) where
    ratio compares the dropped arrival rate against the slowest departure
    rate on the boundary.
    """
    b = gen.boundary_mask
    boundary_mass = float(pi[b].sum())
    if boundary_mass == 0.0:
        return 0.0
    Qb = gen.Q[b]
    d_min = float(np.asarray(Qb.multiply(Qb > 0).sum(axis=1)).min())
    lam_drop = float(gen.dropped_rate[b].max())
    if d_min <= lam_drop:
        return float("inf")
    ratio = lam_drop / d_min
    return boundary_mass * ratio / (1.0 - ratio)


def stationary(gen: SparseGenerator) -> StationaryVector:
    """Solve pi Q = 0, sum(pi) = 1 on the truncated set.

    Block GTH over population levels, the level blocks factored by LAPACK,
    when its work n * w^2 (w the widest level) is at most ``_GTH_MAX_WORK``;
    above, BiCGSTAB on the chain censored to the even levels, with the odd
    levels eliminated exactly (:func:`_bicgstab_even`).  Both refuse a rate
    that moves other than one level.  The result must meet the residual
    contract ``max|pi Q| <= tol * max exit rate`` on the full ``Q``,
    tol = 1e-10 for GTH and ``_KRYLOV_TOL_REL`` for BiCGSTAB.
    """
    _check_irreducible(gen.Q)
    level = gen.idx.z.sum(axis=1)
    w = int(np.bincount(level).max())
    if gen.idx.n_states * w * w <= _GTH_MAX_WORK:
        method, pi, iterations, tol = "gth", _gth_levels(gen.Q, level), 0, 1e-10
    else:
        method, tol = "bicgstab", _KRYLOV_TOL_REL
        pi, iterations = _bicgstab_even(gen.Q, level, tol * gen.max_exit_rate)
    residual = float(np.abs(gen.Q.T @ pi).max())
    if residual > tol * gen.max_exit_rate:
        raise NotConverged(f"{method} residual {residual:g} exceeds {tol:g} * max rate "
                           f"({tol * gen.max_exit_rate:g})")
    return StationaryVector(pi=pi, residual=residual, method=method, iterations=iterations,
                            deficit_estimate=_deficit_estimate(gen, pi), level_width=w)


def abar_vector(gen: SparseGenerator, f_vec) -> np.ndarray:
    """Apply the rate operator to a test function, untruncated.

    ``f_vec(Z, PSI, cfg)`` must map state arrays to a value array, row by
    row.  Returns ``(A_bar F)(x)`` for every indexed state x, evaluating F
    at target states beyond the truncation as well, so the result agrees
    with the operator of the original (untruncated) chain everywhere.  F is
    evaluated once per enumerated state; a target inside the truncation
    takes its state's value, and only the targets beyond K (dropped
    arrivals out of the top level) are evaluated apart.  On the 3,655-state
    ``exact_banded`` chain that is 3,825 rows instead of 21,465, and a call
    takes about 0.6 ms.
    """
    idx, beyond = gen.idx, gen.dst < 0
    vals_src = np.asarray(f_vec(idx.z, idx.psi, idx.cfg), dtype=float)
    vals_dst = vals_src[gen.dst]  # a target beyond K is overwritten next
    vals_dst[beyond] = f_vec(gen.dst_z[beyond], gen.dst_psi[beyond], idx.cfg)
    contrib = gen.rate * (vals_dst - vals_src[gen.src])
    return np.bincount(gen.src, weights=contrib, minlength=gen.idx.n_states)


def expectation(pi: np.ndarray, values: np.ndarray) -> float:
    """E_pi[F] for per-state values."""
    return float(pi @ np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# Poisson closed forms


def poisson_logpmf(p: float, n) -> np.ndarray:
    """log P(H = n) for H ~ Poisson(p), stable for p up to 1e4 and beyond.

    Accurate to ~1e-11 relative at p ~ 1e4 (three ~1e5-magnitude terms
    cancel); use :func:`poisson_pmf` where tighter accuracy matters.
    """
    from scipy.special import gammaln

    n_arr = np.asarray(n, dtype=float)
    return n_arr * math.log(p) - p - gammaln(n_arr + 1.0)


def _log_pmf_anchor(p: float, m: int) -> float:
    # the cancellation of m*log(p) - p - lgamma(m+1) loses ~5 digits at
    # p ~ 1e4 in float64; evaluate the anchor in extended precision
    import mpmath

    with mpmath.workdps(30):
        return float(m * mpmath.log(p) - p - mpmath.loggamma(m + 1))


def _pmf_range(p: float, n_max: int) -> np.ndarray:
    """pmf on 0..n_max: high-precision anchor at the mode, then the exact
    recurrence h_{n+1} = h_n * p/(n+1) outward (underflows to 0 harmlessly)."""
    m = min(int(math.floor(p)), n_max)
    h = np.empty(n_max + 1)
    hm = math.exp(_log_pmf_anchor(p, m))
    h[m] = hm
    if m > 0:
        h[m - 1 :: -1] = hm * np.cumprod(np.arange(m, 0, -1, dtype=float) / p)
    if m < n_max:
        h[m + 1 :] = hm * np.cumprod(p / np.arange(m + 1, n_max + 1, dtype=float))
    return h


def poisson_pmf(p: float, n) -> np.ndarray:
    """P(H = n) for H ~ Poisson(p), 0 for n < 0; sums to 1 within 1e-12 out
    to p + 12*sqrt(p)."""
    if p <= 0.0:
        raise ValueError(f"Poisson mean must be positive, got {p}")
    n_arr = np.asarray(n, dtype=np.int64)
    h = _pmf_range(p, int(n_arr.max(initial=0)))
    out = np.where(n_arr >= 0, h[np.maximum(n_arr, 0)], 0.0)
    return float(out) if np.ndim(n) == 0 else out


def poisson_bound_scan(p: float) -> float:
    """Minimal C with pmf(n) <= C * p^{-1/2} * exp(-(n-p)^2 / (2p)) on n <= p."""
    if p <= 0.0:
        raise ValueError(f"Poisson mean must be positive, got {p}")
    ns = np.arange(0, math.floor(p) + 1, dtype=float)
    log_ratio = poisson_logpmf(p, ns) + 0.5 * math.log(p) + (ns - p) ** 2 / (2.0 * p)
    return float(np.exp(log_ratio.max()))


def scaled_poisson_mgf(theta: float, rho: float, r: float) -> float:
    """E exp(theta * (G - rho*r)/sqrt(r)) for G ~ Poisson(rho*r), closed form."""
    if theta < 0.0:
        raise ThetaOutOfRange(f"theta must be >= 0, got {theta}")
    sr = math.sqrt(r)
    return math.exp(-theta * rho * sr - rho * r * (1.0 - math.exp(theta / sr)))


def negpart_square_mgf(theta: float, p: float) -> float:
    """E exp(theta * ((H - p)^-)^2 / p) for H ~ Poisson(p), by summation.

    Terms with n >= p contribute the factor 1, so only n < p is summed.
    Requires theta < 1/2: that is the regime where the value stays bounded
    as p grows (for fixed p any theta would give a finite sum).
    """
    if not 0.0 <= theta < 0.5:
        raise ThetaOutOfRange(f"need 0 <= theta < 1/2, got {theta}")
    ns = np.arange(0, math.ceil(p), dtype=float)  # all n < p
    log_terms = poisson_logpmf(p, ns) + theta * (p - ns) ** 2 / p
    lower = float(np.exp(log_terms).sum())
    upper_mass = 1.0 - float(np.exp(poisson_logpmf(p, ns)).sum())
    return lower + upper_mass


def negpart_square_bound(theta: float, p: float, C: float | None = None) -> float:
    """Integral-comparison bound on :func:`negpart_square_mgf`.

    ``1 + C/sqrt(p) + C * integral_{-inf}^0 exp(-(1/2-theta) xi^2) dxi`` with
    C from :func:`poisson_bound_scan` unless supplied.
    """
    if not 0.0 <= theta < 0.5:
        raise ThetaOutOfRange(f"need 0 <= theta < 1/2, got {theta}")
    if C is None:
        C = poisson_bound_scan(p)
    integral = 0.5 * math.sqrt(math.pi / (0.5 - theta))
    return 1.0 + C / math.sqrt(p) + C * integral
