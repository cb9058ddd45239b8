"""Truncated generators, stationary solves, and Poisson closed forms.

The detailed chains of the two priority policies have finitely many states
per population level, so the state space truncated at ``sum(z) <= K`` can be
enumerated outright: preemptive priority needs only the count vector z (the
allocation is a function of z), non-preemptive priority needs (z, psi)
pairs.  FIFO's sequence-valued chain is not finitely parameterized per level
in a tractable way and is excluded.

Each state has a key, its number in base K+2 over its digits.  Every
transition changes one or two digits by one, so the generator is assembled
on keys alone: a target's key is its source's key plus the transition
slot's change, and each slot's targets are found with one search of the
sorted state keys.  States are numbered by level and then by key, so the
column order of every row is known in advance, and ``Q``'s CSR arrays are
written slot by slot, with no sparse assembly; the row sums that give the
diagonal are scipy's own (``np.add.reduceat``), so ``Q`` is bitwise the
matrix scipy would assemble.  :func:`generator_peak_bytes` bounds the
bytes the build allocates.  Digit arrays are built only for the targets
beyond K.

Truncation drops arrival transitions out of the top level, which keeps row
sums at zero and yields a proper chain; the neglected stationary mass is
estimated and reported.  ``Q`` is the one copy of the generator.  The
operator application ``abar_vector`` does NOT truncate: it adds the dropped
arrivals back, so pointwise drift identities are exact at every indexed
state, boundary included.

Stationary solves: every transition moves one population level, and both
solvers censor levels out exactly.  Block GTH censors the top level out one
at a time, each level block factored by LAPACK, at a fixed cost of about
16 us per level.  Where the levels are wide, the odd levels are censored out
at once (an odd-level state jumps only to even levels, so no factoring is
needed) and Jacobi-preconditioned BiCGSTAB solves the balance equations of
the even-level chain, pinned at a central state chosen from the config;
the censored generator is never formed, but applied as two sparse
products of factors selected straight from ``Q``'s arrays, and the odd
levels follow in one step.  :func:`krylov_peak_bytes` bounds the bytes
that solve allocates.  The level solver's accuracy is what the oracle
tests check (1e-12 relative, entry by entry, against birth-death laws
with entries below 1e-40); LU factoring is not subtraction-free.

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
from .model import SystemConfig, central_counts
from .policy import NONPREEMPTIVE, PREEMPTIVE

if TYPE_CHECKING:
    from scipy import sparse

# The level solver is used wherever affordable, for its accuracy.  On a 2-vCPU
# x86 host it costs 0.07-0.5 ns * n * w^2 (w the widest level) once n * w^2
# passes 1e7: 10 ms at n = 3655, w = 85 and 90 ms at n = 5456, w = 496.  On
# smaller chains its ~16 us per level dominates (2 ms for 121 one-state levels).
_GTH_MAX_WORK = 1e9
_KRYLOV_TOL_REL = 1e-13
_DIAGONAL_BLOCKS = 4  # row blocks of the censored chain's diagonal, each a scipy product
_OBJECT_BYTES = 64 * 1024  # Python objects: array headers, the matrix, the closure


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
    (preemptive) or of (z, psi) (non-preemptive), the first digit the most
    significant; base K+2 also keys the targets one level up, and
    :func:`_key_weights` gives each digit's weight.  ``keys`` is sorted and
    ``order[j]`` is the index of the state with key ``keys[j]``, so states
    are found with one ``searchsorted``.  ``level[i]`` is sum(z) of state i.
    """

    cfg: SystemConfig
    kind: str
    K: int
    z: np.ndarray  # (n_states, n_classes) int64
    psi: np.ndarray  # (n_states, n_classes) int64
    level: np.ndarray  # (n_states,) int64
    keys: np.ndarray
    order: np.ndarray

    @property
    def n_states(self) -> int:
        return self.z.shape[0]

    def positions(self, Z, PSI) -> np.ndarray:
        """Index of each state (row of Z and PSI), -1 where not enumerated."""
        return self.find(_state_keys(self.kind, self.K, Z, PSI))

    def find(self, keys) -> np.ndarray:
        """Index of the state with each key, -1 where not enumerated."""
        j = np.searchsorted(self.keys, keys)
        np.minimum(j, self.n_states - 1, out=j)
        missing = self.keys[j] != keys
        self.order.take(j, out=j, mode="clip")  # in place: j is in range already
        j[missing] = -1
        return j


def _state_keys(kind: str, K: int, Z, PSI) -> np.ndarray:
    """Each row's key by Horner's rule, one digit column at a time, in place."""
    keys = np.zeros(Z.shape[0], dtype=np.int64)
    for digits in (Z,) if kind == PREEMPTIVE else (Z, PSI):
        for column in digits.T:
            keys *= K + 2
            keys += column
    return keys


def _key_weights(kind: str, K: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The key weights (wz, wp) of the digits z_c and psi_c: a state's key is
    z @ wz + psi @ wp.  Preemptive keys cover z only, so wp is 0 there."""
    wp = (K + 2) ** np.arange(n_classes - 1, -1, -1, dtype=np.int64)
    if kind == PREEMPTIVE:
        return wp, np.zeros(n_classes, dtype=np.int64)
    return wp * (K + 2) ** n_classes, wp


def _check_key_range(K: int, n_digits: int) -> None:
    """Refuse a truncation whose state keys would overflow int64."""
    if (K + 2) ** n_digits - 1 > np.iinfo(np.int64).max:
        raise Unsupported(f"K = {K}: state keys of {n_digits} digits in base K+2 overflow int64")


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


def check_chain_fits(cfg: SystemConfig, kind: str, K: int) -> None:
    """Refuse, before any array exists, a chain :func:`enumerate_states`
    cannot list, or whose state index exceeds physical memory."""
    if kind not in (PREEMPTIVE, NONPREEMPTIVE):
        raise Unsupported(f"exact solve supports priority policies only, not {kind!r}")
    if K < cfg.n_servers:
        raise TruncationTooSmall(f"K = {K} must be at least n_servers = {cfg.n_servers}")
    nc = cfg.n_classes
    _check_key_range(K, nc if kind == PREEMPTIVE else 2 * nc)
    n = count_states(cfg, kind, K)
    need = 8 * n * (2 * nc + 3)  # int64: z and psi, nc columns each; level, keys, order
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise InsufficientMemory(f"K = {K}: the state index of {n} states needs {need} bytes, "
                                 f"more than the {have} bytes of physical memory")


def enumerate_states(cfg: SystemConfig, kind: str, K: int) -> StateIndex:
    """Enumerate every valid detailed state with ``sum(z) <= K``, by level,
    then z in lexicographic order, then psi in lexicographic order."""
    check_chain_fits(cfg, kind, K)
    level, Z = _splits(np.arange(K + 1), np.full((K + 1, cfg.n_classes), K))  # level by level
    if kind == PREEMPTIVE:
        PSI = _allocate_by_priority(Z, cfg.n_servers)
    else:  # every psi <= z with sum(psi) = min(N, level)
        rows, PSI = _splits(np.minimum(level, cfg.n_servers), Z)
        Z, level = Z[rows], level[rows]
    keys = _state_keys(kind, K, Z, PSI)
    order = np.argsort(keys)
    return StateIndex(cfg=cfg, kind=kind, K=K, z=Z, psi=PSI, level=level,
                      keys=keys[order], order=order)


def count_states(cfg: SystemConfig, kind: str, K: int) -> int:
    """The number of states :func:`enumerate_states` lists, in closed form:
    C(K+n, n) preemptive; non-preemptive, level L < N holds C(L+n-1, n-1)
    and L >= N holds C(N+n-1, n-1) C(L-N+n-1, n-1), each summed over L."""
    n, N = cfg.n_classes, cfg.n_servers
    if kind == PREEMPTIVE or K < N:
        return math.comb(K + n, n)
    return math.comb(N - 1 + n, n) + math.comb(N + n - 1, n - 1) * math.comb(K - N + n, n)


def generator_peak_bytes(cfg: SystemConfig, kind: str, K: int) -> int:
    """An upper bound on the bytes :func:`build_generator` allocates for the
    chain of ``enumerate_states(cfg, kind, K)``, derived from its arrays.

    n is :func:`count_states`; every one of the 3 * n_classes slots is taken
    to fire at every state, so ``Q`` holds at most e = n (3 n_classes + 1)
    entries: ``data`` (8 bytes each) and ``indices`` (x = 4 bytes each, 8
    beyond int32) are live throughout, with ``indptr``.  The build's three
    steps add, per state unless said otherwise:

    - a departure slot: the keys and the refills (8 bytes each), the
      served, queued and split flags (n_classes bytes each), the
      kept-arrivals flag, the write cursor (x) and the abandonment-first
      flag; the slot's rows, target keys and rates (8 each), entries (x) and
      pair flag; the search's positions and gathered keys (8 each), two
      flags and the columns cast to ``indices``' type (x).  An arrival slot
      holds fewer;
    - the diagonal: the kept-arrivals flag and the diagonal's positions (x),
      the off-diagonal rates (8 bytes per entry, less one per state), and
      the larger of the selection's one-byte mask per entry and the row
      starts (2x), their int64 copy and the exit rates (8 each);
    - the targets beyond K: the exit rates and the kept-arrivals flag, and
      per level-K state its index, its n_classes class and row numbers (8
      each), and six arrays of n_classes rows of n_classes int64 digits:
      ``beyond_z``, ``beyond_psi`` and the reallocation's four temporaries.

    Array headers and the matrix object add a few kilobytes, bounded by
    ``_OBJECT_BYTES``.  The bound is reached where every slot fires;
    the measured peak is below it (see the tests).
    """
    n = count_states(cfg, kind, K)
    top = n - count_states(cfg, kind, K - 1)  # the level-K states
    c = cfg.n_classes
    e = n * (3 * c + 1)
    x = 4 if e <= np.iinfo(np.int32).max else 8
    held = (8 + x) * e + x * (n + 1)
    departure = n * ((8 + 8 + 3 * c + 1 + x + 1) + (8 + 8 + 8 + x + 1) + (8 + 8 + 1 + 1 + x))
    diagonal = n * (1 + x) + 8 * (e - n) + max(e, n * (2 * x + 8 + 8))
    beyond = n * (8 + 1) + top * (8 + 16 * c + 6 * 8 * c * c)
    return held + max(departure, diagonal, beyond) + _OBJECT_BYTES


def krylov_peak_bytes(cfg: SystemConfig, kind: str, K: int) -> int:
    """An upper bound on the bytes :func:`stationary` allocates on its
    Krylov branch (:func:`_bicgstab_even`) for the chain of
    ``enumerate_states(cfg, kind, K)``, ``Q`` itself not counted, derived
    from its arrays.

    n, the top level's states t, e = n (3 n_classes + 1) entries and the
    index size x are as in :func:`generator_peak_bytes`.  Level sizes never
    fall, so the even- and odd-level counts n_E and n_O differ by at most
    t and each is at most (n + t) / 2; a row has at most 3 n_classes rates,
    so Q_EO and Q_OE hold at most eo = 3 n_classes n_E and
    oe = 3 n_classes n_O.  The phases, each holding what the one before
    left, with n-sized arrays (the parity flags, the positions within E or
    O, the row lengths: 1 + 2x bytes per state) throughout the selection:

    - the level check (:func:`_level_steps`): the rows and level steps (x
      bytes per entry), the off-diagonal flag, and the larger of the row
      levels' repeat (x per entry) and three one-byte flags per entry.
      Since e >= 4n, it holds more than the irreducibility check before it
      (scipy's labels and stacks, and int32 copies of an int64 ``indices``
      and ``indptr``) and the selection's four flags per entry after it;
    - the factors: d and D_O (8 bytes per state) while the off-diagonal
      flag lives; Q_EO's rates, columns and their gather, then its
      transpose beside it (8 + x per entry each); D_O^{-1} Q_OE's rates,
      the repeated D_O and its columns' gather (16 or 8 + 2x per entry);
      later its transpose beside it, with the diagonal of Q_E;
    - that diagonal (:func:`_censored_diagonal`), beside the factors, and
      a vector of n_E more: its output and ``bincount``'s, and per block of
      R = ceil(n_O / ``_DIAGONAL_BLOCKS``) rows scipy's product output
      (8 + x per slot, for R (n_classes^2 + 6 n_classes) slots: an odd
      state has at most n_classes^2 + 3 n_classes even sources, an arrival
      and an abandonment per class and a service completion per class and
      refilled class or none), its pruned copy and its int64 columns (at
      most 3 n_classes per row);
    - the iteration: the factors and fifteen vectors of n_E float64
      (scipy's nine, the right-hand side, the preconditioner and at most
      four inside one operator step or residual check), and one of n_O;
    - pi, the residual check (two vectors of n) and the truncation deficit:
      the level-K rows (at most 2 n_classes + 1 entries each) selected,
      compared, upcast, multiplied (twice their entries, then pruned) and
      summed against a vector of n ones.

    The odd levels' pi, formed after the iteration, holds less than it.
    Array headers and the matrix objects add a few kilobytes, bounded by
    ``_OBJECT_BYTES``.
    """
    n = count_states(cfg, kind, K)
    top = n - count_states(cfg, kind, K - 1)
    c = cfg.n_classes
    e = n * (3 * c + 1)
    x = 4 if e <= np.iinfo(np.int32).max else 8
    half = (n + top) // 2  # n_E and n_O
    eo = oe = 3 * c * half
    misc = (1 + 2 * x) * n
    steps = (2 * x + 1) * e + max(x, 3) * e + 3 * x * n
    transpose = 2 * e + misc + 8 * n + 2 * (8 + x) * eo + 2 * x * half
    scale = e + misc + 8 * n + (8 + x) * eo + 3 * x * half + max(16, 8 + 2 * x) * oe
    held = 8 * n + 8 * half + (8 + x) * (eo + oe) + 2 * x * (half + 1)
    transpose_b = held + (8 + x) * oe + x * (half + 1)
    rows = -(-half // _DIAGONAL_BLOCKS)
    diagonal = (held + 24 * half + 3 * x * (rows + 1)
                + rows * ((8 + x) * (c * c + 9 * c) + 24 * c))
    iteration = held + 15 * 8 * half + 8 * half
    t_e = top * (2 * c + 1)
    deficit = 9 * n + 24 * top + 3 * x * (top + 1) + t_e * (4 * (8 + x) + 1 + x + 8)
    after = 8 * n + max(16 * n, deficit)
    return max(steps, transpose, scale, transpose_b, diagonal, iteration,
               after) + _OBJECT_BYTES


@dataclass(frozen=True)
class SparseGenerator:
    """Truncated generator plus the targets truncation drops.

    ``Q`` holds the kept transitions, a shared target's rates summed, with
    diagonal = -(row sum).  Truncation drops the arrivals out of level K,
    the last block of states: row j of ``beyond_z`` and ``beyond_psi`` is
    the class ``j % n_classes`` arrival at the ``j // n_classes``-th one.
    """

    idx: StateIndex
    Q: sparse.csr_matrix
    beyond_z: np.ndarray
    beyond_psi: np.ndarray
    max_exit_rate: float  # the dropped arrivals included


def build_generator(idx: StateIndex) -> SparseGenerator:
    """Write the CSR arrays of ``Q`` slot by slot, with no sparse assembly.

    Each state has 3 * n_classes transition slots: an arrival, a service
    completion and an abandonment of each class; slots that cannot fire
    (nobody in service, nobody queued, nu = 0) are dropped, and so are the
    arrivals out of level K.  A target is found by its key, the source's
    key plus the slot's change of one or two digits (weights wz, wp of
    :func:`_key_weights`):

    - an arrival of class c adds wz[c], and wp[c] where a non-preemptive
      server is free to take it;
    - a service completion of class c subtracts wz[c] + wp[c]; a
      non-preemptive server then takes the highest class t still waiting,
      which adds wp[t] (a completion leaves every queue as it is);
    - an abandonment of class c subtracts wz[c].

    Preemptive keys cover z only, so the reallocation needs no term.
    States are numbered by level and, within a level, by key, so each row's
    column order is known before any target is found: the departures by
    class ascending, a class's service completion and abandonment ordered by
    target key (one entry, the two rates summed, where the server goes back
    to class c: always, preemptive), then the diagonal, then the arrivals
    by class descending.  Each row's length gives ``indptr``; every slot
    then writes one ``indices`` and one ``data`` entry per state at once,
    its targets found with one search of the sorted keys, so no temporary
    is longer than the state count except in the diagonal's step.  That
    step sums each row's off-diagonal rates by ``np.add.reduceat`` over
    them, as scipy's row sum does, so ``Q`` is bitwise the matrix scipy
    assembles from the same transitions (as the replay oracle does).
    :func:`generator_peak_bytes` bounds the bytes this allocates.  The tests
    replay the :mod:`hwq.policy` operations state by state and check every
    array here against the replay's, which keeps the exact chain and the
    simulated chain together.
    """
    from scipy import sparse

    cfg, Z, PSI, level = idx.cfg, idx.z, idx.psi, idx.level
    n, nc = Z.shape
    wz, wp = _key_weights(idx.kind, idx.K, nc)
    key = np.empty(n, dtype=np.int64)
    key[idx.order] = idx.keys
    waiting = Z > PSI
    refill = np.zeros(n, dtype=np.int64)  # wp of the highest waiting class, if any
    for c in range(nc):
        refill[waiting[:, c]] = wp[c]
    served = PSI > 0
    queued = waiting & (np.asarray(cfg.nus) > 0.0)
    del waiting
    # a class's service completion reaches its abandonment's target where the
    # server goes back to that class (refill = wp[c]), else the two split
    split = served & queued & (refill[:, None] != wp)
    below = level < idx.K  # the states whose arrivals are kept
    length = (served | queued).sum(axis=1) + split.sum(axis=1) + 1 + nc * below
    nnz = int(length.sum())
    itype = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64  # as scipy picks
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(length, dtype=itype, out=indptr[1:])
    del length
    indices = np.empty(nnz, dtype=itype)
    data = np.empty(nnz)
    at = indptr[:-1].copy()  # each row's first entry not yet written

    def put(rows, entry, keys, rates):
        cols = idx.find(keys)
        if (cols < 0).any():
            raise AssertionError(f"state {rows[np.argmin(cols)]} produced an unindexed target")
        indices[entry], data[entry] = cols, rates

    for c in range(nc):
        s, q, two = served[:, c], queued[:, c], split[:, c]
        ab_low = two & (refill > wp[c])  # the lower key is the abandonment's
        rows = np.flatnonzero(s)
        put(rows, at[rows] + ab_low[rows], key[rows] + (refill[rows] - wz[c] - wp[c]),
            cfg.mus[c] * PSI[rows, c])
        rows = np.flatnonzero(q)
        entry = at[rows] + (two & ~ab_low)[rows]
        rate = cfg.nus[c] * (Z[rows, c] - PSI[rows, c])
        pair = (s & ~two)[rows]  # the service's entry: the two rates summed
        rate[pair] += data[entry[pair]]
        put(rows, entry, key[rows] - wz[c], rate)
        at += s | q
        at += two
    del served, queued, split, refill
    diag = at  # then the arrivals, class descending
    rows = np.flatnonzero(below)
    free = level[rows] < cfg.n_servers  # sum(psi) = min(N, level)
    for c in range(nc):
        put(rows, diag[rows] + (nc - c), key[rows] + (wz[c] + free * wp[c]),
            cfg.arrival_rates[c])
    del rows, free, key

    # every row has an off-diagonal rate: arrivals below K, and at K >= N a
    # customer in service, so each reduceat segment is one row's rates
    indices[diag] = np.arange(n)
    exit_rates = np.add.reduceat(np.delete(data, diag), indptr[:-1] - np.arange(n, dtype=itype))
    data[diag] = -exit_rates
    del diag
    Q = sparse.csr_matrix((data, indices, indptr), shape=(n, n))

    # the targets beyond K: one arrival per (level-K state, class), the
    # level-K states the last block; no server is free there, as K >= N
    top = np.flatnonzero(~below)
    cls = np.tile(np.arange(nc), top.size)
    beyond_z = np.repeat(Z[top], nc, axis=0)
    beyond_z[np.arange(cls.size), cls] += 1
    if idx.kind == PREEMPTIVE:
        beyond_psi = _allocate_by_priority(beyond_z, cfg.n_servers)
    else:
        beyond_psi = np.repeat(PSI[top], nc, axis=0)
    return SparseGenerator(idx=idx, Q=Q, beyond_z=beyond_z, beyond_psi=beyond_psi,
                           max_exit_rate=float(exit_rates.max() + sum(cfg.arrival_rates)))


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


def _entry_rows(Q: sparse.csr_matrix):
    """The row of each stored entry of ``Q``, and which entries are off the
    diagonal: index-sized and one byte per entry, so no int64 copy."""
    row = np.repeat(np.arange(Q.shape[0], dtype=Q.indices.dtype), np.diff(Q.indptr))
    return row, Q.indices != row


def off_diagonal(Q: sparse.csr_matrix):
    """The off-diagonal entries of ``Q`` in row order, as (row, col, rate)."""
    row, off = _entry_rows(Q)
    return row[off], Q.indices[off], Q.data[off]


def _level_steps(Q: sparse.csr_matrix, level: np.ndarray):
    """:func:`_entry_rows` and the level step of each entry; refuse a rate
    that moves other than one level, which both stationary solvers rely on."""
    row, off = _entry_rows(Q)
    level = level.astype(Q.indices.dtype)  # levels are below n: the narrow index type
    step = level[Q.indices]
    step -= np.repeat(level, np.diff(Q.indptr))  # level[row]
    bad = off & (step != 1) & (step != -1)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise Unsupported(f"the transition {row[k]} -> {Q.indices[k]} moves {step[k]} levels, "
                          "not one")
    return row, off, step


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
    row, off, step = _level_steps(Q, level)
    row, col, rate, step = row[off], Q.indices[off], Q.data[off], step[off]
    del off
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


def central_state(idx: StateIndex) -> int:
    """The index of the state at which the Krylov solve pins pi: the
    central state ``z_i = round(rho_i r)`` of :func:`hwq.model.central_counts`,
    on an even level; where its total is odd, the class whose count most
    exceeds its load ``rho_i r`` has one customer fewer.  Its total is at
    most n_servers <= K, so nobody waits and z fixes the state."""
    cfg = idx.cfg
    z = np.array(central_counts(cfg), dtype=np.int64)
    if z.sum() % 2:
        z[np.argmax(np.where(z > 0, z - np.asarray(cfg.rho_r), -np.inf))] -= 1
    return int(idx.positions(z[None], _allocate_by_priority(z[None], cfg.n_servers))[0])


def _censor_odd_levels(Q: sparse.csr_matrix, level: np.ndarray):
    """The factors of the generator of the chain censored to the even levels.

    Every off-diagonal rate must move one level, so the odd-level states O
    jump only to even-level states E and are eliminated exactly, with D_O
    the exit rates of O: Q_E = Q_EE + Q_EO D_O^{-1} Q_OE (the stochastic
    complement; Meyer, SIAM Review 31, 1989), and Q_EE is diagonal.  Q_E is
    not formed.  Returns d, the diagonal of Q_EE; A^T = Q_EO^T, a row per
    odd state, and B^T = (D_O^{-1} Q_OE)^T, a row per even state, so that
    ``(v Q_E)^T = d v + B^T (A^T v)`` is two CSR products; D_O; and the
    diagonal of Q_E (:func:`_censored_diagonal`).  d and D_O are read off
    ``Q``'s diagonal.  Both factors are selected straight from ``Q``'s
    arrays by one-byte masks, freed before the factors are built, and each
    is transposed by scipy, B after the diagonal is taken.
    """
    from scipy import sparse

    row, off, step = _level_steps(Q, level)
    del row, step
    even = level % 2 == 0
    n_even = int(even.sum())
    n_odd = even.size - n_even
    itype = Q.indices.dtype
    pos = np.empty(even.size, dtype=itype)  # index within E or within O
    pos[even], pos[~even] = np.arange(n_even), np.arange(n_odd)
    # each row's off-diagonal rates: its entries less the diagonal, which an
    # irreducible generator stores once in every row (nonzero)
    moves = np.diff(Q.indptr) - 1
    from_even = np.repeat(even, np.diff(Q.indptr))  # even[row]
    eo = off & from_even  # the entries of Q_EO; Q_OE's are the other off-diagonal ones
    off &= ~from_even
    del from_even
    diagonal = Q.diagonal()
    d, exit_odd = diagonal[even], -diagonal[~even]
    del diagonal

    ptr = np.zeros(n_even + 1, dtype=itype)
    np.cumsum(moves[even], out=ptr[1:])
    A = sparse.csr_matrix((Q.data[eo], pos[Q.indices[eo]], ptr), shape=(n_even, n_odd))
    del eo, ptr
    AT = A.T.tocsr()
    del A
    ptr = np.zeros(n_odd + 1, dtype=itype)
    np.cumsum(moves[~even], out=ptr[1:])
    rates = Q.data[off]
    rates /= np.repeat(exit_odd, moves[~even])
    B = sparse.csr_matrix((rates, pos[Q.indices[off]], ptr), shape=(n_odd, n_even))
    del off, rates, pos, moves, ptr
    diagonal = _censored_diagonal(d, AT, B)
    BT = B.T.tocsr()
    return d, AT, BT, exit_odd, diagonal


def _censored_diagonal(d: np.ndarray, AT: sparse.csr_matrix, B: sparse.csr_matrix) -> np.ndarray:
    """The diagonal of Q_E = diag(d) + A B, ``d + colsum(A^T o B)``: for
    each even state, the rate of its paths E -> O -> E back to itself.  The
    elementwise product of the two odd-row factors is taken by scipy in
    ``_DIAGONAL_BLOCKS`` blocks of rows, on views of their arrays, so that
    its output is a fraction of the factors."""
    from scipy import sparse

    out = d.copy()
    rows = -(-B.shape[0] // _DIAGONAL_BLOCKS)
    for a in range(0, B.shape[0], rows):
        b = min(a + rows, B.shape[0])
        part = [sparse.csr_matrix((M.data[M.indptr[a]:M.indptr[b]],
                                   M.indices[M.indptr[a]:M.indptr[b]],
                                   M.indptr[a:b + 1] - M.indptr[a]), shape=(b - a, M.shape[1]))
                for M in (AT, B)]
        paths = part[0].multiply(part[1])
        out += np.bincount(paths.indices, weights=paths.data, minlength=out.size)
    return out


def _bicgstab(d: np.ndarray, AT: sparse.csr_matrix, BT: sparse.csr_matrix,
              diagonal: np.ndarray, pin: int, tol: float) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned BiCGSTAB on the balance equations pi Q_E = 0 of
    Q_E = diag(d) + A B, pinned at pi[pin] = 1: the unknowns are the other
    entries x of pi, and the system is column ``pin`` of Q_E^T taken out,
    ``(Q_E^T)[~pin, ~pin] x = -(Q_E^T)[~pin, pin]``.

    Q_E^T is applied as ``v -> d v + B^T (A^T v)`` to pi with x in place
    and 0 at ``pin``, and the preconditioner divides entry by entry by
    ``diagonal``, the exact diagonal of Q_E.  That submatrix of an
    irreducible generator is a nonsingular M-matrix, so its diagonal is
    nonzero.  The pinned solution sums to 1/pi[pin], which no absolute
    tolerance can follow: every tenth iterate is clipped, normalized and
    held to ``max|pi Q_E| <= tol`` instead, and scipy's exit code is ignored.
    The pin is a central state (:func:`central_state`), where pi is not
    small; at the empty state, where pi falls like e^-r, the sum 1/pi[pin]
    outgrows what the iteration can resolve.
    """
    from scipy.sparse.linalg import LinearOperator, bicgstab

    n, iterations = d.size, 0

    def apply(v):  # (v Q_E)^T for a row vector v over E
        out = BT @ (AT @ v)
        out += d * v
        return out

    def pinned(x, at_pin):  # x with at_pin inserted at the pin
        return np.concatenate((x[:pin], [at_pin], x[pin:]))

    def normalized(x):
        pi = np.maximum(pinned(x, 1.0), 0.0)
        return pi / pi.sum()

    def check(x):
        nonlocal iterations
        iterations += 1
        if iterations % 10 == 0 and np.abs(apply(normalized(x))).max() <= tol:
            raise _ContractMet(x)

    unit = np.zeros(n)
    unit[pin] = 1.0
    rhs = -np.delete(apply(unit), pin)
    del unit
    inverse = 1.0 / np.delete(diagonal, pin)
    shape = (n - 1, n - 1)
    system = LinearOperator(shape, dtype=float,
                            matvec=lambda x: np.delete(apply(pinned(x.ravel(), 0.0)), pin))
    jacobi = LinearOperator(shape, dtype=float, matvec=lambda x: x.ravel() * inverse)
    try:
        x, _ = bicgstab(system, rhs, rtol=0.0, M=jacobi, callback=check)
    except _ContractMet as met:
        x = met.args[0]
    return normalized(x), iterations


def _bicgstab_even(Q: sparse.csr_matrix, level: np.ndarray, tol: float, pin: int):
    """BiCGSTAB on the chain censored to the even levels, then the odd levels.

    pi_E solves Q_E (see :func:`_censor_odd_levels`) by :func:`_bicgstab`,
    pinned at the even-level state ``pin`` (:func:`central_state` in
    :func:`stationary`), and pi_O = pi_E Q_EO D_O^{-1}; then pi is
    normalized.  (pi Q)_O = 0 by construction and (pi Q)_E = pi_E Q_E, and
    normalizing over O as well only divides, so the contract
    ``max|pi Q| <= tol`` met on Q_E holds on Q.  Half the states are solved
    for, and the Jacobi iteration of this two-cyclic system has the square
    of the full one's spectrum (cyclic reduction), so it takes about half
    the iterations.
    """
    even = level % 2 == 0
    d, AT, BT, exit_odd, diagonal = _censor_odd_levels(Q, level)
    pi_even, iterations = _bicgstab(d, AT, BT, diagonal, int(np.count_nonzero(even[:pin])),
                                    tol)
    del d, BT, diagonal
    pi = np.empty(even.size)
    pi[even] = pi_even
    pi[~even] = (AT @ pi_even) / exit_odd
    return pi / pi.sum(), iterations


def _check_irreducible(Q: sparse.csr_matrix) -> None:
    from scipy.sparse import csgraph

    n_comp, _ = csgraph.connected_components(Q, directed=True, connection="strong")
    if n_comp != 1:
        raise Reducible(f"truncated chain has {n_comp} strongly connected components")


def _deficit_estimate(gen: SparseGenerator, pi: np.ndarray) -> float:
    """Geometric estimate, not a bound, of the stationary mass lost to
    truncation: (level-K mass) * ratio/(1-ratio), ratio the arrival rate
    each level-K state drops over the slowest departure rate on level K;
    ``inf`` where that ratio is >= 1, as on ``nu = 0`` chains at default K.
    """
    b = gen.idx.level == gen.idx.K
    boundary_mass = float(pi[b].sum())
    if boundary_mass == 0.0:
        return 0.0
    Qb = gen.Q[b]
    d_min = float(np.asarray(Qb.multiply(Qb > 0).sum(axis=1)).min())
    lam_drop = float(sum(gen.idx.cfg.arrival_rates))
    if d_min <= lam_drop:
        return float("inf")
    ratio = lam_drop / d_min
    return boundary_mass * ratio / (1.0 - ratio)


def stationary(gen: SparseGenerator) -> StationaryVector:
    """Solve pi Q = 0, sum(pi) = 1 on the truncated set.

    Block GTH over population levels, the level blocks factored by LAPACK,
    when its work n * w^2 (w the widest level) is at most ``_GTH_MAX_WORK``;
    above, BiCGSTAB on the chain censored to the even levels, with the odd
    levels eliminated exactly and the censored generator applied, not
    formed (:func:`_bicgstab_even`), pinned at :func:`central_state`; it
    allocates at most :func:`krylov_peak_bytes`.  Both refuse a rate that
    moves other than one level.  The result must meet the residual
    contract ``max|pi Q| <= tol * max exit rate`` on the full ``Q``,
    tol = 1e-10 for GTH and ``_KRYLOV_TOL_REL`` for BiCGSTAB.
    """
    _check_irreducible(gen.Q)
    level = gen.idx.level
    w = int(np.bincount(level).max())
    if gen.idx.n_states * w * w <= _GTH_MAX_WORK:
        method, pi, iterations, tol = "gth", _gth_levels(gen.Q, level), 0, 1e-10
    else:
        method, tol = "bicgstab", _KRYLOV_TOL_REL
        pi, iterations = _bicgstab_even(gen.Q, level, tol * gen.max_exit_rate,
                                        central_state(gen.idx))
    residual = float(np.abs(gen.Q.T @ pi).max())
    if residual > tol * gen.max_exit_rate:
        raise NotConverged(f"{method} residual {residual:g} exceeds {tol:g} * max rate "
                           f"({tol * gen.max_exit_rate:g})")
    return StationaryVector(pi=pi, residual=residual, method=method, iterations=iterations,
                            deficit_estimate=_deficit_estimate(gen, pi), level_width=w)


def abar_vector(gen: SparseGenerator, f_vec, moves=None) -> np.ndarray:
    """Apply the rate operator to a test function, untruncated.

    ``f_vec(Z, PSI, cfg)`` must map state arrays to a value array, row by
    row.  Returns ``(A_bar F)(x)`` of the untruncated chain at every indexed
    state x: rate * (F(y) - F(x)) over the off-diagonal entries (x, y) of
    ``Q``, plus at level K the dropped arrivals, sum_c lambda_c r
    (F(beyond(x, c)) - F(x)).  The differences keep the rounding at the
    terms' scale (``Q @ F`` would cancel terms of size exit rate * |F|), and
    the diagonal is skipped: its F(x) - F(x) is NaN where F(x) is infinite.
    ``moves`` is ``off_diagonal(gen.Q)`` where the caller has selected the
    entries already, so that several test functions share one selection.
    """
    idx, nc = gen.idx, gen.idx.cfg.n_classes
    vals = np.asarray(f_vec(idx.z, idx.psi, idx.cfg), dtype=float)
    row, col, rate = off_diagonal(gen.Q) if moves is None else moves
    out = np.bincount(row, weights=rate * (vals.take(col) - vals.take(row)),
                      minlength=idx.n_states)
    top = idx.n_states - gen.beyond_z.shape[0] // nc  # the first level-K state
    beyond = np.asarray(f_vec(gen.beyond_z, gen.beyond_psi, idx.cfg), dtype=float)
    diff = beyond.reshape(-1, nc) - vals[top:, None]
    for c, lam in enumerate(idx.cfg.arrival_rates):
        out[top:] += lam * diff[:, c]
    return out


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
