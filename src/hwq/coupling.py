"""Joint-chain simulators realizing two sample-path comparisons.

Infinite-server comparison (needs nu_i <= mu_i): alongside the primary chain
run per-class counters G_i representing an M/M/infinity system fed by the
same arrivals, with each G-customer matched to a distinct live primary
customer.  Rates split per class as

* shared death  mu_i*m_s + nu_i*m_q   (kills a matched pair: primary service
  completion for an in-service partner, abandonment for a queued partner),
* G-only death  (mu_i - nu_i)*m_q     (queued partner survives, unmatched),
* Z-only death  mu_i*(psi_i - m_s) + nu_i*(q_i - m_q),
* shared arrival lam_i*r,

where m_s = min(G_i, psi_i) and m_q = G_i - m_s (the matching is maximal
toward in-service partners at every state; rates depend only on counts,
so any matching rule preserves the ordering).  The G marginal dies at
mu_i*G_i total and the primary marginal keeps its own law exactly, while
G_i(t) <= Z_i(t) holds pathwise.

Monotone comparison: given primary abandonment rates nu and modified rates
nu' <= nu, a shadow count vector Z' >= Z evolves by copying primary arrivals,
by thinning primary departures (on a class-j departure the shadow keeps its
customer with probability p = Q_j (nu_j - nu'_j) / (nu_j Q_j + mu_j Psi_j),
written in the cancelled form so nu_j = 0 is fine), and by shadow-only
departures at rate nu'_j (Q'_j - Q_j) + mu_j (Psi'_j - Psi_j).  The shadow
allocation mirrors the primary's servers first and fills the remainder by
ascending class index, which keeps Psi_i <= Psi'_i and the shadow non-idling.

Each comparison is a chain object (:class:`InfServerChain`,
:class:`MonotoneChain`) holding the joint rate table, the jump rules and the
ordering checks; the jump kernel of :mod:`hwq.simulate` drives it.
``rates()`` is a function of the count lists the chain declares,
``(G, z, psi)`` or ``(z, Z', psi)``, so the kernel builds each distinct
joint state's table once and caches it.  Every ordering is a function of
the same lists, so ``check()`` scans every ordering of every class once per
distinct joint state: ``rates()`` calls it first, and a state enters the
kernel's cache only after its orderings pass.  The kernel looks up the
state each event leaves before it draws the next event, or moves to it
from the cache, where it was checked when it entered, and the runner
checks the state the last event leaves, so the state after every event is
checked.  Each event runs through an action table, one action per
category.  A failed ordering raises :class:`OrderingViolation` naming the
event that reached the state; that never happens by construction, so a
raise means an implementation bug.

The kernel memoizes each (state, category) successor of the joint
chain: a revisit applies no action (see :func:`hwq.simulate.jumps`).
Where a successor is not a function of the count lists, the chain's
``branch`` hands the kernel a draw that runs on every event: the
monotone thinning, drawn against the cached probability ``p``, and a
FIFO primary's queue half, which keeps the queue outside the cache key
and changes it live, its outcome (the class of the head a freed server
takes) picking the successor.  The chain's lists, and its event count
``checks``, are synced only on a cache miss and when the runner closes
the kernel, before its final check; ``checks`` counts events, not
actions.

Both runners share one body (:func:`_run_coupled`): after the warm-up they
accumulate the weight of the events spent in each visited pair of
observed count lists, ``(G, Z)`` or ``(Z, Z')``, with
:func:`hwq.simulate.occupancy`, the accumulator of the estimators, and
take every coordinate's time average in one numpy pass over the distinct
states.  Each event is weighted by its expected holding time ``1/q``, the
reciprocal of the joint state's total rate, so the elapsed time
``sim_time`` is the expected elapsed time.  The kernel records the id of
each full joint state, and the fold maps it to its observed pair before
summing, so each pair's weights are still added in time order.  The
infinite-server runner's G snapshots on a time grid come from the same
accumulator; with a grid, every event is weighted by its real holding
time instead, and ``sim_time`` is the real elapsed time.  Either way the
kernel draws the same numbers, so the path, the event counts and the
ordering checks do not depend on the grid.

scipy is imported by the functions that call it (the chi-square tail of
:func:`poisson_fit_pvalue`), so the runners never load it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolated, OrderingViolation
from .model import SystemConfig
from .policy import QUEUE, SERVICE, init_state
from .simulate import (
    Path,
    RngStream,
    advance,
    check_event_counts,
    collector_paused,
    jumps,
    load_counts,
    occupancy,
)


# per block of the infinite-server table, the primary's event: an arrival
# (None) or a departure from service or queue
_SOURCES = (None, SERVICE, SERVICE, QUEUE, QUEUE)


def coupling_applies(cfg: SystemConfig, i: int, nu_prime: float | None = None) -> bool:
    """Whether class i meets a coupling's hypothesis: the infinite-server one
    (nu_prime None) needs nu <= mu, the monotone one 0 <= nu_prime <= nu."""
    return cfg.nus[i] <= cfg.mus[i] if nu_prime is None else 0.0 <= nu_prime <= cfg.nus[i]


class InfServerChain:
    """Primary policy state plus infinite-server counters G as a jump chain.

    Each G-customer of class i is matched to a distinct live primary
    customer of class i, in service first: ``m_s = min(G_i, psi_i)`` and
    ``m_q = G_i - m_s``.  The rate table has six blocks of ``n_classes``
    categories, in the order of the block constants below; the shared and
    Z-only deaths are split by where the primary customer sits.  The rates
    are a function of the count lists ``(G, z, psi)``, and so is
    :meth:`check`, which ``rates()`` calls first: it checks ``G_i <= Z_i``
    for every class, since a FIFO service completion or a preemptive
    reallocation moves the psi of other classes too.
    """

    ARRIVAL, SHARED_SERVICE, Z_SERVICE, SHARED_QUEUE, Z_QUEUE, G_ONLY = range(6)

    __slots__ = ("cfg", "rng", "state", "g", "checks", "_nc")

    def __init__(self, cfg: SystemConfig, kind: str, rng):
        nc = cfg.n_classes
        for i in range(nc):
            if not coupling_applies(cfg, i):
                raise HypothesisViolated(
                    f"infinite-server comparison needs nu <= mu; class {i} has "
                    f"nu = {cfg.nus[i]}, mu = {cfg.mus[i]}"
                )
        self.cfg = cfg
        self.rng = rng
        self.state = init_state(cfg, kind)
        self.g = [0] * nc
        self.checks = 0
        self._nc = nc

    def counts(self):
        return self.g, self.state.z, self.state.psi

    def load(self, key, events: int) -> None:
        """Set ``(G, z, psi)`` to the cached state ``key``, which event
        number ``events`` reached."""
        load_counts(self.counts(), key)
        self.checks = events

    def branch(self, k: int):
        """The primary's queue half of category ``k``'s event (see
        :meth:`hwq.policy.FifoState.draw`); None for a G-only death and
        for a priority primary."""
        block, i = divmod(k, self._nc)
        return None if block == 5 else self.state.draw(i, _SOURCES[block], self.rng)

    def rates(self) -> list[float]:
        self.check()
        cfg = self.cfg
        ss, zs, sq, zq, go = [], [], [], [], []
        for mu, nu, zi, pi, gi in zip(cfg.mus, cfg.nus, self.state.z, self.state.psi, self.g):
            ms = gi if gi < pi else pi
            mq = gi - ms
            ss.append(mu * ms)
            zs.append(mu * (pi - ms))
            sq.append(nu * mq)
            zq.append(nu * (zi - pi - mq))
            go.append((mu - nu) * mq)
        return [*cfg.arrival_rates, *ss, *zs, *sq, *zq, *go]

    def actions(self) -> list:
        return [(self._event, (block, i)) for block in range(6) for i in range(self._nc)]

    def jump(self, k: int) -> None:
        """Apply one event of category ``k``, then :meth:`check` the state
        it leaves.  The kernel applies the event alone and checks the state
        when it builds that state's rate table."""
        self._event(*divmod(k, self._nc))
        self.check()

    def _event(self, block: int, i: int, outcome: int | None = None) -> None:
        """Apply one event of category ``(block, i)``: the whole event, or
        given the ``outcome`` of its :meth:`branch` draw, which has already
        changed the primary's queue, the count half."""
        st = self.state
        g = self.g
        if block == 0:  # shared arrival
            st.apply_arrival(i, self.rng, outcome)
            g[i] += 1
        elif block == 5:  # G-only death
            g[i] -= 1
        else:
            st.apply_departure(i, _SOURCES[block], self.rng, outcome)
            if block == 1 or block == 3:  # shared death
                g[i] -= 1
        self.checks += 1

    def check(self) -> None:
        """Raise :class:`OrderingViolation` unless ``G_i <= Z_i`` for every
        class; the message names the event count ``checks``."""
        g = self.g
        z = self.state.z
        for j in range(self._nc):
            if g[j] > z[j]:
                raise OrderingViolation(
                    f"G[{j}] = {g[j]} > Z[{j}] = {z[j]} after event {self.checks}"
                )


def _run_coupled(make_chain, n_events: int, rng, warmup_events: int,
                 grid_dt: float = 0.0, record: dict | None = None):
    """Run ``make_chain(rng)`` for ``warmup_events`` jumps, then integrate
    its first two count lists over the other jumps.

    Returns ``(chain, states_checked, span, first, second, grid)``: the
    number of distinct joint states the kernel cached, each checked once
    when its rate table was built; the elapsed time after the warm-up, the
    time average of each coordinate of either list, and the rows of the two
    lists occupying the multiples of ``grid_dt`` after the warm-up (see
    :func:`hwq.simulate.occupancy`).  Events are weighted by their expected
    holding times ``1/q``, so ``span`` is the expected elapsed time, unless
    ``grid_dt > 0``: then they are weighted by their holding times, and
    ``span`` is the real elapsed time.

    ``chain.checks``, the runner's ``ordering_checks``, counts the events,
    however many of them ran the chain's action: the count lists of every
    chain, a FIFO primary's included (its queue stays live), are synced
    only on a miss of the kernel's successor cache and when the kernel is
    closed here, and the count is synced with them.  The state the last
    event leaves is never looked up by the kernel, so it is checked here,
    after the close.  The run pauses the cyclic garbage collector and
    drops the kernel's cache before it resumes (see
    :func:`hwq.simulate.collector_paused`).  When ``record`` is a dict it
    receives ``warmup_s``, the warm-up's wall time, and ``run_s``, the
    rest's.
    """
    if isinstance(rng, RngStream):
        rng = rng.make()
    chain = make_chain(rng)
    check_event_counts(n_events, warmup_events)
    if not 0.0 <= grid_dt < float("inf"):
        raise ValueError(f"g_sample_dt must be finite and >= 0, got {grid_dt}")
    a, b = chain.counts()[:2]
    path = Path(len(a) + len(b))
    events = jumps(chain, rng, path)
    started = time.perf_counter()
    with collector_paused():
        advance(events, warmup_events, path)
        warmed = time.perf_counter()
        states, held, span, grid = occupancy(events, path, n_events - warmup_events, grid_dt)
        events.close()  # loads the chain's count lists with the state the last event left
        states_checked = len(path.table)
        del events, path  # the cache is acyclic: reference counting frees it
    chain.check()
    # summed row by row, so equal columns give bit-equal averages
    avg = ((states * held[:, None]).sum(axis=0) / span).tolist()
    if record is not None:
        record["warmup_s"] = warmed - started
        record["run_s"] = time.perf_counter() - warmed
    return chain, states_checked, span, tuple(avg[:len(a)]), tuple(avg[len(a):]), grid


@dataclass(frozen=True)
class InfServerReport:
    events: int
    sim_time: float  # expected elapsed time (sum of 1/q); real time when g_sample_dt > 0
    ordering_checks: int
    states_checked: int
    g_time_avg: tuple[float, ...]
    z_time_avg: tuple[float, ...]
    g_samples: list[tuple[int, ...]] = field(repr=False, default_factory=list)


def run_infserver_coupled(cfg: SystemConfig, kind: str, n_events: int, rng,
                          warmup_events: int = 0, g_sample_dt: float = 0.0,
                          record: dict | None = None) -> InfServerReport:
    """Run the joint (primary, M/M/inf) chain, asserting G_i <= Z_i throughout.

    G and Z are time averaged over the post-warmup span by the occupancy
    measure of the pairs ``(G, Z)``, each event weighted by its expected
    holding time ``1/q``, or by its real holding time when
    ``g_sample_dt > 0``; ``sim_time`` is the span.  ``g_sample_dt > 0``
    also records G at every multiple of that many units of simulated time
    after the warmup; a negative or non-finite value raises ``ValueError``,
    and so does a step that would sample more instants than there are
    events after the warmup.  Snapshots are taken on the time grid (not at event indices): the state
    holding at each grid instant is an unbiased stationary draw, whereas
    event-indexed states follow the jump-chain law.  ``states_checked``
    counts the distinct joint states, each checked once.  A dict
    ``record`` receives the wall times ``warmup_s`` and ``run_s``.
    """
    chain, states_checked, span, g_avg, z_avg, grid = _run_coupled(
        lambda rng: InfServerChain(cfg, kind, rng), n_events, rng, warmup_events,
        g_sample_dt, record)
    nc = cfg.n_classes
    return InfServerReport(
        events=n_events,
        sim_time=span,
        ordering_checks=chain.checks,
        states_checked=states_checked,
        g_time_avg=g_avg,
        z_time_avg=z_avg,
        g_samples=[tuple(row) for row in grid[:, :nc].tolist()],
    )


class MonotoneChain:
    """Primary policy state plus a larger shadow count vector Z' as a jump chain.

    The shadow has abandonment rates ``nu' <= nu``.  Its service allocation
    psi' mirrors the primary's servers and fills the remaining ones by
    ascending class index (:meth:`allocate_shadow`).  The rate table has
    four blocks of ``n_classes`` categories: coupled arrivals, primary
    service completions, primary abandonments (both followed by the shadow
    unless thinned, see :meth:`thinning_probability`), and shadow-only
    departures.  The rates are a function of the count lists
    ``(z, Z', psi)``, since psi' is one of psi and Z'.  So is
    :meth:`check`, which ``rates()`` calls first: it calls
    :meth:`allocate_shadow`, which can move psi' of every class, then
    checks ``Z <= Z'``, ``psi <= psi'``, ``Q <= Q'`` and the primary's
    non-idling for every class, and the shadow's non-idling last.
    ``psip`` is therefore the allocation of the state last checked,
    refreshed once per distinct joint state; call :meth:`allocate_shadow`
    to read it at the current state.
    """

    __slots__ = ("cfg", "nu_prime", "rng", "state", "zp", "psip", "checks", "_nc", "_n_srv")

    def __init__(self, cfg: SystemConfig, nu_prime, kind: str, rng):
        nc = cfg.n_classes
        nu_prime = list(nu_prime)
        if len(nu_prime) != nc:
            raise HypothesisViolated(f"nu' must have {nc} entries")
        for i in range(nc):
            if not coupling_applies(cfg, i, nu_prime[i]):
                raise HypothesisViolated(
                    f"need 0 <= nu' <= nu per class; class {i}: "
                    f"nu' = {nu_prime[i]}, nu = {cfg.nus[i]}"
                )
        self.cfg = cfg
        self.nu_prime = nu_prime
        self.rng = rng
        self.state = init_state(cfg, kind)
        self.zp = [0] * nc
        self.psip = [0] * nc
        self.checks = 0
        self._nc = nc
        self._n_srv = cfg.n_servers

    def allocate_shadow(self) -> tuple[int, int]:
        """Set psi' from psi and Z': mirror the primary, fill upward by class.

        Gives psi_i <= psi'_i <= Z'_i and sum(psi') = min(N, sum(Z')) while
        Z <= Z' holds coordinatewise.  Returns ``(sum(Z'), sum(psi))``, which
        :meth:`check` reuses.
        """
        psi = self.state.psi
        zp = self.zp
        psip = self.psip
        n_srv = self._n_srv
        total = sum(zp)
        total_psi = sum(psi)
        rem = (total if total < n_srv else n_srv) - total_psi  # min() costs a call per event
        for i in range(self._nc):
            pi = psi[i]
            extra = zp[i] - pi
            if extra > rem:
                extra = rem
            psip[i] = pi + extra
            rem -= extra
        return total, total_psi

    def thinning_probability(self, j: int) -> float:
        """Probability that the shadow keeps its customer on a primary
        class-j departure: ``Q_j (nu_j - nu'_j) / (nu_j Q_j + mu_j psi_j)``.

        This cancelled form is well defined at nu_j = 0; the denominator is
        the rate of primary class-j departures, positive whenever one occurs.
        """
        nu = self.cfg.nus[j]
        psi = self.state.psi[j]
        q = self.state.z[j] - psi
        return q * (nu - self.nu_prime[j]) / (nu * q + self.cfg.mus[j] * psi)

    def counts(self):
        return self.state.z, self.zp, self.state.psi

    def load(self, key, events: int) -> None:
        """Set ``(z, Z', psi)`` to the cached state ``key``, which event
        number ``events`` reached; psi' stays that of the state last
        checked."""
        load_counts(self.counts(), key)
        self.checks = events

    def branch(self, k: int):
        """The random choices of category ``k``'s event at the current
        state, as ``(draw, outcomes)``, or None where there are none (a
        shadow-only departure, a priority arrival).  An arrival has the
        primary's queue half (see :meth:`hwq.policy.FifoState.draw`).  A
        primary departure is thinned: the draw is the keep probability
        :meth:`thinning_probability` itself, a float against which the
        kernel compares a uniform (outcome 1: the shadow follows), unless
        the primary's queue half draws too; then it is a function that
        draws the queue half first, outcome ``h``, then the uniform, and
        returns ``2 * h + 2`` plus 1 if the shadow follows."""
        block, j = divmod(k, self._nc)
        if block == 3:
            return None
        half = self.state.draw(j, (None, SERVICE, QUEUE)[block], self.rng)
        if block == 0:
            return half
        p = self.thinning_probability(j)
        if half is None:
            return p, 2
        queue_half, n = half
        u01 = self.rng.random
        return (lambda: 2 * queue_half() + 2 + (u01() >= p)), 2 * n + 2

    def rates(self) -> list[float]:
        self.check()
        cfg = self.cfg
        svc, ab, shadow = [], [], []
        for mu, nu, nup, zi, pi, zpi, ppi in zip(cfg.mus, cfg.nus, self.nu_prime, self.state.z,
                                                 self.state.psi, self.zp, self.psip):
            qi = zi - pi
            svc.append(mu * pi)
            ab.append(nu * qi)
            shadow.append(nup * (zpi - ppi - qi) + mu * (ppi - pi))
        return [*cfg.arrival_rates, *svc, *ab, *shadow]

    def actions(self) -> list:
        return [(self._event, (block, j)) for block in range(4) for j in range(self._nc)]

    def jump(self, k: int) -> None:
        """Apply one event of category ``k``, then :meth:`check` the state
        it leaves.  The kernel applies the event alone and checks the state
        when it builds that state's rate table."""
        self._event(*divmod(k, self._nc))
        self.check()

    def _event(self, block: int, j: int, outcome: int | None = None) -> None:
        """Apply one event of category ``(block, j)``: the whole event, or
        given the ``outcome`` of its :meth:`branch` draw, which has made
        the event's random choices, the count half."""
        st = self.state
        zp = self.zp
        if block == 0:  # coupled arrival
            st.apply_arrival(j, self.rng, outcome)
            zp[j] += 1
        elif block < 3:  # primary departure, followed by the shadow unless thinned
            source = SERVICE if block == 1 else QUEUE
            if outcome is None:
                p = self.thinning_probability(j)
                st.apply_departure(j, source, self.rng)
                followed = self.rng.random() >= p
            else:  # the primary's outcome, where its queue half drew, and the thinning's
                st.apply_departure(j, source, self.rng, outcome // 2 - 1 if outcome > 1 else None)
                followed = outcome & 1
            if followed:
                zp[j] -= 1
        else:  # shadow-only departure
            zp[j] -= 1
        self.checks += 1

    def check(self) -> None:
        """Allocate the shadow's servers, then raise :class:`OrderingViolation`
        unless ``Z <= Z'``, ``psi <= psi'``, ``Q <= Q'`` and the primary's
        non-idling hold for every class and the shadow does not idle; the
        message names the event count ``checks``."""
        total, total_psi = self.allocate_shadow()
        n_srv = self._n_srv
        z = self.state.z
        psi = self.state.psi
        zp = self.zp
        psip = self.psip
        idle = total_psi < n_srv
        for i in range(self._nc):
            zi = z[i]
            zpi = zp[i]
            if zi > zpi:
                raise OrderingViolation(
                    f"Z[{i}] = {zi} > Z'[{i}] = {zpi} after event {self.checks}"
                )
            pi = psi[i]
            ppi = psip[i]
            if pi > ppi:
                raise OrderingViolation(
                    f"psi[{i}] = {pi} > psi'[{i}] = {ppi} after event {self.checks}"
                )
            qi = zi - pi
            qpi = zpi - ppi
            if qi > qpi:
                raise OrderingViolation(
                    f"Q[{i}] = {qi} > Q'[{i}] = {qpi} after event {self.checks}"
                )
            if idle and qi != 0:
                raise OrderingViolation(
                    f"primary idles with a queue: psi sums to {total_psi} < "
                    f"{n_srv} but Q[{i}] > 0 (event {self.checks})"
                )
        busy = sum(psip)
        if busy != (total if total < n_srv else n_srv):
            raise OrderingViolation(
                f"shadow idles: psi' sums to {busy}, not min(N, sum Z') = "
                f"min({n_srv}, {total}) (event {self.checks})"
            )


@dataclass(frozen=True)
class MonotoneReport:
    events: int
    sim_time: float  # expected elapsed time after the warm-up: the sum of 1/q
    ordering_checks: int
    states_checked: int
    z_time_avg: tuple[float, ...]
    z_prime_time_avg: tuple[float, ...]


def run_monotone_coupled(cfg: SystemConfig, nu_prime, kind: str, n_events: int,
                         rng, warmup_events: int = 0,
                         record: dict | None = None) -> MonotoneReport:
    """Drive the primary chain and its larger shadow with rates nu' <= nu.

    Asserts Z_i <= Z'_i, psi_i <= psi'_i, Q_i <= Q'_i, shadow non-idling, and
    the primary's own non-idling implication (idle servers force empty
    queues) after every event, once per distinct joint state
    (``states_checked``).  Z and Z' are time averaged over the post-warmup
    span by the occupancy measure of the pairs ``(Z, Z')``, each event
    weighted by its expected holding time ``1/q``; ``sim_time`` is the
    expected elapsed time.  A dict ``record`` receives the wall times
    ``warmup_s`` and ``run_s``.
    """
    chain, states_checked, span, z_avg, zp_avg, _ = _run_coupled(
        lambda rng: MonotoneChain(cfg, nu_prime, kind, rng), n_events, rng, warmup_events,
        record=record)
    return MonotoneReport(
        events=n_events,
        sim_time=span,
        ordering_checks=chain.checks,
        states_checked=states_checked,
        z_time_avg=z_avg,
        z_prime_time_avg=zp_avg,
    )


def poisson_fit_pvalue(samples, mean: float, min_expected: float = 5.0) -> float:
    """Chi-square goodness-of-fit p-value of integer samples against Poisson.

    Bins with expected count below ``min_expected`` are pooled into the
    tails; dof = bins - 1 (the mean is given, not estimated).
    """
    from scipy.special import chdtrc

    from .exact import poisson_pmf

    samples = np.asarray(samples, dtype=int)
    n = samples.size
    if n == 0:
        raise ValueError("poisson_fit_pvalue got empty samples; nothing to test")
    hi = max(int(samples.max()), int(mean + 10 * mean ** 0.5))
    support = np.arange(0, hi + 1)
    probs = poisson_pmf(mean, support)
    observed = np.bincount(samples, minlength=hi + 1).astype(float)
    expected = n * probs
    # rightmost bin absorbs the infinite tail
    expected[-1] += n * max(0.0, 1.0 - probs.sum())

    obs_bins: list[float] = []
    exp_bins: list[float] = []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= min_expected:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if o_acc > 0 or e_acc > 0:  # fold leftovers into the last bin
        if obs_bins:
            obs_bins[-1] += o_acc
            exp_bins[-1] += e_acc
        else:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
    obs = np.array(obs_bins)
    exp = np.array(exp_bins)
    if len(obs) < 2:
        return 1.0
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = len(obs) - 1
    return float(chdtrc(dof, stat))
