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
per-event ordering checks; the jump kernel of :mod:`hwq.simulate` drives
it.  ``rates()`` builds the table once, when the kernel starts; after that
each ``jump`` applies its event and, in one pass over the classes, checks
every ordering and rewrites every class's rates in the same list, so a
chain's state may be edited only before the kernel starts.  Both raise
:class:`OrderingViolation` the moment an ordering fails; that never happens
by construction, so a raise means an implementation bug.

Both runners share one body (:func:`_run_coupled`): after the warm-up they
accumulate the holding time per visited pair of observed count lists,
``(G, Z)`` or ``(Z, Z')``, with :func:`hwq.simulate.occupancy`, the
accumulator of the estimators, and take every coordinate's time average in
one numpy pass over the distinct states.  The infinite-server runner's G
snapshots on a time grid come from the same accumulator.

scipy is imported by the functions that call it (the chi-square tail of
:func:`poisson_fit_pvalue`), so the runners never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolated, OrderingViolation
from .model import SystemConfig
from .policy import QUEUE, SERVICE, init_state
from .simulate import (
    RngStream,
    advance,
    check_event_counts,
    jumps,
    occupancy,
    stack_states,
)


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
    Z-only deaths are split by where the primary customer sits.  ``rates()``
    builds the table; every jump then checks ``G_i <= Z_i`` and rewrites the
    rates of each class in one pass, since a FIFO service completion or a
    preemptive reallocation moves the psi of other classes too.
    """

    ARRIVAL, SHARED_SERVICE, Z_SERVICE, SHARED_QUEUE, Z_QUEUE, G_ONLY = range(6)

    __slots__ = ("cfg", "rng", "state", "g", "checks", "_nc", "_rows", "_rates")

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
        # per class: its index, mu, nu, and its slots in the death blocks
        self._rows = [(i, cfg.mus[i], cfg.nus[i], *range(nc + i, 6 * nc, nc))
                      for i in range(nc)]
        self._rates = list(cfg.arrival_rates) + [0.0] * (5 * nc)

    def rates(self) -> list[float]:
        z = self.state.z
        psi = self.state.psi
        g = self.g
        r = self._rates
        for i, mu, nu, ss, zs, sq, zq, go in self._rows:
            gi = g[i]
            pi = psi[i]
            ms = gi if gi < pi else pi
            mq = gi - ms
            r[ss] = mu * ms
            r[zs] = mu * (pi - ms)
            r[sq] = nu * mq
            r[zq] = nu * (z[i] - pi - mq)
            r[go] = (mu - nu) * mq
        return r

    def jump(self, k: int) -> None:
        block, i = divmod(k, self._nc)
        st = self.state
        g = self.g
        if block == 0:  # shared arrival
            st.apply_arrival(i, self.rng)
            g[i] += 1
        elif block == 5:  # G-only death
            g[i] -= 1
        else:
            st.apply_departure(i, SERVICE if block <= 2 else QUEUE, self.rng)
            if block == 1 or block == 3:  # shared death
                g[i] -= 1
        self.checks += 1
        # one pass: check G <= Z and rewrite the class's rates
        z = st.z
        psi = st.psi
        r = self._rates
        for j, mu, nu, ss, zs, sq, zq, go in self._rows:
            gj = g[j]
            zj = z[j]
            if gj > zj:
                raise OrderingViolation(
                    f"G[{j}] = {gj} > Z[{j}] = {zj} after event {self.checks}"
                )
            pj = psi[j]
            ms = gj if gj < pj else pj
            mq = gj - ms
            r[ss] = mu * ms
            r[zs] = mu * (pj - ms)
            r[sq] = nu * mq
            r[zq] = nu * (zj - pj - mq)
            r[go] = (mu - nu) * mq


def _run_coupled(make_chain, observed, n_events: int, rng, warmup_events: int,
                 grid_dt: float = 0.0):
    """Run ``make_chain(rng)`` for ``warmup_events`` jumps, then integrate
    the two count lists ``observed(chain)`` over the other jumps.

    Returns ``(chain, span, first, second, grid)``: the elapsed time after
    the warm-up, the time average of each coordinate of either list, and
    the joint states occupying the multiples of ``grid_dt`` after the
    warm-up (see :func:`hwq.simulate.occupancy`).
    """
    if isinstance(rng, RngStream):
        rng = rng.make()
    chain = make_chain(rng)
    check_event_counts(n_events, warmup_events)
    if not 0.0 <= grid_dt < float("inf"):
        raise ValueError(f"g_sample_dt must be finite and >= 0, got {grid_dt}")
    a, b = observed(chain)
    events = jumps(chain, rng)
    advance(events, warmup_events)
    occ, span, grid = occupancy(events, n_events - warmup_events, a, b, grid_dt=grid_dt)
    states, held = stack_states([occ], len(a) + len(b))
    # summed row by row, so equal columns give bit-equal averages
    avg = ((states * held[:, None]).sum(axis=0) / span).tolist()
    return chain, span, tuple(avg[:len(a)]), tuple(avg[len(a):]), grid


@dataclass(frozen=True)
class InfServerReport:
    events: int
    sim_time: float
    ordering_checks: int
    g_time_avg: tuple[float, ...]
    z_time_avg: tuple[float, ...]
    g_samples: list[tuple[int, ...]] = field(repr=False, default_factory=list)


def run_infserver_coupled(cfg: SystemConfig, kind: str, n_events: int, rng,
                          warmup_events: int = 0,
                          g_sample_dt: float = 0.0) -> InfServerReport:
    """Run the joint (primary, M/M/inf) chain, asserting G_i <= Z_i throughout.

    G and Z are time averaged over the post-warmup span by the occupancy
    measure of the pairs ``(G, Z)``.  ``g_sample_dt > 0`` also records G
    at every multiple of that many units of simulated time after the
    warmup; a negative or non-finite value raises ``ValueError``, and so
    does a step that would sample more instants than there are events
    after the warmup.
    Snapshots are taken on the time grid (not at event indices): the state
    holding at each grid instant is an unbiased stationary draw, whereas
    event-indexed states follow the jump-chain law.
    """
    chain, span, g_avg, z_avg, grid = _run_coupled(
        lambda rng: InfServerChain(cfg, kind, rng), lambda c: (c.g, c.state.z),
        n_events, rng, warmup_events, g_sample_dt)
    nc = cfg.n_classes
    return InfServerReport(
        events=n_events,
        sim_time=span,
        ordering_checks=chain.checks,
        g_time_avg=g_avg,
        z_time_avg=z_avg,
        g_samples=[key[:nc] for key in grid],
    )


class MonotoneChain:
    """Primary policy state plus a larger shadow count vector Z' as a jump chain.

    The shadow has abandonment rates ``nu' <= nu``.  Its service allocation
    psi' mirrors the primary's servers and fills the remaining ones by
    ascending class index (:meth:`allocate_shadow`).  The rate table has
    four blocks of ``n_classes`` categories: coupled arrivals, primary
    service completions, primary abandonments (both followed by the shadow
    unless thinned, see :meth:`thinning_probability`), and shadow-only
    departures.  ``rates()`` builds the table; every jump then calls
    :meth:`allocate_shadow`, which can move psi' of every class, and in one
    pass over the classes checks ``Z <= Z'``, ``psi <= psi'``, ``Q <= Q'``
    and the primary's non-idling and rewrites each class's rates; the
    shadow's non-idling is checked last.
    """

    __slots__ = ("cfg", "nu_prime", "rng", "state", "zp", "psip", "checks",
                 "_nc", "_n_srv", "_rows", "_rates")

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
        # per class: its index, mu, nu, nu', and its slots in the death blocks
        self._rows = [(i, cfg.mus[i], cfg.nus[i], nu_prime[i], *range(nc + i, 4 * nc, nc))
                      for i in range(nc)]
        self._rates = list(cfg.arrival_rates) + [0.0] * (3 * nc)

    def allocate_shadow(self) -> tuple[int, int]:
        """Set psi' from psi and Z': mirror the primary, fill upward by class.

        Gives psi_i <= psi'_i <= Z'_i and sum(psi') = min(N, sum(Z')) while
        Z <= Z' holds coordinatewise.  Returns ``(sum(Z'), sum(psi))``, which
        :meth:`jump`'s checks reuse.
        """
        psi = self.state.psi
        zp = self.zp
        psip = self.psip
        n_srv = self._n_srv
        total = sum(zp)
        total_psi = sum(psi)
        rem = (total if total < n_srv else n_srv) - total_psi  # min() costs a call per event
        for i, pi in enumerate(psi):
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

    def rates(self) -> list[float]:
        z = self.state.z
        psi = self.state.psi
        zp = self.zp
        psip = self.psip
        r = self._rates
        for i, mu, nu, nup, svc, ab, shadow in self._rows:
            pi = psi[i]
            qi = z[i] - pi
            r[svc] = mu * pi
            r[ab] = nu * qi
            r[shadow] = nup * (zp[i] - psip[i] - qi) + mu * (psip[i] - pi)
        return r

    def jump(self, k: int) -> None:
        block, j = divmod(k, self._nc)
        st = self.state
        zp = self.zp
        if block == 0:  # coupled arrival
            st.apply_arrival(j, self.rng)
            zp[j] += 1
        elif block < 3:  # primary departure, followed by the shadow unless thinned
            p = self.thinning_probability(j)
            st.apply_departure(j, SERVICE if block == 1 else QUEUE, self.rng)
            if self.rng.random() >= p:
                zp[j] -= 1
        else:  # shadow-only departure
            zp[j] -= 1
        total, total_psi = self.allocate_shadow()
        self.checks += 1
        # one pass: check every ordering of the class and rewrite its rates
        n_srv = self._n_srv
        z = st.z
        psi = st.psi
        psip = self.psip
        r = self._rates
        idle = total_psi < n_srv
        for i, mu, nu, nup, svc, ab, shadow in self._rows:
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
            r[svc] = mu * pi
            r[ab] = nu * qi
            r[shadow] = nup * (qpi - qi) + mu * (ppi - pi)
        busy = sum(psip)
        if busy != (total if total < n_srv else n_srv):
            raise OrderingViolation(
                f"shadow idles: psi' sums to {busy}, not min(N, sum Z') = "
                f"min({n_srv}, {total}) (event {self.checks})"
            )


@dataclass(frozen=True)
class MonotoneReport:
    events: int
    sim_time: float
    ordering_checks: int
    z_time_avg: tuple[float, ...]
    z_prime_time_avg: tuple[float, ...]


def run_monotone_coupled(cfg: SystemConfig, nu_prime, kind: str, n_events: int,
                         rng, warmup_events: int = 0) -> MonotoneReport:
    """Drive the primary chain and its larger shadow with rates nu' <= nu.

    Asserts Z_i <= Z'_i, psi_i <= psi'_i, Q_i <= Q'_i, shadow non-idling, and
    the primary's own non-idling implication (idle servers force empty
    queues) after every event.  Z and Z' are time averaged over the
    post-warmup span by the occupancy measure of the pairs ``(Z, Z')``.
    """
    chain, span, z_avg, zp_avg, _ = _run_coupled(
        lambda rng: MonotoneChain(cfg, nu_prime, kind, rng), lambda c: (c.state.z, c.zp),
        n_events, rng, warmup_events)
    return MonotoneReport(
        events=n_events,
        sim_time=span,
        ordering_checks=chain.checks,
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
