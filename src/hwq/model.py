"""System parameters, macro states, and diffusion scaling.

A system is a pool of ``n_servers = ceil(r + a*sqrt(r))`` identical servers
fed by independent Poisson flows: class ``i`` arrives at rate ``lam_i * r``,
is served at rate ``mu_i``, and abandons from the queue at rate ``nu_i``.
The offered loads ``rho_i = lam_i / mu_i`` must sum to one, which places the
system in the Halfin-Whitt regime: utilization ``1 - a/(sqrt(r)+a)``.

Scaled observables center counts at ``rho_i * r`` and divide by ``sqrt(r)``.
Because ``n_servers`` is rounded up, the spare capacity actually realized is
``a_eff = (n_servers - sum_i rho_i*r)/sqrt(r) >= a``; all closed-form drift
identities in :mod:`hwq.verify` are exact with ``a_eff`` (and ``a_eff == a``
whenever ``r + a*sqrt(r)`` is an integer, e.g. perfect-square ``r`` with
integer ``a``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidRate, NonUnitLoad

LOAD_TOL = 1e-9


@dataclass(frozen=True)
class ClassParams:
    """Rates of one customer class. ``lam`` is per unit of the scale r."""

    lam: float
    mu: float
    nu: float = 0.0

    def validate(self, where: str = "") -> None:
        """Raise InvalidRate, its message prefixed by where, for a rate out of
        range or not finite (NaN fails every comparison)."""
        if not 0.0 < self.lam < math.inf:
            raise InvalidRate(f"{where}arrival rate must be positive and finite, got {self.lam}")
        if not 0.0 < self.mu < math.inf:
            raise InvalidRate(f"{where}service rate must be positive and finite, got {self.mu}")
        if not 0.0 <= self.nu < math.inf:
            raise InvalidRate(f"{where}abandonment rate must be >= 0 and finite, got {self.nu}")

    @property
    def rho(self) -> float:
        return self.lam / self.mu


@dataclass(frozen=True)
class SystemConfig:
    """Validated system: classes, scale r, spare capacity a, server count.

    Immutable after construction; safe to share read-only across threads.
    Derived arrays are precomputed once because the simulators read them in
    tight loops.
    """

    classes: tuple[ClassParams, ...]
    r: float
    a: float
    n_servers: int
    # derived, filled in __post_init__
    arrival_rates: tuple[float, ...] = field(init=False, repr=False)
    mus: tuple[float, ...] = field(init=False, repr=False)
    nus: tuple[float, ...] = field(init=False, repr=False)
    rho: tuple[float, ...] = field(init=False, repr=False)
    rho_r: tuple[float, ...] = field(init=False, repr=False)
    rho_r_total: float = field(init=False, repr=False)
    sqrt_r: float = field(init=False, repr=False)
    a_eff: float = field(init=False, repr=False)
    lam_total: float = field(init=False, repr=False)
    mu_min: float = field(init=False, repr=False)
    mu_max: float = field(init=False, repr=False)
    nu_min: float = field(init=False, repr=False)
    nu_max: float = field(init=False, repr=False)

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "arrival_rates", tuple(c.lam * self.r for c in self.classes))
        set_(self, "mus", tuple(c.mu for c in self.classes))
        set_(self, "nus", tuple(c.nu for c in self.classes))
        set_(self, "rho", tuple(c.rho for c in self.classes))
        set_(self, "rho_r", tuple(c.rho * self.r for c in self.classes))
        set_(self, "rho_r_total", sum(c.rho * self.r for c in self.classes))
        set_(self, "sqrt_r", math.sqrt(self.r))
        set_(self, "a_eff", (self.n_servers - self.rho_r_total) / math.sqrt(self.r))
        set_(self, "lam_total", sum(c.lam for c in self.classes))
        set_(self, "mu_min", min(c.mu for c in self.classes))
        set_(self, "mu_max", max(c.mu for c in self.classes))
        set_(self, "nu_min", min(c.nu for c in self.classes))
        set_(self, "nu_max", max(c.nu for c in self.classes))

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def build_config(classes, r: float, a: float) -> SystemConfig:
    """Validate parameters and fix the server count ``ceil(r + a*sqrt(r))``.

    Raises :class:`InvalidRate` for a rate, ``r`` or ``a`` out of range or
    not finite, and :class:`NonUnitLoad` when ``sum(lam_i/mu_i)`` strays
    from 1 by more than ``LOAD_TOL``.  The load condition is enforced
    rather than assumed: silent drift in the utilization would invalidate
    every downstream bound.  A message starts with the argument it names:
    ``classes[i]: ``, ``r: ``...
    """
    classes = tuple(classes)
    if not classes:
        raise InvalidRate("classes: at least one customer class is required")
    for i, c in enumerate(classes):
        c.validate(f"classes[{i}]: ")
    if not 1.0 <= r < math.inf:
        raise InvalidRate(f"r: scale r must be >= 1 and finite, got {r}")
    if not 0.0 < a < math.inf:
        raise InvalidRate(f"a: spare capacity a must be > 0 and finite, got {a}")
    load = sum(c.rho for c in classes)
    if abs(load - 1.0) > LOAD_TOL:
        raise NonUnitLoad(
            f"classes: sum of offered loads must be 1 within {LOAD_TOL}, got {load!r} "
            f"(rho = {[c.rho for c in classes]!r})"
        )
    n_servers = math.ceil(r + a * math.sqrt(r))
    return SystemConfig(classes=classes, r=float(r), a=float(a), n_servers=n_servers)


def central_counts(cfg: SystemConfig) -> tuple[int, ...]:
    """The counts ``z_i = round(rho_i * r)`` of the central state, their
    total capped at ``n_servers`` by lowering the last classes, so that no
    customer waits in it."""
    counts, room = [], cfg.n_servers
    for load in cfg.rho_r:
        counts.append(min(round(load), room))
        room -= counts[-1]
    return tuple(counts)


def nominal_utilization(cfg: SystemConfig) -> float:
    """Offered work per server: ``sum_i lam_i*r/mu_i / n_servers``.

    Equals ``1 - a/(sqrt(r)+a)`` when ``r + a*sqrt(r)`` is an integer.
    """
    return cfg.rho_r_total / cfg.n_servers


@dataclass(frozen=True)
class MacroState:
    """Per-class counts in system (z) and in service (psi); q = z - psi."""

    z: tuple[int, ...]
    psi: tuple[int, ...]


def _sum_classes(A: np.ndarray) -> np.ndarray:
    """Row sums of ``A`` (n_states, n_classes), the class columns added in
    order: bit for bit ``A.sum(axis=1)`` below 8 classes, where numpy adds
    them in the same order, without its per-row reduction overhead."""
    if A.shape[1] >= 8:  # numpy sums 8 or more in blocks, in another order
        return A.sum(axis=1)
    total = A[:, 0] + 0  # numpy's sum starts from 0, which turns -0.0 into 0.0
    for column in A.T[1:]:
        total += column
    return total


class ScaledArrays:
    """Diffusion-scaled observables of an array of macro states (one per row).

    ``phi_hat`` is the scaled workload ``sum_i z_hat_i / mu_i`` and ``z_hat_a
    = min(z_hat_total, a_eff)``.  Entries are 1-d float arrays of length
    n_states except ``z_hat``, which is (n_states, n_classes).  Each is
    computed on first use and kept, so a caller pays only for those it
    reads.
    """

    def __init__(self, Z: np.ndarray, PSI: np.ndarray, cfg: SystemConfig):
        self._Z, self._PSI, self._cfg = Z, PSI, cfg

    @cached_property
    def z_hat(self) -> np.ndarray:
        return (self._Z - np.asarray(self._cfg.rho_r)) / self._cfg.sqrt_r

    @cached_property
    def z_hat_total(self) -> np.ndarray:
        return _sum_classes(self.z_hat)

    @cached_property
    def phi_hat(self) -> np.ndarray:
        return _sum_classes(self.z_hat / np.asarray(self._cfg.mus))

    @cached_property
    def q_hat(self) -> np.ndarray:
        return _sum_classes(self._Z - self._PSI) / self._cfg.sqrt_r

    @cached_property
    def z_hat_a(self) -> np.ndarray:
        return np.minimum(self.z_hat_total, self._cfg.a_eff)

    @cached_property
    def sum_z_hat_plus(self) -> np.ndarray:
        return _sum_classes(np.maximum(self.z_hat, 0.0))

    @cached_property
    def sum_z_hat_minus(self) -> np.ndarray:
        return _sum_classes(np.maximum(-self.z_hat, 0.0))


def scale_arrays(Z: np.ndarray, PSI: np.ndarray, cfg: SystemConfig) -> ScaledArrays:
    """Scaled observables for ``Z``/``PSI`` of shape (n_states, n_classes),
    each computed when first read."""
    return ScaledArrays(Z, PSI, cfg)
