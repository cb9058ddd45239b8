"""Detailed Markov states for three non-idling scheduling policies.

Priority order is descending class index: class ``n_classes - 1`` has the
highest priority.  The three kinds:

* ``preemptive_priority`` -- detailed state is the count vector ``z`` alone;
  the service allocation is the unique one that serves higher classes first
  (an arrival of a high class may push a served low-class customer back to
  the queue).
* ``nonpreemptive_priority`` -- detailed state is ``(z, psi)``; a freed
  server takes the highest-priority waiting customer, running services are
  never interrupted.
* ``fifo`` -- detailed state is ``(psi, queue)``: per-class counts in
  service and the labels of waiting customers in arrival order.  A freed
  server takes the queue head.

States are mutable values: ``apply_arrival`` / ``apply_departure`` update in
place and return the state, and every kind keeps live per-class ``z`` and
``psi`` lists.  One simulation owns one state; use ``copy()`` to branch.

A FIFO service completion draws no random number: served customers are
exchangeable, so which one leaves does not change the law of what follows.
Queued customers are not exchangeable, because their order decides who is
served next, so a FIFO abandonment removes a uniformly chosen queued
customer of its class and needs an ``rng``; without one it raises
``ValueError``.  Removing the earliest one instead would change the
stationary law of ``(z, psi)``.
"""

from __future__ import annotations

from collections import deque

from .errors import EmptySource, Unsupported
from .model import MacroState, SystemConfig

PREEMPTIVE = "preemptive_priority"
NONPREEMPTIVE = "nonpreemptive_priority"
FIFO = "fifo"
KINDS = (PREEMPTIVE, NONPREEMPTIVE, FIFO)

SERVICE = "service"
QUEUE = "queue"

class PreemptivePriorityState:
    """Count vector z; psi is recomputed from z after every change."""

    kind = PREEMPTIVE
    __slots__ = ("cfg", "z", "psi")

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        self.z = [0] * cfg.n_classes
        self.psi = [0] * cfg.n_classes

    def copy(self) -> "PreemptivePriorityState":
        new = object.__new__(PreemptivePriorityState)
        new.cfg = self.cfg
        new.z = list(self.z)
        new.psi = list(self.psi)
        return new

    def _realloc(self) -> None:
        # highest class index first; remaining servers go down the order
        rem = self.cfg.n_servers
        z = self.z
        psi = self.psi
        for i in range(len(z) - 1, -1, -1):
            s = z[i]
            if s > rem:
                s = rem
            psi[i] = s
            rem -= s

    def set_counts(self, z) -> None:
        self.z = list(z)
        self._realloc()

    def project(self) -> MacroState:
        return MacroState(z=tuple(self.z), psi=tuple(self.psi))

    def apply_arrival(self, cls: int, rng=None) -> "PreemptivePriorityState":
        self.z[cls] += 1
        self._realloc()
        return self

    def apply_departure(self, cls: int, source: str, rng=None) -> "PreemptivePriorityState":
        if source == SERVICE:
            if self.psi[cls] < 1:
                raise EmptySource(f"no class-{cls} customer in service")
        elif source == QUEUE:
            if self.z[cls] - self.psi[cls] < 1:
                raise EmptySource(f"no class-{cls} customer in queue")
        else:
            raise ValueError(f"unknown source {source!r}")
        self.z[cls] -= 1
        self._realloc()
        return self


class NonPreemptivePriorityState:
    """Counts (z, psi); freed servers take the highest waiting class."""

    kind = NONPREEMPTIVE
    __slots__ = ("cfg", "z", "psi")

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        self.z = [0] * cfg.n_classes
        self.psi = [0] * cfg.n_classes

    def copy(self) -> "NonPreemptivePriorityState":
        new = object.__new__(NonPreemptivePriorityState)
        new.cfg = self.cfg
        new.z = list(self.z)
        new.psi = list(self.psi)
        return new

    def set_counts(self, z, psi) -> None:
        self.z = list(z)
        self.psi = list(psi)

    def project(self) -> MacroState:
        return MacroState(z=tuple(self.z), psi=tuple(self.psi))

    def apply_arrival(self, cls: int, rng=None) -> "NonPreemptivePriorityState":
        self.z[cls] += 1
        if sum(self.psi) < self.cfg.n_servers:
            self.psi[cls] += 1
        return self

    def apply_departure(self, cls: int, source: str, rng=None) -> "NonPreemptivePriorityState":
        z = self.z
        psi = self.psi
        if source == SERVICE:
            if psi[cls] < 1:
                raise EmptySource(f"no class-{cls} customer in service")
            z[cls] -= 1
            psi[cls] -= 1
            # refill with the highest-priority waiting customer, if any
            for j in range(len(z) - 1, -1, -1):
                if z[j] - psi[j] > 0:
                    psi[j] += 1
                    break
        elif source == QUEUE:
            if z[cls] - psi[cls] < 1:
                raise EmptySource(f"no class-{cls} customer in queue")
            z[cls] -= 1
        else:
            raise ValueError(f"unknown source {source!r}")
        return self


class FifoState:
    """Per-class counts (z, psi) plus the labels of waiting customers in
    arrival order; the queue head takes the next freed server."""

    kind = FIFO
    __slots__ = ("cfg", "z", "psi", "queue")

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        self.z = [0] * cfg.n_classes
        self.psi = [0] * cfg.n_classes
        self.queue: deque[int] = deque()

    def copy(self) -> "FifoState":
        new = object.__new__(FifoState)
        new.cfg = self.cfg
        new.z = list(self.z)
        new.psi = list(self.psi)
        new.queue = deque(self.queue)
        return new

    def project(self) -> MacroState:
        return MacroState(z=tuple(self.z), psi=tuple(self.psi))

    def apply_arrival(self, cls: int, rng=None) -> "FifoState":
        self.z[cls] += 1
        if sum(self.psi) < self.cfg.n_servers:
            self.psi[cls] += 1
        else:
            self.queue.append(cls)
        return self

    def apply_departure(self, cls: int, source: str, rng=None) -> "FifoState":
        z = self.z
        psi = self.psi
        queue = self.queue
        if source == SERVICE:
            if psi[cls] < 1:
                raise EmptySource(f"no class-{cls} customer in service")
            z[cls] -= 1
            psi[cls] -= 1
            if queue:
                psi[queue.popleft()] += 1
        elif source == QUEUE:
            if z[cls] - psi[cls] < 1:
                raise EmptySource(f"no class-{cls} customer in queue")
            if rng is None:
                raise ValueError(
                    "FIFO abandonment needs an rng: the leaving customer is "
                    "uniform among the queued customers of its class"
                )
            j = rng.randrange(z[cls] - psi[cls])
            for pos, label in enumerate(queue):
                if label == cls:
                    if j == 0:
                        del queue[pos]
                        break
                    j -= 1
            z[cls] -= 1
        else:
            raise ValueError(f"unknown source {source!r}")
        return self


PolicyState = PreemptivePriorityState | NonPreemptivePriorityState | FifoState

_CLASSES = {
    PREEMPTIVE: PreemptivePriorityState,
    NONPREEMPTIVE: NonPreemptivePriorityState,
    FIFO: FifoState,
}


def init_state(cfg: SystemConfig, kind: str) -> PolicyState:
    """Empty system for the given policy kind."""
    try:
        return _CLASSES[kind](cfg)
    except KeyError:
        raise Unsupported(f"unknown policy kind {kind!r}; valid: {KINDS}") from None

