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
Those two lists are the whole state of the priority kinds.  A FIFO event
splits into two halves: the queue half, which :meth:`FifoState.draw` hands
out as a callable that changes the queue and returns the event's outcome
(the class of the head a freed server takes, or 0), and the count half,
a function of the counts and that outcome.  ``apply_arrival`` and
``apply_departure`` given an ``outcome`` apply the count half only, and
called without one they run the queue half first, so the whole event
follows one set of rules either way; a priority state ignores
``outcome``, its whole event being the count half.  The jump kernel runs
the queue half on every event and the count half once per (state,
category) and outcome (see :func:`hwq.simulate.jumps`).

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
from functools import partial

from .errors import EmptySource, Unsupported
from .model import SystemConfig

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

    def draw(self, cls: int, source: str | None = None, rng=None) -> None:
        return None  # no queue order: every event is its count half

    def apply_arrival(self, cls: int, rng=None, outcome=None) -> "PreemptivePriorityState":
        self.z[cls] += 1
        self._realloc()
        return self

    def apply_departure(self, cls: int, source: str, rng=None,
                        outcome=None) -> "PreemptivePriorityState":
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

    def draw(self, cls: int, source: str | None = None, rng=None) -> None:
        return None  # no queue order: every event is its count half

    def apply_arrival(self, cls: int, rng=None, outcome=None) -> "NonPreemptivePriorityState":
        self.z[cls] += 1
        if sum(self.psi) < self.cfg.n_servers:
            self.psi[cls] += 1
        return self

    def apply_departure(self, cls: int, source: str, rng=None,
                        outcome=None) -> "NonPreemptivePriorityState":
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
    __slots__ = ("cfg", "z", "psi", "queue", "_draws")

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        self.z = [0] * cfg.n_classes
        self.psi = [0] * cfg.n_classes
        self.queue: deque[int] = deque()
        self._draws = None

    def copy(self) -> "FifoState":
        new = object.__new__(FifoState)
        new.cfg = self.cfg
        new.z = list(self.z)
        new.psi = list(self.psi)
        new.queue = deque(self.queue)
        new._draws = None
        return new

    def _join(self, cls: int) -> int:
        """Queue half of an arrival to a full system."""
        self.queue.append(cls)
        return 0

    def _leave(self, cls: int, rng) -> int:
        """Queue half of an abandonment: a uniformly chosen queued customer
        of the class leaves."""
        if rng is None:
            raise ValueError(
                "FIFO abandonment needs an rng: the leaving customer is "
                "uniform among the queued customers of its class"
            )
        queue = self.queue
        j = rng.randrange(queue.count(cls))
        for pos, label in enumerate(queue):
            if label == cls:
                if j == 0:
                    del queue[pos]
                    break
                j -= 1
        return 0

    def draw(self, cls: int, source: str | None = None, rng=None):
        """The queue half of an event of class ``cls`` at the current state:
        an arrival when ``source`` is None, else a departure from
        ``source``.  None where the event leaves the queue alone (an
        arrival that finds a free server, a service completion with nobody
        waiting); otherwise ``(draw, outcomes)``, where ``draw()`` changes
        the queue and returns the outcome, an index below ``outcomes``: the
        class of the head that takes the freed server on a service
        completion (``popleft``), 0 on an arrival or an abandonment.  The
        draws are built once per state and ``rng``, not per call."""
        if source == SERVICE:
            if not self.queue:
                return None
        elif source is None and sum(self.psi) < self.cfg.n_servers:
            return None
        draws = self._draws
        if draws is None or draws[0] is not rng:
            classes = range(len(self.z))
            draws = self._draws = (rng, [partial(self._join, i) for i in classes],
                                   [partial(self._leave, i, rng) for i in classes],
                                   self.queue.popleft)
        if source == SERVICE:
            return draws[3], len(self.z)
        return draws[1 if source is None else 2][cls], 1

    def apply_arrival(self, cls: int, rng=None, outcome=None) -> "FifoState":
        psi = self.psi
        free = sum(psi) < self.cfg.n_servers
        if outcome is None and not free:
            self._join(cls)
        self.z[cls] += 1
        if free:
            psi[cls] += 1
        return self

    def apply_departure(self, cls: int, source: str, rng=None, outcome=None) -> "FifoState":
        z = self.z
        psi = self.psi
        if source == SERVICE:
            if psi[cls] < 1:
                raise EmptySource(f"no class-{cls} customer in service")
            if outcome is None and self.queue:
                outcome = self.queue.popleft()
            z[cls] -= 1
            psi[cls] -= 1
            if outcome is not None:  # the head takes the freed server
                psi[outcome] += 1
        elif source == QUEUE:
            if z[cls] - psi[cls] < 1:
                raise EmptySource(f"no class-{cls} customer in queue")
            if outcome is None:
                self._leave(cls, rng)
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

