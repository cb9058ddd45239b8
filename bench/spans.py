"""In-memory spans around calls into each hwq layer, installed from outside.

The CLI binds layer functions with ``from ... import``, so a wrapper has to
replace the name in the calling module: ``hwq.cli`` for the calls a command
makes, ``hwq.verify`` for the calls the checks and the sweep make.  Per-event
functions (policy operations, ``step``, ``sample_event``) are never wrapped;
the microbenchmarks in :mod:`micro` measure them.

Wrapped calls keep their arguments and results until the traced run ends, so
counters (states, nnz, iterations, events) are computed after the timed part
and add nothing to the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# module -> {attribute: span name}; the span name's prefix is the layer
TARGETS = {
    "hwq.cli": {
        "parse_config": "cli.parse_config",
        "enumerate_states": "exact.enumerate",
        "build_generator": "exact.build",
        "stationary": "exact.solve",
        "drift_identity_check": "verify.drift_identity",
        "drift_bounds_abandon_check": "verify.abandon_bounds",
        "generator_identity_check": "verify.generator_identity",
        "sweep": "verify.sweep",
        "batch_means_multi": "simulate.estimator",
        "run_infserver_coupled": "coupling.runner",
        "run_monotone_coupled": "coupling.runner",
    },
    "hwq.verify": {
        "enumerate_states": "exact.enumerate",
        "build_generator": "exact.build",
        "stationary": "exact.solve",
        "abar_vector": "exact.abar",
        "batch_means_multi": "simulate.estimator",
    },
}


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass(frozen=True)
class WrappedCall:
    """One wrapped call: its span name, bound arguments and result."""

    name: str
    args: dict
    result: object


class Tracer:
    """Collects spans and wrapped calls in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[WrappedCall] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls.append(WrappedCall(name, dict(bound.arguments), result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every target name by its wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attrs in TARGETS.items():
                module = importlib.import_module(module_name)
                for attr, span_name in attrs.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time: duration minus what children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo = max(c.start, cursor)
                hi = min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def results(self, name: str) -> list[WrappedCall]:
        return [c for c in self.calls if c.name == name]
