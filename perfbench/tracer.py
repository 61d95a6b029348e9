"""Per-layer tracing of clusterlab from outside the package.

The tracer wraps public functions of the package modules and records, per
layer metric name, the number of calls and the self time (span duration
minus the time covered by traced calls nested inside it).  Spans are
aggregated in memory as they close; nothing is written until the caller
asks for the numbers.

A module that did ``from .laurent import try_div_exact`` holds its own
reference to the function, so patching only the defining module would
leave those calls uncounted.  ``install`` therefore replaces every
reference to the original object in every loaded module and in the
listed classes, and ``restore`` puts each one back.

``LaurentPoly.__hash__`` and ``__eq__`` stay unwrapped on purpose: they
run tens of thousands of times per exchange graph, a wrapper would
inflate the traced run noticeably, and their cost shows up in the self
time of whichever traced caller ran them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional


class Tracer:
    """Counts calls and self time per layer metric name, plus free counters."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: dict[str, float] = {}
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self.open: Counter[str] = Counter()
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[["Tracer", tuple, object], None]] = None) -> Callable:
        """A function that behaves like ``fn`` and records a span named ``name``.

        ``after(tracer, args, result)`` runs once the span has closed, so
        its own cost lands in the caller's self time, not in ``name``'s.
        """
        self.self_s.setdefault(name, 0.0)
        child_time = self._child_time
        calls, self_s, open_ = self.calls, self.self_s, self.open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            open_[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_[name] -= 1
                nested = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - nested
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def install(self, targets, classes=()) -> None:
        """Wrap each ``(name, original, after)`` target wherever it is bound.

        Every module in ``sys.modules`` and every class in ``classes`` is
        searched for attributes that are the original object; each one is
        replaced by the same wrapper.  Raises if a target is bound nowhere.
        """
        namespaces = _namespaces(classes)
        for name, original, after in targets:
            wrapped = self.wrap(name, original, after)
            found = False
            for owner in namespaces:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapped)
                        self._patches.append((owner, attr, original))
                        found = True
            if not found:
                raise LookupError(f"{name}: the traced function is bound nowhere")

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _namespaces(classes) -> list:
    modules = [m for m in list(sys.modules.values()) if hasattr(m, "__dict__")]
    return modules + list(classes)


def bindings(objects, classes=()) -> list[str]:
    """Every ``module.attr`` or ``Class.attr`` bound to one of ``objects``."""
    wanted = {id(obj) for obj in objects}
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in _namespaces(classes)
        for attr, value in list(vars(owner).items())
        if id(value) in wanted
    ]
