"""Self-time tracing by wrapping public functions from outside the program.

A :class:`Tracer` replaces chosen functions (module attributes or class
attributes) with timing wrappers, keeps a stack of open spans and charges
each span its *self* time: its duration minus the time its traced
children covered.  Counts are taken at the same boundaries by optional
hooks that read the wrapped call's arguments and result.

Every wrapper's own bookkeeping (the clock reads, the stack push and pop,
the count hook) is charged to ``overhead`` rather than to the caller, so

    sum(self times) + overhead + unattributed == traced wall time

holds by construction for the roots the benchmark times with
:meth:`Tracer.root`: it is a check on the bookkeeping, not a measurement.
``unattributed`` is what no wrapper saw; since the root call itself is
wrapped, that is only the call dispatch into it.

:meth:`Tracer.restore` puts every original back, and :meth:`restored`
says whether every planned attribute again holds what it held when it
was planned.  :attr:`Tracer.roots` counts the root calls the tracer saw,
so the benchmark can check that every call it timed in a traced window
went through the tracer.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

CountHook = Callable[[Dict[str, float], tuple, dict, Any], None]

_clock = time.perf_counter


def _current(owner: object, attr: str) -> object:
    """``owner.attr`` as stored: a class's own entry, unbound."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Self-time accounting over wrapped functions."""

    def __init__(self) -> None:
        #: Metric name -> accumulated self time in seconds.
        self.self_s: Dict[str, float] = {}
        #: Metric name -> number of calls.
        self.calls: Dict[str, int] = {}
        #: Work counts recorded by hooks (name -> running total).
        self.counts: Dict[str, float] = {}
        #: Wrapper bookkeeping time (clock reads, hooks).
        self.overhead_s = 0.0
        #: Wall time of every root, by root name.
        self.wall_s: Dict[str, float] = {}
        #: Root time no wrapper covered, by root name.
        self.unattributed_s: Dict[str, float] = {}
        #: Number of root calls, by root name.
        self.roots: Dict[str, int] = {}
        # Each open span is a one-element list accumulating the time its
        # children covered; the bottom entry belongs to the active root.
        self._stack: List[List[float]] = [[0.0]]
        self._patches: List[Tuple[object, str, object]] = []
        self._plan: List[Tuple[object, str, str, Optional[CountHook]]] = []
        self._planned_values: List[object] = []

    # -- wrapping ------------------------------------------------------

    def add(
        self,
        owner: object,
        attr: str,
        metric: str,
        count: Optional[CountHook] = None,
    ) -> None:
        """Plan to trace ``owner.attr`` under ``metric`` (see :meth:`install`)."""
        self._plan.append((owner, attr, metric, count))
        self._planned_values.append(_current(owner, attr))

    def install(self) -> None:
        """Wrap every planned function; :meth:`restore` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, metric, count in self._plan:
            original = _current(owner, attr)
            if isinstance(original, classmethod):
                patched: object = classmethod(
                    self._wrap(original.__func__, metric, count)
                )
            elif isinstance(original, staticmethod):
                patched = staticmethod(
                    self._wrap(original.__func__, metric, count)
                )
            else:
                patched = self._wrap(original, metric, count)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Whether every planned attribute holds its value from :meth:`add`."""
        return all(
            _current(owner, attr) is value
            for (owner, attr, _m, _c), value
            in zip(self._plan, self._planned_values)
        )

    @property
    def targets(self) -> List[Tuple[object, str]]:
        """``(owner, attribute)`` of every planned wrapper."""
        return [(owner, attr) for owner, attr, _m, _c in self._plan]

    @property
    def installed(self) -> bool:
        """Whether wrappers are currently in place."""
        return bool(self._patches)

    def _wrap(
        self, fn: Callable, metric: str, count: Optional[CountHook]
    ) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        self_s.setdefault(metric, 0.0)
        calls.setdefault(metric, 0)

        def traced(*args, **kwargs):
            t0 = _clock()
            frame = [0.0]
            stack.append(frame)
            t1 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = _clock()
                stack.pop()
            self_s[metric] += (t2 - t1) - frame[0]
            calls[metric] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            t3 = _clock()
            stack[-1][0] += t3 - t0
            self.overhead_s += (t3 - t0) - (t2 - t1)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- roots ---------------------------------------------------------

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as a timed root; returns ``(result, seconds)``."""
        base = self._stack[0]
        base[0] = 0.0
        t0 = _clock()
        result = fn(*args, **kwargs)
        elapsed = _clock() - t0
        self.wall_s[name] = self.wall_s.get(name, 0.0) + elapsed
        self.unattributed_s[name] = (
            self.unattributed_s.get(name, 0.0) + elapsed - base[0]
        )
        self.roots[name] = self.roots.get(name, 0) + 1
        return result, elapsed

    def accounting_error(self) -> float:
        """|wall - (self + overhead + unattributed)| as a share of wall."""
        wall = sum(self.wall_s.values())
        if wall <= 0.0:
            return 0.0
        covered = (
            sum(self.self_s.values()) + self.overhead_s
            + sum(self.unattributed_s.values())
        )
        return abs(wall - covered) / wall
