"""Hierarchical span tracing: a latency tree instead of flat timers.

A :class:`Span` is one timed region of work with a name, wall-clock
start/end, a flat attribute payload, and child spans.  The
:class:`SpanTracer` hands out spans as context managers and maintains
the enter/exit stack, so nesting follows lexical structure: whatever
span is open when a new one starts becomes its parent, across module
boundaries (a ``plan`` span opened by a planner adopts the ``solve``
span opened later by the LP backend, because both hang off the same
:class:`~repro.obs.instrument.Instrumentation`).

The same None-collapses-to-no-op discipline as
:func:`~repro.obs.instrument.maybe_timer` applies:
:func:`maybe_span` returns the shared :data:`NULL_SPAN` singleton when
instrumentation is disabled, so the disabled path allocates nothing.

The clock is injectable (default ``time.perf_counter``) so tests can
assert exact durations instead of sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator

from repro.errors import ObservabilityError


class Span:
    """One timed region: name, wall time, attributes, children.

    Spans are context managers; entering starts the clock and attaches
    the span to the tracer's currently open span (or the root list),
    exiting stops it.  ``duration_s`` is valid once exited (and is the
    elapsed-so-far for a still-open span).  The span adopts the
    ``attributes`` dict it is given rather than copying it.
    """

    __slots__ = ("name", "attributes", "start_s", "end_s", "children",
                 "span_id", "_tracer", "_tree_size")

    def __init__(
        self, name: str, attributes: dict | None = None, tracer=None
    ) -> None:
        self.name = name
        self.attributes: dict = {} if attributes is None else attributes
        self.start_s = 0.0
        self.end_s: float | None = None
        self.children: list[Span] = []
        self.span_id = 0  # assigned by the tracer on first enter
        self._tracer = tracer
        self._tree_size = 0  # retained spans in a root's tree; 0: dropped

    # -- timing ---------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Wall seconds covered (elapsed-so-far while still open)."""
        if self.end_s is not None:
            return self.end_s - self.start_s
        if self._tracer is not None:
            return self._tracer.clock() - self.start_s
        return 0.0

    def self_s(self) -> float:
        """Duration not covered by direct children (own work)."""
        return self.duration_s - sum(c.duration_s for c in self.children)

    # -- attributes -----------------------------------------------------
    def annotate(self, **attributes) -> "Span":
        """Attach (or overwrite) attribute values; returns the span."""
        self.attributes.update(attributes)
        return self

    # -- context management --------------------------------------------
    def __enter__(self) -> "Span":
        if self._tracer is None:
            raise ObservabilityError(
                f"span {self.name!r} is detached (restored from a dump?)"
                " and cannot be re-entered"
            )
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)

    # -- traversal ------------------------------------------------------
    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Depth-first (self, depth) pairs over the subtree."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        try:
            span = cls(data["name"], dict(data.get("attributes", {})))
            span.span_id = int(data.get("span_id", 0))
            span.start_s = float(data["start_s"])
            end = data.get("end_s")
            span.end_s = None if end is None else float(end)
            span.children = [
                cls.from_dict(child) for child in data.get("children", [])
            ]
            return span
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed span dump: {exc}") from exc

    def __repr__(self) -> str:
        state = f"{self.duration_s * 1e3:.3f}ms" if self.finished else "open"
        return (
            f"Span({self.name!r}, {state}, children={len(self.children)})"
        )


class _OpenSpans(threading.local):
    """One open-span stack per thread."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


class SpanTracer:
    """Hands out spans and maintains one open-span stack per thread.

    A span nests under the innermost span open *on its own thread*, so
    concurrent requests handled on separate threads of one tracer each
    start their own root tree.  The retained trees, the capacity and
    the span-id sequence are shared by all threads.

    Parameters
    ----------
    clock:
        Monotonic seconds source (default ``time.perf_counter``);
        injectable so tests assert exact durations.
    capacity:
        Maximum retained spans across all trees.  Beyond it, new spans
        still time their region (so control flow never changes) but are
        not attached to the tree; ``dropped`` reports how many.
    mode:
        ``"block"`` (default) stops attaching once full — the original
        behaviour, right for bounded runs where the warm-up matters.
        ``"ring"`` keeps the *newest* spans instead: when full, the
        oldest finished root trees are evicted (and counted in
        ``dropped``) to make room, which is what a long-running service
        wants for slow-request forensics.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int = 8192,
        mode: str = "block",
    ) -> None:
        if capacity < 1:
            raise ObservabilityError("span tracer capacity must be >= 1")
        if mode not in ("block", "ring"):
            raise ObservabilityError(
                f"span tracer mode must be 'block' or 'ring' (got {mode!r})"
            )
        self.clock = clock or time.perf_counter
        self.capacity = capacity
        self.mode = mode
        self.roots: list[Span] = []
        self.retained = 0
        self.dropped = 0
        self._open = _OpenSpans()
        self._next_span_id = 1

    def span(self, name: str, **attributes) -> Span:
        """A fresh span, attached to the current open span on enter."""
        return Span(name, attributes, tracer=self)

    @property
    def current(self) -> Span | None:
        """The innermost span open on this thread, if any."""
        stack = self._open.stack
        return stack[-1] if stack else None

    @property
    def open_spans(self) -> tuple[Span, ...]:
        """This thread's open-span stack, outermost first (read-only
        view)."""
        return tuple(self._open.stack)

    # -- stack mechanics (driven by Span.__enter__/__exit__) -----------
    def _enter(self, span: Span) -> None:
        span.start_s = self.clock()
        span.end_s = None
        if span.span_id == 0:
            span.span_id = self._next_span_id
            self._next_span_id += 1
        stack = self._open.stack
        if self.retained >= self.capacity and self.mode == "ring":
            self._evict()
        if self.retained >= self.capacity or (
            stack and not stack[-1]._tree_size
        ):
            # full, or the parent was dropped: a child of a dropped span
            # could never be reached from a root, so it is dropped too
            self.dropped += 1
        else:
            self.retained += 1
            span._tree_size = 1
            if stack:
                stack[-1].children.append(span)
                stack[0]._tree_size += 1
            else:
                self.roots.append(span)
        stack.append(span)

    def _evict(self) -> None:
        """Drop the oldest finished root trees until one span fits.

        Open trees (anything unfinished) are never evicted — if only open trees remain, the new span is
        dropped instead, same as block mode.  A root's tree size is
        counted as its spans attach, so eviction never walks a tree.
        """
        roots = self.roots
        index = 0
        while self.retained >= self.capacity and index < len(roots):
            root = roots[index]
            if root.end_s is None:
                index += 1
                continue
            del roots[index]
            self.retained -= root._tree_size
            self.dropped += root._tree_size

    def _exit(self, span: Span) -> None:
        span.end_s = self.clock()
        stack = self._open.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            # tolerate out-of-order exits (generators, manual use): pop
            # through to the span
            while stack.pop() is not span:
                pass

    # -- inspection -----------------------------------------------------
    @property
    def total_recorded(self) -> int:
        return self.retained + self.dropped

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Depth-first (span, depth) pairs over every retained tree."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All retained spans with the given name, in tree order."""
        return [span for span, __ in self.walk() if span.name == name]

    def __len__(self) -> int:
        return self.retained

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "mode": self.mode,
            "dropped": self.dropped,
            "roots": [root.to_dict() for root in self.roots],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanTracer":
        try:
            tracer = cls(
                capacity=int(data.get("capacity", 8192)),
                mode=str(data.get("mode", "block")),
            )
            tracer.roots = [
                Span.from_dict(root) for root in data.get("roots", [])
            ]
            for root in tracer.roots:
                root._tree_size = sum(1 for __ in root.walk())
            tracer.retained = sum(root._tree_size for root in tracer.roots)
            tracer.dropped = int(data.get("dropped", 0))
            tracer._next_span_id = 1 + max(
                (span.span_id for root in tracer.roots
                 for span, __ in root.walk()),
                default=0,
            )
            return tracer
        except (TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"malformed span tracer dump: {exc}"
            ) from exc


class _NullSpan:
    """Shared do-nothing span (and timer) for the disabled path."""

    __slots__ = ()
    name = ""
    attributes: dict = {}
    children: tuple = ()
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    elapsed = 0.0  # doubles as the no-op timer (``NULL_TIMER``)
    finished = True
    span_id = 0

    def annotate(self, **attributes) -> "_NullSpan":
        return self

    def self_s(self) -> float:
        return 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        # fixed arity: cheaper to call than ``*exc_info`` packing
        return None


NULL_SPAN = _NullSpan()
"""The singleton no-op span; the disabled path allocates nothing
(tests assert identity against this object)."""


def maybe_span(instrumentation, name: str, **attributes):
    """``instrumentation.span(name, ...)``, or the shared no-op span."""
    if instrumentation is None:
        return NULL_SPAN
    return Span(name, attributes, instrumentation.spans)
