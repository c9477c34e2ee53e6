"""Outside-in tracing: spans around the public calls of each layer.

Nothing under ``src/`` knows about this tracer.  :meth:`Tracer.wrap`
prepares, for a bound method (or a stored callback) *of an instance the
harness built*, a closure that records one span per call;
:meth:`Tracer.enable` installs the closures on the instances and
:meth:`Tracer.disable` puts the originals back, so an untraced op runs the
program untouched.

A span is ``(id, name, start, end, parent id, op_id)``, kept in memory and
written out when the run ends.  Parents come from a per-thread stack of open spans;
a span opened on another thread with an empty stack (the gateway's event
loop serving the one frame in flight) is parented to the *bridge* span --
the driver's open ``TcpTransport.send``.  Self time is a span's duration
minus the part of its interval that its children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

_MISSING = object()
_NO_SPAN = nullcontext()

#: fields of a finished span (a tuple of atomics, which the cyclic GC does
#: not track: ten thousand spans must not lengthen the program's collections)
ID, NAME, START, END, PARENT, OP_ID = range(6)
Span = "tuple[int, str, float, float, int | None, int]"


class Tracer:
    """In-memory span recorder with install/uninstall of call wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        #: finished spans, in the order they ended
        self.spans: "list[Span]" = []
        #: identifier shared by every span of the wallet op in progress
        self.op_id = -1
        self._ids = itertools.count()
        self._stacks: "dict[int, list[list[Any]]]" = {}
        self._bridge: "list[Any] | None" = None
        self._bridge_thread = 0
        self._wrappers: "list[tuple[Any, str, Any, Any]]" = []

    # -- recording -------------------------------------------------------------

    def start(self, name: str, *, bridge: bool = False) -> "list[Any]":
        """Open a span; the returned handle goes to :meth:`finish`."""
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1][ID]
        elif self._bridge is not None and thread != self._bridge_thread:
            parent = self._bridge[ID]
        else:
            parent = None
        handle = [next(self._ids), name, self.clock(), parent, self.op_id]
        stack.append(handle)
        if bridge:
            self._bridge, self._bridge_thread = handle, thread
        return handle

    def finish(self, handle: "list[Any]") -> None:
        ended = self.clock()
        self._stacks[threading.get_ident()].pop()
        if handle is self._bridge:
            self._bridge = None
        span_id, name, started, parent, op_id = handle
        self.spans.append((span_id, name, started, ended, parent, op_id))

    def span(self, name: str) -> Any:
        """Context manager for harness-owned calls (a no-op when disabled)."""
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        handle = self.start(name)
        try:
            yield
        finally:
            self.finish(handle)

    # -- instrumentation of program instances -----------------------------------

    def wrap(self, target: Any, attribute: str, name: str, *, bridge: bool = False) -> None:
        """Prepare a span around ``target.attribute(...)``; :meth:`enable` installs it."""
        original = getattr(target, attribute)
        start, finish = self.start, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            handle = start(name, bridge=bridge)
            try:
                return original(*args, **kwargs)
            finally:
                finish(handle)

        previous = vars(target).get(attribute, _MISSING)
        self._wrappers.append((target, attribute, traced, previous))

    def enable(self) -> None:
        """Install every prepared wrapper and start recording."""
        for target, attribute, traced, _ in self._wrappers:
            setattr(target, attribute, traced)
        self.enabled = True

    def disable(self) -> None:
        """Put the program's own attributes back: it runs untouched again."""
        for target, attribute, _, previous in self._wrappers:
            if previous is _MISSING:
                delattr(target, attribute)
            else:
                setattr(target, attribute, previous)
        self.enabled = False

    # -- export ------------------------------------------------------------------

    def export(self) -> "list[dict[str, Any]]":
        """Spans as JSON-ready dicts, in start order; ``parent`` is a span id."""
        return [
            {"id": span[ID], "name": span[NAME], "start": span[START], "end": span[END],
             "parent": span[PARENT], "op_id": span[OP_ID]}
            for span in sorted(self.spans)
        ]


def covered(intervals: "list[tuple[float, float]]", low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: "list[Span]") -> "list[float]":
    """Self time per span: duration minus what its children cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(children.get(span[ID], []), span[START], span[END])
        for span in spans
    ]


class StageTable:
    """Exact per-name sums over a set of spans: count, total and self time."""

    def __init__(self, spans: "list[Span]") -> None:
        self.count: "dict[str, int]" = {}
        self.total: "dict[str, float]" = {}
        self.self_time: "dict[str, float]" = {}
        #: total duration by (name, parent name) -- e.g. WAL appends under commit
        self.under: "dict[tuple[str, str | None], float]" = {}
        self.root_total = 0.0
        names = {span[ID]: span[NAME] for span in spans}
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            duration = span[END] - span[START]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            key = (name, names.get(span[PARENT]))
            self.under[key] = self.under.get(key, 0.0) + duration
            if span[PARENT] is None:
                self.root_total += duration
