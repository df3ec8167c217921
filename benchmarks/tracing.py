"""In-memory span tracer and the pass-through wrappers it installs.

A span has a name, a start, an end and a parent.  Every span is
aggregated per name into a call count, a total duration and a self
time, which is all that is kept of micro-spans (calls made millions of
times per run, such as ``_phi_mask``); coarse spans (the public calls a
workload makes) are also kept whole, to be written out at the end.
Self time is the span's duration minus the time covered by its child
spans.

Nothing here edits ``sudogen``: :func:`installed` swaps module and class
attributes for wrappers and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time


class HookError(RuntimeError):
    """A function the tracer is to wrap is missing from the program."""


def _hooked(owner, attr: str):
    fn = vars(owner).get(attr)
    if fn is None:
        raise HookError(f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: no such attribute")
    return fn


class Tracer:
    """Single-threaded span recorder.

    ``clock`` is injectable so tests can drive the self-time arithmetic
    with synthetic timestamps.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, child_time, span_id, whole]
        self.totals = {}  # name -> [count, total_s, self_s]
        self.spans = []  # coarse spans: (span_id, name, start, end, parent_id)
        self._next_id = 0

    def enter(self, name: str, whole: bool = False) -> None:
        self._next_id += 1
        self.stack.append([name, self.clock(), 0.0, self._next_id, whole])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_time, span_id, whole = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_time
        if whole:
            self.spans.append(
                (span_id, name, start, end, parent[3] if parent is not None else None)
            )

    @contextlib.contextmanager
    def span(self, name: str, whole: bool = False):
        self.enter(name, whole)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, fn, name: str):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def wrap_attr(self, owner, attr: str, name: str) -> tuple:
        """``(owner, attr, wrapper)`` for :func:`installed`.  Raises
        :class:`HookError` when ``owner`` has no such attribute, so that a
        renamed function fails the traced run instead of reading zero."""
        return owner, attr, self.wrap(_hooked(owner, attr), name)

    def count(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def mean_s(self, name: str) -> float:
        count = self.count(name)
        return self.total_s(name) / count if count else 0.0

    def dump(self) -> dict:
        return {
            "aggregates": {
                name: {"count": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p}
                for i, n, a, b, p in self.spans
            ],
        }


class StackProbe:
    """Counts ``DisjointStack`` candidates per layer and restart waste.

    Wraps ``try_push`` (one span per candidate, bucketed by the stack
    depth it was offered at) and ``clear`` (a full restart: every
    candidate since the last restart was wasted).  ``new_run`` marks the
    start of a ``gen_sudoku`` call, which builds a fresh stack.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.per_layer = {}
        self.accepted = 0
        self.wasted = 0
        self.restarts = 0
        self._since_restart = 0

    def new_run(self) -> None:
        self._since_restart = 0

    def patch(self, stack_cls) -> list:
        """Replacements for :func:`installed`; :class:`HookError` if
        ``stack_cls`` lacks either method."""
        push, clear = _hooked(stack_cls, "try_push"), _hooked(stack_cls, "clear")
        enter, exit_ = self.tracer.enter, self.tracer.exit
        per_layer = self.per_layer
        probe = self

        @functools.wraps(push)
        def try_push(stack, layer):
            depth = len(stack.layers)
            enter("sudoku.try_push")
            try:
                ok = push(stack, layer)
            finally:
                exit_()
            per_layer[depth + 1] = per_layer.get(depth + 1, 0) + 1
            probe._since_restart += 1
            if ok:
                probe.accepted += 1
            return ok

        @functools.wraps(clear)
        def clear_(stack):
            probe.wasted += probe._since_restart
            probe._since_restart = 0
            probe.restarts += 1
            enter("sudoku.clear")
            try:
                return clear(stack)
            finally:
                exit_()

        return [(stack_cls, "try_push", try_push), (stack_cls, "clear", clear_)]


@contextlib.contextmanager
def installed(replacements):
    """Temporarily set ``(owner, attr, value)`` triples; always restore."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
