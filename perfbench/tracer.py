"""Span tracer that wraps lrcirc's layer boundaries from outside the package.

Modules import each other's functions by name, so a wrapper has to replace
the name the *caller* looks up (``lrcirc.lab.evaluate_batch``, not only
``lrcirc.circuits.evaluate_batch``).  Every wrapper records a span with its
layer name, start, end, parent span and op id.  Spans are strictly nested
(one client thread), so a span's self time is its duration minus the summed
durations of its direct children.

Hot leaves (scalar ``evaluate``, the per-mask TV tally) run hundreds of
thousands of times per op; for those the wrapper keeps only a call count and
a time total and charges the duration to the parent's child time, so memory
stays bounded while self times still add up to each op's wall time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, op)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # [span id, name, start, child time]
        self._op = None
        self._patched: list[tuple] = []

    # -- op scope -----------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self._op = op_id
        self._push("bench")

    def end_op(self) -> None:
        """Close the op's root span."""
        self._pop()
        self._op = None

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    # -- spans --------------------------------------------------------------

    def _push(self, name: str) -> None:
        self.counts[name + ".calls"] += 1
        self._stack.append([len(self.spans) + len(self._stack), name, _clock(), 0.0])

    def _pop(self) -> None:
        sid, name, start, child = self._stack.pop()
        end = _clock()
        dur = end - start
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, name, start, end, parent[0] if parent else None, self._op))

    def _leaf(self, name: str, dur: float) -> None:
        self.self_s[name] += dur
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][3] += dur

    # -- patching -----------------------------------------------------------

    def wrap(self, module, attr: str, layer: str, on_return=None,
             leaf: bool = False) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``layer`` is a span name or a callable of the call's (args, kwargs)
        returning one; ``on_return(args, kwargs, result)`` adds counts.
        """
        fn = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            if leaf:
                t0 = _clock()
                result = fn(*args, **kwargs)
                tracer._leaf(name, _clock() - t0)
            else:
                tracer._push(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._patched.append((module, attr, fn, wrapper))
        setattr(module, attr, wrapper)

    def patch(self) -> None:
        """Put every wrapper (back) in place."""
        for module, attr, _fn, wrapper in self._patched:
            setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        """Restore the original functions; patch() reinstalls the wrappers."""
        for module, attr, fn, _wrapper in reversed(self._patched):
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
