"""In-memory span recorder for the traced benchmark pass.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` the index of the benchmark
operation it belongs to, which plays the role of a request id.  Spans are
appended to flat arrays while the pass runs and written out once at the
end.  Self time is a span's duration minus the time its direct children
cover; with one thread, children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes."""

    op_index = -1

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_index = -1

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_index)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _finish(self, idx: int, t0: float, t1: float) -> None:
        self.start[idx] = t0
        self.end[idx] = t1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(self._intern(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._finish(idx, t0, perf_counter())

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(args, result, exc)``
        runs after the span closes, for counters taken from the call."""
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._finish(idx, t0, perf_counter())
                if observe is not None:
                    observe(args, None, exc)
                raise
            self._finish(idx, t0, perf_counter())
            if observe is not None:
                observe(args, result, None)
            return result

        return traced

    def install(self, targets) -> None:
        """Replace ``module.attr`` by a traced wrapper for each
        (module, attr, span name, observer) target."""
        for module, attr, name, observe in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def count_children(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        if child not in self._ids or parent not in self._ids:
            return 0
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        mask = (nid == self._ids[child]) & (par >= 0)
        return int(np.count_nonzero(nid[par[mask]] == self._ids[parent]))

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
