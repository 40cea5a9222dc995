"""Spans recorded from outside the package, one per call into a layer.

`Tracer.install` replaces each traced function, in every ``qschmidt``
module that binds it, with a wrapper that records a span: name, start,
end, parent span and the id of the operation it belongs to.  Calls the
package makes internally go through the same module bindings, so a call
to ``schmidt`` gets a child span for its ``amplitudes`` call.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path

import numpy as np

from common import now_ns

_FIELDS = 5  # name id, start ns, end ns, parent span index (-1: root), op id


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans = array("q")
        self._stack: list = []
        self.op = 0
        self._saved: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        """Open a span; return its index for `end`."""
        spans = self.spans
        idx = len(spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        spans.extend((self.name_id(name), 0, 0, parent, self.op))
        self._stack.append(idx)
        spans[idx * _FIELDS + 1] = now_ns()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx * _FIELDS + 2] = now_ns()
        self._stack.pop()

    def new_op(self) -> None:
        self.op += 1

    def _wrapper(self, fn, name, name_of):
        tracer, spans, stack = self, self.spans, self._stack
        fixed = self.name_id(name)

        # `begin` and `end`, inlined: this runs on every traced call.
        def traced(*args, **kwargs):
            nid = fixed if name_of is None else tracer.name_id(name_of(args, kwargs))
            idx = len(spans) // _FIELDS
            spans.extend((nid, now_ns(), 0, stack[-1] if stack else -1, tracer.op))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx * _FIELDS + 2] = now_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap each ``(function, span name, name_of)`` target wherever a
        ``qschmidt`` module binds it.  ``name_of(args, kwargs)``, when given,
        names the span from the call's arguments."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qschmidt" or key.startswith("qschmidt.")]
        for fn, name, name_of in targets:
            wrapper = self._wrapper(fn, name, name_of)
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"traced function for {name} is not bound "
                                   "in any qschmidt module")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def summary(self, root: str | None = None) -> dict:
        """``{name: (calls, total ns, self ns)}`` over every span, or over
        the spans of ops whose root span is named ``root``."""
        a = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        names, parent, op = a[:, 0], a[:, 3], a[:, 4]
        dur = (a[:, 2] - a[:, 1]).astype(np.float64)
        has_parent = parent >= 0
        self_ns = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                    minlength=len(a))
        keep = np.ones(len(a), dtype=bool)
        if root is not None:
            is_root = ~has_parent & (names == self._ids.get(root, -1))
            keep = np.isin(op, op[is_root])
        out = {}
        for nid, name in enumerate(self.names):
            mask = keep & (names == nid)
            if mask.any():
                out[name] = (int(mask.sum()), float(dur[mask].sum()),
                             float(self_ns[mask].sum()))
        return out

    def write(self, path: Path) -> None:
        """Write every span, with the name table, as a compressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        a = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        np.savez_compressed(path, spans=a, names=np.array(self.names),
                            fields=np.array(["name", "start_ns", "end_ns",
                                             "parent", "op"]))
