"""Spans around calls into gpstack, recorded from outside the package.

A wrapper is installed at the name each caller looks up: ``from ... import``
binds a function into every importing module, so ``gpstack.training``'s
``fit_histogram`` must be replaced in ``gpstack.training``, not in
``gpstack.binning``.  Spans are kept in flat arrays while the traced code
runs; self times and per-name totals are computed once, at the end.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end and
    an optional row count.  A span's self time is its duration minus the
    durations of its direct children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.rows.append(0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, rows: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.rows[idx] = rows
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``observe(args, kwargs, result)`` returns the span's row count.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            rows = 0
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    rows = observe(args, kwargs, out)
                return out
            finally:
                tracer.finish(idx, rows)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, dict]:
        """Per-name ``calls``, ``total_s``, ``self_s`` and ``rows`` over the
        spans ``first`` to ``last`` (a command's spans are contiguous)."""
        last = len(self.start) if last is None else last
        names = np.frombuffer(self.name_of, dtype=np.int32)[first:last]
        parents = np.frombuffer(self.parent, dtype=np.int32)[first:last] - first
        dur = (np.frombuffer(self.end, dtype=np.float64)[first:last]
               - np.frombuffer(self.start, dtype=np.float64)[first:last])
        rows = np.frombuffer(self.rows, dtype=np.int64)[first:last]
        inner = parents >= 0
        child = np.bincount(parents[inner], weights=dur[inner], minlength=dur.size)
        self_s = dur - child
        k = len(self.names)
        out = {}
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_s, minlength=k)
        nrows = np.bincount(names, weights=rows, minlength=k)
        for i, name in enumerate(self.names):
            if calls[i]:
                out[name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                             "self_s": float(own[i]), "rows": int(nrows[i])}
        return out
