"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's public functions by
replacing the function on its module (or class) for the length of one traced
repeat. Every caller in the package resolves these names through module
globals or class attributes at call time, so the replacement sees every call
without any edit to the package.

Each span holds its name, start, end, parent span, run id and, for
`neural_core.forward`, the number of input rows. Spans live in flat arrays
until the benchmark ends and writes them out.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NO_PARENT = -1


class UsedGrads(list):
    """Gradient list returned by a traced `backward`; counts itself as used
    the first time anything reads its entries (`adam_step` does, and so does
    `grad_check` for its analytic side, while the finite-difference probes
    only read the loss and drop the gradients unread)."""

    def _mark(self) -> None:
        if not self.used:
            self.used = True
            self.recorder.used_backwards += 1

    def __iter__(self):
        self._mark()
        return super().__iter__()

    def __getitem__(self, index):
        self._mark()
        return super().__getitem__(index)


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.rows = array("i")
        self._stack = [NO_PARENT]
        self.run_id = -1
        self.used_backwards = 0
        self.backwards = 0
        self._targets: list[tuple[object, str, str]] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, rows: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name), 0)
        try:
            yield
        finally:
            self._close(idx)

    def target(self, owner, attr: str, name: str) -> None:
        """Register `owner.attr` to be traced under `name` while installed."""
        self.name_id(name)
        self._targets.append((owner, attr, name))

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        if name == "neural_core.forward":
            def traced(net, trunk_input, *args, **kwargs):
                idx = self._open(nid, 1 if np.ndim(trunk_input) == 1 else len(trunk_input))
                try:
                    return fn(net, trunk_input, *args, **kwargs)
                finally:
                    self._close(idx)
        elif name == "neural_core.backward":
            def traced(*args, **kwargs):
                idx = self._open(nid, 0)
                try:
                    grads = UsedGrads(fn(*args, **kwargs))
                finally:
                    self._close(idx)
                grads.used = False
                grads.recorder = self
                self.backwards += 1
                return grads
        else:
            def traced(*args, **kwargs):
                idx = self._open(nid, 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        return traced

    def install(self, run_id: int) -> None:
        """Start recording spans under `run_id`."""
        self.run_id = run_id
        for owner, attr, name in self._targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "rows": np.frombuffer(self.rows, dtype=np.int32),
        }

    def write(self, path: str) -> None:
        np.savez(path, **self.arrays())


class SpanTable:
    """Per-run totals over recorded spans, keyed by span name."""

    def __init__(self, rec: SpanRecorder) -> None:
        a = rec.arrays()
        self.names = rec.names
        self.runs = sorted(set(a["run"].tolist()))
        n = len(a["start"])
        dur = a["end"] - a["start"]
        parent = a["parent"]
        nested = parent != NO_PARENT
        # One thread records every span and spans nest properly, so a span's
        # children never overlap and the time they cover is their sum.
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self._a = a
        self._dur = dur
        self._self = dur - child
        parent_name = np.full(n, -1)
        parent_name[nested] = a["name"][parent[nested]]
        self._parent_name = parent_name

    def _per_run(self, weights: np.ndarray, mask: np.ndarray) -> list[float]:
        run = self._a["run"]
        return [float(weights[mask & (run == r)].sum()) for r in self.runs]

    def _mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self._dur), dtype=bool)
        mask = self._a["name"] == self.names.index(name)
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            mask &= self._parent_name == pid
        return mask

    def total_s(self, name: str, parent: str | None = None) -> list[float]:
        return self._per_run(self._dur, self._mask(name, parent))

    def self_s(self, name: str) -> list[float]:
        return self._per_run(self._self, self._mask(name))

    def calls(self, name: str, parent: str | None = None) -> list[float]:
        return self._per_run(np.ones(len(self._dur)), self._mask(name, parent))

    def rows(self, name: str, parent: str | None = None) -> list[float]:
        return self._per_run(self._a["rows"].astype(float), self._mask(name, parent))

    def child_share(self, root: str) -> list[float]:
        """Share of each `root` span's duration covered by its direct children."""
        rid = self.names.index(root)
        root_mask = self._a["name"] == rid
        under = self._parent_name == rid
        return [
            c / d if d > 0 else 0.0
            for c, d in zip(self._per_run(self._dur, under), self._per_run(self._dur, root_mask))
        ]
