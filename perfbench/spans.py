"""Span tracing from outside the program, for the traced benchmark run.

The tracer replaces public functions of ``daydrift`` with wrappers that
record one span per call: name, start, end, parent span, operation id and
benchmark phase.  ``engine`` and ``cli`` import functions by name
(``from .ledger import record_fill``), so a wrapper is bound on every
``daydrift`` module that holds the original object, not only on the module
that defines it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gc
import gzip
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, path argument) of each traced public function.  A
# dotted attribute is a method on a class.  When the third entry is an index,
# that positional argument is a file whose size counts as the layer's bytes.
LAYERS = (
    ("config", "load_config", None),
    ("config", "ScenarioConfig.build", None),
    ("engine", "run_sim", None),
    ("engine", "simulate", None),
    ("engine", "run_day", None),
    ("engine", "day_rng", None),
    ("engine", "summarize", None),
    ("engine", "write_daily_csv", 1),
    ("engine", "read_daily_csv", 0),
    ("engine", "run_sweep", None),
    ("ledger", "record_fill", None),
    ("ledger", "mark_to_market", None),
    ("analysis", "PriceSeries.from_day_records", None),
    ("analysis", "decompose", None),
    ("analysis", "ingest_ohlc_csv", None),
    ("analysis", "write_decomposition_csv", None),
    ("cli", "main", None),
)


class Tracer:
    """Spans in flat arrays, which the garbage collector does not scan."""

    def __init__(self):
        self.names: list[str] = [""]
        self.op_ids, self.name_ids, self.parents, self.phase_ids = (array("q") for _ in range(4))
        self.starts, self.ends = array("d"), array("d")
        self.stack = [-1]
        self.op = -1
        self.phase = 0
        self.bytes: dict[str, int] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        i = len(self.starts)
        self.op_ids.append(self.op)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.phase_ids.append(self.phase)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, size_arg):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                if size_arg is not None and len(args) > size_arg:
                    self.bytes[name] = self.bytes.get(name, 0) + os.stat(args[size_arg]).st_size

        return traced

    @contextmanager
    def span(self, name: str, phase: str | None = None):
        """Record a benchmark-side span; ``phase`` labels every span inside it."""
        saved_phase = self.phase
        if phase is not None:
            self.phase = self._name_id(phase)
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)
            self.phase = saved_phase

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def install(self) -> None:
        """Wrap every traced function at every ``daydrift`` binding site."""
        modules = [m for n, m in list(sys.modules.items()) if n == "daydrift" or n.startswith("daydrift.")]
        for module_name, attr, size_arg in LAYERS:
            module = sys.modules.get(f"daydrift.{module_name}")
            if module is None:
                continue
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                raw = vars(owner).get(meth) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, size_arg))
                else:
                    new = self._wrap(raw, name, size_arg)
                self._patches.append((owner, meth, raw, new))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, name, size_arg)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig, wrapped))
        for owner, key, _, new in self._patches:
            setattr(owner, key, new)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, key, orig, _ in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    @contextmanager
    def active(self, op: int):
        """Trace one benchmark operation: wrappers on, spans tagged with ``op``."""
        self.op = op
        self.install()
        try:
            with self.span("bench.op"):
                yield
        finally:
            self.uninstall()
            self.op = -1

    def table(self) -> dict[str, np.ndarray]:
        """Span columns as arrays, with duration and self time in seconds."""
        names = np.array(self.names, dtype=object)
        parent = np.array(self.parents, dtype=np.int64)
        start = np.array(self.starts, dtype=float)
        dur = np.array(self.ends, dtype=float) - start
        child = np.zeros(len(start))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "op": np.array(self.op_ids, dtype=np.int64),
            "name": names[np.array(self.name_ids, dtype=np.int64)],
            "phase": names[np.array(self.phase_ids, dtype=np.int64)],
            "dur": dur,
            "self": dur - child,
        }

    def write(self, path) -> None:
        """Spans as gzipped CSV: times in microseconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = zip(self.op_ids, self.parents, self.name_ids, self.phase_ids, self.starts, self.ends)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,op,parent,name,phase,start_us,end_us\n")
            for i, (op, parent, nid, pid, start, end) in enumerate(rows):
                fh.write(f"{i},{op},{parent},{self.names[nid]},{self.names[pid]},"
                         f"{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f}\n")
