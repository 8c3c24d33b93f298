"""Span recorder and layer wrappers, installed from outside the program.

The program has no tracing of its own, so entering a :class:`Tracer`
replaces the public functions of each layer with timing wrappers and
leaving it puts the originals back. Functions are patched under every name a
``repro`` module bound them to (``from repro.par.spark_map import
run_tasks`` makes a local name in each algorithm module); classes are
patched on the class itself, which every importer shares.

Spark runs the task kernels in separate Python worker processes, which
driver-side wrappers cannot reach. The ``run_tasks`` wrapper therefore
wraps the kernel argument itself: the worker times each call and returns
the start and end as two extra columns, which the wrapper strips again.
``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
worker times land on the driver's time line.

Span names are ``<layer>:<operation>``. Spans carry name, start, end,
parent and call id; they stay in memory until :meth:`Recorder.dump`.
"""
from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from repro.core import depexact, distutil, labels
from repro.index.grid import UniformGrid
from repro.index.kdtree import IncrementalKDTree, KDTree
from repro.par import partition, spark_map

_PATCHED_MODULES = (
    "repro.par",
    "repro.par.spark_map",
    "repro.par.partition",
    "repro.core.distutil",
    "repro.core.depexact",
    "repro.core.labels",
    "repro.core.exdpc",
    "repro.core.approx_dpc",
    "repro.core.s_approx_dpc",
)
_T0_COL, _T1_COL = "_bench_t0", "_bench_t1"
# Layers that own spans; "kernel" is the algorithms' own task-kernel code
# and "call" the algorithm driver code between layer calls.
LAYERS = (
    "par.spark_map",
    "par.partition",
    "index.kdtree",
    "index.grid",
    "core.distutil",
    "core.depexact",
    "core.labels",
    "kernel",
)


class Recorder:
    """In-memory spans plus per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent, call id]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.call = -1

    def begin(self, name: str, start: float | None = None) -> int:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(
            [nid, time.perf_counter() if start is None else start, None, parent, self.call]
        )
        self._stack.append(idx)
        return idx

    def end(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = time.perf_counter() if end is None else end
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span under the current one (a worker-side kernel)."""
        self.end(self.begin(name, start), end)

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the union of its children's intervals.

        Children of a Spark stage run in parallel and may overlap, so
        coverage is the union, not the sum.
        """
        spans = self.spans
        kids: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            kids[span[3]].append(i)
        out = np.empty(len(spans))
        for i, (_, s, e, _, _) in enumerate(spans):
            covered = 0.0
            cur_s = cur_e = None
            for k in sorted(kids.get(i, ()), key=lambda k: spans[k][1]):
                ks, ke = max(spans[k][1], s), min(spans[k][2], e)
                if ke <= ks:
                    continue
                if cur_e is not None and ks <= cur_e:
                    cur_e = max(cur_e, ke)
                    continue
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = ks, ke
            if cur_e is not None:
                covered += cur_e - cur_s
            out[i] = (e - s) - covered
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write every span, the counters and ``extra`` as gzipped JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "span_fields": ["name", "start", "end", "parent", "call"],
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            **extra,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _wrap(rec: Recorder, name: str, fn, after=None):
    """``fn`` inside a span; ``after(args, kwargs, result)`` updates counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _count_hits(counts, range_query):
    """Ids returned and distance evaluations made by ``KDTree.range_query``."""

    @functools.wraps(range_query)
    def wrapper(tree, *args, **kwargs):
        before = tree.dist_evals
        out = range_query(tree, *args, **kwargs)
        counts["kdtree.range_query.ids"] += len(out)
        counts["kdtree.range_query.dist_evals"] += tree.dist_evals - before
        return out

    return wrapper


def _timed_kernel(kernel):
    """Kernel wrapper shipped to the Spark workers.

    It must stay self-contained: cloudpickle sends this closure by value,
    and the workers cannot import the benchmark's modules.
    """

    def timed(pdf):
        t0 = time.perf_counter()
        out = kernel(pdf)
        t1 = time.perf_counter()
        out[_T0_COL] = t0
        out[_T1_COL] = t1
        return out

    return timed


def _serial_kernel(rec: Recorder, kernel):
    def timed(pdf):
        idx = rec.begin("kernel:task")
        try:
            return kernel(pdf)
        finally:
            rec.end(idx)

    return timed


class Tracer:
    """Installs the layer wrappers; use as a context manager."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list = []
        self.stages: list[dict] = []  # one per Spark run_tasks call

    # -- install / uninstall -------------------------------------------

    def _patch_attr(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_name(self, original, new) -> None:
        """Rebind ``original`` to ``new`` wherever a repro module bound it."""
        for modname in _PATCHED_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch_attr(mod, attr, new)

    def __enter__(self):
        rec, counts = self.rec, self.rec.counts

        def count_sq(args, kwargs, out):
            counts["sq_dists.pairs"] += out.size

        def count_dep(args, kwargs, out):
            counts["depexact.queries"] += len(args[2])

        def count_grid(args, kwargs, out):
            counts["grid.cells"] += args[0].m

        for original, name, after in (
            (distutil.sq_dists, "core.distutil:sq_dists", count_sq),
            (depexact.exact_dependent, "core.depexact:exact_dependent", count_dep),
            (labels.finalize, "core.labels:finalize", None),
        ):
            self._patch_name(original, _wrap(rec, name, original, after))
        self._patch_name(partition.lpt_assign, self._wrap_lpt(partition.lpt_assign))
        self._patch_name(spark_map.run_tasks, self._wrap_run_tasks(spark_map.run_tasks))
        for owner, attr, name, after in (
            (spark_map.Shared, "__init__", "par.spark_map:broadcast", None),
            (UniformGrid, "__init__", "index.grid:build", count_grid),
            (KDTree, "__init__", "index.kdtree:build", None),
            (KDTree, "range_count", "index.kdtree:range_count", None),
            (KDTree, "nn_with_bound", "index.kdtree:nn_with_bound", None),
            (IncrementalKDTree, "insert", "index.kdtree:ikdtree_insert", None),
            (IncrementalKDTree, "nn", "index.kdtree:ikdtree_nn", None),
        ):
            self._patch_attr(owner, attr, _wrap(rec, name, owner.__dict__[attr], after))
        self._patch_attr(
            KDTree,
            "range_query",
            _wrap(rec, "index.kdtree:range_query", _count_hits(counts, KDTree.range_query)),
        )
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)
        return False

    # -- the par layer ---------------------------------------------------

    def _wrap_lpt(self, fn):
        rec, stages = self.rec, self.stages

        @functools.wraps(fn)
        def wrapper(costs, n_tasks):
            idx = rec.begin("par.partition:lpt_assign")
            try:
                assign = fn(costs, n_tasks)
            finally:
                rec.end(idx)
            loads = np.bincount(assign, weights=np.asarray(costs, dtype=np.float64))
            loads = loads[loads > 0]
            if stages and len(loads):
                stages[-1]["pred_imbalance"] = float(loads.max() / loads.mean())
            return assign

        return wrapper

    def _wrap_run_tasks(self, fn):
        rec, stages = self.rec, self.stages

        @functools.wraps(fn)
        def wrapper(spark, kernel, items, out_schema, **kw):
            if spark is None or len(items) == 0:
                idx = rec.begin("par.spark_map:run_tasks")
                try:
                    return fn(spark, _serial_kernel(rec, kernel), items, out_schema, **kw)
                finally:
                    rec.end(idx)
            stage = {"pred_imbalance": None}
            stages.append(stage)
            idx = rec.begin("par.spark_map:run_tasks")
            try:
                out = fn(
                    spark,
                    _timed_kernel(kernel),
                    items,
                    f"{out_schema}, {_T0_COL} double, {_T1_COL} double",
                    **kw,
                )
                tasks = out[[_T0_COL, _T1_COL]].drop_duplicates().to_numpy()
                for t0, t1 in tasks:
                    rec.add("kernel:task", float(t0), float(t1))
            finally:
                rec.end(idx)
            span = rec.spans[idx]
            task_s = tasks[:, 1] - tasks[:, 0]
            stage.update(
                wall_s=span[2] - span[1],
                task_s_sum=float(task_s.sum()),
                task_s_max=float(task_s.max()),
                imbalance=float(task_s.max() / task_s.mean()),
            )
            return out.drop(columns=[_T0_COL, _T1_COL])

        return wrapper


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]
