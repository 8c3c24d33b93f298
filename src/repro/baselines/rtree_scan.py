"""R-tree + Scan: local density via an in-memory R-tree, δ via Scan (§6)."""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.labels import finalize
from repro.core.scan import delta_scan
from repro.core.types import DPCParams, DPCResult, check_points, tiebreak
from repro.index.rtree import RTree
from repro.par.spark_map import fan_out

__all__ = ["rtree_scan_dpc"]


def _rho_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    tree: RTree = p["tree"]
    pts, d_cut = p["pts"], p["d_cut"]
    ids = items["id"].to_numpy()
    rho = np.empty(len(ids), dtype=np.int64)
    nde = np.empty(len(ids), dtype=np.int64)
    for idx, i in enumerate(ids):
        before = tree.dist_evals
        rho[idx] = tree.range_count(pts[i], d_cut) - 1
        nde[idx] = tree.dist_evals - before
    return pd.DataFrame({"id": ids, "rho": rho, "nde": nde})


def rtree_scan_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    n_tasks: int | None = None,
    leaf_size: int = 64,
    chunk: int = 2048,
) -> DPCResult:
    """The R-tree + Scan baseline of the paper's evaluation."""
    points = check_points(points)
    n = len(points)
    t0 = time.perf_counter()
    tree = RTree(points, leaf_size=leaf_size)
    t_build = time.perf_counter() - t0

    t1 = time.perf_counter()
    out = fan_out(
        spark,
        _rho_kernel,
        pd.DataFrame({"id": np.arange(n, dtype=np.int64)}),
        "id long, rho long, nde long",
        {"tree": tree, "pts": points, "d_cut": params.d_cut},
        n_tasks=n_tasks,
    )
    rho = np.zeros(n, dtype=np.int64)
    rho[out["id"].to_numpy()] = out["rho"].to_numpy()
    nde = int(out["nde"].sum())
    t2 = time.perf_counter()

    key = rho + tiebreak(n, params.seed)
    delta, dep = delta_scan(points, key, spark=spark, n_tasks=n_tasks, chunk=chunk)
    t3 = time.perf_counter()
    centers, noise, labels = finalize(rho, delta, dep, params)
    t4 = time.perf_counter()
    return DPCResult(
        rho=rho,
        delta=delta,
        dep=dep,
        centers=centers,
        noise=noise,
        labels=labels,
        timings={
            "build": t_build,
            "rho": (t2 - t1) + t_build,
            "delta": t3 - t2,
            "assign": t4 - t3,
            "total": t4 - t0,
        },
        counters={"dist_evals": nde + n * n},
        memory_bytes=tree.memory_bytes(),
    )
