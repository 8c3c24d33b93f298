"""Ex-DPC (§3): exact DPC via a kd-tree.

* Local density: kd-tree range counts, in parallel. The paper runs one
  count per point under OpenMP ``schedule(dynamic)`` because per-point
  cost, O(n^{1-1/d} + ρ_i), is unknowable up front. Here the work unit
  is a *leaf block*: the points of one kd-tree leaf share one tree walk
  and one distance-kernel call (``KDTree.range_block``), so each point
  is checked against the candidates of its block's bounding box. LPT
  weighs the blocks by leaf size and deals them into one task group per
  core, run as a single Spark wave (``par.spark_map``); a second wave of
  tasks would cost more than the imbalance it removes. ρ still comes from
  ``sq_dists``, so it is bit-identical to the reference's.

* Dependent points: the paper's incremental construction — sort by
  descending (jittered) density, then for each point run an NN query on
  a kd-tree containing exactly the higher-density points, inserting the
  point afterwards. This is *inherently sequential* (the paper proves it
  cannot be parallelized) and runs on the driver. δ is then recomputed
  from (point, dependent point) with the shared distance kernel, so it
  is bit-identical to the reference's.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.distutil import paired_sq_dists
from repro.core.labels import finalize
from repro.core.types import DPCParams, DPCResult, check_points, tiebreak
from repro.index.kdtree import IncrementalKDTree, KDTree
from repro.par.spark_map import fan_out

__all__ = ["ex_dpc", "rho_kdtree"]


def _rho_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    tree: KDTree = p["tree"]
    pts, bounds, d_cut = p["pts"], p["bounds"], p["d_cut"]
    a_id, a_rho, a_nde = [], [], []
    for k in items["leaf"].to_numpy():
        ids = tree.perm[bounds[k] : bounds[k + 1]]
        cand, within = tree.range_block(pts[ids], d_cut)
        a_id.append(ids)
        a_rho.append(np.count_nonzero(within, axis=1) - 1)  # exclude self
        a_nde.append(np.full(len(ids), len(cand), dtype=np.int64))
    return pd.DataFrame(
        {"id": np.concatenate(a_id), "rho": np.concatenate(a_rho), "nde": np.concatenate(a_nde)}
    )


def rho_kdtree(
    points: np.ndarray,
    tree: KDTree,
    d_cut: float,
    *,
    spark=None,
    n_tasks: int | None = None,
) -> tuple[np.ndarray, int]:
    """All local densities of ``points``, the points ``tree`` indexes:
    one block range search per leaf of ``tree``.

    Returns (rho, dist_evals).
    """
    bounds = tree.leaf_bounds()
    out = fan_out(
        spark,
        _rho_kernel,
        pd.DataFrame({"leaf": np.arange(len(bounds) - 1, dtype=np.int64)}),
        "id long, rho long, nde long",
        {"tree": tree, "pts": points, "bounds": bounds, "d_cut": d_cut},
        costs=np.diff(bounds),
        n_tasks=n_tasks,
    )
    rho = np.zeros(len(points), dtype=np.int64)
    rho[out["id"].to_numpy()] = out["rho"].to_numpy()
    return rho, int(out["nde"].sum())


def ex_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    n_tasks: int | None = None,
    leaf_size: int = 32,
) -> DPCResult:
    """Exact DPC: kd-tree range counts + incremental-kd-tree NN (§3)."""
    points = check_points(points)
    n, d = points.shape
    t0 = time.perf_counter()
    tree = KDTree(points, leaf_size=leaf_size)
    t_build = time.perf_counter() - t0

    t1 = time.perf_counter()
    rho, nde_rho = rho_kdtree(
        points, tree, params.d_cut, spark=spark, n_tasks=n_tasks
    )
    t2 = time.perf_counter()

    key = rho + tiebreak(n, params.seed)
    # Sequential dependent-point phase (driver): destroy K, re-insert in
    # descending density order, NN query against the partial tree.
    order = np.argsort(-key, kind="stable")
    coords = points.tolist()
    itree = IncrementalKDTree(d)
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    for rank in range(n):
        i = int(order[rank])
        if rank > 0:
            j, dist = itree.nn(coords[i])
            dep[i] = j
            delta[i] = dist
        itree.insert(i, coords[i])
    # The NN search sums squares in its own order; recompute δ with the
    # shared kernel so it is bit-identical to every other exact algorithm.
    has_dep = dep >= 0
    delta[has_dep] = np.sqrt(paired_sq_dists(points[has_dep], points[dep[has_dep]]))
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
            "rho": (t2 - t1) + t_build,  # Table 6 counts online index build
            "delta": t3 - t2,
            "assign": t4 - t3,
            "total": t4 - t0,
        },
        counters={"dist_evals": nde_rho + itree.dist_evals},
        memory_bytes=tree.memory_bytes() + itree.memory_bytes(),
    )
