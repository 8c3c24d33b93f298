"""Exact dependent-point computation over density-sorted subsets (§4.3).

Used by Approx-DPC for the (small) set P' of points whose approximate
dependent point could not be decided in O(1), and by S-Approx-DPC as its
large-|P'_pick| fallback.

P is sorted ascending by (jittered) density and split into s equal
subsets P_1..P_s with a kd-tree per subset; s satisfies Equation (2)
(n = s(s-1)^d). For a query point, the subset straddling its density is
scanned (case ii), every fully-higher subset is answered by a bounded NN
search (case i), and lower subsets are ignored (case iii). Per-query
costs follow the paper's cost model and feed the greedy LPT balancer.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.distutil import sq_dists
from repro.index.kdtree import KDTree
from repro.par.spark_map import fan_out

__all__ = ["solve_s", "exact_dependent"]


def solve_s(n: int, d: int) -> int:
    """Smallest s >= 2 with s(s-1)^d >= n (Equation (2))."""
    s = 2
    while s * (s - 1) ** d < n:
        s += 1
    return s


def _dep_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, key = p["pts"], p["key"]
    subsets, trees = p["subsets"], p["trees"]
    keymin = p["keymin"]
    out_id, out_delta, out_dep, out_nde = [], [], [], []
    for i in items["id"].to_numpy():
        i = int(i)
        ki = key[i]
        q = pts[i]
        best2 = np.inf
        bid = -1
        nde = 0
        # case (ii): the straddling subset — scan members with higher key
        for j in range(len(subsets)):
            sub = subsets[j]
            if keymin[j] > ki or key[sub[-1]] <= ki:
                continue
            cand = sub[key[sub] > ki]
            if len(cand):
                d2 = sq_dists(q[None, :], pts[cand])[0]
                nde += len(cand)
                a = int(np.argmin(d2))
                if d2[a] < best2:
                    best2 = float(d2[a])
                    bid = int(cand[a])
        # case (i): fully-higher subsets, bounded NN searches
        for j in range(len(subsets)):
            if keymin[j] <= ki:
                continue
            tree = trees[j]
            before = tree.dist_evals
            loc, dist = tree.nn_with_bound(q, np.sqrt(best2) if np.isfinite(best2) else np.inf)
            nde += tree.dist_evals - before
            if loc >= 0 and dist * dist < best2:
                best2 = dist * dist
                bid = int(subsets[j][loc])
        out_id.append(i)
        out_delta.append(float(np.sqrt(best2)))
        out_dep.append(bid)
        out_nde.append(nde)
    return pd.DataFrame(
        {"id": out_id, "delta": out_delta, "dep": out_dep, "nde": out_nde}
    )


def exact_dependent(
    points: np.ndarray,
    key: np.ndarray,
    qids: np.ndarray,
    *,
    s: int | None = None,
    spark=None,
    n_tasks: int | None = None,
    leaf_size: int = 32,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact (delta, dep) for the points in ``qids``.

    Returns (delta, dep, dist_evals) where delta/dep are dense over all
    n points but only the ``qids`` slots are filled (inf / -1 elsewhere).
    """
    n, d = points.shape
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    if len(qids) == 0:
        return delta, dep, 0
    if s is None:
        s = solve_s(n, d)
    order = np.argsort(key, kind="stable")  # ascending density
    subsets = [sub for sub in np.array_split(order, s) if len(sub)]
    trees = [KDTree(points[sub], leaf_size=leaf_size) for sub in subsets]
    keymin = np.array([key[sub[0]] for sub in subsets])
    keymax = np.array([key[sub[-1]] for sub in subsets])

    # Paper's cost model: n/s for the straddling scan (case ii), plus
    # (n/s)^{1-1/d} per fully-higher subset (case i).
    navg = n / len(subsets)
    nn_cost = navg ** (1.0 - 1.0 / d)
    kq = key[qids]
    m_above = (keymin[None, :] > kq[:, None]).sum(axis=1)
    straddles = (
        (keymin[None, :] <= kq[:, None]) & (keymax[None, :] > kq[:, None])
    ).any(axis=1)
    costs = np.where(straddles, navg, 0.0) + m_above * nn_cost

    out = fan_out(
        spark,
        _dep_kernel,
        pd.DataFrame({"id": np.asarray(qids, dtype=np.int64)}),
        "id long, delta double, dep long, nde long",
        {"pts": points, "key": key, "subsets": subsets, "trees": trees, "keymin": keymin},
        costs=costs,
        n_tasks=n_tasks,
    )
    ids = out["id"].to_numpy()
    delta[ids] = out["delta"].to_numpy()
    dep[ids] = out["dep"].to_numpy()
    return delta, dep, int(out["nde"].sum())
