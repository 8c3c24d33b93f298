"""Exact dependent-point computation over density-sorted subsets (§4.3).

Used by Approx-DPC for the (small) set P' of points whose approximate
dependent point could not be decided in O(1), and by S-Approx-DPC as its
large-|P'_pick| fallback.

P is sorted ascending by (jittered) density and split into s equal
subsets P_1..P_s with a kd-tree per subset; s satisfies Equation (2)
(n = s(s-1)^d). For a query point, the subset straddling its density is
scanned (case ii), every fully-higher subset is answered by a bounded NN
search (case i), and lower subsets are ignored (case iii).

The searches run in blocks of queries ("one walk per block", Gray &
Moore, NIPS 2000): a block is one leaf of a transient kd-tree over the
queries and one LPT work item, weighed by the sum of its queries' costs
in the paper's model; it is never split across tasks. A block keeps a
running bound per query and visits the subsets in ascending order, with
one subset-tree walk (``KDTree.box``) and one ``sq_dists`` call per
subset: the walk covers the block's box widened by the largest bound,
so it holds every point that could still win. The bound starts at the
distance to the nearest higher-density query of the block; the block's
top query has none, and scans the first subset it searches whole (its
straddling subset, as in the paper; one more ``sq_dists`` call). δ equals the per-query search's, and
so does dep, up to the choice among points tied at one distance inside
one subset (an earlier subset still wins a tie). The block computes,
and counts in ``dist_evals``, every (query, candidate) pair it forms:
more pairs than the per-query NN walks, in far fewer Python-level walks
(DESIGN.md §5).
"""
from __future__ import annotations

import math

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


def _search_radius(bound2: float, d: int) -> float:
    """A radius r with |q_k - p_k| <= r on every axis k (strictly if
    r > 0) whenever the computed ``sq_dists(q, p) <= bound2`` (barring
    underflow).

    At most d + 2 roundings (the difference, its square, d additions of
    non-negative terms) lie between |q_k - p_k|² and the computed sum, and
    two more (the square root, the product) lie in r; each loses at most
    a factor 1 - 2^-53. A relative slack of (d + 4)·2^-51 covers them all
    with room to spare.
    """
    return math.sqrt(bound2) * (1.0 + (d + 4) * 2.0**-51)


def _dep_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, key = p["pts"], p["key"]
    subsets, trees = p["subsets"], p["trees"]
    keymin, keymax = p["keymin"], p["keymax"]
    qids, bounds = p["qids"], p["bounds"]
    d = pts.shape[1]
    out_id, out_delta, out_dep, out_nde = [], [], [], []
    for blk in items["block"].to_numpy():
        ids = qids[bounds[blk] : bounds[blk + 1]]
        Q, kq = pts[ids], key[ids]
        best2 = np.full(len(ids), np.inf)
        bid = np.full(len(ids), -1, dtype=np.int64)
        # Pruning bound only: the nearest higher-key row of the block.
        seed2 = sq_dists(Q, Q)
        seed2[kq[None, :] <= kq[:, None]] = np.inf
        seed2 = seed2.min(axis=1)
        nde = len(ids) ** 2

        def scan(rows, cand, coords):
            """Fold the candidates ``cand`` (coordinates ``coords``) of one
            subset into the running minimum of the block rows ``rows``."""
            d2 = sq_dists(Q[rows], coords)
            # case (ii): in the straddling subset only higher keys count
            d2[key[cand][None, :] <= kq[rows][:, None]] = np.inf
            a = np.argmin(d2, axis=1)
            m = d2[np.arange(len(rows)), a]
            won = m < best2[rows]  # strict: an earlier subset keeps ties
            best2[rows[won]] = m[won]
            bid[rows[won]] = cand[a[won]]
            return d2.size

        # Ascending subsets, as the per-query search ran them: the
        # straddling subset (case ii) first, then the fully-higher ones
        # (case i); lower subsets (case iii) hold no candidate.
        for j, sub in enumerate(subsets):
            rows = np.flatnonzero(keymax[j] > kq)
            if not len(rows):
                continue
            bound2 = np.minimum(best2[rows], seed2[rows])
            free = np.isinf(bound2)
            if free.any():
                # No bound yet: scan the subset's keys above the lowest of
                # these rows' keys (a suffix, as ``sub`` ascends by key).
                lo = np.searchsorted(key[sub], kq[rows[free]].min(), side="right")
                nde += scan(rows[free], sub[lo:], trees[j].points[lo:])
                rows, bound2 = rows[~free], bound2[~free]
                if not len(rows):
                    continue
            # Bounded rows: one box walk over the rows' box, widened by
            # the largest of their bounds, and its faces one ulp further
            # out (lo < p must hold, also for a copy of a row at r = 0).
            r = _search_radius(bound2.max(), d)
            Qr = Q[rows]
            loc, coords = trees[j].box(
                np.nextafter(Qr.min(axis=0) - r, -np.inf),
                np.nextafter(Qr.max(axis=0) + r, np.inf),
            )
            nde += scan(rows, sub[loc], coords)
        nde_col = np.zeros(len(ids), dtype=np.int64)
        nde_col[0] = nde
        out_id.append(ids)
        out_delta.append(np.sqrt(best2))
        out_dep.append(bid)
        out_nde.append(nde_col)
    return pd.DataFrame(
        {
            "id": np.concatenate(out_id),
            "delta": np.concatenate(out_delta),
            "dep": np.concatenate(out_dep),
            "nde": np.concatenate(out_nde),
        }
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

    # Query blocks: the leaves of a transient kd-tree over the queries.
    qtree = KDTree(points[qids], leaf_size=leaf_size)
    bounds = qtree.leaf_bounds()
    out = fan_out(
        spark,
        _dep_kernel,
        pd.DataFrame({"block": np.arange(len(bounds) - 1, dtype=np.int64)}),
        "id long, delta double, dep long, nde long",
        {
            "pts": points,
            "key": key,
            "subsets": subsets,
            "trees": trees,
            "keymin": keymin,
            "keymax": keymax,
            "qids": np.asarray(qids, dtype=np.int64)[qtree.perm],
            "bounds": bounds,
        },
        costs=np.add.reduceat(costs[qtree.perm], bounds[:-1]),
        n_tasks=n_tasks,
    )
    ids = out["id"].to_numpy()
    delta[ids] = out["delta"].to_numpy()
    dep[ids] = out["dep"].to_numpy()
    return delta, dep, int(out["nde"].sum())
