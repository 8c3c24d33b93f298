"""S-Approx-DPC (§5): grid sampling + cell-based clustering.

A coarser grid G' (side ε·d_cut/√d) is built; one *picked* point per
cell (its lowest id) gets an exact density via a kd-tree range search
(one search per cell — this is where the ε-for-speed trade comes from);
every other point simply depends on its cell's picked point. The search
is Approx-DPC's joint range search (``approx_dpc.joint_range_rho``) with
one query per cell: the picked points held by one kd-tree leaf share
one tree walk (``KDTree.range_block``), and such a group is one LPT work
item, weighed by its size. The same pass gives N(c), the cells holding
a point within d_cut of the picked point. Picked points resolve their
dependent points in two phases:

1. the picked point of the cell in N(c) of highest density above its
   own (array operations on the driver) — approximate dependent
   distance set to (1+ε)·d_cut;
2. the remaining roots P'_pick form temporal clusters from the phase-1
   forest and search each other with the triangle-inequality pruning of
   §5 (falling back to Approx-DPC's subset machinery when
   |P'_pick|² ≫ n).

ρ_min applies to picked points only; non-picked points inherit density,
noise and cluster from their picked point and are never cluster centers.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.approx_dpc import joint_range_rho
from repro.core.depexact import exact_dependent
from repro.core.distutil import sq_dists
from repro.core.labels import finalize
from repro.core.types import DPCParams, DPCResult, check_points, tiebreak
from repro.index.grid import UniformGrid, cell_side
from repro.index.kdtree import KDTree

__all__ = ["s_approx_dpc"]

_FALLBACK_FACTOR = 16.0  # phase 2 falls back when |P'_pick|² > _FALLBACK_FACTOR · n


def _temporal_roots(dep_local: np.ndarray) -> np.ndarray:
    """Root (with path halving) of each node in the phase-1 forest."""
    root = dep_local.copy()
    root[root < 0] = np.flatnonzero(dep_local < 0)  # roots point to self
    # pointer jumping until fixpoint; forest depth is small
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def s_approx_dpc(
    points: np.ndarray,
    params: DPCParams,
    eps: float,
    *,
    spark=None,
    n_tasks: int | None = None,
    leaf_size: int = 32,
) -> DPCResult:
    """S-Approx-DPC with approximation parameter ``eps`` (> 0)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    points = check_points(points)
    n, d = points.shape
    jitter = tiebreak(n, params.seed)

    t0 = time.perf_counter()
    tree = KDTree(points, leaf_size=leaf_size)
    grid = UniformGrid(points, cell_side(params.d_cut, d, eps))
    m = grid.m
    # deterministic sample: the smallest point id in each cell
    picked = grid.lowest_members()
    t_build = time.perf_counter() - t0

    # ρ phase: Approx-DPC's joint range search with one query per cell,
    # the picked points grouped by the kd-tree leaf that holds them.
    t1 = time.perf_counter()
    order, gb = tree.leaf_groups(picked)
    rho, _, (c, c2), nde = joint_range_rho(
        points, tree, grid, jitter, params.d_cut, picked[order], np.arange(m + 1), gb,
        spark=spark, n_tasks=n_tasks,
    )
    rho_pick = rho[picked]
    t2 = time.perf_counter()

    key_pick = rho_pick + jitter[picked]
    # Phase 1: each cell depends on the cell of highest key in N(c) above
    # its own (the lowest such cell on equal keys).
    up = key_pick[c2] > key_pick[c]
    c, c2 = c[up], c2[up]
    by_key = np.lexsort((c2, -key_pick[c2], c))
    first = by_key[np.diff(c[by_key], prepend=-1) != 0]
    dep_local = np.full(m, -1, dtype=np.int64)  # cell -> cell of dependent
    dep_local[c[first]] = c2[first]

    delta_pick = np.full(m, np.inf)
    delta_pick[dep_local >= 0] = (1.0 + eps) * params.d_cut
    roots = np.flatnonzero(dep_local < 0)

    # Phase 2: dependent points of the roots P'_pick.
    ppts = points[picked]
    if len(roots) ** 2 > _FALLBACK_FACTOR * n:
        # |P'_pick|² exceeds O(n): fall back to Approx-DPC's machinery
        # over the picked points.
        dx, px, nde2 = exact_dependent(
            ppts, key_pick, roots, spark=spark, n_tasks=n_tasks, leaf_size=leaf_size
        )
        nde += nde2
        found = roots[px[roots] >= 0]
        dep_local[found], delta_pick[found] = px[found], dx[found]
    else:
        cluster_of = _temporal_roots(dep_local)
        rts = ppts[roots]
        kroots = key_pick[roots]
        # radius r_i of each temporal cluster
        d2_to_root = sq_dists(ppts, ppts[roots])  # (m, |roots|) — ok, |roots| small
        nde += d2_to_root.size
        member_mask = cluster_of[:, None] == roots[None, :]
        r = np.sqrt(np.where(member_mask, d2_to_root, 0.0).max(axis=0))
        d2_rr = sq_dists(rts, rts)
        for a, c in enumerate(roots):
            higher = kroots > kroots[a]
            if not higher.any():
                continue  # global density peak among picked
            dpp = np.sqrt(np.min(np.where(higher, d2_rr[a], np.inf)))
            # prune temporal clusters by triangle inequality
            cand = np.flatnonzero(higher & (np.sqrt(d2_rr[a]) - r <= dpp))
            best2 = np.inf
            bid = -1
            for b in cand:
                members = np.flatnonzero(member_mask[:, b])
                members = members[key_pick[members] > kroots[a]]
                if not len(members):
                    continue
                d2m = sq_dists(ppts[c][None, :], ppts[members])[0]
                nde += len(members)
                j = int(np.argmin(d2m))
                if d2m[j] < best2:
                    best2 = float(d2m[j])
                    bid = int(members[j])
            if bid >= 0:
                dep_local[c] = bid
                delta_pick[c] = float(np.sqrt(best2))
    t3 = time.perf_counter()

    # Expand to all points: the others depend on their cell's picked point.
    rho = rho_pick[grid.cell_of].astype(np.float64)
    delta = np.zeros(n)
    delta[picked] = delta_pick
    dep = picked[grid.cell_of]
    dep[picked] = np.where(dep_local >= 0, picked[dep_local], -1)

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
        counters={"dist_evals": nde, "n_cells": m, "n_roots": int(len(roots))},
        memory_bytes=tree.memory_bytes() + grid.memory_bytes() + picked.nbytes,
    )
