"""Approx-DPC (§4): joint range search + cell-based dependent approximation.

Exact local densities for every point (so Theorem 4's cluster-center
guarantee holds), computed per-cell: a single kd-tree range search at
the cell center with radius ``d_cut + max_p dist(cp, p)`` yields a
superset of every member's ball, which is then scanned vectorised. Cell
statistics (p*(c), N(c)) fall out of the same pass.

Dependent points: O(1) approximation inside the grid — a non-maximal
point depends on its cell's density maximum p*(c) with distance set to
``d_cut``; a cell maximum depends on p*(c') of a neighbouring cell
c' ∈ N(c) whose *minimum* density exceeds its own. The remaining points
P' get exact dependent points via the density-sorted subset machinery
(``core.depexact``). Both the per-cell ρ phase (cost |P(c)|) and the P'
phase (paper's cost_dep model) are LPT-balanced Spark stages.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.depexact import exact_dependent, solve_s
from repro.core.distutil import sq_dists
from repro.core.labels import finalize
from repro.core.types import DPCParams, DPCResult, check_points, tiebreak
from repro.index.grid import UniformGrid, cell_side
from repro.index.kdtree import KDTree
from repro.par.spark_map import fan_out

__all__ = ["approx_dpc", "joint_range_rho"]


def _joint_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, tree, grid = p["pts"], p["tree"], p["grid"]
    jitter, d_cut = p["jitter"], p["d_cut"]
    dcut2 = d_cut * d_cut
    # Accumulate plain arrays; build a single DataFrame at the end — a
    # pandas frame per cell dominates runtime when cells are small.
    a_id: list[np.ndarray] = []
    a_rho: list[np.ndarray] = []
    a_cell: list[np.ndarray] = []
    a_pstar: list[np.ndarray] = []
    a_nde: list[np.ndarray] = []
    a_ncells: list = []
    for c in items["cell"].to_numpy():
        c = int(c)
        mem = grid.members(c)
        cp = grid.centers[c]
        d2cp = sq_dists(cp[None, :], pts[mem])[0]
        rmax = float(np.sqrt(d2cp.max()))
        before = tree.dist_evals
        R = tree.range_query(cp, d_cut + rmax)
        nde_q = tree.dist_evals - before
        # Exact densities of every member by scanning the joint result.
        d2 = sq_dists(pts[mem], pts[R])
        within = d2 < dcut2
        rho = within.sum(axis=1).astype(np.int64) - 1  # self is in R
        key = rho + jitter[mem]
        kstar = int(np.argmax(key))
        # N(c): cells of points within d_cut of p*(c), own cell excluded.
        near = R[within[kstar]]
        ncells = np.unique(grid.cell_of[near])
        ncells = ncells[ncells != c]
        m = len(mem)
        a_id.append(mem.astype(np.int64))
        a_rho.append(rho)
        a_cell.append(np.full(m, c, dtype=np.int64))
        ps = np.zeros(m, dtype=bool)
        ps[kstar] = True
        a_pstar.append(ps)
        nde = np.zeros(m, dtype=np.int64)
        nde[0] = nde_q + within.size
        a_nde.append(nde)
        a_ncells.extend(
            ncells.tolist() if j == kstar else None for j in range(m)
        )
    out = pd.DataFrame(
        {
            "id": np.concatenate(a_id),
            "rho": np.concatenate(a_rho),
            "cell": np.concatenate(a_cell),
            "pstar": np.concatenate(a_pstar),
            "nde": np.concatenate(a_nde),
        }
    )
    out["ncells"] = pd.Series(a_ncells, dtype=object)
    return out


def joint_range_rho(
    points: np.ndarray,
    tree: KDTree,
    grid: UniformGrid,
    jitter: np.ndarray,
    d_cut: float,
    *,
    spark=None,
    n_tasks: int | None = None,
):
    """Per-cell joint range searches.

    Returns (rho, pstar_of_cell, N dict cell->array, dist_evals).
    """
    out = fan_out(
        spark,
        _joint_kernel,
        pd.DataFrame({"cell": np.arange(grid.m, dtype=np.int64)}),
        "id long, rho long, cell long, pstar boolean, nde long, ncells array<long>",
        {"pts": points, "tree": tree, "grid": grid, "jitter": jitter, "d_cut": d_cut},
        costs=grid.member_counts().astype(np.float64),  # cost_range = |P(c)|
        n_tasks=n_tasks,
    )
    n = len(points)
    rho = np.zeros(n, dtype=np.int64)
    rho[out["id"].to_numpy()] = out["rho"].to_numpy()
    pstar_of_cell = np.full(grid.m, -1, dtype=np.int64)
    neigh: dict[int, np.ndarray] = {}
    prows = out[out["pstar"]]
    for c, pid, nc in zip(
        prows["cell"].to_numpy(), prows["id"].to_numpy(), prows["ncells"]
    ):
        c = int(c)
        pstar_of_cell[c] = int(pid)
        neigh[c] = np.asarray(nc if nc is not None else [], dtype=np.int64)
    return rho, pstar_of_cell, neigh, int(out["nde"].sum())


def approx_dpc(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    n_tasks: int | None = None,
    s: int | None = None,
    leaf_size: int = 32,
) -> DPCResult:
    """Approx-DPC (§4). Same cluster centers as Ex-DPC (Theorem 4)."""
    points = check_points(points)
    n, d = points.shape
    jitter = tiebreak(n, params.seed)

    t0 = time.perf_counter()
    tree = KDTree(points, leaf_size=leaf_size)
    grid = UniformGrid(points, cell_side(params.d_cut, d))
    t_build = time.perf_counter() - t0

    t1 = time.perf_counter()
    rho, pstar_of_cell, neigh, nde_rho = joint_range_rho(
        points, tree, grid, jitter, params.d_cut, spark=spark, n_tasks=n_tasks
    )
    t2 = time.perf_counter()

    key = rho + jitter
    # min density per cell (for the p* neighbour rule)
    minkey = np.full(grid.m, np.inf)
    np.minimum.at(minkey, grid.cell_of, key)

    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    # Rule 1: non-maximal points depend on their cell's p*, distance d_cut.
    pstar_arr = pstar_of_cell[grid.cell_of]
    nonmax = np.arange(n) != pstar_arr
    dep[nonmax] = pstar_arr[nonmax]
    delta[nonmax] = params.d_cut
    # Rule 2: a cell maximum depends on p*(c') for c' in N(c) with
    # min density of c' above its own; undecided ones go to P'.
    undecided = []
    for c in range(grid.m):
        p = int(pstar_of_cell[c])
        kp = key[p]
        cand = neigh.get(c, np.empty(0, dtype=np.int64))
        ok = cand[minkey[cand] > kp]
        if len(ok):
            c2 = int(ok[0])  # deterministic arbitrary choice
            dep[p] = int(pstar_of_cell[c2])
            delta[p] = params.d_cut
        else:
            undecided.append(p)
    pprime = np.asarray(undecided, dtype=np.int64)
    # Exact dependent points for P'.
    dx, px, nde_dep = exact_dependent(
        points, key, pprime, s=s, spark=spark, n_tasks=n_tasks, leaf_size=leaf_size
    )
    delta[pprime] = dx[pprime]
    dep[pprime] = px[pprime]
    t3 = time.perf_counter()

    centers, noise, labels = finalize(rho, delta, dep, params)
    t4 = time.perf_counter()
    s_used = s if s is not None else solve_s(n, d)
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
        counters={
            "dist_evals": nde_rho + nde_dep,
            "n_cells": grid.m,
            "n_pprime": len(pprime),
            "s": s_used,
        },
        memory_bytes=2 * tree.memory_bytes() + grid.memory_bytes(),
    )
