"""Approx-DPC (§4): joint range search + cell-based dependent approximation.

Exact local densities for every point (so Theorem 4's cluster-center
guarantee holds), from joint range searches: the members of a group of
cells share one kd-tree walk over their bounding box widened by d_cut
(``KDTree.range_block``) and one vectorised distance scan. A group is
the cells whose lowest-id members lie in the same kd-tree leaf, so
neighbouring cells share a walk; it is one LPT work item, weighed by
its point count Σ|P(c)|, and never split across tasks. Cell statistics
(p*(c), and N(c) from p*(c)'s row of the scan) fall out of the same pass.
``joint_range_rho`` is the one cell-level range search of both grid
algorithms: it takes the query points of each cell as data, every
member here and the one picked point per cell in S-Approx-DPC.

Dependent points: O(1) approximation inside the grid — a non-maximal
point depends on its cell's density maximum p*(c) with distance set to
``d_cut``; a cell maximum depends on p*(c') of a neighbouring cell
c' ∈ N(c) whose *minimum* density exceeds its own (array operations on
the driver). The remaining points P' get exact dependent points via the
density-sorted subset machinery (``core.depexact``), in blocks of
queries. Both the ρ phase and the P' phase (paper's cost_dep model) are
LPT-balanced Spark stages.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.depexact import exact_dependent, solve_s
from repro.core.labels import finalize
from repro.core.types import DPCParams, DPCResult, check_points, tiebreak
from repro.index.grid import UniformGrid, cell_side
from repro.index.kdtree import KDTree
from repro.par.spark_map import fan_out

__all__ = ["approx_dpc", "joint_range_rho"]


def _joint_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, tree, cell_of, m = p["pts"], p["tree"], p["cell_of"], p["m"]
    jitter, d_cut = p["jitter"], p["d_cut"]
    mem, cb, gb = p["mem"], p["cb"], p["gb"]
    a_id, a_rho, a_pstar, a_nde, a_nbr = [], [], [], [], []
    for g in items["group"].to_numpy():
        runs = cb[gb[g] : gb[g + 1] + 1]  # member runs of the group's cells
        ids = mem[runs[0] : runs[-1]]
        cand, within = tree.range_block(pts[ids], d_cut)
        rho = np.count_nonzero(within, axis=1) - 1  # exclude self
        # p*(c): the first member of highest key in each cell's run
        starts = runs[:-1] - runs[0]
        cell = np.repeat(np.arange(len(starts)), np.diff(runs))
        top = np.lexsort((-(rho + jitter[ids]), cell))[starts]
        pstar = np.zeros(len(ids), dtype=bool)
        pstar[top] = True
        # N(c): cells of the points within d_cut of p*(c), own cell
        # excluded, as codes c * m + c2 on the group's first row
        r, k = np.nonzero(within[top])
        c, c2 = cell_of[ids[top]][r], cell_of[cand[k]]
        nbr = np.full(len(ids), None, dtype=object)
        nbr[0] = np.unique(c[c != c2] * m + c2[c != c2])
        nde = np.zeros(len(ids), dtype=np.int64)
        nde[0] = within.size
        a_id.append(ids)
        a_rho.append(rho)
        a_pstar.append(pstar)
        a_nde.append(nde)
        a_nbr.append(nbr)
    return pd.DataFrame(
        {
            "id": np.concatenate(a_id),
            "rho": np.concatenate(a_rho),
            "pstar": np.concatenate(a_pstar),
            "nde": np.concatenate(a_nde),
            "nbr": np.concatenate(a_nbr),
        }
    )


def joint_range_rho(
    points: np.ndarray,
    tree: KDTree,
    grid: UniformGrid,
    jitter: np.ndarray,
    d_cut: float,
    mem: np.ndarray,
    cb: np.ndarray,
    gb: np.ndarray,
    *,
    spark=None,
    n_tasks: int | None = None,
):
    """Joint range searches over the query points of each cell.

    Cell run ``k`` is ``mem[cb[k]:cb[k + 1]]``; group ``g``, runs
    ``gb[g]:gb[g + 1]``, is one kd-tree walk and one LPT work item.
    Returns (rho, pstar_of_cell, (c, c2), dist_evals): ρ of each query (0
    elsewhere), p*(c) (the first query of highest key in c), and pairs
    ``(c[k], c2[k])`` listing N(c): the cells c2 != c that hold a point
    within d_cut of p*(c).
    """
    out = fan_out(
        spark,
        _joint_kernel,
        pd.DataFrame({"group": np.arange(len(gb) - 1, dtype=np.int64)}),
        "id long, rho long, pstar boolean, nde long, nbr array<long>",
        {
            "pts": points,
            "tree": tree,
            "cell_of": grid.cell_of,
            "m": grid.m,
            "jitter": jitter,
            "d_cut": d_cut,
            "mem": mem,
            "cb": cb,
            "gb": gb,
        },
        costs=np.diff(cb[gb]).astype(np.float64),  # cost_range = Σ|P(c)|
        n_tasks=n_tasks,
    )
    rho = np.zeros(len(points), dtype=np.int64)
    rho[out["id"].to_numpy()] = out["rho"].to_numpy()
    pstar = out["id"].to_numpy()[out["pstar"].to_numpy()]
    pstar_of_cell = np.full(grid.m, -1, dtype=np.int64)
    pstar_of_cell[grid.cell_of[pstar]] = pstar
    code = np.concatenate(out["nbr"].dropna().tolist()).astype(np.int64)
    return rho, pstar_of_cell, np.divmod(code, grid.m), int(out["nde"].sum())


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
    order, gb = tree.leaf_groups(grid.lowest_members())  # cells by leaf
    mem, cb = grid.members_of(order)
    rho, pstar_of_cell, (c, c2), nde_rho = joint_range_rho(
        points, tree, grid, jitter, params.d_cut, mem, cb, gb,
        spark=spark, n_tasks=n_tasks,
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
    # min density of c' above its own (the smallest such c', a
    # deterministic arbitrary choice); undecided ones go to P'.
    ok = minkey[c2] > key[pstar_of_cell[c]]
    choice = np.full(grid.m, grid.m)
    np.minimum.at(choice, c[ok], c2[ok])
    decided = choice < grid.m
    dep[pstar_of_cell[decided]] = pstar_of_cell[choice[decided]]
    delta[pstar_of_cell[decided]] = params.d_cut
    pprime = pstar_of_cell[~decided]
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
