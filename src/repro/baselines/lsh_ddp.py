"""LSH-DDP (Zhang et al. [42]) — the approximate DPC baseline.

p-stable compound LSH partitions P into buckets, L times. The local
density of a point is approximated by the densest bucket it falls in
(a lower bound of the true ρ); dependent-point candidates are likewise
retrieved per bucket (against the aggregated densities) and the best
candidate across tables wins. Points whose local dependent information
"does not seem accurate" — no in-bucket candidate, or a dependent
distance large enough to make the point a potential cluster center —
are refined by a full scan of P, as in the original algorithm. Both
bucket phases cost O(L·Σb²) distance evaluations (Table 1) and are
LPT-balanced over buckets by b² — note the paper's point that LSH-DDP
itself does *not* load-balance its partitions; the balancing here is at
the Spark-task layer, bucket sizes remain as skewed as LSH makes them.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.baselines.lsh import CompoundLSH
from repro.core.distutil import sq_dists
from repro.core.labels import finalize
from repro.core.scan import nearest_higher
from repro.core.types import DPCParams, DPCResult, check_points, tiebreak
from repro.par.spark_map import fan_out

__all__ = ["lsh_ddp"]

_ROW_BLOCK = 1024


def _bucket_layout(bucket_ids: np.ndarray):
    """Per-table (order, offsets) giving contiguous member slices."""
    layouts = []
    for row in bucket_ids:
        order = np.argsort(row, kind="stable")
        counts = np.bincount(row)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        layouts.append((order, offsets))
    return layouts


def _rho_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, dcut2 = p["pts"], p["dcut2"]
    layouts = p["layouts"]
    frames = []
    for t, s, e in zip(
        items["table"].to_numpy(), items["start"].to_numpy(), items["end"].to_numpy()
    ):
        mem = layouts[int(t)][0][s:e]
        b = len(mem)
        block = pts[mem]
        cnt = np.zeros(b, dtype=np.int64)
        for r0 in range(0, b, _ROW_BLOCK):
            d2 = sq_dists(block[r0 : r0 + _ROW_BLOCK], block)
            cnt[r0 : r0 + _ROW_BLOCK] = (d2 < dcut2).sum(axis=1)
        frames.append(
            pd.DataFrame({"id": mem.astype(np.int64), "rho": cnt - 1, "nde": 0})
        )
        frames[-1].loc[frames[-1].index[:1], "nde"] = b * b
    return pd.concat(frames, ignore_index=True)


def _delta_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, key = p["pts"], p["key"]
    layouts = p["layouts"]
    frames = []
    for t, s, e in zip(
        items["table"].to_numpy(), items["start"].to_numpy(), items["end"].to_numpy()
    ):
        mem = layouts[int(t)][0][s:e]
        b = len(mem)
        block = pts[mem]
        kmem = key[mem]
        best = np.full(b, np.inf)
        besti = np.full(b, -1, dtype=np.int64)
        for r0 in range(0, b, _ROW_BLOCK):
            d2 = sq_dists(block[r0 : r0 + _ROW_BLOCK], block)
            mask = kmem[None, :] > kmem[r0 : r0 + _ROW_BLOCK, None]
            d2 = np.where(mask, d2, np.inf)
            bi = np.argmin(d2, axis=1)
            bv = d2[np.arange(len(bi)), bi]
            best[r0 : r0 + _ROW_BLOCK] = bv
            besti[r0 : r0 + _ROW_BLOCK] = np.where(
                np.isfinite(bv), mem[bi], -1
            )
        frames.append(
            pd.DataFrame(
                {
                    "id": mem.astype(np.int64),
                    "delta": np.sqrt(best),
                    "dep": besti,
                    "nde": 0,
                }
            )
        )
        frames[-1].loc[frames[-1].index[:1], "nde"] = b * b
    return pd.concat(frames, ignore_index=True)


def _refine_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, key = p["pts"], p["key"]
    ids = items["id"].to_numpy()
    best, besti = nearest_higher(pts[ids], key[ids], pts, key)
    return pd.DataFrame(
        {
            "id": ids.astype(np.int64),
            "delta": np.sqrt(best),
            "dep": besti,
            "nde": len(pts),  # each refined point scans the whole of P
        }
    )


def lsh_ddp(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    n_tasks: int | None = None,
    k: int = 2,
    L: int = 4,
    w_factor: float = 3.0,
) -> DPCResult:
    """LSH-DDP with L compound tables of k p-stable hashes, w = w_factor·d_cut."""
    points = check_points(points)
    n, d = points.shape
    jitter = tiebreak(n, params.seed)

    t0 = time.perf_counter()
    lsh = CompoundLSH(d, k=k, L=L, w=w_factor * params.d_cut, seed=params.seed + 1)
    bucket_ids = lsh.bucket_ids(points)
    layouts = _bucket_layout(bucket_ids)
    items = []
    for t, (order, offsets) in enumerate(layouts):
        starts = offsets[:-1]
        ends = offsets[1:]
        nz = ends > starts
        items.append(
            pd.DataFrame(
                {
                    "table": t,
                    "start": starts[nz].astype(np.int64),
                    "end": ends[nz].astype(np.int64),
                }
            )
        )
    items = pd.concat(items, ignore_index=True)
    sizes = (items["end"] - items["start"]).to_numpy()
    costs = sizes.astype(np.float64) ** 2
    t_build = time.perf_counter() - t0

    # Phase ρ: per-bucket local densities; aggregate by max over tables.
    t1 = time.perf_counter()
    out = fan_out(
        spark,
        _rho_kernel,
        items,
        "id long, rho long, nde long",
        {"pts": points, "dcut2": params.d_cut**2, "layouts": layouts},
        costs=costs,
        n_tasks=n_tasks,
    )
    rho = np.zeros(n, dtype=np.int64)
    np.maximum.at(rho, out["id"].to_numpy(), out["rho"].to_numpy())
    nde = int(out["nde"].sum())
    t2 = time.perf_counter()

    # Phase δ: per-bucket candidates against aggregated densities.
    key = rho + jitter
    out = fan_out(
        spark,
        _delta_kernel,
        items,
        "id long, delta double, dep long, nde long",
        {"pts": points, "key": key, "layouts": layouts},
        costs=costs,
        n_tasks=n_tasks,
    )
    nde += int(out["nde"].sum())
    delta = np.full(n, np.inf)
    dep = np.full(n, -1, dtype=np.int64)
    best = (
        out[out["dep"] >= 0]
        .sort_values(["delta", "dep"], kind="stable")
        .drop_duplicates("id")
    )
    delta[best["id"].to_numpy()] = best["delta"].to_numpy()
    dep[best["id"].to_numpy()] = best["dep"].to_numpy()

    # Refinement: no candidate found, or the point looks like a center —
    # the original verifies such points by scanning P.
    needs = np.flatnonzero(
        (dep < 0) | (np.isfinite(delta) & (delta >= params.delta_min))
    )
    # the true global peak never has a dependent point
    global_peak = int(np.argmax(key))
    needs = needs[needs != global_peak]
    if len(needs):
        ref = fan_out(
            spark,
            _refine_kernel,
            pd.DataFrame({"id": needs.astype(np.int64)}),
            "id long, delta double, dep long, nde long",
            {"pts": points, "key": key},
            n_tasks=n_tasks,
        )
        rid = ref["id"].to_numpy()
        delta[rid] = ref["delta"].to_numpy()
        dep[rid] = ref["dep"].to_numpy()
        nde += int(ref["nde"].sum())
    delta[global_peak] = np.inf
    dep[global_peak] = -1
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
        counters={
            "dist_evals": nde,
            "n_buckets": int(len(items)),
            "max_bucket": int(sizes.max()) if len(sizes) else 0,
            "n_refined": int(len(needs)),
        },
        memory_bytes=lsh.memory_bytes(n) + sum(o.nbytes + f.nbytes for o, f in layouts),
    )
