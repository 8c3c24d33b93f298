"""CFSFDP-A (Bai et al. [7]) — exact baseline with k-means pivots.

Pivot points are k-means centroids; every point stores its distance to
each pivot, and a candidate for "within d_cut of p_i" must satisfy the
triangle-inequality ring test |dist(p_i,c_m) − dist(p_j,c_m)| ≤ d_cut
against p_j's own pivot c_m. Candidates are then verified exactly, so ρ
is exact. Following the paper's protocol (§6 "Algorithms"), the
dependent-point phase reuses Scan's computation — CFSFDP-A's own δ
phase is slower than Scan's.

The n×k pivot-distance matrix is materialised (that is the algorithm's
memory signature — cf. Table 7) and its size reported; parallel workers
recompute their chunk's rows instead of shipping the matrix.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.baselines.kmeans import kmeans
from repro.core.distutil import paired_sq_dists
from repro.core.labels import finalize
from repro.core.scan import chunk_items, delta_scan
from repro.core.types import DPCParams, DPCResult, check_points, tiebreak
from repro.par.spark_map import fan_out

__all__ = ["cfsfdp_a"]

_FLAT_CHUNK = 1 << 20


def _rho_kernel(items: pd.DataFrame, p: dict) -> pd.DataFrame:
    pts, cents, d_cut = p["pts"], p["cents"], p["d_cut"]
    gsorted_d, gsorted_id = p["gsorted_d"], p["gsorted_id"]
    dcut2 = d_cut * d_cut
    out_id, out_rho, out_nde = [], [], []
    for s, e in zip(items["start"].to_numpy(), items["end"].to_numpy()):
        a = pts[s:e]
        m = len(a)
        # this chunk's distances to every pivot
        diff = a[:, None, :] - cents[None, :, :]
        dq = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        cnt = np.zeros(m, dtype=np.int64)
        nde = m * len(cents)
        for g in range(len(cents)):
            sd, sid = gsorted_d[g], gsorted_id[g]
            if len(sd) == 0:
                continue
            lo = np.searchsorted(sd, dq[:, g] - d_cut, side="left")
            hi = np.searchsorted(sd, dq[:, g] + d_cut, side="right")
            lens = hi - lo
            total = int(lens.sum())
            if total == 0:
                continue
            qidx = np.repeat(np.arange(m), lens)
            offs = np.cumsum(lens) - lens
            fpos = np.arange(total) - np.repeat(offs, lens) + np.repeat(lo, lens)
            cand = sid[fpos]
            for f0 in range(0, total, _FLAT_CHUNK):
                qs = qidx[f0 : f0 + _FLAT_CHUNK]
                cs = cand[f0 : f0 + _FLAT_CHUNK]
                d2 = paired_sq_dists(a[qs], pts[cs])
                cnt += np.bincount(
                    qs, weights=(d2 < dcut2), minlength=m
                ).astype(np.int64)
            nde += total
        out_id.append(np.arange(s, e, dtype=np.int64))
        out_rho.append(cnt - 1)  # self survives its own ring test
        out_nde.append(np.full(e - s, 0, dtype=np.int64))
        out_nde[-1][0] = nde
    return pd.DataFrame(
        {
            "id": np.concatenate(out_id),
            "rho": np.concatenate(out_rho),
            "nde": np.concatenate(out_nde),
        }
    )


def cfsfdp_a(
    points: np.ndarray,
    params: DPCParams,
    *,
    spark=None,
    n_tasks: int | None = None,
    k: int | None = None,
    kmeans_iters: int = 5,
    chunk: int = 2048,
) -> DPCResult:
    """CFSFDP-A: exact ρ via pivot rings, δ via Scan."""
    points = check_points(points)
    n, d = points.shape
    if k is None:
        k = max(1, int(round(np.sqrt(n))))

    t0 = time.perf_counter()
    cents, group = kmeans(points, k, iters=kmeans_iters, seed=params.seed)
    k = len(cents)
    # The algorithm's pivot-distance table (n x k) — its memory signature.
    dmat = np.empty((n, k))
    for s in range(0, n, 4096):
        diff = points[s : s + 4096, None, :] - cents[None, :, :]
        dmat[s : s + 4096] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    mem_bytes = dmat.nbytes + cents.nbytes + group.nbytes
    own = dmat[np.arange(n), group]
    gsorted_d, gsorted_id = [], []
    for g in range(k):
        mem = np.flatnonzero(group == g)
        o = np.argsort(own[mem], kind="stable")
        gsorted_d.append(own[mem][o])
        gsorted_id.append(mem[o])
    del dmat
    t_prep = time.perf_counter() - t0

    t1 = time.perf_counter()
    out = fan_out(
        spark,
        _rho_kernel,
        chunk_items(n, chunk),
        "id long, rho long, nde long",
        {
            "pts": points,
            "cents": cents,
            "d_cut": params.d_cut,
            "gsorted_d": gsorted_d,
            "gsorted_id": gsorted_id,
        },
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
            "pivot": t_prep,
            "rho": t2 - t1,
            "delta": t3 - t2,
            "assign": t4 - t3,
            "total": t4 - t0,
        },
        counters={"dist_evals": nde + n * n, "k_pivots": k},
        memory_bytes=mem_bytes,
    )
