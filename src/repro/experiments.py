"""Experiment harness: one function per evaluation table (Tables 2–7).

Protocol, following §6 of the paper:

1. Run Ex-DPC with the dataset's default d_cut and ρ_min and an open
   δ_min; choose δ_min from the decision graph (largest relative gap in
   the sorted dependent distances around the dataset's expected cluster
   count — the programmatic stand-in for the paper's "specified so that
   we have k clusters").
2. Re-finalize Ex-DPC with that δ_min — its labels are the ground truth.
3. Run every approximation algorithm with the *same* (d_cut, ρ_min,
   δ_min) and score Rand index against the ground truth.

Every ``tableN`` function takes ``scale`` (cardinality multiplier, 1.0 =
the bench scale of DESIGN.md §4) and ``spark`` (None = serial) and
returns a pandas DataFrame shaped like the paper's table.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro import datasets
from repro.baselines.cfsfdp_a import cfsfdp_a
from repro.baselines.lsh_ddp import lsh_ddp
from repro.baselines.rtree_scan import rtree_scan_dpc
from repro.core.approx_dpc import approx_dpc
from repro.core.exdpc import ex_dpc
from repro.core.labels import finalize
from repro.core.rand_index import rand_index
from repro.core.s_approx_dpc import s_approx_dpc
from repro.core.scan import scan_dpc
from repro.core.types import DPCParams, DPCResult

__all__ = [
    "select_delta_min",
    "ground_truth",
    "refinalize",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table6_row",
    "table7",
]

ALGORITHMS = {
    "Scan": scan_dpc,
    "R-tree + Scan": rtree_scan_dpc,
    "LSH-DDP": lsh_ddp,
    "CFSFDP-A": cfsfdp_a,
    "Ex-DPC": ex_dpc,
    "Approx-DPC": approx_dpc,
    "S-Approx-DPC": s_approx_dpc,
}


def select_delta_min(
    result: DPCResult, expected_k: int
) -> tuple[float, int]:
    """δ_min from the decision graph: the largest relative gap in the
    sorted non-noise dependent distances within ±~50% of ``expected_k``.

    Returns (delta_min, chosen_k).
    """
    dl = np.sort(result.delta[~result.noise])[::-1]
    if len(dl) == 0:  # degenerate tiny-scale run: everything is noise
        dl = np.sort(result.delta)[::-1]
    finite = dl[np.isfinite(dl)]
    cap = float(finite.max()) * 2 if len(finite) else 1.0
    dl = np.where(np.isfinite(dl), dl, cap)
    if len(dl) < 2:
        return float(dl[0] * 0.5), 1
    lo = max(1, min(int(expected_k * 0.5), len(dl) - 1))
    hi = min(len(dl) - 1, max(lo + 1, int(np.ceil(expected_k * 1.6))))
    ratios = dl[lo - 1 : hi - 1] / np.maximum(dl[lo:hi], 1e-12)
    k = lo + int(np.argmax(ratios)) if len(ratios) else lo
    delta_min = float(np.sqrt(dl[k - 1] * dl[k]))  # geometric midpoint
    return delta_min, k


def refinalize(result: DPCResult, params: DPCParams) -> DPCResult:
    """Re-derive centers/noise/labels under new thresholds (ρ/δ reused)."""
    centers, noise, labels = finalize(result.rho, result.delta, result.dep, params)
    return DPCResult(
        rho=result.rho,
        delta=result.delta,
        dep=result.dep,
        centers=centers,
        noise=noise,
        labels=labels,
        timings=result.timings,
        counters=result.counters,
        memory_bytes=result.memory_bytes,
    )


def ground_truth(
    ds: datasets.Dataset, *, spark=None
) -> tuple[DPCResult, DPCParams]:
    """Ex-DPC ground truth with δ_min chosen from its decision graph."""
    open_params = DPCParams(d_cut=ds.d_cut, rho_min=ds.rho_min, delta_min=np.inf)
    res = ex_dpc(ds.points, open_params, spark=spark)
    delta_min, _ = select_delta_min(res, ds.expected_k)
    params = DPCParams(d_cut=ds.d_cut, rho_min=ds.rho_min, delta_min=delta_min)
    return refinalize(res, params), params


def _scaled(ds_name: str, scale: float, **kw) -> datasets.Dataset:
    """Dataset at ``scale`` times its bench cardinality.

    ρ_min shrinks proportionally: for a fixed distribution, local density
    grows linearly with n (the paper's own scalability argument), so a
    scaled-down run keeps the same noise semantics.
    """
    import dataclasses

    base = datasets.load(ds_name, **kw)
    if scale == 1.0:
        return base
    n_new = max(500, int(base.n * scale))
    ds = datasets.load(ds_name, n=n_new, **kw)
    return dataclasses.replace(
        ds, rho_min=max(1.0, ds.rho_min * n_new / base.n)
    )


# -- Table 2: Rand index vs noise rate on Syn -------------------------------


def table2(
    *,
    scale: float = 1.0,
    spark=None,
    noise_rates=(0.01, 0.02, 0.04, 0.08, 0.16),
    eps: float = 1.0,
) -> pd.DataFrame:
    """Rand index of LSH-DDP / Approx-DPC / S-Approx-DPC on Syn."""
    rows = []
    for rate in noise_rates:
        ds = _scaled("syn", scale, noise_rate=rate)
        gt, params = ground_truth(ds, spark=spark)
        row = {"noise_rate": rate}
        row["LSH-DDP"] = rand_index(
            lsh_ddp(ds.points, params, spark=spark).labels, gt.labels
        )
        row["Approx-DPC"] = rand_index(
            approx_dpc(ds.points, params, spark=spark).labels, gt.labels
        )
        row["S-Approx-DPC"] = rand_index(
            s_approx_dpc(ds.points, params, eps, spark=spark).labels, gt.labels
        )
        rows.append(row)
    return pd.DataFrame(rows)


# -- Table 3: Rand index on S1..S4 ------------------------------------------


def table3(*, scale: float = 1.0, spark=None, eps: float = 1.0) -> pd.DataFrame:
    """Rand index on the S-sets (cluster-overlap robustness)."""
    rows = []
    for name in ("s1", "s2", "s3", "s4"):
        ds = _scaled(name, scale)
        gt, params = ground_truth(ds, spark=spark)
        rows.append(
            {
                "dataset": name.upper(),
                "LSH-DDP": rand_index(
                    lsh_ddp(ds.points, params, spark=spark).labels, gt.labels
                ),
                "Approx-DPC": rand_index(
                    approx_dpc(ds.points, params, spark=spark).labels, gt.labels
                ),
                "S-Approx-DPC": rand_index(
                    s_approx_dpc(ds.points, params, eps, spark=spark).labels,
                    gt.labels,
                ),
            }
        )
    return pd.DataFrame(rows)


# -- Table 4: Rand index on real-like datasets ------------------------------


def table4(*, scale: float = 1.0, spark=None) -> pd.DataFrame:
    """Rand index of LSH-DDP and Approx-DPC on the real-dataset substitutes."""
    rows = []
    for name in datasets.REAL_LIKE:
        ds = _scaled(name, scale)
        gt, params = ground_truth(ds, spark=spark)
        rows.append(
            {
                "dataset": name,
                "LSH-DDP": rand_index(
                    lsh_ddp(ds.points, params, spark=spark).labels, gt.labels
                ),
                "Approx-DPC": rand_index(
                    approx_dpc(ds.points, params, spark=spark).labels, gt.labels
                ),
            }
        )
    return pd.DataFrame(rows)


# -- Table 5: time vs accuracy of S-Approx-DPC ------------------------------


def table5(
    *,
    scale: float = 1.0,
    spark=None,
    eps_values=(0.2, 0.4, 0.6, 0.8, 1.0),
    dataset_names=("airline", "household"),
) -> pd.DataFrame:
    """S-Approx-DPC running time and Rand index across ε."""
    rows = []
    for name in dataset_names:
        ds = _scaled(name, scale)
        gt, params = ground_truth(ds, spark=spark)
        for eps in eps_values:
            t0 = time.perf_counter()
            res = s_approx_dpc(ds.points, params, eps, spark=spark)
            el = time.perf_counter() - t0
            rows.append(
                {
                    "dataset": name,
                    "eps": eps,
                    "time_s": el,
                    "rand_index": rand_index(res.labels, gt.labels),
                }
            )
    return pd.DataFrame(rows)


# -- Tables 6 & 7: decomposed time and memory -------------------------------


def table6_row(
    ds: datasets.Dataset, params: DPCParams, algorithm: str, *, spark=None
) -> dict:
    """One Table 6 row: run ``ALGORITHMS[algorithm]`` on ``ds``.

    S-Approx-DPC runs with the dataset's default ε.
    """
    opts = {"eps": ds.eps_default} if algorithm == "S-Approx-DPC" else {}
    res = ALGORITHMS[algorithm](ds.points, params, spark=spark, **opts)
    return {
        "dataset": ds.name,
        "algorithm": algorithm,
        "rho_s": res.timings.get("rho", np.nan),
        "delta_s": res.timings.get("delta", np.nan),
        "total_s": res.timings.get("total", np.nan),
        "dist_evals": res.counters.get("dist_evals", np.nan),
        "memory_mb": res.memory_bytes / 2**20,
    }


def table6(
    *,
    scale: float = 1.0,
    spark=None,
    dataset_names=datasets.REAL_LIKE,
    include: tuple[str, ...] | None = None,
) -> pd.DataFrame:
    """Decomposed ρ/δ computation time (and memory, feeding Table 7).

    ``include`` restricts the algorithm set to some ``ALGORITHMS`` keys.
    """
    rows: list[dict] = []
    for name in dataset_names:
        ds = _scaled(name, scale)
        _, params = ground_truth(ds, spark=spark)
        for alg in ALGORITHMS if include is None else include:
            rows.append(table6_row(ds, params, alg, spark=spark))
    return pd.DataFrame(rows)


def table7(
    *, scale: float = 1.0, spark=None, table6_df: pd.DataFrame | None = None
) -> pd.DataFrame:
    """Memory usage [MB] of the index structures per algorithm/dataset.

    Reuses a Table 6 run when provided (the measurements come from the
    same executions).
    """
    df = table6_df if table6_df is not None else table6(scale=scale, spark=spark)
    keep = ["R-tree + Scan", "LSH-DDP", "CFSFDP-A", "Ex-DPC", "Approx-DPC", "S-Approx-DPC"]
    out = df[df["algorithm"].isin(keep)].pivot(
        index="algorithm", columns="dataset", values="memory_mb"
    )
    return out.reindex(keep).reset_index()
