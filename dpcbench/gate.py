"""Correctness gate applied to every call the benchmark makes.

The expected values come from set-up: the Ex-DPC ground truth of
``experiments.ground_truth`` and, on a seeded sample of point ids, a
brute-force ρ, δ and dep built from ``core.distutil.sq_dists`` and
``core.types.tiebreak`` with the semantics of ``core/reference.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distutil import sq_dists
from repro.core.rand_index import rand_index
from repro.core.types import DPCParams, DPCResult, tiebreak
from repro.datasets import Dataset

SAMPLE = 256
# Lowest accepted Rand index against the Ex-DPC labels. Approx-DPC has
# Ex-DPC's centers (Theorem 4) and differs only where a cell's
# approximate dependent point changes a label; S-Approx-DPC also
# approximates densities. The floors sit below every value measured:
# 1.0 for both on both workloads, and 0.996 for S-Approx-DPC on S1-S4.
RI_FLOOR = {"approx": 0.999, "sapprox": 0.99}
# Ex-DPC's incremental kd-tree sums squared coordinate differences in a
# different order than sq_dists, so δ may differ in its last bits.
DELTA_ULPS = 4


@dataclass
class Case:
    """One dataset with its parameters and expected outputs."""

    ds: Dataset
    params: DPCParams
    gt: DPCResult
    sample: np.ndarray
    rho: np.ndarray  # brute force, on ``sample``
    delta: np.ndarray
    dep: np.ndarray


def build_case(ds: Dataset, gt: DPCResult, params: DPCParams, seed: int) -> Case:
    pts = ds.points
    n = len(pts)
    sample = np.sort(np.random.default_rng(seed).choice(n, min(SAMPLE, n), replace=False))
    d2 = sq_dists(pts[sample], pts)
    rho = (d2 < params.d_cut * params.d_cut).sum(axis=1).astype(np.int64) - 1
    key = gt.rho + tiebreak(n, params.seed)
    higher = key[None, :] > key[sample][:, None]
    d2 = np.where(higher, d2, np.inf)
    dep = np.argmin(d2, axis=1)
    delta = np.sqrt(d2[np.arange(len(sample)), dep])
    dep = np.where(np.isfinite(delta), dep, -1)
    return Case(ds, params, gt, sample, rho, delta, dep)


@dataclass
class Verdict:
    problems: list[str]
    rand_index: float | None = None
    delta_inexact: int = 0  # sampled δ within DELTA_ULPS but not bit-equal


def check(case: Case, algo: str, res: DPCResult) -> Verdict:
    gt, s = case.gt, case.sample
    out = Verdict([])
    bad = out.problems
    if res.n_clusters != case.ds.expected_k:
        bad.append(f"{res.n_clusters} clusters, expected {case.ds.expected_k}")
    if algo == "exdpc":
        if not np.array_equal(res.rho[s], case.rho):
            bad.append("rho differs from brute force")
        if not np.array_equal(res.dep[s], case.dep):
            bad.append("dep differs from brute force")
        d, ref = res.delta[s], case.delta
        fin = np.isfinite(ref)
        if not np.array_equal(np.isfinite(d), fin) or np.any(
            np.abs(d[fin] - ref[fin]) > DELTA_ULPS * np.spacing(ref[fin])
        ):
            bad.append("delta differs from brute force")
        out.delta_inexact = int(np.count_nonzero(d[fin] != ref[fin]))
        if not np.array_equal(res.rho, gt.rho) or not np.array_equal(res.labels, gt.labels):
            bad.append("rho or labels differ from the ground-truth run")
        return out
    if algo == "approx":
        if not np.array_equal(res.rho, gt.rho):
            bad.append("rho differs from Ex-DPC")
        if not np.array_equal(res.centers, gt.centers):
            bad.append("centers differ from Ex-DPC")
    out.rand_index = rand_index(res.labels, gt.labels)
    if out.rand_index < RI_FLOOR[algo]:
        bad.append(f"Rand index {out.rand_index:.6f} < {RI_FLOOR[algo]}")
    return out
