"""The benchmark's workloads: two point sets in opposite data regimes.

Each workload is a list of datasets from ``repro.datasets``, generated
with the generators' default seeds; the workload seed permutes the order
of the points, and the program sees only the permuted points. The seed
thus changes point ids, and with them the density tie-breaks, Ex-DPC's
insertion order and S-Approx-DPC's picked points, but not the point
cloud: a freshly generated cloud per seed varied the work of a call
enough to widen the run-to-run spread of every timing well beyond that
of repeated runs on one cloud.

Sizes keep one run of the benchmark inside its time budget on a 4-core
host while keeping each data regime (see BENCHMARK.json for why each
workload was chosen):

* ``sparse-airline`` — the airline substitute at 0.1 of its bench size
  with ρ_min scaled the same way: nearly one point per grid cell and a
  large P', so per-point tree walks and the exact-δ subset search dominate
  the task kernels.
* ``dense-pamap2`` — the pamap2 substitute at 0.125 of its bench size,
  coordinates shrunk by 0.125^(1/d) so that ρ_avg stays at its bench-size
  value (~400): few queries with large results.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from repro import datasets, experiments

_DENSE_SCALE = 0.125
_PAMAP2_BENCH_N = 96_262  # the substitute's bench cardinality (scale 1.0)


def _sparse_airline() -> list[datasets.Dataset]:
    return [experiments._scaled("airline", 0.1)]


def _dense_pamap2() -> list[datasets.Dataset]:
    ds = datasets.pamap2(n=int(_PAMAP2_BENCH_N * _DENSE_SCALE))
    return [dataclasses.replace(ds, points=ds.points * _DENSE_SCALE ** (1.0 / ds.d))]


WORKLOADS = {
    "sparse-airline": _sparse_airline,
    "dense-pamap2": _dense_pamap2,
}


def make(workload: str, seed: int) -> list[datasets.Dataset]:
    """The workload's datasets for ``seed``; the same seed gives the same points."""
    rng = np.random.default_rng(seed)
    return [
        dataclasses.replace(ds, points=ds.points[rng.permutation(ds.n)])
        for ds in WORKLOADS[workload]()
    ]
