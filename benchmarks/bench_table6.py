"""Benchmarks regenerating Table 6: one timed run per (algorithm, dataset).

pytest-benchmark's per-benchmark wall time is the Table 6 "total";
the ρ/δ decomposition printed by ``jobs/table6.py`` comes from the
DPCResult timings of the same executions.
"""
from __future__ import annotations

import pytest

from benchmarks._cache import dataset_and_params
from repro import experiments

SCALE = 0.25

DATASETS = ("airline", "household", "pamap2", "sensor")


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("algo", list(experiments.ALGORITHMS))
def test_table6(benchmark, spark, dataset, algo):
    ds, params = dataset_and_params(dataset, SCALE)
    row = benchmark.pedantic(
        lambda: experiments.table6_row(ds, params, algo, spark=spark),
        rounds=1,
        iterations=1,
    )
    assert row["rho_s"] > 0
