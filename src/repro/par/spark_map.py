"""Spark task fan-out: the multicore substrate (DESIGN.md §2).

Every parallel phase of every algorithm is one call

    fan_out(spark, kernel, items, out_schema, payload, costs=...)

where ``items`` is a pandas DataFrame of work descriptors (point ids,
cell ids, chunk ranges) and ``payload`` the phase's read-only data
(points, kd-trees, grids). ``kernel(items, payload)`` is a pure function
returning a pandas DataFrame. The payload is broadcast once per phase
(:class:`Shared`), so it ships to each executor once, not once per task,
and the broadcast is destroyed when the phase ends, driver-side pickle
file included.

Under ``fan_out``, :func:`run_tasks` groups the items into cost-balanced
task groups with Graham's greedy LPT (``par.partition``), and the
non-empty groups run as one ``sc.parallelize(groups, len(groups)).map``
stage: one partition, hence one Spark task, per group. With the default
of ``defaultParallelism`` groups that is one wave of tasks over the
local[*] cores. The groups are fixed on the driver, so there is no
shuffle, no DataFrame round trip and no session conf to set.

One wave is deliberate. On a 4-core host each extra wave of Python
tasks costs about 0.25 s of scheduling and worker round trips, more
than the imbalance it removes: LPT with unit costs deals items out
round-robin, so the groups of a ρ stage are already even.

With ``spark=None`` the kernel runs once on the driver over all items,
with the payload itself — the serial mode used by unit tests and
serial-vs-parallel equality tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.par.partition import lpt_assign

__all__ = ["Shared", "fan_out", "run_tasks"]


class Shared:
    """A read-only payload, broadcast under Spark, plain reference otherwise.

    Only the broadcast *handle* is pickled into task closures, so the
    payload ships to each executor once, not once per task.
    """

    def __init__(self, payload, spark=None):
        if spark is not None:
            self._bc = spark.sparkContext.broadcast(payload)
            self._payload = None
        else:
            self._bc = None
            self._payload = payload

    def get(self):
        return self._bc.value if self._bc is not None else self._payload

    def destroy(self) -> None:
        """Drop the broadcast everywhere, its driver-side pickle file too."""
        if self._bc is not None:
            self._bc.destroy()


def run_tasks(
    spark,
    kernel,
    items: pd.DataFrame,
    out_schema: str,
    *,
    costs: np.ndarray | None = None,
    n_tasks: int | None = None,
) -> pd.DataFrame:
    """Run ``kernel(items_group) -> pandas DataFrame`` over balanced groups.

    ``out_schema`` is the DDL schema of the kernel output,
    ``"name type, ..."``; in parallel mode its column names select and
    order the columns of the result, and a kernel output missing one of
    them is an error. Serial mode (``spark=None``) calls the kernel once
    and returns its output as is. Each group reaches the kernel with a
    fresh ``RangeIndex``; the result concatenates the group outputs in
    group order.
    """
    if spark is None or len(items) == 0:
        return kernel(items).reset_index(drop=True)
    columns = [field.split()[0] for field in out_schema.split(",")]
    if n_tasks is None:
        n_tasks = spark.sparkContext.defaultParallelism
    if costs is None:
        costs = np.ones(len(items))
    assign = lpt_assign(np.asarray(costs), n_tasks)
    groups = [g.reset_index(drop=True) for _, g in items.groupby(assign, sort=True)]
    frames = spark.sparkContext.parallelize(groups, len(groups)).map(kernel).collect()
    out = pd.concat(frames, ignore_index=True)
    missing = [c for c in columns if c not in out.columns]
    if missing:
        raise ValueError(f"kernel output lacks columns {missing} of {out_schema!r}")
    return out[columns]


def fan_out(
    spark,
    kernel,
    items: pd.DataFrame,
    out_schema: str,
    payload,
    *,
    costs: np.ndarray | None = None,
    n_tasks: int | None = None,
) -> pd.DataFrame:
    """One parallel phase: :func:`run_tasks` over ``kernel(items, payload)``,
    with ``payload`` broadcast for the phase and destroyed after it."""
    shared = Shared(payload, spark)
    try:
        return run_tasks(
            spark,
            lambda group: kernel(group, shared.get()),
            items,
            out_schema,
            costs=costs,
            n_tasks=n_tasks,
        )
    finally:
        shared.destroy()
