"""Serial (driver) vs Spark-parallel equality for every algorithm, plus
fan_out/run_tasks/Shared substrate behaviour under Spark."""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pytest

from repro.baselines.cfsfdp_a import cfsfdp_a
from repro.baselines.lsh_ddp import lsh_ddp
from repro.baselines.rtree_scan import rtree_scan_dpc
from repro.core.approx_dpc import approx_dpc
from repro.core.exdpc import ex_dpc
from repro.core.s_approx_dpc import s_approx_dpc
from repro.core.scan import scan_dpc
from repro.core.types import DPCParams
from repro.par.spark_map import Shared, fan_out, run_tasks
from tests.conftest import make_blobs

ALGOS = [
    ("scan", scan_dpc),
    ("exdpc", ex_dpc),
    ("rtree_scan", rtree_scan_dpc),
    ("cfsfdp_a", cfsfdp_a),
    ("approx_dpc", approx_dpc),
    ("lsh_ddp", lsh_ddp),
]


@pytest.fixture(scope="module")
def data():
    pts = make_blobs(n_per=120, k=3, n_noise=20, seed=0)
    return pts, DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)


@pytest.mark.parametrize("name,fn", ALGOS, ids=[a for a, _ in ALGOS])
def test_parallel_equals_serial(spark, data, name, fn):
    pts, params = data
    a = fn(pts, params)
    b = fn(pts, params, spark=spark)
    assert np.array_equal(a.rho, b.rho), name
    assert np.array_equal(a.delta, b.delta), name
    assert np.array_equal(a.dep, b.dep), name
    assert np.array_equal(a.centers, b.centers), name
    assert np.array_equal(a.labels, b.labels), name
    assert a.counters["dist_evals"] == b.counters["dist_evals"], name


@pytest.mark.parametrize("eps", [0.4, 1.0])
def test_s_approx_parallel_equals_serial(spark, data, eps):
    pts, params = data
    a = s_approx_dpc(pts, params, eps)
    b = s_approx_dpc(pts, params, eps, spark=spark)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.labels, b.labels)
    assert a.counters["dist_evals"] == b.counters["dist_evals"]


def test_caller_session_not_mutated(spark, data):
    """Neither run_tasks nor an algorithm changes the session's SQL conf or
    the SparkContext conf. A fresh session has its own SQL conf, so a
    setting left by an earlier test cannot hide a new one."""
    pts, params = data
    session = spark.newSession()

    def snapshot():
        return (
            dict(session.conf.getAll),
            sorted(session.sparkContext.getConf().getAll()),
        )

    before = snapshot()
    run_tasks(
        session,
        lambda it: it.assign(out=it["x"] + 1),
        pd.DataFrame({"x": np.arange(20, dtype=np.int64)}),
        "x long, out long",
    )
    assert snapshot() == before, "run_tasks"
    ex_dpc(pts, params, spark=session)
    assert snapshot() == before, "ex_dpc"
    approx_dpc(pts, params, spark=session)
    assert snapshot() == before, "approx_dpc"
    s_approx_dpc(pts, params, 1.0, spark=session)
    assert snapshot() == before, "s_approx_dpc"


def _driver_temp_files(spark) -> int:
    return len(os.listdir(spark.sparkContext._temp_dir))


def test_broadcasts_leave_no_driver_files(spark, data):
    """Each phase's payload broadcast is destroyed with its pickle file on
    the driver, so the driver's temp dir does not grow call by call."""
    pts, params = data
    before = _driver_temp_files(spark)
    ex_dpc(pts, params, spark=spark)
    approx_dpc(pts, params, spark=spark)
    s_approx_dpc(pts, params, 1.0, spark=spark)
    assert _driver_temp_files(spark) == before


@pytest.mark.parametrize(
    "fn,args",
    [(ex_dpc, ()), (approx_dpc, ()), (s_approx_dpc, (1.0,))],
    ids=["ex_dpc", "approx_dpc", "s_approx_dpc"],
)
def test_benchmark_tracer_sees_every_phase(spark, data, fn, args):
    """The benchmark's tracer patches ``run_tasks`` and ``Shared``: every
    Spark stage must pair with one broadcast span and report task spans,
    and the traced serial pass must give the Spark labels."""
    from dpcbench.spans import Recorder, Tracer

    pts, params = data
    rec = Recorder()
    with Tracer(rec) as tracer:
        par = fn(pts, params, *args, spark=spark)
    names = [rec.names[span[0]] for span in rec.spans]
    assert len(tracer.stages) >= 1
    assert names.count("par.spark_map:broadcast") == len(tracer.stages)
    assert names.count("kernel:task") >= len(tracer.stages)
    srec = Recorder()
    with Tracer(srec):
        ser = fn(pts, params, *args)
    assert np.array_equal(ser.labels, par.labels)


def _assert_same_run(base, res):
    assert np.array_equal(base.labels, res.labels)
    assert np.array_equal(base.delta, res.delta)
    assert base.counters["dist_evals"] == res.counters["dist_evals"]


@pytest.mark.parametrize("n_tasks", [1, 3, 16, 64])
def test_task_count_invariant(spark, data, n_tasks):
    pts, params = data
    base = ex_dpc(pts, params)
    _assert_same_run(base, ex_dpc(pts, params, spark=spark, n_tasks=n_tasks))


@pytest.mark.parametrize("n_tasks", [1, 3, 16])
def test_approx_task_count_invariant(spark, data, n_tasks):
    """Neither a joint-search group of cells nor a block of P' queries is
    split across tasks, so not even dist_evals depends on the task count."""
    pts, params = data
    base = approx_dpc(pts, params)
    _assert_same_run(base, approx_dpc(pts, params, spark=spark, n_tasks=n_tasks))


@pytest.mark.parametrize("n_tasks", [1, 3, 16])
def test_s_approx_task_count_invariant(spark, data, n_tasks):
    """A ρ work item (the picked points of one kd-tree leaf) is never split
    across tasks, so not even dist_evals depends on the task count."""
    pts, params = data
    base = s_approx_dpc(pts, params, 0.4)
    _assert_same_run(base, s_approx_dpc(pts, params, 0.4, spark=spark, n_tasks=n_tasks))


class TestFanOut:
    def test_serial_passes_payload_itself(self):
        payload = {"k": 3}
        seen = []

        def kernel(items, p):
            seen.append(p)
            return items

        fan_out(None, kernel, pd.DataFrame({"x": np.arange(4)}), "x long", payload)
        assert len(seen) == 1 and seen[0] is payload

    def test_parallel_equals_serial(self, spark):
        def kernel(items, payload):
            return items.assign(out=items["x"] * payload["k"])

        items = pd.DataFrame({"x": np.arange(50, dtype=np.int64)})
        serial = fan_out(None, kernel, items, "x long, out long", {"k": 3})
        par = fan_out(spark, kernel, items, "x long, out long", {"k": 3}, n_tasks=3)
        par = par.sort_values("x").reset_index(drop=True)
        pd.testing.assert_frame_equal(par, serial)

    def test_broadcast_destroyed_when_kernel_fails(self, spark):
        def kernel(items, payload):
            raise RuntimeError("kernel failure")

        before = _driver_temp_files(spark)
        with pytest.raises(Exception, match="kernel failure"):
            fan_out(spark, kernel, pd.DataFrame({"x": np.arange(8)}), "x long", {"k": 1})
        assert _driver_temp_files(spark) == before


class TestRunTasks:
    def test_serial_mode_single_call(self):
        calls = []

        def kernel(items):
            calls.append(len(items))
            return items.assign(out=items["x"] * 2)

        out = run_tasks(None, kernel, pd.DataFrame({"x": np.arange(10)}), "ignored")
        assert calls == [10]
        assert out["out"].tolist() == list(range(0, 20, 2))

    def test_parallel_covers_all_items(self, spark):
        def kernel(items):
            return items.assign(out=items["x"] + 1)

        out = run_tasks(
            spark,
            kernel,
            pd.DataFrame({"x": np.arange(100, dtype=np.int64)}),
            "x long, out long",
            n_tasks=7,
        )
        assert sorted(out["out"].tolist()) == list(range(1, 101))

    def test_costs_drive_grouping(self, spark):
        # kernel records group sizes; with one giant item, LPT isolates it
        def kernel(items):
            return pd.DataFrame({"size": [np.int64(len(items))]})

        costs = np.array([100.0] + [1.0] * 30)
        out = run_tasks(
            spark,
            kernel,
            pd.DataFrame({"x": np.arange(31, dtype=np.int64)}),
            "size long",
            costs=costs,
            n_tasks=4,
        )
        assert 1 in out["size"].tolist()  # the giant item sits alone

    def test_parallel_matches_serial_columns_and_dtypes(self, spark):
        def kernel(items):
            ids = items["id"].to_numpy()
            return pd.DataFrame(
                {
                    "id": ids,
                    "half": ids / 2.0,
                    "even": ids % 2 == 0,
                    "ncells": [list(range(i % 3)) for i in ids],
                }
            )

        items = pd.DataFrame({"id": np.arange(23, dtype=np.int64)})
        schema = "id long, half double, even boolean, ncells array<long>"
        serial = run_tasks(None, kernel, items, schema)
        par = run_tasks(spark, kernel, items, schema, n_tasks=4)
        assert list(par.columns) == list(serial.columns)
        assert par.dtypes.to_dict() == serial.dtypes.to_dict()
        par = par.sort_values("id").reset_index(drop=True)
        assert par["id"].tolist() == serial["id"].tolist()
        assert par["half"].tolist() == serial["half"].tolist()
        assert par["even"].tolist() == serial["even"].tolist()
        assert par["ncells"].tolist() == serial["ncells"].tolist()

    def test_schema_selects_and_orders_columns(self, spark):
        def kernel(items):
            return items.assign(extra=0, out=items["x"] * 3)

        items = pd.DataFrame({"x": np.arange(9, dtype=np.int64)})
        out = run_tasks(spark, kernel, items, "out long, x long", n_tasks=2)
        assert list(out.columns) == ["out", "x"]
        with pytest.raises(ValueError, match=r"lacks columns \['missing'\]"):
            run_tasks(spark, kernel, items, "x long, missing double", n_tasks=2)

    def test_more_tasks_than_items(self, spark):
        # each item in exactly one group, and only non-empty groups run
        def kernel(items):
            return items.assign(size=len(items))

        items = pd.DataFrame({"x": np.arange(5, dtype=np.int64)})
        out = run_tasks(spark, kernel, items, "x long, size long", n_tasks=12)
        assert sorted(out["x"].tolist()) == list(range(5))
        assert out["size"].tolist() == [1] * 5

    @pytest.mark.parametrize("n_tasks", [1, 3, 16])
    def test_explicit_n_tasks_honoured(self, spark, n_tasks):
        def kernel(items):
            return pd.DataFrame({"size": [np.int64(len(items))]})

        items = pd.DataFrame({"x": np.arange(10, dtype=np.int64)})
        out = run_tasks(spark, kernel, items, "size long", n_tasks=n_tasks)
        assert len(out) == min(n_tasks, 10)
        assert out["size"].sum() == 10

    def test_empty_items(self, spark):
        def kernel(items):
            return items

        out = run_tasks(spark, kernel, pd.DataFrame({"x": []}), "x double")
        assert len(out) == 0

    def test_shared_serial_and_spark(self, spark):
        s1 = Shared({"v": 42})
        assert s1.get()["v"] == 42
        s2 = Shared({"v": 43}, spark)
        assert s2.get()["v"] == 43
        s2.destroy()
