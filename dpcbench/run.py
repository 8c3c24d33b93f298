"""Benchmark of Ex-DPC, Approx-DPC and S-Approx-DPC under Spark local[4].

Run from the repository root:

    python3 dpcbench/run.py --workload sparse-airline --seed 1 --seconds 25 --trace 0

One driver process makes one call at a time (a closed loop): Ex-DPC,
Approx-DPC, S-Approx-DPC on each dataset of the workload in turn, until
``--seconds`` have passed. Every call is timed from points in to labels
out and checked by ``gate.check``. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it describes the run: environment,
sample counts and the data regime.

With ``--trace 1`` the timed loop is followed by one Spark pass and one
serial pass (``spark=None``) with the layer wrappers of ``spans.py``
installed; the serial pass must give the Spark labels. Spans are written
to ``.dpcbench_run/`` in the current directory, which also holds Spark's
scratch files.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

ALGOS = ("exdpc", "approx", "sapprox")
WORKLOADS = ("sparse-airline", "dense-pamap2")
MASTER = "local[4]"
DRIVER_MEMORY = "2g"
WARM_STAGES = 2


def cpu_ref_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast this host runs now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(5_000_000):
        x += i & 7
    return time.perf_counter() - t0


@dataclass
class Call:
    case: int
    algo: str
    wall_s: float
    res: object  # DPCResult, or None if the call raised
    problems: list
    rand_index: float | None = None
    delta_inexact: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _start_spark(run_dir: str, src: str):
    tmp = os.path.join(run_dir, "tmp")
    local = os.path.join(run_dir, "spark")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    # Everything Spark and its Python workers write stays in the checkout.
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local
    # repro is not installed; the workers import it from src.
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    # No hsperfdata files in /tmp, for the launcher JVM and the driver JVM.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    # Session conf of the test fixture and jobs/_common.py, so the
    # benchmark measures the program the tests run.
    spark = (
        SparkSession.builder.appName("dpcbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM, which exits when its stdin closes."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    proc.stdin.close()
    proc.wait(timeout=60)


class Bench:
    def __init__(self, spark, cases):
        from repro.core.approx_dpc import approx_dpc
        from repro.core.exdpc import ex_dpc
        from repro.core.s_approx_dpc import s_approx_dpc

        self._fns = {"exdpc": ex_dpc, "approx": approx_dpc, "sapprox": s_approx_dpc}
        self.spark = spark
        self.cases = cases

    def call(self, ci: int, algo: str, spark, rec=None) -> Call:
        """One call, timed from points in to labels out, then gated.

        With a span recorder ``rec``, the call itself is a ``call:<algo>`` span.
        """
        from dpcbench import gate

        case = self.cases[ci]
        args = (case.ds.points, case.params)
        if algo == "sapprox":
            args += (case.ds.eps_default,)
        if rec is not None:
            rec.call += 1
            span = rec.begin(f"call:{algo}")
        t0 = time.perf_counter()
        try:
            res = self._fns[algo](*args, spark=spark)
        except Exception:  # a failed call is counted, not fatal
            res = None
            problems = [traceback.format_exc()]
        wall = time.perf_counter() - t0
        if rec is not None:
            rec.end(span)
        if res is None:
            return Call(ci, algo, wall, None, problems)
        v = gate.check(case, algo, res)
        for p in v.problems:
            print(f"dpcbench: {case.ds.name} {algo}: {p}", file=sys.stderr)
        return Call(ci, algo, wall, res, v.problems, v.rand_index, v.delta_inexact)

    def one_pass(self, spark, rec=None) -> list[Call]:
        return [
            self.call(ci, algo, spark, rec)
            for ci in range(len(self.cases))
            for algo in ALGOS
        ]

    def closed_loop(self, seconds: float) -> list[Call]:
        """Whole passes for about ``seconds``; at least one.

        Passes are not cut short, so every dataset of the workload weighs
        the same in each median; the loop stops at the pass boundary
        nearest to ``seconds``.
        """
        t0 = time.perf_counter()
        calls = self.one_pass(self.spark)
        passes = 1
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / passes > seconds:
                return calls
            calls += self.one_pass(self.spark)
            passes += 1


def _setup(spark, workload: str, seed: int):
    import numpy as np
    import pandas as pd

    from dpcbench import gate, workloads
    from repro import experiments
    from repro.par.spark_map import run_tasks

    # The first stages start the Python workers and JIT the JVM paths.
    for _ in range(WARM_STAGES):
        run_tasks(spark, lambda it: it, pd.DataFrame({"id": np.arange(64)}), "id long")
    cases = []
    for ds in workloads.make(workload, seed):
        gt, params = experiments.ground_truth(ds, spark=spark)  # Ex-DPC on Spark
        cases.append(gate.build_case(ds, gt, params, seed))
    bench = Bench(spark, cases)
    for ci in range(len(cases)):  # Ex-DPC already ran once per dataset above
        for algo in ALGOS[1:]:
            bench.call(ci, algo, spark)
    return bench


def _regime(bench: Bench, first_pass: list[Call]) -> dict:
    n = sum(c.ds.n for c in bench.cases)

    def total(algo, key):
        return sum(c.res.counters[key] for c in first_pass if c.algo == algo and c.res)

    return {
        "regime.rho_avg": sum(float(c.gt.rho.sum()) for c in bench.cases) / n,
        "regime.cells_per_n": total("approx", "n_cells") / n,
        "regime.pprime_per_n": total("approx", "n_pprime") / n,
        "regime.roots_per_n": total("sapprox", "n_roots") / n,
    }


def end_to_end(bench: Bench, calls: list[Call], setup_s: float) -> dict:
    walls = {a: [c.wall_s for c in calls if c.algo == a] for a in ALGOS}

    def lowest_ri(algo):
        vals = [c.rand_index for c in calls if c.algo == algo and c.rand_index is not None]
        return min(vals) if vals else 0.0

    points = sum(bench.cases[c.case].ds.n for c in calls)
    mem = [c.res.memory_bytes for c in calls if c.res is not None]
    failed = sum(not c.ok for c in calls)
    return {
        "setup_s": (setup_s, "s"),
        "exdpc_s": (statistics.median(walls["exdpc"]), "s"),
        "approx_s": (statistics.median(walls["approx"]), "s"),
        "sapprox_s": (statistics.median(walls["sapprox"]), "s"),
        "points_per_s": (points / sum(c.wall_s for c in calls), "points/s"),
        "rand_index_approx": (lowest_ri("approx"), "1"),
        "rand_index_sapprox": (lowest_ri("sapprox"), "1"),
        "index_mb": (max(mem) / 2**20 if mem else 0.0, "MiB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "pass_rate": (1.0 - failed / len(calls), "1"),
    }


def _algo_layer(calls: list[Call], first_pass: list[Call]) -> dict:
    out = {}
    for algo in ALGOS:
        mine = [c.res for c in calls if c.algo == algo and c.res is not None]
        out[f"{algo}.rho_s"] = (statistics.median([r.timings["rho"] for r in mine]), "s")
        out[f"{algo}.delta_s"] = (statistics.median([r.timings["delta"] for r in mine]), "s")
        evals = sum(c.res.counters["dist_evals"] for c in first_pass if c.algo == algo and c.res)
        out[f"{algo}.dist_evals"] = (evals, "count")
    return out


def _span_stats(rec, prefix: str = ""):
    """Self time per layer and per-call time no span accounts for.

    Returns (metrics, per span name: inclusive seconds and span count,
    per-call rows).
    """
    from dpcbench.spans import LAYERS, layer_of

    selfs = rec.self_times()
    incl: dict[str, float] = {}
    count: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    per_call = []
    for i, span in enumerate(rec.spans):
        name = rec.names[span[0]]
        incl[name] = incl.get(name, 0.0) + span[2] - span[1]
        count[name] = count.get(name, 0) + 1
        layer = layer_of(name)
        if layer == "call":
            per_call.append(
                {"call": span[4], "algo": name[5:], "wall_s": span[2] - span[1],
                 "unspanned_s": float(selfs[i])}
            )
        else:
            layer_self[layer] += selfs[i]
    out = {f"{prefix}self_s.{k}": (v, "s") for k, v in layer_self.items()}
    for algo in ALGOS:
        out[f"{prefix}unspanned_s.{algo}"] = (
            sum(r["unspanned_s"] for r in per_call if r["algo"] == algo), "s")
    return out, incl, count, per_call


def _traced_pass(bench: Bench, spark):
    from dpcbench.spans import Recorder, Tracer

    rec = Recorder()
    with Tracer(rec) as tracer:
        t0 = time.perf_counter()
        calls = bench.one_pass(spark, rec)
        wall = time.perf_counter() - t0
    return rec, tracer, calls, wall


def per_layer(bench: Bench, calls: list[Call], first_pass: list[Call]):
    """Run the traced Spark pass and the traced serial pass.

    Returns (metrics, the passes' calls, their span recorders, per-call
    unspanned time of each pass).
    """
    m = _algo_layer(calls, first_pass)
    m.update({k: (v, "1") for k, v in _regime(bench, first_pass).items()})

    rec, tracer, spark_calls, traced_wall = _traced_pass(bench, bench.spark)
    stages = tracer.stages
    untraced_wall = sum(c.wall_s for c in first_pass)
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["fanout.stages"] = (len(stages), "count")
    m["fanout.stage_s"] = (sum(s["wall_s"] for s in stages), "s")
    m["fanout.overhead_s"] = (sum(s["wall_s"] - s["task_s_max"] for s in stages), "s")
    m["fanout.task_s_sum"] = (sum(s["task_s_sum"] for s in stages), "s")
    m["fanout.task_s_max"] = (sum(s["task_s_max"] for s in stages), "s")
    m["fanout.imbalance"] = (_mean([s["imbalance"] for s in stages]), "1")
    m["lpt.pred_imbalance"] = (_mean([s["pred_imbalance"] for s in stages]), "1")
    stats, incl, _, spark_rows = _span_stats(rec, "spark.")
    m.update(stats)
    m["fanout.broadcast_s"] = (incl.get("par.spark_map:broadcast", 0.0), "s")

    srec, _, serial_calls, _ = _traced_pass(bench, None)
    stats, incl, count, serial_rows = _span_stats(srec)
    m.update(stats)
    c = srec.counts
    # (count metric, seconds metric, span), named as in METRICS.md.
    for n_name, s_name, span in (
        ("kdtree.builds", "kdtree.build_s", "index.kdtree:build"),
        ("kdtree.range_count.calls", "kdtree.range_count.s", "index.kdtree:range_count"),
        ("kdtree.range_query.calls", "kdtree.range_query.s", "index.kdtree:range_query"),
        ("kdtree.nn_with_bound.calls", "kdtree.nn_with_bound.s", "index.kdtree:nn_with_bound"),
        (None, "ikdtree.insert.s", "index.kdtree:ikdtree_insert"),
        ("ikdtree.nn.calls", "ikdtree.nn.s", "index.kdtree:ikdtree_nn"),
        (None, "grid.build_s", "index.grid:build"),
        ("sq_dists.calls", "sq_dists.s", "core.distutil:sq_dists"),
        (None, "depexact.s", "core.depexact:exact_dependent"),
        (None, "labels.finalize_s", "core.labels:finalize"),
    ):
        if n_name:
            m[n_name] = (count.get(span, 0), "count")
        m[s_name] = (incl.get(span, 0.0), "s")
    m["kdtree.range_query.hit_ratio"] = (
        c["kdtree.range_query.ids"] / max(c["kdtree.range_query.dist_evals"], 1), "1")
    m["grid.cells"] = (c["grid.cells"], "count")
    m["sq_dists.pairs"] = (c["sq_dists.pairs"], "count")
    m["depexact.queries"] = (c["depexact.queries"], "count")
    m["gate.delta_inexact"] = (
        sum(c.delta_inexact for c in first_pass if c.algo == "exdpc"), "count")

    # The serial pass must reproduce the Spark labels call for call.
    import numpy as np

    for s_call, p_call in zip(serial_calls, first_pass):
        if s_call.res is not None and p_call.res is not None and not np.array_equal(
            s_call.res.labels, p_call.res.labels
        ):
            s_call.problems.append("serial labels differ from Spark labels")
            print(f"dpcbench: {s_call.algo}: serial labels differ from Spark", file=sys.stderr)
    unspanned = {"spark": spark_rows, "serial": serial_rows}
    return m, spark_calls + serial_calls, [rec, srec], unspanned


def _mean(xs):
    return sum(xs) / len(xs)


def _env(spark, cpu_before: float, cpu_after: float) -> dict:
    import numpy
    import pandas
    import pyspark

    conf = spark.sparkContext.getConf()
    return {
        "cores": os.cpu_count(),
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "driver_memory": conf.get("spark.driver.memory", DRIVER_MEMORY),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark.__version__,
        "cpu_ref_s": cpu_before,
        "cpu_ref_after_s": cpu_after,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("dpcbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [src, root]
    run_dir = os.path.join(root, ".dpcbench_run")

    cpu_before = cpu_ref_s()
    t_setup = time.perf_counter()
    spark = _start_spark(run_dir, src)
    try:
        bench = _setup(spark, args.workload, args.seed)
        setup_s = time.perf_counter() - t_setup
        calls = bench.closed_loop(args.seconds)
        first_pass = calls[: len(bench.cases) * len(ALGOS)]
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "samples": {a: sum(c.algo == a for c in calls) for a in ALGOS},
            "walls_s": {a: [c.wall_s for c in calls if c.algo == a] for a in ALGOS},
            "regime": _regime(bench, first_pass),
        }
        if args.trace:
            metrics, extra_calls, recs, info["unspanned"] = per_layer(bench, calls, first_pass)
            calls = calls + extra_calls
        else:
            metrics = end_to_end(bench, calls, setup_s)
        info["env"] = _env(spark, cpu_before, cpu_ref_s())
    finally:
        _stop_spark(spark)
    if args.trace:
        metrics["env.cpu_ref_s"] = (info["env"]["cpu_ref_s"], "s")
        metrics["env.cpu_ref_after_s"] = (info["env"]["cpu_ref_after_s"], "s")
        for tag, rec in zip(("spark", "serial"), recs):
            rec.dump(
                os.path.join(run_dir, f"spans-{args.workload}-{args.seed}-{tag}.json.gz"),
                {"info": info},
            )
    failed = sum(not c.ok for c in calls)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(calls),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
