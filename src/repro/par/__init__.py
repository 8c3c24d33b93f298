"""Parallelization substrate: load balancing + Spark task fan-out."""
from repro.par.partition import lpt_assign
from repro.par.spark_map import fan_out, run_tasks

__all__ = ["fan_out", "lpt_assign", "run_tasks"]
