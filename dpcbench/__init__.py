"""Benchmark of the paper's three DPC algorithms under Spark; see run.py."""
