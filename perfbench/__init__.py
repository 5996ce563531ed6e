"""Benchmark of the KG engine; run ``python3 perfbench/run.py --help``."""
