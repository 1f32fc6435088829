"""The repository's benchmark: seeded workloads, output checks, and a
traced per-layer run.  Entry point: ``python3 perfbench/run.py``."""
