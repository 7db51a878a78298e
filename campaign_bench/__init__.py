"""Campaign benchmark: end-to-end campaign metrics and layer tracing.

``python3 campaign_bench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload (see :mod:`campaign_bench.workloads`)
and prints one JSON result line; ``BENCHMARK.json`` at the repository
root declares the workloads and metrics.
"""
