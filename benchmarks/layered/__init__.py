"""The layered OREGAMI benchmark: six named workloads, end-to-end and
per-layer metrics, independent output checks.  See ``README.md`` here and
``/BENCHMARK.json``; ``python -m benchmarks.layered --help`` runs it.
"""
