"""The repro-qor benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 qorbench/run.py --help`` from the repository root; see
``qorbench/README.md`` for what each workload measures.
"""
