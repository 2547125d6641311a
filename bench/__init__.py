"""End-to-end benchmark of the Rain debugging loop on four paper workloads.

``python -m bench`` runs it; ``bench/README.md`` describes the workloads,
the metrics and how to read the trace.
"""
