"""Sweep-path benchmark for the HawkEye simulator (``python -m bench run``).

See ``bench/README.md`` for the workloads, metrics and how to cite them.
"""
