"""End-to-end study benchmark with an outside-in per-layer ledger.

Run ``PYTHONPATH=src python -m bench --help``; see ``bench/README.md``.
"""
