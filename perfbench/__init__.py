"""End-to-end query benchmark for the VisualPrint reproduction.

Drives seeded queries through the public query path — phone client,
simulated uplink, serving frontend, one process-mode shard running the
venue engine, simulated downlink — and reports end-to-end and per-layer
metrics.  Run it from the repository root::

    python3 perfbench/run.py --workload lossy_ingest_mix --seed 1 --seconds 36 --trace 0

See ``perfbench/README.md`` for the metric glossary and the reasons
behind each workload.
"""
