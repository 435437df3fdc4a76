"""The repository benchmark: closed-loop DTM workloads, end to end and
by layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics, and :mod:`perfbench.layers` maps every per-layer
metric to the end-to-end metric it should move.
"""
