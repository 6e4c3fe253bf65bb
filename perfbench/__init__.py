"""End-to-end and per-layer benchmark of the ``sumrate`` command line.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root. ``run.py`` documents the
measurement; ``workloads.py`` the inputs; ``checks.py`` the output checks;
``tracing.py`` the per-layer spans.
"""
