"""Benchmark of the ``sumrate`` command line, end to end or per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload gradient_scale --seed 1 --seconds 30 --trace 0

The benchmark generates seeded scenario files, then calls
``sumrate.cli.main(argv)`` in this process, one call after another (a closed
loop with one client), each call writing its report to an ``--out`` file.
It checks every report (see ``checks.py``) and prints each metric on a line
``metric <name> <value> <unit> n=<samples>``, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and the metrics of
``BENCHMARK.json``: the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``.

``--trace 0``: set-up (import, scenario generation and writing, warm-up
call, oracle references) is repeated ``SETUP_REPEATS`` times and
``setup_s`` is the import time plus the median repeat. Then whole passes
over the calls run until another pass would end after ``--seconds``; every
pass after the first (or, after a single pass, an untimed repeat of its
first round) must give byte-identical reports. ``call_s.p50`` and
``call_s.p90`` are over every call; ``calls_per_s`` is the median rate of
``BLOCKS`` blocks of whole rounds per pass. Only the end-to-end metrics
that ``BENCHMARK.json`` bounds go into the JSON line; the quality figures
(``failed_frac``,
``kkt_ok_frac``, ``mislabeled_frac``, ``objective_nats.mean`` and, with
oracle references, ``regret_nats.max``) are printed as metric lines only,
since they are zero or undefined on some workloads.

``--trace 1``: one set-up under tracing, one untraced pass, one traced pass
over the same calls, each pass sized to half of ``--seconds``. Traced
reports must be byte-identical to the untraced ones, and every wrapped
function must be restored afterwards. Per-layer figures cover the traced
set-up and the traced pass; ``trace.overhead_s`` is the traced median call
time minus the untraced one.

BLAS threads are pinned to ``BLAS_THREADS`` before numpy is imported. Work
files go to ``.perfbench_work/`` under the repository root and are removed
at exit. The exit code is 0 when a result is printed, and 2 when the
program's sources are missing or the workload is unknown.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
BLOCKS = 5  # throughput blocks per pass

# metrics of the final JSON line with --trace 0 (BENCHMARK.json end_to_end)
END_TO_END = ("setup_s", "call_s.p50", "call_s.p90", "calls_per_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Pin BLAS threads, import ``sumrate`` from ``src/`` and time the import."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    start = time.perf_counter()
    import sumrate.cli  # noqa: F401  (the program under test)
    import_s = time.perf_counter() - start
    import sumrate

    if Path(sumrate.__file__).resolve().parent != src / "sumrate":
        raise RuntimeError(f"sumrate imported from {sumrate.__file__}, not {src}")
    return import_s


def machine(seed) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run_pass(calls, out_dir, after=None):
    """Call the CLI once per call, back to back; return the outcomes."""
    from perfbench.checks import Outcome

    cli = sys.modules["sumrate.cli"]
    outcomes = []
    for call in calls:
        out = out_dir / f"{call.index}.json"
        argv = [*call.argv, "--out", str(out)]
        start = time.perf_counter()
        try:
            code = cli.main(argv)  # looked up per call, so tracing can wrap it
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        report = out.read_bytes() if error is None else None
        out.unlink(missing_ok=True)
        outcomes.append(Outcome(seconds, error, report))
        if after is not None:
            after(call)
    return outcomes


def set_up(workload, seed, rounds, work_dir, after=None):
    """Write the scenarios, warm up, and compute the oracle references."""
    from perfbench import workloads

    scenario_dir = work_dir / "scenarios"
    shutil.rmtree(scenario_dir, ignore_errors=True)
    calls = workloads.make_plan(workload, seed, rounds, scenario_dir, ROOT)
    run_pass(workloads.warmup_calls(workload, calls), work_dir, after)
    references = workloads.oracle_references(calls) if workload.oracle else {}
    if after is not None:
        after(None)
    return calls, references


def same_outcomes(a, b) -> bool:
    return all((x.error, x.report) == (y.error, y.report) for x, y in zip(a, b))


def quality(ev) -> dict:
    """The end-to-end figures read from reports, as (value, unit, samples)."""
    out = {"failed_frac": (ev.failed / ev.attempted, "ratio", ev.attempted)}
    if ev.solves:
        out["kkt_ok_frac"] = (ev.kkt_ok / ev.solves, "ratio", ev.solves)
        out["mislabeled_frac"] = (ev.mislabeled / ev.solves, "ratio", ev.solves)
    if ev.objectives:
        out["objective_nats.mean"] = (
            statistics.fmean(ev.objectives), "nats", len(ev.objectives)
        )
    if ev.regrets:
        out["regret_nats.max"] = (max(ev.regrets), "nats", len(ev.regrets))
    return out


def timing(passes, fixed, per_round) -> dict:
    """Call-time percentiles, and calls per second as the median over blocks.

    Each pass is cut into ``BLOCKS`` blocks of whole rounds (the fixed calls
    go with the first), so every block has the same mix of sizes; a block's
    rate is its calls over the sum of their wall times.
    """
    times = [o.seconds for outcomes in passes for o in outcomes]
    rates = []
    for outcomes in passes:
        rounds = (len(outcomes) - fixed) // per_round
        cuts = [fixed + per_round * (rounds * b // BLOCKS) for b in range(1, BLOCKS)]
        edges = [0, *cuts, len(outcomes)]
        rates += [
            (hi - lo) / sum(o.seconds for o in outcomes[lo:hi])
            for lo, hi in zip(edges, edges[1:])
            if hi > lo
        ]
    return {
        "call_s.p50": (statistics.median(times), "s", len(times)),
        "call_s.p90": (
            statistics.quantiles(times, n=10, method="inclusive")[-1], "s", len(times)
        ),
        "calls_per_s": (statistics.median(rates), "1/s", len(rates)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, work_dir, import_s):
    from perfbench import checks, workloads

    rounds = workloads.rounds_for(workload, seconds)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        calls, references = set_up(workload, seed, rounds, work_dir)
        setups.append(time.perf_counter() - start)

    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(calls, work_dir))
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break
    per_round = len(workload.users) * len(workload.commands)
    fixed = len(calls) - rounds * per_round

    ev = checks.evaluate(calls, passes, references)
    # with a single timed pass, repeat its first round untimed instead
    repeats = passes[1:] or [run_pass(calls[: fixed + per_round], work_dir)]
    deterministic = all(same_outcomes(passes[0], p) for p in repeats)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s", SETUP_REPEATS),
        **timing(passes, fixed, per_round),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        **quality(ev),
    }
    notes = [
        f"passes {len(passes)} calls_per_pass {len(calls)} rounds {rounds}",
        f"repeated_reports_identical {deterministic}",
    ]
    correct = ev.wrong == 0 and deterministic
    return ev, metrics, {k: metrics[k] for k in END_TO_END}, notes, correct


def measure_traced(workload, seed, seconds, work_dir):
    from perfbench import checks, tracing, workloads

    rounds = workloads.rounds_for(workload, seconds / 2)
    tracer = tracing.Tracer()

    def fold(call):
        if call is None:
            tracer.fold("setup")
        else:
            tracer.fold(call.label, call.users)

    with tracer.installed():
        calls, references = set_up(workload, seed, rounds, work_dir, fold)
    untraced = run_pass(calls, work_dir)
    with tracer.installed():
        traced = run_pass(calls, work_dir, fold)

    ev = checks.evaluate(calls, [untraced], references)
    passive = same_outcomes(untraced, traced) and not tracer.not_restored
    overhead = statistics.median(o.seconds for o in traced) - statistics.median(
        o.seconds for o in untraced
    )
    layer = {name: (value, unit, 1) for name, (value, unit) in tracer.metrics().items()}
    layer["trace.overhead_s"] = (overhead, "s", len(traced))
    notes = [
        f"calls_per_pass {len(calls)} rounds {rounds}",
        f"traced_reports_identical {same_outcomes(untraced, traced)}",
        f"wrappers_not_restored {tracer.not_restored}",
        *baseline_notes(tracer),
    ]
    metrics = {**quality(ev), **layer}
    return ev, metrics, layer, notes, ev.wrong == 0 and passive


def baseline_notes(tracer) -> list:
    """Traced counts next to the ROADMAP baseline they should reproduce."""
    notes = [
        f"baseline build_polytope.hyperplanes L={users}: {sorted(counts)} "
        f"(ROADMAP {expected})"
        for users, expected in ((3, 48), (4, 256))
        if (counts := tracer.hyperplanes.get(users))
    ]
    if tracer.starts_per_multistart:
        notes.append(
            f"baseline solve_gradient per multistart: "
            f"{sorted(tracer.starts_per_multistart)} (ROADMAP 16)"
        )
    if tracer.radii_per_bounds:
        notes.append(
            f"baseline spectral_radius per objective_bounds minus L: "
            f"{sorted(tracer.radii_per_bounds)} (ROADMAP 0)"
        )
    notes += [
        f"baseline perron_pair failures in {label}: {count}"
        for label, count in sorted(tracer.perron_failures.items())
    ]
    return notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sumrate" / "__init__.py").is_file():
        print(f"perfbench: no sumrate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = import_program()
    from perfbench import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    work_dir = base / f"{workload.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            ev, shown, result, notes, correct = measure_traced(
                workload, args.seed, args.seconds, work_dir
            )
        else:
            ev, shown, result, notes, correct = measure(
                workload, args.seed, args.seconds, work_dir, import_s
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    print("machine " + json.dumps(machine(args.seed), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"calls_checked {ev.attempted}")
    for note in notes:
        print(note)
    for label, command, problem in ev.problems:
        print(f"failure {label} [{command}]: {problem}")
    for name, (value, unit, samples) in shown.items():
        print(f"metric {name} {value:.6g} {unit} n={samples}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": ev.attempted,
        "failed": ev.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
