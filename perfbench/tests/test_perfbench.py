"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import sumrate  # noqa: E402
import sumrate.cli  # noqa: E402
from perfbench import checks, run, tracing, workloads  # noqa: E402


@pytest.fixture
def work_dir(request):
    path = ROOT / ".perfbench_work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def e1_calls(work_dir, commands=(workloads.GRADIENT, workloads.RELAX_TILDE)):
    path = work_dir / "e1.json"
    shutil.copyfile(ROOT / "tests" / "data" / "e1.json", path)
    return [
        workloads.Call(i, "e1", 2, path, (*command, "--scenario", str(path)))
        for i, command in enumerate(commands)
    ]


def scenario_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_scenarios_are_deterministic_in_the_seed(work_dir):
    workload = workloads.WORKLOADS["polytope_small"]
    plans = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        calls = workloads.make_plan(workload, seed, 2, work_dir / name, ROOT)
        plans[name] = [(call.label, call.argv[:-1]) for call in calls]
    assert plans["a"] == plans["b"]
    assert scenario_bytes(work_dir / "a") == scenario_bytes(work_dir / "b")
    assert scenario_bytes(work_dir / "a") != scenario_bytes(work_dir / "c")
    assert len(plans["a"]) == 2 * (1 + 2 * len(workload.users))


def test_report_with_perturbed_objective_counts_as_failed(work_dir):
    calls = e1_calls(work_dir, (workloads.GRADIENT,))
    outcomes = run.run_pass(calls, work_dir)
    assert checks.evaluate(calls, [outcomes]).failed == 0

    report = json.loads(outcomes[0].report)
    report["objective_nats"] += 1e-6
    tampered = checks.Outcome(
        outcomes[0].seconds, None, sumrate.save_report(report).encode()
    )
    ev = checks.evaluate(calls, [[tampered]])
    assert (ev.attempted, ev.failed, ev.wrong) == (1, 1, 1)
    assert any("verify_report" in problem for _, _, problem in ev.problems)


def test_failed_call_is_counted_but_not_wrong(work_dir):
    path = work_dir / "missing.json"
    call = workloads.Call(0, "missing", 2, path, ("bounds", "--scenario", str(path)))
    ev = checks.evaluate([call], [run.run_pass([call], work_dir)])
    assert (ev.attempted, ev.failed, ev.wrong) == (1, 1, 0)


def test_repeated_untraced_passes_are_identical(work_dir):
    calls = e1_calls(work_dir)
    first = run.run_pass(calls, work_dir)
    assert run.same_outcomes(first, run.run_pass(calls, work_dir))


def test_tracing_is_passive_and_wrappers_are_removed(work_dir):
    originals = {
        (module, name): getattr(sys.modules[module], name)
        for module, names in tracing.LAYERS.values()
        for name in names
    }
    calls = e1_calls(work_dir)
    untraced = run.run_pass(calls, work_dir)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(
            getattr(sys.modules[module], name) is not fn
            for (module, name), fn in originals.items()
        )
        traced = run.run_pass(calls, work_dir, lambda call: tracer.fold(call.label, call.users))
    assert run.same_outcomes(untraced, traced)
    assert tracer.not_restored == []
    assert all(
        getattr(sys.modules[module], name) is fn
        for (module, name), fn in originals.items()
    )
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"][0] == len(calls)
    assert metrics["solvers.solve_gradient.calls"][0] == 16
    assert tracer.starts_per_multistart == {16}

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("interrupted")
    assert tracer.not_restored == []
    assert all(
        getattr(sys.modules[module], name) is fn
        for (module, name), fn in originals.items()
    )


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [*tracing.Tracer().metrics(), "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
