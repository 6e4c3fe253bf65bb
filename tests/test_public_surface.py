"""The public surface of the package: what it exports, and what it no longer has."""
import ast
import dataclasses
import importlib
import inspect
import json

import pytest

import sumrate as sr
from sumrate import channel, cli, exceptions, relaxations, solvers
from conftest import DATA

REMOVED = {
    channel: ("MultiToneInstance", "StackedMultiTone", "stack_multitone", "noiseless_sir"),
    relaxations: ("cap_eigenvector_power", "CERT_RADIUS_TOL", "CERT_WEIGHT_TOL"),
    exceptions: ("DegenerateInputError",),
}


def _package_imports():
    tree = ast.parse(inspect.getsource(sr))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"sumrate.{node.module}")
            for alias in node.names:
                yield module, alias.name


def test_package_imports_only_declared_names():
    imports = list(_package_imports())
    assert imports
    undeclared = [
        f"{module.__name__}.{name}"
        for module, name in imports
        if name not in module.__all__
    ]
    assert undeclared == []


@pytest.mark.parametrize(
    "module,name", [(m, n) for m, names in REMOVED.items() for n in names]
)
def test_removed_names_stay_removed(module, name):
    assert not hasattr(sr, name)
    assert not hasattr(module, name)
    assert name not in module.__all__


def test_gen_has_no_tones_option(capsys):
    assert cli.main(["gen", "--users", "2", "--tones", "2", "--seed", "0"]) == 1
    assert "--tones" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fn",
    [solvers.kkt_classify, solvers.solve_gradient, solvers.solve_gradient_multistart,
     solvers.solve_linearized, solvers.solve_lp_relax],
)
def test_stationarity_tolerance_is_not_a_parameter(fn):
    params = inspect.signature(fn).parameters.values()
    assert not {"tol", "kkt_tol"} & {p.name for p in params}
    assert all(p.kind is not p.VAR_KEYWORD for p in params)


@pytest.mark.parametrize(
    "fn", [relaxations.relaxed_max_tilde, relaxations.relaxed_max_noiseless]
)
def test_relaxations_take_the_instance_weights(fn):
    assert "weights" not in inspect.signature(fn).parameters


def test_polytope_has_no_anchors_field():
    assert "anchors" not in {f.name for f in dataclasses.fields(solvers.Polytope)}


def test_scenario_kkt_tol_is_an_unknown_key(tmp_path, capsys):
    raw = json.loads(open(f"{DATA}/e1.json").read())
    raw["solver"] = {"kkt_tol": 1e-7}
    path = tmp_path / "kkt_tol.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["solve", "--scenario", str(path), "--algorithm", "gradient"]) == 1
    assert capsys.readouterr().err == "error: solver: unknown keys ['kkt_tol']\n"
