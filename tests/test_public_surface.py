"""The public surface of the package: what it exports, and what it no longer has."""
import ast
import importlib
import inspect

import pytest

import sumrate as sr
from sumrate import channel, cli, exceptions, relaxations

REMOVED = {
    channel: ("MultiToneInstance", "StackedMultiTone", "stack_multitone", "noiseless_sir"),
    relaxations: ("cap_eigenvector_power",),
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
