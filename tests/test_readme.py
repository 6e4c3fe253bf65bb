"""README.md names only constants and scenario keys that exist."""
import importlib
import re
from pathlib import Path

from sumrate import scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_named_constants_exist():
    named = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", README)
    assert named
    missing = [
        f"{module}.{name}"
        for module, name in named
        if not hasattr(importlib.import_module(f"sumrate.{module}"), name)
    ]
    assert missing == []


def test_scenario_block_lists_the_solver_keys():
    block = re.search(r"```jsonc\n(.*?)```", README, re.S).group(1)
    solver = re.search(r'"solver": \{(.*?)\}', block, re.S).group(1)
    assert tuple(re.findall(r'"(\w+)":', solver)) == scenario._SOLVER_KEYS


def test_validation_paragraph_lists_the_solver_keys():
    rules = re.search(r"Every `solver` value is checked on load:(.*?);", README, re.S)
    assert tuple(re.findall(r"`(\w+)`", rules.group(1))) == scenario._SOLVER_KEYS
