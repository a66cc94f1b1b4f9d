"""Source hygiene checks over the package, its tests and the names the
benchmark traces."""

import argparse
import ast
import importlib
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list:
    """Module-level imports of one file that nothing in it references."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    files = sorted((ROOT / "src" / "mcenhance").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [hit for path in files for hit in unused_imports(path)] == []


def test_every_traced_layer_resolves():
    """bench/spans.py wraps each LAYERS name with getattr at every import
    site, so a rename or deletion in the package breaks traced runs."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    missing = [f"{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"mcenhance.{module}"), name, None))]
    assert layers and missing == []


def test_every_config_field_has_exactly_one_check():
    """make_config checks each key through _FIELD_CHECKS, so a field
    without an entry would fail at lookup and an entry without a field
    is dead."""
    from mcenhance import pipeline
    assert set(pipeline._FIELD_CHECKS) == {f.name for f in fields(pipeline.ExperimentConfig)}


def test_enhance_policy_choices_are_the_policy_names():
    """cli.py spells the names out because it may not import numpy (through
    pipeline) before --threads takes effect."""
    from mcenhance import cli, pipeline
    verbs = next(a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    policy = next(a for a in verbs.choices["enhance"]._actions if a.dest == "policy")
    assert tuple(policy.choices) == pipeline.POLICY_NAMES
