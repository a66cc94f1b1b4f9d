"""Source hygiene checks over the package, its tests and the names the
benchmark traces."""

import argparse
import ast
import importlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from conftest import random_model, reference_pass

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


def test_one_module_writes_through_a_tmp_file():
    """Every artifact is published by dsp.publish; a second module naming
    the .tmp suffix is a second copy of the write-then-rename step."""
    modules = [path.name for path in sorted((ROOT / "src" / "mcenhance").glob("*.py"))
               if ".tmp" in path.read_text()]
    assert modules == ["dsp.py"]


def test_one_module_draws_dropout_masks():
    """dropout_mask is named only in neural.py, by the kept-bits table
    that every MC sweep reads and by forward's training pass, so MC masks
    have one owner."""
    modules = [path.name for path in sorted((ROOT / "src" / "mcenhance").glob("*.py"))
               if "dropout_mask" in path.read_text()]
    assert modules == ["neural.py"]


def test_one_module_owns_the_sweep_summary_format():
    """The summary's magic and suffix live in summary.py alone, so its
    writer, reader and key stay behind one owner."""
    from mcenhance import summary
    for token in (summary.SUMMARY_MAGIC.decode(), ".mcss"):
        modules = [path.name for path in sorted((ROOT / "src" / "mcenhance").glob("*.py"))
                   if token in path.read_text()]
        assert modules == ["summary.py"], token


def calls_by_owner(path: Path) -> list:
    """(owner, callee) for every call in one module: owner is the
    top-level function or Class.method the call sits in ("" at module
    level), callee the last part of the called name."""
    def owned(tree):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    yield f"{node.name}.{getattr(item, 'name', '')}", item
            else:
                yield getattr(node, "name", ""), node

    return [(owner, getattr(call.func, "id", None) or getattr(call.func, "attr", None))
            for owner, node in owned(ast.parse(path.read_text()))
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def test_forward_runs_only_in_training():
    """forward keeps what backward reads, so only _fit's training steps
    call it. The network's layers run in one loop, neural.inference_passes:
    forward records its first pass and computes no layer itself, backward
    is the only other GEMM in neural, and mcdrop runs no layer at all."""
    package = ROOT / "src" / "mcenhance"
    callers = [(path.name, owner) for path in sorted(package.glob("*.py"))
               for owner, callee in calls_by_owner(path) if callee == "forward"]
    assert callers == [("neural.py", "_fit")]
    mcdrop = calls_by_owner(package / "mcdrop.py")
    assert [callee for _, callee in mcdrop if callee in ("matmul", "softmax")] == []
    tree = ast.parse((package / "mcdrop.py").read_text())
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))

    neural = ast.parse((package / "neural.py").read_text())
    gemm_owners = {node.name for node in neural.body
                   for inner in ast.walk(node)
                   if isinstance(inner, ast.MatMult)
                   or (isinstance(inner, ast.Call)
                       and getattr(inner.func, "attr", None) == "matmul")}
    assert gemm_owners == {"inference_passes", "backward"}
    forward = [callee for owner, callee in calls_by_owner(package / "neural.py")
               if owner == "forward"]
    assert "inference_passes" in forward
    assert [c for c in forward if c in ("relu", "softmax", "maximum")] == []


def float32_owners(path: Path) -> list:
    """Top-level function (or "" at module level) of every float32 in one
    module's code: a name, an attribute or a dtype string, not prose."""
    tree = ast.parse(path.read_text())
    return [getattr(node, "name", "") for node in tree.body for inner in ast.walk(node)
            if getattr(inner, "attr", None) == "float32"
            or getattr(inner, "id", None) == "float32"
            or getattr(inner, "value", None) == "float32"]


def test_one_dtype_and_no_knob_for_it():
    """The MC passes run in float32 and everything else in float64, with no
    switch: mc_spectral_stats alone names float32, no config grows a field
    for it, and the dropout-off pass keeps the float64 reference's bytes."""
    from mcenhance import mcdrop, pipeline
    from mcenhance.neural import predict

    package = ROOT / "src" / "mcenhance"
    owners = [(path.name, owner) for path in sorted(package.glob("*.py"))
              for owner in float32_owners(path)]
    assert owners and set(owners) == {("mcdrop.py", "mc_spectral_stats")}
    assert [f.name for f in fields(mcdrop.McConfig)] == [
        "n_passes", "tau_inv", "prior_length_scale", "rng_seed"]
    assert [f.name for f in fields(pipeline.ExperimentConfig)] == [
        "corpus_dir", "models_dir", "reports_dir", "seed", "n_passes", "mu", "mu_grid",
        "hidden_dims", "keep_prob", "n_epochs", "batch_size", "learning_rate",
        "weight_decay", "input_norm", "n_train", "n_val", "n_test", "duration_s",
        "policies"]

    rng = np.random.default_rng(5)
    model = random_model(rng, (9, 16, 16, 9), keep_prob=0.8)
    model.input_mean = rng.uniform(0.5, 1.5, size=9)
    model.input_std = rng.uniform(0.5, 2.0, size=9)
    x = rng.uniform(0.0, 2.0, size=(11, 9))
    got = predict(model, x)
    assert got.dtype == np.float64
    assert got.tobytes() == reference_pass(model, x)[0].tobytes()
