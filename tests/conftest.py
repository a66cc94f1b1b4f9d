"""Shared fixtures: tiny random nets plus a session-scoped miniature
dataset and model set so integration tests don't retrain per test."""

import pytest

from mcenhance.neural import MlpModel
from mcenhance.pipeline import ExperimentConfig, run_synth, run_train


def random_model(
    rng,
    layer_dims,
    output_activation="relu",
    keep_prob=0.8,
    weight_decay=0.0,
    n_train_frames=1000,
    scale=0.3,
):
    """A model with random weights; enough for estimator and policy tests."""
    weights = [scale * rng.standard_normal((layer_dims[i + 1], layer_dims[i]))
               for i in range(len(layer_dims) - 1)]
    biases = [scale * rng.standard_normal(layer_dims[i + 1])
              for i in range(len(layer_dims) - 1)]
    return MlpModel(
        layer_dims=tuple(layer_dims),
        weights=weights,
        biases=biases,
        output_activation=output_activation,
        keep_prob=keep_prob,
        weight_decay=weight_decay,
        n_train_frames=n_train_frames,
        seed=int(rng.integers(1 << 31)),
        noise_label="test",
    )


MINI = dict(seed=11, n_passes=4, hidden_dims=(24, 24, 24), n_epochs=2,
            n_train=3, n_val=2, n_test=2, duration_s=1.0)

# Verdict lines from the acceptance suite, echoed after the run so they
# survive output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mini_system(tmp_path_factory):
    """One tiny corpus with all scopes trained; read-only for tests."""
    root = tmp_path_factory.mktemp("mini")
    cfg = ExperimentConfig(
        corpus_dir=str(root / "corpus"),
        models_dir=str(root / "models"),
        reports_dir=str(root / "reports"),
        **MINI,
    )
    run_synth(cfg)
    run_train(cfg, "all")
    return cfg
