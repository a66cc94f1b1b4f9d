"""Shared fixtures: tiny random nets plus a session-scoped miniature
dataset and model set so integration tests don't retrain per test."""

from pathlib import Path

import numpy as np
import pytest

from mcenhance import neural
from mcenhance.dsp import Signal, write_wav
from mcenhance.neural import MlpModel, save_model
from mcenhance.pipeline import ExperimentConfig, run_synth, run_train
from mcenhance.selection import write_bank_manifest


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


def float_mask(stream, layer, n_rows, width, keep_prob):
    """Test oracle: the float inverted-dropout mask (u < keep_prob) /
    keep_prob, with u from Generator.random at dropout_mask's stream
    address. Its nonzero units must be dropout_mask's kept bits."""
    g = np.random.Generator(neural._mask_rng(stream.seed, stream.pass_index, layer))
    offset = stream.row_offset * width
    g.bit_generator.advance(int(offset // 4))
    if offset % 4:
        g.bit_generator.random_raw(offset % 4)
    u = g.random((n_rows, width))
    return (u < keep_prob).astype(np.float64) / keep_prob


def reference_pass(model, x, stream=None, dtype=np.float64):
    """Test oracle: one pass of the network in plain numpy, multiplying
    each hidden ReLU by its float_mask where the library applies kept
    bits. Returns (y, zs, hiddens, masks): the output, every layer's
    pre-activation, the normalised input rows followed by each hidden
    layer's output after its mask, and the float masks (None without a
    stream or at keep_prob 1). The rows are normalised in float64 and
    cast to dtype, and the pass runs in the dtype of those rows: the
    weights, biases and float masks are cast to it. The library's passes
    over the same rows must have its bytes, inf and NaN included."""
    X = np.asarray(x, dtype=np.float64)
    if model.input_mean is not None:
        X = (X - model.input_mean) / model.input_std
    X = X.astype(dtype)
    weights = [w.astype(X.dtype) for w in model.weights]
    biases = [b.astype(X.dtype) for b in model.biases]
    zs, hiddens, masks = [], [X], []
    for l in range(len(weights) - 1):
        z = hiddens[-1] @ weights[l].T + biases[l]
        mask = None
        if stream is not None and model.keep_prob < 1.0:
            mask = float_mask(stream, l, len(X), z.shape[1], model.keep_prob).astype(X.dtype)
        h = np.maximum(z, 0.0)
        zs.append(z)
        hiddens.append(h if mask is None else h * mask)
        masks.append(mask)
    z = hiddens[-1] @ weights[-1].T + biases[-1]
    zs.append(z)
    if model.output_activation == "relu":
        return np.maximum(z, 0.0), zs, hiddens, masks
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), zs, hiddens, masks


def write_bank(bank, dir_path) -> None:
    """Write a bank's model files, then its manifest, as train does:
    expert_<label>.model per expert, classifier.model when it has one.
    Nothing is checked, so a test can write a bank load_bank refuses."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for label, model in zip(bank.labels, bank.models):
        save_model(model, dir_path / f"expert_{label}.model")
    if bank.classifier is not None:
        save_model(bank.classifier, dir_path / "classifier.model")
    write_bank_manifest(bank.labels, [m.keep_prob for m in bank.models],
                        bank.classifier is not None, dir_path)


def zero_sample_wavs(dir_path) -> list:
    """Two WAVs whose headers declare no samples: a streamed file whose
    data size is the placeholder 0 (100 samples follow it) and an empty
    file."""
    placeholder, empty = Path(dir_path) / "placeholder.wav", Path(dir_path) / "empty.wav"
    write_wav(placeholder, Signal(np.zeros(100), 16000))
    data = bytearray(placeholder.read_bytes())
    at = data.index(b"data") + 4
    data[at:at + 4] = bytes(4)
    placeholder.write_bytes(bytes(data))
    write_wav(empty, Signal(np.zeros(0), 16000))
    return [placeholder, empty]


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


def empty_mask_table(monkeypatch) -> None:
    """Give the process an empty kept-bits table until the test ends."""
    monkeypatch.setattr(neural, "_KEPT_BITS", neural._KeptBitsTable())


@pytest.fixture(autouse=True)
def empty_kept_bits_table(monkeypatch):
    """Each test starts with an empty mask table, so no draw count
    depends on which tests ran before it."""
    empty_mask_table(monkeypatch)


def record_mask_draws(monkeypatch) -> list:
    """Every dropout_mask call from here on, as its argument tuple."""
    draws = []
    original = neural.dropout_mask

    def counted(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(neural, "dropout_mask", counted)
    return draws


def rows_drawn(draws) -> dict:
    """Mask rows drawn per (seed, pass, layer, width, keep_prob). Each
    draw must start where its key's rows stopped, so the sum is also the
    highest row drawn and no row is drawn twice."""
    rows = {}
    for stream, layer, n_rows, width, keep_prob in draws:
        key = (stream.seed, stream.pass_index, layer, width, keep_prob)
        assert stream.row_offset == rows.get(key, 0), (key, stream.row_offset)
        rows[key] = rows.get(key, 0) + n_rows
    return rows


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
