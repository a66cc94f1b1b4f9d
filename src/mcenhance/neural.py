"""Feedforward ReLU network with inverted dropout, MSLE/cross-entropy
training, Adam, and a binary model file format."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dsp import publish
from .errors import (
    CacheMismatch,
    CorruptFile,
    DimensionMismatch,
    EmptyDataset,
    InvalidConfig,
    LabelOutOfRange,
    NegativeSpectrum,
    NonFiniteInput,
    ShapeMismatch,
    VersionMismatch,
)

MODEL_MAGIC = b"MCEN"
MODEL_VERSION = 1

# Stream-domain tags keep init / shuffling / dropout draws independent
# even when they share one user-facing seed.
_TAG_INIT = 101
_TAG_SHUFFLE = 102
_TAG_DROPOUT = 103

_CE_CLAMP = 1e-12

# Every network trains with Adam at these settings.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


_INT_TYPES = (int, np.integer)


def is_int(v) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(v, _INT_TYPES) and not isinstance(v, bool)


def _check_index(name: str, value) -> None:
    if not (is_int(value) and value >= 0):
        raise InvalidConfig(f"{name} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class DropoutStream:
    """Addresses one stochastic pass: masks are a pure function of
    (seed, pass_index, layer, row_offset + row), independent of batching."""

    seed: int
    pass_index: int = 0
    row_offset: int = 0

    def __post_init__(self):
        # Training builds one stream per batch. A version of these checks
        # that built tuples moved the train benchmark's peak RSS by 4-11 MB
        # at an unchanged tracemalloc peak, so they allocate nothing.
        _check_index("seed", self.seed)
        _check_index("pass_index", self.pass_index)
        _check_index("row_offset", self.row_offset)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 128
    n_epochs: int = 15
    rng_seed: int = 0
    hidden_dims: tuple = (256, 256, 256)
    keep_prob: float = 0.8
    input_norm: str = "none"  # or "zscore"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if self.input_norm not in ("none", "zscore"):
            raise ValueError(f"unknown input_norm {self.input_norm!r}")


@dataclass
class MlpModel:
    """Weights [out, in] and biases per layer; hidden activation is ReLU."""

    layer_dims: list
    weights: list
    biases: list
    output_activation: str = "relu"  # or "softmax"
    keep_prob: float = 0.8
    weight_decay: float = 0.0
    n_train_frames: int = 0
    seed: int = 0
    noise_label: str = ""
    input_mean: np.ndarray | None = None
    input_std: np.ndarray | None = None

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


@dataclass
class ForwardCache:
    zs: list
    hiddens: list
    masks: list
    y: np.ndarray
    layer_dims: tuple
    single: bool


@dataclass
class Gradients:
    dweights: list
    dbiases: list


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def init_model(
    layer_dims,
    output_activation: str = "relu",
    keep_prob: float = 0.8,
    seed: int = 0,
    weight_decay: float = 0.0,
    noise_label: str = "",
) -> MlpModel:
    """He-uniform initialized network for the given layer sizes."""
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must be in (0, 1]")
    if output_activation not in ("relu", "softmax"):
        raise ValueError(f"unknown output activation {output_activation!r}")
    rng = np.random.default_rng(np.random.SeedSequence([_TAG_INIT, seed]))
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_dims=list(layer_dims),
        weights=weights,
        biases=biases,
        output_activation=output_activation,
        keep_prob=keep_prob,
        weight_decay=weight_decay,
        seed=seed,
        noise_label=noise_label,
    )


def _mask_rng(seed: int, pass_index: int, layer_index: int) -> np.random.Generator:
    bg = np.random.Philox(np.random.SeedSequence([_TAG_DROPOUT, seed, pass_index, layer_index]))
    return np.random.Generator(bg)


def dropout_mask(
    stream: DropoutStream, layer_index: int, n_rows: int, width: int, keep_prob: float
) -> np.ndarray:
    """Inverted-dropout mask rows [row_offset, row_offset + n_rows).

    Row r of the (seed, pass, layer) stream always draws words
    [r*width, (r+1)*width), so batched and single-row calls agree bitwise.
    """
    g = _mask_rng(stream.seed, stream.pass_index, layer_index)
    offset = stream.row_offset * width
    # Philox advances in 4-word blocks; burn the sub-block remainder.
    # advance() overflows on a numpy integer, so it takes a Python int.
    g.bit_generator.advance(int(offset // 4))
    if offset % 4:
        g.bit_generator.random_raw(offset % 4)
    u = g.random((n_rows, width))
    return (u < keep_prob).astype(np.float64) / keep_prob


class MaskMemo:
    """Kept-unit bits of dropout masks, drawn once and kept packed, one
    bit per unit.

    A mask depends only on its dropout_mask arguments, never on the
    weights, so models that share a seed, a frame count, a width and a
    keep probability can share their masks. A miss draws through
    dropout_mask; every call returns the bool array mask != 0, a hit
    unpacked from the kept bits. Scaling the survivors by 1/keep_prob is
    left to the caller (mc_spectral_stats).
    """

    def __init__(self):
        self._bits = {}

    def __call__(self, stream: DropoutStream, layer_index: int, n_rows: int,
                 width: int, keep_prob: float) -> np.ndarray:
        key = (stream, layer_index, n_rows, width, keep_prob)
        bits = self._bits.get(key)
        if bits is None:
            kept = dropout_mask(stream, layer_index, n_rows, width, keep_prob) != 0
            self._bits[key] = np.packbits(kept)
            return kept
        return np.unpackbits(bits, count=n_rows * width).reshape(n_rows, width).view(bool)


def _input_rows(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Checked, normalised input as rows, and whether x was one vector."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != model.in_dim:
        raise DimensionMismatch(f"input shape {x.shape}, expected last dim {model.in_dim}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("input contains NaN or inf")
    if model.input_mean is not None:
        X = (X - model.input_mean) / model.input_std
    return X, single


def input_layer(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """h0 = relu(X W0^T + b0) of the checked, normalised input rows X.

    Dropout acts only after hidden ReLUs, so this part of a pass is the
    same in every stochastic pass; mc_spectral_stats runs it once per
    sweep and finishes each pass from h0.
    """
    if len(model.weights) < 2:
        raise DimensionMismatch("model has no hidden layer")
    X, _ = _input_rows(model, x)
    return relu(X @ model.weights[0].T + model.biases[0])


def forward(
    model: MlpModel, x: np.ndarray, stream: DropoutStream | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a vector or a batch of row vectors, keeping
    what backward reads; the training pass and the dropout-off pass.

    stream=None is the deterministic mode (no masks, no rescaling);
    passing a DropoutStream zeroes each hidden unit with probability
    1 - keep_prob and scales survivors by 1/keep_prob. MC sweeps run
    their passes in mc_spectral_stats, not here.
    """
    X, single = _input_rows(model, x)
    zs, hiddens, masks = [], [X], []
    h = X
    for l in range(len(model.weights) - 1):
        z = h @ model.weights[l].T + model.biases[l]
        h = relu(z)
        zs.append(z)
        if stream is not None and model.keep_prob < 1.0:
            mask = dropout_mask(stream, l, X.shape[0], z.shape[1], model.keep_prob)
            h = h * mask
            masks.append(mask)
        else:
            masks.append(None)
        hiddens.append(h)
    z = h @ model.weights[-1].T + model.biases[-1]
    zs.append(z)
    y = relu(z) if model.output_activation == "relu" else softmax(z)
    cache = ForwardCache(
        zs=zs, hiddens=hiddens, masks=masks, y=y,
        layer_dims=tuple(model.layer_dims), single=single,
    )
    return (y[0] if single else y), cache


def backward(model: MlpModel, cache: ForwardCache, grad_y: np.ndarray) -> Gradients:
    """Backpropagate dL/dy through the cached pass (exact masks, ReLU
    subgradient 0 at 0)."""
    if cache.layer_dims != tuple(model.layer_dims):
        raise CacheMismatch(f"cache dims {cache.layer_dims} vs model {tuple(model.layer_dims)}")
    grad_y = np.asarray(grad_y, dtype=np.float64)
    G = grad_y[None, :] if cache.single else grad_y
    if G.shape != cache.y.shape:
        raise CacheMismatch(f"grad shape {grad_y.shape} vs output {cache.y.shape}")

    if model.output_activation == "relu":
        delta = G * (cache.zs[-1] > 0)
    else:
        p = cache.y
        delta = p * (G - np.sum(G * p, axis=1, keepdims=True))

    n_layers = len(model.weights)
    dweights = [None] * n_layers
    dbiases = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        dweights[l] = delta.T @ cache.hiddens[l]
        dbiases[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l]
            if cache.masks[l - 1] is not None:
                delta = delta * cache.masks[l - 1]
            delta = delta * (cache.zs[l - 1] > 0)
    return Gradients(dweights=dweights, dbiases=dbiases)


def msle_loss(s_hat: np.ndarray, s: np.ndarray) -> float:
    """Mean squared error between log(1 + .) spectra (natural log).

    For a batch, the mean over frames of the per-frame loss.
    """
    s_hat = np.asarray(s_hat, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if s_hat.shape != s.shape:
        raise DimensionMismatch(f"{s_hat.shape} vs {s.shape}")
    if np.any(s_hat < 0) or np.any(s < 0):
        raise NegativeSpectrum("spectra must be nonnegative")
    d = np.log1p(s) - np.log1p(s_hat)
    return float(np.mean(d * d))


def msle_grad(s_hat: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gradient of msle_loss with respect to s_hat (same batch mean)."""
    d = np.log1p(s_hat) - np.log1p(s)
    return 2.0 * d / (1.0 + s_hat) / d.size


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    n = probs.shape[0]
    p_true = np.clip(probs[np.arange(n), labels], _CE_CLAMP, None)
    return float(-np.mean(np.log(p_true)))


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """dL/dprobs; composed with the softmax Jacobian in backward this
    yields the usual (p - onehot)/n output delta."""
    n = probs.shape[0]
    g = np.zeros_like(probs)
    idx = np.arange(n)
    g[idx, labels] = -1.0 / (n * np.clip(probs[idx, labels], _CE_CLAMP, None))
    return g


def init_adam_state(model: MlpModel) -> AdamState:
    params = model.weights + model.biases
    return AdamState(m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(params: list, grads: list, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params/grads/state length mismatch")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param {p.shape} vs grad {g.shape}")
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _fit(
    inputs: np.ndarray,
    out_dim: int,
    output_activation: str,
    loss_fn,
    grad_fn,
    cfg: TrainConfig,
    noise_label: str,
) -> tuple[MlpModel, list]:
    """Build a network on checked input rows and train it with Adam on
    shuffled minibatches; loss_fn/grad_fn(y, idx) close over the targets of
    rows idx. Returns the model and the loss history: the pre-training loss
    under deterministic inference, then one entry per epoch."""
    n = inputs.shape[0]
    model = init_model(
        [inputs.shape[1], *cfg.hidden_dims, out_dim],
        output_activation=output_activation,
        keep_prob=cfg.keep_prob,
        seed=cfg.rng_seed,
        weight_decay=cfg.weight_decay,
        noise_label=noise_label,
    )
    model.n_train_frames = n
    if cfg.input_norm == "zscore":
        model.input_mean = inputs.mean(axis=0)
        model.input_std = np.maximum(inputs.std(axis=0), 1e-8)

    rng = np.random.default_rng(np.random.SeedSequence([_TAG_SHUFFLE, cfg.rng_seed]))
    state = init_adam_state(model)
    params = model.weights + model.biases
    y0, _ = forward(model, inputs)
    losses = [loss_fn(y0, np.arange(n))]
    for _ in range(cfg.n_epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            # Step k draws its dropout masks from pass k of the run's stream.
            stream = DropoutStream(seed=cfg.rng_seed, pass_index=state.t)
            y, cache = forward(model, inputs[idx], stream=stream)
            epoch_loss += loss_fn(y, idx) * len(idx)
            grads = backward(model, cache, grad_fn(y, idx))
            adam_step(params, grads.dweights + grads.dbiases, state, cfg)
        losses.append(epoch_loss / n)
    return model, losses


def train_regressor(
    noisy_mag: np.ndarray, clean_mag: np.ndarray, cfg: TrainConfig, noise_label: str = ""
) -> tuple[MlpModel, list]:
    """Fit a spectral regressor on (noisy, clean) magnitude frame pairs
    with the MSLE loss; returns the model and the loss history (see _fit)."""
    noisy_mag = np.asarray(noisy_mag, dtype=np.float64)
    clean_mag = np.asarray(clean_mag, dtype=np.float64)
    if noisy_mag.size == 0 or clean_mag.size == 0:
        raise EmptyDataset("no training frames")
    if noisy_mag.shape != clean_mag.shape or noisy_mag.ndim != 2:
        raise DimensionMismatch(f"{noisy_mag.shape} vs {clean_mag.shape}")
    if np.any(noisy_mag < 0) or np.any(clean_mag < 0):
        raise NegativeSpectrum("training spectra must be nonnegative")
    return _fit(
        noisy_mag, noisy_mag.shape[1], "relu",
        loss_fn=lambda y, idx: msle_loss(y, clean_mag[idx]),
        grad_fn=lambda y, idx: msle_grad(y, clean_mag[idx]),
        cfg=cfg, noise_label=noise_label,
    )


def train_classifier(
    mag_frames: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    n_classes: int,
    noise_label: str = "",
) -> tuple[MlpModel, list]:
    """Fit a softmax noise classifier on labeled magnitude frames with the
    cross-entropy loss; returns the model and the loss history (see _fit)."""
    mag_frames = np.asarray(mag_frames, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if mag_frames.size == 0:
        raise EmptyDataset("no training frames")
    if mag_frames.ndim != 2 or labels.shape != (mag_frames.shape[0],):
        raise DimensionMismatch(f"{mag_frames.shape} vs labels {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise LabelOutOfRange(f"labels must lie in [0, {n_classes})")
    return _fit(
        mag_frames, n_classes, "softmax",
        loss_fn=lambda y, idx: cross_entropy_loss(y, labels[idx]),
        grad_fn=lambda y, idx: cross_entropy_grad(y, labels[idx]),
        cfg=cfg, noise_label=noise_label,
    )


def save_model(model: MlpModel, path) -> None:
    """Write magic, version, JSON header, then float64 parameters (W then b
    per layer, little-endian), published through dsp.publish."""
    header = {
        "layer_dims": list(model.layer_dims),
        "hidden_activation": "relu",
        "output_activation": model.output_activation,
        "keep_prob": model.keep_prob,
        "weight_decay": model.weight_decay,
        "n_train_frames": model.n_train_frames,
        "seed": model.seed,
        "noise_label": model.noise_label,
        "input_norm": "zscore" if model.input_mean is not None else "none",
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with publish(path) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(np.uint32(MODEL_VERSION).tobytes())
        fh.write(np.uint32(len(blob)).tobytes())
        fh.write(blob)
        for w, b in zip(model.weights, model.biases):
            fh.write(w.astype("<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())
        if model.input_mean is not None:
            fh.write(model.input_mean.astype("<f8").tobytes())
            fh.write(model.input_std.astype("<f8").tobytes())


def load_model(path) -> MlpModel:
    """Read a model file; inverse of save_model, bit-exact."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != MODEL_MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    version = int(np.frombuffer(data[4:8], dtype="<u4")[0])
    if version != MODEL_VERSION:
        raise VersionMismatch(f"{path}: version {version}, expected {MODEL_VERSION}")
    hlen = int(np.frombuffer(data[8:12], dtype="<u4")[0])
    if len(data) < 12 + hlen:
        raise CorruptFile(f"{path}: truncated header")
    try:
        header = json.loads(data[12:12 + hlen].decode("utf-8"))
        if not isinstance(header, dict):
            raise TypeError("header is not a JSON object")
        layer_dims = header["layer_dims"]
        if (not isinstance(layer_dims, list) or len(layer_dims) < 2
                or not all(type(d) is int and d > 0 for d in layer_dims)):
            raise ValueError(f"layer_dims {layer_dims!r}")
        # Hidden layers are always ReLU; a file that declares anything else
        # would otherwise load and run as a different network.
        hidden_activation = header["hidden_activation"]
        if hidden_activation != "relu":
            raise ValueError(f"hidden_activation {hidden_activation!r}")
        output_activation = header["output_activation"]
        if output_activation not in ("relu", "softmax"):
            raise ValueError(f"output_activation {output_activation!r}")
        keep_prob = header["keep_prob"]
        weight_decay = header.get("weight_decay", 0.0)
        for key, value in (("keep_prob", keep_prob), ("weight_decay", weight_decay)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{key} {value!r}")
        keep_prob, weight_decay = float(keep_prob), float(weight_decay)
        if not 0.0 < keep_prob <= 1.0:
            raise ValueError(f"keep_prob {keep_prob}")
        if not 0.0 <= weight_decay < np.inf:
            raise ValueError(f"weight_decay {weight_decay}")
        n_train_frames = header.get("n_train_frames", 0)
        seed = header.get("seed", 0)
        for key, value in (("n_train_frames", n_train_frames), ("seed", seed)):
            if not (is_int(value) and value >= 0):
                raise ValueError(f"{key} {value!r}")
        noise_label = header.get("noise_label", "")
        if not isinstance(noise_label, str):
            raise TypeError(f"noise_label {noise_label!r}")
        norm = header.get("input_norm", "none")
        if norm not in ("none", "zscore"):
            raise ValueError(f"input_norm {norm!r}")
    except (ValueError, TypeError, KeyError, OverflowError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path}: bad header ({exc})") from exc

    n_params = sum(di * do + do for di, do in zip(layer_dims[:-1], layer_dims[1:]))
    if norm == "zscore":
        n_params += 2 * layer_dims[0]
    body = data[12 + hlen:]
    if len(body) != 8 * n_params:
        raise CorruptFile(f"{path}: expected {8 * n_params} parameter bytes, got {len(body)}")
    flat = np.frombuffer(body, dtype="<f8")

    weights, biases = [], []
    pos = 0
    for di, do in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[pos:pos + di * do].reshape(do, di).copy())
        pos += di * do
        biases.append(flat[pos:pos + do].copy())
        pos += do
    input_mean = input_std = None
    if norm == "zscore":
        input_mean = flat[pos:pos + layer_dims[0]].copy()
        pos += layer_dims[0]
        input_std = flat[pos:pos + layer_dims[0]].copy()

    return MlpModel(
        layer_dims=layer_dims,
        weights=weights,
        biases=biases,
        output_activation=output_activation,
        keep_prob=keep_prob,
        weight_decay=weight_decay,
        n_train_frames=n_train_frames,
        seed=seed,
        noise_label=noise_label,
        input_mean=input_mean,
        input_std=input_std,
    )
