"""Feedforward ReLU network with inverted dropout, MSLE/cross-entropy
training, Adam, and a binary model file format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

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


# Dropout passes stack into GEMMs of about this many rows. One desk sweep
# (257-256x3-257, T = 50, warm mask table, one thread of a 2 vCPU Xeon,
# OpenBLAS 0.3.31) took 15.6, 23.9 and 44.5 ms over 47, 97 and 197
# frames unstacked, and 9.6, 19.1 and 37.6 ms in stacks of 800 rows;
# stacks of 400-1600 rows were within the host's noise of one another.
STACK_ROWS = 800
# On OpenBLAS 0.3.31 on an AVX-512 Xeon, a float32 GEMM with at most this
# many output cells, an inner size of 32 or more and at most 1e6
# multiply-adds runs a small-matrix kernel, and a one-row GEMM runs GEMV;
# both give other bits than the blocked kernel every larger call runs. A
# pass whose own GEMMs may be that small is not stacked, so a stacked
# row always has the bits of its pass run alone.
SMALL_GEMM_CELLS = 1200


_INT_TYPES = (int, np.integer)


def is_int(v) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(v, _INT_TYPES) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """True for a finite Python or numpy real that is not a bool."""
    try:
        return (isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool) and math.isfinite(v))
    except OverflowError:  # an int beyond float range
        return False


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


# Accepted values per TrainConfig field, as (test, description). The CLI
# checks its config keys of the same names by these rules too, so a value
# either trains a model load_model accepts or is refused up front.
TRAIN_FIELD_CHECKS = {
    "learning_rate": (lambda v: is_finite_number(v) and v > 0, "a finite number > 0"),
    "weight_decay": (lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0"),
    "batch_size": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "n_epochs": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "rng_seed": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "hidden_dims": (lambda v: all(is_int(d) and d > 0 for d in v),
                    "a list of positive integers"),
    "keep_prob": (lambda v: is_finite_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "input_norm": (lambda v: v in ("none", "zscore"), "'none' or 'zscore'"),
}


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
        for f in fields(self):
            test, what = TRAIN_FIELD_CHECKS[f.name]
            value = getattr(self, f.name)
            if not test(value):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")


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
    hiddens: list
    masks: list
    y: np.ndarray
    layer_dims: tuple


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


def _mask_rng(seed: int, pass_index: int, layer_index: int) -> np.random.Philox:
    return np.random.Philox(np.random.SeedSequence([_TAG_DROPOUT, seed, pass_index, layer_index]))


def dropout_mask(
    stream: DropoutStream, layer_index: int, n_rows: int, width: int, keep_prob: float
) -> np.ndarray:
    """Kept bits, bool [n_rows, width], of inverted-dropout mask rows
    [row_offset, row_offset + n_rows); callers scale kept units by
    1 / keep_prob.

    Row r of the (seed, pass, layer) stream always draws words
    [r*width, (r+1)*width), so batched and single-row calls agree bitwise.
    Generator.random on Philox returns (w >> 11) * 2**-53 for word w, so
    (w >> 11) < ceil(keep_prob * 2**53) is exactly its u < keep_prob.
    """
    bg = _mask_rng(stream.seed, stream.pass_index, layer_index)
    offset = stream.row_offset * width
    # Philox advances in 4-word blocks; burn the sub-block remainder.
    # advance() overflows on a numpy integer, so it takes a Python int.
    bg.advance(int(offset // 4))
    if offset % 4:
        bg.random_raw(offset % 4)
    # Shifting in place moved the train benchmark's peak RSS up 3 MB at an
    # unchanged tracemalloc peak (heap layout), so the shift allocates.
    words = bg.random_raw(n_rows * width) >> np.uint64(11)
    return (words < np.uint64(math.ceil(keep_prob * 2.0 ** 53))).reshape(n_rows, width)


class _KeptBitsTable:
    """Kept-unit bits of MC dropout masks, packed one bit per unit, one
    row per frame, keyed by (pass, layer, width, keep_prob) under one seed.

    A mask row depends only on its dropout_mask arguments, never on the
    weights or the audio, so every sweep in the process reads the same
    rows: a request for rows [0, n) slices what the table holds and draws
    only the rows [R, n) it lacks. A request under another seed empties
    the table first, so it holds at most the masks of the longest
    utterance swept under the current seed. Not thread-safe.
    """

    def __init__(self):
        self.seed = None
        self.rows = {}

    def kept(self, seed: int, pass_index: int, layer_index: int, n_rows: int,
             width: int, keep_prob: float) -> np.ndarray:
        """Bool [n_rows, width]: dropout_mask(DropoutStream(seed,
        pass_index), layer_index, n_rows, width, keep_prob)."""
        if seed != self.seed:
            self.seed, self.rows = seed, {}
        key = (pass_index, layer_index, width, keep_prob)
        packed = self.rows.get(key)
        held = 0 if packed is None else len(packed)
        if held < n_rows:
            stream = DropoutStream(seed, pass_index, row_offset=held)
            drawn = dropout_mask(stream, layer_index, n_rows - held, width, keep_prob)
            drawn = np.packbits(drawn, axis=1)
            packed = drawn if packed is None else np.concatenate((packed, drawn))
            self.rows[key] = packed
        return np.unpackbits(packed[:n_rows], axis=1, count=width).view(bool)


# The process's one mask store; mc_spectral_stats reads every mask from it.
_KEPT_BITS = _KeptBitsTable()


def kept_bits(seed: int, pass_index: int, layer_index: int, n_rows: int,
              width: int, keep_prob: float) -> np.ndarray:
    """Kept units of MC pass pass_index's layer_index mask over frame rows
    [0, n_rows), served from the process's table (see _KeptBitsTable)."""
    return _KEPT_BITS.kept(seed, pass_index, layer_index, n_rows, width, keep_prob)


def input_rows(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Checked, normalised input rows [n, in_dim] in the dtype of the
    model's weights: what inference_passes takes. The z-score runs in
    float64, before the rows take that dtype, so a float64 model reads
    any rows in float64, and training's float32 working copy (which has
    no z-score: _fit applies it once) reads float32 rows without a copy."""
    dtype = model.weights[0].dtype
    X = np.asarray(x, dtype=np.float64 if model.input_mean is not None else dtype)
    if X.ndim != 2 or X.shape[1] != model.in_dim:
        raise DimensionMismatch(f"input shape {X.shape}, expected [rows, {model.in_dim}]")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("input contains NaN or inf")
    if model.input_mean is not None:
        X = ((X - model.input_mean) / model.input_std).astype(dtype, copy=False)
    return X


def stack_height(n_rows: int, n_passes: int, widths) -> int:
    """How many passes of n_rows rows inference_passes stacks into one
    GEMM: about STACK_ROWS rows, at most n_passes, and 1 when a pass's own
    GEMMs into the given output widths may take BLAS's small-matrix path
    (see SMALL_GEMM_CELLS), so that stacking never changes a row's bits."""
    if n_rows < 2 or n_rows * min(widths) <= SMALL_GEMM_CELLS:
        return 1
    return max(1, min(n_passes, STACK_ROWS // n_rows))


def inference_passes(model: MlpModel, X: np.ndarray, n_passes: int = 1, kept=None):
    """Yield (y, hiddens) for each of n_passes passes over the rows X of
    input_rows, in pass order: the network's output [n, out_dim] and each
    hidden layer's output after its mask. This is the library's one layer
    loop; forward is its first pass, recorded.

    kept(t, l, width) gives pass t's kept bits, bool [n, width], for
    hidden layer l, applied as (h * kept) * (1 / keep_prob); kept=None is
    the dropout-off pass. Dropout acts only after hidden ReLUs, so layer 0
    runs once per call, and the reference to X is dropped after it. The
    dropout passes run k = stack_height(...) at a time: each of the other
    layers' GEMMs runs on the k passes' rows stacked, k*n rows, and each
    pass's n-row slice takes its own kept bits. One buffer per hidden
    layer and one for the output, k*n rows each, are allocated once per
    call, so memory is O((n + STACK_ROWS) x width) whatever n_passes is.
    The yielded arrays are slices of those buffers, not copies, so a later
    pass overwrites them: read them before asking for the next pass.

    A row's bits are those of the same pass run alone: the stacked
    operations are row-wise, and a GEMM row's bits do not depend on the
    row count once the pass's own GEMMs take the blocked kernel, which
    stack_height requires. The passes run in X's dtype: the weights,
    biases, buffers and the 1 / keep_prob scale take it, so float64 rows
    run on the model's own arrays and float32 rows on float32 copies made
    once per call.
    """
    dtype = X.dtype
    weights = [w.astype(dtype, copy=False) for w in model.weights]
    biases = [b.astype(dtype, copy=False) for b in model.biases]
    h0 = X
    if len(weights) > 1:
        h0 = relu(X @ weights[0].T + biases[0])
        del X
    n, scale = len(h0), 1.0 / model.keep_prob
    k = 1
    if kept is not None and len(weights) > 1:
        k = stack_height(n, n_passes, model.layer_dims[2:])
    # A dropout-off pass reads h0 itself, so layer 0 needs no buffer.
    hidden = [np.empty((k * n, w), dtype) if l or kept is not None else h0
              for l, w in enumerate(model.layer_dims[1:-1])]
    out = np.empty((k * n, model.out_dim), dtype)
    relu_out = model.output_activation == "relu"
    for t0 in range(0, n_passes, k):
        slices = [slice(j * n, (j + 1) * n) for j in range(min(k, n_passes - t0))]
        rows = len(slices) * n
        h = h0
        for l, m in enumerate(hidden):
            m = m[:rows]
            if l:
                np.matmul(h, weights[l].T, out=m)
                m += biases[l]
                h = np.maximum(m, 0.0, out=m)
            if kept is not None:
                for j, s in enumerate(slices):
                    np.multiply(h[s] if l else h, kept(t0 + j, l, m.shape[1]), out=m[s])
                h = m
                m *= scale
        y = out[:rows]
        np.matmul(h, weights[-1].T, out=y)
        y += biases[-1]
        y = np.maximum(y, 0.0, out=y) if relu_out else softmax(y)
        for s in slices:
            yield y[s], [m[s] for m in hidden]


def predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The dropout-off pass's output, forward(model, x)[0], without the
    record forward keeps for backward."""
    return next(inference_passes(model, input_rows(model, x)))[0]


def forward(
    model: MlpModel, x: np.ndarray, stream: DropoutStream | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """The training pass over a batch of row vectors [n, in_dim]: the
    first pass of inference_passes, recorded for backward.

    stream=None is the deterministic mode (no masks, no rescaling);
    passing a DropoutStream draws each hidden layer's kept bits from
    dropout_mask, so a unit is zeroed with probability 1 - keep_prob and
    survivors are scaled; ForwardCache.masks keeps the bits (None without
    a stream) and ForwardCache.hiddens the input rows and each hidden
    layer's output after its mask.
    """
    X = input_rows(model, x)
    masks = [None] * (len(model.layer_dims) - 2)
    kept = None
    if stream is not None and model.keep_prob < 1.0:
        def kept(t, l, width):
            masks[l] = dropout_mask(stream, l, len(X), width, model.keep_prob)
            return masks[l]
    y, hiddens = next(inference_passes(model, X, kept=kept))
    return y, ForwardCache(hiddens=[X, *hiddens], masks=masks, y=y,
                           layer_dims=tuple(model.layer_dims))


def backward(model: MlpModel, cache: ForwardCache, grad_y: np.ndarray) -> Gradients:
    """Backpropagate dL/dy through the recorded pass (the kept bits
    applied to delta as in the pass, (delta * kept) * (1 / keep_prob);
    ReLU subgradient 0 at 0), in the dtype of the recorded pass: grad_y
    takes it, so a float32 pass has float32 gradients. Each layer's delta
    is flushed to zero below the dtype's smallest normal.

    A ReLU's gate is its recorded output > 0: a kept unit holds
    relu(z) / keep_prob with 1 / keep_prob >= 1, which is > 0 exactly when
    z > 0 (NaN fails both), and a dropped unit's delta is already +-0 or
    NaN after the mask, which either gate leaves as it is.
    """
    if cache.layer_dims != tuple(model.layer_dims):
        raise CacheMismatch(f"cache dims {cache.layer_dims} vs model {tuple(model.layer_dims)}")
    G = np.asarray(grad_y, dtype=cache.y.dtype)
    if G.shape != cache.y.shape:
        raise CacheMismatch(f"grad shape {G.shape} vs output {cache.y.shape}")

    if model.output_activation == "relu":
        delta = G * (cache.y > 0)
    else:
        p = cache.y
        delta = p * (G - np.sum(G * p, axis=1, keepdims=True))

    n_layers = len(model.weights)
    dweights = [None] * n_layers
    dbiases = [None] * n_layers
    tiny = np.finfo(delta.dtype).tiny
    for l in range(n_layers - 1, -1, -1):
        # Subnormal operands slow a GEMM several times over, and a confident
        # classifier's float32 deltas fall below the smallest normal (1.2e-38)
        # by the hundred each step. A gradient that small moves no weight, so
        # each layer's delta is flushed to zero there before its GEMMs (a
        # product, not a masked store: most deltas are ReLU zeros).
        delta *= np.abs(delta) >= tiny
        dweights[l] = delta.T @ cache.hiddens[l]
        dbiases[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l]
            if cache.masks[l - 1] is not None:
                delta *= cache.masks[l - 1]
                delta *= 1.0 / model.keep_prob
            delta = delta * (cache.hiddens[l] > 0)
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
    """Gradient of msle_loss with respect to s_hat (same batch mean), in
    the dtype of its arguments."""
    return _msle_batch(s_hat, s)[1]


def _msle_batch(s_hat: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray]:
    """A training batch's msle_loss and msle_grad from one log difference
    (squaring ignores its sign), in the dtype of the arguments. It skips
    msle_loss's checks: train_regressor checked the targets once, and a
    ReLU output is never negative."""
    d = np.log1p(s_hat) - np.log1p(s)
    return float(np.mean(d * d)), 2.0 * d / (1.0 + s_hat) / d.size


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    n = probs.shape[0]
    p_true = np.clip(probs[np.arange(n), labels], _CE_CLAMP, None)
    return float(-np.mean(np.log(p_true)))


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """dL/dprobs, in the dtype of probs; composed with the softmax
    Jacobian in backward this yields the usual (p - onehot)/n output
    delta."""
    n = probs.shape[0]
    g = np.zeros_like(probs)
    idx = np.arange(n)
    g[idx, labels] = -1.0 / (n * np.clip(probs[idx, labels], _CE_CLAMP, None))
    return g


def _cross_entropy_batch(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """A training batch's cross_entropy_loss and cross_entropy_grad."""
    return cross_entropy_loss(probs, labels), cross_entropy_grad(probs, labels)


def init_adam_state(model: MlpModel) -> AdamState:
    params = model.weights + model.biases
    return AdamState(m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(params: list, grads: list, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place, in the dtype of each
    parameter: its gradient and moments must have that dtype, since an
    in-place update would cast a wider one silently."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params/grads/state length mismatch")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param {p.shape} vs grad {g.shape}")
        for name, a in (("grad", g), ("first moment", m), ("second moment", v)):
            if a.dtype != p.dtype:
                raise ShapeMismatch(f"param dtype {p.dtype} vs {name} dtype {a.dtype}")
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _fit(
    inputs: np.ndarray,
    targets: np.ndarray,
    out_dim: int,
    output_activation: str,
    batch_loss,
    cfg: TrainConfig,
    noise_label: str,
) -> tuple[MlpModel, list]:
    """Build a network on checked input rows and train it with Adam on
    shuffled minibatches; batch_loss(y, targets) gives the loss of a
    batch's outputs against its rows of targets and its gradient. Returns
    the model and the loss history: the pre-training loss under
    deterministic inference, then one entry per epoch.

    Training runs in float32, with no switch. The z-score statistics are
    float64, and the rows are z-scored in float64 once per fit, then cast
    to float32 once, as are regression targets. The steps run on float32
    copies of the parameters, with float32 Adam moments, and at the end
    the weights are upcast, exactly, into the float64 model that
    save_model writes."""
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
    rows = inputs
    if cfg.input_norm == "zscore":
        model.input_mean = inputs.mean(axis=0, dtype=np.float64)
        model.input_std = np.maximum(inputs.std(axis=0, dtype=np.float64), 1e-8)
        rows = inputs - model.input_mean
        rows /= model.input_std
    rows = rows.astype(np.float32, copy=False)
    if targets.dtype.kind == "f":  # class labels stay integers
        targets = targets.astype(np.float32, copy=False)
    work = replace(model, weights=[w.astype(np.float32) for w in model.weights],
                   biases=[b.astype(np.float32) for b in model.biases],
                   input_mean=None, input_std=None)

    rng = np.random.default_rng(np.random.SeedSequence([_TAG_SHUFFLE, cfg.rng_seed]))
    state = init_adam_state(work)
    params = work.weights + work.biases
    losses = [batch_loss(predict(work, rows), targets)[0]]
    for _ in range(cfg.n_epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            # Step k draws its dropout masks from pass k of the run's stream.
            stream = DropoutStream(seed=cfg.rng_seed, pass_index=state.t)
            y, cache = forward(work, rows[idx], stream=stream)
            loss, grad_y = batch_loss(y, targets[idx])
            epoch_loss += loss * len(idx)
            grads = backward(work, cache, grad_y)
            adam_step(params, grads.dweights + grads.dbiases, state, cfg)
        losses.append(epoch_loss / n)
    model.weights = [w.astype(np.float64) for w in work.weights]
    model.biases = [b.astype(np.float64) for b in work.biases]
    return model, losses


def _float_rows(a) -> np.ndarray:
    """a as an array of floats: a float array as it is, so that float32
    frames are not copied to float64, anything else as float64."""
    a = np.asarray(a)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


def train_regressor(
    noisy_mag: np.ndarray, clean_mag: np.ndarray, cfg: TrainConfig, noise_label: str = ""
) -> tuple[MlpModel, list]:
    """Fit a spectral regressor on (noisy, clean) magnitude frame pairs
    with the MSLE loss; returns the model and the loss history (see _fit)."""
    noisy_mag, clean_mag = _float_rows(noisy_mag), _float_rows(clean_mag)
    if noisy_mag.size == 0 or clean_mag.size == 0:
        raise EmptyDataset("no training frames")
    if noisy_mag.shape != clean_mag.shape or noisy_mag.ndim != 2:
        raise DimensionMismatch(f"{noisy_mag.shape} vs {clean_mag.shape}")
    if np.any(noisy_mag < 0) or np.any(clean_mag < 0):
        raise NegativeSpectrum("training spectra must be nonnegative")
    return _fit(noisy_mag, clean_mag, noisy_mag.shape[1], "relu", _msle_batch,
                cfg, noise_label)


def train_classifier(
    mag_frames: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    n_classes: int,
    noise_label: str = "",
) -> tuple[MlpModel, list]:
    """Fit a softmax noise classifier on labeled magnitude frames with the
    cross-entropy loss; returns the model and the loss history (see _fit)."""
    mag_frames = _float_rows(mag_frames)
    labels = np.asarray(labels, dtype=np.int64)
    if mag_frames.size == 0:
        raise EmptyDataset("no training frames")
    if mag_frames.ndim != 2 or labels.shape != (mag_frames.shape[0],):
        raise DimensionMismatch(f"{mag_frames.shape} vs labels {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise LabelOutOfRange(f"labels must lie in [0, {n_classes})")
    return _fit(mag_frames, labels, n_classes, "softmax", _cross_entropy_batch,
                cfg, noise_label)


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


def _parse_header(data: bytes, path) -> tuple[dict, int]:
    """The checked header fields at the start of a model file's bytes, and
    the offset where its parameters begin."""
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
    checked = dict(layer_dims=layer_dims, output_activation=output_activation,
                   keep_prob=keep_prob, weight_decay=weight_decay,
                   n_train_frames=n_train_frames, seed=seed, noise_label=noise_label,
                   input_norm=norm)
    return checked, 12 + hlen


def read_model_header(path) -> dict:
    """A model file's checked header fields (layer_dims, activations,
    keep_prob, weight_decay, n_train_frames, seed, noise_label, input_norm),
    reading only the header's bytes."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        hlen = int.from_bytes(head[8:12], "little") if len(head) == 12 else 0
        return _parse_header(head + fh.read(hlen), path)[0]


def load_model(path) -> MlpModel:
    """Read a model file; inverse of save_model, bit-exact."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, start = _parse_header(data, path)
    layer_dims, norm = header["layer_dims"], header.pop("input_norm")

    n_params = sum(di * do + do for di, do in zip(layer_dims[:-1], layer_dims[1:]))
    if norm == "zscore":
        n_params += 2 * layer_dims[0]
    body = data[start:]
    if len(body) != 8 * n_params:
        raise CorruptFile(f"{path}: expected {8 * n_params} parameter bytes, got {len(body)}")
    flat = np.frombuffer(body, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise CorruptFile(f"{path}: a parameter is not finite")

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
        # Training floors every std at 1e-8; the z-score divides by it.
        if not np.all(input_std > 0):
            raise CorruptFile(f"{path}: an input std is not positive")

    return MlpModel(weights=weights, biases=biases, input_mean=input_mean,
                    input_std=input_std, **header)
