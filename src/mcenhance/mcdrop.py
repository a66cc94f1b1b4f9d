"""Monte Carlo dropout inference: stochastic forward passes over an
utterance, reduced to the predictive mean and the diagonal predictive
variance per frame. The sweep runs its own pass loop over buffers
allocated once per sweep. Sweeps over one utterance can share one
MaskMemo, so each dropout mask is drawn once however many models read
it."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .neural import (
    DropoutStream, MaskMemo, MlpModel, dropout_mask, forward, input_layer, is_int, softmax,
)


@dataclass
class McConfig:
    """Pass count, model precision term, and seeding for one MC sweep.

    tau_inv is the additive inverse-precision floor on every variance
    entry; with zero weight decay it stays 0 and the variance is purely
    the spread of the stochastic passes.
    """

    n_passes: int = 50
    tau_inv: float = 0.0
    prior_length_scale: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (is_int(self.n_passes) and self.n_passes >= 1):
            raise InvalidConfig(f"n_passes must be an integer >= 1, got {self.n_passes!r}")
        if not (is_int(self.rng_seed) and self.rng_seed >= 0):
            raise InvalidConfig(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")
        if self.tau_inv < 0 or not np.isfinite(self.tau_inv):
            raise InvalidConfig("tau_inv must be finite and nonnegative")
        if not (self.prior_length_scale > 0 and np.isfinite(self.prior_length_scale)):
            raise InvalidConfig("prior_length_scale must be finite and positive")


@dataclass
class McSweep:
    """Per-frame moments from one batched MC sweep over an utterance.

    variances = tau_inv + max(mean of y_t^2 - mean^2, 0), with the biased
    1/T denominator, so tau_inv enters additively. A frame whose passes
    all agree gets that pass as its mean and exactly tau_inv as its
    variance.
    """

    means: np.ndarray      # [n_frames, dim]
    variances: np.ndarray  # [n_frames, dim], diagonal only
    traces: np.ndarray     # [n_frames], sum of variances


def tau_inverse(model: MlpModel, prior_length_scale: float = 1.0) -> float:
    """Inverse model precision 2*N*lambda / (l^2 * p); exactly 0 when the
    model was trained without weight decay."""
    if prior_length_scale <= 0:
        raise InvalidConfig("prior_length_scale must be positive")
    if not 0.0 < model.keep_prob <= 1.0:
        raise InvalidConfig(f"model keep_prob {model.keep_prob} out of range")
    if model.weight_decay == 0.0:
        return 0.0
    return (2.0 * model.n_train_frames * model.weight_decay
            / (prior_length_scale ** 2 * model.keep_prob))


def mc_for_model(model: MlpModel, cfg: McConfig) -> McConfig:
    """Copy of cfg with tau_inv pinned to the model's own precision term;
    a no-op for the usual zero-decay models."""
    if model.weight_decay == 0.0:
        return cfg
    return dataclasses.replace(
        cfg, tau_inv=tau_inverse(model, cfg.prior_length_scale))


def _check_tau(model: MlpModel, cfg: McConfig) -> None:
    # A decayed model fixes tau_inv; refusing a mismatch beats silently
    # reporting variances with the wrong floor.
    if model.weight_decay > 0:
        expected = tau_inverse(model, cfg.prior_length_scale)
        if not np.isclose(cfg.tau_inv, expected, rtol=1e-12, atol=0.0):
            raise InvalidConfig(
                f"model trained with weight decay {model.weight_decay}: "
                f"tau_inv must be {expected}, got {cfg.tau_inv}")


def _drawn_kept_bits(stream, layer_index, n_rows, width, keep_prob) -> np.ndarray:
    """A fresh mask's kept units, as MaskMemo serves them."""
    return dropout_mask(stream, layer_index, n_rows, width, keep_prob) != 0


def mc_spectral_stats(
    model: MlpModel, mag_frames: np.ndarray, cfg: McConfig, *,
    mask_memo: MaskMemo | None = None,
) -> McSweep:
    """MC sweep over all frames of an utterance at once.

    Bit-identical to stacking all passes of forward and reducing them,
    and equal to rounding to the per-frame reference (one frame at a
    time, masks pinned by its row); both oracles live in
    tests/test_mcdrop.py. The input checks, the z-score and layer 0's
    affine map and ReLU come before any dropout, so they run once per
    sweep. Each pass then runs the remaining layers over one activation
    buffer per hidden layer and one output buffer, all allocated once
    per sweep: GEMM into the buffer, add the bias, ReLU, and mask in
    place as (h * kept) * (1 / keep_prob), which has the bits of h times
    forward's float mask for every h, inf and NaN included. The moments
    accumulate in place as passes arrive, so memory is O(frames x bins)
    whatever the pass count.

    mask_memo, shared by the sweeps over one utterance, draws each
    (pass, layer) mask once and serves its kept bits to every later
    sweep with the same seed, width and keep probability; the result is
    byte-identical to a sweep without it.
    """
    _check_tau(model, cfg)
    mag_frames = np.asarray(mag_frames, dtype=np.float64)
    if mag_frames.ndim != 2 or mag_frames.shape[1] != model.in_dim:
        raise DimensionMismatch(
            f"frames {mag_frames.shape} vs model input dim {model.in_dim}")

    if model.keep_prob == 1.0 or len(model.weights) == 1:
        # No unit is ever dropped: every pass is the deterministic pass.
        y, _ = forward(model, mag_frames)
        variances = np.full_like(y, cfg.tau_inv)
        return McSweep(means=y, variances=variances, traces=variances.sum(axis=1))

    h0 = input_layer(model, mag_frames)
    draw = _drawn_kept_bits if mask_memo is None else mask_memo
    n, p = len(h0), model.keep_prob
    scale = 1.0 / p
    hidden = [np.empty((n, w)) for w in model.layer_dims[1:-1]]
    out = np.empty((n, model.out_dim))
    relu_out = model.output_activation == "relu"
    for t in range(cfg.n_passes):
        stream = DropoutStream(seed=cfg.rng_seed, pass_index=t, row_offset=0)
        h = h0
        for l, m in enumerate(hidden):
            if l:
                np.matmul(h, model.weights[l].T, out=m)
                m += model.biases[l]
                h = np.maximum(m, 0.0, out=m)
            np.multiply(h, draw(stream, l, n, m.shape[1], p), out=m)
            m *= scale
            h = m
        np.matmul(h, model.weights[-1].T, out=out)
        out += model.biases[-1]
        y = np.maximum(out, 0.0, out=out) if relu_out else softmax(out)
        if t == 0:
            total, total_sq = y.copy(), y * y
            agree, first = np.arange(n), y.copy()
            continue
        if agree.size:
            # Only frames whose passes all agreed so far can still agree.
            still = np.all(y[agree] == first, axis=1)
            agree, first = agree[still], first[still]
        total += y
        y *= y
        total_sq += y

    # mean(axis=0) over stacked passes adds the slices in pass order and
    # divides by T, so these running sums give the same bits.
    means = total
    means /= cfg.n_passes
    variances = total_sq
    variances /= cfg.n_passes
    variances -= np.multiply(means, means, out=out)
    np.maximum(variances, 0.0, out=variances)
    variances += cfg.tau_inv

    # Frames whose passes all agree get the exact short-circuit values.
    means[agree] = first
    variances[agree] = cfg.tau_inv

    return McSweep(means=means, variances=variances, traces=variances.sum(axis=1))
