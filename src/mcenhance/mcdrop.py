"""Monte Carlo dropout inference: stochastic forward passes, predictive
mean and diagonal predictive variance, and waveform enhancement built on
them."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dsp import FrameConfig, Signal, istft_overlap_add, stft
from .errors import DimensionMismatch, EmptySamples, InvalidConfig
from .neural import DropoutStream, MlpModel, forward, input_layer


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
        if self.n_passes < 1:
            raise InvalidConfig("n_passes must be >= 1")
        if self.tau_inv < 0 or not np.isfinite(self.tau_inv):
            raise InvalidConfig("tau_inv must be finite and nonnegative")
        if self.prior_length_scale <= 0:
            raise InvalidConfig("prior_length_scale must be positive")


@dataclass
class McOutput:
    """Moments of the stochastic passes for a single input frame."""

    samples: np.ndarray   # [n_passes, dim]
    mean: np.ndarray      # [dim]
    var: np.ndarray       # [dim], diagonal only, includes tau_inv
    trace_var: float

    def as_dict(self) -> dict:
        return {
            "samples": self.samples.tolist(),
            "mean": self.mean.tolist(),
            "var": self.var.tolist(),
            "trace_var": self.trace_var,
        }


@dataclass
class McSweep:
    """Per-frame moments from one batched MC sweep over an utterance."""

    means: np.ndarray      # [n_frames, dim]
    variances: np.ndarray  # [n_frames, dim]
    traces: np.ndarray     # [n_frames]


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


def predictive_mean(samples: np.ndarray) -> np.ndarray:
    """Average over passes; exact when every pass agrees."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise DimensionMismatch(f"expected [n_passes, dim], got {samples.shape}")
    if samples.shape[0] == 0:
        raise EmptySamples("no MC samples")
    if np.all(samples == samples[0]):
        return samples[0].copy()
    return samples.mean(axis=0)


def predictive_variance(
    samples: np.ndarray, tau_inv: float = 0.0
) -> tuple[np.ndarray, float]:
    """Diagonal predictive variance and its trace.

    var[d] = tau_inv + (1/T) sum_t s_t[d]^2 - mean[d]^2 with the biased
    T denominator. Identical passes short-circuit to exactly tau_inv per
    dimension, and tau_inv enters additively, so var(tau) == var(0) + tau.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise DimensionMismatch(f"expected [n_passes, dim], got {samples.shape}")
    if samples.shape[0] == 0:
        raise EmptySamples("no MC samples")
    if tau_inv < 0:
        raise InvalidConfig("tau_inv must be nonnegative")
    if np.all(samples == samples[0]):
        var = np.full(samples.shape[1], tau_inv)
        return var, float(var.sum())
    mean = samples.mean(axis=0)
    raw = (samples * samples).mean(axis=0) - mean * mean
    var = tau_inv + np.maximum(raw, 0.0)
    return var, float(var.sum())


def mc_forward(
    model: MlpModel, x: np.ndarray, cfg: McConfig, frame_index: int = 0
) -> McOutput:
    """Run n_passes stochastic passes on one input vector.

    frame_index pins the dropout mask rows, so pass t of frame i here
    draws the same masks as row i of pass t in the batched sweep.
    """
    _check_tau(model, cfg)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
    samples = np.empty((cfg.n_passes, model.out_dim))
    for t in range(cfg.n_passes):
        stream = DropoutStream(seed=cfg.rng_seed, pass_index=t, row_offset=frame_index)
        samples[t], _ = forward(model, x, stream=stream)
    mean = predictive_mean(samples)
    var, trace = predictive_variance(samples, cfg.tau_inv)
    return McOutput(samples=samples, mean=mean, var=var, trace_var=trace)


def mc_spectral_stats(
    model: MlpModel, mag_frames: np.ndarray, cfg: McConfig
) -> McSweep:
    """MC sweep over all frames of an utterance at once.

    Matches mc_forward called per frame with frame_index = row (to
    rounding: a batched GEMM sums in another order), and is bit-identical
    to stacking all passes and reducing them. The input checks, the
    z-score and layer 0's affine map and ReLU come before any dropout, so
    they run once per sweep; each pass draws its masks and runs the
    remaining layers as one batched forward. The moments accumulate as
    passes arrive, so memory is O(frames x bins) whatever the pass count.
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

    X, h0 = input_layer(model, mag_frames)
    for t in range(cfg.n_passes):
        stream = DropoutStream(seed=cfg.rng_seed, pass_index=t, row_offset=0)
        y, _ = forward(model, X, stream=stream, first_hidden=h0)
        if t == 0:
            first, total, total_sq = y, y.copy(), y * y
            same = np.ones(len(y), dtype=bool)
        else:
            total += y
            total_sq += y * y
            same &= np.all(y == first, axis=1)

    # mean(axis=0) over stacked passes adds the slices in pass order and
    # divides by T, so these running sums give the same bits.
    means = total / cfg.n_passes
    raw = total_sq / cfg.n_passes - means * means
    variances = cfg.tau_inv + np.maximum(raw, 0.0)

    # Frames whose passes all agree get the exact short-circuit values.
    if same.any():
        means[same] = first[same]
        variances[same] = cfg.tau_inv

    return McSweep(means=means, variances=variances, traces=variances.sum(axis=1))


def enhance_single_mc(
    model: MlpModel, noisy: Signal, cfg: McConfig, frame_cfg: FrameConfig
) -> Signal:
    """Enhance with the MC predictive mean spectrum and the noisy phase."""
    frames = stft(noisy, frame_cfg)
    _check_model_bins(model, frame_cfg)
    sweep = mc_spectral_stats(model, frames.magnitude, cfg)
    return istft_overlap_add(sweep.means, frames.phase, frame_cfg)


def enhance_deterministic(
    model: MlpModel, noisy: Signal, frame_cfg: FrameConfig
) -> Signal:
    """Conventional single-pass enhancement (dropout off)."""
    frames = stft(noisy, frame_cfg)
    _check_model_bins(model, frame_cfg)
    mag, _ = forward(model, frames.magnitude)
    return istft_overlap_add(mag, frames.phase, frame_cfg)


def _check_model_bins(model: MlpModel, frame_cfg: FrameConfig) -> None:
    if model.in_dim != frame_cfg.n_bins or model.out_dim != frame_cfg.n_bins:
        raise DimensionMismatch(
            f"model dims {model.in_dim}->{model.out_dim}, frames have {frame_cfg.n_bins} bins")
