"""Monte Carlo dropout inference: stochastic passes over an utterance,
reduced to the predictive mean and the diagonal predictive variance per
frame. The passes are neural's one layer loop with kept bits applied,
the same loop training runs once per step, here in float32; this module
checks tau, sums the moments in float64 and short-circuits frames whose
passes all agree. Masks come from the process's kept-bits table, so each
mask row is drawn once however many sweeps read it."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .neural import MlpModel, inference_passes, input_rows, is_int, kept_bits


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


def mc_spectral_stats(model: MlpModel, mag_frames: np.ndarray, cfg: McConfig) -> McSweep:
    """MC sweep over all frames of an utterance at once.

    The passes are neural.inference_passes with kept bits, each one the
    pass forward trains with, run in float32: GEMMs are most of a sweep,
    and float32 halves them. Each pass is copied to float64 before the
    moments accumulate in place, so memory is O(frames x bins) whatever
    the pass count, and the moments are exact sums of the float32 passes.
    The result is bit-identical to stacking float32 passes of a
    plain-numpy reference, upcast, and reducing them; frame k's row of
    it depends only on frame k, its mask rows and the row count. Both
    oracles live in tests/test_mcdrop.py. A model in which no unit can
    drop runs one float64 dropout-off pass, neural.predict's: its frames
    all agree, so it returns that pass and tau_inv.

    Frame k of pass t takes row k of the (cfg.rng_seed, t) stream's
    masks, read as kept bits from neural's process-wide table: a row
    is drawn the first time any sweep needs it and served to every later
    sweep with the same seed, width and keep probability.
    """
    _check_tau(model, cfg)
    n_passes, kept, dtype = 1, None, np.float64
    if model.keep_prob < 1.0 and len(model.weights) > 1:
        n_passes, p, dtype = cfg.n_passes, model.keep_prob, np.float32
        # Asked only after input_rows has checked mag_frames' shape.
        kept = lambda t, l, width: kept_bits(cfg.rng_seed, t, l, len(mag_frames), width, p)
    X = input_rows(model, mag_frames).astype(dtype, copy=False)
    passes = inference_passes(model, X, n_passes, kept)
    del X  # the passes drop the rows after layer 0
    for t, (y, _) in enumerate(passes):
        if t == 0:
            total = y.astype(np.float64)
            total_sq, y64 = total * total, np.empty_like(total)
            agree, first = np.arange(len(y)), y.copy()
            continue
        if agree.size:
            # Only frames whose passes all agreed so far can still agree.
            still = np.all(y[agree] == first, axis=1)
            agree, first = agree[still], first[still]
        # A float32 product is exact in float64, so the squares and sums
        # below are those of the stacked passes upcast to float64.
        np.copyto(y64, y)
        total += y64
        y64 *= y64
        total_sq += y64

    # mean(axis=0) over stacked passes adds the slices in pass order and
    # divides by T, so these running sums give the same bits.
    means = total
    means /= n_passes
    variances = total_sq
    variances /= n_passes
    variances -= np.multiply(means, means, out=y64)
    np.maximum(variances, 0.0, out=variances)
    variances += cfg.tau_inv

    # Frames whose passes all agree get the exact short-circuit values.
    means[agree] = first
    variances[agree] = cfg.tau_inv

    return McSweep(means=means, variances=variances, traces=variances.sum(axis=1))
