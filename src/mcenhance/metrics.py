"""Evaluation metrics: SSE on magnitude spectra, segmental SNR on
waveforms, variance/error correlation, and the mu threshold sweep."""

from __future__ import annotations

import numpy as np

from .dsp import FrameConfig, Signal, frame_signal
from .errors import (
    DegenerateInput,
    InvalidConfig,
    LengthMismatch,
    NoVoicedFrames,
    ShapeMismatch,
)
from .selection import PolicyKind, SelectionPolicy, route_frames

SSNR_FLOOR_DB = -10.0
SSNR_CEIL_DB = 35.0
SILENCE_ENERGY = 1e-10


def sse(ref_mag: np.ndarray, est_mag: np.ndarray) -> tuple[float, np.ndarray]:
    """Total and per-frame sum of squared spectral differences."""
    ref_mag = np.asarray(ref_mag, dtype=np.float64)
    est_mag = np.asarray(est_mag, dtype=np.float64)
    if ref_mag.shape != est_mag.shape:
        raise ShapeMismatch(f"{ref_mag.shape} vs {est_mag.shape}")
    d = ref_mag - est_mag
    per_frame = np.sum(d * d, axis=-1)
    if per_frame.ndim == 0:
        per_frame = per_frame[None]
    return float(per_frame.sum()), per_frame


def ssnr(clean: Signal, estimate: Signal, frame_cfg: FrameConfig) -> float:
    """Mean per-frame SNR in dB, clamped to [-10, 35].

    Uses the analysis framing without a window; frames whose clean energy
    falls below 1e-10 are excluded.
    """
    if len(clean) != len(estimate):
        raise LengthMismatch(f"clean {len(clean)} vs estimate {len(estimate)} samples")
    s = frame_signal(clean, frame_cfg)
    s_hat = frame_signal(estimate, frame_cfg)
    energy = np.sum(s * s, axis=1)
    keep = energy >= SILENCE_ENERGY
    if not keep.any():
        raise NoVoicedFrames("every frame is silent in the clean reference")
    err = s[keep] - s_hat[keep]
    err_energy = np.sum(err * err, axis=1)
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(energy[keep] / err_energy)
    return float(np.mean(np.clip(snr_db, SSNR_FLOOR_DB, SSNR_CEIL_DB)))


def variance_error_correlation(
    per_frame_se: np.ndarray, per_frame_trace_var: np.ndarray
) -> float:
    """Pearson correlation between squared error and trace variance."""
    x = np.asarray(per_frame_se, dtype=np.float64)
    y = np.asarray(per_frame_trace_var, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    if x.size < 3:
        raise DegenerateInput("need at least 3 frames for a correlation")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DegenerateInput("constant vector has no correlation")
    return float(np.corrcoef(x, y)[0, 1])


def threshold_sweep(test_set, mu_values: np.ndarray) -> list:
    """SSE of the mu-switched policy at each threshold.

    test_set yields one (condition, se, traces, posteriors) tuple per
    entry: each expert's per-frame squared error against clean [M, n],
    its trace variances [M, n] and the classifier posteriors [n, M], as
    summary.summarize makes them from a BankOutputs. Routing is a pure
    function of traces and posteriors, so each mu only indexes se.
    Returns rows of (mu, condition, sse) where sse is the mean of
    per-file totals, ordered by mu then by first appearance of the
    condition.
    """
    mu_values = np.asarray(mu_values, dtype=np.float64)
    if mu_values.ndim != 1 or mu_values.size == 0:
        raise InvalidConfig("mu_values must be a nonempty vector")
    if np.any(np.diff(mu_values) < 0):
        raise InvalidConfig("mu_values must be sorted ascending")

    entries = list(test_set)
    conditions = list(dict.fromkeys(condition for condition, *_ in entries))
    rows = []
    for mu in mu_values:
        policy = SelectionPolicy(kind=PolicyKind.MU_MC, mu=float(mu))
        totals = {c: [] for c in conditions}
        for condition, se, traces, posteriors in entries:
            chosen, _ = route_frames(policy, traces, posteriors)
            totals[condition].append(float(se[chosen, np.arange(len(chosen))].sum()))
        for condition in conditions:
            rows.append((float(mu), condition, float(np.mean(totals[condition]))))
    return rows
