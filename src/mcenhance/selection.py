"""Model banks and frame-wise selection: classifier routing, minimum
predictive variance routing, and the threshold-switched hybrid."""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import FrameConfig, Signal, istft_overlap_add, stft
from .errors import (
    DimensionMismatch,
    EmptyBank,
    InvalidConfig,
    InvalidManifest,
    LengthMismatch,
    MissingModels,
)
from .mcdrop import McConfig, mc_for_model, mc_spectral_stats
from .neural import MlpModel, forward, load_model, save_model

BANK_MANIFEST = "bank.json"

ROUTE_VARIANCE = "variance"
ROUTE_CLASSIFIER = "classifier"


class PolicyKind(enum.Enum):
    CLASSIFIER_CONV = "class-conv"
    CLASSIFIER_MC = "class-mc"
    VAR_MC = "var-mc"
    MU_MC = "mu-mc"


@dataclass
class SelectionPolicy:
    kind: PolicyKind
    mu: float = 0.16
    mc: McConfig = field(default_factory=McConfig)

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu < 0:
            raise InvalidConfig("mu must be finite and nonnegative")


@dataclass
class FrameDecision:
    """Audit record for one enhanced frame."""

    frame_index: int
    chosen_model: int
    route: str  # ROUTE_VARIANCE or ROUTE_CLASSIFIER
    trace_vars: np.ndarray | None = None   # [M], absent for classifier-only runs
    posteriors: np.ndarray | None = None   # [M], absent for pure variance runs


@dataclass
class ModelBank:
    """M noise-specific regressors, their labels, and the label classifier."""

    models: list
    labels: list
    classifier: MlpModel | None = None


def validate_bank(bank: ModelBank, need_classifier: bool = False) -> None:
    if not bank.models:
        raise EmptyBank("bank holds no models")
    if len(bank.labels) != len(bank.models):
        raise LengthMismatch(
            f"{len(bank.labels)} labels for {len(bank.models)} models")
    if len(set(bank.labels)) != len(bank.labels):
        raise InvalidConfig("bank labels must be distinct")
    dims = {(m.in_dim, m.out_dim) for m in bank.models}
    if len(dims) != 1:
        raise DimensionMismatch(f"bank models disagree on dims: {sorted(dims)}")
    if need_classifier:
        if bank.classifier is None:
            raise MissingModels("policy needs a classifier but the bank has none")
        if bank.classifier.out_dim != len(bank.models):
            raise DimensionMismatch(
                f"classifier has {bank.classifier.out_dim} outputs "
                f"for {len(bank.models)} models")


def save_bank(bank: ModelBank, dir_path) -> None:
    validate_bank(bank)
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    model_files = []
    for label, model in zip(bank.labels, bank.models):
        name = f"expert_{label}.model"
        save_model(model, dir_path / name)
        model_files.append(name)
    manifest = {
        "labels": list(bank.labels),
        "model_files": model_files,
        "keep_probs": [m.keep_prob for m in bank.models],
        "classifier_file": None,
    }
    if bank.classifier is not None:
        manifest["classifier_file"] = "classifier.model"
        save_model(bank.classifier, dir_path / "classifier.model")
    tmp = dir_path / (BANK_MANIFEST + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(dir_path / BANK_MANIFEST)


def load_bank(dir_path) -> ModelBank:
    """Load a bank directory; every regressor must have keep_prob < 1 so
    trace variances stay strictly positive for the policy-limit identities."""
    dir_path = Path(dir_path)
    manifest_path = dir_path / BANK_MANIFEST
    if not manifest_path.exists():
        raise MissingModels(f"no {BANK_MANIFEST} in {dir_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        labels = list(manifest["labels"])
        model_files = list(manifest["model_files"])
        keep_probs = list(manifest["keep_probs"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidManifest(f"{manifest_path}: {exc}") from exc
    if not (len(labels) == len(model_files) == len(keep_probs)):
        raise InvalidManifest(f"{manifest_path}: label/file/keep_prob counts differ")

    models = []
    for fname, p in zip(model_files, keep_probs):
        path = dir_path / fname
        if not path.exists():
            raise MissingModels(f"bank references missing file {path}")
        model = load_model(path)
        if model.keep_prob != p:
            raise InvalidManifest(
                f"{fname}: keep_prob {model.keep_prob} != manifest {p}")
        if model.keep_prob >= 1.0:
            raise InvalidConfig(
                f"{fname}: keep_prob must be < 1 for stochastic selection")
        models.append(model)

    classifier = None
    cfile = manifest.get("classifier_file")
    if cfile:
        cpath = dir_path / cfile
        if not cpath.exists():
            raise MissingModels(f"bank references missing classifier {cpath}")
        classifier = load_model(cpath)

    bank = ModelBank(models=models, labels=labels, classifier=classifier)
    validate_bank(bank, need_classifier=classifier is not None)
    return bank


def enhance_multi(
    bank: ModelBank, noisy: Signal, policy: SelectionPolicy, frame_cfg: FrameConfig
) -> tuple[Signal, list]:
    """Apply a bank policy frame by frame and reconstruct with the noisy
    phase; each model is swept over all frames in one batch."""
    frames = stft(noisy, frame_cfg)
    out_mag, decisions = select_frames(bank, frames.magnitude, policy)
    return istft_overlap_add(out_mag, frames.phase, frame_cfg), decisions


def route_frames(
    policy: SelectionPolicy,
    traces: np.ndarray | None,
    posteriors: np.ndarray | None,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Chosen model index per frame plus a variance-route mask.

    Pure function of the cached statistics, so any caller holding a bank
    sweep reproduces the policy's decisions exactly.
    """
    if policy.kind in (PolicyKind.CLASSIFIER_CONV, PolicyKind.CLASSIFIER_MC):
        chosen = np.argmax(posteriors, axis=1)
        var_route = np.zeros(n, dtype=bool)
    elif policy.kind is PolicyKind.VAR_MC:
        chosen = np.argmin(traces, axis=0)
        var_route = np.ones(n, dtype=bool)
    elif policy.kind is PolicyKind.MU_MC:
        var_route = traces.min(axis=0) > policy.mu
        chosen = np.where(var_route,
                          np.argmin(traces, axis=0),
                          np.argmax(posteriors, axis=1))
    else:
        raise InvalidConfig(f"unknown policy kind {policy.kind}")
    return chosen, var_route


def select_frames(
    bank: ModelBank, mag: np.ndarray, policy: SelectionPolicy
) -> tuple[np.ndarray, list]:
    """Frame-domain core of enhance_multi: enhanced magnitudes plus the
    per-frame audit trail, no reconstruction."""
    needs_classifier = policy.kind in (
        PolicyKind.CLASSIFIER_CONV, PolicyKind.CLASSIFIER_MC, PolicyKind.MU_MC)
    validate_bank(bank, need_classifier=needs_classifier)
    mag = np.asarray(mag, dtype=np.float64)
    n = mag.shape[0]

    posteriors = None
    if needs_classifier:
        posteriors, _ = forward(bank.classifier, mag)

    traces_all = None
    if policy.kind in (PolicyKind.VAR_MC, PolicyKind.MU_MC):
        means, traces_all = sweep_bank(bank, mag, policy.mc)
        chosen, var_route = route_frames(policy, traces_all, posteriors, n)
        out_mag = means[chosen, np.arange(n)]
    else:
        chosen, var_route = route_frames(policy, None, posteriors, n)
        if policy.kind is PolicyKind.CLASSIFIER_CONV:
            out_mag = gather_deterministic(bank, mag, chosen)
        else:
            out_mag = _gather_mc_means(bank, mag, chosen, policy.mc)

    decisions = []
    for i in range(n):
        decisions.append(FrameDecision(
            frame_index=i,
            chosen_model=int(chosen[i]),
            route=ROUTE_VARIANCE if var_route[i] else ROUTE_CLASSIFIER,
            trace_vars=None if traces_all is None else traces_all[:, i].copy(),
            posteriors=None if posteriors is None else posteriors[i].copy(),
        ))
    return out_mag, decisions


def sweep_bank(bank: ModelBank, mag: np.ndarray, mc: McConfig):
    """MC stats for every model over the whole utterance: means
    [M, n, bins] and trace variances [M, n]."""
    n = mag.shape[0]
    means = np.empty((len(bank.models), n, bank.models[0].out_dim))
    traces = np.empty((len(bank.models), n))
    for j, model in enumerate(bank.models):
        sweep = mc_spectral_stats(model, mag, mc_for_model(model, mc))
        means[j] = sweep.means
        traces[j] = sweep.traces
    return means, traces


def _gather_mc_means(bank, mag, chosen, mc) -> np.ndarray:
    """MC means per frame from its chosen model; models nobody chose are
    skipped, but each swept model sees the full frame grid so its masks
    match the all-model sweep row for row."""
    n = mag.shape[0]
    out = np.empty((n, bank.models[0].out_dim))
    for j in np.unique(chosen):
        model = bank.models[j]
        sweep = mc_spectral_stats(model, mag, mc_for_model(model, mc))
        rows = chosen == j
        out[rows] = sweep.means[rows]
    return out


def gather_deterministic(bank, mag, chosen) -> np.ndarray:
    """Dropout-off output per frame from its chosen model; only the
    chosen models run."""
    n = mag.shape[0]
    out = np.empty((n, bank.models[0].out_dim))
    for j in np.unique(chosen):
        y, _ = forward(bank.models[j], mag)
        rows = chosen == j
        out[rows] = y[rows]
    return out


def decisions_to_csv(decisions: list, labels: list, path) -> None:
    """frame_index, route, chosen_label, then per-model trace variances
    and posteriors (blank when the policy never computed them)."""
    m_count = len(labels)
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["frame_index", "route", "chosen_label"]
            + [f"trace_var_{j}" for j in range(m_count)]
            + [f"posterior_{j}" for j in range(m_count)])
        for d in decisions:
            traces = ([f"{v:.9g}" for v in d.trace_vars]
                      if d.trace_vars is not None else [""] * m_count)
            posts = ([f"{v:.9g}" for v in d.posteriors]
                     if d.posteriors is not None else [""] * m_count)
            writer.writerow(
                [d.frame_index, d.route, labels[d.chosen_model]] + traces + posts)
    tmp.replace(path)
