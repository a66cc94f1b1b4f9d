"""Model banks and frame-wise selection: classifier routing, minimum
predictive variance routing, and the threshold-switched hybrid."""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import publish
from .errors import (
    DimensionMismatch,
    EmptyBank,
    InvalidConfig,
    InvalidManifest,
    LengthMismatch,
    MissingModels,
)
from .mcdrop import McConfig, mc_for_model, mc_spectral_stats
from .neural import MaskMemo, MlpModel, forward, load_model, save_model

BANK_MANIFEST = "bank.json"


class PolicyKind(enum.Enum):
    CLASSIFIER_CONV = "class-conv"
    CLASSIFIER_MC = "class-mc"
    VAR_MC = "var-mc"
    MU_MC = "mu-mc"


@dataclass
class SelectionPolicy:
    kind: PolicyKind
    mu: float = 0.16

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu < 0:
            raise InvalidConfig("mu must be finite and nonnegative")


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
    """Write every model file of the bank, then its manifest."""
    validate_bank(bank, need_classifier=bank.classifier is not None)
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for label, model in zip(bank.labels, bank.models):
        save_model(model, dir_path / f"expert_{label}.model")
    if bank.classifier is not None:
        save_model(bank.classifier, dir_path / "classifier.model")
    write_bank_manifest(bank, dir_path)


def write_bank_manifest(bank: ModelBank, dir_path) -> None:
    """Publish bank.json for a bank whose model files are already in
    dir_path: expert_<label>.model per label, and classifier.model."""
    validate_bank(bank, need_classifier=bank.classifier is not None)
    manifest = {
        "labels": list(bank.labels),
        "model_files": [f"expert_{label}.model" for label in bank.labels],
        "keep_probs": [m.keep_prob for m in bank.models],
        "classifier_file": None if bank.classifier is None else "classifier.model",
    }
    with publish(Path(dir_path) / BANK_MANIFEST, "w") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


def load_bank(dir_path) -> ModelBank:
    """Load a bank directory; every regressor must have keep_prob < 1 so
    trace variances stay strictly positive for the policy-limit identities."""
    dir_path = Path(dir_path)
    manifest_path = dir_path / BANK_MANIFEST
    if not manifest_path.exists():
        raise MissingModels(f"no {BANK_MANIFEST} in {dir_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        labels, model_files, keep_probs = (
            manifest[key] for key in ("labels", "model_files", "keep_probs"))
        cfile = manifest.get("classifier_file")
    except (ValueError, KeyError, TypeError) as exc:  # bad JSON or UTF-8, wrong shape
        raise InvalidManifest(f"{manifest_path}: {exc}") from exc
    if not (all(isinstance(v, list) and all(isinstance(x, str) for x in v)
                for v in (labels, model_files))
            and isinstance(keep_probs, list) and isinstance(cfile, (str, type(None)))):
        raise InvalidManifest(
            f"{manifest_path}: labels and model_files must be lists of strings, "
            "keep_probs a list, classifier_file a string or null")
    if not (len(labels) == len(model_files) == len(keep_probs)):
        raise InvalidManifest(f"{manifest_path}: label/file/keep_prob counts differ")

    models = []
    for fname, p in zip(model_files, keep_probs):
        path = dir_path / fname
        if not path.is_file():
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
    if cfile:
        cpath = dir_path / cfile
        if not cpath.is_file():
            raise MissingModels(f"bank references missing classifier {cpath}")
        classifier = load_model(cpath)

    bank = ModelBank(models=models, labels=labels, classifier=classifier)
    validate_bank(bank, need_classifier=classifier is not None)
    return bank


def route_frames(
    policy: SelectionPolicy,
    traces: np.ndarray | None,
    posteriors: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chosen model index per frame plus a variance-route mask, from
    traces [M, n] and posteriors [n, M] (either None when the policy does
    not read it).

    Pure function of the cached statistics, so any caller holding a bank
    sweep reproduces the policy's decisions exactly.
    """
    if policy.kind in (PolicyKind.CLASSIFIER_CONV, PolicyKind.CLASSIFIER_MC):
        chosen = np.argmax(posteriors, axis=1)
        var_route = np.zeros_like(chosen, dtype=bool)
    elif policy.kind is PolicyKind.VAR_MC:
        chosen = np.argmin(traces, axis=0)
        var_route = np.ones_like(chosen, dtype=bool)
    elif policy.kind is PolicyKind.MU_MC:
        var_route = traces.min(axis=0) > policy.mu
        chosen = np.where(var_route,
                          np.argmin(traces, axis=0),
                          np.argmax(posteriors, axis=1))
    else:
        raise InvalidConfig(f"unknown policy kind {policy.kind}")
    return chosen, var_route


class BankOutputs:
    """One utterance's magnitude frames and what a bank makes of them:
    the classifier posteriors, each expert's MC means and traces, and each
    expert's dropout-off output. Each is computed the first time a policy
    asks and then kept, so the policies routed over one object share one
    sweep per expert. An expert always sweeps the whole frame grid, so its
    masks match row for row whichever frames chose it.

    `mask_memo` is the utterance's MaskMemo: every expert sweep reads it, so a
    mask is drawn once and kept packed (one bit per unit); the experts
    after the first, and any other sweep over these frames with the same
    MC config (evaluate's single-mc), get its kept bits back unpacked,
    with no float mask rebuilt.
    """

    def __init__(self, bank: ModelBank, mag: np.ndarray, mc: McConfig):
        validate_bank(bank)
        self.bank, self.mc = bank, mc
        self.mag = np.asarray(mag, dtype=np.float64)
        self.mask_memo = MaskMemo()
        self._kept = {}

    def posteriors(self) -> np.ndarray:
        """Classifier posteriors [n, M]."""
        if "posteriors" not in self._kept:
            validate_bank(self.bank, need_classifier=True)
            self._kept["posteriors"], _ = forward(self.bank.classifier, self.mag)
        return self._kept["posteriors"]

    def mc_stats(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Expert j's MC means [n, bins] and trace variances [n]."""
        if ("mc", j) not in self._kept:
            model = self.bank.models[j]
            sweep = mc_spectral_stats(model, self.mag, mc_for_model(model, self.mc),
                                      mask_memo=self.mask_memo)
            self._kept["mc", j] = (sweep.means, sweep.traces)
        return self._kept["mc", j]

    def traces(self) -> np.ndarray:
        """Every expert's trace variances [M, n]."""
        return np.stack([self.mc_stats(j)[1] for j in range(len(self.bank.models))])

    def deterministic(self, j: int) -> np.ndarray:
        """Expert j's dropout-off output [n, bins]."""
        if ("plain", j) not in self._kept:
            self._kept["plain", j], _ = forward(self.bank.models[j], self.mag)
        return self._kept["plain", j]


@dataclass
class Decisions:
    """Per-frame audit of one bank policy over one utterance."""

    chosen: np.ndarray              # [n] model index
    var_route: np.ndarray           # [n] True where the variance decided
    traces: np.ndarray | None       # [M, n], absent when no trace was read
    posteriors: np.ndarray | None   # [n, M], absent for var-mc


def select_frames(
    outputs: BankOutputs, policy: SelectionPolicy
) -> tuple[np.ndarray, Decisions]:
    """Enhanced magnitudes under a bank policy plus its per-frame audit.
    Only the experts some frame chooses run, unless the policy reads every
    trace."""
    kind = policy.kind
    posteriors = None if kind is PolicyKind.VAR_MC else outputs.posteriors()
    traces = outputs.traces() if kind in (PolicyKind.VAR_MC, PolicyKind.MU_MC) else None
    chosen, var_route = route_frames(policy, traces, posteriors)
    out = np.empty((len(chosen), outputs.bank.models[0].out_dim))
    for j in np.unique(chosen):
        rows = chosen == j
        out[rows] = (outputs.deterministic(j) if kind is PolicyKind.CLASSIFIER_CONV
                     else outputs.mc_stats(j)[0])[rows]
    return out, Decisions(chosen, var_route, traces, posteriors)


def sweep_bank(outputs: BankOutputs) -> tuple[np.ndarray, np.ndarray]:
    """Every expert's MC stats over the whole utterance: means
    [M, n, bins] and trace variances [M, n]."""
    traces = outputs.traces()
    return np.stack([outputs.mc_stats(j)[0] for j in range(len(outputs.bank.models))]), traces


def decisions_to_csv(decisions: Decisions, labels: list, path) -> None:
    """frame_index, route, chosen_label, then per-model trace variances
    and posteriors (blank when the policy never computed them)."""
    m_count = len(labels)
    with publish(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["frame_index", "route", "chosen_label"]
            + [f"trace_var_{j}" for j in range(m_count)]
            + [f"posterior_{j}" for j in range(m_count)])
        for i, j in enumerate(decisions.chosen):
            traces = ([f"{v:.9g}" for v in decisions.traces[:, i]]
                      if decisions.traces is not None else [""] * m_count)
            posts = ([f"{v:.9g}" for v in decisions.posteriors[i]]
                     if decisions.posteriors is not None else [""] * m_count)
            route = "variance" if decisions.var_route[i] else "classifier"
            writer.writerow([i, route, labels[j]] + traces + posts)
