"""Experiment orchestration behind the CLI: corpus synthesis, the three
training scopes, policy evaluation, correlation reports, and the mu
threshold sweep."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import (
    MAX_DURATION_S,
    MIN_DURATION_S,
    NOISE_PRESETS,
    DatasetManifest,
    build_dataset,
    default_manifest,
    entries_for,
    entry_id,
    load_entry_frames,
    load_entry_signals,
    load_manifest,
    open_dataset,
)
from .dsp import FrameConfig, Signal, istft_overlap_add, publish, read_wav, stft, write_wav
from .errors import EmptyDataset, InvalidConfig, MissingModels
from .mcdrop import McConfig, mc_for_model, mc_spectral_stats
from .metrics import sse, ssnr, threshold_sweep, variance_error_correlation
from .neural import (
    TRAIN_FIELD_CHECKS,
    MlpModel,
    TrainConfig,
    is_finite_number,
    is_int,
    load_model,
    predict,
    read_model_header,
    save_model,
    train_classifier,
    train_regressor,
)
from .selection import (
    BankOutputs,
    ModelBank,
    PolicyKind,
    SelectionPolicy,
    decisions_to_csv,
    load_bank,
    select_frames,
    validate_bank,
    write_bank_manifest,
)
from .summary import load_summary, summarize, summary_key, summary_path, write_summary

POLICY_NAMES = ("single-conv", "single-mc", "class-conv", "class-mc",
                "var-mc", "mu-mc")
BANK_POLICIES = ("class-conv", "class-mc", "var-mc", "mu-mc")
# Coarse log ladder below the useful range of frame traces, step ladder
# across it. The endpoints pin the two pure policies: 0 routes every
# frame by variance, the top value is past any trace so the classifier
# decides alone.
DEFAULT_MU_GRID = (0.0, 0.16, 1.0, 4.0, 8.0, 16.0, 24.0, 32.0, 40.0,
                   48.0, 56.0, 64.0, 80.0, 96.0, 128.0, 1e9)

# A threshold is usable only while conditions the bank was trained on
# keep close to the classifier's error; 5% on validation leaves headroom
# for the held-out side of the split.
MU_GUARDRAIL = 1.05

_TAG_MC = 301
_TAG_EXPERT = 401
_TAG_SINGLE = 402
_TAG_CLASSIFIER = 404


@dataclass
class ExperimentConfig:
    """Everything the CLI verbs need; JSON config keys map 1:1 to fields
    and flags override them."""

    corpus_dir: str = "corpus"
    models_dir: str = "models"
    reports_dir: str = "reports"
    seed: int = 0
    n_passes: int = 50
    mu: float = 0.16
    mu_grid: tuple = DEFAULT_MU_GRID
    hidden_dims: tuple = (256, 256, 256)
    keep_prob: float = 0.8
    n_epochs: int = 40
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    input_norm: str = "zscore"
    n_train: int = 60
    n_val: int = 8
    n_test: int = 20
    duration_s: float = 2.0
    policies: tuple = POLICY_NAMES


_STRING = (lambda v: isinstance(v, str), "a string")
_COUNT = (lambda v: is_int(v) and v >= 0, "an integer >= 0")
_POSITIVE = (lambda v: is_int(v) and v >= 1, "an integer >= 1")

# Accepted values per config field, as (test, description). The ranges
# are those the constructors downstream enforce, checked up front so a
# bad value is a config error rather than a failure deep inside a verb;
# the training fields take TrainConfig's own rules.
_FIELD_CHECKS = {
    "corpus_dir": _STRING,
    "models_dir": _STRING,
    "reports_dir": _STRING,
    "seed": _COUNT,
    "n_passes": _POSITIVE,
    "mu": (lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0"),
    "mu_grid": (lambda v: len(v) > 0 and all(is_finite_number(m) and m >= 0 for m in v)
                and all(a <= b for a, b in zip(v, v[1:])),
                "a nonempty ascending list of finite numbers >= 0"),
    **{key: TRAIN_FIELD_CHECKS[key] for key in (
        "hidden_dims", "keep_prob", "n_epochs", "batch_size", "learning_rate",
        "weight_decay", "input_norm")},
    "n_train": _COUNT,
    "n_val": _COUNT,
    "n_test": _COUNT,
    "duration_s": (lambda v: is_finite_number(v) and MIN_DURATION_S <= v <= MAX_DURATION_S,
                   f"a number in [{MIN_DURATION_S}, {MAX_DURATION_S}]"),
    "policies": (lambda v: len(v) > 0 and all(p in POLICY_NAMES for p in v)
                 and len(set(v)) == len(v),
                 f"a nonempty list of distinct policy names ({', '.join(POLICY_NAMES)})"),
}


def _check_field(key: str, value) -> None:
    test, what = _FIELD_CHECKS[key]
    if not test(value):
        raise InvalidConfig(f"{key} must be {what}, got {value!r}")


def make_config(file_data: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then config-file keys, then explicit flag overrides."""
    known = {f.name for f in fields(ExperimentConfig)}
    merged = {}
    for source, where in ((file_data, "config file"), (overrides, "flags")):
        if not source:
            continue
        for key, value in source.items():
            if key not in known:
                raise InvalidConfig(f"unknown {where} key {key!r}")
            if value is not None:
                merged[key] = value
    for key in ("mu_grid", "hidden_dims", "policies"):
        if key in merged:
            if not isinstance(merged[key], (list, tuple)):
                raise InvalidConfig(f"{key} must be a list, got {merged[key]!r}")
            merged[key] = tuple(merged[key])
    for key, value in merged.items():
        _check_field(key, value)
    return ExperimentConfig(**merged)


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InvalidConfig(f"no config file at {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfig(f"{path}: top level must be a JSON object")
    return data


def _derived_seed(*words) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint32)[0])


def _mc_cfg(cfg: ExperimentConfig) -> McConfig:
    return McConfig(n_passes=cfg.n_passes, rng_seed=_derived_seed(cfg.seed, _TAG_MC))


def _train_cfg(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size,
        n_epochs=cfg.n_epochs,
        rng_seed=seed,
        hidden_dims=tuple(cfg.hidden_dims),
        keep_prob=cfg.keep_prob,
        input_norm=cfg.input_norm,
    )


def _write_rows(path, header, rows, comment: str = "") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with publish(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------- synth

def run_synth(cfg: ExperimentConfig, manifest_path=None) -> Path:
    if manifest_path is not None:
        manifest = load_manifest(manifest_path)
    else:
        manifest = default_manifest(
            seed=cfg.seed, n_train=cfg.n_train, n_val=cfg.n_val,
            n_test=cfg.n_test, duration_s=cfg.duration_s)
    return build_dataset(manifest, cfg.corpus_dir)


# ---------------------------------------------------------------- train

def bank_labels(manifest: DatasetManifest) -> list:
    """Train-set noise names in preset registry order; fixes the class
    index every component agrees on."""
    train_noises = {e.noise for e in manifest.entries if e.split == "train"}
    return [name for name in NOISE_PRESETS if name in train_noises]


def _concat_frames(corpus_dir, entries) -> tuple[np.ndarray, np.ndarray]:
    noisy, clean = [], []
    for e in entries:
        nm, cm = load_entry_frames(corpus_dir, e)
        noisy.append(nm)
        clean.append(cm)
    return np.concatenate(noisy), np.concatenate(clean)


def run_train(cfg: ExperimentConfig, scope: str) -> list:
    """Train one scope; returns the written model paths. Every scope but
    single then writes bank.json, once every expert file exists."""
    if scope not in ("single", "per-noise", "classifier", "all"):
        raise InvalidConfig(f"unknown train scope {scope!r}")
    manifest = open_dataset(cfg.corpus_dir)
    labels = bank_labels(manifest)
    if not labels:
        raise EmptyDataset("the corpus has no train entries")
    models_dir = Path(cfg.models_dir)
    models_dir.mkdir(parents=True, exist_ok=True)
    written = []
    trained = {}

    def save(name, result) -> None:
        trained[name], losses = result
        save_model(trained[name], models_dir / f"{name}.model")
        _write_rows(Path(cfg.reports_dir) / f"loss_{name}.csv", ["epoch", "loss"],
                    [(epoch, _fmt(loss)) for epoch, loss in enumerate(losses)],
                    comment="epoch 0 is the pre-training loss (deterministic pass)")
        written.append(models_dir / f"{name}.model")

    if scope in ("single", "all"):
        noisy, clean = _concat_frames(cfg.corpus_dir, entries_for(manifest, "train"))
        save("single", train_regressor(
            noisy, clean, _train_cfg(cfg, _derived_seed(cfg.seed, _TAG_SINGLE)),
            noise_label="all"))

    experts = scope in ("per-noise", "all")
    classify = scope in ("classifier", "all")
    if experts or classify:
        # One read of each label's entries feeds its expert and the
        # classifier's block for that label.
        noisy_blocks, label_blocks = [], []
        for j, label in enumerate(labels):
            noisy, clean = _concat_frames(cfg.corpus_dir,
                                          entries_for(manifest, "train", noise=label))
            if experts:
                save(f"expert_{label}", train_regressor(
                    noisy, clean, _train_cfg(cfg, _derived_seed(cfg.seed, _TAG_EXPERT, j)),
                    noise_label=label))
            if classify:
                noisy_blocks.append(noisy)
                label_blocks.append(np.full(noisy.shape[0], j, dtype=np.int64))
        if classify:
            save("classifier", train_classifier(
                np.concatenate(noisy_blocks), np.concatenate(label_blocks),
                _train_cfg(cfg, _derived_seed(cfg.seed, _TAG_CLASSIFIER)),
                n_classes=len(labels), noise_label="classifier"))

    # Every model file is on disk by now, so only bank.json is written. It
    # needs each expert's keep probability: the trained model's, else the
    # one in its file header, so no model is reloaded.
    expert_files = [models_dir / f"expert_{label}.model" for label in labels]
    if scope != "single" and all(p.exists() for p in expert_files):
        keep_probs = [trained[p.stem].keep_prob if p.stem in trained
                      else read_model_header(p)["keep_prob"] for p in expert_files]
        write_bank_manifest(labels, keep_probs,
                            (models_dir / "classifier.model").exists(), models_dir)
    return written


# ------------------------------------------------------ enhance, evaluate

def resolve_mu(cfg: ExperimentConfig, mu: float | None = None) -> float:
    """Explicit value, else the validation-selected one, else the default."""
    if mu is not None:
        _check_field("mu", mu)
        return mu
    mu_star_path = Path(cfg.reports_dir) / "mu_star.json"
    if not mu_star_path.exists():
        return cfg.mu
    try:
        value = json.loads(mu_star_path.read_text())["mu_star"]
    except (ValueError, KeyError, TypeError) as exc:  # bad JSON or UTF-8, wrong shape
        raise InvalidConfig(f"{mu_star_path}: {exc}") from exc
    test, what = _FIELD_CHECKS["mu"]
    if not test(value):
        raise InvalidConfig(f"{mu_star_path}: mu_star must be {what}, got {value!r}")
    return float(value)


@dataclass
class PolicyModels:
    """Everything a set of policy names reads, loaded once: the single
    model (both single policies decode it), the bank, mu-mc's threshold
    and the MC config."""

    mc: McConfig
    mu: float
    single: MlpModel | None = None
    bank: ModelBank | None = None

    def enhance(self, name: str, mag: np.ndarray, outputs: BankOutputs | None = None):
        """Enhanced magnitude frames under one policy, and the bank's
        decisions (None for the single-model policies). Bank policies route
        over `outputs`, this utterance's BankOutputs, made here if absent;
        the single policies ignore it."""
        if name == "single-conv":
            return predict(self.single, mag), None
        if name == "single-mc":
            return mc_spectral_stats(self.single, mag,
                                     mc_for_model(self.single, self.mc)).means, None
        outputs = outputs or BankOutputs(self.bank, mag, self.mc)
        return select_frames(outputs, SelectionPolicy(PolicyKind(name), mu=self.mu))


def load_policy_models(cfg: ExperimentConfig, names, mu: float | None = None) -> PolicyModels:
    """Check the policy names and load what they read, so every config and
    model-file error comes before any work."""
    _check_field("policies", tuple(names))
    names = set(names)
    # An explicit mu is checked even when no policy reads it.
    resolve = "mu-mc" in names or mu is not None
    models = PolicyModels(mc=_mc_cfg(cfg), mu=resolve_mu(cfg, mu) if resolve else cfg.mu)
    if names & set(BANK_POLICIES):
        models.bank = load_bank(cfg.models_dir)
        validate_bank(models.bank,
                      need_classifier=bool(names & {"class-conv", "class-mc", "mu-mc"}))
    if names & {"single-conv", "single-mc"}:
        path = Path(cfg.models_dir) / "single.model"
        if not path.exists():
            raise MissingModels(f"no single-model file at {path}")
        models.single = load_model(path)
    return models


def run_enhance(
    cfg: ExperimentConfig,
    policy_name: str,
    in_path,
    out_path,
    mu: float | None = None,
    decisions_path=None,
) -> Path:
    """Enhance one WAV under any of the six policies."""
    models = load_policy_models(cfg, [policy_name], mu)
    frame = FrameConfig()
    frames = stft(read_wav(in_path), frame)
    est, decisions = models.enhance(policy_name, frames.magnitude)
    out_path = Path(out_path)
    if decisions is not None:
        decisions_to_csv(decisions, models.bank.labels,
                         decisions_path or out_path.with_suffix(".decisions.csv"))
    write_wav(out_path, istft_overlap_add(est, frames.phase, frame))
    return out_path


def _read_split(cfg: ExperimentConfig, manifest: DatasetManifest, split: str,
                bank: ModelBank | None, mc: McConfig) -> list:
    """A split's (noise, snr_db) conditions in order of first appearance,
    as (condition, entries, reader). Iterating a reader loads, per entry,
    (entry, clean Signal, noisy SpectralFrames, clean magnitudes,
    BankOutputs or None without a bank); a condition never read costs
    nothing."""
    def read(entries):
        for e in entries:
            clean_sig, noisy_sig = load_entry_signals(cfg.corpus_dir, e)
            frames = stft(noisy_sig, manifest.frame)
            outputs = BankOutputs(bank, frames.magnitude, mc) if bank else None
            yield e, clean_sig, frames, stft(clean_sig, manifest.frame).magnitude, outputs

    groups = {}
    for e in entries_for(manifest, split):
        groups.setdefault((e.noise, e.snr_db), []).append(e)
    return [(condition, entries, read(entries)) for condition, entries in groups.items()]


def _summary_key(cfg: ExperimentConfig, manifest: DatasetManifest, split: str,
                 bank: ModelBank, mc: McConfig) -> bytes | None:
    """The split's sweep-summary key, or None when a file it digests cannot
    be read; the sweep then reports that file as it always did."""
    try:
        return summary_key(bank, mc, manifest, cfg.corpus_dir, split)
    except OSError:
        return None


def _load_split_summary(cfg: ExperimentConfig, manifest: DatasetManifest, split: str,
                        bank: ModelBank, mc: McConfig) -> tuple[bytes | None, dict | None]:
    """The split's summary key, and its (se, traces, posteriors) rows by
    entry id when the summary on disk holds that key (None on a miss)."""
    key = _summary_key(cfg, manifest, split, bank, mc)
    rows = load_summary(summary_path(cfg.reports_dir, split), key) if key else None
    entries = entries_for(manifest, split)
    if rows is None or len(rows) != len(entries):
        return key, None
    return key, {entry_id(e): row for e, row in zip(entries, rows)}


def _publish_summary(cfg: ExperimentConfig, manifest: DatasetManifest, split: str,
                     key: bytes | None, bank: ModelBank, by_entry: dict) -> None:
    """Write the split's summary. It only saves later verbs their sweeps,
    so when its inputs or its file cannot be read or written the verb goes
    on without it."""
    if key is None:
        return
    try:
        write_summary(summary_path(cfg.reports_dir, split), key, len(bank.models),
                      [by_entry[entry_id(e)] for e in entries_for(manifest, split)])
    except OSError:
        pass


def run_evaluate(cfg: ExperimentConfig, mu: float | None = None, split: str = "test") -> list:
    """Mean SSE and SSNR per (noise, SNR, policy) for each of cfg.policies;
    writes eval.csv.

    When the policies read every expert's traces and the classifier
    posteriors (mu-mc, or var-mc with a class policy), also publishes the
    split's sweep summary from what they swept, for correlate and sweep.
    Returns dict rows so callers can assert on them directly.
    """
    policies = cfg.policies
    manifest = open_dataset(cfg.corpus_dir)
    frame = manifest.frame
    models = load_policy_models(cfg, policies, mu)
    reads_all = "mu-mc" in policies or (
        "var-mc" in policies and bool({"class-conv", "class-mc"} & set(policies)))
    summarized = {} if reads_all else None

    rows = []
    for (noise, snr_db), entries, read in _read_split(cfg, manifest, split,
                                                      models.bank, models.mc):
        sse_acc = {p: [] for p in policies}
        ssnr_acc = {p: [] for p in policies}
        for e, clean_sig, frames, clean_mag, outputs in read:
            for p in policies:
                est, _ = models.enhance(p, frames.magnitude, outputs)
                total, _ = sse(clean_mag, est)
                est_sig = istft_overlap_add(est, frames.phase, frame)
                clean_cut = Signal(samples=clean_sig.samples[:len(est_sig)],
                                   sample_rate_hz=clean_sig.sample_rate_hz)
                sse_acc[p].append(total)
                ssnr_acc[p].append(ssnr(clean_cut, est_sig, frame))
            if summarized is not None:  # every number it reads is already kept
                summarized[entry_id(e)] = summarize(outputs, clean_mag)
        for p in policies:
            rows.append({
                "condition": noise,
                "snr_db": snr_db,
                "policy": p,
                "sse": float(np.mean(sse_acc[p])),
                "ssnr_db": float(np.mean(ssnr_acc[p])),
                "tag": entries[0].condition,  # a function of the noise
                "n_files": len(entries),
            })

    csv_rows = [(r["condition"], r["snr_db"], r["policy"],
                 _fmt(r["sse"]), _fmt(r["ssnr_db"])) for r in rows]
    _write_rows(Path(cfg.reports_dir) / "eval.csv",
                ["condition", "snr_db", "policy", "sse", "ssnr"], csv_rows,
                comment="sse: mean over files of per-file totals on magnitude "
                        "frames; ssnr: mean over files, dB")
    if summarized is not None:
        _publish_summary(cfg, manifest, split,
                         _summary_key(cfg, manifest, split, models.bank, models.mc),
                         models.bank, summarized)
    return rows


# ------------------------------------------------------------ correlate

def _expert_stats(j: int, entries, read, summarized: dict | None):
    """(entry, per-frame squared error, traces) of expert j over one
    condition's entries: read from the split's summary on a hit, else
    one sweep of expert j per entry."""
    if summarized is not None:
        for e in entries:
            se, traces, _ = summarized[entry_id(e)]
            yield e, se[j], traces[j]
        return
    for e, _, _, clean_mag, outputs in read:
        means, trace = outputs.mc_stats(j)
        yield e, sse(clean_mag, means)[1], trace


def run_correlate(cfg: ExperimentConfig, split: str = "test") -> list:
    """Pearson r between per-frame squared error and trace variance for
    the matched expert on every seen condition; writes correlation.csv
    and the per-frame scatter.csv. Reads the split's sweep summary when
    its key matches."""
    manifest = open_dataset(cfg.corpus_dir)
    bank = load_bank(cfg.models_dir)
    mc = _mc_cfg(cfg)
    _, summarized = _load_split_summary(cfg, manifest, split, bank, mc)

    rows = []
    scatter = []
    for (noise, snr_db), entries, read in _read_split(cfg, manifest, split, bank, mc):
        if noise not in bank.labels:
            continue
        j = bank.labels.index(noise)
        ses, traces = [], []
        for e, per_frame, trace in _expert_stats(j, entries, read, summarized):
            ses.append(per_frame)
            traces.append(trace)
            for i in range(per_frame.size):
                scatter.append((noise, snr_db, entry_id(e), i,
                                _fmt(per_frame[i]), _fmt(trace[i])))
        se_all = np.concatenate(ses)
        tv_all = np.concatenate(traces)
        r = variance_error_correlation(se_all, tv_all)
        rows.append({"model": noise, "snr_db": snr_db,
                     "pearson_r": r, "n_frames": int(se_all.size)})

    csv_rows = [(r["model"], r["snr_db"], _fmt(r["pearson_r"]), r["n_frames"])
                for r in rows]
    _write_rows(Path(cfg.reports_dir) / "correlation.csv",
                ["model", "snr_db", "pearson_r", "n_frames"], csv_rows)
    _write_rows(Path(cfg.reports_dir) / "scatter.csv",
                ["model", "snr_db", "entry", "frame_index", "se", "trace_var"],
                scatter)
    return rows


# ---------------------------------------------------------------- sweep

def run_sweep(cfg: ExperimentConfig, split: str = "test") -> tuple[list, float | None]:
    """Threshold sweep of cfg.mu_grid over one split; on the val split
    also selects and records mu_star (smallest threshold that keeps every
    trained-noise condition within MU_GUARDRAIL of the largest-mu
    column). Reads the split's sweep summary when its key matches, else
    sweeps the split and publishes it."""
    grid = np.asarray(cfg.mu_grid, dtype=np.float64)
    manifest = open_dataset(cfg.corpus_dir)
    bank = load_bank(cfg.models_dir)
    entries = entries_for(manifest, split)
    if not entries:
        raise EmptyDataset(f"no entries in split {split!r}")

    mc = _mc_cfg(cfg)
    key, summarized = _load_split_summary(cfg, manifest, split, bank, mc)
    swept = summarized is None
    if swept:
        summarized = {entry_id(e): summarize(outputs, clean_mag)
                      for _, _, read in _read_split(cfg, manifest, split, bank, mc)
                      for e, _, _, clean_mag, outputs in read}
    rows = threshold_sweep(
        ((f"{e.noise}_snr{e.snr_db:+d}", *summarized[entry_id(e)]) for e in entries), grid)
    name = "sweep.csv" if split == "test" else f"sweep_{split}.csv"
    _write_rows(Path(cfg.reports_dir) / name,
                ["mu", "condition", "sse"],
                [(_fmt(mu), cond, _fmt(val)) for mu, cond, val in rows],
                comment="sse: mean over files of per-file totals on magnitude frames")

    mu_star = None
    if split == "val":
        mu_star = _select_mu_star(rows, grid, bank.labels)
        with publish(Path(cfg.reports_dir) / "mu_star.json", "w") as fh:
            fh.write(json.dumps({"mu_star": mu_star, "grid": grid.tolist()}, indent=2) + "\n")
    if swept:
        _publish_summary(cfg, manifest, split, key, bank, summarized)
    return rows, mu_star


def _select_mu_star(rows, grid, trained_labels) -> float:
    """Smallest mu whose SSE on conditions the bank has an expert for
    stays within MU_GUARDRAIL of the largest-mu column (the classifier
    limit). Lower thresholds route more frames by variance, which is
    where any gain on unfamiliar noise lives, so the cheapest threshold
    that does not give up known ground wins. The largest mu always
    qualifies; with no trained-noise condition in the split every mu
    does, and the sweep returns the smallest grid value."""
    by_mu = {}
    ref = {}
    for mu, cond, val in rows:
        by_mu.setdefault(mu, {})[cond] = val
        if mu == grid[-1]:
            ref[cond] = max(val, 1e-30)
    trained = [c for c in ref
               if c.rsplit("_snr", 1)[0] in set(trained_labels)]
    for mu in grid:
        cells = by_mu[float(mu)]
        if all(cells[c] / ref[c] <= MU_GUARDRAIL for c in trained):
            return float(mu)
    return float(grid[-1])
