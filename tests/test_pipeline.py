"""Config plumbing, mu resolution, report helpers, the package export
table, which work each report verb does, the one model both single
policies read, and enhance's output geometry."""

import hashlib
import json
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import mcenhance
from conftest import MINI, random_model
from mcenhance import mcdrop, metrics, neural, pipeline, selection
from mcenhance.corpus import (
    NOISE_PRESETS,
    SEEN_NOISES,
    default_manifest,
    entries_for,
    entry_id,
    open_dataset,
)
from mcenhance.dsp import FrameConfig, Signal, read_wav, write_wav
from mcenhance.errors import InvalidConfig, MissingModels
from mcenhance.mcdrop import McConfig
from mcenhance.neural import forward, load_model
from mcenhance.pipeline import (
    BANK_POLICIES,
    DEFAULT_MU_GRID,
    POLICY_NAMES,
    ExperimentConfig,
    PolicyModels,
    _select_mu_star,
    _write_rows,
    bank_labels,
    load_config_file,
    load_policy_models,
    make_config,
    resolve_mu,
    run_correlate,
    run_enhance,
    run_evaluate,
    run_sweep,
)
from mcenhance.selection import BankOutputs, ModelBank, load_bank


def test_make_config_defaults():
    cfg = make_config()
    assert cfg == ExperimentConfig()
    assert cfg.policies == POLICY_NAMES
    assert cfg.mu_grid == DEFAULT_MU_GRID
    assert cfg.n_passes == 50


def test_make_config_rejects_unknown_keys():
    with pytest.raises(InvalidConfig, match="config file"):
        make_config({"n_epoch": 3})
    with pytest.raises(InvalidConfig, match="flags"):
        make_config(None, {"pases": 10})


def test_make_config_precedence_and_none_skipping():
    cfg = make_config({"seed": 5, "mu": 0.3}, {"seed": 9, "mu": None})
    assert cfg.seed == 9
    assert cfg.mu == 0.3


def test_make_config_accepts_the_defaults_as_json():
    defaults = {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(ExperimentConfig()).items()}
    assert make_config(json.loads(json.dumps(defaults))) == ExperimentConfig()
    assert make_config(json.loads(json.dumps(MINI))) == ExperimentConfig(**MINI)


def test_make_config_tuples_sequence_fields():
    cfg = make_config({"mu_grid": [0.0, 1.0], "hidden_dims": [8, 8],
                       "policies": ["var-mc"]})
    assert cfg.mu_grid == (0.0, 1.0)
    assert cfg.hidden_dims == (8, 8)
    assert cfg.policies == ("var-mc",)


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    with pytest.raises(InvalidConfig):
        load_config_file(path)
    path.write_text("not json")
    with pytest.raises(InvalidConfig):
        load_config_file(path)
    path.write_text("[1, 2]")
    with pytest.raises(InvalidConfig, match="JSON object"):
        load_config_file(path)
    path.write_text(json.dumps({"seed": 3}))
    assert load_config_file(path) == {"seed": 3}


def test_resolve_mu_precedence(tmp_path):
    cfg = ExperimentConfig(reports_dir=tmp_path, mu=0.16)
    assert resolve_mu(cfg) == 0.16
    (tmp_path / "mu_star.json").write_text(json.dumps({"mu_star": 0.08}))
    assert resolve_mu(cfg) == 0.08
    assert resolve_mu(cfg, mu=0.5) == 0.5


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1.0, -1e-9])
def test_resolve_mu_checks_an_explicit_value(tmp_path, mu):
    cfg = ExperimentConfig(reports_dir=str(tmp_path))
    with pytest.raises(InvalidConfig, match="mu must be"):
        resolve_mu(cfg, mu=mu)


def test_select_mu_star_smallest_within_guardrail():
    grid = (0.0, 0.16, 1e9)
    rows = []
    # Variance routing hurts the trained condition badly at 0, mildly at
    # 0.16; the first threshold inside the guardrail wins.
    for mu, a, b in ((0.0, 2.0, 0.8), (0.16, 1.03, 0.9), (1e9, 1.0, 1.0)):
        rows.append((mu, "pink_snr+0", a))
        rows.append((mu, "mix_snr-10", b))
    assert _select_mu_star(rows, grid, ["pink"]) == 0.16


def test_select_mu_star_ignores_unfamiliar_conditions():
    grid = (0.0, 0.16, 1e9)
    rows = []
    # The unfamiliar condition degrades at low mu, but only trained
    # conditions hold the guardrail.
    for mu, a, b in ((0.0, 1.0, 3.0), (0.16, 1.0, 2.0), (1e9, 1.0, 1.0)):
        rows.append((mu, "pink_snr+0", a))
        rows.append((mu, "mix_snr-10", b))
    assert _select_mu_star(rows, grid, ["pink"]) == 0.0


def test_select_mu_star_falls_back_to_classifier():
    grid = (0.0, 0.16, 1e9)
    rows = []
    for mu, a in ((0.0, 1.5), (0.16, 1.2), (1e9, 1.0)):
        rows.append((mu, "pink_snr+0", a))
    assert _select_mu_star(rows, grid, ["pink"]) == 1e9


def test_select_mu_star_without_trained_conditions():
    grid = (0.16, 1e9)
    rows = [(0.16, "mix_snr-10", 5.0), (1e9, "mix_snr-10", 1.0)]
    assert _select_mu_star(rows, grid, ["pink"]) == 0.16


def test_bank_labels_registry_order():
    manifest = default_manifest(seed=1, n_train=2, n_val=1, n_test=1,
                                duration_s=1.0)
    assert bank_labels(manifest) == list(SEEN_NOISES)

    # Order follows the preset registry even if entries arrive shuffled.
    keep = {"babble_proxy", "pink_broadband"}
    manifest.entries = [e for e in manifest.entries
                        if e.split != "train" or e.noise in keep]
    labels = bank_labels(manifest)
    registry = list(NOISE_PRESETS)
    assert labels == sorted(keep, key=registry.index)


def test_write_rows_comment_and_atomicity(tmp_path):
    out = tmp_path / "sub" / "table.csv"
    _write_rows(out, ["x", "y"], [(1, 2), (3, 4)], comment="note")
    text = out.read_text().splitlines()
    assert text[0] == "# note"
    assert text[1] == "x,y"
    assert text[2] == "1,2"
    assert not list(out.parent.glob("*.tmp"))


def test_every_export_resolves():
    for name in mcenhance.__all__:
        if name != "__version__":
            assert mcenhance.__getattr__(name) is not None, name


def test_class_conv_evaluate_runs_no_mc_sweep(mini_system, tmp_path, monkeypatch):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    full = [r for r in run_evaluate(cfg) if r["policy"] == "class-conv"]

    calls = []
    original = mcdrop.mc_spectral_stats

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (mcdrop, selection, pipeline):
        monkeypatch.setattr(module, "mc_spectral_stats", counted)
    rows = run_evaluate(replace(cfg, policies=["class-conv"]))
    assert calls == []
    assert rows == full
    run_evaluate(replace(cfg, policies=["var-mc"]))
    assert calls  # the counter does see the sweeps


def test_evaluate_on_a_bank_without_classifier(mini_system, tmp_path):
    models = tmp_path / "models"
    shutil.copytree(mini_system.models_dir, models)
    (models / "classifier.model").unlink()
    manifest = json.loads((models / "bank.json").read_text())
    manifest["classifier_file"] = None
    (models / "bank.json").write_text(json.dumps(manifest))
    cfg = replace(mini_system, models_dir=str(models), reports_dir=str(tmp_path))
    assert [r["policy"] for r in run_evaluate(replace(cfg, policies=["var-mc"]))]
    for policy in ("class-conv", "class-mc", "mu-mc"):
        with pytest.raises(MissingModels):
            run_evaluate(replace(cfg, policies=[policy]))


def _record_sweeps(monkeypatch) -> dict:
    """Every MC sweep from here on, as frames digest -> (frames, models)."""
    sweeps = {}
    original = mcdrop.mc_spectral_stats

    def counted(model, frames, cfg, **kwargs):
        key = hashlib.md5(np.ascontiguousarray(frames).tobytes()).hexdigest()
        sweeps.setdefault(key, (frames, []))[1].append(model)
        return original(model, frames, cfg, **kwargs)

    for module in (mcdrop, selection, pipeline):
        monkeypatch.setattr(module, "mc_spectral_stats", counted)
    return sweeps


def test_evaluate_sweeps_each_read_expert_once_per_entry(mini_system, tmp_path, monkeypatch):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    bank = load_bank(cfg.models_dir)
    n_entries = len(entries_for(open_dataset(cfg.corpus_dir), "test"))
    sweeps = _record_sweeps(monkeypatch)

    run_evaluate(cfg)  # all six policies: the single model plus every expert
    assert len(sweeps) == n_entries
    for _, models in sweeps.values():
        assert len(models) == len({id(m) for m in models}) == 1 + len(bank.models)

    sweeps.clear()
    run_evaluate(replace(cfg, policies=["class-mc"]))  # only the experts some frame chooses
    assert len(sweeps) == n_entries
    for frames, models in sweeps.values():
        chosen = np.unique(np.argmax(forward(bank.classifier, frames)[0], axis=1))
        assert len(models) == len(chosen)
        assert sorted(m.noise_label for m in models) == sorted(bank.labels[j] for j in chosen)

    sweeps.clear()
    run_evaluate(replace(cfg, policies=["class-conv"]))
    assert sweeps == {}


def _count_mask_draws(monkeypatch) -> list:
    draws = []
    original = neural.dropout_mask

    def counted(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(neural, "dropout_mask", counted)
    return draws


@pytest.mark.parametrize("n_models", [1, 2, 5])
def test_one_utterance_draws_each_mask_once_whatever_the_bank_size(monkeypatch, n_models):
    rng = np.random.default_rng(40 + n_models)
    dims = (9, 12, 12, 12, 9)  # L = 3 dropout layers
    bank = ModelBank(
        models=[random_model(rng, dims) for _ in range(n_models)],
        labels=[f"noise_{j}" for j in range(n_models)],
        classifier=random_model(rng, (9, 10, n_models), output_activation="softmax"))
    models = PolicyModels(mc=McConfig(n_passes=7, rng_seed=5), mu=0.5,
                          single=random_model(rng, dims), bank=bank)
    mag = rng.uniform(0.0, 2.0, size=(10, 9))
    draws = _count_mask_draws(monkeypatch)
    outputs = BankOutputs(bank, mag, models.mc)
    for name in POLICY_NAMES:  # as run_evaluate routes one entry
        models.enhance(name, mag, outputs)
    assert len(draws) == len(set(draws)) == 7 * 3


def test_evaluate_draws_each_mask_once_per_entry(mini_system, tmp_path, monkeypatch):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    n_entries = len(entries_for(open_dataset(cfg.corpus_dir), "test"))
    draws = _count_mask_draws(monkeypatch)
    run_evaluate(cfg)  # single-mc plus every expert on every entry
    assert len(draws) == n_entries * cfg.n_passes * len(cfg.hidden_dims)


def test_sweep_runs_every_expert_and_one_classifier_forward_per_entry(
        mini_system, tmp_path, monkeypatch):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    bank = load_bank(cfg.models_dir)
    n_entries = len(entries_for(open_dataset(cfg.corpus_dir), "test"))
    sweeps = _record_sweeps(monkeypatch)
    classifier_rows = []
    original = selection.forward

    def counted(model, x, *args, **kwargs):
        if model.noise_label == "classifier":
            classifier_rows.append(len(x))
        return original(model, x, *args, **kwargs)

    for module in (selection, metrics):
        monkeypatch.setattr(module, "forward", counted, raising=False)
    run_sweep(cfg, "test")
    assert len(sweeps) == len(classifier_rows) == n_entries
    for frames, models in sweeps.values():
        assert sorted(m.noise_label for m in models) == sorted(bank.labels)
    assert sorted(classifier_rows) == sorted(len(frames) for frames, _ in sweeps.values())


def test_correlate_sweeps_the_matched_expert_once_and_reads_only_matched_entries(
        mini_system, tmp_path, monkeypatch):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    bank = load_bank(cfg.models_dir)
    entries = entries_for(open_dataset(cfg.corpus_dir), "test")
    matched = [entry_id(e) for e in entries if e.noise in bank.labels]
    assert 0 < len(matched) < len(entries)  # the split holds unseen noises too
    sweeps = _record_sweeps(monkeypatch)
    read = []
    original = pipeline.load_entry_signals

    def recorded(corpus_dir, entry):
        read.append(entry)
        return original(corpus_dir, entry)

    monkeypatch.setattr(pipeline, "load_entry_signals", recorded)
    run_correlate(cfg)
    assert sorted(entry_id(e) for e in read) == sorted(matched)
    assert len(sweeps) == len(matched)
    for frames, models in sweeps.values():
        assert len(models) == 1
    assert sorted(models[0].noise_label for _, models in sweeps.values()) == \
        sorted(e.noise for e in read)


def test_both_single_policies_read_single_model_past_a_leftover_baseline(mini_system, tmp_path):
    models_dir = tmp_path / "models"
    shutil.copytree(mini_system.models_dir, models_dir)
    # A same-shape model under the name an older separate baseline used.
    shutil.copy(next(models_dir.glob("expert_*.model")), models_dir / "baseline.model")
    cfg = replace(mini_system, models_dir=str(models_dir))
    single = load_model(models_dir / "single.model")
    models = load_policy_models(cfg, ["single-conv", "single-mc"])
    mag = np.random.default_rng(12).uniform(0.0, 1.0, size=(5, FrameConfig().n_bins))
    np.testing.assert_array_equal(models.enhance("single-conv", mag)[0], forward(single, mag)[0])
    np.testing.assert_array_equal(
        models.enhance("single-mc", mag)[0],
        mcdrop.mc_spectral_stats(single, mag, mcdrop.mc_for_model(single, models.mc)).means)


def test_six_policy_evaluate_loads_the_single_model_once(mini_system, tmp_path, monkeypatch):
    loaded = []
    original = neural.load_model

    def counted(path, *args, **kwargs):
        loaded.append(Path(path).name)
        return original(path, *args, **kwargs)

    for module in (pipeline, selection):
        monkeypatch.setattr(module, "load_model", counted)
    run_evaluate(replace(mini_system, reports_dir=str(tmp_path)))
    assert loaded.count("single.model") == 1
    assert loaded.count("classifier.model") == 1


def test_enhance_every_policy_keeps_the_frame_geometry(mini_system, tmp_path):
    frame = FrameConfig()
    src = tmp_path / "in.wav"
    write_wav(src, Signal(0.05 * np.random.default_rng(10).standard_normal(16000), 16000))
    n = 1 + (16000 - frame.frame_len_samples) // frame.hop_samples
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    out = {}
    for policy in POLICY_NAMES:
        run_enhance(cfg, policy, src, tmp_path / f"{policy}.wav")
        out[policy] = read_wav(tmp_path / f"{policy}.wav").samples
        assert len(out[policy]) == (n - 1) * frame.hop_samples + frame.frame_len_samples
    for policy in BANK_POLICIES:
        assert len((tmp_path / f"{policy}.decisions.csv").read_text().splitlines()) == 1 + n
    assert not np.array_equal(out["single-conv"], out["single-mc"])


def test_enhance_mu_mc_takes_mu_star_when_no_mu_is_given(mini_system, tmp_path):
    e = entries_for(open_dataset(mini_system.corpus_dir), "val")[0]
    src = f"{mini_system.corpus_dir}/val/{entry_id(e)}/noisy.wav"
    cfg = replace(mini_system, reports_dir=str(tmp_path), mu=0.0)
    (tmp_path / "mu_star.json").write_text(json.dumps({"mu_star": 1e9}))

    def enhance(tag, mu):
        out = tmp_path / f"{tag}.wav"
        run_enhance(cfg, "mu-mc", src, out, mu=mu)
        return out.read_bytes(), out.with_suffix(".decisions.csv").read_bytes()

    resolved = enhance("resolved", None)
    assert resolved == enhance("explicit", 1e9)
    assert resolved[1] != enhance("config", cfg.mu)[1]
