"""Config plumbing, mu resolution, report helpers, the package export
table, which work each report verb does, the one model both single
policies read, enhance's output geometry, the sweep summaries the report
verbs share, and the bank step of train."""

import hashlib
import json
import shutil
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcenhance
from conftest import MINI, empty_mask_table, random_model, record_mask_draws, rows_drawn
from mcenhance import corpus, mcdrop, neural, pipeline, selection, summary
from mcenhance.corpus import (
    NOISE_PRESETS,
    SEEN_NOISES,
    default_manifest,
    entries_for,
    entry_id,
    open_dataset,
)
from mcenhance.dsp import FrameConfig, Signal, read_wav, write_wav
from mcenhance.errors import CorruptFile, InvalidConfig, MissingModels, VersionMismatch
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
    draws = record_mask_draws(monkeypatch)
    for n in (10, 6):  # the shorter utterance reads rows the first one drew
        mag = rng.uniform(0.0, 2.0, size=(n, 9))
        outputs = BankOutputs(bank, mag, models.mc)
        for name in POLICY_NAMES:  # as run_evaluate routes one entry
            models.enhance(name, mag, outputs)
    assert rows_drawn(draws) == {(5, t, l, 12, 0.8): 10 for t in range(7) for l in range(3)}
    assert len(draws) == 7 * 3


def test_evaluate_draws_each_mask_once_per_entry(mini_system, tmp_path, monkeypatch):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    sweeps = _record_sweeps(monkeypatch)
    draws = record_mask_draws(monkeypatch)
    run_evaluate(cfg)  # single-mc plus every expert on every entry
    longest = max(len(frames) for frames, _ in sweeps.values())
    widths = list(enumerate(cfg.hidden_dims))
    seed = pipeline._mc_cfg(cfg).rng_seed
    assert rows_drawn(draws) == {(seed, t, l, w, cfg.keep_prob): longest
                                 for t in range(cfg.n_passes) for l, w in widths}
    n_drawn = len(draws)
    run_evaluate(replace(cfg, reports_dir=str(tmp_path / "again")))
    assert len(draws) == n_drawn  # a second pass over the split draws nothing


def test_train_leaves_the_mask_table_empty(mini_system, tmp_path, monkeypatch):
    draws = record_mask_draws(monkeypatch)
    pipeline.run_train(replace(mini_system, models_dir=str(tmp_path)), "all")
    assert draws  # training drew its own masks, outside the table
    assert neural._KEPT_BITS.rows == {} and neural._KEPT_BITS.seed is None


def _tree_bytes(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_warm_mask_table_writes_what_a_cold_one_writes(mini_system, tmp_path, monkeypatch):
    # Evaluate's 1 s entries warm the table; enhance then reads a shorter,
    # an equal and a longer input through it.
    e = entries_for(open_dataset(mini_system.corpus_dir), "test")[0]
    inputs = [tmp_path / "short.wav", Path(f"{mini_system.corpus_dir}/test/{entry_id(e)}/noisy.wav"),
              tmp_path / "long.wav"]
    rng = np.random.default_rng(44)
    for path, n in ((inputs[0], 8000), (inputs[2], 24000)):
        write_wav(path, Signal(0.05 * rng.standard_normal(n), 16000))

    def run(out: Path, cold: bool) -> dict:
        empty_mask_table(monkeypatch)
        run_evaluate(replace(mini_system, reports_dir=str(out)))
        for i, src in enumerate(inputs):
            for policy in POLICY_NAMES:
                if cold:
                    empty_mask_table(monkeypatch)
                run_enhance(replace(mini_system, reports_dir=str(out)), policy, src,
                            out / f"{i}-{policy}.wav")
        return _tree_bytes(out)

    cold = run(tmp_path / "cold", cold=True)
    assert len(cold) > 3 * len(POLICY_NAMES)
    assert run(tmp_path / "warm", cold=False) == cold


def test_sweep_runs_every_expert_and_one_classifier_predict_per_entry(
        mini_system, tmp_path, monkeypatch):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    bank = load_bank(cfg.models_dir)
    n_entries = len(entries_for(open_dataset(cfg.corpus_dir), "test"))
    sweeps = _record_sweeps(monkeypatch)
    classifier_rows = []
    original = selection.predict

    def counted(model, x):
        if model.noise_label == "classifier":
            classifier_rows.append(len(x))
        return original(model, x)

    monkeypatch.setattr(selection, "predict", counted)
    run_sweep(cfg, "test")
    assert len(sweeps) == len(classifier_rows) == n_entries
    for frames, models in sweeps.values():
        assert sorted(m.noise_label for m in models) == sorted(bank.labels)
    assert sorted(classifier_rows) == sorted(len(frames) for frames, _ in sweeps.values())


def test_only_training_builds_a_forward_cache(mini_system, tmp_path, monkeypatch):
    built = []
    original = neural.ForwardCache

    def counted(*args, **kwargs):
        built.append(kwargs["y"].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(neural, "ForwardCache", counted)
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    e = entries_for(open_dataset(cfg.corpus_dir), "test")[0]
    noisy = f"{cfg.corpus_dir}/test/{entry_id(e)}/noisy.wav"
    run_sweep(cfg, "val")
    run_evaluate(cfg)
    run_sweep(cfg, "test")
    for policy in POLICY_NAMES:
        run_enhance(cfg, policy, noisy, tmp_path / f"{policy}.wav")
    assert built == []

    rng = np.random.default_rng(52)
    clean = rng.uniform(0.0, 2.0, size=(70, 6))
    train_cfg = neural.TrainConfig(n_epochs=2, batch_size=32, hidden_dims=(8, 8))
    neural.train_regressor(clean + 0.1, clean, train_cfg)
    assert built == [32, 32, 6] * 2  # one per minibatch step, none for the first loss


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


def test_train_all_writes_each_model_once_and_reads_each_train_cache_at_most_twice(
        mini_system, tmp_path, monkeypatch):
    saved, read = [], []

    def counted(log, original):
        def wrapper(*args):
            log.append(Path(args[-1]))
            return original(*args)
        return wrapper

    monkeypatch.setattr(pipeline, "save_model", counted(saved, neural.save_model))
    monkeypatch.setattr(corpus, "read_cache", counted(read, corpus.read_cache))
    cfg = replace(mini_system, models_dir=str(tmp_path / "models"),
                  reports_dir=str(tmp_path / "reports"))
    pipeline.run_train(cfg, "all")

    model_files = sorted((tmp_path / "models").glob("*.model"))
    assert len(model_files) == len(bank_labels(open_dataset(cfg.corpus_dir))) + 2
    assert sorted(saved) == model_files
    train_caches = sorted(Path(cfg.corpus_dir).glob("train/*/frames.mcfr"))
    counts = Counter(read)
    assert sorted(counts) == train_caches and max(counts.values()) <= 2
    # The same bytes as the shared mini system, trained by the same config.
    for path in [*model_files, tmp_path / "models" / "bank.json"]:
        assert path.read_bytes() == (Path(mini_system.models_dir) / path.name).read_bytes()


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


# ------------------------------------------------------ sweep summaries

REPORTS = ("correlation.csv", "scatter.csv", "sweep.csv")


def _report_bytes(reports_dir) -> dict:
    return {name: (Path(reports_dir) / name).read_bytes() for name in REPORTS}


@pytest.fixture(scope="module")
def swept_reports(mini_system, tmp_path_factory):
    """The report chain with no summary on disk when correlate and sweep
    run (evaluate reads only the class policies), so both sweep: the bytes
    every summary hit must reproduce."""
    reports = tmp_path_factory.mktemp("miss_reports")
    cfg = replace(mini_system, reports_dir=str(reports))
    run_evaluate(replace(cfg, policies=["class-conv", "class-mc"]))
    assert not (reports / "sweeps").exists()
    run_correlate(cfg)
    run_sweep(cfg, "test")
    return _report_bytes(reports)


def test_summary_hit_equals_miss(mini_system, tmp_path, monkeypatch, swept_reports):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    run_sweep(cfg, "val")
    run_evaluate(cfg)
    assert (tmp_path / "sweeps" / "test.mcss").exists()
    sweeps = _record_sweeps(monkeypatch)
    run_correlate(cfg)
    run_sweep(cfg, "test")
    assert sweeps == {}  # both read evaluate's summary
    hit = _report_bytes(tmp_path)
    assert hit == swept_reports

    shutil.rmtree(tmp_path / "sweeps")
    run_correlate(cfg)
    run_sweep(cfg, "test")
    assert sweeps  # a miss sweeps
    assert _report_bytes(tmp_path) == hit
    assert (tmp_path / "sweeps" / "test.mcss").exists()  # published by sweep


def test_a_version_1_summary_is_swept_again(mini_system, tmp_path, monkeypatch):
    # Version 1 summaries hold the moments of float64 passes: under
    # today's key they must be a miss, or a report would mix old numbers
    # with new ones. Doubled errors show a served file in sweep.csv.
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    run_sweep(cfg, "test")
    expected = (tmp_path / "sweep.csv").read_bytes()
    path = summary.summary_path(cfg.reports_dir, "test")
    key, rows = summary.read_summary(path)
    with monkeypatch.context() as m:
        m.setattr(summary, "SUMMARY_VERSION", 1)
        summary.write_summary(path, key, len(rows[0][0]),
                              [(2 * se, traces, posteriors) for se, traces, posteriors in rows])
    assert path.read_bytes()[4:8] == (1).to_bytes(4, "little")
    sweeps = _record_sweeps(monkeypatch)
    run_sweep(cfg, "test")
    assert sum(len(models) for _, models in sweeps.values()) > 0
    assert (tmp_path / "sweep.csv").read_bytes() == expected
    assert summary.read_summary(path)[0] == key  # republished as version 2


def test_sweep_summary_serves_another_mu_grid(mini_system, tmp_path, monkeypatch):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    run_sweep(cfg, "val")
    fresh = replace(cfg, mu_grid=(0.0, 2.0, 1e9), reports_dir=str(tmp_path / "fresh"))
    expected, _ = run_sweep(fresh, "val")
    sweeps = _record_sweeps(monkeypatch)
    assert run_sweep(replace(cfg, mu_grid=fresh.mu_grid), "val")[0] == expected
    assert sweeps == {}


def test_class_policies_alone_write_no_summary(mini_system, tmp_path, swept_reports):
    cfg = replace(mini_system, reports_dir=str(tmp_path))
    run_evaluate(replace(cfg, policies=["class-conv", "class-mc"]))
    assert not (tmp_path / "sweeps").exists()
    run_correlate(cfg)
    run_sweep(cfg, "test")
    assert _report_bytes(tmp_path) == swept_reports


def _with_changed_sample(path: Path) -> None:
    signal = read_wav(path)
    signal.samples[100] += 1 / 32768
    write_wav(path, signal)


def _bumped_model(path: Path) -> None:
    model = load_model(path)
    model.biases[-1][0] += 1e-3
    neural.save_model(model, path)


@pytest.mark.parametrize("part", ["expert-file", "classifier-file", "n_passes",
                                  "rng_seed", "frame-config", "noisy-wav"])
def test_summary_key_part_change_is_a_miss(mini_system, tmp_path, part):
    cfg = replace(mini_system, reports_dir=str(tmp_path / "reports"),
                  models_dir=str(tmp_path / "models"), corpus_dir=str(tmp_path / "corpus"))
    shutil.copytree(mini_system.models_dir, cfg.models_dir)
    shutil.copytree(mini_system.corpus_dir, cfg.corpus_dir)
    run_sweep(cfg, "test")

    def hit(manifest=None, mc=None) -> bool:
        _, rows = pipeline._load_split_summary(
            cfg, manifest or open_dataset(cfg.corpus_dir), "test",
            load_bank(cfg.models_dir), mc or pipeline._mc_cfg(cfg))
        return rows is not None

    assert hit()
    mc, manifest = pipeline._mc_cfg(cfg), open_dataset(cfg.corpus_dir)
    if part == "expert-file":
        _bumped_model(sorted(Path(cfg.models_dir).glob("expert_*.model"))[-1])
    elif part == "classifier-file":
        _bumped_model(Path(cfg.models_dir) / "classifier.model")
    elif part == "n_passes":
        mc = replace(mc, n_passes=mc.n_passes + 1)
    elif part == "rng_seed":
        mc = replace(mc, rng_seed=mc.rng_seed + 1)
    elif part == "frame-config":
        manifest = replace(manifest, frame=FrameConfig(hop_samples=128))
    else:
        e = entries_for(manifest, "test")[-1]
        _with_changed_sample(corpus.entry_dir(cfg.corpus_dir, e) / "noisy.wav")
    assert not hit(manifest, mc)


def test_summary_round_trip_is_exact(tmp_path):
    rows = _summary_rows()
    key = hashlib.sha256(b"k").digest()
    path = tmp_path / "sweeps" / "s.mcss"
    summary.write_summary(path, key, 2, rows)
    found, read = summary.read_summary(path)
    assert found == key
    _assert_rows_equal(read, rows)
    assert summary.load_summary(path, key) is not None
    assert summary.load_summary(path, hashlib.sha256(b"other").digest()) is None
    assert summary.load_summary(tmp_path / "missing.mcss", key) is None


def test_summary_key_needs_the_bank_files(mini_system):
    bank = load_bank(mini_system.models_dir)
    manifest = open_dataset(mini_system.corpus_dir)
    mc = pipeline._mc_cfg(mini_system)
    assert len(summary.summary_key(bank, mc, manifest, mini_system.corpus_dir, "test")) == 32
    with pytest.raises(ValueError):
        summary.summary_key(replace(bank, files=[]), mc, manifest, mini_system.corpus_dir, "test")


def _summary_rows() -> list:
    rng = np.random.default_rng(61)
    return [(rng.standard_normal((2, n)), rng.uniform(size=(2, n)), rng.uniform(size=(n, 2)))
            for n in (3, 0, 5)]


def _assert_rows_equal(got, expected) -> None:
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for x, y in zip(a, b):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.fixture(scope="module")
def summary_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("summary") / "s.mcss"
    summary.write_summary(path, hashlib.sha256(b"k").digest(), 2, _summary_rows())
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_summary_reader_is_total(summary_bytes, tmp_path_factory, data):
    """Any truncation or single-byte flip raises a typed error or reads
    back the written arrays, never anything else."""
    n = len(summary_bytes)
    if data.draw(st.booleans(), label="truncate"):
        bad = summary_bytes[:data.draw(st.integers(0, n - 1), label="length")]
    else:
        i = data.draw(st.integers(0, n - 1), label="index")
        flip = data.draw(st.integers(1, 255), label="xor")
        bad = summary_bytes[:i] + bytes([summary_bytes[i] ^ flip]) + summary_bytes[i + 1:]
    path = tmp_path_factory.getbasetemp() / "mutated.mcss"
    path.write_bytes(bad)
    try:
        _, rows = summary.read_summary(path)
    except (CorruptFile, VersionMismatch):
        return
    _assert_rows_equal(rows, _summary_rows())


def test_train_classifier_and_per_noise_reload_no_model(mini_system, tmp_path, monkeypatch):
    loaded = []

    def counted(path, *args, **kwargs):
        loaded.append(Path(path).name)
        return neural.load_model(path, *args, **kwargs)

    for module in (pipeline, selection):
        monkeypatch.setattr(module, "load_model", counted)
    models = tmp_path / "models"
    shutil.copytree(mini_system.models_dir, models)
    cfg = replace(mini_system, models_dir=str(models), reports_dir=str(tmp_path / "reports"))
    for scope in ("classifier", "per-noise"):
        (models / "bank.json").unlink()
        pipeline.run_train(cfg, scope)
        assert loaded == []
        # The same bank.json `train all` wrote for the same config.
        assert (models / "bank.json").read_bytes() == \
            (Path(mini_system.models_dir) / "bank.json").read_bytes()
