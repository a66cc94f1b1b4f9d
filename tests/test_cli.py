"""Command-line behaviour: exit codes, file outputs, flag plumbing."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcenhance
from conftest import random_model, zero_sample_wavs
from mcenhance import corpus, mcdrop, pipeline, selection, summary
from mcenhance.cli import main
from mcenhance.corpus import default_manifest, entries_for, entry_id, open_dataset, save_manifest
from mcenhance.neural import save_model


def _noisy_wav(cfg, split="val"):
    manifest = open_dataset(cfg.corpus_dir)
    e = entries_for(manifest, split)[0]
    return f"{cfg.corpus_dir}/{e.split}/{entry_id(e)}/noisy.wav"


@pytest.fixture()
def mini_cli(mini_system, tmp_path):
    """Flags pointing CLI calls at the shared mini system, with reports
    and a cheap pass count redirected per test."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n_passes": 4, "seed": mini_system.seed}))
    flags = ["--config", str(cfg_file),
             "--corpus-dir", str(mini_system.corpus_dir),
             "--models-dir", str(mini_system.models_dir),
             "--reports-dir", str(tmp_path / "reports")]
    return mini_system, flags, tmp_path


def _console_script_command():
    """The installed `mcenhance` executable or, in a source tree that is
    not installed, the `module:function` entry point pyproject.toml
    declares for it, run the way the generated script runs it."""
    exe = shutil.which("mcenhance")
    if exe:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mcenhance"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(Path(mcenhance.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-c", code], env


def test_console_script_help():
    cmd, env = _console_script_command()
    proc = subprocess.run([*cmd, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for verb in ("synth", "train", "enhance", "evaluate", "correlate", "sweep"):
        assert verb in proc.stdout


def test_no_verb_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_verb_and_bad_threads():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "0", "synth"])
    assert exc.value.code == 2


def test_threads_flag_sets_env(monkeypatch, tmp_path):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    rc = main(["--threads", "2", "evaluate", "--corpus-dir", str(tmp_path)])
    assert rc == 3  # no corpus there, but the caps must already be set
    import os
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["NUMEXPR_NUM_THREADS"] == "2"


def test_bad_config_exits_2(tmp_path, capsys):
    assert main(["evaluate", "--config", str(tmp_path / "none.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_epoch": 3}))
    assert main(["evaluate", "--config", str(bad)]) == 2
    assert "n_epoch" in capsys.readouterr().err


def test_non_numeric_mu_grid_exits_2(tmp_path, capsys):
    assert main(["sweep", "--corpus-dir", str(tmp_path), "--mu-grid", "a,b"]) == 2
    assert "--mu-grid" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--mu-grid", ""], ["--mu-grid="]])
def test_empty_mu_grid_exits_2_before_any_work(tmp_path, capsys, flag):
    # An empty grid is an override like any other, not an absent one: it
    # must not fall back to the config's grid and run the verb.
    rc = main(["sweep", "--corpus-dir", str(tmp_path / "corpus"),
               "--reports-dir", str(tmp_path / "reports"), *flag])
    err = capsys.readouterr().err
    assert rc == 2 and "--mu-grid" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("models_dir", 5),
    ("seed", "s"),
    ("seed", -1),
    ("n_passes", "5"),
    ("n_passes", 2.5),
    ("n_passes", 0),
    ("n_passes", True),
    ("mu", "x"),
    ("mu", -0.1),
    ("mu", 10 ** 400),
    ("mu_grid", ["a"]),
    ("mu_grid", "0,1"),
    ("mu_grid", []),
    ("mu_grid", [1.0, 0.5]),
    ("mu_grid", [0.0, float("inf")]),
    ("mu_grid", [float("nan")]),
    ("mu_grid", [-1.0, 0.0]),
    ("hidden_dims", 5),
    ("hidden_dims", "256"),
    ("hidden_dims", [16, "a"]),
    ("hidden_dims", [16, 0]),
    ("keep_prob", 1.5),
    ("keep_prob", 0.0),
    ("keep_prob", "0.5"),
    ("n_epochs", 1.5),
    ("batch_size", 0),
    ("learning_rate", 0.0),
    ("weight_decay", -1e-4),
    ("optimizer", "rmsprop"),  # not a config key: the unknown-key path
    ("input_norm", "l2"),
    ("n_train", "3"),
    ("duration_s", 0),
    ("separate_baseline", "yes"),  # not a config key: the unknown-key path
    ("policies", ["var-mc", "best"]),
    ("policies", []),
    ("policies", ["var-mc", "var-mc"]),
])
def test_bad_config_value_exits_2(tmp_path, capsys, key, value):
    # Without the check, sweep would stop on the missing corpus (exit 3)
    # or fail later with a traceback.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["sweep", "--config", str(cfg), "--corpus-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid", ["nan", "0,inf", "-1,0"])
def test_bad_mu_grid_flag_exits_2_before_any_sweep(mini_cli, capsys, monkeypatch, grid):
    _, flags, _ = mini_cli
    calls = []
    original = mcdrop.mc_spectral_stats

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (mcdrop, selection):
        monkeypatch.setattr(module, "mc_spectral_stats", counted)
    rc, err = _exit_code_and_err(capsys, ["sweep", *flags, f"--mu-grid={grid}"])
    assert rc == 2 and "mu_grid" in err
    assert calls == []


@pytest.mark.parametrize("mu", ["nan", "inf", "-1"])
def test_bad_mu_flag_exits_2_before_any_work(mini_cli, capsys, monkeypatch, mu):
    cfg, flags, tmp = mini_cli
    calls = []

    def spy(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for module in (mcdrop, selection, pipeline):
        monkeypatch.setattr(module, "mc_spectral_stats", spy("mc", mcdrop.mc_spectral_stats))
    for name in ("read_wav", "stft"):
        monkeypatch.setattr(pipeline, name, spy(name, getattr(pipeline, name)))
    for policies in ("var-mc,class-mc,mu-mc", "var-mc"):
        rc, err = _exit_code_and_err(capsys, [
            "evaluate", *flags, f"--policies={policies}", f"--mu={mu}"])
        assert rc == 2 and "mu must be" in err
    rc, err = _exit_code_and_err(capsys, [
        "enhance", *flags, "mu-mc", f"--mu={mu}", _noisy_wav(cfg), str(tmp / "out.wav")])
    assert rc == 2 and "mu must be" in err
    assert calls == []


@pytest.mark.parametrize("policies", ["var-mc,var-mc", ""])
def test_bad_policies_flag_exits_2_before_any_wav_is_read(mini_cli, capsys, monkeypatch, policies):
    _, flags, _ = mini_cli
    calls = []
    original = corpus.read_wav

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (corpus, pipeline):
        monkeypatch.setattr(module, "read_wav", counted)
    rc, err = _exit_code_and_err(capsys, ["evaluate", *flags, f"--policies={policies}"])
    assert rc == 2 and "policies must be" in err
    assert calls == []


def test_separate_baseline_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "single", "--separate-baseline", "--corpus-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--separate-baseline" in capsys.readouterr().err


def test_missing_corpus_exits_3(tmp_path):
    assert main(["evaluate", "--corpus-dir", str(tmp_path / "empty")]) == 3
    # An unknown policy is a usage error, reported before the missing corpus.
    assert main(["evaluate", "--corpus-dir", str(tmp_path / "empty"),
                 "--policies", "best"]) == 2


def test_missing_models_exits_4(mini_cli):
    cfg, flags, tmp = mini_cli
    rc = main(["enhance", *flags, "--models-dir", str(tmp / "no_models"),
               "single-conv", _noisy_wav(cfg), str(tmp / "out.wav")])
    assert rc == 4


def test_missing_input_wav_exits_3(mini_cli):
    cfg, flags, tmp = mini_cli
    rc = main(["enhance", *flags, "single-conv",
               str(tmp / "ghost.wav"), str(tmp / "out.wav")])
    assert rc == 3


def test_wav_cut_mid_sample_exits_3(mini_cli, capsys):
    cfg, flags, tmp = mini_cli
    cut = tmp / "cut.wav"
    cut.write_bytes(Path(_noisy_wav(cfg)).read_bytes()[:-1])
    out = tmp / "cut_out.wav"
    rc, err = _exit_code_and_err(capsys, ["enhance", *flags, "single-conv", str(cut), str(out)])
    assert rc == 3
    assert "cut.wav" in err
    assert not out.exists()


def test_wav_with_a_short_data_chunk_exits_3(mini_cli, capsys):
    cfg, flags, tmp = mini_cli
    short = tmp / "short.wav"
    short.write_bytes(Path(_noisy_wav(cfg)).read_bytes()[:-2])
    out = tmp / "short_out.wav"
    rc, err = _exit_code_and_err(capsys, ["enhance", *flags, "single-conv", str(short), str(out)])
    assert rc == 3
    assert "short.wav" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", [0, 1], ids=["placeholder", "empty"])
def test_wav_with_no_samples_exits_3(mini_cli, capsys, kind):
    cfg, flags, tmp = mini_cli
    wav = zero_sample_wavs(tmp)[kind]
    out = tmp / "zero_out.wav"
    rc, err = _exit_code_and_err(capsys, ["enhance", *flags, "single-conv", str(wav), str(out)])
    assert rc == 3
    assert wav.name in err
    assert not out.exists()


def test_synth_is_idempotent_and_train_single_writes(tmp_path):
    corpus = tmp_path / "corpus"
    args = ["synth", "--seed", "3", "--corpus-dir", str(corpus),
            "--n-train", "2", "--n-val", "1", "--n-test", "1",
            "--duration", "1.0"]
    assert main(args) == 0

    def digest():
        paths = sorted(corpus.rglob("*"))
        h = hashlib.md5()
        for p in paths:
            if p.is_file():
                h.update(p.read_bytes())
        return h.hexdigest()

    first = digest()
    assert main(args) == 0
    assert digest() == first

    cfg_file = tmp_path / "t.json"
    cfg_file.write_text(json.dumps({"hidden_dims": [16, 16, 16]}))
    rc = main(["train", "--config", str(cfg_file), "--corpus-dir", str(corpus),
               "--models-dir", str(tmp_path / "models"),
               "--reports-dir", str(tmp_path / "reports"),
               "--epochs", "1", "single"])
    assert rc == 0
    assert (tmp_path / "models" / "single.model").exists()
    loss_lines = (tmp_path / "reports" / "loss_single.csv").read_text().splitlines()
    # comment, header, epoch 0 (pre-training), epoch 1
    assert len(loss_lines) == 4


def test_enhance_policies_write_wavs_and_decisions(mini_cli):
    cfg, flags, tmp = mini_cli
    noisy = _noisy_wav(cfg)

    out = tmp / "conv.wav"
    assert main(["enhance", *flags, "single-conv", noisy, str(out)]) == 0
    assert out.exists()

    out = tmp / "var.wav"
    assert main(["enhance", *flags, "var-mc", noisy, str(out)]) == 0
    decisions = tmp / "var.decisions.csv"
    assert decisions.exists()
    header = decisions.read_text().splitlines()
    assert "frame_index" in header[0] + header[1]

    out = tmp / "mu.wav"
    custom = tmp / "routes.csv"
    rc = main(["enhance", *flags, "--mu", "0.16", "--decisions", str(custom),
               "mu-mc", noisy, str(out)])
    assert rc == 0
    assert custom.exists()


def test_evaluate_correlate_sweep_write_reports(mini_cli, capsys):
    cfg, flags, tmp = mini_cli
    reports = tmp / "reports"

    rc = main(["evaluate", *flags, "--split", "val",
               "--policies", "single-conv,var-mc"])
    assert rc == 0
    assert (reports / "eval.csv").exists()
    assert "var-mc" in capsys.readouterr().out

    rc = main(["correlate", *flags, "--split", "val"])
    assert rc == 0
    assert (reports / "correlation.csv").exists()
    assert (reports / "scatter.csv").exists()

    rc = main(["sweep", *flags, "--split", "val", "--mu-grid", "0,1e9"])
    assert rc == 0
    assert (reports / "sweep_val.csv").exists()
    star = json.loads((reports / "mu_star.json").read_text())
    assert star["mu_star"] in (0.0, 1e9)
    assert star["grid"] == [0.0, 1e9]


def _exit_code_and_err(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err


@pytest.mark.parametrize("damage", ["flip", "truncate", "version", "directory"])
def test_damaged_sweep_summary_is_a_miss(mini_cli, capsys, damage):
    cfg, flags, tmp = mini_cli
    reports = tmp / "reports"
    assert main(["evaluate", *flags, "--policies", "mu-mc"]) == 0
    path = reports / "sweeps" / "test.mcss"

    def report_bytes():
        for verb in ("correlate", "sweep"):
            rc, _ = _exit_code_and_err(capsys, [verb, *flags])
            assert rc == 0
        return [(reports / name).read_bytes()
                for name in ("correlation.csv", "scatter.csv", "sweep.csv")]

    expected = report_bytes()  # read from evaluate's summary
    raw = path.read_bytes()
    if damage == "flip":
        path.write_bytes(raw[:60] + bytes([raw[60] ^ 1]) + raw[61:])
    elif damage == "truncate":
        path.write_bytes(raw[:-5])
    elif damage == "version":
        path.write_bytes(raw[:4] + (summary.SUMMARY_VERSION + 1).to_bytes(4, "little")
                         + raw[8:])
    else:
        path.unlink()
        path.mkdir()
    assert report_bytes() == expected


def test_enhance_with_wrong_bin_count_exits_3(mini_cli, capsys):
    cfg, flags, tmp = mini_cli
    models = tmp / "models64"
    models.mkdir()
    save_model(random_model(np.random.default_rng(11), (64, 16, 64)), models / "single.model")
    for policy in ("single-conv", "single-mc"):
        rc, err = _exit_code_and_err(capsys, [
            "enhance", *flags, "--models-dir", str(models), policy,
            _noisy_wav(cfg), str(tmp / "out.wav")])
        assert rc == 3  # DimensionMismatch
        assert "64" in err


def test_corrupt_model_header_exits_4(mini_cli, capsys):
    """A negative frame count would otherwise surface as a bad tau_inv
    (exit 2) that does not name the file."""
    cfg, flags, tmp = mini_cli
    models = tmp / "models_bad"
    models.mkdir()
    save_model(random_model(np.random.default_rng(12), (257, 16, 257), weight_decay=1e-4,
                            n_train_frames=-5), models / "single.model")
    rc, err = _exit_code_and_err(capsys, [
        "enhance", *flags, "--models-dir", str(models), "single-mc",
        _noisy_wav(cfg), str(tmp / "out.wav")])
    assert rc == 4  # CorruptFile
    assert "single.model" in err and "n_train_frames" in err


def test_model_declaring_tanh_hidden_layers_exits_4(mini_cli, capsys):
    """Hidden layers always run as ReLU, so a file that declares another
    activation is refused rather than run as a different network."""
    cfg, flags, tmp = mini_cli
    models = tmp / "models_tanh"
    models.mkdir()
    path = models / "single.model"
    save_model(random_model(np.random.default_rng(13), (257, 16, 257)), path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + hlen])
    blob = json.dumps({**header, "hidden_activation": "tanh"}).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:])
    rc, err = _exit_code_and_err(capsys, [
        "enhance", *flags, "--models-dir", str(models), "single-conv",
        _noisy_wav(cfg), str(tmp / "out.wav")])
    assert rc == 4  # CorruptFile
    assert "single.model" in err and "hidden_activation" in err


@pytest.mark.parametrize("content", [
    b"{", b"{}", b'{"mu_star": "x"}', b'{"mu_star": null}', b'{"mu_star": -1}',
    b'{"mu_star": true}', b"[0.5]", b"\xff\xfe{}",
])
def test_bad_mu_star_exits_2(mini_cli, capsys, content):
    cfg, flags, tmp = mini_cli
    (tmp / "reports").mkdir()
    (tmp / "reports" / "mu_star.json").write_bytes(content)
    rc, err = _exit_code_and_err(capsys, ["evaluate", *flags, "--policies", "mu-mc"])
    assert rc == 2 and "mu_star.json" in err
    rc, err = _exit_code_and_err(capsys, [
        "enhance", *flags, "mu-mc", _noisy_wav(cfg), str(tmp / "out.wav")])
    assert rc == 2 and "mu_star.json" in err


def test_truncated_frame_cache_exits_3(mini_system, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(mini_system.corpus_dir, corpus)
    cache = sorted(corpus.glob("train/*/frames.mcfr"))[-1]
    cache.write_bytes(cache.read_bytes()[:-3])
    rc, err = _exit_code_and_err(capsys, [
        "train", "--corpus-dir", str(corpus), "--models-dir", str(tmp_path / "models"),
        "--reports-dir", str(tmp_path / "reports"), "single"])
    assert rc == 3  # CorruptCorpus: corpus data, not a model file
    assert "frames.mcfr" in err


@pytest.mark.parametrize("scope", ["single", "per-noise", "classifier", "all"])
def test_train_on_a_corpus_without_train_entries_exits_3(tmp_path, capsys, scope):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--corpus-dir", str(corpus), "--n-train", "0",
                 "--n-val", "1", "--n-test", "1", "--duration", "0.6"]) == 0
    rc, err = _exit_code_and_err(capsys, [
        "train", "--corpus-dir", str(corpus), "--models-dir", str(tmp_path / "models"),
        "--reports-dir", str(tmp_path / "reports"), scope])
    assert rc == 3  # EmptyDataset, before any scope trains
    assert "no train entries" in err
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("where, value", [
    (("frame", "hop_samples"), 0),
    (("frame", "fft_size"), "512"),
    (("utterances", 0, "utt_id"), ["a"]),
    (("utterances", 0, "seed"), 1.5),
    (("entries", 0, "noise"), ["white"]),
    (("entries", 0, "snr_db"), [0]),
    (("entries", 0, "split"), None),
    (("entries", 0), "x"),
    (("entries",), 5),
    (("utterances", 0, "duration_s"), float("nan")),
    (("utterances", 0, "duration_s"), float("inf")),
])
def test_bad_manifest_field_exits_3(mini_system, tmp_path, capsys, where, value):
    data = json.loads((Path(mini_system.corpus_dir) / "manifest.json").read_text())
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    (tmp_path / "manifest.json").write_text(json.dumps(data))
    rc, err = _exit_code_and_err(capsys, ["evaluate", "--corpus-dir", str(tmp_path)])
    assert rc == 3  # InvalidManifest


@pytest.mark.parametrize("records", ["utterances", "entries"])
def test_negative_manifest_seed_exits_3(tmp_path, capsys, records):
    manifest = default_manifest(seed=1, n_train=1, n_val=1, n_test=1, duration_s=1.0)
    getattr(manifest, records)[0].seed = -3
    save_manifest(manifest, tmp_path / "manifest.json")
    rc, err = _exit_code_and_err(capsys, [
        "synth", "--manifest", str(tmp_path / "manifest.json"),
        "--corpus-dir", str(tmp_path / "corpus")])
    assert rc == 3  # InvalidManifest
    assert "negative seed -3" in err


@pytest.mark.parametrize("duration", ["NaN", "Infinity", "1e400"])
def test_non_finite_manifest_duration_exits_3(tmp_path, capsys, duration):
    manifest = default_manifest(seed=1, n_train=1, n_val=1, n_test=1, duration_s=1.0)
    utt_id = manifest.utterances[0].utt_id
    manifest.utterances[0].duration_s = 12345.5
    save_manifest(manifest, tmp_path / "manifest.json")
    text = (tmp_path / "manifest.json").read_text()
    (tmp_path / "manifest.json").write_text(text.replace("12345.5", duration))
    rc, err = _exit_code_and_err(capsys, [
        "synth", "--manifest", str(tmp_path / "manifest.json"),
        "--corpus-dir", str(tmp_path / "corpus")])
    assert rc == 3  # InvalidManifest
    assert utt_id in err


@pytest.mark.parametrize("duration", ["1e300", "0.3"])
def test_out_of_range_duration_exits_2(tmp_path, capsys, duration):
    rc, err = _exit_code_and_err(capsys, [
        "synth", "--corpus-dir", str(tmp_path / "corpus"), "--n-train", "1",
        "--n-val", "1", "--n-test", "1", "--duration", duration])
    assert rc == 2  # InvalidConfig, before any sample is made
    assert "duration_s" in err and f"{corpus.MAX_DURATION_S}" in err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("duration", [
    "1e300", pytest.param("1" + "0" * 400, id="400-digit-int"), "0.3"])
def test_out_of_range_manifest_duration_exits_3(tmp_path, capsys, duration):
    manifest = default_manifest(seed=1, n_train=1, n_val=1, n_test=1, duration_s=1.0)
    utt_id = manifest.utterances[-1].utt_id
    manifest.utterances[-1].duration_s = 12345.5
    save_manifest(manifest, tmp_path / "manifest.json")
    text = (tmp_path / "manifest.json").read_text()
    (tmp_path / "manifest.json").write_text(text.replace("12345.5", duration))
    rc, err = _exit_code_and_err(capsys, [
        "synth", "--manifest", str(tmp_path / "manifest.json"),
        "--corpus-dir", str(tmp_path / "corpus")])
    assert rc == 3  # InvalidManifest, before any sample is made
    assert utt_id in err and f"{corpus.MAX_DURATION_S}" in err
    assert not (tmp_path / "corpus").exists()


def test_non_utf8_manifest_exits_3(tmp_path, capsys):
    (tmp_path / "manifest.json").write_bytes(b'{"frame": "\xff"}')
    rc, _ = _exit_code_and_err(capsys, ["evaluate", "--corpus-dir", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("where, value", [
    (("model_files", 0), 5),
    (("model_files",), "expert_a.model"),
    (("labels", 0), ["a"]),
    (("keep_probs",), 0.8),
    (("classifier_file",), 5),
    (("classifier_file",), ["classifier.model"]),
    ((), None),  # the whole file is not UTF-8
])
def test_bad_bank_manifest_exits_3(mini_cli, capsys, where, value):
    cfg, flags, tmp = mini_cli
    models = tmp / "models"
    shutil.copytree(cfg.models_dir, models)
    bank = models / "bank.json"
    if not where:
        bank.write_bytes(b'{"labels": ["\xff"]}')
    else:
        manifest = json.loads(bank.read_text())
        node = manifest
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        bank.write_text(json.dumps(manifest))
    rc, err = _exit_code_and_err(capsys, [
        "evaluate", *flags, "--models-dir", str(models), "--policies", "var-mc"])
    assert rc == 3  # InvalidManifest
    assert "bank.json" in err
