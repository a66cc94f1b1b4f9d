"""Command-line behaviour: exit codes, file outputs, flag plumbing."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mcenhance
from mcenhance.cli import main
from mcenhance.corpus import entries_for, entry_id, open_dataset


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
    ("optimizer", "rmsprop"),
    ("input_norm", "l2"),
    ("n_train", "3"),
    ("duration_s", 0),
    ("separate_baseline", "yes"),
    ("policies", ["var-mc", "best"]),
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


def test_missing_corpus_exits_3(tmp_path):
    assert main(["evaluate", "--corpus-dir", str(tmp_path / "empty")]) == 3


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
