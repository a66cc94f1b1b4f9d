"""The three benchmark workloads: fixture set-up, warm-up, one round of
timed work, and the output checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns. A round is a fixed list of
operations built from the seed, so every round of a run does the same
work and writes the same bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mcenhance import corpus, dsp, metrics, neural, pipeline
from mcenhance.corpus import NOISE_PRESETS, SEEN_NOISES, SNR_GRID_DB
from mcenhance.pipeline import BANK_POLICIES, POLICY_NAMES, ExperimentConfig

MC_POLICIES = ("single-mc", "class-mc", "var-mc", "mu-mc")
# The model bank is configuration, not input: every seed runs against the
# same bank, and the seed picks only what the bank is asked to enhance.
FIXTURE_SEED = 0
_TAG_REQUESTS = 901
# Same headroom rule as corpus.build_dataset: one LSB below full scale.
_PEAK_LIMIT = 32767.0 / 32768.0
# MC passes in the warm-up: enough to run every code path, cheap to pay.
WARM_PASSES = 2


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale. `desk` is what the benchmark runs;
    `mini` exists so the benchmark's own tests finish in seconds."""

    hidden_dims: tuple
    fixture_utts: int        # train utterances behind the fixture bank
    fixture_epochs: int
    enhance_passes: int
    enhance_durations: tuple
    report_passes: int
    report_duration: float
    train_utts: int
    train_duration: float
    train_epochs: int
    setup_repeats: int = 3


SCALES = {
    "desk": Scale(hidden_dims=(256, 256, 256), fixture_utts=2, fixture_epochs=2,
                  enhance_passes=50, enhance_durations=(1.0, 2.0, 4.0),
                  report_passes=8, report_duration=2.0,
                  train_utts=4, train_duration=2.0, train_epochs=2),
    "mini": Scale(hidden_dims=(16, 16, 16), fixture_utts=1, fixture_epochs=1,
                  enhance_passes=3, enhance_durations=(0.6, 1.0, 1.2),
                  report_passes=3, report_duration=1.0,
                  train_utts=1, train_duration=1.0, train_epochs=1,
                  setup_repeats=2),
}


@dataclass
class Op:
    """One timed operation of a round."""

    latency_s: float
    audio_s: float
    stages: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


@dataclass
class Check:
    """Outcome of checking one round's outputs."""

    failures: dict       # op index -> list of messages
    digest: str          # sha256 over the round's artifacts
    sse_ratio: float     # enhanced SSE / unprocessed SSE against clean


def _config(root: Path, seed: int, scale: Scale, **overrides) -> ExperimentConfig:
    base = dict(corpus_dir=str(root / "corpus"), models_dir=str(root / "models"),
                reports_dir=str(root / "fixture_reports"), seed=seed,
                hidden_dims=scale.hidden_dims, keep_prob=0.8,
                n_epochs=scale.fixture_epochs)
    base.update(overrides)
    return ExperimentConfig(**base)


def _build_fixture_bank(cfg: ExperimentConfig, scale: Scale, n_val: int = 0,
                        n_test: int = 0, duration_s: float = 2.0) -> None:
    """Corpus whose train split (fixed seed) trains the desk-width bank and
    whose val/test splits come from the run's seed."""
    fixed = corpus.default_manifest(seed=FIXTURE_SEED, n_train=scale.fixture_utts,
                                    n_val=0, n_test=0, duration_s=2.0)
    seeded = corpus.default_manifest(seed=cfg.seed, n_train=0, n_val=n_val,
                                     n_test=n_test, duration_s=duration_s)
    for e in seeded.entries:
        e.condition = ""  # re-derived against the fixed train split
    corpus.build_dataset(corpus.DatasetManifest(
        frame=fixed.frame, utterances=fixed.utterances + seeded.utterances,
        entries=fixed.entries + seeded.entries), cfg.corpus_dir)
    pipeline.run_train(dataclasses.replace(cfg, seed=FIXTURE_SEED), "all")


def _artifact_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _finite(values) -> bool:
    return all(np.isfinite(float(v)) for v in values if v != "")


def _timed(clock, errors: list, fn, *args, **kwargs) -> float:
    """Seconds one library call took; a call that raises is recorded in
    `errors` and the loop goes on, as a client would."""
    start = clock()
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # the loop must survive any failing operation
        traceback.print_exc(file=sys.stderr)
        errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
    return clock() - start


def _frames(n_samples: int) -> int:
    return dsp.n_frames_for(n_samples, dsp.FrameConfig())


def _ola_len(n_samples: int) -> int:
    cfg = dsp.FrameConfig()
    return (_frames(n_samples) - 1) * cfg.hop_samples + cfg.frame_len_samples


def _sse_pair(clean: dsp.Signal, noisy: dsp.Signal, estimate: dsp.Signal) -> tuple:
    """Magnitude-spectrum SSE against clean of the estimate and of the
    unprocessed input."""
    cfg = dsp.FrameConfig()
    n = len(estimate)
    ref = dsp.stft(dsp.Signal(clean.samples[:n]), cfg).magnitude
    est, _ = metrics.sse(ref, dsp.stft(estimate, cfg).magnitude)
    raw, _ = metrics.sse(ref, dsp.stft(dsp.Signal(noisy.samples[:n]), cfg).magnitude)
    return est, raw


def _ratio(pairs) -> float:
    """Geometric mean over (enhanced SSE, unprocessed SSE) pairs of their
    ratio. Dividing keeps the speech and noise level the seed draws out of
    the quality guard; the geometric mean weighs every file or condition
    alike (across seeds it spread 8% where the ratio of sums spread 14%)."""
    if not pairs:
        return float("nan")
    est, raw = np.asarray(pairs, dtype=np.float64).T
    return float(np.exp(np.mean(np.log(est / raw))))


# ------------------------------------------------------------ enhance-mixed

class EnhanceMixed:
    """Requests rotate through all six policies on 1, 2 and 4 s inputs
    that use all eight noise presets; nothing is reused across requests."""

    name = "enhance-mixed"

    def __init__(self, root: Path, seed: int, scale: Scale):
        self.root, self.seed, self.scale = Path(root), seed, scale
        self.cfg = _config(self.root, seed, scale, n_passes=scale.enhance_passes)

    def setup(self) -> None:
        _build_fixture_bank(self.cfg, self.scale)
        inputs = self.root / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        requests = []
        for i, spec in enumerate(self._request_specs()):
            clean = corpus.synth_speech(spec["duration_s"], spec["speech_seed"])
            noise = corpus.synth_noise(corpus.noise_spec(spec["noise"], seed=spec["noise_seed"]),
                                       spec["duration_s"])
            noisy, _ = dsp.mix_at_snr(clean, noise, float(spec["snr_db"]), allow_tile=True)
            peak = max(np.abs(clean.samples).max(), np.abs(noisy.samples).max())
            gain = min(1.0, _PEAK_LIMIT / peak)
            spec["noisy"] = f"req{i:02d}_noisy.wav"
            spec["clean"] = f"req{i:02d}_clean.wav"
            dsp.write_wav(inputs / spec["noisy"], dsp.Signal(noisy.samples * gain))
            dsp.write_wav(inputs / spec["clean"], dsp.Signal(clean.samples * gain))
            requests.append(spec)
        (inputs / "requests.json").write_text(json.dumps(requests, indent=1))

    def _request_specs(self) -> list:
        """A fixed design of (policy, duration, noise, SNR) slots, so every
        seed runs the same mix; the seed draws the speech, the noise
        realisations and the request order."""
        rng = np.random.default_rng([_TAG_REQUESTS, self.seed])
        noises = list(NOISE_PRESETS)
        slots = [(p, d) for p in POLICY_NAMES for d in self.scale.enhance_durations]
        specs = []
        for k in rng.permutation(len(slots)):
            policy, duration = slots[k]
            specs.append({
                "policy": policy, "duration_s": duration,
                "noise": noises[k % len(noises)],
                "snr_db": SNR_GRID_DB[k % len(SNR_GRID_DB)],
                "speech_seed": int(rng.integers(1 << 31)),
                "noise_seed": int(rng.integers(1 << 31)),
            })
        return specs

    def _requests(self) -> list:
        return json.loads((self.root / "inputs" / "requests.json").read_text())

    def warm_up(self, out: Path) -> None:
        cfg = dataclasses.replace(self.cfg, n_passes=WARM_PASSES)
        shortest = min(self._requests(), key=lambda r: r["duration_s"])
        for policy in POLICY_NAMES:
            pipeline.run_enhance(cfg, policy, self.root / "inputs" / shortest["noisy"],
                                 out / f"warm_{policy}.wav")

    def round(self, out: Path, clock, tracer=None) -> list:
        ops = []
        for i, req in enumerate(self._requests()):
            if tracer is not None:
                tracer.request = i
            errors = []
            latency = _timed(clock, errors, pipeline.run_enhance, self.cfg, req["policy"],
                             self.root / "inputs" / req["noisy"], out / f"req{i:02d}.wav")
            ops.append(Op(latency, req["duration_s"], errors=errors))
        return ops

    def check(self, out: Path) -> Check:
        failures, artifacts, sses = {}, [], []
        for i, req in enumerate(self._requests()):
            problems = []
            wav = out / f"req{i:02d}.wav"
            noisy = dsp.read_wav(self.root / "inputs" / req["noisy"])
            if not wav.exists():
                failures[i] = ["no output WAV"]
                continue
            artifacts.append(wav)
            est = dsp.read_wav(wav)
            if len(est) != _ola_len(len(noisy)):
                problems.append(f"{wav.name}: {len(est)} samples, expected {_ola_len(len(noisy))}")
            if not np.all(np.isfinite(est.samples)) or not np.any(est.samples):
                problems.append(f"{wav.name}: silent or non-finite samples")
            if req["policy"] in BANK_POLICIES:
                dec = wav.with_suffix(".decisions.csv")
                if not dec.exists():
                    problems.append(f"{dec.name}: missing")
                else:
                    artifacts.append(dec)
                    rows = _csv_rows(dec)[1:]
                    if len(rows) != _frames(len(noisy)):
                        problems.append(f"{dec.name}: {len(rows)} rows for "
                                        f"{_frames(len(noisy))} frames")
                    if not all(_finite(r[3:]) for r in rows):
                        problems.append(f"{dec.name}: non-finite values")
            if req["policy"] in MC_POLICIES:
                clean = dsp.read_wav(self.root / "inputs" / req["clean"])
                sses.append(_sse_pair(clean, noisy, est))
            if problems:
                failures[i] = problems
        return Check(failures, _artifact_digest(artifacts), _ratio(sses))


# ------------------------------------------------------------------- report

class Report:
    """The Quick-start report chain: sweep val, evaluate, correlate,
    sweep test, on a seeded corpus of 4 val and 6 test entries."""

    name = "report"

    def __init__(self, root: Path, seed: int, scale: Scale):
        self.root, self.seed, self.scale = Path(root), seed, scale
        self.cfg = _config(self.root, seed, scale, n_passes=scale.report_passes)

    def setup(self) -> None:
        _build_fixture_bank(self.cfg, self.scale, n_val=1, n_test=1,
                            duration_s=self.scale.report_duration)

    def _chain(self, cfg, clock, errors: list) -> dict:
        return {
            "sweep_val_s": _timed(clock, errors, pipeline.run_sweep, cfg, "val"),
            "evaluate_s": _timed(clock, errors, pipeline.run_evaluate, cfg),
            "correlate_s": _timed(clock, errors, pipeline.run_correlate, cfg),
            "sweep_test_s": _timed(clock, errors, pipeline.run_sweep, cfg, "test"),
        }

    def _conditions(self, split: str, seen_only: bool = False) -> int:
        entries = corpus.entries_for(corpus.open_dataset(self.cfg.corpus_dir), split)
        return len({(e.noise, e.snr_db) for e in entries
                    if not seen_only or e.noise in SEEN_NOISES})

    def _audio_s(self) -> float:
        manifest = corpus.open_dataset(self.cfg.corpus_dir)
        val = corpus.entries_for(manifest, "val")
        test = corpus.entries_for(manifest, "test")
        seen_test = [e for e in test if e.noise in SEEN_NOISES]
        # sweep val, evaluate, correlate (seen noises only), sweep test.
        return self.scale.report_duration * (len(val) + 2 * len(test) + len(seen_test))

    def _unprocessed_sse(self) -> dict:
        """Mean per-file SSE of the noisy input per test condition, the
        same average eval.csv takes."""
        manifest = corpus.open_dataset(self.cfg.corpus_dir)
        totals = {}
        for e in corpus.entries_for(manifest, "test"):
            noisy, clean = corpus.load_entry_frames(self.cfg.corpus_dir, e)
            totals.setdefault((e.noise, e.snr_db), []).append(metrics.sse(clean, noisy)[0])
        return {k: float(np.mean(v)) for k, v in totals.items()}

    def warm_up(self, out: Path) -> None:
        cfg = dataclasses.replace(self.cfg, n_passes=WARM_PASSES,
                                  reports_dir=str(out))
        pipeline.run_sweep(cfg, "val")
        pipeline.run_evaluate(cfg)
        pipeline.run_correlate(cfg)
        pipeline.run_sweep(cfg, "test")

    def round(self, out: Path, clock, tracer=None) -> list:
        if tracer is not None:
            tracer.request = 0
        errors = []
        start = clock()
        stages = self._chain(dataclasses.replace(self.cfg, reports_dir=str(out)), clock, errors)
        return [Op(clock() - start, self._audio_s(), stages, errors)]

    def check(self, out: Path) -> Check:
        problems, artifacts, sses = [], [], []
        grid = self.cfg.mu_grid
        # file -> (expected rows, columns that must hold finite numbers)
        expected = {
            "sweep_val.csv": (len(grid) * self._conditions("val"), (2,)),
            "sweep.csv": (len(grid) * self._conditions("test"), (2,)),
            "eval.csv": (len(POLICY_NAMES) * self._conditions("test"), (3, 4)),
            "correlation.csv": (self._conditions("test", seen_only=True), (2,)),
            "scatter.csv": (None, (4, 5)),
        }
        for name, (n_rows, columns) in expected.items():
            path = out / name
            if not path.exists():
                problems.append(f"{name}: missing")
                continue
            artifacts.append(path)
            rows = _csv_rows(path)[1:]
            if n_rows is not None and len(rows) != n_rows:
                problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
            if not _finite(r[c] for r in rows for c in columns):
                problems.append(f"{name}: non-finite values")
            if name == "eval.csv":
                raw = self._unprocessed_sse()
                sses = [(float(r[3]), raw[(r[0], int(r[1]))]) for r in rows if r[2] in MC_POLICIES]
        mu_star = out / "mu_star.json"
        if not mu_star.exists() or json.loads(mu_star.read_text())["mu_star"] not in grid:
            problems.append("mu_star.json: missing or off the grid")
        else:
            artifacts.append(mu_star)
        return Check({0: problems} if problems else {}, _artifact_digest(artifacts), _ratio(sses))


# -------------------------------------------------------------------- train

class Train:
    """`train all` at desk width on about 4k frames per scope: forward,
    backward, Adam and one dropout pass per batch, no MC inference."""

    name = "train"

    def __init__(self, root: Path, seed: int, scale: Scale):
        self.root, self.seed, self.scale = Path(root), seed, scale
        self.cfg = _config(self.root, seed, scale, n_epochs=scale.train_epochs)

    def setup(self) -> None:
        pipeline.run_synth(dataclasses.replace(
            self.cfg, n_train=self.scale.train_utts, n_val=0, n_test=0,
            duration_s=self.scale.train_duration))

    def _entries(self) -> list:
        return corpus.entries_for(corpus.open_dataset(self.cfg.corpus_dir), "train")

    def frames_per_round(self) -> int:
        """Frames x epochs summed over the three scopes."""
        per_entry = _frames(int(round(self.scale.train_duration * 16000)))
        return 3 * len(self._entries()) * per_entry * self.cfg.n_epochs

    def warm_up(self, out: Path) -> None:
        pipeline.run_train(dataclasses.replace(
            self.cfg, n_epochs=1, models_dir=str(out / "models"),
            reports_dir=str(out / "reports")), "all")

    def round(self, out: Path, clock, tracer=None) -> list:
        if tracer is not None:
            tracer.request = 0
        cfg = dataclasses.replace(self.cfg, models_dir=str(out / "models"),
                                  reports_dir=str(out / "reports"))
        errors = []
        latency = _timed(clock, errors, pipeline.run_train, cfg, "all")
        audio = 3 * len(self._entries()) * self.scale.train_duration * cfg.n_epochs
        return [Op(latency, audio, errors=errors)]

    def check(self, out: Path) -> Check:
        problems, artifacts = [], []
        labels = pipeline.bank_labels(corpus.open_dataset(self.cfg.corpus_dir))
        names = ["single", "classifier"] + [f"expert_{l}" for l in labels]
        models = {}
        for name in names:
            path = out / "models" / f"{name}.model"
            loss = out / "reports" / f"loss_{name}.csv"
            if not path.exists() or not loss.exists():
                problems.append(f"{name}: model or loss file missing")
                continue
            artifacts += [path, loss]
            models[name] = neural.load_model(path)
            if not all(np.all(np.isfinite(w)) for w in models[name].weights):
                problems.append(f"{name}.model: non-finite weights")
            rows = _csv_rows(loss)[1:]
            if len(rows) != self.cfg.n_epochs + 1 or not _finite(r[1] for r in rows):
                problems.append(f"loss_{name}.csv: {len(rows)} rows or non-finite loss")
        if (out / "models" / "bank.json").exists():
            artifacts.append(out / "models" / "bank.json")
        else:
            problems.append("bank.json: missing")
        sses = []
        if "single" in models:
            for e in self._entries():
                noisy, clean = corpus.load_entry_frames(self.cfg.corpus_dir, e)
                est, _ = neural.forward(models["single"], noisy)
                sses.append((metrics.sse(clean, est)[0], metrics.sse(clean, noisy)[0]))
        return Check({0: problems} if problems else {}, _artifact_digest(artifacts), _ratio(sses))


WORKLOADS = {w.name: w for w in (EnhanceMixed, Report, Train)}


def build_fixtures(name: str, root: str, seed: int, scale_name: str) -> None:
    """Set-up entry point, run in a fresh process so the parent's peak
    memory covers only warm-up and timed work."""
    root = Path(root)
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    WORKLOADS[name](root, seed, SCALES[scale_name]).setup()
