"""Synthetic corpus: pseudo-speech, parameterized noise families, and
manifest-driven mixing into train/val/test trees with cached frame pairs."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import (
    FrameConfig,
    Signal,
    mix_at_snr,
    publish,
    read_wav,
    stft,
    write_wav,
)
from .errors import (
    CorruptCorpus,
    CorruptFile,
    InvalidManifest,
    InvalidParams,
    MissingCorpus,
    VersionMismatch,
)

CACHE_MAGIC = b"MCFR"
CACHE_VERSION = 1

SNR_GRID_DB = (-10, -5, 0, 5, 10)
TRAIN_SNRS_DB = (0, 5, 10)

_TAG_SPEECH = 201
_TAG_NOISE = 202
_TAG_UTT_SEED = 203
_TAG_MIX_SEED = 204

# 16-bit full scale with one LSB of headroom, so quantization never clips.
_PEAK_LIMIT = 32767.0 / 32768.0

# Shortest and longest synthesized utterance, in seconds. The upper bound
# is ten minutes (9.6 M samples at 16 kHz), far above the paper's
# few-second utterances: a sweep holds all of an utterance's frames at
# once, and a longer request is refused before any sample is allocated.
MIN_DURATION_S = 0.5
MAX_DURATION_S = 600.0


@dataclass
class NoiseSpec:
    """One noise family instance; params are family-specific."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0


# Named presets. The first five stand in for the usual seen set of
# recorded noises (broadband factory hum, vehicle rumble, periodic
# machinery, crowd babble, narrowband whine); the rest are held out.
NOISE_PRESETS = {
    "pink_broadband": NoiseSpec("pink", {"drift_rate_hz": 1.2, "drift_depth": 0.8}),
    "rumble_lowpass": NoiseSpec("lowpass_rumble", {
        "cutoff_hz": 160.0, "drift_rate_hz": 0.8, "drift_depth": 0.6}),
    "am_tones_slow": NoiseSpec("am_tones", {
        "tones_hz": (500.0, 1300.0, 2700.0), "mod_rate_hz": 2.0,
        "mod_depth": 0.8, "noise_floor": 0.15}),
    "babble_proxy": NoiseSpec("babble_proxy", {"n_streams": 6}),
    "tones_narrow": NoiseSpec("am_tones", {
        "tones_hz": (2390.0, 2450.0, 2510.0), "mod_rate_hz": 0.5,
        "mod_depth": 0.4, "noise_floor": 0.05}),
    "white": NoiseSpec("white"),
    "am_tones_fast": NoiseSpec("am_tones", {
        "tones_hz": (700.0, 1700.0, 3100.0), "mod_rate_hz": 13.0,
        "mod_depth": 0.9, "noise_floor": 0.15}),
    "mixed": NoiseSpec("mixed", {"components": [
        {"family": "pink", "params": {"drift_rate_hz": 1.2, "drift_depth": 0.8},
         "weight": 0.7},
        {"family": "am_tones", "params": {
            "tones_hz": (700.0, 1700.0, 3100.0), "mod_rate_hz": 13.0,
            "mod_depth": 0.9, "noise_floor": 0.15}, "weight": 0.3},
    ]}),
}

SEEN_NOISES = ("pink_broadband", "rumble_lowpass", "am_tones_slow",
               "babble_proxy", "tones_narrow")


def noise_spec(name: str, seed: int = 0) -> NoiseSpec:
    if name not in NOISE_PRESETS:
        raise InvalidParams(f"unknown noise preset {name!r}")
    return dataclasses.replace(NOISE_PRESETS[name], seed=seed)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


def synth_speech(duration_s: float, seed: int, sample_rate_hz: int = 16000) -> Signal:
    """Pseudo-speech: pitch-modulated harmonic bursts shaped by random
    formant resonances, separated by hard silence gaps, whole-signal RMS
    normalized to 0.1."""
    if not MIN_DURATION_S <= duration_s <= MAX_DURATION_S:
        raise InvalidParams(f"duration {duration_s}s outside "
                            f"[{MIN_DURATION_S}, {MAX_DURATION_S}]s")
    sr = sample_rate_hz
    n = int(round(duration_s * sr))
    rng = np.random.default_rng(np.random.SeedSequence([_TAG_SPEECH, seed]))
    x = np.zeros(n)

    pos = 0
    while pos < n:
        seg_len = int(rng.integers(int(0.25 * sr), int(0.40 * sr)))
        take = min(seg_len, n - pos)
        if take > int(0.02 * sr):
            seg = _voiced_segment(rng, take, sr)[:take]
            # Level each segment (within +/-1 dB) so formant draws don't
            # spread utterance loudness over tens of dB.
            r = _rms(seg)
            if r > 0:
                seg = seg * (10.0 ** (rng.uniform(-1.0, 1.0) / 20.0) / r)
            x[pos:pos + take] = seg
        pos += seg_len
        pos += int(rng.integers(int(0.03 * sr), int(0.07 * sr)))

    r = _rms(x)
    if r == 0.0:
        raise InvalidParams("synthesized speech came out silent")
    x *= 0.1 / r
    return Signal(samples=x, sample_rate_hz=sr)


def _voiced_segment(rng: np.random.Generator, length: int, sr: int) -> np.ndarray:
    t = np.arange(length) / sr
    f0 = rng.uniform(90.0, 220.0)
    drift = rng.uniform(-0.15, 0.15)
    vib_rate = rng.uniform(3.0, 7.0)
    vib_phase = rng.uniform(0, 2 * np.pi)
    f0_t = f0 * (1.0 + drift * t / t[-1] + 0.04 * np.sin(2 * np.pi * vib_rate * t + vib_phase))
    phase = 2 * np.pi * np.cumsum(f0_t) / sr

    n_harm = min(25, int(4000.0 / f0_t.max()))
    h = np.arange(1, n_harm + 1)
    wave = ((1.0 / h)[:, None] * np.sin(h[:, None] * phase[None, :])).sum(axis=0)

    # Formant-like spectral shaping of the isolated segment.
    spec = np.fft.rfft(wave)
    freqs = np.fft.rfftfreq(length, 1.0 / sr)
    shape = np.full_like(freqs, 0.08)
    for lo, hi in ((300.0, 850.0), (950.0, 2300.0), (2400.0, 3200.0)):
        fc = rng.uniform(lo, hi)
        bw = rng.uniform(80.0, 180.0)
        shape += np.exp(-0.5 * ((freqs - fc) / bw) ** 2)
    wave = np.fft.irfft(spec * shape, n=length)

    fade = min(int(0.010 * sr), length // 2)
    if fade > 0:
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(fade) / fade))
        wave[:fade] *= ramp
        wave[-fade:] *= ramp[::-1]
    return wave


def synth_noise(spec: NoiseSpec, duration_s: float, sample_rate_hz: int = 16000) -> Signal:
    """Deterministic noise realization, RMS normalized to 0.1."""
    sr = sample_rate_hz
    n = int(round(duration_s * sr))
    if n < 1:
        raise InvalidParams("duration too short")
    seq = np.random.SeedSequence([_TAG_NOISE, spec.seed])
    x = _raw_noise(spec.family, spec.params, seq, n, sr)
    r = _rms(x)
    if r == 0.0:
        raise InvalidParams(f"noise family {spec.family!r} produced silence")
    x = x * (0.1 / r)
    return Signal(samples=x, sample_rate_hz=sr)


def _level_drift(rng, params: dict, n: int, sr: int) -> np.ndarray:
    """Slow random loudness wander, as in recordings of real machinery.
    Returns an all-ones envelope when the preset asks for none."""
    rate = float(params.get("drift_rate_hz", 0.0))
    if rate == 0.0:
        return np.ones(n)
    if rate < 0:
        raise InvalidParams("drift_rate_hz must be >= 0")
    depth = float(params.get("drift_depth", 0.75))
    if not 0.0 <= depth <= 1.0:
        raise InvalidParams("drift_depth must lie in [0, 1]")
    freqs = np.fft.rfftfreq(n, 1.0 / sr)
    keep = freqs <= rate
    env = np.fft.irfft(np.fft.rfft(rng.standard_normal(n)) * keep, n=n)
    sd = env.std()
    if sd > 0:
        env = env / sd
    return np.maximum(1.0 + depth * env, 0.05)


def _raw_noise(family: str, params: dict, seq, n: int, sr: int) -> np.ndarray:
    rng = np.random.default_rng(seq)
    nyquist = sr / 2.0
    if family == "white":
        return rng.standard_normal(n)

    if family == "pink":
        white = rng.standard_normal(n)
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        gain = np.zeros_like(freqs)
        gain[1:] = 1.0 / np.sqrt(freqs[1:])
        x = np.fft.irfft(spec * gain, n=n)
        return x * _level_drift(rng, params, n, sr)

    if family == "lowpass_rumble":
        cutoff = float(params.get("cutoff_hz", 160.0))
        if not 0 < cutoff < nyquist:
            raise InvalidParams(f"cutoff {cutoff} Hz outside (0, {nyquist})")
        white = rng.standard_normal(n)
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        gain = 1.0 / (1.0 + (freqs / cutoff) ** 2)
        x = np.fft.irfft(spec * gain, n=n)
        return x * _level_drift(rng, params, n, sr)

    if family == "am_tones":
        tones = params.get("tones_hz", (500.0, 1300.0, 2700.0))
        rate = float(params.get("mod_rate_hz", 2.0))
        depth = float(params.get("mod_depth", 0.8))
        floor = float(params.get("noise_floor", 0.1))
        if rate <= 0:
            raise InvalidParams("mod_rate_hz must be positive")
        if not 0.0 <= depth <= 1.0:
            raise InvalidParams("mod_depth must lie in [0, 1]")
        if any(not 0 < f < nyquist for f in tones):
            raise InvalidParams(f"tone outside (0, {nyquist}) Hz")
        t = np.arange(n) / sr
        x = np.zeros(n)
        for f in tones:
            carrier = np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
            env = 1.0 + depth * np.sin(2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi))
            x += carrier * env
        x /= max(len(tones), 1)
        return x + floor * rng.standard_normal(n)

    if family == "babble_proxy":
        n_streams = int(params.get("n_streams", 6))
        if n_streams < 1:
            raise InvalidParams("n_streams must be >= 1")
        freqs = np.fft.rfftfreq(n, 1.0 / sr)
        voice_shape = (freqs / 250.0) / (1.0 + (freqs / 250.0) ** 2)
        voice_shape /= 1.0 + (freqs / 3000.0) ** 4
        env_keep = freqs <= 6.0
        x = np.zeros(n)
        for _ in range(n_streams):
            stream = np.fft.irfft(np.fft.rfft(rng.standard_normal(n)) * voice_shape, n=n)
            env_noise = np.fft.irfft(np.fft.rfft(rng.standard_normal(n)) * env_keep, n=n)
            sd = env_noise.std()
            if sd > 0:
                env_noise = env_noise / sd
            x += stream * np.maximum(1.0 + 0.9 * env_noise, 0.05)
        return x

    if family == "mixed":
        components = params.get("components")
        if not components:
            raise InvalidParams("mixed family needs a components list")
        children = seq.spawn(len(components))
        x = np.zeros(n)
        for comp, child in zip(components, children):
            part = _raw_noise(comp["family"], comp.get("params", {}), child, n, sr)
            x += float(comp.get("weight", 1.0)) * part / max(_rms(part), 1e-12)
        return x

    if family == "wav":
        path = params.get("path")
        if not path:
            raise InvalidParams("wav family needs a 'path' param")
        source = read_wav(path)
        reps = int(np.ceil(n / len(source)))
        return np.tile(source.samples, reps)[:n]

    raise InvalidParams(f"unknown noise family {family!r}")


@dataclass
class Utterance:
    utt_id: str
    split: str
    seed: int
    duration_s: float
    wav: str | None = None  # escape hatch: use this file instead of synthesis


@dataclass
class MixEntry:
    clean_id: str
    noise: str
    snr_db: int
    split: str
    seed: int
    condition: str = ""  # "seen" | "unseen", filled for val/test at validation


@dataclass
class DatasetManifest:
    frame: FrameConfig
    utterances: list
    entries: list


def entry_id(entry: MixEntry) -> str:
    return f"{entry.clean_id}__{entry.noise}__snr{entry.snr_db:+03d}"


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    return {
        "frame": {
            "sample_rate_hz": manifest.frame.sample_rate_hz,
            "frame_len_samples": manifest.frame.frame_len_samples,
            "hop_samples": manifest.frame.hop_samples,
            "fft_size": manifest.frame.fft_size,
        },
        "utterances": [dataclasses.asdict(u) for u in manifest.utterances],
        "entries": [dataclasses.asdict(e) for e in manifest.entries],
    }


# JSON types accepted for each field annotation of the manifest records.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


def _record(cls, data):
    """cls(**data), once each field given has its JSON type."""
    for f in dataclasses.fields(cls):
        value = data[f.name] if f.name in data else None
        if f.name in data and (isinstance(value, bool)
                               or not isinstance(value, _JSON_TYPES[f.type])):
            raise InvalidManifest(f"{cls.__name__}.{f.name} must be {f.type}, got {value!r:.40}")
    return cls(**data)


def manifest_from_dict(data: dict) -> DatasetManifest:
    try:
        frame = _record(FrameConfig, data["frame"])
        utterances = [_record(Utterance, u) for u in data["utterances"]]
        entries = [_record(MixEntry, e) for e in data["entries"]]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: FrameConfig ranges
        raise InvalidManifest(f"bad manifest structure: {exc}") from exc
    return DatasetManifest(frame=frame, utterances=utterances, entries=entries)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise MissingCorpus(f"no manifest at {path}")
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise InvalidManifest(f"{path}: {exc}") from exc
    manifest = manifest_from_dict(data)
    validate_manifest(manifest)
    return manifest


def save_manifest(manifest: DatasetManifest, path) -> None:
    with publish(path, "w") as fh:
        fh.write(json.dumps(manifest_to_dict(manifest), indent=2) + "\n")


def validate_manifest(manifest: DatasetManifest) -> None:
    """Check ids, SNR grids, and the seen/unseen discipline; fills empty
    val/test condition tags in place."""
    ids = [u.utt_id for u in manifest.utterances]
    if len(set(ids)) != len(ids):
        raise InvalidManifest("duplicate utterance ids")
    by_id = {u.utt_id: u for u in manifest.utterances}
    for u in manifest.utterances:
        if u.split not in ("train", "val", "test"):
            raise InvalidManifest(f"{u.utt_id}: bad split {u.split!r}")
        if u.seed < 0:
            raise InvalidManifest(f"{u.utt_id}: negative seed {u.seed}")
        if not -np.inf < u.duration_s < np.inf:  # NaN too; a huge JSON int is finite
            raise InvalidManifest(f"{u.utt_id}: duration_s {u.duration_s} is not finite")
        if not (u.wav or MIN_DURATION_S <= u.duration_s <= MAX_DURATION_S):
            raise InvalidManifest(f"{u.utt_id}: duration_s {u.duration_s} outside "
                                  f"[{MIN_DURATION_S}, {MAX_DURATION_S}]s")

    train_noises = {e.noise for e in manifest.entries if e.split == "train"}
    seen_pairs = set()
    for e in manifest.entries:
        if e.split not in ("train", "val", "test"):
            raise InvalidManifest(f"{entry_id(e)}: bad split {e.split!r}")
        if e.clean_id not in by_id:
            raise InvalidManifest(f"{entry_id(e)}: unknown clean_id {e.clean_id}")
        if e.seed < 0:
            raise InvalidManifest(f"{entry_id(e)}: negative seed {e.seed}")
        if by_id[e.clean_id].split != e.split:
            raise InvalidManifest(
                f"{entry_id(e)}: utterance belongs to split {by_id[e.clean_id].split}")
        if e.noise not in NOISE_PRESETS:
            raise InvalidManifest(f"{entry_id(e)}: unknown noise {e.noise!r}")
        if e.snr_db not in SNR_GRID_DB:
            raise InvalidManifest(f"{entry_id(e)}: SNR {e.snr_db} not in {SNR_GRID_DB}")
        if e.split == "train" and e.snr_db not in TRAIN_SNRS_DB:
            raise InvalidManifest(
                f"{entry_id(e)}: train SNRs limited to {TRAIN_SNRS_DB}")
        key = (e.split, e.clean_id, e.noise, e.snr_db)
        if key in seen_pairs:
            raise InvalidManifest(f"duplicate entry {entry_id(e)}")
        seen_pairs.add(key)

    for e in manifest.entries:
        if e.split == "train":
            continue
        inferred = "seen" if e.noise in train_noises else "unseen"
        if not e.condition:
            e.condition = inferred
        elif e.condition != inferred:
            raise InvalidManifest(
                f"{entry_id(e)}: tagged {e.condition} but noise "
                f"{'is' if inferred == 'seen' else 'is not'} in the train set")


def _derived_seed(*words) -> int:
    # SeedSequence entropy words must be non-negative; two's-complement
    # negative SNRs into uint32 space.
    coded = [int(w) % (1 << 32) for w in words]
    return int(np.random.SeedSequence(coded).generate_state(1, np.uint32)[0])


def default_manifest(
    seed: int = 0,
    n_train: int = 60,
    n_val: int = 8,
    n_test: int = 20,
    duration_s: float = 2.0,
    frame: FrameConfig | None = None,
) -> DatasetManifest:
    """Desk-scale corpus: every train utterance mixed with every seen
    noise (SNR round-robin over the train grid), plus fixed val and test
    condition sets spanning seen and unseen noises."""
    frame = frame or FrameConfig()
    utterances, entries = [], []

    split_codes = {"train": 0, "val": 1, "test": 2}

    def add_utts(split, count):
        for i in range(count):
            utterances.append(Utterance(
                utt_id=f"{split}_{i:04d}",
                split=split,
                seed=_derived_seed(seed, _TAG_UTT_SEED, split_codes[split], i),
                duration_s=duration_s,
            ))

    add_utts("train", n_train)
    add_utts("val", n_val)
    add_utts("test", n_test)

    for i in range(n_train):
        for j, noise in enumerate(SEEN_NOISES):
            snr = TRAIN_SNRS_DB[(i + j) % len(TRAIN_SNRS_DB)]
            entries.append(MixEntry(
                clean_id=f"train_{i:04d}", noise=noise, snr_db=snr, split="train",
                seed=_derived_seed(seed, _TAG_MIX_SEED, 0, i, j, snr)))

    # Validation pairs seen conditions with the related-family unseen mix
    # so the mu sweep sees the routing tradeoff. High-SNR pink is the
    # condition variance routing damages first, so the guardrail must
    # watch it; the far-out white condition stays a test-only stress case.
    val_conditions = [("pink_broadband", 0), ("pink_broadband", 10),
                      ("babble_proxy", 5), ("mixed", -10)]
    for i in range(n_val):
        for j, (noise, snr) in enumerate(val_conditions):
            entries.append(MixEntry(
                clean_id=f"val_{i:04d}", noise=noise, snr_db=snr, split="val",
                seed=_derived_seed(seed, _TAG_MIX_SEED, 1, i, j, snr)))

    test_conditions = [("white", -10), ("white", -5),
                       ("pink_broadband", -10), ("pink_broadband", 0),
                       ("pink_broadband", 10), ("mixed", -10)]
    for i in range(n_test):
        for j, (noise, snr) in enumerate(test_conditions):
            entries.append(MixEntry(
                clean_id=f"test_{i:04d}", noise=noise, snr_db=snr, split="test",
                seed=_derived_seed(seed, _TAG_MIX_SEED, 2, i, j, snr)))

    manifest = DatasetManifest(frame=frame, utterances=utterances, entries=entries)
    validate_manifest(manifest)
    return manifest


def write_cache(path, noisy_mag: np.ndarray, clean_mag: np.ndarray) -> None:
    """Frame-pair cache: MCFR magic, version, n_frames, n_bins (u32 LE),
    then the noisy block and the clean block as float32 row-major."""
    if noisy_mag.shape != clean_mag.shape or noisy_mag.ndim != 2:
        raise InvalidParams(f"cache blocks {noisy_mag.shape} vs {clean_mag.shape}")
    header = np.array([noisy_mag.shape[0], noisy_mag.shape[1]], dtype="<u4")
    with publish(path) as fh:
        fh.write(CACHE_MAGIC)
        fh.write(np.uint32(CACHE_VERSION).tobytes())
        fh.write(header.tobytes())
        fh.write(noisy_mag.astype("<f4").tobytes())
        fh.write(clean_mag.astype("<f4").tobytes())


def read_cache(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (noisy_mag, clean_mag) upcast to float64."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != CACHE_MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    version = int(np.frombuffer(data[4:8], dtype="<u4")[0])
    if version != CACHE_VERSION:
        raise VersionMismatch(f"{path}: cache version {version}")
    n_frames, n_bins = (int(v) for v in np.frombuffer(data[8:16], dtype="<u4"))
    if len(data) != 16 + 8 * n_frames * n_bins:  # also keeps frombuffer from failing
        raise CorruptFile(f"{path}: {len(data)} bytes for {n_frames}x{n_bins} frame pairs")
    body = np.frombuffer(data[16:], dtype="<f4")
    noisy = body[:n_frames * n_bins].reshape(n_frames, n_bins).astype(np.float64)
    clean = body[n_frames * n_bins:].reshape(n_frames, n_bins).astype(np.float64)
    return noisy, clean


def _clean_signal(utt: Utterance, sr: int) -> Signal:
    if utt.wav:
        return read_wav(utt.wav)
    return synth_speech(utt.duration_s, utt.seed, sample_rate_hz=sr)


def build_dataset(manifest: DatasetManifest, out_dir) -> Path:
    """Materialize the manifest: per entry a directory with clean.wav,
    noisy.wav, and frames.mcfr computed from the quantized files.

    Pure function of the manifest, so re-runs rewrite identical bytes.
    """
    validate_manifest(manifest)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sr = manifest.frame.sample_rate_hz

    clean_cache = {}
    for e in manifest.entries:
        utt = next(u for u in manifest.utterances if u.utt_id == e.clean_id)
        if e.clean_id not in clean_cache:
            clean_cache[e.clean_id] = _clean_signal(utt, sr)
        clean = clean_cache[e.clean_id]

        spec = noise_spec(e.noise, seed=e.seed)
        noise = synth_noise(spec, duration_s=len(clean) / sr, sample_rate_hz=sr)
        noisy, _ = mix_at_snr(clean, noise, float(e.snr_db), allow_tile=True)

        # Common gain keeps the SNR exact while guaranteeing headroom.
        peak = max(np.abs(clean.samples).max(), np.abs(noisy.samples).max())
        gain = min(1.0, _PEAK_LIMIT / peak) if peak > 0 else 1.0
        clean_out = Signal(samples=clean.samples * gain, sample_rate_hz=sr)
        noisy_out = Signal(samples=noisy.samples * gain, sample_rate_hz=sr)

        edir = entry_dir(out_dir, e)
        edir.mkdir(parents=True, exist_ok=True)
        write_wav(edir / "clean.wav", clean_out)
        write_wav(edir / "noisy.wav", noisy_out)

        # Frames come from the re-read quantized files so training sees
        # exactly what is on disk.
        clean_q = read_wav(edir / "clean.wav")
        noisy_q = read_wav(edir / "noisy.wav")
        noisy_mag = stft(noisy_q, manifest.frame).magnitude
        clean_mag = stft(clean_q, manifest.frame).magnitude
        write_cache(edir / "frames.mcfr", noisy_mag, clean_mag)

    save_manifest(manifest, out_dir / "manifest.json")
    return out_dir


def open_dataset(dataset_dir) -> DatasetManifest:
    dataset_dir = Path(dataset_dir)
    return load_manifest(dataset_dir / "manifest.json")


def entries_for(manifest: DatasetManifest, split: str, noise: str | None = None) -> list:
    out = []
    for e in manifest.entries:
        if e.split != split:
            continue
        if noise is not None and e.noise != noise:
            continue
        out.append(e)
    return out


def entry_dir(dataset_dir, entry: MixEntry) -> Path:
    """Where build_dataset writes an entry's clean.wav, noisy.wav and frames.mcfr."""
    return Path(dataset_dir) / entry.split / entry_id(entry)


def load_entry_frames(dataset_dir, entry: MixEntry) -> tuple[np.ndarray, np.ndarray]:
    cache = entry_dir(dataset_dir, entry) / "frames.mcfr"
    if not cache.exists():
        raise MissingCorpus(f"no frame cache at {cache}")
    try:
        return read_cache(cache)
    except (CorruptFile, VersionMismatch) as exc:  # corpus data, not a model file
        raise CorruptCorpus(str(exc)) from exc


def load_entry_signals(dataset_dir, entry: MixEntry) -> tuple[Signal, Signal]:
    """Returns (clean, noisy) as written to disk."""
    edir = entry_dir(dataset_dir, entry)
    for name in ("clean.wav", "noisy.wav"):
        if not (edir / name).exists():
            raise MissingCorpus(f"missing {edir / name}")
    return read_wav(edir / "clean.wav"), read_wav(edir / "noisy.wav")
