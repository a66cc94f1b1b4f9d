import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zero_sample_wavs
from mcenhance.corpus import (
    NOISE_PRESETS,
    SEEN_NOISES,
    TRAIN_SNRS_DB,
    DatasetManifest,
    MixEntry,
    NoiseSpec,
    build_dataset,
    default_manifest,
    entries_for,
    entry_dir,
    entry_id,
    load_entry_frames,
    load_entry_signals,
    load_manifest,
    manifest_to_dict,
    noise_spec,
    open_dataset,
    read_cache,
    save_manifest,
    synth_noise,
    synth_speech,
    validate_manifest,
    write_cache,
)
from mcenhance.dsp import FrameConfig, Signal, read_wav, stft, write_wav
from mcenhance.errors import (
    CorruptCorpus,
    CorruptFile,
    InvalidManifest,
    InvalidParams,
    McenError,
    MissingCorpus,
    UnsupportedFormat,
    VersionMismatch,
)

FUZZ = settings(max_examples=60, deadline=None, database=None)
# Any JSON value, for the wrong-type probes of the JSON readers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def test_presets_cover_seen_and_unseen():
    assert set(SEEN_NOISES) < set(NOISE_PRESETS)
    unseen = set(NOISE_PRESETS) - set(SEEN_NOISES)
    assert "white" in unseen and "mixed" in unseen


def test_noise_spec_unknown_family():
    with pytest.raises(InvalidParams):
        noise_spec("thunder", seed=0)


def test_synth_speech_deterministic_and_normalized():
    a = synth_speech(2.0, seed=5)
    b = synth_speech(2.0, seed=5)
    c = synth_speech(2.0, seed=6)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert len(a.samples) == 32000
    rms = np.sqrt(np.mean(a.samples ** 2))
    assert rms == pytest.approx(0.1, rel=0.01)


def test_synth_speech_has_silence_gaps():
    sig = synth_speech(3.0, seed=7)
    x = sig.samples
    # at least 50 ms of exact silence in every second of audio
    for sec in range(3):
        window = x[sec * 16000:(sec + 1) * 16000]
        assert np.sum(window == 0.0) >= 800


def test_synth_speech_rejects_too_short():
    with pytest.raises(InvalidParams):
        synth_speech(0.3, seed=0)


def test_synth_speech_is_voiced_like():
    sig = synth_speech(2.0, seed=8)
    mag = stft(sig, FrameConfig()).magnitude
    energy = mag.sum(axis=1)
    voiced = mag[energy > np.percentile(energy, 60)]
    # voiced spectra concentrate their energy below 4 kHz
    low = voiced[:, :129].sum()
    high = voiced[:, 129:].sum()
    assert low > 3.0 * high


def test_synth_noise_deterministic_and_normalized():
    spec = noise_spec("pink_broadband", seed=3)
    a = synth_noise(spec, 2.0)
    b = synth_noise(spec, 2.0)
    np.testing.assert_array_equal(a.samples, b.samples)
    rms = np.sqrt(np.mean(a.samples ** 2))
    assert rms == pytest.approx(0.1, rel=0.01)
    other = synth_noise(noise_spec("pink_broadband", seed=4), 2.0)
    assert not np.array_equal(a.samples, other.samples)


def test_white_noise_is_uncorrelated():
    sig = synth_noise(noise_spec("white", seed=0), 10.0)
    x = sig.samples - sig.samples.mean()
    r1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)
    assert abs(r1) < 0.05


def test_pink_noise_spectral_slope():
    sig = synth_noise(noise_spec("pink_broadband", seed=1), 10.0)
    spectrum = np.abs(np.fft.rfft(sig.samples)) ** 2
    freqs = np.fft.rfftfreq(len(sig.samples), d=1 / 16000)
    band = (freqs >= 100) & (freqs <= 4000)
    logf = np.log2(freqs[band])
    logp = 10 * np.log10(spectrum[band])
    slope = np.polyfit(logf, logp, 1)[0]  # dB per octave
    assert slope == pytest.approx(-3.0, abs=0.5)


def test_rumble_noise_is_lowpass():
    sig = synth_noise(noise_spec("rumble_lowpass", seed=2), 4.0)
    spectrum = np.abs(np.fft.rfft(sig.samples)) ** 2
    freqs = np.fft.rfftfreq(len(sig.samples), d=1 / 16000)
    low = spectrum[(freqs > 20) & (freqs < 200)].sum()
    high = spectrum[freqs > 2000].sum()
    assert low > 50.0 * high


def test_tonal_noise_peaks_at_configured_tones():
    sig = synth_noise(noise_spec("tones_narrow", seed=3), 4.0)
    spectrum = np.abs(np.fft.rfft(sig.samples))
    freqs = np.fft.rfftfreq(len(sig.samples), d=1 / 16000)
    for tone in (2390.0, 2450.0, 2510.0):
        near = spectrum[np.abs(freqs - tone) < 10.0].max()
        far = np.median(spectrum[(freqs > 500) & (freqs < 1500)])
        assert near > 20.0 * far


def test_mixed_noise_is_deterministic():
    a = synth_noise(noise_spec("mixed", seed=4), 2.0)
    b = synth_noise(noise_spec("mixed", seed=4), 2.0)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_wav_noise_tiles_the_file_rms_normalised(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "noise.wav"
    write_wav(path, Signal(0.3 * rng.uniform(-1.0, 1.0, size=1000), 16000))
    source = read_wav(path).samples
    sig = synth_noise(NoiseSpec("wav", {"path": str(path)}), 0.2)
    assert len(sig.samples) == 3200
    tiled = np.concatenate([source, source, source, source[:200]])
    np.testing.assert_allclose(sig.samples, tiled * (0.1 / np.sqrt(np.mean(tiled ** 2))),
                               rtol=1e-12)
    assert np.sqrt(np.mean(sig.samples ** 2)) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(InvalidParams):
        synth_noise(NoiseSpec("wav"), 0.2)


def test_wav_noise_refuses_a_file_with_no_samples(tmp_path):
    for path in zero_sample_wavs(tmp_path):
        with pytest.raises(UnsupportedFormat, match=path.name):
            synth_noise(NoiseSpec("wav", {"path": str(path)}), 1.0)


def test_default_manifest_structure():
    m = default_manifest(seed=0, n_train=4, n_val=2, n_test=3, duration_s=1.0)
    validate_manifest(m)
    train = [e for e in m.entries if e.split == "train"]
    assert len(train) == 4 * len(SEEN_NOISES)
    assert {e.noise for e in train} == set(SEEN_NOISES)
    assert {e.snr_db for e in train} <= set(TRAIN_SNRS_DB)
    test = [e for e in m.entries if e.split == "test"]
    tags = {(e.noise, e.condition) for e in test}
    for noise, cond in tags:
        assert cond == ("seen" if noise in SEEN_NOISES else "unseen")
    # unseen families at -10 dB are present for the generalization checks
    assert any(e.noise == "white" and e.snr_db == -10 for e in test)
    assert any(e.noise == "mixed" and e.snr_db == -10 for e in test)


def test_validate_manifest_rejections():
    m = default_manifest(seed=0, n_train=2, n_val=1, n_test=1, duration_s=1.0)

    bad = DatasetManifest(frame=m.frame, utterances=m.utterances,
                          entries=m.entries + [m.entries[0]])
    with pytest.raises(InvalidManifest):
        validate_manifest(bad)

    unknown = DatasetManifest(
        frame=m.frame, utterances=m.utterances,
        entries=m.entries + [MixEntry(clean_id=m.entries[0].clean_id,
                                      noise="thunder", snr_db=0,
                                      split="train", seed=1)])
    with pytest.raises(InvalidManifest):
        validate_manifest(unknown)

    off_grid = DatasetManifest(
        frame=m.frame, utterances=m.utterances,
        entries=[MixEntry(clean_id=m.entries[0].clean_id, noise="white",
                          snr_db=7, split="test", seed=1)])
    with pytest.raises(InvalidManifest):
        validate_manifest(off_grid)

    # unseen noise in the train split breaks the seen/unseen discipline
    leak = DatasetManifest(
        frame=m.frame, utterances=m.utterances,
        entries=m.entries + [MixEntry(clean_id=m.entries[0].clean_id,
                                      noise="white", snr_db=0,
                                      split="train", seed=2)])
    with pytest.raises(InvalidManifest):
        validate_manifest(leak)

    mislabeled = default_manifest(seed=0, n_train=2, n_val=1, n_test=1,
                                  duration_s=1.0)
    for e in mislabeled.entries:
        if e.split == "test" and e.noise == "white":
            e.condition = "seen"
    with pytest.raises(InvalidManifest):
        validate_manifest(mislabeled)


def test_entry_id_format():
    e = MixEntry(clean_id="test_0003", noise="white", snr_db=-10,
                 split="test", seed=0)
    assert entry_id(e) == "test_0003__white__snr-10"
    e2 = MixEntry(clean_id="tr_0001", noise="pink_broadband", snr_db=5,
                  split="train", seed=0)
    assert entry_id(e2) == "tr_0001__pink_broadband__snr+05"


def test_manifest_save_load_roundtrip(tmp_path):
    m = default_manifest(seed=1, n_train=2, n_val=1, n_test=1, duration_s=1.0)
    validate_manifest(m)
    path = tmp_path / "manifest.json"
    save_manifest(m, path)
    back = load_manifest(path)
    assert len(back.entries) == len(m.entries)
    assert back.frame == m.frame
    assert [entry_id(e) for e in back.entries] == [entry_id(e) for e in m.entries]
    with pytest.raises(MissingCorpus):
        load_manifest(tmp_path / "nope.json")


def test_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    noisy = rng.uniform(0, 3, size=(11, 257)).astype(np.float32).astype(np.float64)
    clean = rng.uniform(0, 3, size=(11, 257)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f.mcfr"
    write_cache(path, noisy, clean)
    n2, c2 = read_cache(path)
    assert n2.dtype == np.float64
    np.testing.assert_array_equal(n2, noisy)
    np.testing.assert_array_equal(c2, clean)


def test_cache_corruption_detected(tmp_path):
    path = tmp_path / "f.mcfr"
    write_cache(path, np.ones((2, 4)), np.ones((2, 4)))
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.mcfr"
    bad_magic.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(CorruptFile):
        read_cache(bad_magic)

    truncated = tmp_path / "t.mcfr"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(CorruptFile):
        read_cache(truncated)

    version = tmp_path / "v.mcfr"
    version.write_bytes(raw[:4] + (9).to_bytes(4, "little") + raw[8:])
    with pytest.raises(VersionMismatch):
        read_cache(version)


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("block", ["noisy", "clean"])
def test_cache_with_a_bad_magnitude_is_corrupt(tmp_path, value, block):
    noisy, clean = np.ones((3, 4)), np.ones((3, 4))
    (noisy if block == "noisy" else clean)[2, 1] = value
    path = tmp_path / "f.mcfr"
    write_cache(path, noisy, clean)
    with pytest.raises(CorruptFile, match="f.mcfr"):
        read_cache(path)


def test_a_corrupt_frame_cache_is_corpus_data(tmp_path):
    manifest = default_manifest(seed=1, n_train=1, n_val=1, n_test=1, duration_s=1.0)
    entry = manifest.entries[0]
    clean = np.ones((3, 4))
    clean[0, 0] = np.nan
    path = entry_dir(tmp_path, entry) / "frames.mcfr"
    path.parent.mkdir(parents=True)
    write_cache(path, np.ones((3, 4)), clean)
    with pytest.raises(CorruptCorpus, match="frames.mcfr"):
        load_entry_frames(tmp_path, entry)


@pytest.fixture(scope="module")
def small_built(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = default_manifest(seed=2, n_train=2, n_val=1, n_test=1,
                                duration_s=1.0)
    out = build_dataset(manifest, root / "d")
    return out, manifest


def test_build_dataset_layout(small_built):
    out, manifest = small_built
    assert (out / "manifest.json").exists()
    for e in manifest.entries[:5]:
        d = out / e.split / entry_id(e)
        assert (d / "clean.wav").exists()
        assert (d / "noisy.wav").exists()
        assert (d / "frames.mcfr").exists()


def test_build_dataset_frames_match_wavs(small_built):
    out, manifest = small_built
    m = open_dataset(out)
    e = m.entries[0]
    clean, noisy = load_entry_signals(out, e)
    nm, cm = load_entry_frames(out, e)
    np.testing.assert_allclose(
        nm, stft(noisy, m.frame).magnitude.astype(np.float32), rtol=1e-6)
    np.testing.assert_allclose(
        cm, stft(clean, m.frame).magnitude.astype(np.float32), rtol=1e-6)


def test_build_dataset_snr_after_quantization(small_built):
    out, _ = small_built
    m = open_dataset(out)
    for e in m.entries[:8]:
        clean, noisy = load_entry_signals(out, e)
        resid = noisy.samples - clean.samples
        got = 10 * np.log10(np.sum(clean.samples ** 2) / np.sum(resid ** 2))
        assert got == pytest.approx(e.snr_db, abs=1e-3)


def test_build_dataset_is_idempotent(small_built, tmp_path):
    out, manifest = small_built
    again = build_dataset(manifest, tmp_path / "d2")
    e = manifest.entries[0]
    d1 = out / e.split / entry_id(e)
    d2 = again / e.split / entry_id(e)
    for name in ("clean.wav", "noisy.wav", "frames.mcfr"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_entries_for_filters(small_built):
    _, manifest = small_built
    train = entries_for(manifest, "train")
    assert all(e.split == "train" for e in train)
    pink = entries_for(manifest, "train", noise="pink_broadband")
    assert all(e.noise == "pink_broadband" for e in pink)
    assert len(pink) == 2


def test_load_entry_frames_missing(small_built):
    out, manifest = small_built
    fake = MixEntry(clean_id="nope", noise="white", snr_db=0,
                    split="test", seed=0)
    with pytest.raises(MissingCorpus):
        load_entry_frames(out, fake)


def test_load_entry_frames_reports_a_damaged_cache_as_corpus_data(tmp_path):
    e = MixEntry(clean_id="test_0000", noise="white", snr_db=0, split="test", seed=0)
    path = tmp_path / e.split / entry_id(e) / "frames.mcfr"
    path.parent.mkdir(parents=True)
    write_cache(path, np.ones((2, 4)), np.ones((2, 4)))
    raw = path.read_bytes()
    for damaged in (b"ZZZZ" + raw[4:], raw[:-8], raw[:4] + (9).to_bytes(4, "little") + raw[8:]):
        path.write_bytes(damaged)
        with pytest.raises(CorruptCorpus, match="frames.mcfr"):
            load_entry_frames(tmp_path, e)


def _valid_cache(tmp_path_factory) -> bytes:
    path = tmp_path_factory.getbasetemp() / "fuzz_valid.mcfr"
    write_cache(path, np.arange(12.0).reshape(3, 4), np.ones((3, 4)))
    return path.read_bytes()


@FUZZ
@given(cut=st.integers(1, 16 + 2 * 12 * 4))
def test_read_cache_refuses_every_truncation(tmp_path_factory, cut):
    path = tmp_path_factory.getbasetemp() / "fuzz.mcfr"
    path.write_bytes(_valid_cache(tmp_path_factory)[:-cut])
    with pytest.raises(CorruptFile):
        read_cache(path)


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, 16 + 2 * 12 * 4 - 1), st.integers(1, 255)),
                      min_size=1, max_size=4),
       cut=st.integers(0, 8))
def test_read_cache_is_total_under_byte_flips(tmp_path_factory, flips, cut):
    raw = bytearray(_valid_cache(tmp_path_factory))
    for pos, mask in flips:
        raw[pos] ^= mask
    path = tmp_path_factory.getbasetemp() / "fuzz.mcfr"
    path.write_bytes(bytes(raw[:len(raw) - cut]))
    try:
        noisy, clean = read_cache(path)
    except McenError:
        return
    assert noisy.shape == clean.shape and noisy.dtype == clean.dtype == np.float64


def _manifest_fields(data) -> list:
    """Paths to the manifest's containers and to one record of each kind."""
    paths = [("frame",), ("utterances",), ("entries",), ("utterances", 0), ("entries", 0)]
    paths += [("frame", k) for k in data["frame"]]
    for kind in ("utterances", "entries"):
        paths += [(kind, 0, k) for k in data[kind][0]]
    return paths


@FUZZ
@given(data=st.data())
def test_load_manifest_is_total_under_wrong_json_types(tmp_path_factory, data):
    doc = manifest_to_dict(default_manifest(seed=1, n_train=1, n_val=1, n_test=1,
                                            duration_s=1.0))
    where = data.draw(st.sampled_from(_manifest_fields(doc) + [()]))
    value = data.draw(JSON_VALUES)
    if where:
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    else:
        doc = value
    path = tmp_path_factory.getbasetemp() / "fuzz_manifest.json"
    path.write_text(json.dumps(doc))
    try:
        load_manifest(path)
    except McenError:
        pass
