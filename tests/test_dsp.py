import numpy as np
import pytest

from conftest import zero_sample_wavs
from mcenhance import dsp
from mcenhance.dsp import (
    FrameConfig,
    Signal,
    frame_signal,
    hamming_window,
    istft_overlap_add,
    mix_at_snr,
    n_frames_for,
    read_wav,
    stft,
    write_wav,
)
from mcenhance.errors import (
    NoiseTooShort,
    SignalTooShort,
    SilentClean,
    SilentNoise,
    UnsupportedFormat,
)

CFG = FrameConfig()


def test_frame_config_defaults():
    assert CFG.sample_rate_hz == 16000
    assert CFG.frame_len_samples == 512
    assert CFG.hop_samples == 160
    assert CFG.fft_size == 512
    assert CFG.n_bins == 257


def test_hamming_window_endpoints_and_symmetry():
    w = hamming_window(512)
    # symmetric form: w[k] = 0.54 - 0.46 cos(2 pi k / (L-1))
    assert w[0] == pytest.approx(0.08, abs=1e-12)
    assert w[-1] == pytest.approx(0.08, abs=1e-12)
    np.testing.assert_allclose(w, w[::-1], atol=1e-15)
    k = np.arange(512)
    expect = 0.54 - 0.46 * np.cos(2.0 * np.pi * k / 511)
    np.testing.assert_allclose(w, expect, atol=1e-12)


def test_n_frames_for():
    assert n_frames_for(512, CFG) == 1
    assert n_frames_for(512 + 160, CFG) == 2
    assert n_frames_for(512 + 159, CFG) == 1
    assert n_frames_for(16000, CFG) == 1 + (16000 - 512) // 160


def test_frame_signal_no_window():
    rng = np.random.default_rng(0)
    sig = Signal(rng.standard_normal(512 + 2 * 160), 16000)
    frames = frame_signal(sig, CFG)
    assert frames.shape == (3, 512)
    np.testing.assert_array_equal(frames[1], sig.samples[160:160 + 512])


def test_stft_shapes_and_magnitude_nonneg():
    rng = np.random.default_rng(1)
    sig = Signal(rng.standard_normal(16000), 16000)
    sf = stft(sig, CFG)
    n = n_frames_for(16000, CFG)
    assert sf.magnitude.shape == (n, 257)
    assert sf.phase.shape == (n, 257)
    assert np.all(sf.magnitude >= 0.0)


def test_stft_rejects_short_signal():
    with pytest.raises(SignalTooShort):
        stft(Signal(np.zeros(511), 16000), CFG)


def test_stft_roundtrip_interior():
    rng = np.random.default_rng(2)
    for trial in range(5):
        x = rng.standard_normal(16000) * 0.1
        sf = stft(Signal(x, 16000), CFG)
        y = istft_overlap_add(sf.magnitude, sf.phase, CFG).samples
        lo, hi = CFG.frame_len_samples, len(y) - CFG.frame_len_samples
        err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
        assert err < 1e-6


def test_istft_output_length():
    mag = np.ones((7, 257))
    phase = np.zeros((7, 257))
    out = istft_overlap_add(mag, phase, CFG)
    assert len(out.samples) == (7 - 1) * CFG.hop_samples + CFG.frame_len_samples


def test_mix_at_snr_hits_target():
    rng = np.random.default_rng(3)
    clean = Signal(rng.standard_normal(8000) * 0.05, 16000)
    noise = Signal(rng.standard_normal(8000) * 0.05, 16000)
    for snr in (-10, -5, 0, 5, 10):
        mixed, scale = mix_at_snr(clean, noise, snr)
        resid = mixed.samples - clean.samples
        got = 10.0 * np.log10(np.sum(clean.samples ** 2) / np.sum(resid ** 2))
        assert got == pytest.approx(snr, abs=1e-6)
        assert scale > 0.0


def test_mix_at_snr_errors():
    z = Signal(np.zeros(4000), 16000)
    x = Signal(np.ones(4000) * 0.01, 16000)
    with pytest.raises(SilentClean):
        mix_at_snr(z, x, 0)
    with pytest.raises(SilentNoise):
        mix_at_snr(x, z, 0)
    short = Signal(np.ones(2000) * 0.01, 16000)
    with pytest.raises(NoiseTooShort):
        mix_at_snr(x, short, 0)
    tiled, _ = mix_at_snr(x, short, 0, allow_tile=True)
    assert len(tiled.samples) == 4000


def test_wav_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    x = np.clip(rng.standard_normal(5000) * 0.1, -1, 1)
    path = tmp_path / "x.wav"
    write_wav(path, Signal(x, 16000))
    back = read_wav(path)
    assert back.sample_rate_hz == 16000
    assert len(back.samples) == 5000
    # one quantization step of 16-bit PCM
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0 + 1e-12


def test_wav_quantization_is_idempotent(tmp_path):
    rng = np.random.default_rng(5)
    x = np.clip(rng.standard_normal(3000) * 0.3, -1, 1)
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(p1, Signal(x, 16000))
    once = read_wav(p1)
    write_wav(p2, once)
    twice = read_wav(p2)
    np.testing.assert_array_equal(once.samples, twice.samples)


def test_read_wav_rejects_other_formats(tmp_path):
    import wave

    path = tmp_path / "bad.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(b"\x00" * 400)
    with pytest.raises(UnsupportedFormat):
        read_wav(path)

    path2 = tmp_path / "rate.wav"
    with wave.open(str(path2), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(b"\x00" * 400)
    with pytest.raises(UnsupportedFormat):
        read_wav(path2)

    garbage = tmp_path / "noise.wav"
    garbage.write_bytes(b"not a wav at all")
    with pytest.raises(UnsupportedFormat):
        read_wav(garbage)

    # A 16-bit WAV cut one byte short ends mid-sample.
    cut = tmp_path / "cut.wav"
    write_wav(cut, Signal(np.zeros(100), 16000))
    cut.write_bytes(cut.read_bytes()[:-1])
    with pytest.raises(UnsupportedFormat, match="cut.wav"):
        read_wav(cut)

    # Cut at a sample boundary, it is a whole sample shorter than its header says.
    short = tmp_path / "short.wav"
    write_wav(short, Signal(np.zeros(100), 16000))
    short.write_bytes(short.read_bytes()[:-2])
    with pytest.raises(UnsupportedFormat, match="short.wav"):
        read_wav(short)

    # A streamed WAV whose data size is a placeholder larger than its data.
    streamed = tmp_path / "streamed.wav"
    write_wav(streamed, Signal(np.zeros(100), 16000))
    data = bytearray(streamed.read_bytes())
    at = data.index(b"data") + 4
    data[at:at + 4] = (0xFFFFFFFF).to_bytes(4, "little")
    streamed.write_bytes(bytes(data))
    with pytest.raises(UnsupportedFormat, match="streamed.wav"):
        read_wav(streamed)

    # A header that declares no samples: a streamed file's placeholder size
    # 0 would leave the samples after it unread, and an empty file has none.
    for path in zero_sample_wavs(tmp_path):
        with pytest.raises(UnsupportedFormat, match=path.name):
            read_wav(path)


def test_read_wav_refuses_a_file_longer_than_the_bound(tmp_path, monkeypatch):
    # The bound is read from the header, so a 0.1 s bound shows it on
    # small files: 1600 samples load, 1601 do not.
    monkeypatch.setattr(dsp, "MAX_DURATION_S", 0.1)
    for n in (1600, 1601):
        write_wav(tmp_path / f"{n}.wav", Signal(np.zeros(n), 16000))
    assert len(read_wav(tmp_path / "1600.wav")) == 1600
    with pytest.raises(UnsupportedFormat, match=r"1601\.wav.*0\.1 s"):
        read_wav(tmp_path / "1601.wav")


def test_write_wav_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(path, Signal(np.array([2.0, -2.0, 0.0]), 16000))
    back = read_wav(path)
    assert back.samples[0] == pytest.approx(32767 / 32768)
    assert back.samples[1] == pytest.approx(-1.0)
