"""Framing, STFT/inverse STFT, SNR-exact mixing, 16-bit WAV I/O, and file publishing."""

from __future__ import annotations

import wave
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    NoiseTooShort,
    ShapeMismatch,
    SignalTooShort,
    SilentClean,
    SilentNoise,
    UnsupportedFormat,
)

PCM_SCALE = 32768.0
# Overlap-add samples with summed squared window below this are muted.
OLA_FLOOR = 1e-8
# Longest audio read or synthesized, in seconds: ten minutes (9.6 M
# samples at 16 kHz), far above the paper's few-second utterances. A sweep
# holds all of an utterance's frames at once, so longer audio is refused
# before any of its samples is read or made.
MAX_DURATION_S = 600.0


@dataclass(frozen=True)
class FrameConfig:
    """Analysis geometry: 32 ms frames, 10 ms hop, 512-point FFT at 16 kHz."""

    sample_rate_hz: int = 16000
    frame_len_samples: int = 512
    hop_samples: int = 160
    fft_size: int = 512

    def __post_init__(self):
        if self.sample_rate_hz <= 0 or self.frame_len_samples <= 0 or self.hop_samples <= 0:
            raise ValueError("FrameConfig fields must be positive")
        if self.hop_samples > self.frame_len_samples:
            raise ValueError("hop must not exceed frame length")
        if self.fft_size < self.frame_len_samples:
            raise ValueError("fft_size must be >= frame length")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass
class Signal:
    """Mono waveform with amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class SpectralFrames:
    """Per-frame magnitude and phase of the positive-frequency spectrum."""

    magnitude: np.ndarray  # [n_frames, n_bins], >= 0
    phase: np.ndarray      # [n_frames, n_bins], radians


def hamming_window(length: int) -> np.ndarray:
    """Symmetric Hamming window, 0.54 - 0.46*cos(2*pi*n/(L-1))."""
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def n_frames_for(n_samples: int, cfg: FrameConfig) -> int:
    """Frame count 1 + floor((len - frame)/hop); trailing remainder dropped."""
    if n_samples < cfg.frame_len_samples:
        raise SignalTooShort(
            f"signal of {n_samples} samples shorter than frame {cfg.frame_len_samples}"
        )
    return 1 + (n_samples - cfg.frame_len_samples) // cfg.hop_samples


def frame_signal(signal: Signal, cfg: FrameConfig) -> np.ndarray:
    """Slice a signal into overlapping frames [n_frames, frame_len]."""
    x = signal.samples
    n = n_frames_for(len(x), cfg)
    idx = np.arange(cfg.frame_len_samples)[None, :] + cfg.hop_samples * np.arange(n)[:, None]
    return x[idx]


def stft(signal: Signal, cfg: FrameConfig) -> SpectralFrames:
    """Hamming-windowed short-time Fourier transform, first n_bins points."""
    frames = frame_signal(signal, cfg)
    spec = np.fft.rfft(frames * hamming_window(cfg.frame_len_samples), n=cfg.fft_size, axis=1)
    return SpectralFrames(magnitude=np.abs(spec), phase=np.angle(spec))


def istft_overlap_add(magnitude: np.ndarray, phase: np.ndarray, cfg: FrameConfig) -> Signal:
    """Weighted overlap-add reconstruction using the analysis window.

    Each frame spectrum is inverted assuming Hermitian symmetry, weighted by
    the Hamming window again, accumulated at its hop position, and the result
    is normalized per sample by the summed squared window.
    """
    magnitude = np.asarray(magnitude, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    if magnitude.shape != phase.shape:
        raise ShapeMismatch(f"magnitude {magnitude.shape} vs phase {phase.shape}")
    if magnitude.ndim != 2 or magnitude.shape[1] != cfg.n_bins:
        raise ShapeMismatch(f"expected [n_frames, {cfg.n_bins}], got {magnitude.shape}")
    if np.any(magnitude < 0):
        raise ShapeMismatch("magnitude entries must be nonnegative")

    n_frames = magnitude.shape[0]
    frame_len = cfg.frame_len_samples
    window = hamming_window(frame_len)
    frames = np.fft.irfft(magnitude * np.exp(1j * phase), n=cfg.fft_size, axis=1)[:, :frame_len]
    frames *= window

    out_len = (n_frames - 1) * cfg.hop_samples + frame_len
    acc = np.zeros(out_len)
    norm = np.zeros(out_len)
    win_sq = window * window
    for i in range(n_frames):
        start = i * cfg.hop_samples
        acc[start:start + frame_len] += frames[i]
        norm[start:start + frame_len] += win_sq
    voiced = norm >= OLA_FLOOR
    out = np.zeros(out_len)
    out[voiced] = acc[voiced] / norm[voiced]
    return Signal(out, cfg.sample_rate_hz)


def mix_at_snr(
    clean: Signal,
    noise: Signal,
    snr_db: float,
    allow_tile: bool = False,
) -> tuple[Signal, float]:
    """Add scaled noise to clean speech so that the mixture hits snr_db exactly.

    Power is the mean squared amplitude over the full clean support.  The noise
    is truncated to the clean length, or tiled first when shorter and
    allow_tile is set.  Returns the mixture and the applied noise scale.
    """
    c = clean.samples
    n = noise.samples
    if len(n) < len(c):
        if not allow_tile:
            raise NoiseTooShort(f"noise {len(n)} < clean {len(c)} samples")
        n = np.tile(n, int(np.ceil(len(c) / len(n))))
    n = n[:len(c)]

    p_clean = float(np.mean(c * c))
    p_noise = float(np.mean(n * n))
    if p_clean == 0.0:
        raise SilentClean("clean signal has zero power")
    if p_noise == 0.0:
        raise SilentNoise("noise segment has zero power")

    scale = float(np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0))))
    return Signal(c + scale * n, clean.sample_rate_hz), scale


@contextmanager
def publish(path, mode: str = "wb", newline: str | None = None):
    """Write a file through a sibling `<name>.tmp` that is moved onto path
    when the block ends, so a reader never sees a partial file and an
    interrupted write leaves any earlier file whole. If the block raises,
    the .tmp is deleted. Yields the .tmp opened with mode and newline."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_wav(path) -> Signal:
    """Read a 16 kHz 16-bit PCM mono WAV of at most MAX_DURATION_S into
    [-1, 1] samples."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            rate = wf.getframerate()
            n = wf.getnframes()
            if n_channels != 1:
                raise UnsupportedFormat(f"{path}: expected mono, got {n_channels} channels")
            if sampwidth != 2:
                raise UnsupportedFormat(
                    f"{path}: expected 16-bit samples, got {8 * sampwidth}-bit")
            if rate != 16000:
                raise UnsupportedFormat(f"{path}: expected 16000 Hz, got {rate}")
            # A streamed file's placeholder size is 0, so its samples would go unread.
            if n == 0:
                raise UnsupportedFormat(f"{path}: header declares no samples")
            if n > MAX_DURATION_S * rate:
                raise UnsupportedFormat(f"{path}: header declares {n / rate:.6g} s, "
                                        f"longer than {MAX_DURATION_S} s")
            raw = wf.readframes(n)
    except (wave.Error, EOFError) as exc:
        raise UnsupportedFormat(f"{path}: not a readable WAV file ({exc})") from exc
    # wave returns what the file holds, so a data chunk that ends early (cut
    # at or inside a sample, or a streamed file's placeholder size) is short.
    if len(raw) != n * sampwidth:
        raise UnsupportedFormat(
            f"{path}: data chunk holds {len(raw)} bytes, header says {n * sampwidth}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    return Signal(samples, rate)


def write_wav(path, signal: Signal) -> None:
    """Write a Signal as 16 kHz 16-bit PCM mono WAV (values clipped to range)."""
    if signal.sample_rate_hz != 16000:
        raise UnsupportedFormat(f"expected 16000 Hz signal, got {signal.sample_rate_hz}")
    pcm = np.clip(np.round(signal.samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with publish(path) as fh, wave.open(fh, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(pcm.tobytes())
