"""Per-split sweep summaries: the per-frame numbers the report verbs read
of a bank sweep, kept on disk so each (entry, expert) pair of a split is
swept once across evaluate, correlate and sweep.

Per entry of the split, in manifest order, a summary holds each expert's
per-frame squared error against the clean magnitudes [M, n], each
expert's trace variances [M, n] and the classifier posteriors [n, M].
Its key digests every input those numbers are a function of, so a
summary under another key, or malformed bytes, is a miss and the verb
sweeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from .corpus import DatasetManifest, entries_for, entry_dir, entry_id
from .dsp import publish
from .errors import CorruptFile, VersionMismatch
from .mcdrop import McConfig
from .metrics import sse
from .selection import BankOutputs, ModelBank

SUMMARY_MAGIC = b"MCSS"
# Version 2: the MC passes run in float32, so a version 1 summary holds
# other traces and errors and must be swept again, never served.
SUMMARY_VERSION = 2
_KEY_BYTES = 32
# magic, version, key, M, entry count
_HEADER_BYTES = 4 + 4 + _KEY_BYTES + 4 + 4
_CHECKSUM_BYTES = 32


def summary_path(reports_dir, split: str) -> Path:
    return Path(reports_dir) / "sweeps" / f"{split}.mcss"


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def summary_key(bank: ModelBank, mc: McConfig, manifest: DatasetManifest,
                corpus_dir, split: str) -> bytes:
    """sha256 over the format version, each expert file's bytes in bank
    order and the classifier's, every McConfig field, the manifest's
    FrameConfig, and each split entry's id with the bytes of the clean.wav
    and noisy.wav the sweep reads. Raises OSError when a file is missing."""
    n = len(bank.models)
    if len(bank.files) not in (n, n + 1):  # a bank built in memory names no file
        raise ValueError("a summary key needs a bank read by load_bank")
    doc = {
        "version": SUMMARY_VERSION,
        "experts": [_file_sha256(p) for p in bank.files[:n]],
        "classifier": _file_sha256(bank.files[n]) if len(bank.files) > n else None,
        "mc": dataclasses.asdict(mc),
        "frame": dataclasses.asdict(manifest.frame),
        "entries": [[entry_id(e)] + [_file_sha256(entry_dir(corpus_dir, e) / name)
                                     for name in ("clean.wav", "noisy.wav")]
                    for e in entries_for(manifest, split)],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=repr).encode()).digest()


def summarize(outputs: BankOutputs, clean_mag: np.ndarray) -> tuple:
    """One entry's (se [M, n], traces [M, n], posteriors [n, M]) from its
    BankOutputs. The posteriors come first, so a bank without a classifier
    fails before any sweep."""
    posteriors = outputs.posteriors()
    traces = outputs.traces()
    se = np.stack([sse(clean_mag, outputs.mc_stats(j)[0])[1]
                   for j in range(len(outputs.bank.models))])
    return se, traces, posteriors


def write_summary(path, key: bytes, n_models: int, rows) -> None:
    """Publish a summary: magic, version, the 32-byte key, M and the entry
    count (u32 LE), then per entry its frame count n (u32 LE) and the se,
    traces and posteriors blocks as float64 LE, row-major; a sha256 of
    every preceding byte closes the file."""
    if len(key) != _KEY_BYTES:
        raise ValueError(f"summary key must be {_KEY_BYTES} bytes")
    parts = [SUMMARY_MAGIC, np.array([SUMMARY_VERSION], "<u4").tobytes(), key,
             np.array([n_models, len(rows)], "<u4").tobytes()]
    for se, traces, posteriors in rows:
        n = se.shape[1]
        if se.shape != (n_models, n) or traces.shape != (n_models, n) \
                or posteriors.shape != (n, n_models):
            raise ValueError(f"summary blocks {se.shape}, {traces.shape}, {posteriors.shape}"
                             f" for {n_models} models")
        parts.append(np.array([n], "<u4").tobytes())
        parts += [np.ascontiguousarray(a, "<f8").tobytes() for a in (se, traces, posteriors)]
    checksum = hashlib.sha256()
    for part in parts:
        checksum.update(part)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with publish(path) as fh:
        fh.writelines(parts)
        fh.write(checksum.digest())


def read_summary(path) -> tuple[bytes, list]:
    """The key and the per-entry (se, traces, posteriors) rows of a
    summary file; malformed bytes raise CorruptFile, another format
    version VersionMismatch."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER_BYTES + _CHECKSUM_BYTES or data[:4] != SUMMARY_MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    version = int(np.frombuffer(data, "<u4", count=1, offset=4)[0])
    if version != SUMMARY_VERSION:
        raise VersionMismatch(f"{path}: summary version {version}")
    end = len(data) - _CHECKSUM_BYTES
    if hashlib.sha256(data[:end]).digest() != data[end:]:
        raise CorruptFile(f"{path}: checksum mismatch")
    key = data[8:8 + _KEY_BYTES]
    m, count = (int(v) for v in np.frombuffer(data, "<u4", count=2, offset=8 + _KEY_BYTES))
    pos, rows = _HEADER_BYTES, []
    for _ in range(count):
        if pos + 4 > end:
            raise CorruptFile(f"{path}: truncated after {len(rows)} of {count} entries")
        n = int(np.frombuffer(data, "<u4", count=1, offset=pos)[0])
        pos += 4
        if pos + 24 * m * n > end:  # also keeps frombuffer from failing
            raise CorruptFile(f"{path}: entry {len(rows)} overruns the file")
        se, traces, posteriors = (
            np.frombuffer(data, "<f8", count=m * n, offset=pos + 8 * m * n * k).astype(np.float64)
            for k in range(3))
        rows.append((se.reshape(m, n), traces.reshape(m, n), posteriors.reshape(n, m)))
        pos += 24 * m * n
    if pos != end:
        raise CorruptFile(f"{path}: {end - pos} bytes after the last entry")
    return key, rows


def load_summary(path, key: bytes) -> list | None:
    """The rows of the summary at path when it holds key; None on a miss:
    no file, unreadable or malformed bytes, or another key."""
    try:
        found, rows = read_summary(path)
    except (OSError, CorruptFile, VersionMismatch):
        return None
    return rows if found == key else None
