"""Span tracing for the benchmark, from outside the library.

The library imports its layer functions by name (`from .neural import
forward`), so a layer boundary is every module attribute bound to the
layer's function object. `Tracer.install` rebinds each of them to a
timing wrapper and `Tracer.uninstall` puts the originals back. Nothing in
`src/` knows about tracing; an untraced run installs no wrapper at all.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time

import numpy as np

# module -> public functions wrapped at every import site.
LAYERS = {
    "neural": ("forward", "dropout_mask", "backward", "adam_step",
               "msle_loss", "msle_grad", "load_model"),
    "mcdrop": ("mc_spectral_stats",),
    "selection": ("sweep_bank", "route_frames", "select_frames",
                  "load_bank", "decisions_to_csv"),
    "metrics": ("threshold_sweep", "sse", "ssnr"),
    "dsp": ("stft", "istft_overlap_add", "read_wav", "write_wav"),
    "corpus": ("read_cache", "load_entry_signals"),
    "pipeline": ("run_enhance", "run_sweep", "run_evaluate",
                 "run_correlate", "run_train"),
}

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    ("neural.dropout_mask.calls", "count"),
    ("neural.dropout_mask.busy_s", "s"),
    ("neural.dropout_mask.words", "count"),
    ("neural.forward.calls", "count"),
    ("neural.forward.rows", "count"),
    ("neural.forward.self_s", "s"),
    ("neural.forward.gemm_flops", "count"),
    ("mcdrop.mc_spectral_stats.calls", "count"),
    ("mcdrop.mc_spectral_stats.busy_s", "s"),
    ("mcdrop.mc_spectral_stats.self_s", "s"),
    ("mcdrop.mc_spectral_stats.passes", "count"),
    ("mcdrop.mc_spectral_stats.sample_bytes", "B"),
    ("mcdrop.sweep_unique_ratio", "ratio"),
    ("selection.sweep_bank.calls", "count"),
    ("selection.sweep_bank.busy_s", "s"),
    ("selection.route_frames.calls", "count"),
    ("selection.route_frames.busy_s", "s"),
    ("selection.select_frames.self_s", "s"),
    ("metrics.threshold_sweep.busy_s", "s"),
    ("metrics.threshold_sweep.self_s", "s"),
    ("neural.backward.busy_s", "s"),
    ("neural.adam_step.busy_s", "s"),
    ("neural.msle_loss.busy_s", "s"),
    ("neural.msle_grad.busy_s", "s"),
    ("pipeline.run_train.self_s", "s"),
    ("selection.load_bank.calls", "count"),
    ("selection.load_bank.busy_s", "s"),
    ("neural.load_model.calls", "count"),
    ("neural.load_model.busy_s", "s"),
    ("selection.decisions_to_csv.busy_s", "s"),
    ("selection.decisions_to_csv.bytes", "B"),
    ("dsp.stft.calls", "count"),
    ("dsp.stft.busy_s", "s"),
    ("dsp.stft.bytes", "B"),
    ("dsp.istft_overlap_add.calls", "count"),
    ("dsp.istft_overlap_add.busy_s", "s"),
    ("dsp.istft_overlap_add.bytes", "B"),
    ("dsp.read_wav.calls", "count"),
    ("dsp.read_wav.busy_s", "s"),
    ("dsp.read_wav.bytes", "B"),
    ("dsp.write_wav.calls", "count"),
    ("dsp.write_wav.busy_s", "s"),
    ("dsp.write_wav.bytes", "B"),
    ("corpus.read_cache.calls", "count"),
    ("corpus.read_cache.busy_s", "s"),
    ("corpus.read_cache.bytes", "B"),
    ("corpus.load_entry_signals.calls", "count"),
    ("corpus.load_entry_signals.busy_s", "s"),
    ("corpus.load_entry_signals.bytes", "B"),
    ("metrics.sse.busy_s", "s"),
    ("metrics.ssnr.busy_s", "s"),
    ("pipeline.run_enhance.busy_s", "s"),
    ("pipeline.run_sweep.busy_s", "s"),
    ("pipeline.run_evaluate.busy_s", "s"),
    ("pipeline.run_correlate.busy_s", "s"),
    ("pipeline.run_train.busy_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.digest()


def _model_key(model) -> bytes:
    # Bank verbs reload models from disk, so object identity says nothing;
    # the weights do.
    return _digest(model.noise_label, str(model.seed),
                   model.weights[0].tobytes(), model.weights[-1].tobytes())


def _sweep_key(model, frames, cfg) -> tuple:
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    return (_model_key(model), _digest(frames),
            (cfg.n_passes, cfg.tau_inv, cfg.prior_length_scale, cfg.rng_seed))


def _count(counts, key, amount) -> None:
    counts[key] = counts.get(key, 0) + amount


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_call(tracer, name, args, kwargs, result) -> None:
    """Work counts at the boundary of one finished call."""
    c = tracer.counts
    if name == "neural.dropout_mask":
        n_rows, width = _arg(args, kwargs, 2, "n_rows"), _arg(args, kwargs, 3, "width")
        _count(c, "neural.dropout_mask.words", n_rows * width)
    elif name == "neural.forward":
        model, x = args[0], _arg(args, kwargs, 1, "x")
        rows = 1 if getattr(x, "ndim", 1) == 1 else len(x)
        dims = model.layer_dims
        _count(c, "neural.forward.rows", rows)
        _count(c, "neural.forward.gemm_flops",
               2 * rows * sum(a * b for a, b in zip(dims[:-1], dims[1:])))
    elif name == "mcdrop.mc_spectral_stats":
        model, frames, cfg = args[0], _arg(args, kwargs, 1, "mag_frames"), _arg(args, kwargs, 2, "cfg")
        passes = cfg.n_passes if model.keep_prob < 1.0 else 1
        _count(c, "mcdrop.mc_spectral_stats.passes", passes)
        if model.keep_prob < 1.0:
            _count(c, "mcdrop.mc_spectral_stats.sample_bytes",
                   8 * passes * len(frames) * model.out_dim)
        tracer.sweep_keys.add(_sweep_key(model, frames, cfg))
    elif name == "selection.decisions_to_csv":
        _count(c, "selection.decisions_to_csv.bytes", os.path.getsize(_arg(args, kwargs, 2, "path")))
    elif name == "dsp.read_wav":
        _count(c, "dsp.read_wav.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
    elif name == "dsp.write_wav":
        _count(c, "dsp.write_wav.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
    elif name == "dsp.stft":
        _count(c, "dsp.stft.bytes", _arg(args, kwargs, 0, "signal").samples.nbytes)
    elif name == "dsp.istft_overlap_add":
        _count(c, "dsp.istft_overlap_add.bytes", result.samples.nbytes)
    elif name == "corpus.read_cache":
        _count(c, "corpus.read_cache.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
    elif name == "corpus.load_entry_signals":
        # 16-bit PCM payload of the clean and noisy files.
        _count(c, "corpus.load_entry_signals.bytes", 2 * (len(result[0]) + len(result[1])))


def merged_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span, its duration minus the time its child spans cover.

    spans: sequence of (name, start, end, parent, request) with parent the
    index of the enclosing span or -1.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(s[2] - s[1]) - merged_length(children[i]) for i, s in enumerate(spans)]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span,
    request id. Spans stay in memory until `write`."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.sweep_keys = set()
        self.request = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            _count_call(self, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every import site of every layer function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name in LAYERS:
            importlib.import_module(f"mcenhance.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mcenhance" or n.startswith("mcenhance."))]
        for mod_name, fn_names in LAYERS.items():
            home = sys.modules[f"mcenhance.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def metrics(self) -> dict:
        """Per-layer values: calls, busy (union of a name's spans), self
        time, and the work counts gathered at each boundary."""
        selfs = self_times(self.spans)
        calls, busy_iv, self_s = {}, {}, {}
        for span, own in zip(self.spans, selfs):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            busy_iv.setdefault(name, []).append((span[1], span[2]))
            self_s[name] = self_s.get(name, 0.0) + own
        out = {}
        for metric, _unit in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(layer, 0)
            elif kind == "busy_s":
                out[metric] = merged_length(busy_iv.get(layer, ()))
            elif kind == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif metric == "mcdrop.sweep_unique_ratio":
                n = calls.get("mcdrop.mc_spectral_stats", 0)
                out[metric] = len(self.sweep_keys) / n if n else 0.0
            elif not metric.startswith("bench."):
                out[metric] = self.counts.get(metric, 0)
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as columns plus `extra`, one JSON file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["span_names"] = names
        doc["spans"] = {
            "name": [index[s[0]] for s in self.spans],
            "start_s": [round(s[1] - t0, 7) for s in self.spans],
            "end_s": [round(s[2] - t0, 7) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "request": [s[4] for s in self.spans],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
