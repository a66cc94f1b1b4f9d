"""mcenhance benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload report --seed 0 --seconds 20 --trace 0

Run from the repository root; the program under test is imported from
`src/`. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run repeats one
round with every layer boundary traced and the metrics are per layer.
The exit code is 0 only when every output check passed. See
bench/README.md for the workloads, the metrics and how to read a trace.
"""

from __future__ import annotations

import os
import sys

# numpy reads these when it loads, so they go first. BLAS pools get one
# thread. numpy's huge-page advice for large arrays is off: whether the
# kernel can grant huge pages depends on memory fragmentation, and with it
# on, the same MC sweep varied about 11% call to call against 5% without.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(PINNED_ENV)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# The checkout's own sources, ahead of anything installed.
sys.path.insert(0, str(SRC))

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("audio_s_per_s", "s/s"),
    ("rtf_mean", "s/s"),
    ("rtf_tail", "s/s"),
    ("peak_rss_mb", "MB"),
    ("eval_sse_ratio", "ratio"),
)
TAIL_BEYOND = 10
# One set-up takes seconds; a run must end within three minutes.
SETUP_TIMEOUT_S = 60


def nearest_rank(xs, pct: float):
    """Percentile of sorted `xs` by nearest rank: the value at rank
    ceil(pct / 100 * n), so p50 of an even count is the lower median."""
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1]


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> float:
    """Highest percentile of n samples that still has `beyond` samples
    above it. With 2 * beyond samples or fewer no such point lies above the
    median, so p90 stands in."""
    if n < 1:
        raise ValueError("no samples")
    if n <= 2 * beyond:
        return 90.0
    return 100.0 * (n - beyond) / n


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "mcenhance").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "pinned_env": {var: os.environ[var] for var in PINNED_ENV},
    }


# The child puts the checkout's sources and the benchmark on its path,
# then builds one workload's fixtures.
_SET_UP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                 "workloads.build_fixtures(sys.argv[3], sys.argv[4], int(sys.argv[5]), "
                 "sys.argv[6])")


def _set_up(name: str, fixtures: Path, seed: int, scale_name: str, repeats: int) -> float:
    """Median seconds of `repeats` complete set-ups, each in a fresh
    process; the last one's fixtures stay for the timed phase. Each child
    is waited for (and killed first if it overruns), so none outlives the
    run."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(fixtures, ignore_errors=True)
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", _SET_UP_CHILD, str(SRC), str(BENCH), name,
                 str(fixtures), str(seed), scale_name],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"set-up of {name} took over {SETUP_TIMEOUT_S} s") from None
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise RuntimeError(f"set-up of {name} failed with exit code {done.returncode}")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(wl, work: Path, seconds: float, tracer=None, max_rounds=None) -> list:
    """Whole rounds, back to back, while at least half of the next one is
    expected to fit in `seconds`; at least one. Returns (wall_s, ops,
    out_dir) per round."""
    clock = time.perf_counter
    rounds = []
    start = clock()
    while True:
        out = work / f"{'traced' if tracer else 'round'}{len(rounds)}"
        out.mkdir(parents=True)
        t0 = clock()
        ops = wl.round(out, clock, tracer)
        rounds.append((clock() - t0, ops, out))
        if max_rounds is not None and len(rounds) >= max_rounds:
            return rounds
        typical = statistics.median(r[0] for r in rounds)
        if clock() - start + typical / 2 > seconds:
            return rounds


def check_rounds(wl, rounds, failures: dict, reference=None) -> tuple:
    """Structural checks of every round, plus byte-identical artifacts
    across rounds (and against `reference` when given). Fills `failures`
    with (round, op) -> messages; returns (digest, quality)."""
    digest = reference
    quality = None
    for r, (_, ops, out) in enumerate(rounds):
        for i, op in enumerate(ops):
            if op.errors:
                failures.setdefault((out.name, i), []).extend(op.errors)
        result = wl.check(out)
        for i, messages in result.failures.items():
            failures.setdefault((out.name, i), []).extend(messages)
        if digest is None:
            digest = result.digest
        elif result.digest != digest:
            failures.setdefault((out.name, 0), []).append(
                f"{out.name}: artifacts differ from the first round")
        quality = result.sse_ratio
    return digest, quality


def _reference_digest(name: str, seed: int, scale_name: str):
    path = BENCH / "reference_digests.json"
    if scale_name != "desk" or not path.exists():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> int:
    import workloads
    from spans import PER_LAYER, Tracer

    scale = workloads.SCALES[args.scale]
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        setup_s = _set_up(args.workload, work / "fixtures", args.seed, args.scale,
                          scale.setup_repeats)
        wl = workloads.WORKLOADS[args.workload](work / "fixtures", args.seed, scale)
        (work / "warm").mkdir()
        start = time.perf_counter()
        wl.warm_up(work / "warm")
        warm_s = time.perf_counter() - start

        rounds = measure(wl, work, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "train":
            frames = wl.frames_per_round() * len(rounds)
        failures = {}
        digest, quality = check_rounds(wl, rounds, failures)

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl, work, args.seconds, tracer=tracer, max_rounds=1)
            finally:
                tracer.uninstall()
            # Tracing must not change a single output byte.
            check_rounds(wl, traced, failures, reference=digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for _, round_ops, _ in rounds for op in round_ops]
    walls = [r[0] for r in rounds]
    attempted = len(ops) + (len(traced[0][1]) if args.trace else 0)
    failed = len(failures)
    for (where, i), messages in sorted(failures.items()):
        for message in messages:
            print(f"FAIL {args.workload} {where} op {i}: {message}")

    # The tail percentile follows from the size of one round, which the
    # workload fixes, so it does not shift with how many rounds fit.
    rtfs = sorted(op.latency_s / op.audio_s for op in ops)
    tail_pct = tail_percentile(len(rounds[0][1]))
    n = len(rtfs)
    print(f"run {args.workload} seed={args.seed} scale={args.scale} rounds={len(rounds)} "
          f"ops={len(ops)} warm_up_s={warm_s:.4f} failed_ratio={failed / attempted:.4g} "
          f"({failed}/{attempted}) rtf_tail=p{tail_pct:.1f} of n={n} "
          f"round_s=[{', '.join(f'{w:.3f}' for w in walls)}]")
    stage_names = sorted({k for op in ops for k in op.stages})
    for stage in stage_names:
        median = statistics.median(op.stages[stage] for op in ops)
        print(f"stage {stage} {median:.6g} s")
    if args.workload == "report":
        sweep = [op.stages["sweep_val_s"] + op.stages["sweep_test_s"] for op in ops]
        print(f"stage sweep_s {statistics.median(sweep):.6g} s (val plus test)")
    if args.workload == "train":
        print(f"stage train_frames_per_s {frames / sum(walls):.6g} 1/s")
    reference = _reference_digest(args.workload, args.seed, args.scale)
    match = "n/a" if reference is None else ("yes" if reference == digest else "NO")
    print(f"digest {args.workload} seed={args.seed} sha256={digest} "
          f"reference={reference} match={match}")

    if args.trace:
        metrics = tracer.metrics()
        metrics["bench.trace_overhead_s"] = traced[0][0] - statistics.median(walls)
        units = dict(PER_LAYER)
        out = {name: _metric(metrics[name], units[name]) for name, _ in PER_LAYER}
        trace_dir = BENCH / "_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"env": env, "workload": args.workload,
                                  "seed": args.seed, "metrics": metrics})
        print(f"trace {trace_path.relative_to(ROOT)} spans={len(tracer.spans)} "
              f"overhead_s={metrics['bench.trace_overhead_s']:.4f}")
    else:
        values = {
            "setup_s": setup_s + warm_s,
            "wall_s": statistics.median(walls),
            "audio_s_per_s": sum(op.audio_s for op in ops) / sum(walls),
            "rtf_mean": statistics.fmean(rtfs),
            "rtf_tail": nearest_rank(rtfs, tail_pct),
            "peak_rss_mb": peak_rss_mb,
            "eval_sse_ratio": quality,
        }
        out = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        for name, metric in out.items():
            print(f"metric {name} {metric['value']:.6g} {metric['unit']}")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enhance-mixed", "report", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds for up to this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("desk", "mini"), default="desk",
                        help="mini is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "mcenhance" / "__init__.py").is_file():
        print(f"error: no mcenhance sources under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
