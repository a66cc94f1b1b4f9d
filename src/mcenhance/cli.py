"""Command-line entry point.

Verbs: synth, train, enhance, evaluate, correlate, sweep.  Exit codes:
0 success, 2 usage, 3 data or runtime failure, 4 missing or corrupt model files.

A flag that names a config key (--seed, --epochs, --policies, --mu-grid, ...)
overrides that key and is checked like it before the verb runs.  single-conv
and single-mc both decode the one model that `train single` writes.
"""

from __future__ import annotations

import argparse
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    # Shared flags live on a parent with SUPPRESS defaults so they parse
    # on either side of the verb without the subparser clobbering them.
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file (keys mirror "
                        "ExperimentConfig fields)")
    common.add_argument("--seed", type=int, help="master experiment seed")
    common.add_argument("--threads", type=int,
                        help="cap BLAS/OpenMP threads (set before numpy loads)")
    common.add_argument("--reports-dir", help="where CSV reports are written")
    common.add_argument("--corpus-dir", help="dataset root")
    common.add_argument("--models-dir", help="model file root")

    parser = argparse.ArgumentParser(
        prog="mcenhance",
        description="Dropout-ensemble speech enhancement with "
                    "variance-driven model selection.",
        parents=[common])

    sub = parser.add_subparsers(dest="verb", metavar="verb")

    p = sub.add_parser("synth", parents=[common],
                       help="synthesize the speech+noise corpus")
    p.add_argument("--manifest", help="use this manifest instead of the default")
    p.add_argument("--n-train", type=int, help="training utterances")
    p.add_argument("--n-val", type=int, help="validation utterances")
    p.add_argument("--n-test", type=int, help="test utterances")
    p.add_argument("--duration", type=float, help="utterance length, seconds")

    p = sub.add_parser("train", parents=[common], help="train one model scope")
    p.add_argument("scope", choices=("single", "per-noise", "classifier", "all"))
    p.add_argument("--epochs", type=int, help="training epochs")

    p = sub.add_parser("enhance", parents=[common], help="enhance one WAV file")
    p.add_argument("policy", choices=("single-conv", "single-mc", "class-conv",
                                      "class-mc", "var-mc", "mu-mc"))
    p.add_argument("input", help="noisy WAV in")
    p.add_argument("output", help="enhanced WAV out")
    p.add_argument("--mu", type=float, help="threshold for the mu-mc policy")
    p.add_argument("--decisions", help="per-frame decision CSV path "
                   "(default: alongside the output)")

    p = sub.add_parser("evaluate", parents=[common], help="score policies on a split")
    p.add_argument("--policies", help="comma-separated distinct policies "
                   "(overrides the config's policies)")
    p.add_argument("--mu", type=float, help="mu-mc threshold override")
    p.add_argument("--split", default="test", choices=("val", "test"))

    p = sub.add_parser("correlate", parents=[common],
                       help="per-frame error vs predictive variance")
    p.add_argument("--split", default="test", choices=("val", "test"))

    p = sub.add_parser("sweep", parents=[common], help="SSE as a function of the mu threshold")
    p.add_argument("--split", default="test", choices=("val", "test"))
    p.add_argument("--mu-grid", help="comma-separated ascending mu values")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verb", None) is None:
        parser.print_help(sys.stderr)
        return 2

    threads = getattr(args, "threads", None)
    if threads is not None:
        if threads < 1:
            parser.error("--threads must be >= 1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(threads)

    # numpy picks up the thread caps at import, so everything heavy
    # loads only now.
    from . import pipeline
    from .errors import (
        CacheMismatch,
        CorruptFile,
        EmptyBank,
        InvalidConfig,
        McenError,
        MissingModels,
        VersionMismatch,
    )

    try:
        config_path = getattr(args, "config", None)
        file_data = pipeline.load_config_file(config_path) if config_path else None
        overrides = {
            "seed": getattr(args, "seed", None),
            "reports_dir": getattr(args, "reports_dir", None),
            "corpus_dir": getattr(args, "corpus_dir", None),
            "models_dir": getattr(args, "models_dir", None),
        }
        if args.verb == "synth":
            overrides.update(n_train=args.n_train, n_val=args.n_val,
                             n_test=args.n_test, duration_s=args.duration)
        if args.verb == "train":
            overrides.update(n_epochs=args.epochs)
        if args.verb == "evaluate" and args.policies is not None:
            overrides["policies"] = args.policies.split(",")
        if args.verb == "sweep" and args.mu_grid:
            try:
                overrides["mu_grid"] = [float(tok) for tok in args.mu_grid.split(",")]
            except ValueError as exc:
                raise InvalidConfig(f"--mu-grid: {exc}") from None
        cfg = pipeline.make_config(file_data, overrides)

        if args.verb == "synth":
            out = pipeline.run_synth(cfg, manifest_path=args.manifest)
            print(f"corpus written to {out}")
        elif args.verb == "train":
            written = pipeline.run_train(cfg, args.scope)
            for path in written:
                print(f"wrote {path}")
        elif args.verb == "enhance":
            out = pipeline.run_enhance(cfg, args.policy, args.input,
                                       args.output, mu=args.mu,
                                       decisions_path=args.decisions)
            print(f"wrote {out}")
        elif args.verb == "evaluate":
            rows = pipeline.run_evaluate(cfg, mu=args.mu, split=args.split)
            for r in rows:
                print(f"{r['condition']:>18} {r['snr_db']:+3d} dB "
                      f"{r['policy']:<11} sse={r['sse']:.6g} "
                      f"ssnr={r['ssnr_db']:.3f} dB")
        elif args.verb == "correlate":
            rows = pipeline.run_correlate(cfg, split=args.split)
            for r in rows:
                print(f"{r['model']:>18} {r['snr_db']:+3d} dB "
                      f"r={r['pearson_r']:+.4f} (n={r['n_frames']})")
        elif args.verb == "sweep":
            rows, mu_star = pipeline.run_sweep(cfg, split=args.split)
            for mu, cond, val in rows:
                print(f"mu={mu:<8g} {cond:<24} sse={val:.6g}")
            if mu_star is not None:
                print(f"mu_star={mu_star:g}")
    except (MissingModels, EmptyBank, VersionMismatch, CorruptFile,
            CacheMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except McenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
