"""Acceptance gate.

Six exact property suites, then four desk-scale trend checks on the
synthetic corpus. Every test prints one PASS/FAIL line. Trend checks run
on seed 0 first; when seed 0 disagrees they fall back to a majority over
seeds {0, 1, 2} and pass only if two seeds satisfy the check.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from mcenhance.corpus import mix_at_snr, noise_spec, synth_noise, synth_speech
from mcenhance.dsp import FrameConfig, Signal, istft_overlap_add, read_wav, stft, write_wav
from mcenhance.mcdrop import McConfig, mc_spectral_stats
from mcenhance.neural import (
    DropoutStream,
    backward,
    cross_entropy_grad,
    cross_entropy_loss,
    forward,
    init_model,
    msle_grad,
    msle_loss,
)
from mcenhance.pipeline import (
    ExperimentConfig,
    run_correlate,
    run_enhance,
    run_evaluate,
    run_sweep,
    run_synth,
    run_train,
)

from conftest import ACCEPTANCE_LINES, MINI, random_model, reference_pass

# The desk-scale criteria take most of a full run; `-m "not acceptance"`
# leaves them out for a fast inner loop.
pytestmark = pytest.mark.acceptance


def _verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print("\n" + line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------- property suites


def test_criterion_01_stft_round_trip():
    frame = FrameConfig()
    rng = np.random.default_rng(101)
    guard = frame.frame_len_samples
    worst = 0.0
    t0 = time.monotonic()
    for _ in range(100):
        x = 0.05 * rng.standard_normal(16000)
        frames = stft(Signal(samples=x, sample_rate_hz=16000), frame)
        y = istft_overlap_add(frames.magnitude, frames.phase, frame).samples
        n = min(len(x), len(y))
        ref, rec = x[guard:n - guard], y[guard:n - guard]
        worst = max(worst, float(np.linalg.norm(rec - ref) / np.linalg.norm(ref)))
    elapsed = time.monotonic() - t0
    _verdict("criterion 1 (stft round trip)",
             worst < 1e-6 and elapsed < 10.0,
             f"max interior rel err {worst:.3g}, {elapsed:.1f}s for 100 signals")


def test_criterion_02_mix_snr_exact_and_after_quantization(tmp_path):
    worst_pre = worst_post = 0.0
    clean = synth_speech(1.0, seed=21)
    for i, snr in enumerate((-10, -5, 0, 5, 10)):
        noise = synth_noise(noise_spec("pink_broadband", seed=40 + i), 1.0)
        noisy, scale = mix_at_snr(clean, noise, float(snr))
        p_c = np.mean(clean.samples ** 2)
        p_n = np.mean((scale * noise.samples[: len(clean)]) ** 2)
        worst_pre = max(worst_pre, abs(10 * np.log10(p_c / p_n) - snr))

        # common gain for headroom keeps the ratio; then 16-bit round trip
        gain = 0.5 / max(np.abs(noisy.samples).max(), 1e-9)
        for name, sig in (("c.wav", clean), ("n.wav", noisy)):
            write_wav(tmp_path / name,
                      Signal(samples=sig.samples * gain, sample_rate_hz=16000))
        c_q = read_wav(tmp_path / "c.wav").samples
        n_q = read_wav(tmp_path / "n.wav").samples - c_q
        snr_q = 10 * np.log10(np.mean(c_q ** 2) / np.mean(n_q ** 2))
        worst_post = max(worst_post, abs(snr_q - snr))
    _verdict("criterion 2 (snr mixing)",
             worst_pre < 1e-6 and worst_post < 1e-3,
             f"pre-quantization err {worst_pre:.3g} dB, post {worst_post:.3g} dB")


def _grad_check(model, X, loss_of_y, grad_of_y, h=1e-5):
    y, cache = forward(model, X)
    grads = backward(model, cache, grad_of_y(y))
    worst = 0.0
    rng = np.random.default_rng(0)
    for p, g in zip(model.weights + model.biases, grads.dweights + grads.dbiases):
        coords = list(np.ndindex(p.shape))
        if len(coords) > 10:
            coords = [coords[i] for i in rng.choice(len(coords), 10, replace=False)]
        for idx in coords:
            orig = p[idx]
            p[idx] = orig + h
            up = loss_of_y(forward(model, X)[0])
            p[idx] = orig - h
            dn = loss_of_y(forward(model, X)[0])
            p[idx] = orig
            num = (up - dn) / (2 * h)
            denom = max(abs(g[idx]), abs(num), 1e-6)
            worst = max(worst, abs(g[idx] - num) / denom)
    return worst


def test_criterion_03_gradient_check():
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(10):
        dims = (rng.integers(3, 6), rng.integers(4, 8), rng.integers(4, 8),
                rng.integers(3, 6))
        model = random_model(rng, dims, keep_prob=1.0)
        X = rng.uniform(0.0, 1.5, size=(3, dims[0]))
        target = rng.uniform(0.0, 1.5, size=(3, dims[-1]))
        worst = max(worst, _grad_check(model, X,
                                       lambda y: msle_loss(y, target),
                                       lambda y: msle_grad(y, target)))
    for trial in range(10):
        n_cls = int(rng.integers(2, 5))
        dims = (rng.integers(3, 6), rng.integers(4, 8), n_cls)
        model = random_model(rng, dims, output_activation="softmax",
                             keep_prob=1.0)
        X = rng.standard_normal((4, dims[0]))
        labels = rng.integers(0, n_cls, size=4)
        worst = max(worst, _grad_check(model, X,
                                       lambda y: cross_entropy_loss(y, labels),
                                       lambda y: cross_entropy_grad(y, labels)))
    _verdict("criterion 3 (gradient check)", worst < 1e-4,
             f"max rel err {worst:.3g} over 20 nets")


def test_criterion_04_mc_estimators():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(3, 17, size=4))
        model = random_model(rng, dims, keep_prob=float(rng.uniform(0.5, 0.95)),
                             scale=float(rng.uniform(0.1, 1.0)))
        mag = rng.uniform(0.0, 3.0, size=(7, dims[0]))
        cfg = McConfig(n_passes=50, rng_seed=int(rng.integers(1 << 31)))
        sweep = mc_spectral_stats(model, mag, cfg)
        # The sweep's passes run in float32; their moments are float64.
        samples = np.stack([
            reference_pass(model, mag, DropoutStream(seed=cfg.rng_seed, pass_index=t),
                           np.float32)[0]
            for t in range(cfg.n_passes)]).astype(np.float64)
        bf_mean = samples.mean(axis=0)
        bf_var = (samples ** 2).mean(axis=0) - bf_mean ** 2
        worst = max(worst, float(np.abs(sweep.means - bf_mean).max()),
                    float(np.abs(sweep.variances - np.maximum(bf_var, 0.0)).max()),
                    float(np.abs(sweep.traces - sweep.variances.sum(axis=1)).max()))
        v_tau = mc_spectral_stats(model, mag, replace(cfg, tau_inv=0.25)).variances
        additive = np.array_equal(v_tau, sweep.variances + 0.25)
        worst = max(worst, 0.0 if additive else np.inf)

    model = init_model((6, 12, 12, 5), keep_prob=1.0, seed=9)
    mag = rng.uniform(0.0, 2.0, size=(7, 6))
    sweep = mc_spectral_stats(model, mag, McConfig(n_passes=5, rng_seed=3))
    det, _ = forward(model, mag)
    p1_zero = (np.all(sweep.traces == 0.0)
               and np.array_equal(sweep.means, det))
    _verdict("criterion 4 (mc estimators)",
             worst < 1e-9 and p1_zero,
             f"max estimator err {worst:.3g}; p=1 variance exactly zero: {p1_zero}")


def test_criterion_05_policy_limit_equivalence(mini_system, tmp_path):
    clean = synth_speech(3.0, seed=55)
    noise = synth_noise(noise_spec("mixed", seed=9), 3.0)
    noisy, _ = mix_at_snr(clean, noise, -5.0)
    gain = 0.5 / np.abs(noisy.samples).max()
    src = tmp_path / "in.wav"
    write_wav(src, Signal(samples=noisy.samples * gain, sample_rate_hz=16000))

    cfg = replace(mini_system, reports_dir=str(tmp_path))

    def digest(policy, mu, tag):
        out = tmp_path / f"{tag}.wav"
        run_enhance(cfg, policy, src, out, mu=mu)
        return hashlib.md5(out.read_bytes()).hexdigest()

    var_eq = digest("mu-mc", 0.0, "mu0") == digest("var-mc", None, "var")
    cls_eq = digest("mu-mc", 1e9, "muinf") == digest("class-mc", None, "cls")
    _verdict("criterion 5 (policy limit equivalence)", var_eq and cls_eq,
             f"mu=0 vs var-mc identical: {var_eq}; mu=1e9 vs class-mc identical: {cls_eq}")


def _pipeline_digests(root, seed):
    cfg = ExperimentConfig(
        corpus_dir=str(root / "corpus"), models_dir=str(root / "models"),
        reports_dir=str(root / "reports"), **{**MINI, "seed": seed})
    run_synth(cfg)
    run_train(cfg, "all")
    run_sweep(cfg, split="val")
    run_evaluate(cfg)
    run_correlate(cfg)
    run_sweep(cfg, split="test")
    digests = {}
    for pattern in ("models/*.model", "models/bank.json",
                    "reports/*.csv", "reports/*.json"):
        for path in sorted(root.glob(pattern)):
            digests[f"{path.parent.name}/{path.name}"] = hashlib.md5(
                path.read_bytes()).hexdigest()
    return digests


def test_criterion_06_pipeline_determinism(tmp_path):
    a = _pipeline_digests(tmp_path / "a", seed=6)
    b = _pipeline_digests(tmp_path / "b", seed=6)
    same = a == b
    diff = [k for k in a if a.get(k) != b.get(k)] + \
           [k for k in b if k not in a]
    _verdict("criterion 6 (pipeline determinism)", same and len(a) > 10,
             f"{len(a)} artifacts compared" + ("" if same else f"; differ: {diff}"))


# ------------------------------------------------- desk-scale trend runs

_DESK = {}
_TREND_SEEDS = (0, 1, 2)


def _desk(seed, tmp_path_factory):
    if seed not in _DESK:
        root = tmp_path_factory.mktemp(f"desk_seed{seed}")
        cfg = ExperimentConfig(
            corpus_dir=str(root / "corpus"), models_dir=str(root / "models"),
            reports_dir=str(root / "reports"), seed=seed)
        run_synth(cfg)
        run_train(cfg, "all")
        _, mu_star = run_sweep(cfg, split="val")
        eval_rows = run_evaluate(cfg)
        corr_rows = run_correlate(cfg)
        sweep_rows, _ = run_sweep(cfg, split="test")
        _DESK[seed] = {
            "cfg": cfg,
            "mu_star": mu_star,
            "eval": {(r["condition"], r["snr_db"], r["policy"]): r["sse"]
                     for r in eval_rows},
            "n_files": {(r["condition"], r["snr_db"]): r["n_files"]
                        for r in eval_rows},
            "corr": {(r["model"], r["snr_db"]): r["pearson_r"]
                     for r in corr_rows},
            "sweep": sweep_rows,
        }
    return _DESK[seed]


def _trend(name, check, tmp_path_factory):
    art = _desk(0, tmp_path_factory)
    ok, detail = check(art)
    if ok:
        _verdict(name, True, f"seed 0: {detail}")
        return
    votes = [(0, False, detail)]
    for seed in _TREND_SEEDS[1:]:
        v, d = check(_desk(seed, tmp_path_factory))
        votes.append((seed, v, d))
        if not v:
            break
    passed = sum(1 for _, v, _ in votes if v) >= 2
    _verdict(name, passed,
             "; ".join(f"seed {s}: {'ok' if v else 'no'} ({d})" for s, v, d in votes))


def test_criterion_07_single_mc_robustness(tmp_path_factory):
    def check(art):
        ev, nf = art["eval"], art["n_files"]
        if min(nf[("white", -10)], nf[("white", -5)]) < 20:
            return False, "fewer than 20 test files"
        unseen = all(ev[("white", s, "single-mc")] <= ev[("white", s, "single-conv")]
                     for s in (-10, -5))
        seen = all(ev[("pink_broadband", s, "single-mc")]
                   <= 1.05 * ev[("pink_broadband", s, "single-conv")]
                   for s in (-10, 0, 10))
        detail = ("white mc/conv " +
                  ", ".join(f"{s}dB {ev[('white', s, 'single-mc')]:.0f}/"
                            f"{ev[('white', s, 'single-conv')]:.0f}"
                            for s in (-10, -5)) +
                  f"; seen within 1.05x: {seen}")
        return unseen and seen, detail

    _trend("criterion 7 (single-mc robustness)", check, tmp_path_factory)


def test_criterion_08_variance_error_correlation(tmp_path_factory):
    def check(art):
        r_lo = art["corr"][("pink_broadband", -10)]
        r_hi = art["corr"][("pink_broadband", 10)]
        ok = r_lo > r_hi and r_lo > 0.3
        return ok, f"r(-10)={r_lo:+.3f} r(+10)={r_hi:+.3f}"

    _trend("criterion 8 (variance-error correlation)", check, tmp_path_factory)


def test_criterion_09_var_mc_unseen_vs_seen(tmp_path_factory):
    def check(art):
        ev = art["eval"]
        unseen_ok = ev[("mixed", -10, "var-mc")] <= ev[("mixed", -10, "class-mc")]
        seen_worse = [s for s in (-10, 0, 10)
                      if ev[("pink_broadband", s, "var-mc")]
                      > ev[("pink_broadband", s, "class-mc")]]
        detail = (f"mixed@-10 var {ev[('mixed', -10, 'var-mc')]:.0f} vs "
                  f"class {ev[('mixed', -10, 'class-mc')]:.0f}; "
                  f"seen conditions where var-mc worse: {seen_worse}")
        return unseen_ok and bool(seen_worse), detail

    _trend("criterion 9 (var-mc unseen vs seen)", check, tmp_path_factory)


def test_criterion_10_mu_sweep_and_validated_mu(tmp_path_factory):
    def check(art):
        by_mu = {}
        for mu, cond, val in art["sweep"]:
            by_mu.setdefault(mu, {})[cond] = val
        grid = sorted(by_mu)
        lo, hi = by_mu[grid[0]], by_mu[grid[-1]]
        seen_conds = [c for c in lo if c.startswith("pink_broadband")]
        seen_trend = np.mean([hi[c] for c in seen_conds]) <= \
            np.mean([lo[c] for c in seen_conds])
        unseen_trend = lo["mixed_snr-10"] <= hi["mixed_snr-10"]

        ev = art["eval"]
        within = all(ev[("pink_broadband", s, "mu-mc")]
                     <= 1.10 * ev[("pink_broadband", s, "class-mc")]
                     for s in (-10, 0, 10))
        beats = [c for c in ("mixed", "white")
                 if ev[(c, -10, "mu-mc")] < ev[(c, -10, "class-mc")]]
        detail = (f"mu*={art['mu_star']:g}; endpoint trends seen={seen_trend} "
                  f"unseen={unseen_trend}; within 10% on seen: {within}; "
                  f"beats class-mc at -10 on: {beats}")
        return seen_trend and unseen_trend and within and bool(beats), detail

    _trend("criterion 10 (mu sweep)", check, tmp_path_factory)
