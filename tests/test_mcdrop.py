import tracemalloc

import numpy as np
import pytest

from conftest import random_model
from mcenhance.dsp import FrameConfig, Signal
from mcenhance.errors import DimensionMismatch, EmptySamples, InvalidConfig, NonFiniteInput
from mcenhance.mcdrop import (
    McConfig,
    enhance_deterministic,
    enhance_single_mc,
    mc_for_model,
    mc_forward,
    mc_spectral_stats,
    predictive_mean,
    predictive_variance,
    tau_inverse,
)
from mcenhance.neural import DropoutStream, forward


def brute_mean(samples):
    T = samples.shape[0]
    return sum(samples[t] for t in range(T)) / T


def brute_var(samples, tau_inv):
    T = samples.shape[0]
    m = brute_mean(samples)
    second = sum(samples[t] ** 2 for t in range(T)) / T
    return tau_inv + (second - m ** 2)


def test_estimators_match_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(20):
        samples = rng.uniform(0.0, 3.0, size=(50, 8))
        tau = float(rng.uniform(0.0, 0.5))
        m = predictive_mean(samples)
        v, trace = predictive_variance(samples, tau_inv=tau)
        np.testing.assert_allclose(m, brute_mean(samples), atol=1e-9)
        np.testing.assert_allclose(v, brute_var(samples, tau), atol=1e-9)
        assert trace == pytest.approx(float(np.sum(v)), abs=1e-12)


def test_variance_tau_additivity_is_exact():
    rng = np.random.default_rng(1)
    samples = rng.uniform(0.0, 2.0, size=(50, 8))
    v0, _ = predictive_variance(samples, tau_inv=0.0)
    v1, _ = predictive_variance(samples, tau_inv=0.25)
    np.testing.assert_array_equal(v1, v0 + 0.25)


def test_variance_never_negative():
    rng = np.random.default_rng(2)
    for trial in range(50):
        samples = rng.uniform(0.0, 1.0, size=(5, 4))
        v, trace = predictive_variance(samples)
        assert np.all(v >= 0.0)
        assert trace >= 0.0


def test_identical_samples_give_exact_tau():
    row = np.array([0.3, 1.7, 0.0, 2.4])
    samples = np.tile(row, (50, 1))
    m = predictive_mean(samples)
    np.testing.assert_array_equal(m, row)
    v, trace = predictive_variance(samples, tau_inv=0.125)
    np.testing.assert_array_equal(v, np.full(4, 0.125))
    assert trace == 0.5
    v0, trace0 = predictive_variance(samples)
    np.testing.assert_array_equal(v0, np.zeros(4))
    assert trace0 == 0.0


def test_single_sample_variance_is_tau():
    samples = np.array([[1.0, 2.0, 3.0]])
    v, trace = predictive_variance(samples, tau_inv=0.5)
    np.testing.assert_array_equal(v, np.full(3, 0.5))


def test_empty_samples_rejected():
    with pytest.raises(EmptySamples):
        predictive_mean(np.zeros((0, 4)))
    with pytest.raises(EmptySamples):
        predictive_variance(np.zeros((0, 4)))


def test_tau_inverse_formula():
    rng = np.random.default_rng(3)
    model = random_model(rng, (4, 8, 4), keep_prob=0.8, weight_decay=0.0,
                         n_train_frames=1000)
    assert tau_inverse(model) == 0.0  # exactly, not approximately

    model.weight_decay = 1e-4
    # 2 N lambda / (l^2 p)
    expect = 2.0 * 1000 * 1e-4 / (1.0 ** 2 * 0.8)
    assert tau_inverse(model) == pytest.approx(expect, rel=1e-12)
    assert tau_inverse(model, prior_length_scale=2.0) == pytest.approx(expect / 4.0, rel=1e-12)


def test_mc_for_model_pins_tau():
    rng = np.random.default_rng(4)
    cfg = McConfig(n_passes=5, rng_seed=0)
    plain = random_model(rng, (4, 8, 4), weight_decay=0.0)
    assert mc_for_model(plain, cfg) is not None
    assert mc_for_model(plain, cfg).tau_inv == 0.0

    reg = random_model(rng, (4, 8, 4), weight_decay=1e-3, n_train_frames=500)
    pinned = mc_for_model(reg, cfg)
    assert pinned.tau_inv == pytest.approx(tau_inverse(reg), rel=1e-12)
    assert pinned.n_passes == cfg.n_passes
    # using the unpinned config with a regularized model is an error
    with pytest.raises(InvalidConfig):
        mc_forward(reg, np.ones(4), cfg)


def test_mc_forward_shapes_and_determinism():
    rng = np.random.default_rng(5)
    model = random_model(rng, (6, 12, 5), keep_prob=0.7)
    x = rng.uniform(0.0, 2.0, size=6)
    cfg = McConfig(n_passes=9, rng_seed=11)
    out1 = mc_forward(model, x, cfg)
    out2 = mc_forward(model, x, cfg)
    assert out1.samples.shape == (9, 5)
    assert out1.mean.shape == (5,)
    assert out1.var.shape == (5,)
    np.testing.assert_array_equal(out1.samples, out2.samples)
    assert out1.trace_var == out2.trace_var

    other_frame = mc_forward(model, x, cfg, frame_index=3)
    assert not np.array_equal(out1.samples, other_frame.samples)

    other_seed = mc_forward(model, x, McConfig(n_passes=9, rng_seed=12))
    assert not np.array_equal(out1.samples, other_seed.samples)


def test_mc_forward_consistency_with_estimators():
    rng = np.random.default_rng(6)
    model = random_model(rng, (5, 16, 4), keep_prob=0.6)
    x = rng.uniform(0.0, 2.0, size=5)
    out = mc_forward(model, x, McConfig(n_passes=20, rng_seed=3))
    np.testing.assert_array_equal(out.mean, predictive_mean(out.samples))
    v, trace = predictive_variance(out.samples)
    np.testing.assert_array_equal(out.var, v)
    assert out.trace_var == trace


def test_keep_prob_one_gives_zero_variance_exactly():
    rng = np.random.default_rng(7)
    model = random_model(rng, (5, 10, 4), keep_prob=1.0)
    x = rng.uniform(0.0, 2.0, size=5)
    out = mc_forward(model, x, McConfig(n_passes=16, rng_seed=0))
    det, _ = forward(model, x)
    np.testing.assert_array_equal(out.mean, det)
    np.testing.assert_array_equal(out.var, np.zeros(4))
    assert out.trace_var == 0.0


def test_mc_concentrates_with_more_passes():
    rng = np.random.default_rng(8)
    model = random_model(rng, (6, 24, 24, 5), keep_prob=0.8)
    x = rng.uniform(0.5, 1.5, size=6)
    traces = []
    for T in (4, 512):
        out = mc_forward(model, x, McConfig(n_passes=T, rng_seed=1))
        traces.append(out.trace_var)
    # trace variance is a population statistic: it stabilizes, and the
    # mean under many passes stays near the truth; crude sanity bound
    assert traces[1] > 0.0
    big = mc_forward(model, x, McConfig(n_passes=512, rng_seed=2))
    rel = abs(big.trace_var - traces[1]) / traces[1]
    assert rel < 0.35


def test_batched_stats_match_per_frame():
    rng = np.random.default_rng(9)
    model = random_model(rng, (7, 14, 6), keep_prob=0.75)
    mag = rng.uniform(0.0, 2.0, size=(5, 7))
    cfg = McConfig(n_passes=6, rng_seed=4)
    sweep = mc_spectral_stats(model, mag, cfg)
    assert sweep.means.shape == (5, 6)
    assert sweep.traces.shape == (5,)
    for i in range(5):
        out = mc_forward(model, mag[i], cfg, frame_index=i)
        np.testing.assert_allclose(sweep.means[i], out.mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sweep.variances[i], out.var, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sweep.traces[i], out.trace_var, rtol=1e-12, atol=1e-15)


def materialised_stats(model, mag, cfg):
    """Stack every pass in one [T, n, bins] array, then reduce it; the
    oracle the streaming engine must reproduce bit for bit."""
    mag = np.asarray(mag, dtype=np.float64)
    samples = np.empty((cfg.n_passes, mag.shape[0], model.out_dim))
    for t in range(cfg.n_passes):
        stream = DropoutStream(seed=cfg.rng_seed, pass_index=t, row_offset=0)
        samples[t], _ = forward(model, mag, stream=stream)
    means = samples.mean(axis=0)
    raw = (samples * samples).mean(axis=0) - means * means
    variances = cfg.tau_inv + np.maximum(raw, 0.0)
    same = np.all(samples == samples[0], axis=(0, 2))
    means[same] = samples[0, same]
    variances[same] = cfg.tau_inv
    return means, variances, variances.sum(axis=1)


def assert_sweep_matches_oracle(model, mag, cfg):
    sweep = mc_spectral_stats(model, mag, cfg)
    means, variances, traces = materialised_stats(model, mag, cfg)
    np.testing.assert_array_equal(sweep.means, means)
    np.testing.assert_array_equal(sweep.variances, variances)
    np.testing.assert_array_equal(sweep.traces, traces)
    return sweep


@pytest.mark.parametrize("n_passes", [1, 2, 7, 50])
def test_streaming_sweep_bit_exact_on_zscored_deep_model(n_passes):
    rng = np.random.default_rng(20)
    model = random_model(rng, (12, 16, 16, 16, 12), keep_prob=0.8)
    model.input_mean = rng.uniform(0.5, 1.5, size=12)
    model.input_std = rng.uniform(0.5, 2.0, size=12)
    mag = rng.uniform(0.0, 3.0, size=(40, 12))
    sweep = assert_sweep_matches_oracle(
        model, mag, McConfig(n_passes=n_passes, rng_seed=9))
    if n_passes > 1:
        assert np.all(sweep.traces > 0.0)


def test_streaming_sweep_bit_exact_with_weight_decay():
    rng = np.random.default_rng(21)
    model = random_model(rng, (8, 12, 12, 8), keep_prob=0.7,
                         weight_decay=1e-3, n_train_frames=500)
    cfg = mc_for_model(model, McConfig(n_passes=16, rng_seed=2))
    assert cfg.tau_inv > 0.0
    mag = rng.uniform(0.0, 2.0, size=(30, 8))
    sweep = assert_sweep_matches_oracle(model, mag, cfg)
    assert np.all(sweep.variances >= cfg.tau_inv)


def test_streaming_sweep_short_circuits_frames_where_passes_agree():
    # Negative hidden biases silence every hidden unit on an all-zero
    # frame, so no mask can reach its output and all passes agree.
    rng = np.random.default_rng(22)
    model = random_model(rng, (6, 10, 10, 5), keep_prob=0.7,
                         weight_decay=1e-3, n_train_frames=200, scale=0.8)
    model.biases[0] = -0.1 - np.abs(model.biases[0])
    model.biases[1] = -0.1 - np.abs(model.biases[1])
    model.biases[2] = 0.1 + np.abs(model.biases[2])
    cfg = mc_for_model(model, McConfig(n_passes=12, rng_seed=3))
    mag = rng.uniform(0.0, 3.0, size=(20, 6))
    mag[::4] = 0.0
    sweep = assert_sweep_matches_oracle(model, mag, cfg)
    det, _ = forward(model, mag[::4])
    np.testing.assert_array_equal(sweep.means[::4], det)
    np.testing.assert_array_equal(sweep.variances[::4], np.full_like(det, cfg.tau_inv))
    assert np.any(sweep.variances > cfg.tau_inv)


@pytest.mark.parametrize("dims", [(6, 5), (6, 8, 5)])
def test_sweep_without_dropout_is_the_deterministic_pass(dims):
    rng = np.random.default_rng(23)
    keep_prob = 0.8 if len(dims) == 2 else 1.0
    model = random_model(rng, dims, keep_prob=keep_prob)
    mag = rng.uniform(0.0, 2.0, size=(9, 6))
    sweep = mc_spectral_stats(model, mag, McConfig(n_passes=5, rng_seed=1))
    det, _ = forward(model, mag)
    np.testing.assert_array_equal(sweep.means, det)
    np.testing.assert_array_equal(sweep.variances, np.zeros_like(det))


def test_streaming_sweep_memory_does_not_grow_with_passes():
    rng = np.random.default_rng(24)
    model = random_model(rng, (64, 48, 48, 64), keep_prob=0.8)
    n, T = 300, 64
    mag = rng.uniform(0.0, 2.0, size=(n, 64))
    mc_spectral_stats(model, mag, McConfig(n_passes=2))  # warm caches
    tracemalloc.start()
    try:
        mc_spectral_stats(model, mag, McConfig(n_passes=T))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Stacking the passes alone would take 8*T*n*bins bytes.
    assert peak < 8 * T * n * model.out_dim / 2


def test_sweep_rejects_non_finite_frames():
    rng = np.random.default_rng(25)
    model = random_model(rng, (6, 8, 8, 6), keep_prob=0.8)
    mag = rng.uniform(0.0, 2.0, size=(10, 6))
    for bad in (np.nan, np.inf):
        frames = mag.copy()
        frames[4, 2] = bad
        with pytest.raises(NonFiniteInput):
            mc_spectral_stats(model, frames, McConfig(n_passes=3))


def test_mc_config_validation():
    with pytest.raises(InvalidConfig):
        McConfig(n_passes=0)
    with pytest.raises(InvalidConfig):
        McConfig(tau_inv=-0.1)
    with pytest.raises(InvalidConfig):
        McConfig(prior_length_scale=0.0)


def test_enhance_ops_run_and_match_geometry():
    rng = np.random.default_rng(10)
    frame = FrameConfig()
    model = random_model(rng, (frame.n_bins, 16, frame.n_bins), keep_prob=0.8)
    noisy = Signal(0.05 * rng.standard_normal(16000), 16000)
    det = enhance_deterministic(model, noisy, frame)
    mc = enhance_single_mc(model, noisy, McConfig(n_passes=3, rng_seed=0), frame)
    n = 1 + (16000 - frame.frame_len_samples) // frame.hop_samples
    want = (n - 1) * frame.hop_samples + frame.frame_len_samples
    assert len(det.samples) == want
    assert len(mc.samples) == want
    assert not np.array_equal(det.samples, mc.samples)


def test_enhance_rejects_wrong_bin_count():
    rng = np.random.default_rng(11)
    frame = FrameConfig()
    model = random_model(rng, (64, 16, 64))
    noisy = Signal(0.05 * rng.standard_normal(8000), 16000)
    with pytest.raises(DimensionMismatch):
        enhance_deterministic(model, noisy, frame)


def test_single_pass_mc_equals_one_stochastic_forward():
    rng = np.random.default_rng(12)
    model = random_model(rng, (6, 10, 4), keep_prob=0.7)
    x = rng.uniform(0.0, 2.0, size=6)
    out = mc_forward(model, x, McConfig(n_passes=1, rng_seed=5))
    np.testing.assert_array_equal(out.mean, out.samples[0])
    np.testing.assert_array_equal(out.var, np.zeros(4))
