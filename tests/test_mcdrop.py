import tracemalloc

import numpy as np
import pytest

from conftest import random_model
from mcenhance.errors import InvalidConfig, NonFiniteInput
from mcenhance.mcdrop import (
    McConfig,
    mc_for_model,
    mc_spectral_stats,
    tau_inverse,
)
from mcenhance.neural import DropoutStream, MaskMemo, forward


def materialised_stats(model, mag, cfg, row_offset=0):
    """Stack every pass in one [T, n, bins] array, then reduce it; the
    oracle the streaming engine must reproduce bit for bit. Frame k takes
    the masks of row row_offset + k, so one frame with row_offset=i is
    the per-frame reference for row i of a sweep."""
    mag = np.asarray(mag, dtype=np.float64)
    samples = np.empty((cfg.n_passes, mag.shape[0], model.out_dim))
    for t in range(cfg.n_passes):
        stream = DropoutStream(seed=cfg.rng_seed, pass_index=t, row_offset=row_offset)
        samples[t], _ = forward(model, mag, stream=stream)
    means = samples.mean(axis=0)
    raw = (samples * samples).mean(axis=0) - means * means
    variances = cfg.tau_inv + np.maximum(raw, 0.0)
    same = np.all(samples == samples[0], axis=(0, 2))
    means[same] = samples[0, same]
    variances[same] = cfg.tau_inv
    return means, variances, variances.sum(axis=1)


def test_variance_tau_additivity_is_exact():
    rng = np.random.default_rng(1)
    model = random_model(rng, (8, 16, 8), keep_prob=0.7)
    mag = rng.uniform(0.0, 2.0, size=(12, 8))
    v0 = mc_spectral_stats(model, mag, McConfig(n_passes=50)).variances
    v1 = mc_spectral_stats(model, mag, McConfig(n_passes=50, tau_inv=0.25)).variances
    np.testing.assert_array_equal(v1, v0 + 0.25)


def test_variance_never_negative():
    rng = np.random.default_rng(2)
    for trial in range(50):
        model = random_model(rng, (4, 8, 4), keep_prob=0.6)
        sweep = mc_spectral_stats(model, rng.uniform(0.0, 1.0, size=(3, 4)),
                                  McConfig(n_passes=5, rng_seed=trial))
        assert np.all(sweep.variances >= 0.0)
        assert np.all(sweep.traces >= 0.0)


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
        mc_spectral_stats(reg, np.ones((1, 4)), cfg)


def test_sweep_is_deterministic_per_seed_and_row():
    rng = np.random.default_rng(5)
    model = random_model(rng, (6, 12, 5), keep_prob=0.7)
    x = rng.uniform(0.0, 2.0, size=6)
    mag = np.tile(x, (4, 1))
    cfg = McConfig(n_passes=9, rng_seed=11)
    first = mc_spectral_stats(model, mag, cfg)
    again = mc_spectral_stats(model, mag, cfg)
    assert first.means.shape == (4, 5)
    assert first.variances.shape == (4, 5)
    assert first.traces.shape == (4,)
    np.testing.assert_array_equal(first.means, again.means)
    np.testing.assert_array_equal(first.variances, again.variances)

    # Masks are keyed by frame row: the same frame at row 3 differs.
    assert not np.array_equal(first.means[0], first.means[3])

    other_seed = mc_spectral_stats(model, mag, McConfig(n_passes=9, rng_seed=12))
    assert not np.array_equal(first.means, other_seed.means)


def test_mc_concentrates_with_more_passes():
    rng = np.random.default_rng(8)
    model = random_model(rng, (6, 24, 24, 5), keep_prob=0.8)
    x = rng.uniform(0.5, 1.5, size=(1, 6))
    traces = []
    for T in (4, 512):
        traces.append(mc_spectral_stats(model, x, McConfig(n_passes=T, rng_seed=1)).traces[0])
    # trace variance is a population statistic: it stabilizes, and the
    # mean under many passes stays near the truth; crude sanity bound
    assert traces[1] > 0.0
    big = mc_spectral_stats(model, x, McConfig(n_passes=512, rng_seed=2)).traces[0]
    rel = abs(big - traces[1]) / traces[1]
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
        means, variances, traces = materialised_stats(model, mag[i:i + 1], cfg, row_offset=i)
        np.testing.assert_allclose(sweep.means[i], means[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sweep.variances[i], variances[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sweep.traces[i], traces[0], rtol=1e-12, atol=1e-15)


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


def test_streaming_sweep_bit_exact_when_hidden_units_overflow():
    # Huge layer-0 weights push hidden units to inf and to finite values
    # whose 1/keep_prob rescale overflows; inf - inf in layer 1 makes NaN.
    # A dropped inf unit is inf * 0 = NaN in forward's mask multiply, so
    # masking by a fill or a where= would differ here.
    rng = np.random.default_rng(27)
    model = random_model(rng, (6, 10, 10, 5), keep_prob=0.8)
    model.weights[0][::2] *= 1e308
    model.weights[0][1::2] *= 1e306
    mag = rng.uniform(0.0, 3.0, size=(24, 6))
    mag[::5] = 0.0
    with np.errstate(all="ignore"):
        sweep = assert_sweep_matches_oracle(model, mag, McConfig(n_passes=6, rng_seed=4))
    assert np.isnan(sweep.means).any() and np.isfinite(sweep.means).any()


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


def test_sweep_allocates_its_pass_buffers_once():
    # Units of U = n * width * 8 bytes. The sweep holds h0, one buffer per
    # hidden layer, the output, two running sums and pass 0's output,
    # plus one mask draw in flight (about 3U): 11U at L = 3 hidden layers.
    # A pass that keeps forward's cache (its pre-activations, hiddens and
    # masks) alive into the next pass peaks at about 25U.
    rng = np.random.default_rng(28)
    width, n = 64, 300
    model = random_model(rng, (width,) * 5, keep_prob=0.8)
    model.input_mean = rng.uniform(0.5, 1.5, size=width)
    model.input_std = rng.uniform(0.5, 2.0, size=width)
    mag = rng.uniform(0.0, 2.0, size=(n, width))
    mc_spectral_stats(model, mag, McConfig(n_passes=2))  # warm caches
    tracemalloc.start()
    try:
        mc_spectral_stats(model, mag, McConfig(n_passes=8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14 * n * width * 8


def test_mask_memo_keeps_one_bit_per_unit():
    # Packed, a T = 50 sweep's masks are T*L*ceil(n*w/8) bytes; as float64
    # they would be 64 times that, as bool 8 times. The rest is the keys
    # and array headers, about 300 bytes a mask.
    rng = np.random.default_rng(26)
    model = random_model(rng, (40, 64, 48, 64, 40), keep_prob=0.8)
    n, T = 400, 50
    mag = rng.uniform(0.0, 2.0, size=(n, 40))
    packed = T * sum(-(-n * w // 8) for w in (64, 48, 64))
    memo = MaskMemo()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sweep = mc_spectral_stats(model, mag, McConfig(n_passes=T), mask_memo=memo)
        del sweep
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert packed <= held - before < 1.5 * packed


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
    for field, value in [
        ("n_passes", 0), ("n_passes", -3), ("n_passes", 2.5), ("n_passes", 3.0),
        ("n_passes", True), ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", None),
        ("tau_inv", -0.1), ("tau_inv", np.inf), ("tau_inv", np.nan),
        ("prior_length_scale", 0.0), ("prior_length_scale", -1.0),
        ("prior_length_scale", np.inf), ("prior_length_scale", np.nan),
    ]:
        with pytest.raises(InvalidConfig, match=field):
            McConfig(**{field: value})


def test_mc_config_takes_numpy_integers():
    cfg = McConfig(n_passes=np.int64(3), rng_seed=np.uint32(7))
    assert (cfg.n_passes, cfg.rng_seed) == (3, 7)


def test_single_pass_sweep_is_one_stochastic_forward():
    rng = np.random.default_rng(12)
    model = random_model(rng, (6, 10, 4), keep_prob=0.7)
    mag = rng.uniform(0.0, 2.0, size=(3, 6))
    sweep = mc_spectral_stats(model, mag, McConfig(n_passes=1, tau_inv=0.5, rng_seed=5))
    one, _ = forward(model, mag, stream=DropoutStream(seed=5, pass_index=0, row_offset=0))
    np.testing.assert_array_equal(sweep.means, one)
    np.testing.assert_array_equal(sweep.variances, np.full((3, 4), 0.5))
