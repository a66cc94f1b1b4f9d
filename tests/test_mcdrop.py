import tracemalloc

import numpy as np
import pytest

from conftest import (
    empty_mask_table,
    random_model,
    record_mask_draws,
    reference_pass,
    rows_drawn,
)
from mcenhance import neural
from mcenhance.corpus import mix_at_snr, noise_spec, synth_noise, synth_speech
from mcenhance.dsp import FrameConfig, stft
from mcenhance.errors import InvalidConfig, NonFiniteInput
from mcenhance.mcdrop import (
    McConfig,
    mc_for_model,
    mc_spectral_stats,
    tau_inverse,
)
from mcenhance.neural import (
    STACK_ROWS,
    DropoutStream,
    TrainConfig,
    forward,
    train_regressor,
)


def materialised_stats(model, mag, cfg, row_offset=0):
    """Stack every float32 pass of reference_pass in one [T, n, bins]
    array, upcast it to float64, then reduce it; the oracle the streaming
    engine must reproduce bit for bit. Frame k takes the masks of row
    row_offset + k (see per_frame_stats)."""
    mag = np.asarray(mag, dtype=np.float64)
    samples = np.empty((cfg.n_passes, mag.shape[0], model.out_dim), np.float32)
    for t in range(cfg.n_passes):
        stream = DropoutStream(seed=cfg.rng_seed, pass_index=t, row_offset=row_offset)
        samples[t] = reference_pass(model, mag, stream, np.float32)[0]
    samples = samples.astype(np.float64)
    means = samples.mean(axis=0)
    raw = (samples * samples).mean(axis=0) - means * means
    variances = cfg.tau_inv + np.maximum(raw, 0.0)
    same = np.all(samples == samples[0], axis=(0, 2))
    means[same] = samples[0, same]
    variances[same] = cfg.tau_inv
    return means, variances, variances.sum(axis=1)


def per_frame_stats(model, mag, cfg, i):
    """Per-frame reference for row i of a sweep: frame i on its own masks,
    row i's, as row 0 of the oracle. The other rows only keep the call's
    row count: a float32 GEMM row's bits depend on the row count (a
    one-row call takes another BLAS path), never on the other rows or
    the row's place among them."""
    rolled = np.roll(np.asarray(mag, dtype=np.float64), -i, axis=0)
    means, variances, traces = materialised_stats(model, rolled, cfg, row_offset=i)
    return means[0], variances[0], traces[0]


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
        means, variances, trace = per_frame_stats(model, mag, cfg, i)
        np.testing.assert_array_equal(sweep.means[i], means)
        np.testing.assert_array_equal(sweep.variances[i], variances)
        assert sweep.traces[i] == trace


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
    det = reference_pass(model, mag, dtype=np.float32)[0][::4]
    np.testing.assert_array_equal(sweep.means[::4], det)
    np.testing.assert_array_equal(sweep.variances[::4], np.full(det.shape, cfg.tau_inv))
    assert np.any(sweep.variances > cfg.tau_inv)


def test_streaming_sweep_bit_exact_when_hidden_units_overflow():
    # Huge layer-0 weights push the float32 passes' hidden units to inf
    # and to finite values whose 1/keep_prob rescale overflows; inf - inf
    # in layer 1 makes NaN. A dropped inf unit is inf * 0 = NaN in the
    # mask multiply, so masking by a fill or a where= would differ here.
    rng = np.random.default_rng(27)
    model = random_model(rng, (6, 10, 10, 5), keep_prob=0.8)
    model.weights[0][::2] *= 2e38  # float32's largest is 3.4e38
    model.weights[0][1::2] *= 2e36
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


def _sweep_peak(model, mag, n_passes) -> int:
    tracemalloc.start()
    try:
        mc_spectral_stats(model, mag, McConfig(n_passes=n_passes))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_sweep_memory_does_not_grow_with_passes():
    # 47 frames stack 800 // 47 = 17 passes at a time, so the pass buffers
    # hold at most STACK_ROWS + n rows whatever T is.
    rng = np.random.default_rng(24)
    model = random_model(rng, (64, 48, 48, 64), keep_prob=0.8)
    n, T = 47, 256
    mag = rng.uniform(0.0, 2.0, size=(n, 64))
    assert neural.stack_height(n, T, model.layer_dims[2:]) == 17
    mc_spectral_stats(model, mag, McConfig(n_passes=T))  # warm caches
    peaks = {t: _sweep_peak(model, mag, t) for t in (17, T)}
    assert peaks[T] < 1.05 * peaks[17]
    # Float32 buffers of STACK_ROWS + n rows for every layer past layer 0,
    # at twice their size.
    assert peaks[T] < 8 * (neural.STACK_ROWS + n) * sum(model.layer_dims[1:])
    # Stacking the passes alone would take 8*T*n*bins bytes.
    assert peaks[T] < 8 * T * n * model.out_dim / 4


def test_sweep_allocates_its_pass_buffers_once():
    # Units of U = n * width * 8 bytes. 300 frames stack 2 passes, so the
    # sweep holds h0 and pass 0's output (U/2 each), one buffer per hidden
    # layer and the output for 2n float32 rows (U each), two running sums
    # and each pass's float64 copy (U each), plus one mask draw in flight
    # (about 3U): 11U at L = 3 hidden layers.
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


def test_kept_bits_table_keeps_one_bit_per_unit():
    # Packed, a T = 50 sweep's masks are T*n*sum(ceil(w/8)) bytes; as
    # float64 they would be 64 times that, as bool 8 times. The rest is the
    # keys and array headers, about 300 bytes a mask.
    rng = np.random.default_rng(26)
    model = random_model(rng, (40, 64, 48, 64, 40), keep_prob=0.8)
    n, T = 400, 50
    mag = rng.uniform(0.0, 2.0, size=(n, 40))
    packed = T * n * sum(-(-w // 8) for w in (64, 48, 64))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sweep = mc_spectral_stats(model, mag, McConfig(n_passes=T))
        del sweep
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert packed <= held - before < 1.5 * packed


def _table_bytes() -> dict:
    """Bytes the kept-bits table holds per (width, keep_prob)."""
    held = {}
    for (_, _, width, keep_prob), packed in neural._KEPT_BITS.rows.items():
        held[width, keep_prob] = held.get((width, keep_prob), 0) + packed.nbytes
    return held


def test_kept_bits_table_holds_the_longest_sweep_only():
    # Widths 13 and 20 are not multiples of 8: a row takes 2 and 3 bytes.
    rng = np.random.default_rng(27)
    models = [random_model(rng, (10, 13, 13, 20, 10), keep_prob=0.8),
              random_model(rng, (10, 13, 10), keep_prob=0.6)]
    T = 5
    for n in (97, 197, 49):
        mag = rng.uniform(0.0, 2.0, size=(n, 10))
        for model in models:
            mc_spectral_stats(model, mag, McConfig(n_passes=T, rng_seed=3))
    assert _table_bytes() == {(13, 0.8): T * 2 * 197 * 2, (20, 0.8): T * 1 * 197 * 3,
                              (13, 0.6): T * 1 * 197 * 2}
    assert {packed.shape[0] for packed in neural._KEPT_BITS.rows.values()} == {197}


def test_a_sweep_under_another_seed_empties_the_table(monkeypatch):
    rng = np.random.default_rng(28)
    model = random_model(rng, (6, 11, 11, 6), keep_prob=0.7)
    short, long = (rng.uniform(0.0, 2.0, size=(n, 6)) for n in (5, 9))
    cold = {}
    for seed in (1, 2):
        empty_mask_table(monkeypatch)
        cold[seed] = mc_spectral_stats(model, short, McConfig(n_passes=3, rng_seed=seed))

    empty_mask_table(monkeypatch)
    mc_spectral_stats(model, long, McConfig(n_passes=3, rng_seed=1))
    draws = record_mask_draws(monkeypatch)
    for seed in (2, 1):
        sweep = mc_spectral_stats(model, short, McConfig(n_passes=3, rng_seed=seed))
        np.testing.assert_array_equal(sweep.means, cold[seed].means)
        np.testing.assert_array_equal(sweep.variances, cold[seed].variances)
        assert neural._KEPT_BITS.seed == seed
        assert {packed.shape[0] for packed in neural._KEPT_BITS.rows.values()} == {5}
    # Seed 1's 9 rows went with seed 2's sweep, so seed 1 drew its 5 again.
    assert rows_drawn(draws) == {(seed, t, l, 11, 0.7): 5
                                 for seed in (1, 2) for t in range(3) for l in range(2)}


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


def test_float32_sweep_is_within_1e5_of_a_float64_sweep():
    # A desk-width regressor (257-256x3-257, z-scored) trained for 2 epochs
    # on two 2 s utterances in seen noises, then swept at T = 50 over 197
    # frames of a third in an unseen noise. The float64 sweep stacks
    # float64 reference passes on the same masks.
    frame = FrameConfig()

    def frames(seed, noise):
        clean = synth_speech(2.0, seed=seed)
        noisy, _ = mix_at_snr(clean, synth_noise(noise_spec(noise, seed=seed), 2.0), 0.0)
        return stft(noisy, frame).magnitude, stft(clean, frame).magnitude

    pairs = [frames(1, "pink_broadband"), frames(2, "babble_proxy")]
    model, _ = train_regressor(np.concatenate([n for n, _ in pairs]),
                               np.concatenate([c for _, c in pairs]),
                               TrainConfig(n_epochs=2, input_norm="zscore"))
    mag = frames(3, "white")[0]
    assert mag.shape == (197, 257) and model.layer_dims == [257, 256, 256, 256, 257]
    cfg = McConfig(n_passes=50, rng_seed=7)
    sweep = mc_spectral_stats(model, mag, cfg)

    samples = np.stack([reference_pass(model, mag, DropoutStream(seed=7, pass_index=t))[0]
                        for t in range(cfg.n_passes)])
    means = samples.mean(axis=0)
    traces = np.maximum((samples * samples).mean(axis=0) - means * means, 0.0).sum(axis=1)
    mean_err = np.linalg.norm(sweep.means - means, axis=1) / np.linalg.norm(means, axis=1)
    assert mean_err.max() <= 1e-5
    assert np.all(np.abs(sweep.traces - traces) <= 1e-5 * traces)
    assert traces.min() > 0.0


def test_single_pass_sweep_is_one_stochastic_forward():
    rng = np.random.default_rng(12)
    model = random_model(rng, (6, 10, 4), keep_prob=0.7)
    mag = rng.uniform(0.0, 2.0, size=(3, 6))
    sweep = mc_spectral_stats(model, mag, McConfig(n_passes=1, tau_inv=0.5, rng_seed=5))
    one = reference_pass(model, mag, DropoutStream(seed=5, pass_index=0), np.float32)[0]
    np.testing.assert_array_equal(sweep.means, one)
    np.testing.assert_array_equal(sweep.variances, np.full((3, 4), 0.5))


def _stacked_sweeps(monkeypatch, model, mag, n_passes) -> dict:
    """mc_spectral_stats bytes with one pass per GEMM, the default stack
    and all passes in one stack, keyed by the stack height each ran."""
    got = {}
    for rows in (1, STACK_ROWS, 10 ** 9):
        monkeypatch.setattr(neural, "STACK_ROWS", rows)
        k = neural.stack_height(len(mag), n_passes, model.layer_dims[2:])
        sweep = mc_spectral_stats(model, mag, McConfig(n_passes=n_passes, rng_seed=6))
        got[k] = sweep.means.tobytes() + sweep.variances.tobytes() + sweep.traces.tobytes()
    return got


@pytest.mark.parametrize("output", ["relu", "softmax"])
def test_sweep_bytes_do_not_depend_on_stack_height(monkeypatch, output):
    rng = np.random.default_rng(30)
    if output == "relu":
        model = random_model(rng, (257, 256, 256, 256, 257), keep_prob=0.8, scale=0.06)
        model.input_mean = rng.uniform(0.5, 1.5, size=257)
        model.input_std = rng.uniform(0.5, 2.0, size=257)
    else:
        model = random_model(rng, (257, 256, 256, 8), "softmax", keep_prob=0.8, scale=0.06)
    heights = set()
    for n in (5, 47, 97, 197, 397):
        mag = rng.uniform(0.0, 3.0, size=(n, 257))
        for T in (1, 2, 8, 50):
            got = _stacked_sweeps(monkeypatch, model, mag, T)
            assert len(set(got.values())) == 1, (n, T, sorted(got))
            heights |= set(got)
    # A softmax pass over 8 classes is not stacked below 151 frames.
    assert heights == ({1, 2, 4, 8, 17, 50} if output == "relu" else {1, 2, 4, 8, 50})


@pytest.mark.parametrize("dims, n, k", [
    ((257, 256, 256, 256, 257), 1, 1), ((257, 256, 256, 256, 257), 2, 1),
    ((257, 256, 256, 256, 257), 4, 1), ((257, 256, 256, 256, 257), 5, 50),
    ((257, 256, 256, 8), 150, 1), ((257, 256, 256, 8), 151, 5),
    ((40, 64, 64, 64), 18, 1), ((40, 64, 64, 64), 19, 42),
])
def test_a_pass_whose_gemms_are_small_is_not_stacked(dims, n, k):
    # At desk width, 1-4 frames give a pass GEMMs of at most 1200 output
    # cells, as 150 frames do for 8 classes and 18 frames for 64 units;
    # OpenBLAS runs those on other kernels than a taller stack, so such a
    # sweep runs one pass per GEMM and keeps the unstacked oracle's bits.
    rng = np.random.default_rng(31)
    model = random_model(rng, dims, keep_prob=0.8, scale=0.06)
    assert neural.stack_height(n, 50, dims[2:]) == k
    mag = rng.uniform(0.0, 3.0, size=(n, dims[0]))
    assert_sweep_matches_oracle(model, mag, McConfig(n_passes=50, rng_seed=2))
