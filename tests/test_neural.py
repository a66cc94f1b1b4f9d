import builtins
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import float_mask, random_model, record_mask_draws, reference_pass, rows_drawn
from mcenhance import dsp, neural
from mcenhance.corpus import write_cache
from mcenhance.dsp import Signal, write_wav
from mcenhance.errors import (
    CacheMismatch,
    CorruptFile,
    DimensionMismatch,
    EmptyDataset,
    InvalidConfig,
    LabelOutOfRange,
    NegativeSpectrum,
    NonFiniteInput,
    ShapeMismatch,
    VersionMismatch,
)
from mcenhance.neural import (
    AdamState,
    DropoutStream,
    MlpModel,
    TrainConfig,
    adam_step,
    backward,
    cross_entropy_grad,
    cross_entropy_loss,
    dropout_mask,
    forward,
    inference_passes,
    init_adam_state,
    init_model,
    input_rows,
    kept_bits,
    load_model,
    msle_grad,
    msle_loss,
    predict,
    read_model_header,
    save_model,
    softmax,
    train_classifier,
    train_regressor,
)
from mcenhance.pipeline import _write_rows


def tiny_fixed_model():
    return MlpModel(
        layer_dims=[1, 2, 1],
        weights=[np.array([[1.0], [2.0]]), np.array([[1.0, 1.0]])],
        biases=[np.array([0.0, 1.0]), np.array([0.0])],
        keep_prob=1.0,
    )


def test_forward_hand_oracle():
    # x=1: z1 = (1*1+0, 2*1+1) = (1, 3); relu keeps both; y = 1+3+0 = 4
    y, _ = forward(tiny_fixed_model(), np.array([[1.0]]))
    np.testing.assert_allclose(y, [[4.0]], atol=0)


def test_forward_batch_matches_single_rows():
    rng = np.random.default_rng(7)
    model = random_model(rng, (5, 8, 8, 3), keep_prob=1.0)
    X = rng.standard_normal((6, 5))
    Y, _ = forward(model, X)
    for i in range(6):
        yi, _ = forward(model, X[i:i + 1])
        # BLAS batches and single rows can differ in the last ulp
        np.testing.assert_allclose(Y[i:i + 1], yi, rtol=1e-12, atol=1e-15)


def test_forward_input_validation():
    model = tiny_fixed_model()
    with pytest.raises(DimensionMismatch):
        forward(model, np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):  # one vector is not a frame matrix
        forward(model, np.zeros(1))
    with pytest.raises(NonFiniteInput):
        forward(model, np.array([[np.nan]]))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(8)
    p = softmax(rng.standard_normal((10, 4)) * 20)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)


def test_msle_hand_oracles():
    e = np.e
    assert msle_loss(np.array([0.0]), np.array([e - 1.0])) == pytest.approx(1.0, abs=1e-12)
    # per-element squared log-diffs 1 and 1, mean 1
    s_hat = np.array([e - 1.0, e ** 3 - 1.0])
    s = np.array([e ** 2 - 1.0, e ** 2 - 1.0])
    assert msle_loss(s_hat, s) == pytest.approx(1.0, abs=1e-12)
    assert msle_loss(np.array([5.0]), np.array([5.0])) == 0.0


def test_msle_validation():
    with pytest.raises(DimensionMismatch):
        msle_loss(np.zeros(2), np.zeros(3))
    with pytest.raises(NegativeSpectrum):
        msle_loss(np.array([-0.1]), np.array([0.0]))


def test_msle_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    s_hat = rng.uniform(0.1, 2.0, size=(4, 6))
    s = rng.uniform(0.1, 2.0, size=(4, 6))
    g = msle_grad(s_hat, s)
    h = 1e-6
    for idx in [(0, 0), (1, 3), (3, 5)]:
        up, dn = s_hat.copy(), s_hat.copy()
        up[idx] += h
        dn[idx] -= h
        num = (msle_loss(up, s) - msle_loss(dn, s)) / (2 * h)
        assert g[idx] == pytest.approx(num, rel=1e-6)


def test_cross_entropy_hand_oracle():
    probs = np.array([[0.5, 0.5]])
    labels = np.array([0])
    assert cross_entropy_loss(probs, labels) == pytest.approx(np.log(2.0), abs=1e-12)
    g = cross_entropy_grad(probs, labels)
    np.testing.assert_allclose(g, [[-2.0, 0.0]], atol=1e-12)


def _grad_check(model, X, loss_of_y, grad_of_y, h=1e-5):
    """Max relative error between backprop and central differences."""
    stream = DropoutStream(seed=3, pass_index=0) if model.keep_prob < 1.0 else None
    y, cache = forward(model, X, stream=stream)
    grads = backward(model, cache, grad_of_y(y))
    worst = 0.0
    params = model.weights + model.biases
    flat = grads.dweights + grads.dbiases
    rng = np.random.default_rng(0)
    for p, g in zip(params, flat):
        # probe a sample of coordinates in each tensor
        coords = list(np.ndindex(p.shape))
        if len(coords) > 12:
            coords = [coords[i] for i in rng.choice(len(coords), 12, replace=False)]
        for idx in coords:
            orig = p[idx]
            p[idx] = orig + h
            up = loss_of_y(forward(model, X, stream=stream)[0])
            p[idx] = orig - h
            dn = loss_of_y(forward(model, X, stream=stream)[0])
            p[idx] = orig
            num = (up - dn) / (2 * h)
            denom = max(abs(g[idx]), abs(num), 1e-6)
            worst = max(worst, abs(g[idx] - num) / denom)
    return worst


def test_gradients_msle_random_nets():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(10):
        model = random_model(rng, (5, 7, 6, 4), keep_prob=1.0)
        X = rng.uniform(0.0, 1.5, size=(3, 5))
        target = rng.uniform(0.0, 1.5, size=(3, 4))
        worst = max(worst, _grad_check(
            model, X,
            lambda y: msle_loss(y, target),
            lambda y: msle_grad(y, target)))
    assert worst < 1e-4


def test_gradients_cross_entropy_random_nets():
    rng = np.random.default_rng(43)
    worst = 0.0
    for trial in range(10):
        model = random_model(rng, (5, 7, 6, 3), output_activation="softmax",
                             keep_prob=1.0)
        X = rng.standard_normal((4, 5))
        labels = rng.integers(0, 3, size=4)
        worst = max(worst, _grad_check(
            model, X,
            lambda y: cross_entropy_loss(y, labels),
            lambda y: cross_entropy_grad(y, labels)))
    assert worst < 1e-4


def test_gradients_with_dropout_masks_held_fixed():
    rng = np.random.default_rng(44)
    model = random_model(rng, (6, 9, 9, 5), keep_prob=0.7)
    X = rng.uniform(0.0, 1.5, size=(4, 6))
    target = rng.uniform(0.0, 1.5, size=(4, 5))
    worst = _grad_check(model, X,
                        lambda y: msle_loss(y, target),
                        lambda y: msle_grad(y, target))
    assert worst < 1e-4


def test_backward_rejects_stale_cache():
    rng = np.random.default_rng(45)
    m1 = random_model(rng, (4, 6, 3), keep_prob=1.0)
    m2 = random_model(rng, (4, 7, 3), keep_prob=1.0)
    y, cache = forward(m1, rng.standard_normal((1, 4)))
    with pytest.raises(CacheMismatch):
        backward(m2, cache, np.zeros((1, 3)))
    with pytest.raises(CacheMismatch):
        backward(m1, cache, np.zeros((1, 5)))


def test_adam_first_step_scalar_oracle():
    # after one step the bias-corrected update is lr * g/(|g| + eps)
    p = np.array([1.0])
    g = np.array([0.5])
    cfg = TrainConfig(learning_rate=0.1)
    state = AdamState(m=[np.zeros(1)], v=[np.zeros(1)], t=0)
    adam_step([p], [g], state, cfg)
    assert state.t == 1
    assert p[0] == pytest.approx(1.0 - 0.1, abs=1e-7)


def test_adam_state_shapes_checked():
    cfg = TrainConfig()
    state = AdamState(m=[np.zeros(2)], v=[np.zeros(2)], t=0)
    with pytest.raises(ShapeMismatch):
        adam_step([np.zeros(2)], [np.zeros(3)], state, cfg)
    with pytest.raises(ShapeMismatch):
        adam_step([np.zeros(2), np.zeros(2)], [np.zeros(2)], state, cfg)


def test_weight_decay_shrinks_params():
    rng = np.random.default_rng(46)
    model = random_model(rng, (4, 8, 4), keep_prob=1.0, weight_decay=0.1)
    cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1)
    state = init_adam_state(model)
    w_before = np.abs(model.weights[0]).sum()
    zero_g = [np.zeros_like(p) for p in model.weights + model.biases]
    adam_step(model.weights + model.biases, zero_g, state, cfg)
    assert np.abs(model.weights[0]).sum() < w_before


def test_dropout_mask_values_and_determinism():
    s = DropoutStream(seed=5, pass_index=2)
    a = dropout_mask(s, 1, 16, 32, 0.8)
    b = dropout_mask(s, 1, 16, 32, 0.8)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == bool and a.shape == (16, 32)
    c = dropout_mask(DropoutStream(seed=5, pass_index=3), 1, 16, 32, 0.8)
    assert not np.array_equal(a, c)
    d = dropout_mask(s, 0, 16, 32, 0.8)
    assert not np.array_equal(a, d)


def test_dropout_mask_row_offset_matches_batch():
    # row i of a batch draw equals a width-1 batch positioned at offset i
    s = DropoutStream(seed=9, pass_index=0)
    batch = dropout_mask(s, 0, 8, 33, 0.75)
    for i in (0, 1, 5, 7):
        solo = dropout_mask(DropoutStream(seed=9, pass_index=0, row_offset=i),
                            0, 1, 33, 0.75)
        np.testing.assert_array_equal(batch[i], solo[0])


@pytest.mark.parametrize("offset", [np.int64(3), np.int32(8), np.uint64(1)])
def test_dropout_mask_takes_a_numpy_row_offset(offset):
    np.testing.assert_array_equal(
        dropout_mask(DropoutStream(4, 2, offset), 0, 2, 5, 0.8),
        dropout_mask(DropoutStream(4, 2, int(offset)), 0, 2, 5, 0.8))


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 2.0), ("seed", True), ("seed", "3"),
    ("pass_index", -1), ("pass_index", 0.5), ("pass_index", None),
    ("row_offset", -1), ("row_offset", 1.5), ("row_offset", False),
])
def test_dropout_stream_refuses_what_is_no_stream_address(field, value):
    # A negative row offset would name words before the stream's row 0.
    with pytest.raises(InvalidConfig, match=field):
        DropoutStream(**{"seed": 0, field: value})


def test_kept_bits_table_draws_each_row_once_and_serves_its_kept_bits(monkeypatch):
    draws = record_mask_draws(monkeypatch)
    calls = [(t, l, n, w, p) for t in (0, 1) for l in (0, 2)
             for n, w, p in ((7, 13, 0.8), (7, 13, 0.6), (7, 16, 0.8), (4, 13, 0.8),
                             (9, 13, 0.8))]
    for _ in range(3):
        for t, l, n, w, p in calls:
            got = kept_bits(5, t, l, n, w, p)
            assert got.dtype == bool and got.shape == (n, w)
            np.testing.assert_array_equal(got, dropout_mask(DropoutStream(5, t), l, n, w, p))
    # Rows 0-6 on the first call, 7-8 when 9 are asked; then always served.
    longest = {(13, 0.8): 9, (13, 0.6): 7, (16, 0.8): 7}
    assert rows_drawn(draws) == {(5, t, l, w, p): n for t in (0, 1) for l in (0, 2)
                                 for (w, p), n in longest.items()}


@settings(max_examples=60, deadline=None)
@given(row_counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       width=st.sampled_from([1, 5, 8, 13, 33]),
       keep_prob=st.sampled_from([1 / 3, 0.5, 0.8, 0.999999]),
       pass_index=st.integers(0, 3), layer=st.integers(0, 2))
def test_kept_bits_table_serves_fresh_draws_bit_for_bit(
        row_counts, width, keep_prob, pass_index, layer):
    # Growth, shrink and repeats alike: every request equals a fresh draw.
    table = neural._KeptBitsTable()
    for n in row_counts:
        np.testing.assert_array_equal(
            table.kept(7, pass_index, layer, n, width, keep_prob),
            dropout_mask(DropoutStream(7, pass_index), layer, n, width, keep_prob))
    assert {len(packed) for packed in table.rows.values()} == {max(row_counts)}


def test_dropout_mask_is_unbiased():
    kept = dropout_mask(DropoutStream(seed=1), 0, 200, 100, 0.8)
    # entries are Bernoulli(p): mean p, var p(1 - p)
    se = np.sqrt(0.8 * 0.2 / kept.size)
    assert abs(kept.mean() - 0.8) < 3 * se


@settings(max_examples=200, deadline=None)
@given(keep_prob=st.sampled_from([1 / 3, 0.5, 0.8, 0.999999, 1.0, 2.0 ** -30]),
       row_offset=st.integers(0, 5),
       offset_type=st.sampled_from([int, np.int64, np.int32, np.uint64]),
       width=st.integers(1, 257), n_rows=st.integers(0, 40),
       seed=st.integers(0, 3), pass_index=st.integers(0, 3), layer=st.integers(0, 2))
def test_dropout_mask_keeps_the_float_masks_nonzero_units(
        keep_prob, row_offset, offset_type, width, n_rows, seed, pass_index, layer):
    stream = DropoutStream(seed, pass_index, offset_type(row_offset))
    kept = dropout_mask(stream, layer, n_rows, width, keep_prob)
    assert kept.dtype == bool and kept.shape == (n_rows, width)
    np.testing.assert_array_equal(
        kept, float_mask(stream, layer, n_rows, width, keep_prob) != 0)


def _float_mask_step(model, X, stream, grad_y):
    """Test oracle: reference_pass, then backward multiplying by its float
    masks and gating each ReLU by its pre-activation; the kept-bits
    training step must match it byte for byte."""
    y, zs, hiddens, masks = reference_pass(model, X, stream)
    if model.output_activation == "relu":
        delta = grad_y * (zs[-1] > 0)
    else:
        delta = y * (grad_y - np.sum(grad_y * y, axis=1, keepdims=True))
    dweights, dbiases = [None] * len(model.weights), [None] * len(model.weights)
    for l in range(len(model.weights) - 1, -1, -1):
        dweights[l] = delta.T @ hiddens[l]
        dbiases[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l]
            if masks[l - 1] is not None:
                delta = delta * masks[l - 1]
            delta = delta * (zs[l - 1] > 0)
    return y, hiddens, dweights, dbiases


@pytest.mark.parametrize("overflow", [False, True])
def test_training_step_has_the_float_mask_steps_bytes(overflow):
    stream = DropoutStream(seed=3, pass_index=2, row_offset=4)
    for output, zscore, keep_prob in itertools.product(
            ("relu", "softmax"), (False, True), (0.7, 1.0)):
        rng = np.random.default_rng(49)
        model = random_model(rng, (6, 9, 9, 5), output_activation=output,
                             keep_prob=keep_prob)
        X = rng.uniform(0.0, 1.5, size=(11, 6))
        grad_y = rng.standard_normal((11, 5))
        if zscore:
            model.input_mean = rng.uniform(0.5, 1.0, size=6)
            model.input_std = rng.uniform(0.5, 2.0, size=6)
        if overflow:
            # Layer-0 units reach inf, or a finite value whose 1/keep_prob
            # rescale overflows; a dropped inf unit is inf * 0 = NaN.
            model.weights[0][::2] *= 1e308
            model.weights[0][1::2] *= 1e306

        with np.errstate(all="ignore"):
            y, cache = forward(model, X, stream=stream)
            grads = backward(model, cache, grad_y)
            want_y, want_hiddens, want_dw, want_db = _float_mask_step(model, X, stream, grad_y)
            _, det_cache = forward(model, X)

        assert y.tobytes() == want_y.tobytes()
        assert len(cache.hiddens) == len(want_hiddens)
        for got, want in zip(cache.hiddens, want_hiddens):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(grads.dweights + grads.dbiases, want_dw + want_db):
            assert got.tobytes() == want.tobytes()
        if keep_prob < 1.0:
            assert [m.dtype for m in cache.masks] == [bool, bool]
        else:
            assert cache.masks == [None, None]
        if overflow and keep_prob < 1.0 and not zscore:
            assert np.isnan(cache.hiddens[1]).any() and np.isinf(cache.hiddens[1]).any()
        assert det_cache.masks == [None, None]


def test_forward_keep_prob_one_ignores_stream():
    rng = np.random.default_rng(47)
    model = random_model(rng, (5, 8, 3), keep_prob=1.0)
    x = rng.standard_normal((1, 5))
    y_det, _ = forward(model, x)
    y_mc, _ = forward(model, x, stream=DropoutStream(seed=0))
    np.testing.assert_array_equal(y_det, y_mc)


def test_forward_dropout_changes_between_passes():
    rng = np.random.default_rng(48)
    model = random_model(rng, (5, 32, 32, 3), keep_prob=0.5)
    x = rng.uniform(0.5, 1.5, size=(1, 5))
    y0, _ = forward(model, x, stream=DropoutStream(seed=0, pass_index=0))
    y1, _ = forward(model, x, stream=DropoutStream(seed=0, pass_index=1))
    assert not np.array_equal(y0, y1)


def test_inference_passes_checks_input_and_runs_a_model_with_no_hidden_layer():
    rng = np.random.default_rng(50)
    model = random_model(rng, (5, 9, 4))
    with pytest.raises(NonFiniteInput):
        input_rows(model, np.array([[0.0, 1.0, np.nan, 0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        input_rows(model, np.zeros((2, 6)))
    # With no hidden layer no unit can drop, so kept is never asked and
    # every pass is the dropout-off pass.
    shallow = random_model(rng, (5, 4))
    x = rng.uniform(0.0, 1.5, size=(3, 5))
    want, _ = forward(shallow, x)

    def never(t, l, width):
        raise AssertionError("a model with no hidden layer has no mask")

    passes = [y.copy() for y, _ in inference_passes(shallow, x, n_passes=3, kept=never)]
    assert [y.tobytes() for y in passes] == [want.tobytes()] * 3


@settings(max_examples=150, deadline=None)
@given(n_hidden=st.integers(0, 3), output=st.sampled_from(["relu", "softmax"]),
       zscore=st.booleans(), keep_prob=st.sampled_from([1.0, 0.7]),
       overflow=st.booleans(), n_rows=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_predict_is_the_dropout_off_forward_bit_for_bit(
        n_hidden, output, zscore, keep_prob, overflow, n_rows, seed):
    rng = np.random.default_rng(seed)
    dims = (6, *(int(w) for w in rng.integers(1, 12, size=n_hidden)), 5)
    model = random_model(rng, dims, output_activation=output, keep_prob=keep_prob)
    if zscore:
        model.input_mean = rng.uniform(0.5, 1.5, size=6)
        model.input_std = rng.uniform(0.5, 2.0, size=6)
    if overflow:
        # Layer-0 units (or outputs) reach inf, and inf - inf is NaN.
        model.weights[0][::2] *= 1e308
        model.weights[0][1::2] *= -1e308
    x = rng.uniform(0.0, 1.5, size=(n_rows, 6))
    with np.errstate(all="ignore"):
        want, _ = forward(model, x)
        got = predict(model, x)
        reference = reference_pass(model, x)[0]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == reference.tobytes()


def test_train_regressor_converges_and_logs_losses():
    rng = np.random.default_rng(49)
    clean = rng.uniform(0.0, 2.0, size=(400, 12))
    noisy = np.abs(clean + 0.05 * rng.standard_normal(clean.shape))
    cfg = TrainConfig(n_epochs=20, batch_size=32, rng_seed=3,
                      learning_rate=3e-3, hidden_dims=(32, 32), keep_prob=0.9)
    model, losses = train_regressor(noisy, clean, cfg, noise_label="fit")
    assert len(losses) == cfg.n_epochs + 1
    assert losses[-1] < losses[0]
    # the per-epoch log includes dropout noise; judge convergence on a
    # deterministic pass
    y, _ = forward(model, noisy)
    assert msle_loss(y, clean) < 0.1 * losses[0]
    assert model.noise_label == "fit"
    assert model.n_train_frames == 400
    assert model.layer_dims == [12, 32, 32, 12]


@pytest.mark.parametrize("trainer", [
    train_regressor, lambda x, y, cfg: train_classifier(x, y, cfg, n_classes=3),
], ids=["regressor", "classifier"])
def test_training_is_deterministic(tmp_path, trainer):
    rng = np.random.default_rng(50)
    clean = rng.uniform(0.0, 1.0, size=(80, 6))
    noisy = rng.uniform(0.0, 1.0, size=(80, 6))
    targets = clean if trainer is train_regressor else rng.integers(0, 3, size=80)
    cfg = TrainConfig(n_epochs=2, batch_size=32, rng_seed=7, hidden_dims=(16,))
    runs = []
    for k in range(2):
        model, losses = trainer(noisy, targets, cfg)
        save_model(model, tmp_path / f"{k}.model")
        runs.append((losses, (tmp_path / f"{k}.model").read_bytes()))
    assert runs[0] == runs[1]


def test_train_regressor_validation():
    cfg = TrainConfig(n_epochs=1, hidden_dims=(8,))
    with pytest.raises(EmptyDataset):
        train_regressor(np.zeros((0, 4)), np.zeros((0, 4)), cfg)
    with pytest.raises(DimensionMismatch):
        train_regressor(np.zeros((4, 4)), np.zeros((3, 4)), cfg)
    with pytest.raises(NegativeSpectrum):
        train_regressor(-np.ones((4, 4)), np.ones((4, 4)), cfg)


def test_train_classifier_learns_separable_classes():
    rng = np.random.default_rng(51)
    n = 300
    labels = rng.integers(0, 3, size=n)
    centers = np.array([[2.0, 0.1, 0.1], [0.1, 2.0, 0.1], [0.1, 0.1, 2.0]])
    X = np.abs(centers[labels] + 0.1 * rng.standard_normal((n, 3)))
    cfg = TrainConfig(n_epochs=20, batch_size=32, rng_seed=1,
                      hidden_dims=(16,), keep_prob=0.9)
    model, losses = train_classifier(X, labels, cfg, n_classes=3)
    probs, _ = forward(model, X)
    assert (np.argmax(probs, axis=1) == labels).mean() > 0.95
    assert losses[-1] < losses[0]


def test_train_classifier_label_range():
    cfg = TrainConfig(n_epochs=1, hidden_dims=(8,))
    X = np.ones((4, 3))
    with pytest.raises(LabelOutOfRange):
        train_classifier(X, np.array([0, 1, 2, 3]), cfg, n_classes=3)
    with pytest.raises(LabelOutOfRange):
        train_classifier(X, np.array([0, -1, 0, 0]), cfg, n_classes=3)


def test_zscore_input_norm_round_trips(tmp_path):
    rng = np.random.default_rng(52)
    clean = rng.uniform(0.0, 2.0, size=(60, 5))
    noisy = rng.uniform(0.0, 2.0, size=(60, 5))
    cfg = TrainConfig(n_epochs=1, batch_size=32, hidden_dims=(8,),
                      input_norm="zscore")
    model, _ = train_regressor(noisy, clean, cfg)
    assert model.input_mean is not None and model.input_std is not None
    path = tmp_path / "z.model"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.input_mean, model.input_mean)
    y1, _ = forward(model, noisy[:3])
    y2, _ = forward(back, noisy[:3])
    np.testing.assert_array_equal(y1, y2)


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(53)
    model = random_model(rng, (6, 10, 4), keep_prob=0.85, weight_decay=1e-4)
    model.noise_label = "pink_broadband"
    model.n_train_frames = 1234
    path = tmp_path / "m.model"
    save_model(model, path)
    back = load_model(path)
    assert back.layer_dims == list(model.layer_dims)
    assert back.keep_prob == model.keep_prob
    assert back.weight_decay == model.weight_decay
    assert back.n_train_frames == 1234
    assert back.noise_label == "pink_broadband"
    for a, b in zip(model.weights + model.biases, back.weights + back.biases):
        np.testing.assert_array_equal(a, b)


# Each writer takes (path, rng) and writes well over 100 bytes.
_WRITERS = {
    "model": ("m.model", lambda path, rng: save_model(random_model(rng, (3, 5, 2)), path)),
    "csv-rows": ("rows.csv", lambda path, rng: _write_rows(
        path, ["a", "b"], rng.uniform(size=(20, 2)).tolist(), comment="c")),
    "wav": ("x.wav", lambda path, rng: write_wav(path, Signal(rng.uniform(-0.5, 0.5, 400)))),
    "frame-cache": ("frames.mcfr", lambda path, rng: write_cache(
        path, rng.uniform(size=(4, 6)), rng.uniform(size=(4, 6)))),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_interrupted_save_keeps_the_earlier_model_file(tmp_path, monkeypatch, writer):
    """Every artifact goes through dsp.publish, so a write that fails
    midway leaves the earlier file whole and no .tmp behind."""
    name, write = _WRITERS[writer]
    rng = np.random.default_rng(56)
    path = tmp_path / name
    write(path, rng)
    before = path.read_bytes()

    class DiskFull:
        """A file that fails once 100 bytes have been written."""

        def __init__(self, fh):
            self.fh, self.room = fh, 100

        def write(self, data):
            if len(data) > self.room:
                raise OSError(28, "No space left on device")
            self.room -= len(data)
            return self.fh.write(data)

        def __getattr__(self, attr):  # tell, seek and flush, which wave calls
            return getattr(self.fh, attr)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(dsp, "open", lambda *a, **k: DiskFull(builtins.open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        write(path, rng)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_model_file_corruption_detected(tmp_path):
    rng = np.random.default_rng(54)
    model = random_model(rng, (3, 5, 2))
    path = tmp_path / "m.model"
    save_model(model, path)
    raw = path.read_bytes()

    truncated = tmp_path / "t.model"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(CorruptFile):
        load_model(truncated)

    magic = tmp_path / "bad.model"
    magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CorruptFile):
        load_model(magic)

    version = tmp_path / "v.model"
    version.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(VersionMismatch):
        load_model(version)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_file_with_a_non_finite_parameter_is_corrupt(tmp_path, value):
    rng = np.random.default_rng(55)
    model = random_model(rng, (3, 5, 2))
    model.weights[1][1, 2] = value
    path = tmp_path / "m.model"
    save_model(model, path)
    with pytest.raises(CorruptFile, match="m.model"):
        load_model(path)


@pytest.mark.parametrize("std", [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0]])
def test_model_file_with_a_non_positive_input_std_is_corrupt(tmp_path, std):
    # The z-score divides by input_std, which training floors at 1e-8.
    rng = np.random.default_rng(56)
    model = random_model(rng, (3, 5, 2))
    model.input_mean = np.zeros(3)
    model.input_std = np.array(std)
    path = tmp_path / "m.model"
    save_model(model, path)
    with pytest.raises(CorruptFile, match="m.model"):
        load_model(path)


def _with_header(raw, edit):
    """Model bytes with the JSON header replaced by edit(header)."""
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + hlen])
    blob = json.dumps(edit(header)).encode()
    return raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:]


@pytest.mark.parametrize("edit", [
    lambda h: {**h, "layer_dims": 5},
    lambda h: {**h, "layer_dims": [3, "5", 2]},
    lambda h: {**h, "keep_prob": None},
    lambda h: {**h, "keep_prob": 1.5},
    lambda h: {**h, "output_activation": "tanh"},
    lambda h: {**h, "weight_decay": "x"},
    lambda h: {**h, "seed": 1e400},
    lambda h: {**h, "input_norm": ["zscore"]},
    lambda h: list(h),
    lambda h: "model",
    lambda h: {**h, "n_train_frames": -5},
    lambda h: {**h, "n_train_frames": True},
    lambda h: {**h, "seed": 2.7},
    lambda h: {**h, "noise_label": 5},
    lambda h: {**h, "keep_prob": "0.8"},
    lambda h: {**h, "hidden_activation": "tanh"},
    lambda h: {**h, "hidden_activation": None},
    lambda h: {**h, "hidden_activation": ["relu"]},
    lambda h: {k: v for k, v in h.items() if k != "hidden_activation"},
], ids=["dims-int", "dims-str", "keep-null", "keep-range", "activation",
        "decay-str", "seed-inf", "norm-list", "header-list", "header-str",
        "frames-negative", "frames-bool", "seed-float", "label-int", "keep-str",
        "hidden-tanh", "hidden-null", "hidden-list", "hidden-missing"])
def test_model_header_wrong_types_are_corrupt(tmp_path, edit):
    rng = np.random.default_rng(55)
    path = tmp_path / "m.model"
    save_model(random_model(rng, (3, 5, 2)), path)
    bad = tmp_path / "bad.model"
    bad.write_bytes(_with_header(path.read_bytes(), edit))
    with pytest.raises(CorruptFile):
        load_model(bad)
    with pytest.raises(CorruptFile):
        read_model_header(bad)


def test_read_model_header_reads_only_the_header(tmp_path):
    rng = np.random.default_rng(56)
    model = random_model(rng, (3, 5, 2), keep_prob=0.7, weight_decay=1e-4)
    path = tmp_path / "m.model"
    save_model(model, path)
    header = read_model_header(path)
    assert {k: header[k] for k in ("layer_dims", "keep_prob", "weight_decay", "seed")} == {
        "layer_dims": [3, 5, 2], "keep_prob": 0.7, "weight_decay": 1e-4, "seed": model.seed}
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    path.write_bytes(raw[:12 + hlen])  # no parameters: load_model refuses it, the header reads
    with pytest.raises(CorruptFile):
        load_model(path)
    assert read_model_header(path) == header
    for cut in (0, 7, 12 + hlen - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(CorruptFile):
            read_model_header(path)


def test_init_model_reproducible():
    a = init_model((4, 8, 2), seed=5)
    b = init_model((4, 8, 2), seed=5)
    c = init_model((4, 8, 2), seed=6)
    np.testing.assert_array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])
    assert all(np.all(bias == 0) for bias in a.biases)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(keep_prob=0.0)
    with pytest.raises(ValueError):
        TrainConfig(input_norm="whiten")
