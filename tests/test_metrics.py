import numpy as np
import pytest

from mcenhance.dsp import FrameConfig, Signal, stft
from mcenhance.errors import (
    DegenerateInput,
    InvalidConfig,
    LengthMismatch,
    NoVoicedFrames,
    ShapeMismatch,
)
from mcenhance.mcdrop import McConfig
from mcenhance.metrics import (
    sse,
    ssnr,
    threshold_sweep,
    variance_error_correlation,
)
from mcenhance.selection import BankOutputs, PolicyKind, SelectionPolicy, select_frames
from test_selection import make_bank

CFG = FrameConfig()


def test_sse_hand_oracle():
    ref = np.array([[1.0, 2.0], [3.0, 4.0]])
    est = np.array([[1.0, 0.0], [0.0, 4.0]])
    total, per_frame = sse(ref, est)
    assert total == 13.0  # 4 + 9
    np.testing.assert_array_equal(per_frame, [4.0, 9.0])


def test_sse_shape_check():
    with pytest.raises(ShapeMismatch):
        sse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_sse_zero_for_identical():
    rng = np.random.default_rng(0)
    m = rng.uniform(0, 5, size=(4, 7))
    total, per_frame = sse(m, m.copy())
    assert total == 0.0
    assert np.all(per_frame == 0.0)


def _voiced_signal(n=8000, seed=1):
    rng = np.random.default_rng(seed)
    return Signal(0.1 * rng.standard_normal(n) + 0.05, 16000)


def test_ssnr_perfect_estimate_hits_ceiling():
    clean = _voiced_signal()
    assert ssnr(clean, Signal(clean.samples.copy(), 16000), CFG) == 35.0


def test_ssnr_zero_estimate_gives_zero_db():
    # error energy equals clean energy in every frame
    clean = _voiced_signal()
    zero = Signal(np.zeros(len(clean.samples)), 16000)
    assert ssnr(clean, zero, CFG) == pytest.approx(0.0, abs=1e-9)


def test_ssnr_floor_clamp():
    clean = _voiced_signal()
    # estimate dominated by a huge error signal
    loud = Signal(clean.samples + 100.0, 16000)
    assert ssnr(clean, loud, CFG) == -10.0


def test_ssnr_silent_clean_rejected():
    silent = Signal(np.zeros(8000), 16000)
    est = Signal(np.ones(8000) * 0.01, 16000)
    with pytest.raises(NoVoicedFrames):
        ssnr(silent, est, CFG)


def test_ssnr_excludes_silent_frames():
    rng = np.random.default_rng(2)
    voiced = 0.1 * rng.standard_normal(4000) + 0.05
    clean = Signal(np.concatenate([voiced, np.zeros(4000)]), 16000)
    est = np.concatenate([voiced, np.zeros(4000)])
    # junk placed more than a frame length past the boundary, so every
    # frame containing it is silent in the reference and excluded
    est[5000:7000] = 0.01
    assert ssnr(clean, Signal(est, 16000), CFG) == 35.0


def test_ssnr_length_mismatch():
    with pytest.raises(LengthMismatch):
        ssnr(_voiced_signal(8000), _voiced_signal(9000), CFG)


def test_correlation_exact_oracles():
    se = np.array([1.0, 2.0, 3.0, 4.0])
    assert variance_error_correlation(se, 2.0 * se) == pytest.approx(1.0, abs=1e-12)
    assert variance_error_correlation(se, -3.0 * se + 20.0) == pytest.approx(-1.0, abs=1e-12)
    # hand value: se=[1,2,3], tv=[1,1,4]; r = cov/(sd*sd) = 1.5/(1*sqrt(3)) ... compute exactly
    se3 = np.array([1.0, 2.0, 3.0])
    tv3 = np.array([1.0, 1.0, 4.0])
    num = np.sum((se3 - 2.0) * (tv3 - 2.0))
    den = np.sqrt(np.sum((se3 - 2.0) ** 2) * np.sum((tv3 - 2.0) ** 2))
    assert variance_error_correlation(se3, tv3) == pytest.approx(num / den, abs=1e-12)


def test_correlation_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        variance_error_correlation(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DegenerateInput):
        variance_error_correlation(np.ones(5), np.arange(5.0))
    with pytest.raises(DegenerateInput):
        variance_error_correlation(np.arange(5.0), np.full(5, 2.0))
    with pytest.raises(LengthMismatch):
        variance_error_correlation(np.arange(4.0), np.arange(5.0))


def _entry(bank, mc, rng, condition, n_samples):
    """One (condition, BankOutputs, clean magnitudes) sweep entry from a
    random noisy/clean pair."""
    noisy = Signal(0.05 * rng.standard_normal(n_samples), 16000)
    clean = Signal(0.05 * rng.standard_normal(n_samples), 16000)
    return condition, BankOutputs(bank, stft(noisy, CFG).magnitude, mc), stft(clean, CFG).magnitude


def test_threshold_sweep_requires_ascending_grid():
    rng = np.random.default_rng(5)
    bank = make_bank(rng, n_models=2, in_dim=CFG.n_bins)
    entry = _entry(bank, McConfig(n_passes=2, rng_seed=0), rng, "c", 4000)
    with pytest.raises(InvalidConfig):
        threshold_sweep([entry], np.array([0.2, 0.1]))


def test_threshold_sweep_endpoints_match_direct_policies():
    rng = np.random.default_rng(6)
    bank = make_bank(rng, n_models=2, in_dim=CFG.n_bins)
    mc = McConfig(n_passes=3, rng_seed=1)
    entry = _entry(bank, mc, rng, "cond_a", 6000)
    grid = np.array([0.0, 0.5, 1e9])
    rows = threshold_sweep([entry], grid)
    assert len(rows) == 3
    by_mu = {mu: val for mu, cond, val in rows}

    _, swept, clean_mag = entry
    outputs = BankOutputs(bank, swept.mag, mc)  # fresh: nothing the sweep kept is reused
    var_mag, _ = select_frames(outputs, SelectionPolicy(kind=PolicyKind.VAR_MC))
    cls_mag, _ = select_frames(outputs, SelectionPolicy(kind=PolicyKind.CLASSIFIER_MC))
    var_sse, _ = sse(clean_mag, var_mag)
    cls_sse, _ = sse(clean_mag, cls_mag)
    assert by_mu[0.0] == var_sse  # bit-exact shared code path
    assert by_mu[1e9] == cls_sse


def test_threshold_sweep_is_pure():
    rng = np.random.default_rng(7)
    bank = make_bank(rng, n_models=2, in_dim=CFG.n_bins)
    mc = McConfig(n_passes=2, rng_seed=2)
    condition, outputs, clean_mag = _entry(bank, mc, rng, "c", 4000)
    grid = np.array([0.0, 1.0])
    r1 = threshold_sweep([(condition, outputs, clean_mag)], grid)
    r2 = threshold_sweep([(condition, BankOutputs(bank, outputs.mag, mc), clean_mag)], grid)
    assert r1 == r2


def test_threshold_sweep_averages_over_files():
    rng = np.random.default_rng(8)
    bank = make_bank(rng, n_models=2, in_dim=CFG.n_bins)
    mc = McConfig(n_passes=2, rng_seed=3)
    files = [_entry(bank, mc, rng, "same_cond", 4000) for _ in range(3)]
    rows = threshold_sweep(files, np.array([0.1]))
    assert len(rows) == 1
    singles = [threshold_sweep([f], np.array([0.1]))[0][2] for f in files]
    assert rows[0][2] == pytest.approx(np.mean(singles), rel=1e-12)
