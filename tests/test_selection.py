import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import empty_mask_table, random_model, record_mask_draws, rows_drawn, write_bank
from mcenhance import selection
from mcenhance.errors import (
    DimensionMismatch,
    EmptyBank,
    InvalidConfig,
    InvalidManifest,
    LengthMismatch,
    McenError,
    MissingModels,
)
from mcenhance.mcdrop import McConfig, mc_for_model, mc_spectral_stats
from mcenhance.neural import forward
from mcenhance.selection import (
    BankOutputs,
    Decisions,
    ModelBank,
    PolicyKind,
    SelectionPolicy,
    decisions_to_csv,
    load_bank,
    route_frames,
    select_frames,
    sweep_bank,
    validate_bank,
)
from test_corpus import FUZZ, JSON_VALUES
from test_mcdrop import per_frame_stats


def make_bank(rng, n_models=3, in_dim=9, keep_prob=0.7, with_classifier=True):
    models = [random_model(rng, (in_dim, 12, in_dim), keep_prob=keep_prob)
              for _ in range(n_models)]
    labels = [f"noise_{j}" for j in range(n_models)]
    classifier = None
    if with_classifier:
        classifier = random_model(rng, (in_dim, 10, n_models),
                                  output_activation="softmax", keep_prob=0.9)
    return ModelBank(models=models, labels=labels, classifier=classifier)


def test_route_frames_classifier_argmax():
    policy = SelectionPolicy(kind=PolicyKind.CLASSIFIER_MC)
    post = np.array([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2]])
    chosen, var_route = route_frames(policy, None, post)
    np.testing.assert_array_equal(chosen, [1, 0])
    assert not var_route.any()


def test_route_frames_var_argmin_with_tie_to_lowest_index():
    policy = SelectionPolicy(kind=PolicyKind.VAR_MC)
    traces = np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 5.0]])  # [models, frames]
    chosen, var_route = route_frames(policy, traces, None)
    np.testing.assert_array_equal(chosen, [1, 0])  # tie on frame 1 -> model 0
    assert var_route.all()


def test_route_frames_mu_threshold_is_strict():
    post = np.array([[0.2, 0.8]] * 3)
    # min traces per frame: 0.10, 0.16, 0.20
    traces = np.array([[0.10, 0.16, 0.20], [0.50, 0.60, 0.70]])
    policy = SelectionPolicy(kind=PolicyKind.MU_MC, mu=0.16)
    chosen, var_route = route_frames(policy, traces, post)
    # 0.10 <= mu and 0.16 == mu go to the classifier; 0.20 > mu routes on variance
    np.testing.assert_array_equal(var_route, [False, False, True])
    np.testing.assert_array_equal(chosen, [1, 1, 0])


def test_route_frames_mixed_threshold_example():
    # one model below, one above: not "all above" -> classifier path
    traces = np.array([[0.10], [0.20]])
    post = np.array([[0.9, 0.1]])
    policy = SelectionPolicy(kind=PolicyKind.MU_MC, mu=0.16)
    chosen, var_route = route_frames(policy, traces, post)
    assert not var_route[0]
    assert chosen[0] == 0


def test_route_frames_mu_limits():
    rng = np.random.default_rng(0)
    traces = rng.uniform(0.05, 2.0, size=(4, 30))
    post = rng.dirichlet(np.ones(4), size=30)
    zero = SelectionPolicy(kind=PolicyKind.MU_MC, mu=0.0)
    chosen0, route0 = route_frames(zero, traces, post)
    var = SelectionPolicy(kind=PolicyKind.VAR_MC)
    chosen_v, _ = route_frames(var, traces, post)
    np.testing.assert_array_equal(chosen0, chosen_v)
    assert route0.all()

    huge = SelectionPolicy(kind=PolicyKind.MU_MC, mu=1e9)
    chosen9, route9 = route_frames(huge, traces, post)
    cls = SelectionPolicy(kind=PolicyKind.CLASSIFIER_MC)
    chosen_c, _ = route_frames(cls, traces, post)
    np.testing.assert_array_equal(chosen9, chosen_c)
    assert not route9.any()


def test_route_frames_monotone_in_mu():
    rng = np.random.default_rng(1)
    traces = rng.uniform(0.0, 1.0, size=(3, 50))
    post = rng.dirichlet(np.ones(3), size=50)
    n_var_prev = 51
    for mu in (0.0, 0.1, 0.3, 0.7, 2.0):
        policy = SelectionPolicy(kind=PolicyKind.MU_MC, mu=mu)
        _, var_route = route_frames(policy, traces, post)
        assert var_route.sum() <= n_var_prev
        n_var_prev = var_route.sum()


def test_route_frames_scale_invariant_argmin():
    rng = np.random.default_rng(2)
    traces = rng.uniform(0.1, 1.0, size=(3, 20))
    post = rng.dirichlet(np.ones(3), size=20)
    policy = SelectionPolicy(kind=PolicyKind.VAR_MC)
    a, _ = route_frames(policy, traces, post)
    b, _ = route_frames(policy, 7.5 * traces, post)
    np.testing.assert_array_equal(a, b)


def test_selection_policy_validation():
    with pytest.raises(InvalidConfig):
        SelectionPolicy(kind=PolicyKind.MU_MC, mu=-0.1)
    with pytest.raises(InvalidConfig):
        SelectionPolicy(kind=PolicyKind.MU_MC, mu=float("nan"))


def test_validate_bank_errors():
    rng = np.random.default_rng(3)
    with pytest.raises(EmptyBank):
        validate_bank(ModelBank(models=[], labels=[]))
    bank = make_bank(rng, 2)
    with pytest.raises(LengthMismatch):
        validate_bank(ModelBank(models=bank.models, labels=["a"]))
    with pytest.raises(InvalidConfig):
        validate_bank(ModelBank(models=bank.models, labels=["a", "a"]))
    mixed_dims = [random_model(rng, (9, 8, 9)), random_model(rng, (7, 8, 7))]
    with pytest.raises(DimensionMismatch):
        validate_bank(ModelBank(models=mixed_dims, labels=["a", "b"]))
    with pytest.raises(MissingModels):
        validate_bank(ModelBank(models=bank.models, labels=bank.labels),
                      need_classifier=True)


def per_frame_select(bank, policy, mc, mag, i):
    """Per-frame reference for select_frames: frame i on its own, its
    masks pinned to row i, routed by the policy's rule."""
    x = mag[i:i + 1]
    posteriors = forward(bank.classifier, x)[0][0]
    stats = [per_frame_stats(m, mag, mc_for_model(m, mc), i) for m in bank.models]
    traces = np.array([trace for _, _, trace in stats])
    if policy.kind is PolicyKind.VAR_MC or (
            policy.kind is PolicyKind.MU_MC and traces.min() > policy.mu):
        chosen, route = int(np.argmin(traces)), "variance"
    else:
        chosen, route = int(np.argmax(posteriors)), "classifier"
    if policy.kind is PolicyKind.CLASSIFIER_CONV:
        out = forward(bank.models[chosen], x)[0][0]
    else:
        out = stats[chosen][0]
    return chosen, route, traces, posteriors, out


@pytest.mark.parametrize("kind, mu", [
    (PolicyKind.CLASSIFIER_CONV, 0.16),
    (PolicyKind.CLASSIFIER_MC, 0.16),
    (PolicyKind.VAR_MC, 0.16),
    (PolicyKind.MU_MC, 0.0),
    (PolicyKind.MU_MC, 0.5),
    (PolicyKind.MU_MC, 1e9),
])
def test_select_frames_matches_per_frame_oracle(kind, mu):
    rng = np.random.default_rng(8)
    bank = make_bank(rng, n_models=3)
    mag = rng.uniform(0.0, 2.0, size=(6, 9))
    policy = SelectionPolicy(kind=kind, mu=mu)
    mc = McConfig(n_passes=5, rng_seed=3)
    out_mag, decisions = select_frames(BankOutputs(bank, mag, mc), policy)
    assert out_mag.shape == mag.shape
    assert decisions.chosen.shape == decisions.var_route.shape == (6,)
    routes = set()
    for i in range(6):
        chosen, route, traces, posteriors, out = per_frame_select(bank, policy, mc, mag, i)
        assert decisions.chosen[i] == chosen
        assert ("variance" if decisions.var_route[i] else "classifier") == route
        routes.add(route)
        if kind in (PolicyKind.CLASSIFIER_CONV, PolicyKind.CLASSIFIER_MC):
            assert decisions.traces is None
        else:
            np.testing.assert_allclose(decisions.traces[:, i], traces, rtol=1e-9)
        if kind is PolicyKind.VAR_MC:
            assert decisions.posteriors is None
        else:
            np.testing.assert_allclose(decisions.posteriors[i], posteriors, rtol=1e-9)
            assert decisions.posteriors[i].sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(out_mag[i], out, rtol=1e-9, atol=1e-12)
    if kind is PolicyKind.MU_MC and mu in (0.0, 1e9):
        assert routes == {"variance" if mu == 0.0 else "classifier"}


def test_single_model_bank_always_chosen():
    rng = np.random.default_rng(4)
    bank = make_bank(rng, n_models=1)
    mag = rng.uniform(0.0, 2.0, size=(3, 9))
    outputs = BankOutputs(bank, mag, McConfig(n_passes=4, rng_seed=0))
    _, decisions = select_frames(outputs, SelectionPolicy(kind=PolicyKind.VAR_MC))
    np.testing.assert_array_equal(decisions.chosen, [0, 0, 0])
    assert decisions.var_route.all()
    assert decisions.traces.shape == (1, 3)


def test_sweep_bank_shapes():
    rng = np.random.default_rng(9)
    bank = make_bank(rng, n_models=3)
    mag = rng.uniform(0.0, 2.0, size=(5, 9))
    means, traces = sweep_bank(BankOutputs(bank, mag, McConfig(n_passes=4, rng_seed=0)))
    assert means.shape == (3, 5, 9)
    assert traces.shape == (3, 5)
    assert np.all(traces >= 0.0)


def test_shared_masks_leave_every_sweep_byte_identical(monkeypatch):
    # Experts that differ in keep_prob, width, depth and precision term
    # share only the mask rows whose every dropout_mask argument matches;
    # the rest miss and draw their own. Utterances served later in the
    # process draw only the rows no earlier one needed.
    rng = np.random.default_rng(17)
    shapes = [((9, 12, 12, 9), 0.7, 0.0), ((9, 12, 12, 9), 0.7, 1e-3),
              ((9, 16, 12, 9), 0.7, 0.0), ((9, 12, 12, 9), 0.8, 0.0),
              ((9, 12, 9), 0.7, 0.0)]
    models = [random_model(rng, dims, keep_prob=p, weight_decay=wd)
              for dims, p, wd in shapes]
    bank = ModelBank(models=models, labels=[f"noise_{j}" for j in range(5)])
    mc = McConfig(n_passes=6, rng_seed=2)
    utterances = [rng.uniform(0.0, 2.0, size=(n, 9)) for n in (11, 7, 15, 11)]
    alone = []
    for mag in utterances:
        row = []
        for m in models:
            empty_mask_table(monkeypatch)
            row.append(mc_spectral_stats(m, mag, mc_for_model(m, mc)))
        alone.append(row)

    empty_mask_table(monkeypatch)
    draws = record_mask_draws(monkeypatch)
    for mag, expected in zip(utterances, alone):
        outputs = BankOutputs(bank, mag, mc)
        for j in (4, 2, 0, 3, 1):
            means, traces = outputs.mc_stats(j)
            np.testing.assert_array_equal(means, expected[j].means)
            np.testing.assert_array_equal(traces, expected[j].traces)
    # (layer, width, keep): (0,12,.7) (1,12,.7) (0,16,.7) (0,12,.8) (1,12,.8)
    keys = [(0, 12, 0.7), (1, 12, 0.7), (0, 16, 0.7), (0, 12, 0.8), (1, 12, 0.8)]
    assert rows_drawn(draws) == {(2, t, *key): 15 for t in range(mc.n_passes) for key in keys}
    # The 11 rows, then the 4 the 15-row utterance added; the 7-row one drew none.
    assert len(draws) == 2 * len(keys) * mc.n_passes


def test_bank_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    bank = make_bank(rng, n_models=3)
    write_bank(bank, tmp_path)
    assert (tmp_path / "bank.json").exists()
    back = load_bank(tmp_path)
    assert back.labels == bank.labels
    for a, b in zip(bank.models, back.models):
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
    cls_a, cls_b = bank.classifier, back.classifier
    np.testing.assert_array_equal(cls_a.weights[0], cls_b.weights[0])


def test_validate_bank_checks_a_present_classifier(tmp_path):
    rng = np.random.default_rng(14)
    bank = make_bank(rng, n_models=2)
    bank.classifier = make_bank(rng, n_models=3).classifier  # 3 outputs, 2 experts
    with pytest.raises(DimensionMismatch):
        validate_bank(bank, need_classifier=True)
    write_bank(bank, tmp_path)
    with pytest.raises(DimensionMismatch):
        load_bank(tmp_path)
    bank.classifier = None
    write_bank(bank, tmp_path)
    assert load_bank(tmp_path).classifier is None


def test_load_bank_rejects_deterministic_experts(tmp_path):
    rng = np.random.default_rng(12)
    bank = make_bank(rng, n_models=2, keep_prob=1.0)
    write_bank(bank, tmp_path)
    with pytest.raises(InvalidConfig):
        load_bank(tmp_path)


def test_load_bank_missing_pieces(tmp_path):
    rng = np.random.default_rng(13)
    with pytest.raises(MissingModels):
        load_bank(tmp_path / "nothing")
    bank = make_bank(rng, n_models=2)
    write_bank(bank, tmp_path)
    (tmp_path / "expert_noise_0.model").unlink()
    with pytest.raises(MissingModels):
        load_bank(tmp_path)


def test_load_bank_rejects_inconsistent_manifest(tmp_path):
    rng = np.random.default_rng(14)
    bank = make_bank(rng, n_models=2)
    write_bank(bank, tmp_path)
    manifest = json.loads((tmp_path / "bank.json").read_text())
    manifest["keep_probs"][0] = 0.95  # disagrees with the stored model
    (tmp_path / "bank.json").write_text(json.dumps(manifest))
    with pytest.raises(InvalidManifest):
        load_bank(tmp_path)

    manifest["keep_probs"] = manifest["keep_probs"][:1]
    (tmp_path / "bank.json").write_text(json.dumps(manifest))
    with pytest.raises(InvalidManifest):
        load_bank(tmp_path)


def test_decisions_to_csv_complete_audit(tmp_path):
    path = tmp_path / "d.csv"
    decisions_to_csv(Decisions(chosen=np.array([1, 0]),
                               var_route=np.array([True, False]),
                               traces=np.array([[0.5, 0.1], [0.25, 0.2]]),
                               posteriors=np.array([[0.4, 0.6], [0.9, 0.1]])),
                     ["a", "b"], path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["frame_index", "route", "chosen_label"]
    assert "trace_var_0" in header and "posterior_1" in header
    assert len(lines) == 3
    row0 = lines[1].split(",")
    assert row0[1] == "variance" and row0[2] == "b"
    assert row0[3:] == ["0.5", "0.25", "0.4", "0.6"]

    decisions_to_csv(Decisions(chosen=np.array([0]), var_route=np.array([False]),
                               traces=None, posteriors=np.array([[0.9, 0.1]])),
                     ["a", "b"], path)
    row1 = path.read_text().strip().splitlines()[1].split(",")
    assert row1[:3] == ["0", "classifier", "a"]
    assert row1[3] == ""  # absent trace vector leaves blank cells


def test_bank_outputs_run_each_expert_once_and_only_when_read(monkeypatch):
    rng = np.random.default_rng(15)
    bank = make_bank(rng, n_models=3)
    mag = rng.uniform(0.0, 2.0, size=(7, 9))
    calls = []
    original = selection.mc_spectral_stats

    def counted(model, frames, cfg, **kwargs):
        calls.append([m is model for m in bank.models].index(True))
        return original(model, frames, cfg, **kwargs)

    monkeypatch.setattr(selection, "mc_spectral_stats", counted)
    outputs = BankOutputs(bank, mag, McConfig(n_passes=3, rng_seed=1))
    _, conv = select_frames(outputs, SelectionPolicy(PolicyKind.CLASSIFIER_CONV))
    assert calls == []
    _, cls = select_frames(outputs, SelectionPolicy(PolicyKind.CLASSIFIER_MC))
    assert sorted(calls) == sorted(set(np.unique(cls.chosen)))
    for kind in (PolicyKind.VAR_MC, PolicyKind.MU_MC, PolicyKind.CLASSIFIER_MC):
        select_frames(outputs, SelectionPolicy(kind))
    assert sorted(calls) == [0, 1, 2]
    np.testing.assert_array_equal(conv.chosen, cls.chosen)


@FUZZ
@given(key=st.sampled_from(["labels", "model_files", "keep_probs", "classifier_file"]),
       first_only=st.booleans(), value=JSON_VALUES)
@example(key="model_files", first_only=True, value="")  # the bank directory itself
def test_load_bank_is_total_under_wrong_json_types(tmp_path_factory, key, first_only, value):
    root = tmp_path_factory.getbasetemp() / "fuzz_bank"
    write_bank(make_bank(np.random.default_rng(16), n_models=2), root)
    manifest = json.loads((root / "bank.json").read_text())
    if first_only and isinstance(manifest[key], list):
        manifest[key][0] = value
    else:
        manifest[key] = value
    (root / "bank.json").write_text(json.dumps(manifest))
    try:
        load_bank(root)
    except McenError:
        pass
