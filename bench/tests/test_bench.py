"""Tests of the benchmark itself: statistics helpers, span arithmetic,
tracer hygiene, seeding, and a MINI-scale run of every workload.

Run with `python -m pytest bench/tests`.
"""

import json
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(200) == 95.0
    # 21 samples: the 11th value still has ten above it.
    assert run.tail_percentile(21) == pytest.approx(100 * 11 / 21)
    assert run.nearest_rank(list(range(1, 22)), run.tail_percentile(21)) == 11
    assert run.nearest_rank(list(range(1, 201)), run.tail_percentile(200)) == 190


def test_tail_falls_back_to_p90_when_samples_are_few():
    assert run.tail_percentile(1) == 90.0
    assert run.tail_percentile(20) == 90.0
    assert run.nearest_rank(list(range(1, 19)), 90.0) == 17
    with pytest.raises(ValueError):
        run.tail_percentile(0)


def test_nearest_rank_median_is_lower_median():
    assert run.nearest_rank([1, 2, 3, 4], 50.0) == 2
    assert run.nearest_rank([1, 2, 3], 50.0) == 2
    assert run.nearest_rank([7], 1.0) == 7


def test_self_time_subtracts_child_cover():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6].
    recorded = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0),
                ("b", 2.0, 3.0, 1, 0), ("c", 5.0, 6.0, 0, 0)]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_merged_length_counts_overlap_once():
    assert spans.merged_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert spans.merged_length([]) == 0.0


def test_tracer_metrics_busy_and_self():
    tracer = spans.Tracer()
    tracer.spans = [("pipeline.run_train", 0.0, 10.0, -1, 0),
                    ("neural.forward", 1.0, 4.0, 0, 0),
                    ("neural.dropout_mask", 2.0, 3.0, 1, 0),
                    ("neural.forward", 5.0, 6.0, 0, 0)]
    m = tracer.metrics()
    assert m["neural.forward.calls"] == 2
    assert m["neural.forward.self_s"] == pytest.approx(3.0)
    assert m["neural.dropout_mask.busy_s"] == pytest.approx(1.0)
    assert m["pipeline.run_train.self_s"] == pytest.approx(6.0)
    assert m["pipeline.run_train.busy_s"] == pytest.approx(10.0)


def _layer_bindings():
    bound = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("mcenhance"):
            continue
        for attr, value in vars(module).items():
            if callable(value):
                bound[(name, attr)] = value
    return bound


def test_tracer_wraps_every_import_site_and_restores_originals():
    import numpy as np

    from mcenhance import mcdrop, neural, selection
    from mcenhance.mcdrop import McConfig

    before = _layer_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mcdrop.forward is not before[("mcenhance.mcdrop", "forward")]
        assert selection.forward is neural.forward
        model = neural.init_model([8, 4, 8], keep_prob=0.5, seed=1)
        mcdrop.mc_spectral_stats(model, np.ones((3, 8)), McConfig(n_passes=2))
    finally:
        tracer.uninstall()
    after = _layer_bindings()
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)
    names = [s[0] for s in tracer.spans]
    assert names.count("mcdrop.mc_spectral_stats") == 1
    assert names.count("neural.forward") == 2
    assert names.count("neural.dropout_mask") == 2
    m = tracer.metrics()
    assert m["neural.dropout_mask.words"] == 2 * 3 * 4
    assert m["neural.forward.gemm_flops"] == 2 * 2 * 3 * (8 * 4 + 4 * 8)
    assert m["mcdrop.mc_spectral_stats.sample_bytes"] == 8 * 2 * 3 * 8
    assert m["mcdrop.sweep_unique_ratio"] == 1.0


def test_benchmark_json_names_match_the_runner():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in spans.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_second_seed_changes_inputs_not_metric_set(tmp_path, capsys):
    scale = workloads.SCALES["mini"]
    a = workloads.EnhanceMixed(tmp_path / "a", 1, scale)._request_specs()
    b = workloads.EnhanceMixed(tmp_path / "b", 2, scale)._request_specs()
    assert a != b
    assert a == workloads.EnhanceMixed(tmp_path / "c", 1, scale)._request_specs()
    # Every policy and every noise preset appears in each round.
    assert {r["policy"] for r in a} == set(workloads.POLICY_NAMES)
    assert {r["noise"] for r in a} == set(workloads.NOISE_PRESETS)

    results = []
    for seed in (1, 2):
        code, result, lines = _result(capsys, "--workload", "report", "--seed", str(seed),
                                      "--seconds", "0.1", "--scale", "mini")
        assert code == 0
        digest = next(l for l in lines if l.startswith("digest "))
        results.append((set(result["metrics"]), digest.split()[3]))
    assert results[0][0] == results[1][0]
    assert results[0][1] != results[1][1]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_mini_smoke(workload, trace, capsys):
    code, result, _ = _result(capsys, "--workload", workload, "--seed", "3",
                              "--seconds", "0.1", "--trace", trace, "--scale", "mini")
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "train", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
