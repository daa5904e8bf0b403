"""Checks of the benchmark's own arithmetic and wrappers.

    python3 -m pytest perfbench -q

These live outside the repository's `tests/` so the tier-1 run never
collects them.
"""

import json
import os

import numpy as np
import pytest

import mklmmwu
from mklmmwu import Dataset, SolverConfig, fit, make_default_family, model as model_mod, solver
from bench import LAYER_MOVES, UNITS, unit_of
from spans import END, NAME, Recorder, Tracer, op_calls, repeat_share, self_times, summarize
from mklmmwu.model import load_model
from workloads import (
    CheckFailed, TrainAllFeature, check_inputs, iteration_budget, make_inputs, run_cli,
    weighted_quadform, write_libsvm,
)


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("solver.train", 1.0, 9.0, 0),
        span("solver.apply_update", 2.0, 5.0, 1),
        span("kernels.signed_columns_all", 2.5, 4.0, 2),
        span("solver.exponentiate_m", 6.0, 7.0, 1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 4.0, 1.5, 1.5, 1.0])


def test_recorder_nests_spans_in_call_order():
    rec = Recorder()
    outer = rec.open("a")
    inner = rec.open("b")
    rec.close(inner)
    rec.close(outer)
    sibling = rec.open("c")
    rec.close(sibling)
    assert [(s[NAME], s[3]) for s in rec.spans] == [("a", -1), ("b", 0), ("c", -1)]
    assert all(s[END] >= s[1] for s in rec.spans)


def test_repeat_share_counts_hits_in_window_per_owner():
    # owner "x": 1 2 1 3 2 -> the second 1 and the second 2 repeat.
    # owner "y" starts an empty window, so its 1 is new; then 1 again repeats.
    requests = [("x", j) for j in (1, 2, 1, 3, 2)] + [("y", 1), ("y", 1)]
    assert repeat_share(requests) == pytest.approx(3 / 7)
    # With a window of 2, index 1 at position 2 is still in the window
    # (1, 2) but index 2 at position 4 has left it (1, 3).
    assert repeat_share([("x", j) for j in (1, 2, 1, 3, 2)], window=2) == pytest.approx(1 / 5)
    assert repeat_share([]) == 0.0


def tiny_fit_spans():
    rng = np.random.default_rng(3)
    pts = rng.random((12, 2))
    labels = np.where(pts[:, 0] > 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    rec = Recorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        model = fit(Dataset(pts, labels), make_default_family(2), SolverConfig(eps=1.0, margin="l2", C=1.0))
    finally:
        tracer.uninstall()
    return rec.spans, model


def test_tiny_fit_requests_two_columns_per_iteration_plus_one_per_support_vector():
    spans, model = tiny_fit_spans()
    T = iteration_budget(12, eps=1.0)
    calls = op_calls([spans])
    assert calls["solver.train"] == 1
    assert calls["solver.apply_update"] == T
    assert calls["kernels.signed_columns_all"] == 2 * T + model.n_support
    layer = summarize([[spans]])
    assert layer["kernels.signed_columns_all_calls"] == 2 * T + model.n_support
    assert layer["solver.iterations"] == T
    assert layer["model.n_support"] == model.n_support
    assert 0.0 < layer["kernels.signed_columns_all_share"] < 1.0


def test_wrappers_reach_imported_names_and_are_removed():
    originals = (solver.bind, model_mod.train, mklmmwu.decision_values, mklmmwu.GramAccessor.signed_columns_all)
    tracer = Tracer(Recorder())
    tracer.install()
    try:
        assert solver.bind is not originals[0]
        assert model_mod.train is not originals[1]
        assert mklmmwu.decision_values is not originals[2]
        assert mklmmwu.GramAccessor.signed_columns_all is not originals[3]
    finally:
        tracer.uninstall()
    assert (solver.bind, model_mod.train, mklmmwu.decision_values,
            mklmmwu.GramAccessor.signed_columns_all) == originals


def test_trained_model_meets_the_quadform_identity():
    _, model = tiny_fit_spans()
    assert weighted_quadform(model) == pytest.approx(1.0, abs=1e-10)


def test_inputs_repeat_per_seed_and_keep_their_promised_shape():
    a = make_inputs(351, 33, seed=5)
    b = make_inputs(351, 33, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    with pytest.raises(ValueError, match="positive share"):
        check_inputs(a[0], np.ones(351), 351, 33)
    with pytest.raises(ValueError, match="wanted"):
        check_inputs(a[0], a[1], 350, 33)


def test_benchmark_json_matches_the_reported_metrics():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layer) == set(LAYER_MOVES)
    assert set(summarize([])) <= set(layer)
    assert all(unit_of(name) == unit for name, unit in layer.items())


def test_train_checks_pass_and_catch_a_one_ulp_difference(tmp_path):
    w = TrainAllFeature(str(tmp_path), seed=0)
    write_libsvm(w.data_path, *make_inputs(40, 6, seed=0))
    code, output = run_cli(w.argv())
    assert code == 0
    w.check(output)
    with open(w.model_path, encoding="utf-8") as fh:
        model = load_model(fh)
    w.check_saved(model)
    model.bias = np.nextafter(model.bias, np.inf)
    with pytest.raises(CheckFailed):
        w.check_saved(model)
