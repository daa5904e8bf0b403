"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The heavy protocol reproduction (criterion 7) takes several minutes; the
whole module is sized to finish well inside its stated budgets.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from mklmmwu import (
    Dataset,
    KernelSpec,
    SolverConfig,
    apply_scaling,
    bind,
    decision_values,
    extract_weights,
    fit_scaling,
    load_model,
    make_default_family,
    serialize_model,
    split,
    train,
)
from mklmmwu.cli import run_protocol
from mklmmwu.data import ScalingParams
from mklmmwu.model import MklModel
from mklmmwu.solver import iteration_budget

from helpers import arrow_matrix, dense_grams, make_additive_synth, make_blobs, make_random_dataset
from reference import arrow_exp, brute_qcqp, certified_bracket, dense_expm, dense_signed_gram


def _report(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_closed_form_exponentiation():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        a = float(rng.uniform(0.0, 2.0))
        u = rng.normal(size=n)
        target = float(rng.uniform(0.0, 5.0))
        u *= target / max(float(np.linalg.norm(u)), 1e-300)
        closed = arrow_exp(a, u)
        series = dense_expm(arrow_matrix(a, u))
        rel = float(np.abs(closed - series).max() / np.abs(series).max())
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"200 arrow matrices, worst entrywise rel err {worst:.2e}, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def full_training_runs():
    """20 complete runs on random data, n <= 200 and m <= 24."""
    runs = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(30, 201))
        per_feature = seed % 2 == 1
        d = 2 if per_feature else int(rng.integers(2, 7))
        pts = rng.random((n, d))
        labels = np.where(rng.random(n) < 0.55, 1.0, -1.0)
        labels[:2] = (1.0, -1.0)
        ds = Dataset(pts, labels)
        family = make_default_family(d, per_feature=per_feature)
        eps = float(rng.choice((0.25, 0.3, 0.4, 0.5)))
        if seed % 3 == 0:
            config = SolverConfig(eps=eps, margin="hard")
        else:
            config = SolverConfig(eps=eps, margin="l2", C=float(rng.choice((0.5, 2.0, 10.0))))
        state, total = train(ds, family, config)
        runs.append((ds, state, total))
    return runs


def test_criterion_2_width_bound(full_training_runs):
    worst = max(state.max_step_width for _, state, _ in full_training_runs)
    _report(
        2,
        worst <= 0.5 + 1e-12,
        f"20 full runs (m up to 24, n up to 200), max step width {worst:.15f}",
    )


def test_criterion_3_dual_feasibility_and_oracle_constraint(full_training_runs):
    ok = True
    worst_oracle = 0.0
    for ds, state, total in full_training_runs:
        normalized = state.alpha_bar / total
        ok &= bool((normalized >= 0.0).all())
        ok &= float(state.alpha_bar @ ds.labels) / total == 0.0
        ok &= abs(float(state.alpha_bar.sum()) / total - 1.0) <= 1e-12
        ok &= state.min_oracle_value >= -1.0 - 1e-9
        worst_oracle = min(worst_oracle, state.min_oracle_value)
    _report(
        3,
        ok,
        f"alpha/T >= 0, exact y-orthogonality, unit mass; min g'a = {worst_oracle:.3e} >= -1-1e-9",
    )


def test_criterion_4_approximation_guarantee():
    t0 = time.perf_counter()
    eps = 0.1
    worst_ratio = 0.0
    worst_identity = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 4))
        pts = rng.random((n, d))
        labels = np.ones(n)
        labels[: n // 2] = -1.0
        rng.shuffle(labels)
        ds = Dataset(pts, labels)
        specs = [KernelSpec("poly", 1.0), KernelSpec("gaussian", 1.0), KernelSpec("gaussian", 4.0)]
        accessor = bind(specs, ds, ridge=1.0)  # 1/C for the fit below
        gmats = [dense_signed_gram(accessor, i) for i in range(3)]
        oracle = brute_qcqp(gmats, ds.labels, seed=seed)
        state, total = train(ds, specs, SolverConfig(eps=eps, margin="l2", C=1.0))
        qhat = state.q / total**2
        worst_ratio = max(worst_ratio, float(qhat.max()) / oracle.omega)
        mu = extract_weights(state)
        worst_identity = max(worst_identity, abs(float(mu @ qhat) - 1.0))
    elapsed = time.perf_counter() - t0
    _report(
        4,
        worst_ratio <= 1.0 + eps and worst_identity <= 1e-12 and elapsed < 120.0,
        f"20 tiny instances: worst obj/omega* {worst_ratio:.4f} <= 1.1, "
        f"worst |sum mu qhat - 1| {worst_identity:.1e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module", params=[(30, True), (120, False)], ids=["per_feature_n30", "all_feature_n120"])
def workload_sized_fit(request):
    """A fit at eps = 0.2, C = 10 on a scaled 33-feature set shaped like the
    bench's (seed 1), beside the certified bracket on omega* of its dense
    G_i: (objective max_i qhat_i, lo, hi, eps)."""
    n, per_feature = request.param
    raw = make_additive_synth(n, 33, seed=1)
    ds = apply_scaling(raw, fit_scaling(raw))
    family = make_default_family(33, per_feature=per_feature)
    config = SolverConfig(eps=0.2, margin="l2", C=10.0)
    lo, hi, _ = certified_bracket(dense_grams(ds, family, config.ridge)[1], ds.labels)
    state, total = train(ds, family, config)
    return float((state.q / total**2).max()), lo, hi, config.eps


def test_bracket_at_workload_sizes(workload_sized_fit):
    objective, lo, hi, _ = workload_sized_fit
    assert 0.0 < lo <= hi < 1.002 * lo
    assert lo <= objective  # the fit's point is feasible


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_approximation_factor_at_workload_sizes(workload_sized_fit):
    # criterion 4's factor, measured where the workloads run; the budget
    # comes from an additive regret bound, which is a (1 + eps) factor
    # only when omega* is of order 1
    objective, lo, _, eps = workload_sized_fit
    assert objective <= (1.0 + eps) * lo, f"max_i qhat_i / lo = {objective / lo:.3f}"


def test_criterion_5_iteration_counts():
    # direct arithmetic on T = ceil((8 rho^2 / eps^2) ln n) with rho = 3/2
    expected = {(0.2, 208): 2402, (0.2, 1000): 3109, (0.07, 5000): 31288}
    ok = True
    details = []
    for (eps, n), want in expected.items():
        formula = math.ceil((8.0 * 1.5**2 / eps**2) * math.log(n))
        assert formula == want
        budget = iteration_budget(SolverConfig(eps=eps), n)
        rng = np.random.default_rng(3)
        pts = rng.random((n, 2))
        labels = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        labels[:2] = (1.0, -1.0)
        state, total = train(Dataset(pts, labels), [KernelSpec("poly", 1.0)], SolverConfig(eps=eps))
        ok &= budget == want and total == want and state.t == want
        details.append(f"(eps={eps}, n={n}) -> {total}")
    _report(5, ok, "executed " + ", ".join(details))


def test_criterion_6_memory_contract():
    def peak_bytes(n):
        rng = np.random.default_rng(4)
        pts = rng.random((n, 4))
        labels = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        labels[:2] = (1.0, -1.0)
        ds = Dataset(pts, labels)
        family = make_default_family(4)
        config = SolverConfig(eps=0.2, margin="l2", C=10.0, max_iters_override=60)
        tracemalloc.start()
        train(ds, family, config)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    p1, p2 = peak_bytes(1000), peak_bytes(2000)
    ratio = p2 / p1
    # a single Theta(n^2) float64 block would dwarf these bounds
    no_square = p1 < 0.25 * (1000**2) * 8 and p2 < 0.25 * (2000**2) * 8
    _report(
        6,
        ratio <= 2.3 and no_square,
        f"peak {p1/1024:.0f} KiB (n=1000) -> {p2/1024:.0f} KiB (n=2000), ratio {ratio:.2f} <= 2.3, "
        f"no n^2-sized allocation",
    )


@pytest.mark.slow
def test_criterion_7_protocol_reproduction():
    t0 = time.perf_counter()
    repeats = 30
    base_seed = 42

    # small-data protocol on a 351 x 33 synthetic set with 12*d kernels
    data = make_additive_synth(351, 33, seed=7)
    results = run_protocol(
        data,
        eps_grid=[0.2],
        c_grid=[0.1, 1.0, 10.0, 100.0],
        margin="l2",
        folds=3,
        repeats=repeats,
        seed=base_seed,
        per_feature=True,
        jobs=2,
    )
    errors = [r["test_error"] for r in results]
    baselines = []
    for r in range(repeats):
        _, test_ds = split(data, 0.8, base_seed + 7919 * r)
        baselines.append(float(min((test_ds.labels > 0).mean(), (test_ds.labels < 0).mean())))
    med_err = float(np.median(errors))
    med_base = float(np.median(baselines))

    # linearly separable two-blob set: median test error must be exactly 0
    blob = make_blobs(200, seed=11)
    blob_errors = []
    for r in range(repeats):
        tr, te = split(blob, 0.8, 500 + r)
        from mklmmwu import apply_scaling, error_rate, fit, fit_scaling

        params = fit_scaling(tr)
        model = fit(apply_scaling(tr, params), make_default_family(2), SolverConfig(eps=0.2, margin="hard"))
        blob_errors.append(error_rate(model, apply_scaling(te, params)))
    med_blob = float(np.median(blob_errors))

    elapsed = time.perf_counter() - t0
    _report(
        7,
        len(results) == repeats
        and med_err <= med_base - 0.15
        and med_blob == 0.0
        and elapsed < 1800.0,
        f"median error {med_err:.3f} vs baseline {med_base:.3f} "
        f"(beats by {100*(med_base-med_err):.1f} pts >= 15), blob median {med_blob}, "
        f"{elapsed/60:.1f} min < 30 min",
    )


def test_criterion_8_linear_iteration_cost():
    configs = ((500, 5, False), (2000, 5, False), (500, 8, True))
    iters = 300
    best = {c: np.inf for c in configs}
    # warm-up pass so page faults and allocator growth are off the clock
    for c in configs:
        _time_run(*c, iters=50)
    for _ in range(3):
        for c in configs:
            best[c] = min(best[c], _time_run(*c, iters=iters))
    normalized = {}
    for (n, d, per_feature), seconds in best.items():
        m = 12 * d if per_feature else 12
        normalized[(n, m)] = seconds / iters / (m * n)
    ratio = max(normalized.values()) / min(normalized.values())
    pretty = ", ".join(f"(n={n}, m={m})={v*1e9:.1f}ns" for (n, m), v in normalized.items())
    _report(8, ratio < 3.0, f"per-iteration time per (m*n): {pretty}; spread {ratio:.2f}x < 3x")


def _time_run(n, d, per_feature, iters):
    rng = np.random.default_rng(5)
    pts = rng.random((n, d))
    labels = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    ds = Dataset(pts, labels)
    family = make_default_family(d, per_feature=per_feature)
    config = SolverConfig(eps=0.2, margin="l2", C=10.0, max_iters_override=iters)
    t0 = time.perf_counter()
    train(ds, family, config)
    return time.perf_counter() - t0


def test_criterion_9_serialization_round_trip():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        pool = make_default_family(d, per_feature=bool(rng.integers(0, 2)))
        take = rng.choice(len(pool), size=int(rng.integers(1, min(8, len(pool)) + 1)), replace=False)
        specs = []
        for i in sorted(take):
            base = pool[i]
            specs.append(
                KernelSpec(base.kind, base.param, base.feature,
                           r=float(rng.uniform(0.5, 50.0)), ridge=float(rng.choice((0.0, 0.25))))
            )
        k = int(rng.integers(2, 11))
        labels = np.where(rng.random(k) > 0.5, 1.0, -1.0)
        labels[:2] = (1.0, -1.0)  # a fit keeps both classes, and load_model refuses one
        scaling = None
        if rng.integers(0, 2):
            mins = rng.normal(size=d)
            scaling = ScalingParams(mins, mins + rng.random(d))
        model = MklModel(
            specs=tuple(specs),
            mu=rng.random(len(specs)) * 10.0,
            support_points=rng.random((k, d)),
            support_labels=labels,
            support_coefs=rng.random(k) + 0.01,
            bias=float(rng.normal()),
            config=SolverConfig(eps=0.2, margin="hard"),
            scaling=scaling,
        )
        loaded = load_model(serialize_model(model))
        queries = rng.random((100, d))
        diff = np.abs(decision_values(model, queries) - decision_values(loaded, queries)).max()
        worst = max(worst, float(diff))
    _report(9, worst <= 1e-12, f"100 models x 100 queries, worst round-trip drift {worst:.1e}")
