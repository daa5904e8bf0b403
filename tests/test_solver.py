import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mklmmwu import (
    Dataset,
    InfeasibleDual,
    KernelSpec,
    SolverConfig,
    SolverState,
    apply_update,
    arrow_exp,
    bind,
    brute_qcqp,
    dense_expm,
    exponentiate_m,
    find_alpha,
    iteration_budget,
    make_default_family,
    recompute_state,
    train,
)
from mklmmwu.solver import DualUpdate

from helpers import arrow_matrix, make_blobs, make_random_dataset
from test_kernels import SIGMA_HALF


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=3.0, rho=1.5)  # eps must stay below 2*rho
        with pytest.raises(ValueError):
            SolverConfig(eps=0.2, margin="l2")  # missing C
        with pytest.raises(ValueError):
            SolverConfig(eps=0.2, margin="l1")

    def test_eps_prime_value(self):
        cfg = SolverConfig(eps=0.2)
        # direct arithmetic: -ln(1 - 0.2/3)
        assert cfg.eps_prime == pytest.approx(-math.log(1.0 - 0.2 / 3.0), rel=1e-15)
        assert cfg.eps_prime == pytest.approx(0.06899287148695143, rel=1e-12)


class TestIterationBudget:
    def test_frozen_values(self):
        assert iteration_budget(SolverConfig(eps=0.2), 1000) == 3109
        assert iteration_budget(SolverConfig(eps=0.2), 208) == 2402

    def test_matches_direct_arithmetic(self):
        for eps, n in ((0.2, 208), (0.2, 1000), (0.07, 5000), (0.3, 64)):
            want = math.ceil((8.0 * 1.5**2 / eps**2) * math.log(n))
            assert iteration_budget(SolverConfig(eps=eps), n) == want

    def test_override(self):
        cfg = SolverConfig(eps=0.2, max_iters_override=77)
        assert iteration_budget(cfg, 10_000) == 77

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            iteration_budget(SolverConfig(eps=0.2), 1)


class TestFindAlpha:
    def test_picks_class_argmaxes(self):
        y = np.array([1.0, -1.0, 1.0])
        g = np.array([0.2, 0.5, 0.9])
        upd = find_alpha(g, y)
        assert (upd.j_plus, upd.j_minus) == (2, 1)

    def test_zero_g_breaks_ties_to_lowest_index(self):
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        upd = find_alpha(np.zeros(4), y)
        assert (upd.j_plus, upd.j_minus) == (1, 0)

    def test_single_class_is_infeasible(self):
        with pytest.raises(InfeasibleDual):
            find_alpha(np.zeros(3), np.ones(3))


class TestArrowExp:
    def test_zero_vector_gives_scaled_identity(self):
        out = arrow_exp(0.7, np.zeros(4))
        assert np.allclose(out, math.exp(0.7) * np.eye(5), rtol=0, atol=1e-15)

    def test_unit_vector_blocks(self):
        out = arrow_exp(0.0, np.array([1.0, 0.0]))
        assert out[0, 0] == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert out[2, 2] == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert out[0, 2] == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert out[1, 1] == pytest.approx(1.0, rel=1e-15)
        assert out[1, 0] == out[0, 1] == 0.0

    def test_against_dense_series(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            a = float(rng.uniform(0.0, 2.0))
            u = rng.normal(size=n)
            norm = float(rng.uniform(0.0, 5.0))
            u *= norm / max(np.linalg.norm(u), 1e-300)
            closed = arrow_exp(a, u)
            series = dense_expm(arrow_matrix(a, u))
            assert np.abs(closed - series).max() <= 1e-9 * np.abs(series).max()


def _two_point_state(quash=20.0):
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    spec = [KernelSpec("gaussian", SIGMA_HALF)]
    cfg = SolverConfig(eps=0.2, margin="hard", quash_threshold=quash, max_iters_override=10)
    acc = bind(spec, ds, margin_mode="hard")
    return SolverState.fresh(acc, cfg), acc, cfg


class TestExponentiate:
    def test_fresh_state_returns_zero_g(self):
        state, acc, cfg = _two_point_state()
        p12, g = exponentiate_m(state, cfg.eps_prime, cfg.rho)
        assert np.array_equal(g, np.zeros(2))
        assert np.allclose(p12, 0.0, atol=1e-300)

    def test_trace_normalization_identity(self):
        state, acc, cfg = _two_point_state()
        apply_update(state, DualUpdate(0, 1), acc)
        exponentiate_m(state, cfg.eps_prime, cfg.rho)
        m, n = state.w.shape
        s = (cfg.eps_prime / (2.0 * cfg.rho)) * np.sqrt(np.maximum(state.q, 0.0))
        norm = m * (n - 1) * state.e_m + 2.0 * np.cosh(s).sum()
        reconstructed = (m * (n - 1) * state.e_m + 2.0 * np.cosh(s).sum()) / norm
        assert reconstructed == pytest.approx(1.0, rel=1e-15)
        # the stored p12 is the normalized sinh block
        assert state.p12[0] == pytest.approx(-math.sinh(s[0]) / norm, rel=1e-13)

    def test_quash_branch_coefficients(self):
        ds = make_random_dataset(8, 2, 0)
        cfg = SolverConfig(eps=0.2, margin="hard")
        acc = bind(make_default_family(2)[:2], ds)
        state = SolverState.fresh(acc, cfg)
        scale = cfg.eps_prime / (2.0 * cfg.rho)
        state.q = (np.array([25.0, 24.3]) / scale) ** 2
        state.w = np.zeros((2, 8))
        p12, _ = exponentiate_m(state, cfg.eps_prime, cfg.rho, quash_threshold=20.0)
        assert state.e_m == pytest.approx(math.exp(-25.0), rel=1e-12)
        shifted = np.abs(p12) * (2 * (8 - 1) * state.e_m + 2.0 * (np.exp([0.0, -0.7])).sum())
        assert shifted[0] == pytest.approx(1.0, rel=1e-9)
        assert shifted[1] == pytest.approx(math.exp(-0.7), rel=1e-9)

    def test_quash_matches_exact_branch_at_large_s(self):
        # both branches are computable for s around 25; the shifted exp must
        # agree with cosh/sinh up to the asymptotic e^{-2s} correction
        ds = make_random_dataset(10, 2, 1)
        cfg = SolverConfig(eps=0.2, margin="hard")
        acc = bind(make_default_family(2)[:3], ds)
        rng = np.random.default_rng(2)
        scale = cfg.eps_prime / (2.0 * cfg.rho)
        q = (np.array([25.0, 23.0, 27.5]) / scale) ** 2
        w = rng.normal(size=(3, 10))
        quashed = SolverState.fresh(acc, cfg)
        quashed.q, quashed.w = q.copy(), w.copy()
        p12_q, g_q = exponentiate_m(quashed, cfg.eps_prime, cfg.rho, quash_threshold=20.0)
        exact = SolverState.fresh(acc, cfg)
        exact.q, exact.w = q.copy(), w.copy()
        p12_e, g_e = exponentiate_m(exact, cfg.eps_prime, cfg.rho, quash_threshold=1e9)
        assert np.abs(g_q - g_e).max() <= 1e-10 * np.abs(g_e).max()
        assert np.abs(p12_q - p12_e).max() <= 1e-10 * np.abs(p12_e).max()


class TestApplyUpdate:
    def test_first_update_hand_worked(self):
        # G = [[0.5, -0.25], [-0.25, 0.5]] after trace normalization, so the
        # first update gives q = (G00 + G11 + 2 G01) / 4 = 0.125
        state, acc, _ = _two_point_state()
        apply_update(state, DualUpdate(0, 1), acc)
        assert np.array_equal(state.alpha_bar, [0.5, 0.5])
        assert state.q[0] == pytest.approx(0.125, rel=1e-14)
        assert state.t == 1

    def test_incremental_matches_dense_recompute(self):
        ds = make_random_dataset(14, 2, 3)
        fam = make_default_family(2)
        cfg = SolverConfig(eps=0.2, margin="l2", C=2.0)
        acc = bind(fam, ds, C=2.0, margin_mode="l2")
        state = SolverState.fresh(acc, cfg)
        pos = np.flatnonzero(ds.labels > 0)
        neg = np.flatnonzero(ds.labels < 0)
        rng = np.random.default_rng(5)
        for _ in range(25):
            upd = DualUpdate(int(rng.choice(pos)), int(rng.choice(neg)))
            apply_update(state, upd, acc)
        w_ref, q_ref = recompute_state(state.alpha_bar, acc)
        assert np.abs(state.w - w_ref).max() <= 1e-12 * max(np.abs(w_ref).max(), 1.0)
        assert np.abs(state.q - q_ref).max() <= 1e-12 * max(np.abs(q_ref).max(), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 12),
        per_feature=st.booleans(),
        C=st.sampled_from((None, 0.5, 4.0)),
        picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=30),
    )
    def test_cache_matches_recompute_property(self, seed, n, per_feature, C, picks):
        ds = make_random_dataset(n, 2, seed)
        margin = "hard" if C is None else "l2"
        acc = bind(make_default_family(2, per_feature=per_feature), ds, C=C, margin_mode=margin)
        state = SolverState.fresh(acc, SolverConfig(eps=0.2, margin=margin, C=C))
        pos = np.flatnonzero(ds.labels > 0)
        neg = np.flatnonzero(ds.labels < 0)
        for a, b in picks:
            apply_update(state, (int(pos[a % pos.size]), int(neg[b % neg.size])), acc)
        w_ref, q_ref = recompute_state(state.alpha_bar, acc)
        assert np.abs(state.w - w_ref).max() <= 1e-12 * max(np.abs(w_ref).max(), 1.0)
        assert np.abs(state.q - q_ref).max() <= 1e-12 * max(np.abs(q_ref).max(), 1.0)

    def test_step_width_bound(self):
        ds = make_random_dataset(20, 3, 4)
        acc = bind(make_default_family(3), ds, C=1.0, margin_mode="l2")
        cfg = SolverConfig(eps=0.2, margin="l2", C=1.0)
        state = SolverState.fresh(acc, cfg)
        pos = np.flatnonzero(ds.labels > 0)
        neg = np.flatnonzero(ds.labels < 0)
        rng = np.random.default_rng(6)
        for _ in range(30):
            apply_update(state, DualUpdate(int(rng.choice(pos)), int(rng.choice(neg))), acc)
        assert state.max_step_width <= 0.5 + 1e-12


class TestTrain:
    def test_two_points_converge_to_half_half(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        cfg = SolverConfig(eps=0.2, margin="hard", max_iters_override=64)
        state, total = train(ds, [KernelSpec("gaussian", SIGMA_HALF)], cfg)
        assert total == 64 and state.t == 64
        assert np.array_equal(state.alpha_bar / total, [0.5, 0.5])

    def test_executes_exact_budget(self):
        ds = make_random_dataset(1000, 2, 7)
        cfg = SolverConfig(eps=0.2, margin="l2", C=1.0)
        state, total = train(ds, [KernelSpec("poly", 1.0)], cfg)
        assert total == 3109 and state.t == 3109

    def test_deterministic(self):
        ds = make_random_dataset(25, 2, 8)
        fam = make_default_family(2)
        cfg = SolverConfig(eps=0.4, margin="l2", C=3.0)
        s1, _ = train(ds, fam, cfg)
        s2, _ = train(ds, fam, cfg)
        assert np.array_equal(s1.alpha_bar, s2.alpha_bar)
        assert np.array_equal(s1.g, s2.g)
        assert np.array_equal(s1.p12, s2.p12)

    def test_single_class_raises(self):
        ds = Dataset(np.random.default_rng(0).random((4, 2)), np.ones(4))
        with pytest.raises(InfeasibleDual):
            train(ds, make_default_family(2), SolverConfig(eps=0.2, margin="hard"))

    def test_dual_feasibility_exact(self):
        ds = make_random_dataset(30, 2, 9)
        cfg = SolverConfig(eps=0.3, margin="l2", C=5.0)
        state, total = train(ds, make_default_family(2), cfg)
        assert (state.alpha_bar >= 0.0).all()
        assert float(state.alpha_bar @ ds.labels) == 0.0
        assert float(state.alpha_bar.sum()) / total == 1.0

    def test_oracle_constraint_and_width_tracked(self):
        ds = make_random_dataset(40, 3, 10)
        cfg = SolverConfig(eps=0.3, margin="l2", C=2.0)
        state, _ = train(ds, make_default_family(3), cfg)
        assert state.min_oracle_value >= -1.0 - 1e-9
        assert state.max_step_width <= 0.5 + 1e-12

    def test_cache_consistency_after_training(self):
        ds = make_random_dataset(28, 2, 11)
        fam = make_default_family(2, per_feature=True)
        cfg = SolverConfig(eps=0.35, margin="l2", C=4.0)
        state, _ = train(ds, fam, cfg)
        w_ref, q_ref = recompute_state(state.alpha_bar, state.accessor)
        assert np.abs(state.w - w_ref).max() <= 1e-8 * max(np.abs(w_ref).max(), 1.0)
        assert np.abs(state.q - q_ref).max() <= 1e-8 * max(np.abs(q_ref).max(), 1.0)

    def test_non_finite_column_raises_with_iteration(self, monkeypatch):
        from mklmmwu import NumericalFailure
        from mklmmwu.kernels import GramAccessor

        original = GramAccessor.signed_columns_all
        calls = []

        def poisoned(self, j, out=None):
            block = original(self, j, out=out)
            calls.append(j)
            if len(calls) == 7:  # the first column of iteration 4
                block[:] = np.nan
            return block

        monkeypatch.setattr(GramAccessor, "signed_columns_all", poisoned)
        ds = make_random_dataset(12, 2, 14)
        with pytest.raises(NumericalFailure) as err:
            train(ds, make_default_family(2), SolverConfig(eps=0.3, margin="l2", C=2.0, max_iters_override=20))
        assert err.value.iteration == 4

    def test_trace_lines(self):
        ds = make_random_dataset(12, 2, 12)
        sink = io.StringIO()
        cfg = SolverConfig(eps=0.2, margin="hard", max_iters_override=9)
        train(ds, make_default_family(2), cfg, trace=sink)
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("iter=1 ")
        for key in ("j_plus=", "j_minus=", "s_max=", "oracle_value="):
            assert key in lines[0]

    def test_separable_blob_with_linear_kernel(self):
        ds = make_blobs(12, seed=13)
        spec = [KernelSpec("poly", 1.0)]
        cfg = SolverConfig(eps=0.1, margin="hard")
        state, total = train(ds, spec, cfg)
        gram = state.accessor.dense_signed_gram(0)
        result = brute_qcqp([gram], ds.labels, seed=0)
        assert result.omega > 0.0  # separability certificate
        solver_obj = float((state.q / total**2).max())
        assert solver_obj <= (1.0 + 0.1) * result.omega
        # mass concentrates on the boundary-facing points of each ball
        coefs = state.alpha_bar / total
        margins = gram @ (state.alpha_bar / total)
        for cls in (1.0, -1.0):
            idx = np.flatnonzero(ds.labels == cls)
            order = idx[np.argsort(margins[idx])]
            boundary = set(order[: max(len(idx) // 2, 1)].tolist())
            mass = sum(coefs[j] for j in boundary)
            assert mass >= 0.9 * 0.5
