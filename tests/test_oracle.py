import math

import numpy as np
import pytest

from mklmmwu import (
    InfeasibleDual,
    KernelSpec,
    bind,
    brute_qcqp,
    dense_expm,
    recompute_state,
)

from helpers import dense_grams, make_random_dataset, tiny_instance


class TestDenseExpm:
    def test_zero_matrix(self):
        assert np.array_equal(dense_expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = dense_expm(np.diag([1.0, 2.0]))
        assert out[0, 0] == pytest.approx(math.e, rel=1e-14)
        assert out[1, 1] == pytest.approx(math.e**2, rel=1e-14)
        assert out[0, 1] == out[1, 0] == 0.0

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            dense_expm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            dense_expm(np.zeros((65, 65)))

    def test_inverse_relation(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(6, 6))
        mat = 0.5 * (mat + mat.T)
        prod = dense_expm(mat) @ dense_expm(-mat)
        assert np.abs(prod - np.eye(6)).max() < 1e-11

    def test_against_eigendecomposition(self):
        rng = np.random.default_rng(1)
        for scale in (0.1, 1.0, 4.0):
            mat = rng.normal(size=(8, 8)) * scale
            mat = 0.5 * (mat + mat.T)
            evals, evecs = np.linalg.eigh(mat)
            reference = (evecs * np.exp(evals)) @ evecs.T
            got = dense_expm(mat)
            assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_permuted_diagonal_exactness(self):
        diag = np.diag([0.5, -0.25, 1.5, 0.0])
        perm = np.eye(4)[[2, 0, 3, 1]]
        mat = perm @ diag @ perm.T
        want = perm @ np.diag(np.exp(np.diag(diag))) @ perm.T
        assert np.abs(dense_expm(mat) - want).max() < 1e-12


class TestBruteQcqp:
    def test_two_points_unique_feasible(self):
        ds, specs = tiny_instance(0, m=1, n=2)
        acc, gmats = dense_grams(ds, specs, C=1.0, margin_mode="l2")
        result = brute_qcqp(gmats, ds.labels, seed=0)
        assert np.allclose(result.alpha, [0.5, 0.5], atol=1e-12)
        expected = float(result.alpha @ gmats[0] @ result.alpha)
        assert result.omega == pytest.approx(expected, rel=1e-12)

    def test_mirror_symmetric_instance(self):
        from mklmmwu import Dataset

        pts = np.array([[0.2, 0.5], [0.8, 0.5], [0.35, 0.5], [0.65, 0.5]])
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        ds = Dataset(pts, labels)
        acc, gmats = dense_grams(ds, [KernelSpec("gaussian", 1.0)], C=1.0, margin_mode="l2")
        result = brute_qcqp(gmats, ds.labels, seed=0)
        # mirror x -> 1-x swaps points 0<->1 and 2<->3
        assert result.alpha[0] == pytest.approx(result.alpha[1], abs=1e-8)
        assert result.alpha[2] == pytest.approx(result.alpha[3], abs=1e-8)

    def test_invariance_under_relabeling_and_permutation(self):
        ds, specs = tiny_instance(3)
        acc, gmats = dense_grams(ds, specs, C=1.0, margin_mode="l2")
        base = brute_qcqp(gmats, ds.labels, seed=1)
        swapped = brute_qcqp(gmats[::-1], ds.labels, seed=1)
        assert swapped.omega == pytest.approx(base.omega, rel=1e-9)
        perm = np.random.default_rng(2).permutation(ds.n)
        permed = [g[np.ix_(perm, perm)] for g in gmats]
        moved = brute_qcqp(permed, ds.labels[perm], seed=1)
        assert moved.omega == pytest.approx(base.omega, rel=1e-9)

    def test_certificates_on_random_instances(self):
        for seed in range(6):
            ds, specs = tiny_instance(20 + seed)
            acc, gmats = dense_grams(ds, specs, C=1.0, margin_mode="l2")
            result = brute_qcqp(gmats, ds.labels, seed=seed)
            assert result.residual < 1e-7
            assert result.multipliers.sum() == pytest.approx(1.0, abs=1e-9)
            assert (result.multipliers >= 0.0).all()
            active_vals = [float(result.alpha @ gmats[i] @ result.alpha) for i in result.active]
            assert max(active_vals) == pytest.approx(result.omega, rel=1e-9)

    def test_single_class_raises(self):
        gmat = np.eye(4)
        with pytest.raises(InfeasibleDual):
            brute_qcqp([gmat], np.ones(4))

    def test_size_caps(self):
        with pytest.raises(ValueError):
            brute_qcqp([np.eye(13)], np.array([1.0] * 7 + [-1.0] * 6))


class TestRecomputeState:
    def test_zero_dual(self):
        ds = make_random_dataset(10, 2, 0)
        acc = bind([KernelSpec("gaussian", 1.0)], ds)
        v, q = recompute_state(np.zeros(10), acc)
        assert np.array_equal(v, np.zeros((1, 10)))
        assert np.array_equal(q, np.zeros(1))

    def test_unit_vector(self):
        ds = make_random_dataset(8, 2, 1)
        acc = bind([KernelSpec("gaussian", 2.0)], ds)
        alpha = np.zeros(8)
        alpha[3] = 1.0
        w, q = recompute_state(alpha, acc)
        raw = 2.0 * ds.labels[3] * acc.signed_columns_all(3)[0]
        col = acc.signed_column(0, 3)
        assert np.allclose(w[0], raw, rtol=1e-12, atol=1e-15)
        assert q[0] == pytest.approx(col[3], rel=1e-12)

    def test_caps_large_instances(self):
        ds = make_random_dataset(101, 2, 2)
        acc = bind([KernelSpec("gaussian", 1.0)], ds)
        with pytest.raises(ValueError):
            recompute_state(np.zeros(101), acc)
