import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mklmmwu import (
    GAUSSIAN_BANDWIDTHS,
    Dataset,
    KernelSpec,
    bind,
    make_default_family,
)
from mklmmwu.kernels import MAX_POLYNOMIAL_DEGREE

from helpers import make_random_dataset
from reference import dense_signed_gram, eval_kernel, signed_column

# bandwidth that makes exp(-1 / (2 sigma^2)) = 1/2 at unit distance
SIGMA_HALF = math.sqrt(1.0 / (2.0 * math.log(2.0)))
# a fixed shuffle of the 48 kernels of both default families on 3 features
SHUFFLE_24 = [int(i) for i in np.random.default_rng(24).permutation(48)]


class TestEvalKernel:
    def test_gaussian_zero_distance(self):
        spec = KernelSpec("gaussian", 3.7)
        assert eval_kernel(spec, [0.3, 0.9], [0.3, 0.9]) == 1.0

    def test_polynomial_direct(self):
        spec = KernelSpec("poly", 2.0)
        assert eval_kernel(spec, [1.0, 0.0], [1.0, 0.0]) == 4.0

    def test_gaussian_unit_distance(self):
        spec = KernelSpec("gaussian", 1.0)
        got = eval_kernel(spec, [0.0], [1.0])
        assert got == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_feature_restriction(self):
        spec = KernelSpec("poly", 1.0, feature=1)
        assert eval_kernel(spec, [5.0, 0.5], [7.0, 0.4]) == pytest.approx(1.2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("poly", 2.5)
        with pytest.raises(ValueError):
            KernelSpec("sigmoid", 1.0)

    def test_polynomial_degree_cap(self):
        assert KernelSpec("poly", float(MAX_POLYNOMIAL_DEGREE)).param == MAX_POLYNOMIAL_DEGREE
        for degree in (MAX_POLYNOMIAL_DEGREE + 1, 1e6, 99999999999.0):
            with pytest.raises(ValueError, match="at most"):
                KernelSpec("poly", float(degree))


class TestDefaultFamily:
    def test_all_feature_count(self):
        assert len(make_default_family(8)) == 12

    def test_per_feature_count(self):
        assert len(make_default_family(33, per_feature=True)) == 396

    def test_bandwidth_grid(self):
        expected = {2.0 ** (k / 2.0) for k in range(9)}
        got = {s.param for s in make_default_family(4) if s.kind == "gaussian"}
        assert got == expected == set(GAUSSIAN_BANDWIDTHS)
        assert max(expected) == 16.0 and min(expected) == 1.0

    def test_per_feature_block_layout(self):
        fam = make_default_family(3, per_feature=True)
        for f in range(3):
            block = fam[12 * f : 12 * (f + 1)]
            assert all(s.feature == f for s in block)
            assert [s.kind for s in block] == ["poly"] * 3 + ["gaussian"] * 9

    def test_degrees(self):
        assert [int(s.param) for s in make_default_family(2) if s.kind == "poly"] == [1, 2, 3]

    def test_family_binds_under_the_degree_cap(self):
        ds = make_random_dataset(12, 3, 4)
        for per_feature in (False, True):
            acc = bind(make_default_family(3, per_feature=per_feature), ds)
            assert max(int(s.param) for s in acc.specs if s.kind == "poly") <= MAX_POLYNOMIAL_DEGREE


class TestBind:
    def test_gaussian_hard_margin_trace(self):
        ds = make_random_dataset(17, 3, 0)
        acc = bind([KernelSpec("gaussian", 2.0)], ds)
        assert acc.specs[0].r == 17.0
        assert acc.specs[0].ridge == 0.0

    def test_two_norm_trace(self):
        ds = make_random_dataset(100, 2, 1)
        acc = bind([KernelSpec("gaussian", 1.0)], ds, 1.0 / 10.0)
        # independent oracle: direct sum of the regularized diagonal
        expected = sum(1.0 + 1.0 / 10.0 for _ in range(100))
        assert acc.specs[0].r == pytest.approx(expected, rel=1e-15)
        assert acc.specs[0].r == pytest.approx(110.0, rel=1e-12)

    def test_requires_scaled_data(self):
        ds = Dataset(np.array([[2.0], [0.1]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            bind([KernelSpec("gaussian", 1.0)], ds)

    @pytest.mark.parametrize("name", ["per_feature", "all_feature", "shuffled"])
    def test_trace_normalizers_are_the_diagonal_sums(self, name):
        # bitwise: the accessor runs its plan on the diagonal, this test sums
        # the diagonal itself; the shuffle, with kernel 7 dropped, gathers
        # features and scatters rows there too
        both = make_default_family(3, per_feature=True) + make_default_family(3)
        family = {"per_feature": both[:36], "all_feature": both[36:],
                  "shuffled": [both[i] for i in SHUFFLE_24 if i != 7]}[name]
        ds = make_random_dataset(23, 3, 26)
        for ridge in (0.0, 0.25):
            acc = bind(family, ds, ridge)
            want = [_diagonal_sum(s, ds.points) + ds.n * ridge for s in family]
            assert [s.r for s in acc.specs] == want
            assert np.array_equal(acc.inv_r, 1.0 / np.array(want))
            assert acc.ridge == ridge
        if name == "shuffled":
            assert any(not isinstance(op.rows, (int, slice)) for op in acc._plan)
            assert any(isinstance(op.feats, np.ndarray) for op in acc._plan)


def _diagonal_sum(spec, points) -> float:
    """trace(K) for one kernel: n ones for a Gaussian, and for a polynomial
    the sum of (|x|^2 + 1)^p, or (x_f^2 + 1)^p, by repeated multiplication."""
    if spec.kind == "gaussian":
        return float(len(points))
    sq = np.einsum("ij,ij->i", points, points) if spec.feature is None else np.square(points[:, spec.feature])
    base = sq + 1.0
    diag = base.copy()
    for _ in range(int(spec.param) - 1):
        diag *= base
    return float(diag.sum())


class TestSignedColumns:
    def _two_point(self):
        # Gaussian at SIGMA_HALF puts kernel value 1/2 at unit distance,
        # so K = [[1, 0.5], [0.5, 1]] and r = 2 under a hard margin.
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        return bind([KernelSpec("gaussian", SIGMA_HALF)], ds)

    def test_hand_worked_column(self):
        acc = self._two_point()
        col = signed_column(acc, 0, 0)
        assert col[0] == pytest.approx(0.5, rel=1e-14)
        assert col[1] == pytest.approx(-0.25, rel=1e-14)

    def test_negative_label_diagonal_is_positive(self):
        ds = make_random_dataset(12, 2, 3)
        acc = bind(make_default_family(2), ds, 1.0 / 2.0)
        j = int(np.flatnonzero(ds.labels < 0)[0])
        for i in range(acc.m):
            assert signed_column(acc, i, j)[j] > 0.0

    def test_exact_symmetry(self):
        ds = make_random_dataset(15, 3, 4)
        acc = bind(make_default_family(3, per_feature=True), ds, 1.0 / 5.0)
        for i in (0, 7, 20, 35):
            for j, k in ((0, 5), (2, 14), (7, 8)):
                assert signed_column(acc, i, j)[k] == signed_column(acc, i, k)[j]

    def test_batched_matches_per_kernel_bitwise(self):
        # the raw block, written into a reused NaN-filled buffer and folded
        # with ridge, 1/r_i and the label signs, is exactly the signed column
        ds = make_random_dataset(20, 3, 5)
        family = make_default_family(3, per_feature=True) + make_default_family(3)
        acc = bind(family, ds, 1.0 / 4.0)
        buf = np.full((acc.m, acc.n), np.nan)
        for j in (0, 9, 19):
            block = acc.signed_columns_all(j, out=buf)
            for i in range(acc.m):
                folded = block[i].copy()
                folded[j] += acc.ridge
                folded *= acc.inv_r[i]
                folded *= ds.labels * ds.labels[j]
                assert np.array_equal(folded, signed_column(acc, i, j))

    def test_blocks_serve_the_columns_of_a_fresh_buffer(self):
        # the calls compiled once per block write what calls built for a new
        # buffer write, including through the gather and scatter paths
        both = make_default_family(3, per_feature=True) + make_default_family(3)
        for family in (both, [both[i] for i in SHUFFLE_24 if i != 7]):
            acc = bind(family, make_random_dataset(20, 3, 27), 0.25)
            for k, j in ((0, 3), (1, 11), (0, 19), (1, 0)):
                block = acc.signed_columns_all(j, out=acc.blocks[k])
                assert block is acc.blocks[k]
                assert np.array_equal(block, acc.signed_columns_all(j))

    def test_deterministic_repeat_calls(self):
        ds = make_random_dataset(10, 2, 6)
        acc = bind(make_default_family(2), ds)
        a = signed_column(acc, 3, 4)
        b = signed_column(acc, 3, 4)
        assert np.array_equal(a, b)

    def test_assembled_gram_trace_and_psd(self):
        for seed, n, d, ridge in ((0, 30, 2, 0.0), (1, 50, 3, 1.0 / 3.0)):
            ds = make_random_dataset(n, d, seed)
            fam = make_default_family(d, per_feature=(seed == 0))
            acc = bind(fam, ds, ridge)
            for i in range(0, acc.m, max(acc.m // 5, 1)):
                gram = dense_signed_gram(acc, i)
                assert np.array_equal(gram, gram.T)
                assert abs(np.trace(gram) - 1.0) < 1e-9
                assert np.linalg.eigvalsh(gram).min() >= -1e-8

    def test_kernel_value_ranges(self):
        rng = np.random.default_rng(7)
        for spec in make_default_family(4):
            x, z = rng.random(4), rng.random(4)
            val = eval_kernel(spec, x, z)
            if spec.kind == "gaussian":
                assert 0.0 < val <= 1.0
            else:
                assert 1.0 <= val <= (4.0 + 1.0) ** int(spec.param)


class TestRawBlock:
    """The raw column block against eval_kernel, entry by entry."""

    @staticmethod
    def _worst_rel_error(family, d, n=16, seed=21):
        ds = make_random_dataset(n, d, seed)
        acc = bind(family, ds, 1.0 / 4.0)
        worst = 0.0
        for j in range(n):
            block = acc.signed_columns_all(j)
            for i, spec in enumerate(family):
                for k in range(n):
                    want = eval_kernel(spec, ds.points[k], ds.points[j])
                    worst = max(worst, abs(block[i, k] - want) / abs(want))
        return worst

    def test_per_feature_family(self):
        assert self._worst_rel_error(make_default_family(3, per_feature=True), 3) <= 1e-13

    def test_all_feature_family(self):
        assert self._worst_rel_error(make_default_family(5), 5) <= 1e-13

    def test_mixed_family(self):
        family = make_default_family(3, per_feature=True)[:20] + make_default_family(3)
        assert self._worst_rel_error(family, 3) <= 1e-13

    def test_polynomials_without_degree_one_or_with_duplicates(self):
        # the all-feature base x.z + 1 then comes from its own step, or from
        # the first of two identical degree-1 rows
        no_linear = [KernelSpec("poly", 3.0), KernelSpec("poly", 2.0), KernelSpec("poly", 2.0, 1)]
        assert self._worst_rel_error(no_linear, 3) <= 1e-13
        duplicates = [KernelSpec("poly", 1.0), KernelSpec("poly", 2.0), KernelSpec("poly", 1.0),
                      KernelSpec("poly", 3.0), KernelSpec("gaussian", 1.0, 0), KernelSpec("gaussian", 1.0, 0)]
        assert self._worst_rel_error(duplicates, 3) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(range(48)) | st.just(list(range(48))),
           dropped=st.sets(st.integers(0, 47), max_size=40))
    @example(order=SHUFFLE_24, dropped=set())
    def test_shuffled_family_gathers_and_scatters(self, order, dropped):
        # rows in no arithmetic progression go through index arrays; in
        # family order, dropped kernels leave such rows inside a ladder, so
        # a rung squares a parent that is scattered into the block after it
        family = make_default_family(3, per_feature=True) + make_default_family(3)
        family = [family[i] for i in order if i not in dropped]
        acc = bind(family, make_random_dataset(8, 3, 25))
        written = np.concatenate([np.atleast_1d(np.arange(len(family))[op.rows]) for op in acc._plan])
        assert sorted(written) == list(range(len(family)))
        if order == SHUFFLE_24:
            assert any(isinstance(op.rows, np.ndarray) for op in acc._plan)
        assert self._worst_rel_error(family, 3) <= 1e-13

    def test_non_ladder_bandwidths_take_plain_exp(self):
        family = [KernelSpec("gaussian", s) for s in (0.7, 1.3, 2.9)]
        family += [KernelSpec("gaussian", s, feature=1) for s in (0.7, 1.3, 2.9)]
        ds = make_random_dataset(12, 3, 22)
        acc = bind(family, ds)
        assert not any(op.rung for op in acc._plan)
        assert self._worst_rel_error(family, 3) <= 1e-13

    def test_default_ladder_is_one_exp_per_scope(self):
        # sigma^2 = 2^k: one exp step per scope, every other Gaussian step
        # is a rung that squares the step before it, and every step writes
        # single rows or strided slices of the block (per-feature rung k is
        # rows 3+k::12)
        acc = bind(make_default_family(4, per_feature=True) + make_default_family(4),
                   make_random_dataset(8, 4, 23))
        gauss = [op for op in acc._plan if op.gaussian]
        assert sum(not op.rung for op in gauss if op.feats is None) == 1
        assert sum(not op.rung for op in gauss if op.feats is not None) == 1
        assert all(isinstance(op.rows, (int, slice)) for op in acc._plan)
        per_feature = [op.rows for op in gauss if op.feats is not None]
        assert {tuple(range(48)[r]) for r in per_feature} == {tuple(range(3 + k, 48, 12)) for k in range(9)}
