import dataclasses
import functools
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mklmmwu import (
    Dataset,
    DegenerateModel,
    GAUSSIAN_BANDWIDTHS,
    KernelSpec,
    MalformedModel,
    POLYNOMIAL_DEGREES,
    SolverConfig,
    bind,
    extract_weights,
    fit,
    load_model,
    make_default_family,
    model_from_state,
    predict,
    serialize_model,
    train,
)
from mklmmwu import kernels as kernels_module
from mklmmwu import model as model_module
from mklmmwu.data import ScalingParams
from mklmmwu.kernels import MAX_POLYNOMIAL_DEGREE, SERIES_TERMS, KernelSums, series_terms
from mklmmwu.model import MklModel, compute_bias, decision_values, error_rate, save_model

from helpers import dense_grams, make_blobs, make_random_dataset, mixed_saddle_instance
from reference import brute_qcqp, dense_signed_gram, explicit_sums
from test_kernels import SIGMA_HALF


def _train_two_point(**cfg_kwargs):
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    cfg = SolverConfig(eps=0.2, margin="hard", max_iters_override=40, **cfg_kwargs)
    return train(ds, [KernelSpec("gaussian", SIGMA_HALF)], cfg)


class TestExtractWeights:
    def test_single_kernel_weight_is_inverse_quadform(self):
        state, total = _train_two_point()
        mu = extract_weights(state)
        qhat = float(state.q[0]) / total**2
        assert mu[0] == pytest.approx(1.0 / qhat, rel=1e-12)
        assert mu[0] == pytest.approx(8.0, rel=1e-12)

    def test_identical_kernels_share_weight(self):
        ds = make_random_dataset(16, 2, 0)
        specs = [KernelSpec("gaussian", 2.0), KernelSpec("gaussian", 2.0)]
        state, _ = train(ds, specs, SolverConfig(eps=0.3, margin="l2", C=2.0))
        mu = extract_weights(state)
        assert mu[0] == pytest.approx(mu[1], rel=1e-12)

    def test_normalization_identity(self):
        ds = make_random_dataset(20, 3, 1)
        state, total = train(ds, make_default_family(3), SolverConfig(eps=0.3, margin="l2", C=5.0))
        mu = extract_weights(state)
        qhat = state.q / total**2
        assert float(mu @ qhat) == pytest.approx(1.0, abs=1e-12)
        assert (mu >= 0.0).all()

    def test_degenerate_when_no_quadform(self):
        # identical points with opposite labels: every kernel quadform is 0
        ds = Dataset(np.array([[0.4], [0.4]]), np.array([1.0, -1.0]))
        cfg = SolverConfig(eps=0.2, margin="hard", max_iters_override=20)
        state, _ = train(ds, [KernelSpec("gaussian", 1.0)], cfg)
        with pytest.raises(DegenerateModel):
            extract_weights(state)

    def test_mu_matches_oracle_multipliers_on_mixed_toy(self):
        ds, specs = mixed_saddle_instance()
        cfg = SolverConfig(eps=0.1, margin="l2", C=1.0)
        acc, gmats = dense_grams(ds, specs, cfg.ridge)
        result = brute_qcqp(gmats, ds.labels, seed=0)
        assert len(result.active) == 2  # both kernels bind at this optimum
        state, _ = train(ds, specs, cfg)
        mu = extract_weights(state)
        mu_oracle = result.multipliers / result.omega
        for i in range(2):
            assert abs(mu[i] - mu_oracle[i]) / mu_oracle[i] < 0.10

    def test_margin_within_eps_of_optimum(self):
        # the chosen combination must achieve nearly the best hull distance
        for seed in (200, 240, 241, 243):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 13))
            pts = rng.random((n, 2))
            labels = np.ones(n)
            labels[: n // 2] = -1.0
            rng.shuffle(labels)
            ds = Dataset(pts, labels)
            specs = [KernelSpec("poly", 1.0, 0), KernelSpec("poly", 1.0, 1)]
            cfg = SolverConfig(eps=0.1, margin="l2", C=1.0)
            acc, gmats = dense_grams(ds, specs, cfg.ridge)
            best = brute_qcqp(gmats, ds.labels, seed=seed)
            state, _ = train(ds, specs, cfg)
            mu = extract_weights(state)
            mix = mu / mu.sum()
            combined = sum(w * g for w, g in zip(mix, gmats))
            achieved = brute_qcqp([combined], ds.labels, seed=seed).omega
            assert math.sqrt(achieved) >= (1.0 - 0.1) * math.sqrt(best.omega)


class TestBias:
    def test_symmetric_two_point_bias_is_zero(self):
        state, _ = _train_two_point()
        mu = extract_weights(state)
        assert compute_bias(state, mu) == pytest.approx(0.0, abs=1e-12)

    def test_bisector_sign_follows_hull_norms(self):
        # 1-d linear kernel: bias is negative when the positive hull point
        # sits farther from the origin, positive when nearer
        far = Dataset(np.array([[0.9], [0.7]]), np.array([1.0, -1.0]))
        near = Dataset(np.array([[0.1], [0.3]]), np.array([1.0, -1.0]))
        for ds, sign in ((far, -1.0), (near, 1.0)):
            cfg = SolverConfig(eps=0.2, margin="hard", max_iters_override=30)
            state, _ = train(ds, [KernelSpec("poly", 1.0)], cfg)
            mu = extract_weights(state)
            bias = compute_bias(state, mu)
            assert math.copysign(1.0, bias) == sign

    @pytest.mark.parametrize("per_feature", [False, True])
    @pytest.mark.parametrize("C", [None, 2.0])
    def test_closed_form_matches_dense_hull_norms(self, per_feature, C):
        # b = (|p-|^2 - |p+|^2) / 2 with p+- the class hull points under
        # sum_i mu_i G_i; the error is measured against the larger hull norm,
        # since the dense reference itself loses that much to cancellation
        ds = make_random_dataset(40, 3, 31)
        margin = "hard" if C is None else "l2"
        state, total = train(ds, make_default_family(3, per_feature), SolverConfig(eps=0.3, margin=margin, C=C))
        mu = extract_weights(state)
        acc = state.accessor
        g_mu = sum(weight * dense_signed_gram(acc, i) for i, weight in enumerate(mu))
        c = 2.0 * state.alpha_bar / total
        c_plus = np.where(ds.labels > 0, c, 0.0)
        c_minus = c - c_plus
        norm_plus = float(c_plus @ g_mu @ c_plus)
        norm_minus = float(c_minus @ g_mu @ c_minus)
        want = 0.5 * (norm_minus - norm_plus)
        got = compute_bias(state, mu)
        assert abs(got - want) <= 1e-12 * max(norm_plus, norm_minus)

    def test_midpoint_is_on_the_boundary(self):
        model = model_from_state(_train_two_point()[0])
        assert decision_values(model, [[0.5]])[0] == pytest.approx(0.0, abs=1e-12)
        assert predict(model, [[0.5]])[0] == 1  # exact zero resolves to +1


class TestPredict:
    def test_dominant_support_point(self):
        model = model_from_state(_train_two_point()[0])
        assert predict(model, [[0.0]])[0] == 1
        assert predict(model, [[1.0]])[0] == -1

    def test_joint_rescale_keeps_labels(self):
        state, _ = train(
            make_random_dataset(18, 2, 2),
            make_default_family(2),
            SolverConfig(eps=0.3, margin="l2", C=3.0),
        )
        model = model_from_state(state)
        scaled = MklModel(
            specs=model.specs,
            mu=model.mu * 3.7,
            support_points=model.support_points,
            support_labels=model.support_labels,
            support_coefs=model.support_coefs,
            bias=model.bias * 3.7,
            config=model.config,
        )
        queries = np.random.default_rng(3).random((25, 2))
        assert np.array_equal(predict(model, queries), predict(scaled, queries))

    def test_separable_blobs_fit_perfectly(self):
        ds = make_blobs(12, seed=4)
        acc, gmats = dense_grams(ds, [KernelSpec("poly", 1.0)])
        assert brute_qcqp(gmats, ds.labels, seed=0).omega > 0.0
        model = fit(ds, make_default_family(2), SolverConfig(eps=0.2, margin="hard"))
        assert error_rate(model, ds) == 0.0

    def test_support_coefficient_class_sums(self):
        state, _ = train(
            make_random_dataset(22, 2, 5),
            make_default_family(2),
            SolverConfig(eps=0.3, margin="l2", C=2.0),
        )
        model = model_from_state(state)
        pos = model.support_labels > 0
        assert float(model.support_coefs[pos].sum()) == pytest.approx(0.5, abs=1e-12)
        assert float(model.support_coefs[~pos].sum()) == pytest.approx(0.5, abs=1e-12)
        assert (model.support_coefs > 0.0).all()

    def test_batched_decision_matches_scalar(self):
        ds = make_random_dataset(20, 3, 6)
        model = fit(ds, make_default_family(3, per_feature=True), SolverConfig(eps=0.4, margin="l2", C=2.0))
        queries = np.random.default_rng(7).random((15, 3))
        batched = decision_values(model, queries)
        scalar = np.array([decision_values(model, x[None])[0] for x in queries])
        scale = max(np.abs(scalar).max(), 1.0)
        assert np.abs(batched - scalar).max() <= 1e-10 * scale

    def test_matches_explicit_sum(self):
        # a query coordinate outside [0,1], as scaled eval queries can have
        model, rng = _mixed_model()
        queries = np.vstack([rng.random((3, 3)), [1.3, -0.2, 0.5]])
        got = decision_values(model, queries)
        assert np.allclose(got, _explicit(model, queries), rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        model = model_from_state(_train_two_point()[0])
        with pytest.raises(ValueError):
            decision_values(model, [[0.1, 0.2]])


def _explicit(model, queries):
    """The model's decision values summed term by term by the reference."""
    a = model.mu / np.array([s.r for s in model.specs])
    b = 2.0 * model.support_coefs * model.support_labels
    return explicit_sums(model.specs, model.support_points, a, b, queries)[0] + model.bias


def _narrow(specs):
    """The specs with every Gaussian bandwidth divided by 64, the default
    ladder then running from 1/64 to 1/4: on [0,1] points with queries
    spread over [0,1], t = 2|c| R_z R_x exceeds 1, so per-feature Gaussians
    stream."""
    return tuple(dataclasses.replace(s, param=s.param / 64.0) if s.kind == "gaussian" else s for s in specs)


def _mixed_model():
    """A hand-made model with mixed scopes, one zero weight, non-ladder
    bandwidths (plain exp) and feature gaps: the per-feature block stops
    inside feature 1 and feature 2 has only its own Gaussians."""
    rng = np.random.default_rng(8)
    ds = make_random_dataset(9, 3, 9)
    fam = make_default_family(3, per_feature=True)[:20] + make_default_family(3)
    fam += [KernelSpec("gaussian", sigma, f) for sigma in (0.7, 1.3, 2.9) for f in (None, 2)]
    specs = bind(fam, ds).specs
    mu = rng.random(len(specs))
    mu[3] = 0.0
    coefs = rng.random(ds.n) + 0.1
    model = MklModel(specs=specs, mu=mu, support_points=ds.points, support_labels=ds.labels,
                     support_coefs=coefs, bias=0.25, config=SolverConfig(eps=0.4))
    return model, rng


@pytest.fixture
def small_batches(monkeypatch):
    """The mixed model with narrow Gaussians, which all stream, and scratch
    of 5000 bytes: its chunks hold 5 queries."""
    monkeypatch.setattr(kernels_module, "SLAB_BYTES", 5000)
    model, rng = _mixed_model()
    model = dataclasses.replace(model, specs=_narrow(model.specs))
    keep = model.mu > 0.0
    lay = KernelSums([s for s, k in zip(model.specs, keep) if k], model.support_points,
                     model.mu[keep], model.support_coefs).layout(rng.uniform(-0.2, 1.2, (5, 3)))
    assert len(lay.closed) == 0 and lay.batch == 5
    return model, rng, lay.batch


class TestBatchedPrediction:
    """KernelSums cuts the queries into chunks and streams each chunk
    through the plan chain by chain."""

    @pytest.mark.parametrize("chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                             ids=["1", "B-1", "B", "B+1", "2B+3"])
    def test_chunk_boundaries_match_per_query(self, small_batches, chunks, extra):
        model, rng, batch = small_batches
        count = chunks * batch + extra
        queries = rng.uniform(-0.2, 1.2, (count, 3))
        got = decision_values(model, queries)
        want = np.array([decision_values(model, x[None])[0] for x in queries])
        assert got.shape == (count,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_feature_gaps_are_gathered(self):
        # feature 2 loses its degree-1 and degree-2 polynomials, which leave
        # gaps in the closed-form table, and its two widest Gaussians, so
        # those two groups read features [0, 1, 3]: an index array that the
        # executor gathers for the chain's root, and its rung squares in
        # place; the Gaussians are narrow, so all of them stream
        rng = np.random.default_rng(36)
        ds = make_random_dataset(6, 4, 37)
        specs = bind(_narrow(make_default_family(4, per_feature=True)), ds).specs
        mu = rng.random(len(specs)) + 0.1
        mu[[24, 25, 3 + 24 + 8, 3 + 24 + 7]] = 0.0
        model = MklModel(specs=specs, mu=mu, support_points=ds.points, support_labels=ds.labels,
                         support_coefs=rng.random(ds.n) + 0.1, bias=0.1, config=SolverConfig(eps=0.4))
        keep = mu > 0.0
        queries = rng.uniform(-0.2, 1.2, (5, 4))
        lay = KernelSums([s for s, k in zip(specs, keep) if k], ds.points, mu[keep],
                         model.support_coefs).layout(queries)
        assert len(lay.closed) == 0
        gathered = [op for op in lay.plan if isinstance(op.feats, np.ndarray)]
        assert [(op.gaussian, op.rung) for op in gathered] == [(True, False), (True, True)]
        assert np.allclose(decision_values(model, queries), _explicit(model, queries), rtol=1e-12, atol=1e-14)

    def test_empty_queries_give_no_values(self, small_batches):
        model, _, _ = small_batches
        got = decision_values(model, np.empty((0, 3)))
        assert got.shape == (0,)

    def test_all_feature_scratch_fits_the_budget(self):
        # 841 support points, as the hard-margin bench fit keeps: the x.z,
        # half-distance and x.z + 1 inputs are each as large as the slab
        rng = np.random.default_rng(41)
        sums = KernelSums(make_default_family(33), rng.random((841, 33)), rng.random(12) + 0.1,
                          rng.standard_normal(841))
        lay = sums.layout(rng.random((100, 33)))
        tracemalloc.start()
        try:
            scratch = sums._scratch(lay, lay.batch)
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        finally:
            tracemalloc.stop()
        allocated = sum(stat.size for stat in arrays.statistics("filename"))
        assert allocated == scratch[3] <= kernels_module.SLAB_BYTES
        assert lay.batch == kernels_module.SLAB_BYTES // sums._scratch(lay, 1)[3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_is_refused(self, bad):
        model, rng = _mixed_model()
        queries = rng.random((4, 3))
        queries[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            decision_values(model, queries)
        with pytest.raises(ValueError, match="finite"):
            predict(model, queries)


class TestClosedFormPolynomials:
    """KernelSums sums the per-feature polynomials in closed form, from
    moments of the support points."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 7, MAX_POLYNOMIAL_DEGREE])
    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (-0.2, 1.2)])
    def test_matches_explicit_sum(self, degree, low, high):
        rng = np.random.default_rng(degree)
        points = rng.random((12, 3))
        specs = [KernelSpec("poly", float(p), f) for f in range(3) for p in sorted({1, degree})]
        a = rng.random(len(specs)) + 0.1
        b = rng.standard_normal(len(points))
        b -= b.mean()  # as in a fit, where both classes carry the same coefficient mass
        queries = rng.uniform(low, high, (7, 3))
        want, scale = explicit_sums(specs, points, a, b, queries)
        assert (np.abs(KernelSums(specs, points, a, b)(queries) - want) <= 1e-12 * scale).all()

    def test_polynomials_alone_stream_nothing(self, monkeypatch):
        # nothing to stream, over several chunks
        monkeypatch.setattr(kernels_module, "SLAB_BYTES", 720)
        rng = np.random.default_rng(38)
        ds = make_random_dataset(9, 3, 39)
        specs = bind([KernelSpec("poly", float(p), f) for f in (0, 2) for p in (1, 3)], ds).specs
        model = MklModel(specs=specs, mu=rng.random(len(specs)) + 0.1, support_points=ds.points,
                         support_labels=ds.labels, support_coefs=rng.random(ds.n) + 0.1, bias=-0.2,
                         config=SolverConfig(eps=0.4))
        lay = KernelSums(specs, ds.points, model.mu, model.support_coefs).layout(np.zeros((1, 3)))
        assert lay.plan == [] and lay.batch == 12  # 3 query, 1 value and 3 polynomial floats a query
        queries = rng.uniform(-0.2, 1.2, (4 * lay.batch + 1, 3))
        got = decision_values(model, queries)
        assert np.allclose(got, _explicit(model, queries), rtol=1e-12, atol=1e-14)


class TestClosedFormGaussians:
    """KernelSums sums a per-feature Gaussian as a Taylor series about the
    midpoint of the points' range when t = 2|c| R_z R_x <= 1 for the call's
    queries, and streams it otherwise."""

    @staticmethod
    def _t(spec, points, queries):
        """t of a per-feature Gaussian, from the ranges of its coordinate."""
        z, x = points[:, spec.feature], queries[:, spec.feature]
        centre = (z.min() + z.max()) / 2.0
        return (z.max() - z.min()) / 2.0 * np.abs(x - centre).max() / spec.param**2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), d=st.integers(1, 3),
           narrow=st.lists(st.floats(0.05, 0.5), min_size=1, max_size=3),
           span=st.sampled_from([(0.0, 1.0), (-0.3, 1.3), (-2.0, 3.0)]))
    def test_matches_explicit_sum_property(self, seed, k, d, narrow, span):
        # default and narrow bandwidths, so both sides of the bound run
        rng = np.random.default_rng(seed)
        points = rng.random((k, d))
        specs = [KernelSpec("gaussian", bw, f) for f in range(d) for bw in GAUSSIAN_BANDWIDTHS + tuple(narrow)]
        a = rng.uniform(-1.0, 1.0, len(specs))
        b = rng.standard_normal(k)
        queries = rng.uniform(*span, (6, d))
        sums = KernelSums(specs, points, a, b)
        lay = sums.layout(queries)
        t = np.array([self._t(s, points, queries) for s in specs])
        assert sorted(lay.closed) == list(np.flatnonzero(t <= 1.0))
        if len(lay.closed):  # every closed kernel's truncation bound is below rounding
            J = lay.series.shape[2] - 1
            assert J == series_terms(t[lay.closed].max()) <= SERIES_TERMS
            assert (np.exp(2.0 * t[lay.closed]) * t[lay.closed] ** (J + 1) / math.factorial(J + 1) <= 2.0**-53).all()
        want, scale = explicit_sums(specs, points, a, b, queries)
        assert (np.abs(sums(queries) - want) <= 1e-12 * scale).all()

    def test_routing_follows_the_bound(self):
        # points and queries at 0 and 1: z0 = 1/2 and R_z = R_x = 1/2, so
        # t = 1 / (4 sigma^2), exactly 1 at sigma = 1/2; an all-feature
        # Gaussian always streams
        points = queries = np.array([[0.0], [1.0]])
        specs = [KernelSpec("gaussian", 0.5, 0), KernelSpec("gaussian", 0.49, 0), KernelSpec("gaussian", 0.5)]
        a, b = np.array([1.0, 2.0, 3.0]), np.array([1.0, -0.5])
        sums = KernelSums(specs, points, a, b)
        lay = sums.layout(queries)
        assert list(lay.closed) == [0] and lay.series.shape[2] == SERIES_TERMS + 1
        assert np.count_nonzero(lay.series.any(axis=2)) == 1  # the streamed one's slot is empty
        assert sorted(op.feats for op in lay.plan if op.feats is not None) == [0]
        assert sum(op.count for op in lay.plan) == 2
        want, scale = explicit_sums(specs, points, a, b, queries)
        assert (np.abs(sums(queries) - want) <= 1e-12 * scale).all()

    def test_moments_are_built_to_the_terms_of_the_call(self, monkeypatch):
        # queries near the midpoint of the points' range need few terms, and
        # the moments stop there, not at SERIES_TERMS
        shapes = []
        real = kernels_module._gaussian_moments

        def spy(*args):
            moments = real(*args)
            shapes.append(moments.shape)
            return moments

        monkeypatch.setattr(kernels_module, "_gaussian_moments", spy)
        rng = np.random.default_rng(42)
        points = rng.random((8, 2))
        specs = [KernelSpec("gaussian", bw, f) for f in range(2) for bw in GAUSSIAN_BANDWIDTHS]
        queries = (points.min(axis=0) + points.max(axis=0)) / 2.0 + rng.uniform(-0.01, 0.01, (3, 2))
        lay = KernelSums(specs, points, rng.random(len(specs)), rng.standard_normal(8)).layout(queries)
        J = lay.series.shape[2] - 1
        assert shapes == [(len(specs), J + 1)] and J < SERIES_TERMS

    def test_series_terms_are_the_fewest_that_meet_the_bound(self):
        def bound(t, J):
            return math.exp(2.0 * t) * t ** (J + 1) / math.factorial(J + 1)

        for t in np.linspace(0.0, 1.0, 201):
            J = series_terms(t)
            assert bound(t, J) <= 2.0**-53
            assert J == 1 or bound(t, J - 1) > 2.0**-53
        assert series_terms(1.0) == SERIES_TERMS == 18

    def test_per_feature_model_within_the_bound_streams_nothing(self, monkeypatch):
        # the default per-feature family on [0,1] points: every kernel in
        # closed form and an empty plan, over several chunks
        monkeypatch.setattr(kernels_module, "SLAB_BYTES", 4000)
        rng = np.random.default_rng(40)
        ds = make_random_dataset(9, 3, 41)
        specs = bind(make_default_family(3, per_feature=True), ds).specs
        model = MklModel(specs=specs, mu=rng.random(len(specs)) + 0.1, support_points=ds.points,
                         support_labels=ds.labels, support_coefs=rng.random(ds.n) + 0.1, bias=0.3,
                         config=SolverConfig(eps=0.4))
        queries = rng.uniform(-0.2, 1.2, (30, 3))
        lay = KernelSums(specs, ds.points, model.mu, model.support_coefs).layout(queries)
        assert lay.plan == [] and len(lay.closed) == 27 and len(queries) >= 4 * lay.batch
        got = decision_values(model, queries)
        assert np.allclose(got, _explicit(model, queries), rtol=1e-12, atol=1e-14)


@functools.lru_cache(maxsize=None)
def _fitted_mixed_model():
    """A model fitted with both default families on 3 features, per-feature
    then all-feature: 48 kernels in family order."""
    ds = make_random_dataset(20, 3, 31)
    family = make_default_family(3, per_feature=True) + make_default_family(3)
    return fit(ds, family, SolverConfig(eps=0.4, margin="l2", C=2.0))


def _reordered(model, order):
    return dataclasses.replace(model, specs=tuple(model.specs[i] for i in order), mu=model.mu[order])


def _group_order(specs):
    """Kernel indices in evaluator group order: by kind, scope, Gaussian
    rate 1/(2 sigma^2) or degree, then feature, in a stable sort."""
    def key(i):
        s = specs[i]
        gaussian = s.kind == "gaussian"
        return gaussian, s.feature is None, 0.5 / s.param**2 if gaussian else int(s.param), s.feature or 0
    return sorted(range(len(specs)), key=key)


class TestPredictionOrder:
    """KernelSums takes the kept kernels in the order given, the model's as
    stored; any order gives the same values."""

    @pytest.mark.parametrize("narrow", [False, True], ids=["series", "streamed"])
    def test_family_and_group_order_give_the_same_bits(self, narrow):
        # a feature's series slots hold its Gaussians widest first, as in
        # group order, so the sums add in the same order
        model = _fitted_mixed_model()
        if narrow:
            model = dataclasses.replace(model, specs=_narrow(model.specs))
        queries = np.random.default_rng(33).uniform(-0.25, 1.25, (20, 3))
        lay = KernelSums(model.specs, model.support_points, model.mu, model.support_coefs).layout(queries)
        assert len(lay.closed) == (0 if narrow else 27)
        grouped = _reordered(model, _group_order(model.specs))
        assert np.array_equal(decision_values(grouped, queries), decision_values(model, queries))

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(range(48)) | st.just(list(range(48))),
           dropped=st.sets(st.integers(0, 47), max_size=40), narrow=st.booleans())
    @example(order=[int(i) for i in np.random.default_rng(32).permutation(48)], dropped=set(), narrow=False)
    def test_shuffled_specs_give_the_same_values(self, order, dropped, narrow):
        # dropped kernels leave gaps in the rows and features of a group, and
        # narrow Gaussians stream, so rungs of scattered parents and gathered
        # features run
        model = _fitted_mixed_model()
        mu = model.mu.copy()
        mu[sorted(dropped)] = 0.0
        model = dataclasses.replace(model, specs=_narrow(model.specs) if narrow else model.specs, mu=mu)
        queries = np.random.default_rng(33).uniform(-0.25, 1.25, (20, 3))
        want = decision_values(model, queries)
        got = decision_values(_reordered(model, order), queries)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_full_family_plan_is_contiguous(self, monkeypatch):
        # every kernel of both default families kept, listed in family order,
        # with narrow Gaussians: the per-feature polynomials go to the
        # closed-form table and the rest to the plan, which reads each step's
        # features as a single index or a step-1 slice, in place, with one
        # exp per scope
        built = []

        class Spy(KernelSums):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(model_module, "KernelSums", Spy)
        rng = np.random.default_rng(34)
        ds = make_random_dataset(10, 4, 35)
        specs = bind(_narrow(make_default_family(4, per_feature=True) + make_default_family(4)), ds).specs
        model = MklModel(specs=specs, mu=rng.random(len(specs)) + 0.1, support_points=ds.points,
                         support_labels=ds.labels, support_coefs=rng.random(ds.n) + 0.1, bias=-0.3,
                         config=SolverConfig(eps=0.4))
        queries = rng.random((2, 4))
        decision_values(model, queries)
        (sums,) = built
        lay = sums.layout(queries)
        assert len(lay.closed) == 0
        per_feature_polys = sum(s.kind == "poly" and s.feature is not None for s in specs)
        assert sum(op.count for op in lay.plan) + per_feature_polys == len(specs)
        assert all(op.gaussian or op.feats is None for op in lay.plan)
        assert sums.table.shape == (max(POLYNOMIAL_DEGREES) + 1, 4, 1)
        assert all(op.feats is None or isinstance(op.feats, int) or op.feats.step == 1 for op in lay.plan)
        roots = [op.feats is None for op in lay.plan if op.gaussian and not op.rung]
        assert sorted(roots) == [False, True]


V4_GOLDEN = """\
mklmmwu v4
margin l2
C 2
eps 0.25
labels 1 2
dim 2
scale_min 0 -1
scale_max 2 3
n_support 2
bias -0.125
poly 2 all 3.5 0.25
gaussian 1.4142135623730951 0 2.5 0.75
sv +1 0.5 0.25 0.5
sv -1 0.5 1 0
"""


class TestSerialization:
    def _model(self, scaling=True, seed=8):
        ds = make_random_dataset(15, 2, seed)
        params = ScalingParams(np.array([0.0, -1.0]), np.array([2.0, 3.0])) if scaling else None
        return fit(ds, make_default_family(2), SolverConfig(eps=0.4, margin="l2", C=2.0), scaling=params)

    def test_save_load_save_byte_identical(self):
        model = self._model()
        text = serialize_model(model)
        again = serialize_model(load_model(text))
        assert text == again

    def test_round_trip_decision_values(self):
        model = self._model(scaling=False)
        loaded = load_model(serialize_model(model))
        queries = np.random.default_rng(9).random((50, 2))
        assert np.abs(decision_values(model, queries) - decision_values(loaded, queries)).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(6, 14),
        per_feature=st.booleans(),
        C=st.sampled_from((None, 0.5, 4.0)),
    )
    def test_round_trip_decision_values_bitwise_property(self, seed, n, per_feature, C):
        margin = "hard" if C is None else "l2"
        model = fit(make_random_dataset(n, 2, seed), make_default_family(2, per_feature=per_feature),
                    SolverConfig(eps=0.5, margin=margin, C=C))
        loaded = load_model(serialize_model(model))
        queries = np.random.default_rng(seed).uniform(-0.25, 1.25, (12, 2))
        assert np.array_equal(decision_values(loaded, queries), decision_values(model, queries))

    def test_scaling_round_trip(self):
        model = self._model(scaling=True)
        loaded = load_model(serialize_model(model))
        assert np.array_equal(loaded.scaling.mins, model.scaling.mins)
        assert np.array_equal(loaded.scaling.maxs, model.scaling.maxs)

    def test_loaded_ridge_is_one_over_C(self):
        # the file carries no ridge; the loader derives the one bind used
        ds = make_random_dataset(15, 2, 8)
        model = fit(ds, make_default_family(2), SolverConfig(eps=0.4, margin="l2", C=3.0))
        loaded = load_model(serialize_model(model))
        assert [s.ridge for s in loaded.specs] == [s.ridge for s in model.specs] == [1.0 / 3.0] * len(model.specs)

    def test_v4_layout(self):
        # a hand-made model against its literal file: any drift of the
        # format shows here
        model = MklModel(
            specs=(KernelSpec("poly", 2.0, r=3.5, ridge=0.5),
                   KernelSpec("gaussian", math.sqrt(2.0), 0, r=2.5, ridge=0.5)),
            mu=np.array([0.25, 0.75]),
            support_points=np.array([[0.25, 0.5], [1.0, 0.0]]),
            support_labels=np.array([1.0, -1.0]),
            support_coefs=np.array([0.5, 0.5]),
            bias=-0.125,
            config=SolverConfig(eps=0.25, margin="l2", C=2.0),
            scaling=ScalingParams(np.array([0.0, -1.0]), np.array([2.0, 3.0])),
            label_pair=(1.0, 2.0),
        )
        assert serialize_model(model) == V4_GOLDEN
        assert serialize_model(load_model(V4_GOLDEN)) == V4_GOLDEN
        assert load_model(V4_GOLDEN).label_pair == (1.0, 2.0)

    def test_label_pair_comes_from_the_training_set(self):
        ds = make_random_dataset(15, 2, 8)
        model = fit(Dataset(ds.points, ds.labels, (0.0, 1.0)), make_default_family(2), SolverConfig(eps=0.4))
        lines = serialize_model(model).splitlines()
        assert lines[3] == "labels 0 1" and not any(line.startswith("rho") for line in lines)
        assert load_model("\n".join(lines)).label_pair == (0.0, 1.0)

    def test_scale_wider_than_float64_is_malformed(self):
        text = serialize_model(self._model())
        text = text.replace("scale_min 0 -1\n", "scale_min 0 -1e308\n")
        text = text.replace("scale_max 2 3\n", "scale_max 2 1e308\n")
        with pytest.raises(MalformedModel, match="feature index 2 spans"):
            load_model(text)

    def test_zero_weight_kernel_omitted(self):
        model = self._model(scaling=False)
        docked = MklModel(
            specs=model.specs,
            mu=model.mu.copy(),
            support_points=model.support_points,
            support_labels=model.support_labels,
            support_coefs=model.support_coefs,
            bias=model.bias,
            config=model.config,
        )
        docked.mu[2] = 0.0
        loaded = load_model(serialize_model(docked))
        assert len(loaded.specs) == len(model.specs) - 1
        queries = np.random.default_rng(10).random((10, 2))
        assert np.abs(decision_values(docked, queries) - decision_values(loaded, queries)).max() <= 1e-12

    def test_truncated_file_rejected(self):
        text = serialize_model(self._model())
        truncated = "\n".join(text.splitlines()[:-3])
        with pytest.raises(MalformedModel):
            load_model(truncated)

    def test_bad_header_rejected(self):
        text = serialize_model(self._model())
        for header in ("mklmmwu v3", "mklmmwu v2"):
            with pytest.raises(MalformedModel, match="unsupported model header"):
                load_model(text.replace("mklmmwu v4", header, 1))

    def test_garbled_field_rejected(self):
        text = serialize_model(self._model(scaling=False))
        with pytest.raises(MalformedModel):
            load_model(text.replace("bias ", "bias oops_", 1))

    def test_trailing_junk_rejected(self):
        text = serialize_model(self._model(scaling=False))
        with pytest.raises(MalformedModel):
            load_model(text + "leftover 1 2 3\n")


class TestMalformedKernelLines:
    """Each corrupted kernel record must raise MalformedModel, nothing else."""

    @staticmethod
    def _text():
        ds = make_random_dataset(15, 2, 8)
        return serialize_model(fit(ds, make_default_family(2, per_feature=True), SolverConfig(eps=0.4, margin="l2", C=2.0)))

    def _corrupt_first(self, prefix, replace):
        lines = self._text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[k] = replace(lines[k])
        return "\n".join(lines) + "\n"

    def _kernel_field(self, k, value, prefix="gaussian "):
        """The first `prefix` kernel record with field k (of kind, param,
        scope, r, mu) set to `value`."""

        def replace(line):
            parts = line.split()
            parts[k] = value
            return " ".join(parts)

        return self._corrupt_first(prefix, replace)

    def test_negative_feature_index(self):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_field(2, "-1"))

    def test_feature_index_past_dim(self):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_field(2, "2"))

    def test_non_integer_feature_field(self):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_field(2, "one"))

    def test_huge_polynomial_degree(self):
        # at this degree the loaded model would predict non-finite values
        with pytest.raises(MalformedModel, match="polynomial degree"):
            load_model(self._corrupt_first("poly ", lambda line: "poly 1000000 all " + line.split(maxsplit=3)[3]))

    def test_nan_mu(self):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_field(4, "nan"))

    def test_negative_mu(self):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_field(4, "-5"))

    def test_zero_mu(self):
        # save_model omits kernels with mu = 0, so a zero weight is never written
        with pytest.raises(MalformedModel):
            load_model(self._kernel_field(4, "0"))

    @pytest.mark.parametrize("k, value", [(1, "inf"), (3, "inf")], ids=["param inf", "r inf"])
    def test_corrupt_kernel_field(self, k, value):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_field(k, value))

    @pytest.mark.parametrize("edit", [lambda parts: parts[:4], lambda parts: parts + ["1"]],
                             ids=["4 fields", "6 fields"])
    def test_kernel_record_field_count(self, edit):
        with pytest.raises(MalformedModel, match="5 fields"):
            load_model(self._corrupt_first("gaussian ", lambda line: " ".join(edit(line.split()))))

    def test_one_label_support(self):
        # every step of a fit takes a point of each class, so no fit writes this
        with pytest.raises(MalformedModel, match=r"every support label is \+1"):
            load_model(V4_GOLDEN.replace("sv -1 ", "sv +1 "))

    def test_empty_support(self):
        # every fit has support points; without them every query gets sign(bias)
        lines = [line for line in self._text().splitlines() if not line.startswith("sv ")]
        k = next(i for i, line in enumerate(lines) if line.startswith("n_support "))
        lines[k] = "n_support 0"
        with pytest.raises(MalformedModel):
            load_model("\n".join(lines) + "\n")

    def test_negative_n_support(self):
        with pytest.raises(MalformedModel):
            load_model(self._corrupt_first("n_support ", lambda line: "n_support -1"))

    @pytest.mark.parametrize(
        "prefix, replacement",
        [("bias ", "bias nan"), ("dim ", "dim 0"), ("eps ", "eps -1"), ("C ", "C 0"),
         ("gaussian ", "gaussian inf 0"), ("sv ", "sv +1 -0.5 0.1 0.2"),
         ("sv ", "sv +1 0.5 nan 0.2"), ("scale_max ", "scale_max -5 -5")],
    )
    def test_other_corrupt_records(self, prefix, replacement):
        text = serialize_model(fit(make_random_dataset(15, 2, 8), make_default_family(2, per_feature=True),
                                   SolverConfig(eps=0.4, margin="l2", C=2.0),
                                   scaling=ScalingParams(np.zeros(2), np.ones(2))))
        lines = text.splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[k] = replacement
        with pytest.raises(MalformedModel):
            load_model("\n".join(lines) + "\n")


@functools.cache
def _saved_lines(scaled=False):
    """Lines of a saved fit: hard margin without scaling lines, or 2-norm
    margin (a C line) with scaling lines."""
    config = SolverConfig(eps=0.5, margin="l2", C=2.0) if scaled else SolverConfig(eps=0.5, margin="hard")
    scaling = ScalingParams(np.array([0.0, -1.0]), np.array([2.0, 3.0])) if scaled else None
    model = fit(make_random_dataset(6, 2, 3), make_default_family(2)[:2], config, scaling=scaling)
    return tuple(serialize_model(model).splitlines())


def _mutated(scaled, op, i, j, k, token):
    lines = list(_saved_lines(scaled))
    i %= len(lines)
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j %= len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        parts = lines[i].split()
        parts[k % len(parts)] = token
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


class TestMutatedModelFiles:
    """A header count or a bare key must not reach an allocation or an index."""

    @pytest.mark.parametrize(
        "key, i, line",
        [("margin", 1, "margin"), ("dim", 4, "dim 99999999999"), ("n_support", 5, "n_support 99999999999"),
         ("labels", 3, None), ("labels", 3, "labels 2 4"), ("labels", 3, "labels -1 one"), ("labels", 3, "labels 1")],
        ids=["bare_margin", "huge_dim_without_scaling", "huge_n_support",
             "labels_missing", "labels_2_4", "labels_not_a_number", "labels_one_field"],
    )
    def test_header_faults(self, key, i, line):
        # line i replaced by `line`, or deleted; the explicit examples of the
        # property below address the first three lines too
        lines = list(_saved_lines())
        assert lines[i].split()[0] == key
        lines[i:i + 1] = [] if line is None else [line]
        with pytest.raises(MalformedModel):
            load_model("\n".join(lines) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(
        scaled=st.booleans(),
        op=st.sampled_from(("delete", "duplicate", "swap", "token")),
        i=st.integers(0, 63),
        j=st.integers(0, 63),
        k=st.integers(0, 7),
        token=st.sampled_from(("", "nan", "-1", "0", "99999999999")),
    )
    @example(scaled=False, op="token", i=1, j=0, k=1, token="")
    @example(scaled=False, op="token", i=4, j=0, k=1, token="99999999999")
    @example(scaled=False, op="token", i=5, j=0, k=1, token="99999999999")
    def test_mutated_file_loads_or_raises_malformed_property(self, scaled, op, i, j, k, token):
        # one deleted, duplicated or swapped line, or one replaced token
        text = _mutated(scaled, op, i, j, k, token)
        try:
            load_model(text)
        except MalformedModel:
            pass
