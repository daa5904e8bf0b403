import io
import math

import numpy as np
import pytest

from mklmmwu import (
    Dataset,
    DegenerateModel,
    KernelSpec,
    MalformedModel,
    SolverConfig,
    brute_qcqp,
    decision_value,
    extract_weights,
    fit,
    load_model,
    make_default_family,
    model_from_state,
    predict,
    serialize_model,
    train,
)
from mklmmwu.data import ScalingParams
from mklmmwu.model import MklModel, compute_bias, decision_values, error_rate, save_model

from helpers import dense_grams, make_blobs, make_random_dataset, mixed_saddle_instance
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
        acc, gmats = dense_grams(ds, specs, C=1.0, margin_mode="l2")
        result = brute_qcqp(gmats, ds.labels, seed=0)
        assert len(result.active) == 2  # both kernels bind at this optimum
        state, _ = train(ds, specs, SolverConfig(eps=0.1, margin="l2", C=1.0))
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
            acc, gmats = dense_grams(ds, specs, C=1.0, margin_mode="l2")
            best = brute_qcqp(gmats, ds.labels, seed=seed)
            state, _ = train(ds, specs, SolverConfig(eps=0.1, margin="l2", C=1.0))
            mu = extract_weights(state)
            mix = mu / mu.sum()
            combined = sum(w * g for w, g in zip(mix, gmats))
            achieved = brute_qcqp([combined], ds.labels, seed=seed).omega
            assert math.sqrt(achieved) >= (1.0 - 0.1) * math.sqrt(best.omega)


class TestBias:
    def test_symmetric_two_point_bias_is_zero(self):
        state, _ = _train_two_point()
        mu = extract_weights(state)
        assert compute_bias(state, state.accessor, mu) == pytest.approx(0.0, abs=1e-12)

    def test_bisector_sign_follows_hull_norms(self):
        # 1-d linear kernel: bias is negative when the positive hull point
        # sits farther from the origin, positive when nearer
        far = Dataset(np.array([[0.9], [0.7]]), np.array([1.0, -1.0]))
        near = Dataset(np.array([[0.1], [0.3]]), np.array([1.0, -1.0]))
        for ds, sign in ((far, -1.0), (near, 1.0)):
            cfg = SolverConfig(eps=0.2, margin="hard", max_iters_override=30)
            state, _ = train(ds, [KernelSpec("poly", 1.0)], cfg)
            mu = extract_weights(state)
            bias = compute_bias(state, state.accessor, mu)
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
        g_mu = sum(weight * acc.dense_signed_gram(i) for i, weight in enumerate(mu))
        c = 2.0 * state.alpha_bar / total
        c_plus = np.where(ds.labels > 0, c, 0.0)
        c_minus = c - c_plus
        norm_plus = float(c_plus @ g_mu @ c_plus)
        norm_minus = float(c_minus @ g_mu @ c_minus)
        want = 0.5 * (norm_minus - norm_plus)
        got = compute_bias(state, acc, mu)
        assert abs(got - want) <= 1e-12 * max(norm_plus, norm_minus)

    def test_midpoint_is_on_the_boundary(self):
        model = model_from_state(_train_two_point()[0])
        assert decision_value(model, [0.5]) == pytest.approx(0.0, abs=1e-12)
        assert predict(model, [0.5]) == 1  # exact zero resolves to +1


class TestPredict:
    def test_dominant_support_point(self):
        model = model_from_state(_train_two_point()[0])
        assert predict(model, [0.0]) == 1
        assert predict(model, [1.0]) == -1

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
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.random(2)
            assert predict(model, x) == predict(scaled, x)

    def test_separable_blobs_fit_perfectly(self):
        ds = make_blobs(12, seed=4)
        acc, gmats = dense_grams(ds, [KernelSpec("poly", 1.0)], margin_mode="hard")
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
        scalar = np.array([decision_value(model, x) for x in queries])
        scale = max(np.abs(scalar).max(), 1.0)
        assert np.abs(batched - scalar).max() <= 1e-10 * scale

    def test_dimension_mismatch(self):
        model = model_from_state(_train_two_point()[0])
        with pytest.raises(ValueError):
            decision_value(model, [0.1, 0.2])


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
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.random(2)
            assert abs(decision_value(model, x) - decision_value(loaded, x)) <= 1e-12

    def test_scaling_round_trip(self):
        model = self._model(scaling=True)
        loaded = load_model(serialize_model(model))
        assert np.array_equal(loaded.scaling.mins, model.scaling.mins)
        assert np.array_equal(loaded.scaling.maxs, model.scaling.maxs)

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
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.random(2)
            assert abs(decision_value(docked, x) - decision_value(loaded, x)) <= 1e-12

    def test_truncated_file_rejected(self):
        text = serialize_model(self._model())
        truncated = "\n".join(text.splitlines()[:-3])
        with pytest.raises(MalformedModel):
            load_model(truncated)

    def test_bad_header_rejected(self):
        text = serialize_model(self._model())
        with pytest.raises(MalformedModel):
            load_model(text.replace("mklmmwu v1", "mklmmwu v2", 1))

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

    def _kernel_feature(self, value):
        return self._corrupt_first("gaussian ", lambda line: " ".join(line.split()[:2] + [value]))

    def test_negative_feature_index(self):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_feature("-1"))

    def test_feature_index_past_dim(self):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_feature("2"))

    def test_non_integer_feature_field(self):
        with pytest.raises(MalformedModel):
            load_model(self._kernel_feature("one"))

    def test_nan_mu(self):
        with pytest.raises(MalformedModel):
            load_model(self._corrupt_first("mu ", lambda line: "mu nan"))

    def test_negative_mu(self):
        with pytest.raises(MalformedModel):
            load_model(self._corrupt_first("mu ", lambda line: "mu -5"))

    def test_negative_n_support(self):
        with pytest.raises(MalformedModel):
            load_model(self._corrupt_first("n_support ", lambda line: "n_support -1"))

    @pytest.mark.parametrize(
        "prefix, replacement",
        [("bias ", "bias nan"), ("dim ", "dim 0"), ("eps ", "eps -1"), ("r ", "r inf"),
         ("ridge ", "ridge nan"), ("gaussian ", "gaussian inf 0"), ("sv ", "sv +1 -0.5 0.1 0.2"),
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
