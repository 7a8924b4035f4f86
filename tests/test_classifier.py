import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairdp.classifier import (
    LIPSCHITZ_BLOCK_ROWS,
    ModelParams,
    forward,
    gradient_scale,
    load_checkpoint,
    loss_dlogits,
    mean_param_grad,
    predict_label,
    predict_proba,
    proba_lipschitz_bound,
    save_checkpoint,
)
from helpers import (
    central_diff_grad,
    central_diff_jac,
    jacobian_proba,
    loss,
    loss_grad,
    mean_loss,
    reference_proba_lipschitz_bound,
    rel_error,
)


def random_params(rng, l, d_x, scale=1.0):
    return ModelParams(rng.normal(scale=scale, size=(l, d_x)), rng.normal(scale=scale, size=l))


def binary_logits(a, b):
    """Params with x = [1] producing logits (a, b)."""
    return ModelParams(np.array([[a], [b]]), np.zeros(2))


class TestPredict:
    def test_zero_params_uniform(self):
        theta = ModelParams.zeros(3, 4)
        assert np.allclose(predict_proba(theta, np.ones(4)), 1 / 3)

    def test_logit_one_zero(self):
        probs = predict_proba(binary_logits(1.0, 0.0), np.array([1.0]))
        assert np.allclose(probs, [0.73105858, 0.26894142], atol=1e-8)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        theta = random_params(rng, 3, 2)
        shifted = ModelParams(theta.weights, theta.bias + 17.0)
        x = rng.normal(size=2)
        assert np.allclose(predict_proba(theta, x), predict_proba(shifted, x), atol=1e-12)

    def test_batch_shape(self):
        theta = ModelParams.zeros(2, 3)
        assert predict_proba(theta, np.zeros((5, 3))).shape == (5, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_proba(ModelParams.zeros(2, 3), np.zeros(4))

    @given(
        arrays(np.float64, (3, 2), elements=st.floats(-30, 30)),
        arrays(np.float64, (2,), elements=st.floats(-30, 30)),
    )
    @settings(max_examples=60, deadline=None)
    def test_simplex(self, weights, x):
        probs = predict_proba(ModelParams(weights, np.zeros(3)), x)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) <= 1e-9


class TestPredictLabel:
    def test_argmax(self):
        theta = ModelParams(np.array([[0.0], [1.0], [-2.0]]), np.zeros(3))
        assert predict_label(theta, np.array([1.0])) == 2

    def test_tie_breaks_low(self):
        assert predict_label(binary_logits(0.5, 0.5), np.array([1.0])) == 1

    def test_zero_params_always_first(self):
        theta = ModelParams.zeros(4, 2)
        labels = predict_label(theta, np.random.default_rng(0).normal(size=(6, 2)))
        assert np.all(labels == 1)


class TestLoss:
    def test_uniform(self):
        assert loss(ModelParams.zeros(2, 3), np.ones(3), 1) == pytest.approx(np.log(2))

    def test_saturated_correct(self):
        assert loss(binary_logits(60.0, 0.0), np.array([1.0]), 1) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_class(self):
        # -ln 0.268941...
        assert loss(binary_logits(1.0, 0.0), np.array([1.0]), 2) == pytest.approx(1.31326169)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            loss(ModelParams.zeros(2, 1), np.ones(1), 3)

    def test_clamp_keeps_loss_finite(self):
        value = loss(binary_logits(800.0, 0.0), np.array([1.0]), 2)
        assert np.isfinite(value)
        assert value == pytest.approx(-np.log(1e-30))


class TestLossGrad:
    def test_saturated_gradient_vanishes(self):
        g = loss_grad(binary_logits(60.0, 0.0), np.array([1.0]), 1)
        assert np.allclose(g, 0.0, atol=1e-20)

    def test_zero_params_binary(self):
        theta = ModelParams.zeros(2, 3)
        x = np.array([1.0, 0.0, 0.0])
        g = loss_grad(theta, x, 1).reshape(-1)
        weights = g[:6].reshape(2, 3)
        assert np.allclose(weights[0], -0.5 * x)
        assert np.allclose(weights[1], 0.5 * x)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            l, d_x = int(rng.integers(2, 5)), int(rng.integers(1, 8))
            theta = random_params(rng, l, d_x, scale=0.7)
            x = rng.normal(size=d_x)
            y = int(rng.integers(1, l + 1))
            fd = central_diff_grad(
                lambda v: loss(ModelParams.from_vector(v, l, d_x), x, y),
                theta.as_vector(),
            )
            assert rel_error(loss_grad(theta, x, y), fd) <= 1e-6


class TestJacobian:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        theta = random_params(rng, 4, 5)
        jac = jacobian_proba(theta, rng.normal(size=5))
        assert np.abs(jac.sum(axis=0)).max() <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            l, d_x = int(rng.integers(2, 5)), int(rng.integers(1, 8))
            theta = random_params(rng, l, d_x, scale=0.7)
            x = rng.normal(size=d_x)
            fd = central_diff_jac(
                lambda v: predict_proba(ModelParams.from_vector(v, l, d_x), x),
                theta.as_vector(),
                out_dim=l,
            )
            assert rel_error(jacobian_proba(theta, x), fd) <= 1e-6

    def test_zero_features_leave_weight_columns_zero(self):
        rng = np.random.default_rng(1)
        theta = random_params(rng, 3, 4)
        jac = jacobian_proba(theta, np.zeros(4))
        assert np.allclose(jac[:, : 3 * 4], 0.0)
        assert not np.allclose(jac[:, 3 * 4 :], 0.0)


class TestBatchHelpers:
    def test_kernel_mean_grad_matches_per_sample(self):
        rng = np.random.default_rng(11)
        theta = random_params(rng, 3, 4)
        X = rng.normal(size=(9, 4))
        y = rng.integers(1, 4, 9)
        stacked = np.mean([loss_grad(theta, X[i], int(y[i])) for i in range(9)], axis=0)
        proba = forward(theta.weights, theta.bias, X)
        assert np.allclose(mean_param_grad(loss_dlogits(proba, y), X), stacked, atol=1e-12)

    def test_mean_loss_matches_per_sample(self):
        rng = np.random.default_rng(12)
        theta = random_params(rng, 2, 3)
        X = rng.normal(size=(7, 3))
        y = rng.integers(1, 3, 7)
        per = np.mean([loss(theta, X[i], int(y[i])) for i in range(7)])
        assert mean_loss(theta, X, y) == pytest.approx(per)

    def test_clipping_bounds_per_sample_norms(self):
        rng = np.random.default_rng(13)
        theta = random_params(rng, 2, 3, scale=3.0)
        X = rng.normal(size=(5, 3)) * 4.0
        y = rng.integers(1, 3, 5)
        clip = 0.05
        clipped = [
            min(1.0, clip / np.linalg.norm(loss_grad(theta, X[i], int(y[i]))))
            * loss_grad(theta, X[i], int(y[i]))
            for i in range(5)
        ]
        proba = forward(theta.weights, theta.bias, X)
        dlogits = loss_dlogits(proba, y, clip, gradient_scale(X))
        assert np.allclose(mean_param_grad(dlogits, X), np.mean(clipped, axis=0), atol=1e-12)

    def test_lipschitz_bound_dominates_probes(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 4))
        bound = proba_lipschitz_bound(X)
        assert np.isfinite(bound)
        for _ in range(50):
            theta = random_params(rng, 3, 4, scale=2.0)
            i = int(rng.integers(0, 30))
            assert np.linalg.norm(jacobian_proba(theta, X[i])) <= bound + 1e-12


    @pytest.mark.parametrize("n", [1, LIPSCHITZ_BLOCK_ROWS, 3 * LIPSCHITZ_BLOCK_ROWS + 7])
    @pytest.mark.parametrize("d_x", [1, 5, 10, 130])
    def test_lipschitz_bound_matches_the_whole_array_form_bit_for_bit(self, n, d_x):
        rng = np.random.default_rng(n * d_x)
        X = rng.standard_normal((n, d_x)) * rng.uniform(0.01, 100.0, size=(n, 1))
        for features in (X, np.asfortranarray(X), X[::2], X[:, ::-1], X[0]):
            want = reference_proba_lipschitz_bound(features)
            assert proba_lipschitz_bound(features) == want

    def test_lipschitz_bound_keeps_nan_and_empty_behaviour(self):
        X = np.ones((2 * LIPSCHITZ_BLOCK_ROWS, 3))
        X[LIPSCHITZ_BLOCK_ROWS + 1, 2] = np.nan
        assert np.isnan(proba_lipschitz_bound(X))
        with pytest.raises(ValueError, match="zero-size array"):
            proba_lipschitz_bound(np.empty((0, 3)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        theta = random_params(rng, 3, 5)
        path = tmp_path / "model.json"
        save_checkpoint(theta, path, metadata={"label_names": ["a", "b", "c"]})
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.weights, theta.weights)
        assert np.array_equal(loaded.bias, theta.bias)
        assert meta["label_names"] == ["a", "b", "c"]

    def test_checkpoint_is_json_with_dims(self, tmp_path):
        theta = ModelParams.zeros(2, 3)
        path = tmp_path / "model.json"
        save_checkpoint(theta, path)
        payload = json.loads(path.read_text())
        assert payload["l"] == 2 and payload["d_x"] == 3
        assert len(payload["weights"]) == 6


class TestOwnership:
    """ModelParams holds its arrays by TabularDataset's rule."""

    def test_read_only_owner_is_taken_as_it_is(self):
        rng = np.random.default_rng(3)
        weights, bias = rng.normal(size=(2, 3)), rng.normal(size=2)
        for a in (weights, bias):
            a.setflags(write=False)
        theta = ModelParams(weights, bias)
        assert theta.weights is weights and theta.bias is bias

    def test_writeable_input_is_copied(self):
        rng = np.random.default_rng(3)
        weights, bias = rng.normal(size=(2, 3)), rng.normal(size=2)
        theta = ModelParams(weights, bias)
        kept = theta.as_vector()
        weights[0, 0], bias[0] = 99.0, 99.0
        assert np.array_equal(theta.as_vector(), kept)
        assert not (theta.weights.flags.writeable or theta.bias.flags.writeable)


class TestVectorRoundTrip:
    def test_from_vector_inverts_as_vector(self):
        rng = np.random.default_rng(4)
        theta = random_params(rng, 3, 2)
        again = ModelParams.from_vector(theta.as_vector(), 3, 2)
        assert np.array_equal(again.weights, theta.weights)
        assert np.array_equal(again.bias, theta.bias)

    def test_from_vector_rejects_a_wrong_length(self):
        with pytest.raises(ValueError) as info:
            ModelParams.from_vector(np.zeros(8), 3, 2)
        assert str(info.value) == "expected a length-9 vector"


class TestModelParamsChecks:
    @pytest.mark.parametrize(
        "weights, bias",
        [
            (np.zeros((2, 3)), np.zeros(3)),
            (np.zeros(3), np.zeros(3)),
            (np.zeros((2, 3)), np.zeros((2, 1))),
        ],
        ids=["bias_length", "flat_weights", "bias_matrix"],
    )
    def test_mismatched_shapes(self, weights, bias):
        with pytest.raises(ValueError) as info:
            ModelParams(weights, bias)
        assert str(info.value) == "weights must be (l, d_x) with a matching length-l bias"

    @pytest.mark.parametrize("where", ["weights", "bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry(self, where, value):
        arrays = {"weights": np.zeros((2, 3)), "bias": np.zeros(2)}
        arrays[where][-1] = value
        with pytest.raises(ValueError) as info:
            ModelParams(**arrays)
        assert str(info.value) == "model parameters must be finite"
