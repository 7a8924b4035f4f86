import itertools
import math

import numpy as np
import pytest

from fairdp.classifier import ModelParams, forward, mean_param_grad, predict_proba
from fairdp.dataset import TabularDataset, group_counts
from fairdp.exceptions import DegenerateConditionalError, DegenerateGroupError
from fairdp.fairness import (
    DEMOGRAPHIC_PARITY,
    EQUALIZED_ODDS,
    MARGINAL_RIDGE,
    FermiConfig,
    dp_violation,
    eo_violation,
    ermi_hard,
    ermi_soft,
    inner_max_closed_form,
    saddle_terms,
    strata,
)
from helpers import (
    central_diff_grad,
    dp_saddle_terms,
    group_stats,
    mean_loss,
    psi,
    psi_grad_theta,
    psi_grad_w,
    rel_error,
)


def brute_force_ermi(joint):
    """Direct double sum over a joint table; the spec of the estimator."""
    joint = np.asarray(joint, dtype=float)
    p_rows = joint.sum(axis=1)
    p_cols = joint.sum(axis=0)
    total = 0.0
    for j in range(joint.shape[0]):
        for r in range(joint.shape[1]):
            if joint[j, r] > 0:
                total += joint[j, r] ** 2 / (p_rows[j] * p_cols[r])
    return total - 1.0


def random_dataset(rng, n=20, d_x=3, l=2, k=2):
    s = np.resize(np.arange(1, k + 1), n)
    rng.shuffle(s)
    y = np.resize(np.arange(1, l + 1), n)
    rng.shuffle(y)
    return TabularDataset(rng.normal(size=(n, d_x)), y, s, l=l, k=k)


def random_params(rng, l, d_x, scale=0.6):
    return ModelParams(rng.normal(scale=scale, size=(l, d_x)), rng.normal(scale=scale, size=l))


class TestErmiHard:
    def test_independent_is_zero(self):
        assert ermi_hard([2, 1, 2, 1], [1, 1, 2, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation_is_k_minus_one(self):
        assert ermi_hard([1, 1, 2, 2], [1, 1, 2, 2]) == pytest.approx(1.0, abs=1e-12)
        # brute-force the same 2x2 joint
        assert brute_force_ermi([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(1.0)

    def test_constant_predictions(self):
        assert ermi_hard([1, 1, 1, 1], [1, 2, 1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_absent_group_rejected(self):
        with pytest.raises(DegenerateGroupError) as info:
            ermi_hard([1, 2, 1, 2], [1, 1, 1, 1], k=2)
        assert str(info.value) == "sensitive group(s) [2] have no samples"

    @pytest.mark.parametrize(
        "args, message",
        [
            (([1, 2, 1], [1, 1, 2, 2]), "preds and s must be equal-length nonempty vectors"),
            (([], []), "preds and s must be equal-length nonempty vectors"),
            (([1, 2], [1, 2], [1]), "preds, s and y must be equal-length nonempty vectors"),
        ],
        ids=["unequal", "empty", "unequal_y"],
    )
    def test_vectors_must_be_equal_length_and_nonempty(self, args, message):
        with pytest.raises(ValueError) as info:
            ermi_hard(*args)
        assert str(info.value) == message

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n, l, k = 24, int(rng.integers(2, 4)), int(rng.integers(2, 4))
            preds = rng.integers(1, l + 1, n)
            s = np.resize(np.arange(1, k + 1), n)
            rng.shuffle(s)
            joint = np.zeros((l, k))
            for j, r in zip(preds, s):
                joint[j - 1, r - 1] += 1 / n
            assert ermi_hard(preds, s, k=k, l=l) == pytest.approx(
                brute_force_ermi(joint), abs=1e-12
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(4, 20))
            preds = rng.integers(1, 4, n)
            s = np.resize([1, 2], n)
            assert ermi_hard(preds, s, k=2) >= -1e-12

    def test_zero_iff_independent_exhaustive(self):
        # all 2x2 joint count tables with n <= 8 and both groups present
        for n in range(2, 9):
            for c11 in range(n + 1):
                for c12 in range(n + 1 - c11):
                    for c21 in range(n + 1 - c11 - c12):
                        c22 = n - c11 - c12 - c21
                        col1, col2 = c11 + c21, c12 + c22
                        if col1 == 0 or col2 == 0:
                            continue
                        preds = [1] * c11 + [1] * c12 + [2] * c21 + [2] * c22
                        s = [1] * c11 + [2] * c12 + [1] * c21 + [2] * c22
                        value = ermi_hard(preds, s, k=2, l=2)
                        joint = np.array([[c11, c12], [c21, c22]]) / n
                        factorized = np.outer(joint.sum(1), joint.sum(0))
                        independent = np.abs(joint - factorized).max() <= 1e-12
                        assert (value <= 1e-12) == independent


class TestErmiSoft:
    def test_zero_params(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        theta = ModelParams.zeros(ds.l, ds.d_x)
        assert ermi_soft(theta, ds) == pytest.approx(0.0, abs=1e-12)

    def test_feature_blind_model_factorizes(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=16)
        theta = ModelParams(np.zeros((2, 3)), rng.normal(size=2))
        assert ermi_soft(theta, ds) == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n=6)
        theta = random_params(rng, 2, 3)
        counts = group_stats(ds.sensitive, ds.k)[0]
        probs = predict_proba(theta, ds.features)
        joint = np.zeros((2, 2))
        marginal = np.zeros(2)
        for i in range(ds.n):
            for j in range(2):
                joint[j, ds.sensitive[i] - 1] += probs[i, j] / ds.n
                marginal[j] += probs[i, j] / ds.n
        expected = sum(
            joint[j, r] ** 2 / (marginal[j] * counts[r] / ds.n)
            for j in range(2)
            for r in range(2)
        ) - 1.0
        assert ermi_soft(theta, ds) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ds = random_dataset(rng, n=int(rng.integers(6, 30)))
            theta = random_params(rng, 2, 3, scale=1.5)
            assert ermi_soft(theta, ds) >= -1e-12


    def test_equalized_odds_is_label_weighted_sum_of_slices(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            l, k = (int(v) for v in rng.integers(2, 4, size=2))
            ds = full_cell_dataset(rng, l, k)
            theta = random_params(rng, l, 3, scale=1.5)
            expected = sum(
                (ds.labels == y).mean() * ermi_soft(theta, label_slice(ds, y))
                for y in range(1, l + 1)
            )
            assert ermi_soft(theta, ds, EQUALIZED_ODDS) == pytest.approx(expected, abs=1e-9)

    def test_equalized_odds_is_saddle_value_at_maximizer(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            l, k = (int(v) for v in rng.integers(2, 4, size=2))
            ds = full_cell_dataset(rng, l, k)
            theta = random_params(rng, l, 3, scale=1.5)
            cells, inv_sqrt = strata(ds, EQUALIZED_ODDS)
            proba = forward(theta.weights, theta.bias, ds.features)
            w_star = inner_max_closed_form(theta, ds, EQUALIZED_ODDS)
            _, _, value = saddle_terms(proba, w_star, inv_sqrt, cells)
            assert ermi_soft(theta, ds, EQUALIZED_ODDS) == pytest.approx(value, abs=1e-9)


class TestErmiConditional:
    """ermi_hard given the true labels: the label-conditional form."""

    def test_independent_within_labels(self):
        y = [1, 1, 1, 1, 2, 2, 2, 2]
        s = [1, 1, 2, 2, 1, 1, 2, 2]
        preds = [1, 2, 1, 2, 1, 2, 1, 2]
        assert ermi_hard(preds, s, y) == pytest.approx(0.0, abs=1e-12)

    def test_group_equals_pred_within_labels(self):
        y = [1, 1, 1, 1, 2, 2, 2, 2]
        s = [1, 1, 2, 2, 1, 1, 2, 2]
        assert ermi_hard(s, s, y) == pytest.approx(1.0, abs=1e-12)

    def test_single_label_reduces_to_hard(self):
        preds = [1, 2, 2, 1, 2]
        s = [1, 2, 1, 2, 2]
        y = [1, 1, 1, 1, 1]
        assert ermi_hard(preds, s, y) == pytest.approx(
            ermi_hard(preds, s), abs=1e-12
        )

    def test_empty_conditional_cell(self):
        with pytest.raises(DegenerateConditionalError) as info:
            ermi_hard([1, 2, 1, 2], [1, 1, 2, 2], [1, 1, 2, 2])
        assert str(info.value) == "within label class 1: sensitive group(s) [2] have no samples"


def one_sample_maximizer(theta, x, s, inv_sqrt):
    """Per-sample first-order maximizer W[r, j] = 1{s=r} / sqrt(p_S(r))."""
    w = np.zeros((inv_sqrt.shape[0], theta.l))
    w[s - 1, :] = inv_sqrt[s - 1]
    return w


class TestPsi:
    def test_zero_dual(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng)
        inv_sqrt = strata(ds)[1][0]
        theta = random_params(rng, 2, 3)
        value = psi(theta, np.zeros((2, 2)), ds.features[0], int(ds.sensitive[0]), inv_sqrt)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_hand_evaluated_instance(self):
        # theta = 0, balanced groups, W = diag(sqrt(p_S)): F = (1/2, 1/2),
        # quadratic term 1/2, coupling 2 * sqrt(.5) * .5 * sqrt(2) = 1
        ds = TabularDataset(np.zeros((4, 2)), [1, 2, 1, 2], [1, 1, 2, 2], l=2, k=2)
        inv_sqrt = strata(ds)[1][0]
        theta = ModelParams.zeros(2, 2)
        w = np.diag(np.sqrt([0.5, 0.5]))
        value = psi(theta, w, ds.features[0], 1, inv_sqrt)
        assert value == pytest.approx(-0.5 + 1.0 - 1.0, abs=1e-12)

    def test_dominated_by_per_sample_maximizer(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng)
        inv_sqrt = strata(ds)[1][0]
        theta = random_params(rng, 2, 3)
        x, s = ds.features[0], int(ds.sensitive[0])
        best = psi(theta, one_sample_maximizer(theta, x, s, inv_sqrt), x, s, inv_sqrt)
        for _ in range(25):
            w = rng.normal(scale=2.0, size=(2, 2))
            assert psi(theta, w, x, s, inv_sqrt) <= best + 1e-12


class TestPsiGradW:
    def test_zero_dual_formula(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng)
        inv_sqrt = strata(ds)[1][0]
        theta = random_params(rng, 2, 3)
        x, s = ds.features[2], int(ds.sensitive[2])
        grad = psi_grad_w(theta, np.zeros((2, 2)), x, s, inv_sqrt)
        probs = predict_proba(theta, x)
        expected = np.zeros((2, 2))
        expected[s - 1] = 2.0 * inv_sqrt[s - 1] * probs
        assert np.allclose(grad, expected, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ds = random_dataset(rng)
            inv_sqrt = strata(ds)[1][0]
            theta = random_params(rng, 2, 3)
            w = rng.normal(size=(2, 2))
            x, s = ds.features[0], int(ds.sensitive[0])
            fd = central_diff_grad(
                lambda v: psi(theta, v.reshape(2, 2), x, s, inv_sqrt), w.ravel()
            ).reshape(2, 2)
            assert rel_error(psi_grad_w(theta, w, x, s, inv_sqrt), fd) <= 1e-6

    def test_saturated_model_touches_one_column(self):
        # huge logit on class 2 makes F one-hot there
        theta = ModelParams(np.array([[0.0], [80.0]]), np.zeros(2))
        ds = TabularDataset(np.ones((2, 1)), [1, 2], [1, 2], l=2, k=2)
        inv_sqrt = strata(ds)[1][0]
        grad = psi_grad_w(theta, np.ones((2, 2)), np.ones(1), 1, inv_sqrt)
        assert np.allclose(grad[:, 0], 0.0, atol=1e-25)
        assert not np.allclose(grad[:, 1], 0.0)


class TestPsiGradTheta:
    def test_zero_dual_gives_zero(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng)
        inv_sqrt = strata(ds)[1][0]
        theta = random_params(rng, 2, 3)
        grad = psi_grad_theta(theta, np.zeros((2, 2)), ds.features[0], 1, inv_sqrt)
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ds = random_dataset(rng)
            inv_sqrt = strata(ds)[1][0]
            theta = random_params(rng, 2, 3)
            w = rng.normal(size=(2, 2))
            x, s = ds.features[1], int(ds.sensitive[1])
            fd = central_diff_grad(
                lambda v: psi(ModelParams.from_vector(v, 2, 3), w, x, s, inv_sqrt),
                theta.as_vector(),
            )
            assert rel_error(psi_grad_theta(theta, w, x, s, inv_sqrt), fd) <= 1e-5

    def test_zero_features_kill_weight_block(self):
        rng = np.random.default_rng(13)
        inv_sqrt = strata(random_dataset(rng))[1][0]
        theta = random_params(rng, 2, 3)
        w = rng.normal(size=(2, 2))
        grad = psi_grad_theta(theta, w, np.zeros(3), 1, inv_sqrt)
        assert np.allclose(grad[: 2 * 3], 0.0, atol=1e-15)


def ascent_oracle(theta, ds, inv_sqrt, steps=10_000):
    """Projected gradient ascent on the batch-averaged psi."""
    w = np.zeros((inv_sqrt.shape[0], theta.l))
    marginal = predict_proba(theta, ds.features).mean(axis=0)
    eta = 1.0 / (2.0 * marginal.max())
    box = 10.0 * inv_sqrt.max()
    for _ in range(steps):
        grad = np.mean(
            [
                psi_grad_w(theta, w, ds.features[i], int(ds.sensitive[i]), inv_sqrt)
                for i in range(ds.n)
            ],
            axis=0,
        )
        w = np.clip(w + eta * grad, -box, box)
    return w


class TestInnerMax:
    def test_zero_params_closed_form(self):
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, n=12)
        counts = group_stats(ds.sensitive, ds.k)[0]
        w = inner_max_closed_form(ModelParams.zeros(2, 3), ds)[0]
        expected = np.repeat(np.sqrt(counts / ds.n)[:, None], 2, axis=1)
        assert np.allclose(w, expected, atol=1e-12)

    def test_gradient_vanishes_at_maximizer(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            ds = random_dataset(rng, n=14)
            inv_sqrt = strata(ds)[1][0]
            theta = random_params(rng, 2, 3)
            w_star = inner_max_closed_form(theta, ds)[0]
            _, grad_w, _ = dp_saddle_terms(theta, w_star, ds.features, ds.sensitive, inv_sqrt)
            assert np.abs(grad_w).max() <= 1e-9

    def test_matches_ascent_oracle(self):
        rng = np.random.default_rng(16)
        ds = random_dataset(rng, n=10)
        inv_sqrt = strata(ds)[1][0]
        theta = random_params(rng, 2, 3)
        w_star = inner_max_closed_form(theta, ds)[0]
        w_ascent = ascent_oracle(theta, ds, inv_sqrt)
        assert np.abs(w_star - w_ascent).max() <= 1e-6

    def test_plugging_in_recovers_soft_ermi(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ds = random_dataset(rng, n=int(rng.integers(8, 24)))
            inv_sqrt = strata(ds)[1][0]
            theta = random_params(rng, 2, 3)
            w_star = inner_max_closed_form(theta, ds)[0]
            _, _, value = dp_saddle_terms(theta, w_star, ds.features, ds.sensitive, inv_sqrt)
            assert value == pytest.approx(ermi_soft(theta, ds), abs=1e-9)

    def test_factorizing_model_gives_zero(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, n=12)
        inv_sqrt = strata(ds)[1][0]
        theta = ModelParams(np.zeros((2, 3)), rng.normal(size=2))
        w_star = inner_max_closed_form(theta, ds)[0]
        _, _, value = dp_saddle_terms(theta, w_star, ds.features, ds.sensitive, inv_sqrt)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_saturated_marginal_gets_ridge(self):
        # class 2 saturated off: its soft marginal underflows to zero, so the
        # ridge is added to both class marginals of each stratum
        ds = TabularDataset(np.ones((4, 1)), [1, 2, 1, 2], [1, 1, 2, 2], l=2, k=2)
        theta = ModelParams(np.array([[800.0], [-800.0]]), np.zeros(2))
        # in every stratum p(1, r) = p(r) = 1/2, p(1) = 1 and p(2) = 0
        expected = np.array([[math.sqrt(0.5) / (1.0 + MARGINAL_RIDGE), 0.0]] * 2)
        for notion, n_strata in ((DEMOGRAPHIC_PARITY, 1), (EQUALIZED_ODDS, 2)):
            w = inner_max_closed_form(theta, ds, notion)
            assert w.shape == (n_strata, 2, 2)
            assert np.allclose(w, expected, rtol=1e-15, atol=0.0)
        # only label class 1 saturated: label class 2 keeps its exact maximizer
        ds = TabularDataset(
            np.array([[1.0], [0], [1], [0]]), [1, 2, 1, 2], [1, 1, 2, 2], l=2, k=2
        )
        w = inner_max_closed_form(theta, ds, EQUALIZED_ODDS)
        assert np.allclose(w[0], expected, rtol=1e-15, atol=0.0)
        assert np.array_equal(w[1], np.full((2, 2), math.sqrt(0.5)))

    def test_equalized_odds_gradient_vanishes_at_maximizer(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            l, k = (int(v) for v in rng.integers(2, 4, size=2))
            ds = random_dataset(rng, n=30, l=l, k=k)
            cells, inv_sqrt = strata(ds, EQUALIZED_ODDS)
            theta = random_params(rng, l, 3)
            w_star = inner_max_closed_form(theta, ds, EQUALIZED_ODDS)
            assert w_star.shape == (l, k, l)
            proba = forward(theta.weights, theta.bias, ds.features)
            _, grad_w, _ = saddle_terms(proba, w_star, inv_sqrt, cells)
            assert np.abs(grad_w).max() <= 1e-9


class TestMinMaxIdentity:
    def test_fifty_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            l = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            n = int(rng.integers(3 * k, 40))
            ds = random_dataset(rng, n=n, d_x=int(rng.integers(1, 5)), l=l, k=k)
            inv_sqrt = strata(ds)[1][0]
            theta = random_params(rng, l, ds.d_x)
            lam = float(rng.uniform(0.0, 2.5))
            w_star = inner_max_closed_form(theta, ds)[0]
            _, _, best_psi = dp_saddle_terms(theta, w_star, ds.features, ds.sensitive, inv_sqrt)
            lhs = mean_loss(theta, ds.features, ds.labels) + lam * best_psi
            rhs = mean_loss(theta, ds.features, ds.labels) + lam * ermi_soft(theta, ds)
            assert abs(lhs - rhs) <= 1e-6


class TestGradientLinearity:
    def test_batch_average_equals_gradient_of_average(self):
        rng = np.random.default_rng(20)
        ds = random_dataset(rng, n=9)
        inv_sqrt = strata(ds)[1][0]
        theta = random_params(rng, 2, 3)
        w = rng.normal(size=(2, 2))
        g_theta, g_w, value = dp_saddle_terms(theta, w, ds.features, ds.sensitive, inv_sqrt)
        per_theta = np.mean(
            [
                psi_grad_theta(theta, w, ds.features[i], int(ds.sensitive[i]), inv_sqrt)
                for i in range(ds.n)
            ],
            axis=0,
        )
        per_w = np.mean(
            [
                psi_grad_w(theta, w, ds.features[i], int(ds.sensitive[i]), inv_sqrt)
                for i in range(ds.n)
            ],
            axis=0,
        )
        per_value = np.mean(
            [
                psi(theta, w, ds.features[i], int(ds.sensitive[i]), inv_sqrt)
                for i in range(ds.n)
            ]
        )
        assert np.allclose(g_theta, per_theta, atol=1e-12)
        assert np.allclose(g_w, per_w, atol=1e-12)
        assert value == pytest.approx(per_value, abs=1e-12)


class TestUnbiasedness:
    def test_enumerated_batches_reproduce_full_gradient(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, n=6)
        inv_sqrt = strata(ds)[1][0]
        theta = random_params(rng, 2, 3)
        w = rng.normal(size=(2, 2))
        full_theta, full_w, _ = dp_saddle_terms(theta, w, ds.features, ds.sensitive, inv_sqrt)
        batches = list(itertools.combinations(range(6), 2))
        assert len(batches) == 15
        avg_theta = np.mean(
            [
                dp_saddle_terms(theta, w, ds.features[list(b)], ds.sensitive[list(b)], inv_sqrt)[0]
                for b in batches
            ],
            axis=0,
        )
        avg_w = np.mean(
            [
                dp_saddle_terms(theta, w, ds.features[list(b)], ds.sensitive[list(b)], inv_sqrt)[1]
                for b in batches
            ],
            axis=0,
        )
        assert np.allclose(avg_theta, full_theta, atol=1e-12)
        assert np.allclose(avg_w, full_w, atol=1e-12)

    def test_with_replacement_mean(self):
        from fairdp.dataset import minibatch

        rng = np.random.default_rng(22)
        ds = random_dataset(rng, n=6)
        inv_sqrt = strata(ds)[1][0]
        theta = random_params(rng, 2, 3)
        w = rng.normal(size=(2, 2))
        full_theta, _, _ = dp_saddle_terms(theta, w, ds.features, ds.sensitive, inv_sqrt)
        per_sample = np.stack(
            [
                psi_grad_theta(theta, w, ds.features[i], int(ds.sensitive[i]), inv_sqrt)
                for i in range(6)
            ]
        )
        idx = np.concatenate([minibatch(6, 2, rng) for _ in range(100_000)])
        counts = np.bincount(idx, minlength=6) / idx.size
        estimate = counts @ per_sample
        scale = np.abs(per_sample).max()
        assert np.abs(estimate - full_theta).max() <= 0.01 * scale


class TestDpViolation:
    def test_perfectly_separated(self):
        assert dp_violation([2, 2, 1, 1], [1, 1, 2, 2]) == pytest.approx(1.0)

    def test_identical_conditionals(self):
        assert dp_violation([2, 1, 2, 1], [1, 1, 2, 2]) == pytest.approx(0.0)

    def test_hand_enumerated_half(self):
        # P[pred=2 | s=1] = 1, P[pred=2 | s=2] = 0.5
        assert dp_violation([2, 2, 2, 1], [1, 1, 2, 2]) == pytest.approx(0.5)

    def test_absent_group(self):
        with pytest.raises(DegenerateGroupError):
            dp_violation([1, 2], [1, 1], k=2)

    def test_absent_group_is_named_as_group_counts_names_it(self):
        with pytest.raises(DegenerateGroupError) as info:
            dp_violation([1, 2, 1], [1, 1, 2], k=3)
        ds = TabularDataset(np.zeros((3, 1)), [1, 2, 1], [1, 1, 2], l=2, k=3)
        with pytest.raises(DegenerateGroupError) as counted:
            group_counts(ds)
        assert str(info.value) == str(counted.value) == "sensitive group(s) [3] have no samples"


class TestEoViolation:
    def test_exact_predictions(self):
        y = np.array([1, 2, 1, 2, 1, 2, 1, 2])
        s = np.array([1, 1, 2, 2, 1, 1, 2, 2])
        assert eo_violation(y, s, y) == pytest.approx(0.0)

    def test_independent_within_strata(self):
        y = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        s = np.array([1, 2, 1, 2, 1, 2, 1, 2])
        preds = np.array([1, 1, 2, 2, 1, 1, 2, 2])
        assert eo_violation(preds, s, y) == pytest.approx(0.0)

    def test_hand_built_half_gap(self):
        y = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        s = np.array([1, 1, 2, 2, 1, 1, 2, 2])
        preds = np.array([1, 1, 1, 2, 2, 2, 2, 2])
        # P[pred=1 | s=1, y=1] = 1 vs P[pred=1 | s=2, y=1] = 0.5
        assert eo_violation(preds, s, y) == pytest.approx(0.5)

    def test_gap_only_among_other_labels(self):
        # P[pred=j | s, y=j] is 1/2 in every group, but among y != 1 group 1
        # predicts class 1 half the time and group 2 never does
        y = np.array([1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3])
        s = np.array([1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2])
        preds = np.array([1, 2, 1, 3, 2, 1, 2, 3, 3, 1, 3, 2])
        assert eo_violation(preds, s, y) == pytest.approx(0.5)

    def test_empty_stratum(self):
        with pytest.raises(DegenerateConditionalError, match="^label class 2 has no samples$"):
            eo_violation([1, 2, 1, 2], [1, 2, 1, 2], [1, 1, 1, 1])

    def test_an_empty_cell_is_named_as_group_counts_names_it(self):
        # class 1's "y != 1" side is label class 2, which lacks group 2
        with pytest.raises(DegenerateConditionalError) as info:
            eo_violation([1, 2, 1], [1, 2, 1], [1, 1, 2], k=2, l=2)
        ds = TabularDataset(np.zeros((3, 1)), [1, 1, 2], [1, 2, 1], l=2, k=2)
        with pytest.raises(DegenerateConditionalError) as counted:
            group_counts(ds, by_label=True)
        message = "within label class 2: sensitive group(s) [2] have no samples"
        assert str(info.value) == str(counted.value) == message

    def test_one_label_class_has_no_other_side(self):
        # l is inferred as 1, so no class has a "y != j" side
        message = "^equalized odds needs two label classes or more, got 1$"
        with pytest.raises(DegenerateConditionalError, match=message):
            eo_violation([1, 1], [1, 2], [1, 1])


@pytest.mark.parametrize(
    "metric, args, message",
    [
        (ermi_hard, ([1, 2, 1, 2], [3, 1, 2, 1], None, 2, 2), r"^s out of range 1\.\.2$"),
        (
            ermi_hard,
            ([1, 2, 1, 2, 1, 2], [1, 2, 1, 2, 1, 2], [1, 1, 2, 2, 3, 3], None, 2),
            r"^y out of range 1\.\.2$",
        ),
        (dp_violation, ([1, 2, 1, 2], [1, 2, 3, 1], 2), r"^s out of range 1\.\.2$"),
        (eo_violation, ([1, 2, 0, 1], [1, 2, 1, 2], [1, 1, 2, 2]), r"^preds out of range 1\.\.2$"),
    ],
    ids=["ermi_hard", "ermi_hard_given_y", "dp_violation", "eo_violation"],
)
def test_hard_metrics_reject_out_of_range_codes(metric, args, message):
    with pytest.raises(ValueError, match=message):
        metric(*args)


def full_cell_dataset(rng, l, k, per_cell=4, d_x=3):
    """Every (label, group) cell holds per_cell samples, in shuffled order."""
    codes = np.repeat(np.arange(l * k), per_cell)
    rng.shuffle(codes)
    return TabularDataset(
        rng.normal(size=(codes.size, d_x)), codes // k + 1, codes % k + 1, l=l, k=k
    )


def label_slice(ds, y):
    mask = ds.labels == y
    return TabularDataset(ds.features[mask], ds.labels[mask], ds.sensitive[mask], ds.l, ds.k)


class TestStrata:
    def test_demographic_parity_is_one_stratum(self):
        rng = np.random.default_rng(28)
        ds = random_dataset(rng, n=15, k=3)
        cells, inv_sqrt = strata(ds, DEMOGRAPHIC_PARITY)
        assert np.array_equal(cells, ds.sensitive - 1)
        assert np.array_equal(inv_sqrt, group_stats(ds.sensitive, ds.k)[1][None, :])

    @pytest.mark.parametrize("seed", range(5))
    def test_demographic_parity_matches_bincount_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 40, 3
        s = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
        ds = TabularDataset(rng.normal(size=(n, 2)), rng.integers(1, 3, size=n), s, l=2, k=k)
        assert np.array_equal(strata(ds)[1], group_stats(ds.sensitive, k)[1][None, :])

    @pytest.mark.parametrize(
        "s, expected",
        # 0.5 ** -0.5 for two equal groups; 0.75 ** -0.5 and 0.25 ** -0.5
        [((1, 1, 2, 2), [1.41421356, 1.41421356]), ((1, 1, 1, 2), [1.15470054, 2.0])],
        ids=["balanced", "skewed"],
    )
    def test_hand_evaluated_roots(self, s, expected):
        ds = TabularDataset(np.zeros((4, 2)), [1, 2, 1, 2], s, l=2, k=2)
        assert np.allclose(strata(ds)[1], [expected])

    def test_equalized_odds_has_one_stratum_per_label(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, n=30, l=3, k=2)
        cells, inv_sqrt = strata(ds, EQUALIZED_ODDS)
        assert np.array_equal(cells, (ds.labels - 1) * 2 + ds.sensitive - 1)
        expected = np.stack(
            [group_stats(ds.sensitive[ds.labels == y], 2)[1] for y in (1, 2, 3)]
        )
        assert np.array_equal(inv_sqrt, expected)

    def test_absent_group_raises(self):
        ds = TabularDataset(np.zeros((4, 2)), [1, 2, 1, 2], [1, 1, 1, 1], l=2, k=2)
        with pytest.raises(DegenerateGroupError, match=r"sensitive group\(s\) \[2\] have no samples"):
            strata(ds, DEMOGRAPHIC_PARITY)

    def test_unknown_notion_rejected(self):
        ds = TabularDataset(np.zeros((4, 2)), [1, 2, 1, 2], [1, 1, 2, 2], l=2, k=2)
        with pytest.raises(ValueError):
            strata(ds, "parity_of_some_kind")


class TestEoPsiGrads:
    """Equalized-odds saddle terms on the (l, k, l) layout: block y - 1 with
    the group statistics of label class y, against the per-sample references."""

    def eo_setup(self, rng, n=16):
        ds = random_dataset(rng, n=n)
        cells, inv_sqrt = strata(ds, EQUALIZED_ODDS)
        return ds, cells, inv_sqrt

    def test_zero_duals_give_zero_theta_grad(self):
        rng = np.random.default_rng(23)
        ds, cells, inv_sqrt = self.eo_setup(rng)
        theta = random_params(rng, 2, 3)
        proba = forward(theta.weights, theta.bias, ds.features)
        d_psi, _, value = saddle_terms(proba, np.zeros((2, 2, 2)), inv_sqrt, cells)
        assert np.allclose(d_psi, 0.0, atol=1e-15)
        assert value == -1.0

    def test_construction_requires_two_labels(self):
        with pytest.raises(ValueError):
            TabularDataset(np.zeros((3, 1)), [1, 1, 1], [1, 2, 1], l=1, k=2)

    def test_empty_conditional_cell_aborts_stack(self):
        # label 2 only ever occurs in group 1
        ds = TabularDataset(
            np.zeros((6, 2)), [1, 1, 1, 1, 2, 2], [1, 2, 1, 2, 1, 1], l=2, k=2
        )
        with pytest.raises(
            DegenerateConditionalError,
            match=r"^within label class 2: sensitive group\(s\) \[2\] have no samples$",
        ):
            strata(ds, EQUALIZED_ODDS)

    def test_absent_label_class_aborts_stack(self):
        ds = TabularDataset(
            np.zeros((4, 2)), [1, 1, 1, 1], [1, 2, 1, 2], l=2, k=2
        )
        with pytest.raises(DegenerateConditionalError, match=r"^label class 2 has no samples$"):
            strata(ds, EQUALIZED_ODDS)

    def test_matches_finite_differences(self):
        # a one-sample batch touches only its own label's block
        rng = np.random.default_rng(24)
        ds, cells, inv_sqrt = self.eo_setup(rng)
        w = rng.normal(size=(2, 2, 2))
        theta = random_params(rng, 2, 3)
        x, s, y = ds.features[0], int(ds.sensitive[0]), int(ds.labels[0])
        inv_sqrt_y = inv_sqrt[y - 1]

        def eo_value(v):
            p = ModelParams.from_vector(v, 2, 3)
            return psi(p, w[y - 1], x, s, inv_sqrt_y)

        proba = forward(theta.weights, theta.bias, x[None])
        d_psi, g_w, value = saddle_terms(proba, w, inv_sqrt, cells[:1])
        g_theta = mean_param_grad(d_psi, x[None])
        fd = central_diff_grad(eo_value, theta.as_vector())
        assert rel_error(g_theta, fd) <= 1e-5
        assert value == pytest.approx(eo_value(theta.as_vector()), abs=1e-12)
        assert np.allclose(g_w[y - 1], psi_grad_w(theta, w[y - 1], x, s, inv_sqrt_y), atol=1e-12)
        assert np.array_equal(g_w[2 - y], np.zeros((2, 2)))

    def test_batch_terms_respect_label_blocks(self):
        rng = np.random.default_rng(25)
        ds, cells, inv_sqrt = self.eo_setup(rng)
        w = rng.normal(size=(2, 2, 2))
        theta = random_params(rng, 2, 3)
        proba = forward(theta.weights, theta.bias, ds.features)
        d_psi, g_w, _ = saddle_terms(proba, w, inv_sqrt, cells)
        g_theta = mean_param_grad(d_psi, ds.features)
        # block y must equal the sum of that label's per-sample grads over m
        per_theta = []
        for label in (1, 2):
            members = np.flatnonzero(ds.labels == label)
            w_y, inv_sqrt_y = w[label - 1], inv_sqrt[label - 1]
            per = [
                psi_grad_w(theta, w_y, ds.features[i], int(ds.sensitive[i]), inv_sqrt_y)
                for i in members
            ]
            assert np.allclose(g_w[label - 1], np.sum(per, axis=0) / ds.n, atol=1e-12)
            per_theta += [
                psi_grad_theta(theta, w_y, ds.features[i], int(ds.sensitive[i]), inv_sqrt_y)
                for i in members
            ]
        assert np.allclose(g_theta, np.sum(per_theta, axis=0) / ds.n, atol=1e-12)

    def test_maximized_stack_recovers_conditional_soft_ermi(self):
        # block y of the closed form is the demographic-parity maximizer of
        # slice y, and the saddle value there is sum_y p(y) * ERMI_soft(slice y)
        rng = np.random.default_rng(26)
        ds, cells, inv_sqrt = self.eo_setup(rng, n=20)
        theta = random_params(rng, 2, 3)
        w_star = inner_max_closed_form(theta, ds, EQUALIZED_ODDS)
        expected = 0.0
        for label in (1, 2):
            sub = label_slice(ds, label)
            assert np.allclose(w_star[label - 1], inner_max_closed_form(theta, sub)[0], atol=1e-12)
            expected += (ds.labels == label).mean() * ermi_soft(theta, sub)
        proba = forward(theta.weights, theta.bias, ds.features)
        _, _, value = saddle_terms(proba, w_star, inv_sqrt, cells)
        assert value == pytest.approx(expected, abs=1e-9)


class TestFermiConfig:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            FermiConfig(-0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            FermiConfig(lam)

    def test_unknown_notion_rejected(self):
        with pytest.raises(ValueError):
            FermiConfig(1.0, "parity_of_some_kind")
