import json

import numpy as np
import pytest
from scipy.optimize import minimize

from fairdp import classifier, fairness, optimizer
from fairdp.classifier import (
    ModelParams,
    loss_grad,
    mean_loss,
    mean_loss_grad,
    predict_label,
)
from fairdp.dataset import TabularDataset, minibatch, sensitive_stats
from fairdp.exceptions import DivergenceError
from fairdp.fairness import (
    DEMOGRAPHIC_PARITY,
    EQUALIZED_ODDS,
    DualStack,
    FermiConfig,
    eo_psi_grads,
    ermi_soft,
    psi_grad_theta,
    psi_grad_w,
)
from fairdp.harness import SyntheticSpec, synth_dataset
from fairdp.optimizer import (
    MinMaxProblem,
    SgdaConfig,
    SmoothnessProfile,
    dp_fermi_train,
    dp_sgda,
    estimate_smoothness_profile,
    project_box,
    recommended_hyperparams,
    stationarity_gap,
)
from fairdp.privacy import NoiseScales, PrivacyBudget, min_iterations
from helpers import central_diff_grad, rel_error


def toy_saddle(n=1):
    """f(theta, w) = theta * w - w^2 / 2, so max_w gives Phi = theta^2 / 2."""
    return MinMaxProblem(
        n=n,
        d_theta=1,
        d_w=1,
        grad_theta=lambda theta, w, batch: w.copy(),
        grad_w=lambda theta, w, batch: theta - w,
        project=lambda w: w,
    )


def small_config(**kw):
    base = dict(eta_theta=0.1, eta_w=0.1, T=50, m=1, box_radius=5.0, seed=0)
    base.update(kw)
    return SgdaConfig(**base)


class TestProjectBox:
    def test_inside_unchanged(self):
        w = np.array([[0.5, -1.9], [1.0, 0.0]])
        assert np.array_equal(project_box(w, 2.0), w)

    def test_clamps(self):
        assert project_box(np.array([[3.5]]), 2.0)[0, 0] == 2.0
        assert project_box(np.array([[-3.5]]), 2.0)[0, 0] == -2.0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(scale=3.0, size=(3, 4))
            once = project_box(w, 1.5)
            assert np.array_equal(project_box(once, 1.5), once)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            project_box(np.zeros((2, 2)), 0.0)


class TestDpSgda:
    def test_zero_gradients_zero_noise_fixed_point(self):
        problem = MinMaxProblem(
            n=4,
            d_theta=3,
            d_w=2,
            grad_theta=lambda t, w, b: np.zeros(3),
            grad_w=lambda t, w, b: np.zeros(2),
            project=lambda w: w,
        )
        theta0 = np.array([1.0, -2.0, 3.0])
        w0 = np.array([0.5, 0.5])
        result = dp_sgda(problem, small_config(T=25, m=2), NoiseScales.none(), theta0=theta0, w0=w0)
        assert np.array_equal(result.params, theta0)
        assert np.array_equal(result.dual, w0)

    def test_toy_saddle_converges(self):
        result = dp_sgda(
            toy_saddle(),
            small_config(T=500),
            NoiseScales.none(),
            theta0=np.array([1.0]),
            w0=np.array([0.0]),
        )
        assert abs(result.params[0]) <= 1e-3

    def test_noisy_runs_are_seed_deterministic(self):
        noise = NoiseScales(0.01, 0.01)
        runs = [
            dp_sgda(toy_saddle(), small_config(T=40, seed=5), noise, theta0=np.array([1.0]))
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].params, runs[1].params)
        assert np.array_equal(runs[0].dual, runs[1].dual)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_reports_iteration(self):
        problem = MinMaxProblem(
            n=1,
            d_theta=1,
            d_w=1,
            grad_theta=lambda t, w, b: -1e9 * t,
            grad_w=lambda t, w, b: np.zeros(1),
            project=lambda w: w,
        )
        with pytest.raises(DivergenceError) as err:
            dp_sgda(problem, small_config(T=2000), NoiseScales.none(), theta0=np.array([1.0]))
        assert err.value.iteration >= 1

    def test_uniform_random_iterate_rule(self):
        config = small_config(T=30, iterate_rule="uniform_random", seed=11)
        result = dp_sgda(toy_saddle(), config, NoiseScales.none(), theta0=np.array([1.0]))
        assert 1 <= result.chosen_iterate <= 30

    def test_batch_size_exceeding_n(self):
        with pytest.raises(ValueError):
            dp_sgda(toy_saddle(n=2), small_config(m=3), NoiseScales.none())


def separable(n=400, seed=0, bias=0.0):
    return synth_dataset(SyntheticSpec(n=n, d_x=5, bias=bias, noise_scale=0.5, seed=seed))


class TestDpFermiTrain:
    def test_lambda_zero_no_noise_equals_plain_sgd(self):
        ds = separable(n=120, seed=1)
        config = SgdaConfig(eta_theta=0.05, eta_w=0.05, T=60, m=30, box_radius=1.0, seed=4)
        result = dp_fermi_train(
            ds, ModelParams.zeros(ds.l, ds.d_x), FermiConfig(0.0), config, NoiseScales.none()
        )
        # reference loop consuming the identical stream
        rng = np.random.default_rng(4)
        theta = np.zeros(ds.l * ds.d_x + ds.l)
        for _ in range(60):
            batch = minibatch(ds.n, 30, rng)
            params = ModelParams.from_vector(theta, ds.l, ds.d_x)
            theta = theta - 0.05 * mean_loss_grad(params, ds.features[batch], ds.labels[batch])
        assert np.array_equal(result.params.as_vector(), theta)

    def test_lambda_zero_with_noise_matches_reference_loop(self):
        # lambda = 0 leaves theta noiseless (the noise sits inside the lambda
        # bracket), but the stream still advances: batch, then u_t, then V_t
        ds = separable(n=90, seed=10)
        sigma_theta_sq, sigma_w_sq = 0.04, 0.09
        config = SgdaConfig(eta_theta=0.05, eta_w=0.1, T=25, m=20, box_radius=0.5, seed=13)
        result = dp_fermi_train(
            ds,
            ModelParams.zeros(ds.l, ds.d_x),
            FermiConfig(0.0),
            config,
            NoiseScales(sigma_theta_sq, sigma_w_sq),
        )
        rng = np.random.default_rng(13)
        theta = np.zeros(ds.l * ds.d_x + ds.l)
        w = np.zeros((ds.k, ds.l))
        for _ in range(25):
            batch = minibatch(ds.n, 20, rng)
            params = ModelParams.from_vector(theta, ds.l, ds.d_x)
            g_loss = mean_loss_grad(params, ds.features[batch], ds.labels[batch])
            u = rng.normal(0.0, np.sqrt(sigma_theta_sq), size=theta.size)
            v = rng.normal(0.0, np.sqrt(sigma_w_sq), size=w.size).reshape(w.shape)
            theta = theta - 0.05 * (g_loss + 0.0 * u)
            w = np.clip(w + 0.1 * (0.0 + v), -0.5, 0.5)
        assert np.array_equal(result.params.as_vector(), theta)
        assert np.array_equal(result.dual.w, w)

    def test_equalized_odds_lambda_zero_with_noise_matches_reference_loop(self):
        ds = separable(n=90, seed=12, bias=0.5)
        sigma_theta_sq, sigma_w_sq = 0.04, 0.09
        config = SgdaConfig(eta_theta=0.05, eta_w=0.1, T=25, m=20, box_radius=0.5, seed=17)
        result = dp_fermi_train(
            ds,
            ModelParams.zeros(ds.l, ds.d_x),
            FermiConfig(0.0, EQUALIZED_ODDS),
            config,
            NoiseScales(sigma_theta_sq, sigma_w_sq),
        )
        rng = np.random.default_rng(17)
        theta = np.zeros(ds.l * ds.d_x + ds.l)
        w = np.zeros((ds.l, ds.k, ds.l))
        for _ in range(25):
            batch = minibatch(ds.n, 20, rng)
            params = ModelParams.from_vector(theta, ds.l, ds.d_x)
            g_loss = mean_loss_grad(params, ds.features[batch], ds.labels[batch])
            u = rng.normal(0.0, np.sqrt(sigma_theta_sq), size=theta.size)
            v = rng.normal(0.0, np.sqrt(sigma_w_sq), size=w.size).reshape(w.shape)
            theta = theta - 0.05 * (g_loss + 0.0 * u)
            w = np.clip(w + 0.1 * (0.0 + v), -0.5, 0.5)
        assert np.array_equal(result.params.as_vector(), theta)
        assert isinstance(result.dual, DualStack)
        assert np.array_equal(np.stack([mat.w for mat in result.dual.mats]), w)

    def test_lambda_zero_with_noise_dual_stays_boxed(self):
        ds = separable(n=120, seed=2)
        config = SgdaConfig(eta_theta=0.05, eta_w=0.5, T=80, m=30, box_radius=0.2, seed=9)
        result = dp_fermi_train(
            ds,
            ModelParams.zeros(ds.l, ds.d_x),
            FermiConfig(0.0),
            config,
            NoiseScales(0.5, 0.5),
            trace_every=1,
        )
        assert np.abs(result.dual.w).max() <= 0.2 + 1e-12
        assert all(rec["w_max_abs"] <= 0.2 + 1e-12 for rec in result.trace)

    def test_learns_separable_data(self):
        ds = separable(n=600, seed=3)
        config = SgdaConfig(eta_theta=0.01, eta_w=0.01, T=300, m=128, box_radius=1.0, seed=0)
        result = dp_fermi_train(
            ds, ModelParams.zeros(ds.l, ds.d_x), FermiConfig(0.0), config, NoiseScales.none()
        )
        preds = predict_label(result.params, ds.features)
        assert (preds == ds.labels).mean() >= 0.95

    def test_deterministic_given_seed(self):
        ds = separable(n=100, seed=4, bias=0.6)
        config = SgdaConfig(eta_theta=0.02, eta_w=0.02, T=40, m=25, box_radius=1.0, seed=3)
        noise = NoiseScales(0.01, 0.01)
        a = dp_fermi_train(ds, ModelParams.zeros(2, 5), FermiConfig(1.0), config, noise)
        b = dp_fermi_train(ds, ModelParams.zeros(2, 5), FermiConfig(1.0), config, noise)
        assert np.array_equal(a.params.as_vector(), b.params.as_vector())
        assert np.array_equal(a.dual.w, b.dual.w)

    def test_equalized_odds_variant_runs(self):
        ds = separable(n=200, seed=5, bias=0.6)
        config = SgdaConfig(eta_theta=0.02, eta_w=0.02, T=60, m=50, box_radius=1.0, seed=1)
        result = dp_fermi_train(
            ds,
            ModelParams.zeros(2, 5),
            FermiConfig(1.0, EQUALIZED_ODDS),
            config,
            NoiseScales(0.001, 0.001),
        )
        assert isinstance(result.dual, DualStack)
        for mat in result.dual.mats:
            assert np.abs(mat.w).max() <= 1.0 + 1e-12

    def test_noise_placement_flag_changes_trajectory(self):
        ds = separable(n=100, seed=6, bias=0.4)
        config = SgdaConfig(eta_theta=0.02, eta_w=0.02, T=30, m=25, box_radius=1.0, seed=8)
        noise = NoiseScales(0.05, 0.0)
        lam_half = FermiConfig(0.5)
        inside = dp_fermi_train(ds, ModelParams.zeros(2, 5), lam_half, config, noise)
        outside = dp_fermi_train(
            ds, ModelParams.zeros(2, 5), lam_half, config, noise, noise_in_lambda_bracket=False
        )
        assert not np.array_equal(inside.params.as_vector(), outside.params.as_vector())

    def test_trace_stream(self, tmp_path):
        ds = separable(n=100, seed=7)
        path = tmp_path / "trace.jsonl"
        config = SgdaConfig(eta_theta=0.02, eta_w=0.02, T=40, m=20, box_radius=1.0, seed=2)
        result = dp_fermi_train(
            ds,
            ModelParams.zeros(2, 5),
            FermiConfig(0.5),
            config,
            NoiseScales.none(),
            trace_every=10,
            trace_path=path,
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(result.trace) == 4
        record = json.loads(lines[0])
        assert {"iteration", "objective", "grad_theta_norm", "grad_w_norm"} <= set(record)
        assert [json.loads(ln)["iteration"] for ln in lines] == [10, 20, 30, 40]


def random_instance(rng, l, k, d_x=3, n=40):
    """Random dataset in which every (label, group) cell is occupied."""
    cells = np.concatenate([np.arange(l * k), rng.integers(0, l * k, n - l * k)])
    labels = cells // k + 1
    groups = cells % k + 1
    return TabularDataset(rng.normal(size=(n, d_x)), labels, groups, l, k)


class TestFusedStep:
    """The fused class-major step against the per-sample reference functions."""

    @pytest.mark.parametrize("notion", [DEMOGRAPHIC_PARITY, EQUALIZED_ODDS])
    @pytest.mark.parametrize("clip", [None, 0.3])
    @pytest.mark.parametrize("trial", range(4))
    def test_batch_gradients_match_per_sample_oracles(self, notion, clip, trial):
        # With unit step sizes, no noise and a box that never binds, the
        # second step's batch gradients are the differences of the iterates
        # of a T=1 and a T=2 run from the same seed.
        rng = np.random.default_rng(100 + trial)
        l, k = (int(v) for v in rng.integers(2, 5, size=2))
        ds = random_instance(rng, l, k)
        theta0 = ModelParams(rng.normal(scale=0.5, size=(l, 3)), rng.normal(scale=0.5, size=l))
        lam, m, seed = 0.7, 16, 200 + trial
        fermi = FermiConfig(lam, notion)

        def run(T):
            config = SgdaConfig(
                eta_theta=1.0, eta_w=1.0, T=T, m=m, box_radius=1e6, clip_theta=clip, seed=seed
            )
            result = dp_fermi_train(ds, theta0, fermi, config, NoiseScales.none())
            dual = result.dual
            w = dual.w[None] if notion == DEMOGRAPHIC_PARITY else np.stack([b.w for b in dual.mats])
            return result.params.as_vector(), w

        theta1, w1 = run(1)
        theta2, w2 = run(2)
        step_theta = theta1 - theta2
        step_w = (w2 - w1) / lam

        stream = np.random.default_rng(seed)
        minibatch(ds.n, m, stream)
        batch = minibatch(ds.n, m, stream)
        params = ModelParams.from_vector(theta1, l, 3)
        if notion == EQUALIZED_ODDS:
            stack = DualStack.initial(ds)
            stack = DualStack(
                tuple(fairness.DualMatrix(b) for b in w1), stack.stats, stack.label_probs
            )
        else:
            stats = sensitive_stats(ds)
        oracle_theta = np.zeros_like(theta1)
        oracle_w = np.zeros_like(w1)
        for i in batch:
            x, s, y = ds.features[i], int(ds.sensitive[i]), int(ds.labels[i])
            g_loss = loss_grad(params, x, y)
            if clip is not None:
                g_loss = g_loss * min(1.0, clip / np.linalg.norm(g_loss))
            if notion == EQUALIZED_ODDS:
                g_psi, g_w = eo_psi_grads(params, stack, x, s, y)
                oracle_w[y - 1] += g_w / m
            else:
                g_psi = psi_grad_theta(params, w1[0], x, s, stats)
                oracle_w[0] += psi_grad_w(params, w1[0], x, s, stats) / m
            oracle_theta += (g_loss + lam * g_psi) / m
        assert rel_error(step_theta, oracle_theta) <= 1e-12
        assert rel_error(step_w, oracle_w) <= 1e-12

    @pytest.mark.parametrize("notion", [DEMOGRAPHIC_PARITY, EQUALIZED_ODDS])
    def test_one_forward_pass_per_iteration(self, notion, monkeypatch):
        calls = []
        original = classifier.forward

        def counting_forward(*args):
            calls.append(1)
            return original(*args)

        for module in (classifier, fairness, optimizer):
            monkeypatch.setattr(module, "forward", counting_forward)
        ds = separable(n=100, seed=13, bias=0.5)
        config = SgdaConfig(
            eta_theta=0.02, eta_w=0.02, T=7, m=25, box_radius=1.0, clip_theta=1.0, seed=3
        )
        dp_fermi_train(
            ds, ModelParams.zeros(2, 5), FermiConfig(1.0, notion), config, NoiseScales(0.01, 0.01)
        )
        assert len(calls) == 7


class TestRecommendedHyperparams:
    BUDGET = PrivacyBudget(1.0, 1e-5)

    def profile(self, **kw):
        base = dict(
            L_theta=1.0, L_w=1.0, beta_theta=1.0, beta_w=2.0,
            beta_thetaw=1.0, mu=1.0, delta_Phi=1.0, d_theta=10, d_w=4,
        )
        base.update(kw)
        return SmoothnessProfile(**base)

    def test_reference_arithmetic(self):
        eta_theta, eta_w, _ = recommended_hyperparams(self.profile(), self.BUDGET, 1000, 1.0, 100)
        assert eta_w == pytest.approx(0.5)
        assert eta_theta == pytest.approx(1.0 / 64.0)

    def test_larger_mu_raises_eta_theta(self):
        small, _, _ = recommended_hyperparams(self.profile(mu=1.0), self.BUDGET, 1000, 1.0, 100)
        large, _, _ = recommended_hyperparams(self.profile(mu=2.0), self.BUDGET, 1000, 1.0, 100)
        assert large > small

    def test_floor_at_min_iterations(self):
        _, _, T = recommended_hyperparams(
            self.profile(delta_Phi=0.0), self.BUDGET, 1000, 0.0, 100
        )
        assert T == min_iterations(1000, 100, 1.0) == 25

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            self.profile(mu=-1.0)
        with pytest.raises(ValueError):
            self.profile(beta_w=0.5)  # kappa_w < 1


class TestStationarityGap:
    def test_lambda_zero_is_loss_grad_norm(self):
        ds = separable(n=80, seed=8)
        rng = np.random.default_rng(0)
        theta = ModelParams(rng.normal(size=(2, 5)), rng.normal(size=2))
        expected = np.linalg.norm(mean_loss_grad(theta, ds.features, ds.labels))
        assert stationarity_gap(theta, ds, 0.0) == pytest.approx(expected)

    def test_small_at_numeric_minimizer(self):
        ds = synth_dataset(SyntheticSpec(n=40, d_x=2, bias=0.7, noise_scale=1.0, seed=9))
        stats = sensitive_stats(ds)
        lam = 0.1

        def objective(vec):
            params = ModelParams.from_vector(vec, 2, 2)
            return mean_loss(params, ds.features, ds.labels) + lam * ermi_soft(ds=ds, theta=params, stats=stats)

        result = minimize(objective, np.zeros(6), method="BFGS", options={"gtol": 1e-8, "maxiter": 2000})
        gap = stationarity_gap(ModelParams.from_vector(result.x, 2, 2), ds, lam, stats)
        assert gap <= 1e-4

    def test_matches_envelope_finite_differences(self):
        ds = synth_dataset(SyntheticSpec(n=30, d_x=2, bias=0.5, noise_scale=1.0, seed=10))
        stats = sensitive_stats(ds)
        lam = 0.3
        rng = np.random.default_rng(1)
        theta = ModelParams(rng.normal(scale=0.5, size=(2, 2)), rng.normal(scale=0.5, size=2))

        def objective(vec):
            params = ModelParams.from_vector(vec, 2, 2)
            return mean_loss(params, ds.features, ds.labels) + lam * ermi_soft(params, ds, stats)

        fd = central_diff_grad(objective, theta.as_vector())
        gap = stationarity_gap(theta, ds, lam, stats)
        assert abs(gap - np.linalg.norm(fd)) / np.linalg.norm(fd) <= 1e-4


class TestSmoothnessProbe:
    def test_probe_returns_valid_profile(self):
        ds = separable(n=60, seed=11, bias=0.5)
        profile = estimate_smoothness_profile(ds, lam=1.0, D=1.0, trials=10, rng=np.random.default_rng(2))
        assert profile.kappa_w >= 1.0
        assert profile.d_theta == 2 * 5 + 2
        eta_theta, eta_w, T = recommended_hyperparams(profile, PrivacyBudget(1.0, 1e-5), 500, 1.0, 50)
        assert eta_theta > 0 and eta_w > 0 and T >= 1


class TestSgdaConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_config(eta_theta=0.0)
        with pytest.raises(ValueError):
            small_config(T=0)
        with pytest.raises(ValueError):
            small_config(box_radius=-1.0)
        with pytest.raises(ValueError):
            small_config(iterate_rule="best")
        with pytest.raises(ValueError):
            small_config(clip_theta=0.0)
