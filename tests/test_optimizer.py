import re

import numpy as np
import pytest
from scipy.optimize import minimize

from fairdp import classifier, fairness, optimizer
from fairdp.classifier import (
    ModelParams,
    forward,
    loss_dlogits,
    mean_param_grad,
    predict_label,
)
from fairdp.dataset import TabularDataset, minibatch, sensitive_stats
from fairdp.exceptions import DivergenceError
from fairdp.fairness import (
    DEMOGRAPHIC_PARITY,
    EQUALIZED_ODDS,
    FermiConfig,
    ermi_soft,
)
from fairdp.harness import SyntheticSpec, synth_dataset
from fairdp.optimizer import SgdaConfig, dp_fermi_train, stationarity_gap
from fairdp.privacy import NoiseScales
from helpers import (
    central_diff_grad,
    group_stats,
    loss_grad,
    mean_loss,
    psi_grad_theta,
    psi_grad_w,
    reference_train,
    rel_error,
)


def batch_loss_grad(params, x, labels):
    """Batch-mean loss gradient through the training kernels."""
    proba = forward(params.weights, params.bias, x)
    return mean_param_grad(loss_dlogits(proba, labels), x)


def small_config(**kw):
    base = dict(eta_theta=0.1, eta_w=0.1, T=50, m=1, box_radius=5.0, seed=0)
    base.update(kw)
    return SgdaConfig(**base)


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
            theta = theta - 0.05 * batch_loss_grad(params, ds.features[batch], ds.labels[batch])
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
        w = np.zeros((1, ds.k, ds.l))
        for _ in range(25):
            batch = minibatch(ds.n, 20, rng)
            params = ModelParams.from_vector(theta, ds.l, ds.d_x)
            g_loss = batch_loss_grad(params, ds.features[batch], ds.labels[batch])
            u = rng.normal(0.0, np.sqrt(sigma_theta_sq), size=theta.size)
            v = rng.normal(0.0, np.sqrt(sigma_w_sq), size=w.size).reshape(w.shape)
            theta = theta - 0.05 * (g_loss + 0.0 * u)
            w = np.clip(w + 0.1 * (0.0 + v), -0.5, 0.5)
        assert np.array_equal(result.params.as_vector(), theta)
        assert np.array_equal(result.dual, w)

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
            g_loss = batch_loss_grad(params, ds.features[batch], ds.labels[batch])
            u = rng.normal(0.0, np.sqrt(sigma_theta_sq), size=theta.size)
            v = rng.normal(0.0, np.sqrt(sigma_w_sq), size=w.size).reshape(w.shape)
            theta = theta - 0.05 * (g_loss + 0.0 * u)
            w = np.clip(w + 0.1 * (0.0 + v), -0.5, 0.5)
        assert np.array_equal(result.params.as_vector(), theta)
        assert np.array_equal(result.dual, w)

    def test_lambda_zero_with_noise_dual_stays_boxed(self):
        # a run of T steps returns step T's dual, so the runs with T = 1..80
        # check the box after every step of the 80-step run
        ds = separable(n=120, seed=2)
        for T in range(1, 81):
            config = SgdaConfig(eta_theta=0.05, eta_w=0.5, T=T, m=30, box_radius=0.2, seed=9)
            result = dp_fermi_train(
                ds, ModelParams.zeros(ds.l, ds.d_x), FermiConfig(0.0), config, NoiseScales(0.5, 0.5)
            )
            assert np.abs(result.dual).max() <= 0.2 + 1e-12, T

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
        assert np.array_equal(a.dual, b.dual)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_reports_iteration(self):
        # the dual stays in its finite box, so the theta step has to overflow
        ds = separable(n=60, seed=5)
        config = SgdaConfig(eta_theta=1e308, eta_w=0.1, T=20, m=10, box_radius=1.0, seed=0)
        with pytest.raises(DivergenceError, match="non-finite iterates") as err:
            dp_fermi_train(
                ds, ModelParams.zeros(2, 5), FermiConfig(1.0), config, NoiseScales(100.0, 0.0)
            )
        assert err.value.iteration == 1

    def test_batch_size_exceeding_n(self):
        ds = separable(n=30, seed=6)
        config = SgdaConfig(eta_theta=0.1, eta_w=0.1, T=5, m=31, box_radius=1.0)
        with pytest.raises(ValueError, match="exceeds n=30"):
            dp_fermi_train(
                ds, ModelParams.zeros(2, 5), FermiConfig(1.0), config, NoiseScales.none()
            )

    def test_mismatched_model_dimensions_rejected(self):
        ds = separable(n=30, seed=6)
        config = SgdaConfig(eta_theta=0.1, eta_w=0.1, T=5, m=10, box_radius=1.0)
        for theta0 in (ModelParams.zeros(2, 4), ModelParams.zeros(3, 5)):
            with pytest.raises(ValueError, match="model dimensions"):
                dp_fermi_train(ds, theta0, FermiConfig(1.0), config, NoiseScales.none())

    def test_initial_params_not_mutated(self):
        # the loop updates the weights and bias views of one vector in place
        ds = separable(n=60, seed=7)
        rng = np.random.default_rng(12)
        theta0 = ModelParams(rng.normal(size=(2, 5)), rng.normal(size=2))
        before = theta0.as_vector()
        config = SgdaConfig(eta_theta=0.1, eta_w=0.1, T=10, m=20, box_radius=1.0)
        result = dp_fermi_train(ds, theta0, FermiConfig(1.0), config, NoiseScales(0.01, 0.01))
        assert np.array_equal(theta0.as_vector(), before)
        assert not np.array_equal(result.params.as_vector(), before)

    @pytest.mark.parametrize("notion", [DEMOGRAPHIC_PARITY, EQUALIZED_ODDS])
    def test_noise_free_saddle_converges(self, notion):
        # noise-free descent-ascent approaches a stationary point of the
        # envelope max_W F(theta, W), whose gradient stationarity_gap measures
        ds = synth_dataset(SyntheticSpec(n=120, d_x=3, bias=0.6, seed=2))
        fermi = FermiConfig(1.0, notion)
        theta0 = ModelParams.zeros(ds.l, ds.d_x)
        config = SgdaConfig(eta_theta=0.05, eta_w=0.5, T=500, m=ds.n, box_radius=5.0)
        result = dp_fermi_train(ds, theta0, fermi, config, NoiseScales.none())
        gap0 = stationarity_gap(theta0, ds, fermi)
        assert stationarity_gap(result.params, ds, fermi) <= 0.05 * gap0

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
        assert result.dual.shape == (2, 2, 2)
        assert np.abs(result.dual).max() <= 1.0 + 1e-12


def random_instance(rng, l, k, d_x=3, n=40):
    """Random dataset in which every (label, group) cell is occupied."""
    cells = np.concatenate([np.arange(l * k), rng.integers(0, l * k, n - l * k)])
    labels = cells // k + 1
    groups = cells % k + 1
    return TabularDataset(rng.normal(size=(n, d_x)), labels, groups, l, k)


class TestKernelsWithOut:
    """The step's kernels write into the buffers they are given: each returns
    its buffer, holding bit for bit what the allocating call returns."""

    @pytest.mark.parametrize("notion", [DEMOGRAPHIC_PARITY, EQUALIZED_ODDS])
    @pytest.mark.parametrize("clip", [None, 0.3])
    def test_match_the_allocating_calls(self, notion, clip):
        rng = np.random.default_rng(31)
        ds = synth_dataset(SyntheticSpec(n=200, d_x=4, k=3, l=3, bias=0.6, seed=8))
        batch = minibatch(ds.n, 64, rng)
        x, labels = ds.features[batch], ds.labels[batch]
        weights, bias = rng.normal(size=(ds.l, ds.d_x)), rng.normal(size=ds.l)
        scale = None if clip is None else classifier.gradient_scale(x)
        cells, inv_sqrt = fairness.strata(ds, notion)
        cells = cells[batch]
        w = rng.uniform(-1.0, 1.0, size=(*inv_sqrt.shape, ds.l))

        def check(expected, call):
            out = np.full_like(expected, np.nan)  # every entry must be written
            assert call(out) is out
            assert out.tobytes() == expected.tobytes()

        proba = classifier.forward(weights, bias, x)
        check(proba, lambda out: classifier.forward(weights, bias, x, out=out))
        d_loss = classifier.loss_dlogits(proba, labels, clip, scale)
        check(d_loss, lambda out: classifier.loss_dlogits(proba, labels, clip, scale, out=out))
        d_psi, g_w, value = fairness.saddle_terms(proba, w, inv_sqrt, cells)
        for kw in ({}, {"value": False}):
            out = np.full_like(d_psi, np.nan)
            got = fairness.saddle_terms(proba, w, inv_sqrt, cells, out=out, **kw)
            assert got[0] is out
            assert out.tobytes() == d_psi.tobytes()
            assert got[1].tobytes() == g_w.tobytes()
            assert got[2] == value if kw.get("value", True) else got[2] is None
        d_theta = d_loss + d_psi
        check(
            classifier.mean_param_grad(d_theta, x),
            lambda out: classifier.mean_param_grad(d_theta, x, out=out),
        )


class TestRunIsolation:
    def test_runs_share_no_state(self):
        # each call builds its own workspace: DP on narrow arrays, EO on wide
        # ones, then DP twice more each match a run of their own bit for bit,
        # and none writes into the dataset or the initial parameters
        narrow = synth_dataset(SyntheticSpec(n=500, d_x=5, k=2, l=2, bias=0.9, seed=2))
        wide = synth_dataset(SyntheticSpec(n=800, d_x=40, k=4, l=5, bias=0.5, seed=3))
        rng = np.random.default_rng(5)
        cases = {}
        for name, ds, notion, m in (
            ("dp", narrow, DEMOGRAPHIC_PARITY, 128),
            ("eo", wide, EQUALIZED_ODDS, 256),
        ):
            theta0 = ModelParams(
                rng.normal(scale=0.1, size=(ds.l, ds.d_x)), rng.normal(scale=0.1, size=ds.l)
            )
            config = SgdaConfig(
                eta_theta=0.05, eta_w=0.05, T=30, m=m, box_radius=1.0, clip_theta=1.0,
                seed=len(cases),
            )
            cases[name] = (ds, theta0, FermiConfig(2.0, notion), config)
        inputs = {
            name: [ds.features.copy(), ds.labels.copy(), ds.sensitive.copy(), theta0.as_vector()]
            for name, (ds, theta0, _, _) in cases.items()
        }

        def run(name):
            result = dp_fermi_train(*cases[name], NoiseScales(0.01, 0.02))
            return result.params.as_vector().tobytes(), result.dual.tobytes()

        solo = {name: run(name) for name in cases}
        for name in ("dp", "eo", "dp", "dp"):
            assert run(name) == solo[name]
        for name, (ds, theta0, _, _) in cases.items():
            now = [ds.features, ds.labels, ds.sensitive, theta0.as_vector()]
            for before, after in zip(inputs[name], now):
                assert before.tobytes() == after.tobytes()


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
            return result.params.as_vector(), result.dual

        theta1, w1 = run(1)
        theta2, w2 = run(2)
        step_theta = theta1 - theta2
        step_w = (w2 - w1) / lam

        stream = np.random.default_rng(seed)
        minibatch(ds.n, m, stream)
        batch = minibatch(ds.n, m, stream)
        params = ModelParams.from_vector(theta1, l, 3)
        if notion == EQUALIZED_ODDS:
            stats = [group_stats(ds.sensitive[ds.labels == y], k) for y in range(1, l + 1)]
        else:
            stats = [sensitive_stats(ds)]
        oracle_theta = np.zeros_like(theta1)
        oracle_w = np.zeros_like(w1)
        for i in batch:
            x, s, y = ds.features[i], int(ds.sensitive[i]), int(ds.labels[i])
            g_loss = loss_grad(params, x, y)
            if clip is not None:
                g_loss = g_loss * min(1.0, clip / np.linalg.norm(g_loss))
            c = y - 1 if notion == EQUALIZED_ODDS else 0
            g_psi = psi_grad_theta(params, w1[c], x, s, stats[c])
            oracle_w[c] += psi_grad_w(params, w1[c], x, s, stats[c]) / m
            oracle_theta += (g_loss + lam * g_psi) / m
        assert rel_error(step_theta, oracle_theta) <= 1e-12
        assert rel_error(step_w, oracle_w) <= 1e-12

    @pytest.mark.parametrize("notion", [DEMOGRAPHIC_PARITY, EQUALIZED_ODDS])
    def test_one_forward_pass_per_iteration(self, notion, monkeypatch):
        calls = []
        original = classifier.forward

        def counting_forward(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

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

    @pytest.mark.parametrize("notion", [DEMOGRAPHIC_PARITY, EQUALIZED_ODDS])
    @pytest.mark.parametrize("lam, expected", [(0.0, 0), (1.0, 7)])
    def test_saddle_terms_only_when_lambda_positive(self, notion, lam, expected, monkeypatch):
        calls = []
        original = optimizer.saddle_terms

        def counting_saddle_terms(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "saddle_terms", counting_saddle_terms)
        ds = separable(n=100, seed=13, bias=0.5)
        config = SgdaConfig(
            eta_theta=0.02, eta_w=0.02, T=7, m=25, box_radius=1.0, clip_theta=1.0, seed=3
        )
        dp_fermi_train(
            ds, ModelParams.zeros(2, 5), FermiConfig(lam, notion), config, NoiseScales(0.01, 0.01)
        )
        assert len(calls) == expected


class TestAgainstReferenceLoop:
    """dp_fermi_train against reference_train, which computes and scales the
    saddle terms at every step: params and dual must agree bit for bit,
    including at lam = 0, where dp_fermi_train skips them."""

    @staticmethod
    def assert_same(ds, fermi, config, noise):
        fused, ref = (
            train(ds, ModelParams.zeros(ds.l, ds.d_x), fermi, config, noise)
            for train in (dp_fermi_train, reference_train)
        )
        assert fused.params.as_vector().tobytes() == ref.params.as_vector().tobytes()
        assert fused.dual.tobytes() == ref.dual.tobytes()

    @pytest.mark.parametrize("notion", [DEMOGRAPHIC_PARITY, EQUALIZED_ODDS])
    @pytest.mark.parametrize("lam", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("clip", [None, 1.0])
    def test_matches_reference(self, notion, lam, clip):
        ds = synth_dataset(SyntheticSpec(n=150, d_x=4, k=3, l=3, bias=0.6, seed=21))
        config = SgdaConfig(
            eta_theta=0.1, eta_w=0.5, T=40, m=32, box_radius=0.5, clip_theta=clip, seed=5
        )
        noise = NoiseScales(0.02, 0.05)
        self.assert_same(ds, FermiConfig(lam, notion), config, noise)


class TestStationarityGap:
    def test_lambda_zero_is_loss_grad_norm(self):
        ds = separable(n=80, seed=8)
        rng = np.random.default_rng(0)
        theta = ModelParams(rng.normal(size=(2, 5)), rng.normal(size=2))
        expected = np.linalg.norm(batch_loss_grad(theta, ds.features, ds.labels))
        assert stationarity_gap(theta, ds, FermiConfig(0.0)) == pytest.approx(expected)

    def test_small_at_numeric_minimizer(self):
        ds = synth_dataset(SyntheticSpec(n=40, d_x=2, bias=0.7, noise_scale=1.0, seed=9))
        lam = 0.1

        def objective(vec):
            params = ModelParams.from_vector(vec, 2, 2)
            return mean_loss(params, ds.features, ds.labels) + lam * ermi_soft(ds=ds, theta=params)

        result = minimize(objective, np.zeros(6), method="BFGS", options={"gtol": 1e-8, "maxiter": 2000})
        gap = stationarity_gap(ModelParams.from_vector(result.x, 2, 2), ds, FermiConfig(lam))
        assert gap <= 1e-4

    def test_matches_envelope_finite_differences(self):
        ds = synth_dataset(SyntheticSpec(n=30, d_x=2, bias=0.5, noise_scale=1.0, seed=10))
        lam = 0.3
        rng = np.random.default_rng(1)
        theta = ModelParams(rng.normal(scale=0.5, size=(2, 2)), rng.normal(scale=0.5, size=2))

        def objective(vec):
            params = ModelParams.from_vector(vec, 2, 2)
            return mean_loss(params, ds.features, ds.labels) + lam * ermi_soft(params, ds)

        fd = central_diff_grad(objective, theta.as_vector())
        gap = stationarity_gap(theta, ds, FermiConfig(lam))
        assert abs(gap - np.linalg.norm(fd)) / np.linalg.norm(fd) <= 1e-4

    @pytest.mark.parametrize("trial", range(3))
    def test_equalized_odds_matches_conditional_envelope_finite_differences(self, trial):
        # the envelope is mean loss + lam * sum_y p(y) * soft ERMI of slice y
        rng = np.random.default_rng(30 + trial)
        l, k = (int(v) for v in rng.integers(2, 4, size=2))
        ds = random_instance(rng, l, k)
        lam = 0.8
        theta = ModelParams(rng.normal(scale=0.5, size=(l, 3)), rng.normal(scale=0.5, size=l))
        slices = []
        for y in range(1, l + 1):
            mask = ds.labels == y
            sub = TabularDataset(ds.features[mask], ds.labels[mask], ds.sensitive[mask], l, k)
            slices.append((mask.mean(), sub))

        def objective(vec):
            params = ModelParams.from_vector(vec, l, 3)
            penalty = sum(p_y * ermi_soft(params, sub) for p_y, sub in slices)
            return mean_loss(params, ds.features, ds.labels) + lam * penalty

        fd = central_diff_grad(objective, theta.as_vector())
        gap = stationarity_gap(theta, ds, FermiConfig(lam, EQUALIZED_ODDS))
        assert abs(gap - np.linalg.norm(fd)) / np.linalg.norm(fd) <= 1e-8


class TestSgdaConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_config(eta_theta=0.0)
        with pytest.raises(ValueError):
            small_config(T=0)
        with pytest.raises(ValueError):
            small_config(box_radius=-1.0)
        with pytest.raises(ValueError):
            small_config(clip_theta=0.0)

    @pytest.mark.parametrize("field", ["eta_theta", "eta_w", "box_radius", "clip_theta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, field, value):
        # NaN fails every comparison, so a bare "<= 0" check would let it through
        with pytest.raises(ValueError, match="finite"):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, name",
        [("eta_theta", "eta_theta"), ("eta_w", "eta_w"), ("box_radius", "box radius D"),
         ("clip_theta", "clip_theta")],
    )
    @pytest.mark.parametrize("value", [np.nan, -1.0, 0.0])
    def test_names_the_parameter_and_its_value(self, field, name, value):
        # the box radius line is the one privacy.sensitivities prints
        message = f"{name} must be positive and finite, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", (5, -1), (5, 0.5), None])
    def test_rejects_negative_and_non_integer_seeds(self, seed):
        part = seed[1] if isinstance(seed, tuple) else seed
        message = f"seed must be a non-negative integer, got {part!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(seed=seed)
