import math

import numpy as np
import pytest

from fairdp.classifier import ModelParams, proba_lipschitz_bound
from fairdp.dataset import sensitive_stats
from fairdp.exceptions import CalibrationError
from fairdp.harness import SyntheticSpec, synth_dataset
from fairdp.privacy import (
    NoiseScales,
    PrivacyBudget,
    calibrate_all_features,
    calibrate_sensitive_only,
    empirical_sensitivity_audit,
    gaussian_noise,
    min_iterations,
    sensitivity_bounds,
)
from helpers import dp_saddle_terms

BUDGET = PrivacyBudget(1.0, 1e-5)


class TestBudget:
    def test_valid(self):
        PrivacyBudget(9.0, 1e-5)  # 9 <= 2 ln(1e5) ~ 23.0

    def test_epsilon_above_cap(self):
        with pytest.raises(CalibrationError):
            PrivacyBudget(24.0, 1e-5)

    def test_bad_delta(self):
        with pytest.raises(CalibrationError):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(CalibrationError):
            PrivacyBudget(1.0, 1.0)

    def test_nonpositive_epsilon(self):
        with pytest.raises(CalibrationError):
            PrivacyBudget(0.0, 1e-5)


class TestSensitiveOnly:
    def test_reference_value(self):
        noise = calibrate_sensitive_only(BUDGET, T=400, n=2000, rho=0.4, L_theta=1.0, D=1.0)
        assert noise.sigma_w_sq == pytest.approx(0.0460517, rel=1e-6)

    def test_variances_coincide_when_LD_is_one(self):
        noise = calibrate_sensitive_only(BUDGET, T=400, n=2000, rho=0.4, L_theta=1.0, D=1.0)
        assert noise.sigma_theta_sq == pytest.approx(noise.sigma_w_sq, rel=1e-12)

    def test_doubling_n_quarters_variance(self):
        a = calibrate_sensitive_only(BUDGET, 400, 2000, 0.4, 1.0, 1.0)
        b = calibrate_sensitive_only(BUDGET, 400, 4000, 0.4, 1.0, 1.0)
        assert b.sigma_w_sq == pytest.approx(a.sigma_w_sq / 4)
        assert b.sigma_theta_sq == pytest.approx(a.sigma_theta_sq / 4)

    def test_bad_rho(self):
        with pytest.raises(CalibrationError):
            calibrate_sensitive_only(BUDGET, 400, 2000, 0.0, 1.0, 1.0)


class TestAllFeatures:
    def test_reference_value(self):
        noise = calibrate_all_features(BUDGET, T=400, n=2000, rho=0.4, L_theta=1.0, D=1.0, l=2)
        assert noise.sigma_w_sq == pytest.approx(0.0460517 * 2 * (2.5 + 1) / 2.5, rel=1e-5)

    def test_theta_variance_decomposition(self):
        sens = calibrate_sensitive_only(BUDGET, 400, 2000, 0.4, 1.0, 1.0)
        full = calibrate_all_features(BUDGET, 400, 2000, 0.4, 1.0, 1.0, l=2)
        extra = 32.0 * 4 * 400 * math.log(1e5) / (1.0 * 2000 ** 2)
        assert full.sigma_theta_sq == pytest.approx(4 * sens.sigma_theta_sq + extra, rel=1e-12)

    def test_dominates_sensitive_only(self):
        for rho in (0.1, 0.3, 0.5):
            for D in (0.5, 1.0, 3.0):
                sens = calibrate_sensitive_only(BUDGET, 300, 1500, rho, 2.0, D)
                full = calibrate_all_features(BUDGET, 300, 1500, rho, 2.0, D, l=3)
                assert full.sigma_w_sq >= sens.sigma_w_sq
                assert full.sigma_theta_sq >= sens.sigma_theta_sq


class TestMonotonicity:
    def test_variances_decrease_in_epsilon_n_rho_increase_in_T(self):
        def value(eps=1.0, n=2000, T=400, rho=0.4):
            budget = PrivacyBudget(eps, 1e-5)
            noise = calibrate_sensitive_only(budget, T, n, rho, 1.0, 1.0)
            return noise.sigma_theta_sq, noise.sigma_w_sq

        for axis, ordered, decreasing in [
            ("eps", [0.5, 1.0, 3.0], True),
            ("n", [500, 2000, 8000], True),
            ("rho", [0.1, 0.25, 0.5], True),
            ("T", [100, 400, 1600], False),
        ]:
            values = [
                value(**{{"eps": "eps", "n": "n", "rho": "rho", "T": "T"}[axis]: v})
                for v in ordered
            ]
            for a, b in zip(values, values[1:]):
                if decreasing:
                    assert a[0] > b[0] and a[1] > b[1]
                else:
                    assert a[0] < b[0] and a[1] < b[1]


class TestMinIterations:
    def test_reference_values(self):
        assert min_iterations(1000, 100, 1.0) == 25
        assert min_iterations(2000, 100, 4.0) == 400

    def test_half_batch(self):
        assert min_iterations(1000, 500, 1.0) == 1

    def test_rounds_up(self):
        assert min_iterations(1001, 100, 1.0) == 26  # 25.05... -> 26


class TestSensitivityBounds:
    def test_reference_value(self):
        b = sensitivity_bounds(D=1.0, L_theta=1.0, m=10, rho=0.5)
        assert b.delta_theta == pytest.approx(0.4)
        assert b.delta_w == pytest.approx(0.4)

    def test_doubling_m_halves(self):
        a = sensitivity_bounds(1.0, 1.0, 10, 0.5)
        b = sensitivity_bounds(1.0, 1.0, 20, 0.5)
        assert b.delta_theta == pytest.approx(a.delta_theta / 2)
        assert b.delta_w == pytest.approx(a.delta_w / 2)

    def test_unit_everything(self):
        b = sensitivity_bounds(1.0, 1.0, 1, 1.0)
        assert b.delta_theta == pytest.approx(math.sqrt(8.0))


class TestGaussianNoise:
    def test_zero_variance_is_silent(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        assert np.array_equal(gaussian_noise(rng, 0.0, 5), np.zeros(5))
        assert rng.bit_generator.state["state"]["state"] == before

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            gaussian_noise(np.random.default_rng(0), -1.0, 3)

    def test_moments(self):
        rng = np.random.default_rng(1)
        draws = gaussian_noise(rng, 1.0, 1_000_000)
        assert abs(draws.mean()) <= 4 / math.sqrt(1_000_000)
        assert abs(draws.var() - 1.0) <= 0.01

    def test_deterministic(self):
        a = gaussian_noise(np.random.default_rng(7), 2.0, 10)
        b = gaussian_noise(np.random.default_rng(7), 2.0, 10)
        assert np.array_equal(a, b)


def audit_dataset(n=60, seed=0):
    return synth_dataset(SyntheticSpec(n=n, d_x=3, bias=0.5, noise_scale=1.0, seed=seed))


class TestAudit:
    def test_identical_data_gives_identical_gradients(self):
        ds = audit_dataset()
        stats = sensitive_stats(ds)
        rng = np.random.default_rng(3)
        theta = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        w = rng.uniform(-1, 1, size=(2, 2))
        a = dp_saddle_terms(theta, w, ds.features[:10], ds.sensitive[:10], stats)
        b = dp_saddle_terms(theta, w, ds.features[:10], ds.sensitive[:10], stats)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_flip_outside_batch_leaves_gradient_unchanged(self):
        ds = audit_dataset()
        stats = sensitive_stats(ds)
        rng = np.random.default_rng(4)
        theta = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        w = rng.uniform(-1, 1, size=(2, 2))
        batch = np.arange(10)
        flipped = ds.sensitive.copy()
        flipped[20] = 3 - flipped[20]  # index 20 is outside the batch
        a = dp_saddle_terms(theta, w, ds.features[batch], ds.sensitive[batch], stats)
        b = dp_saddle_terms(theta, w, ds.features[batch], flipped[batch], stats)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_observed_never_exceeds_bound(self):
        ds = audit_dataset(n=80, seed=1)
        stats = sensitive_stats(ds)
        rng = np.random.default_rng(5)
        D = 1.0
        theta = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        w = rng.uniform(-D, D, size=(2, 2))
        L = proba_lipschitz_bound(ds.features)
        obs_theta, obs_w = empirical_sensitivity_audit(theta, w, ds, trials=300, m=10, rng=rng)
        bounds = sensitivity_bounds(D, L, 10, stats.rho)
        assert 0.0 < obs_theta <= bounds.delta_theta
        assert 0.0 < obs_w <= bounds.delta_w

    def test_bad_arguments(self):
        ds = audit_dataset()
        theta = ModelParams.zeros(2, 3)
        with pytest.raises(ValueError):
            empirical_sensitivity_audit(theta, np.zeros((2, 2)), ds, trials=0, m=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            empirical_sensitivity_audit(theta, np.zeros((2, 2)), ds, trials=5, m=0, rng=np.random.default_rng(0))


class TestNoiseScales:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseScales(-1.0, 0.0)

    def test_none_scales(self):
        noise = NoiseScales.none()
        assert noise.sigma_theta_sq == 0.0 and noise.sigma_w_sq == 0.0
