import math

import numpy as np
import pytest

from fairdp.classifier import ModelParams, forward, mean_param_grad, proba_lipschitz_bound
from fairdp.dataset import TabularDataset, group_counts
from fairdp.exceptions import CalibrationError
from fairdp.fairness import saddle_terms, strata
from fairdp.harness import SyntheticSpec, calibrate_for_run, synth_dataset
from fairdp.privacy import (
    ALL_FEATURES,
    SENSITIVE_ONLY,
    NoiseScales,
    PrivacyBudget,
    calibrate,
    empirical_sensitivity_audit,
    gaussian_noise,
    min_iterations,
    noise_multiplier,
    sensitivities,
)
from helpers import dp_saddle_terms, reference_noise_variances

BUDGET = PrivacyBudget(1.0, 1e-5)
# counts that are not ints: each must fail with a line naming its field
NON_INTEGER = pytest.mark.parametrize(
    "value", [math.nan, 2.5, True], ids=["nan", "fraction", "bool"]
)


class TestBudget:
    def test_valid(self):
        PrivacyBudget(9.0, 1e-5)  # 9 <= 2 ln(1e5) ~ 23.0

    @pytest.mark.parametrize(
        "calibrate_with",
        [
            lambda b: calibrate(SENSITIVE_ONLY, b, 400, 2000, 1, 0.4, 1.0, 1.0),
            lambda b: calibrate(ALL_FEATURES, b, 400, 2000, 1, 0.4, 1.0, 1.0, l=2),
        ],
        ids=["sensitive_only", "all_features"],
    )
    def test_epsilon_above_cap(self, calibrate_with):
        # the budget holds any positive epsilon; the closed forms own the cap
        budget = PrivacyBudget(24.0, 1e-5)
        with pytest.raises(CalibrationError) as info:
            calibrate_with(budget)
        assert str(info.value) == "epsilon=24.0 exceeds 2 ln(1/delta)=23.0259"

    def test_bad_delta(self):
        with pytest.raises(CalibrationError):
            PrivacyBudget(1.0, 0.0)
        with pytest.raises(CalibrationError):
            PrivacyBudget(1.0, 1.0)

    def test_nonpositive_epsilon(self):
        with pytest.raises(CalibrationError):
            PrivacyBudget(0.0, 1e-5)


class TestNonFiniteParameters:
    """NaN and infinite privacy parameters are rejected up front, by an error
    that names the parameter, instead of failing inside the closed forms."""

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_budget_rejects_epsilon(self, epsilon):
        with pytest.raises(CalibrationError) as info:
            PrivacyBudget(epsilon, 1e-5)
        assert str(info.value) == f"epsilon must be positive and finite, got {epsilon}"

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_budget_rejects_delta(self, delta):
        with pytest.raises(CalibrationError, match="delta must lie in"):
            PrivacyBudget(1.0, delta)

    @pytest.mark.parametrize(
        "calibrate_with",
        [
            lambda rho, L, D: calibrate(SENSITIVE_ONLY, BUDGET, 400, 2000, 1, rho, L, D),
            lambda rho, L, D: calibrate(ALL_FEATURES, BUDGET, 400, 2000, 1, rho, L, D, l=2),
        ],
        ids=["sensitive_only", "all_features"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize(
        "position, message",
        [
            (0, "rho must lie in (0, 1], got {}"),
            (1, "Lipschitz constant L_theta must be positive and finite, got {}"),
            (2, "box radius D must be positive and finite, got {}"),
        ],
    )
    def test_calibration_names_the_parameter(self, calibrate_with, value, position, message):
        args = [0.4, 1.0, 1.0]
        args[position] = value
        with pytest.raises(CalibrationError) as info:
            calibrate_with(*args)
        assert str(info.value) == message.format(value)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_min_iterations_rejects_epsilon(self, epsilon):
        with pytest.raises(ValueError) as info:
            min_iterations(1000, 100, epsilon)
        assert str(info.value) == f"epsilon must be positive and finite, got {epsilon}"

    @pytest.mark.parametrize("D, L", [(math.nan, 1.0), (1.0, math.nan)])
    def test_sensitivities_reject_nan(self, D, L):
        with pytest.raises(CalibrationError, match="must be positive"):
            sensitivities(SENSITIVE_ONLY, D, L, 10, 0.5)

    @pytest.mark.parametrize(
        "granularity, D, L, message",
        [
            (SENSITIVE_ONLY, 1e200, 1.0, "box radius D=1e+200"),
            (SENSITIVE_ONLY, 1.0, 1e200, "Lipschitz constant L_theta=1e+200"),
            (ALL_FEATURES, 1e100, 1.0, "box radius D=1e+100"),
            (ALL_FEATURES, 1.0, 1e200, "Lipschitz constant L_theta=1e+200"),
            # D^2 alone is finite, so the Lipschitz constant is named
            (SENSITIVE_ONLY, 1e100, 1e100, "Lipschitz constant L_theta=1e+100"),
        ],
    )
    def test_overflow_names_the_parameter(self, granularity, D, L, message):
        with pytest.raises(CalibrationError) as info:
            sensitivities(granularity, D, L, 10, 0.5, l=2)
        assert str(info.value) == f"{message} overflows the sensitivity bounds"

    @pytest.mark.parametrize(
        "granularity, m, l, message",
        [
            # l * l overflows, or l itself is an int too large for a float
            (ALL_FEATURES, 10, 10 ** 200, "number of label classes l"),
            (ALL_FEATURES, 10, 10 ** 400, "number of label classes l"),
            # m * m is an int too large for a float
            (SENSITIVE_ONLY, 10 ** 200, None, "batch size m"),
            (ALL_FEATURES, 10 ** 200, 2, "batch size m"),
        ],
        ids=["l_10**200", "l_10**400", "m_10**200_sensitive", "m_10**200_all"],
    )
    def test_overflow_names_an_integer_parameter(self, granularity, m, l, message):
        with pytest.raises(CalibrationError) as info:
            sensitivities(granularity, 1.0, 1.0, m, 0.5, l)
        assert str(info.value) == f"{message} overflows the sensitivity bounds"

    def test_overflow_from_a_subnormal_group_floor_names_rho(self):
        with pytest.raises(CalibrationError) as info:
            sensitivities(SENSITIVE_ONLY, 1.0, 1.0, 10, 5e-324)
        assert str(info.value) == "rho=5e-324 overflows the sensitivity bounds"

    @pytest.mark.parametrize("m", [0, -3])
    def test_sensitivities_reject_batch_size(self, m):
        with pytest.raises(CalibrationError) as info:
            sensitivities(SENSITIVE_ONLY, 1.0, 1.0, m, 0.5)
        assert str(info.value) == f"batch size m must be a positive integer, got {m}"

    @NON_INTEGER
    def test_sensitivities_name_a_non_integer_batch_size(self, value):
        # m is a count: 2.5 would give other bounds, and True those of m = 1
        with pytest.raises(CalibrationError) as info:
            sensitivities(SENSITIVE_ONLY, 1.0, 1.0, value, 0.5)
        assert str(info.value) == f"batch size m must be a positive integer, got {value!r}"

    @pytest.mark.parametrize("l", [None, 1])
    def test_all_features_needs_two_labels(self, l):
        with pytest.raises(CalibrationError) as info:
            sensitivities(ALL_FEATURES, 1.0, 1.0, 10, 0.5, l=l)
        assert str(info.value) == f"need at least two label classes, got l={l}"

    def test_no_privacy_has_no_sensitivities(self):
        with pytest.raises(ValueError, match="granularity must be"):
            sensitivities("none", 1.0, 1.0, 10, 0.5)


class TestSensitiveOnly:
    def test_reference_value(self):
        noise = calibrate(SENSITIVE_ONLY, BUDGET, T=400, n=2000, m=1, rho=0.4, L_theta=1.0, D=1.0)
        assert noise.sigma_w_sq == pytest.approx(0.0460517, rel=1e-6)

    def test_variances_coincide_when_LD_is_one(self):
        noise = calibrate(SENSITIVE_ONLY, BUDGET, T=400, n=2000, m=1, rho=0.4, L_theta=1.0, D=1.0)
        assert noise.sigma_theta_sq == pytest.approx(noise.sigma_w_sq, rel=1e-12)

    def test_doubling_n_quarters_variance(self):
        a = calibrate(SENSITIVE_ONLY, BUDGET, 400, 2000, 1, 0.4, 1.0, 1.0)
        b = calibrate(SENSITIVE_ONLY, BUDGET, 400, 4000, 1, 0.4, 1.0, 1.0)
        assert b.sigma_w_sq == pytest.approx(a.sigma_w_sq / 4)
        assert b.sigma_theta_sq == pytest.approx(a.sigma_theta_sq / 4)

    def test_bad_rho(self):
        with pytest.raises(CalibrationError):
            calibrate(SENSITIVE_ONLY, BUDGET, 400, 2000, 1, 0.0, 1.0, 1.0)


class TestAllFeatures:
    def test_reference_value(self):
        noise = calibrate(
            ALL_FEATURES, BUDGET, T=400, n=2000, m=1, rho=0.4, L_theta=1.0, D=1.0, l=2
        )
        assert noise.sigma_w_sq == pytest.approx(0.0460517 * 2 * (2.5 + 1) / 2.5, rel=1e-5)

    def test_theta_variance_decomposition(self):
        sens = calibrate(SENSITIVE_ONLY, BUDGET, 400, 2000, 1, 0.4, 1.0, 1.0)
        full = calibrate(ALL_FEATURES, BUDGET, 400, 2000, 1, 0.4, 1.0, 1.0, l=2)
        extra = 32.0 * 4 * 400 * math.log(1e5) / (1.0 * 2000 ** 2)
        assert full.sigma_theta_sq == pytest.approx(4 * sens.sigma_theta_sq + extra, rel=1e-12)

    def test_dominates_sensitive_only(self):
        for rho in (0.1, 0.3, 0.5):
            for D in (0.5, 1.0, 3.0):
                sens = calibrate(SENSITIVE_ONLY, BUDGET, 300, 1500, 1, rho, 2.0, D)
                full = calibrate(ALL_FEATURES, BUDGET, 300, 1500, 1, rho, 2.0, D, l=3)
                assert full.sigma_w_sq >= sens.sigma_w_sq
                assert full.sigma_theta_sq >= sens.sigma_theta_sq


class TestMonotonicity:
    def test_variances_decrease_in_epsilon_n_rho_increase_in_T(self):
        def value(eps=1.0, n=2000, T=400, rho=0.4):
            budget = PrivacyBudget(eps, 1e-5)
            noise = calibrate(SENSITIVE_ONLY, budget, T, n, 1, rho, 1.0, 1.0)
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

    @pytest.mark.parametrize("n", [10 ** 154, 10 ** 200], ids=["scaled_by_epsilon", "n_squared"])
    def test_overflow_names_n(self, n):
        # n * n * epsilon is inf at 10**154, and n * n an int too large for a float at 10**200
        with pytest.raises(CalibrationError) as info:
            min_iterations(n, 10, 20.0)
        assert str(info.value) == "n overflows the iteration floor"

    @NON_INTEGER
    @pytest.mark.parametrize("field", ["n", "m"])
    def test_non_integer_count_is_named(self, field, value):
        counts = {"n": 1000, "m": 100, field: value}
        with pytest.raises(ValueError) as info:
            min_iterations(epsilon=1.0, **counts)
        assert str(info.value) == f"{field} must be a positive integer, got {value!r}"


class TestSensitivities:
    def test_reference_value(self):
        b = sensitivities(SENSITIVE_ONLY, D=1.0, L_theta=1.0, m=10, rho=0.5)
        assert b.delta_theta == pytest.approx(0.4)
        assert b.delta_w == pytest.approx(0.4)

    def test_doubling_m_halves(self):
        a = sensitivities(SENSITIVE_ONLY, 1.0, 1.0, 10, 0.5)
        b = sensitivities(SENSITIVE_ONLY, 1.0, 1.0, 20, 0.5)
        assert b.delta_theta == pytest.approx(a.delta_theta / 2)
        assert b.delta_w == pytest.approx(a.delta_w / 2)

    def test_unit_everything(self):
        b = sensitivities(SENSITIVE_ONLY, 1.0, 1.0, 1, 1.0)
        assert b.delta_theta == pytest.approx(math.sqrt(8.0))

    def test_all_features_reference_value(self):
        # Delta_w^2 = 16 (1/rho + D^2) / m^2 = 16 (4 + 4) / 100 and
        # Delta_theta^2 = (32 L^2 D^2 / rho + 16 D^4 L^2 l^2) / m^2 = (128 + 576) / 100
        b = sensitivities(ALL_FEATURES, D=2.0, L_theta=0.5, m=10, rho=0.25, l=3)
        assert b.delta_w == pytest.approx(math.sqrt(1.28), rel=1e-12)
        assert b.delta_theta == pytest.approx(math.sqrt(7.04), rel=1e-12)


class TestNoiseMultiplier:
    def test_reference_value(self):
        z = noise_multiplier(BUDGET, T=400, n=2000, m=100)
        assert z == pytest.approx(100 / 2000 * math.sqrt(2 * 400 * math.log(1e5)), rel=1e-15)

    def test_proportional_to_batch_size(self):
        a = noise_multiplier(BUDGET, 400, 2000, 100)
        assert noise_multiplier(BUDGET, 400, 2000, 200) == pytest.approx(2 * a, rel=1e-15)

    def test_owns_the_epsilon_cap(self):
        with pytest.raises(CalibrationError) as info:
            noise_multiplier(PrivacyBudget(24.0, 1e-5), 400, 2000, 100)
        assert str(info.value) == "epsilon=24.0 exceeds 2 ln(1/delta)=23.0259"

    @pytest.mark.parametrize("T, n, m", [(0, 2000, 100), (400, 0, 100), (400, 2000, 0)])
    def test_rejects_nonpositive_counts(self, T, n, m):
        field = "T" if T == 0 else "n" if n == 0 else "m"
        with pytest.raises(ValueError) as info:
            noise_multiplier(BUDGET, T, n, m)
        assert str(info.value) == f"{field} must be a positive integer, got 0"

    @NON_INTEGER
    @pytest.mark.parametrize("field", ["T", "n", "m"])
    def test_non_integer_count_is_named(self, field, value):
        counts = {"T": 400, "n": 2000, "m": 100, field: value}
        with pytest.raises(ValueError) as info:
            noise_multiplier(BUDGET, **counts)
        assert str(info.value) == f"{field} must be a positive integer, got {value!r}"

    @pytest.mark.parametrize(
        "epsilon, T, n, message",
        [
            # epsilon ** 2 underflows to 0, and to a subnormal that overflows z
            (1e-300, 400, 2000, "epsilon=1e-300 is too small for the noise multiplier"),
            (1e-160, 400, 2000, "epsilon=1e-160 is too small for the noise multiplier"),
            # T * m * m and n * n are ints too large for a float
            (1.0, 10 ** 320, 2000, "iteration count T overflows the noise multiplier"),
            (1.0, 400, 10 ** 200, "n overflows the noise multiplier"),
        ],
        ids=["epsilon_1e-300", "epsilon_1e-160", "T_10**320", "n_10**200"],
    )
    def test_overflow_names_the_parameter(self, epsilon, T, n, message):
        with pytest.raises(CalibrationError) as info:
            noise_multiplier(PrivacyBudget(epsilon, 1e-5), T, n, 100)
        assert str(info.value) == message


class TestNoiseRule:
    """calibrate_for_run's sigma^2 = z^2 Delta^2 reproduces the closed forms
    spelled out as single expressions, to within 1e-15 relative."""

    @pytest.mark.parametrize("granularity", [SENSITIVE_ONLY, ALL_FEATURES])
    def test_matches_the_spelled_out_closed_forms(self, granularity):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            n = int(rng.integers(10, 10**6))
            m = int(rng.integers(1, n + 1))
            delta = float(10.0 ** rng.uniform(-9, -1))
            epsilon = float(rng.uniform(0.005, 1.0)) * 2 * math.log(1 / delta)
            T = min_iterations(n, m, epsilon) + int(rng.integers(0, 1000))
            rho = float(rng.uniform(1e-3, 1.0))
            L, D = (float(v) for v in np.exp(rng.uniform(-3, 5, size=2)))
            l = int(rng.integers(2, 20))
            noise = calibrate_for_run(granularity, epsilon, delta, T, n, m, rho, L, D, l)
            budget = PrivacyBudget(epsilon, delta)
            ref = reference_noise_variances(granularity, budget, T, n, rho, L, D, l)
            got = (noise.sigma_theta_sq, noise.sigma_w_sq)
            for value, expected in zip(got, ref):
                assert abs(value - expected) <= 1e-15 * expected, (n, m, epsilon, T, rho, L, D, l)

    @pytest.mark.parametrize(
        "calibrate_with",
        [
            lambda b: calibrate_for_run(SENSITIVE_ONLY, b.epsilon, b.delta, 2000, 100, 10, 0.4,
                                        1.0, 1e3, 2),
            lambda b: calibrate(SENSITIVE_ONLY, b, 2000, 100, 1, 0.4, 1.0, 1e3),
            lambda b: calibrate(ALL_FEATURES, b, 2000, 100, 1, 0.4, 1.0, 1e3, l=2),
        ],
        ids=["calibrate_for_run", "sensitive_only", "all_features"],
    )
    def test_overflow_names_epsilon_and_the_box_radius(self, calibrate_with):
        # z and every Delta are finite, but z^2 Delta^2 is not
        with pytest.raises(CalibrationError) as info:
            calibrate_with(PrivacyBudget(1e-152, 1e-5))
        message = "epsilon=1e-152 with box radius D=1000.0 overflows the noise variances"
        assert str(info.value) == message

    def test_closed_forms_are_the_rule_at_any_batch_size(self):
        # m cancels in z * Delta; T = 10**6 clears the floor at m = 1
        for m in (1, 7, 100, 2000):
            run = calibrate_for_run(ALL_FEATURES, 1.0, 1e-5, 10**6, 2000, m, 0.4, 1.5, 2.0, 3)
            closed = calibrate(ALL_FEATURES, BUDGET, 10**6, 2000, 1, 0.4, 1.5, 2.0, l=3)
            assert run.sigma_theta_sq == pytest.approx(closed.sigma_theta_sq, rel=1e-15)
            assert run.sigma_w_sq == pytest.approx(closed.sigma_w_sq, rel=1e-15)


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
        inv_sqrt = strata(ds)[1][0]
        rng = np.random.default_rng(3)
        theta = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        w = rng.uniform(-1, 1, size=(2, 2))
        a = dp_saddle_terms(theta, w, ds.features[:10], ds.sensitive[:10], inv_sqrt)
        b = dp_saddle_terms(theta, w, ds.features[:10], ds.sensitive[:10], inv_sqrt)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_flip_outside_batch_leaves_gradient_unchanged(self):
        ds = audit_dataset()
        inv_sqrt = strata(ds)[1][0]
        rng = np.random.default_rng(4)
        theta = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        w = rng.uniform(-1, 1, size=(2, 2))
        batch = np.arange(10)
        flipped = ds.sensitive.copy()
        flipped[20] = 3 - flipped[20]  # index 20 is outside the batch
        a = dp_saddle_terms(theta, w, ds.features[batch], ds.sensitive[batch], inv_sqrt)
        b = dp_saddle_terms(theta, w, ds.features[batch], flipped[batch], inv_sqrt)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_observed_never_exceeds_bound(self):
        ds = audit_dataset(n=80, seed=1)
        rho = group_counts(ds)[1].min() / ds.n
        rng = np.random.default_rng(5)
        D = 1.0
        theta = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        w = rng.uniform(-D, D, size=(2, 2))
        L = proba_lipschitz_bound(ds.features)
        obs_theta, obs_w = empirical_sensitivity_audit(theta, w, ds, trials=300, m=10, rng=rng)
        bounds = sensitivities(SENSITIVE_ONLY, D, L, 10, rho)
        assert 0.0 < obs_theta <= bounds.delta_theta
        assert 0.0 < obs_w <= bounds.delta_w

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="defect F: the sensitive-only Delta_theta is sqrt(2l) too small for a corner dual",
    )
    def test_corner_dual_flip_stays_within_the_theta_bound(self):
        # four people in groups 1, 1, 2, 2 with ||x|| = 3, theta = 0 and W at
        # opposite corners of the box D = 1; person 0 moves to group 2, with
        # the group statistics held at the original split. The gradient moves
        # by 3.16228 against a bound of 1.58114, exactly twice it.
        ds = TabularDataset(np.tile([3.0, 0.0], (4, 1)), [1, 2, 1, 2], [1, 1, 2, 2], l=2, k=2)
        cells, inv_sqrt = strata(ds)
        flipped = cells.copy()
        flipped[0] = 1
        w = np.array([[[-1.0, 1.0], [1.0, -1.0]]])
        theta = ModelParams.zeros(2, 2)
        proba = forward(theta.weights, theta.bias, ds.features)
        grads = [
            mean_param_grad(saddle_terms(proba, w, inv_sqrt, c)[0], ds.features)
            for c in (cells, flipped)
        ]
        observed = np.linalg.norm(grads[1] - grads[0])
        L = proba_lipschitz_bound(ds.features)
        bound = sensitivities(SENSITIVE_ONLY, 1.0, L, 4, 0.5).delta_theta
        # a bound that this case attains may round either way
        assert observed <= bound * (1.0 + 1e-12)

    def test_nan_difference_is_kept(self):
        # a dual this large overflows the saddle terms; max() would drop the NaN
        ds = audit_dataset()
        rng = np.random.default_rng(3)
        theta = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        w = rng.uniform(-1e300, 1e300, size=(2, 2))
        with np.errstate(all="ignore"):
            obs_theta, obs_w = empirical_sensitivity_audit(theta, w, ds, trials=50, m=10, rng=rng)
        assert math.isnan(obs_theta)
        assert obs_w == math.inf

    def test_bad_arguments(self):
        ds = audit_dataset()
        theta = ModelParams.zeros(2, 3)
        with pytest.raises(ValueError):
            empirical_sensitivity_audit(theta, np.zeros((2, 2)), ds, trials=0, m=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            empirical_sensitivity_audit(theta, np.zeros((2, 2)), ds, trials=5, m=0, rng=np.random.default_rng(0))

    def test_flips_that_would_empty_a_group_are_skipped(self):
        rng = np.random.default_rng(6)
        theta = ModelParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        w = rng.uniform(-1, 1, size=(2, 2))
        # one person per group: every flip would empty a group, so none is measured
        pair = TabularDataset(rng.normal(size=(2, 3)), [1, 2], [1, 2], l=2, k=2)
        assert empirical_sensitivity_audit(theta, w, pair, 20, 2, rng) == (0.0, 0.0)
        # group 2 is one person among 12: their flips are skipped, the others' measured
        s = np.ones(12, dtype=np.int64)
        s[5] = 2
        ds = TabularDataset(rng.normal(size=(12, 3)), np.resize([1, 2], 12), s, l=2, k=2)
        observed = empirical_sensitivity_audit(theta, w, ds, 200, 12, rng)
        assert all(0.0 < x < math.inf for x in observed)

    @NON_INTEGER
    def test_non_integer_trials_is_named(self, value):
        ds = audit_dataset()
        with pytest.raises(ValueError) as info:
            empirical_sensitivity_audit(
                ModelParams.zeros(2, 3), np.zeros((2, 2)), ds, value, 5, np.random.default_rng(0)
            )
        assert str(info.value) == f"trials must be a positive integer, got {value!r}"

    @NON_INTEGER
    def test_non_integer_batch_size_is_named(self, value):
        ds = audit_dataset()
        with pytest.raises(ValueError) as info:
            empirical_sensitivity_audit(
                ModelParams.zeros(2, 3), np.zeros((2, 2)), ds, 5, value, np.random.default_rng(0)
            )
        assert str(info.value) == f"m must be a positive integer, got {value!r}"


class TestNoiseScales:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseScales(-1.0, 0.0)

    def test_none_scales(self):
        noise = NoiseScales.none()
        assert noise.sigma_theta_sq == 0.0 and noise.sigma_w_sq == 0.0
