"""Gaussian noise calibration and sensitivity analysis for private training.

Every release gets noise sigma = z * Delta, the least the analysis permits.
For T iterations on n samples with batch size m, noise_multiplier gives
z = (m / (n eps)) sqrt(2 T ln(1/delta)), valid when eps <= 2 ln(1/delta),
which it checks, and T >= (n sqrt(eps) / (2m))^2, the min_iterations floor
the harness checks. Delta is the l2 sensitivity of a batch-averaged saddle
gradient to one person (sensitivities), for group floor rho, dual box
radius D, probability-map Lipschitz constant L and l label classes:

    granularity      Delta_w^2                Delta_theta^2
    sensitive only   8 / (m^2 rho)            8 L^2 D^2 / (m^2 rho)
    all features     16 (1/rho + D^2) / m^2   (32 L^2 D^2 / rho + 16 D^4 L^2 l^2) / m^2

calibrate is the one function that returns the noise, sigma^2 = z^2 Delta^2
per channel; m cancels. This closed form is the library's only privacy
accounting. Where it does not hold for the noise the training loop adds,
see the README's notes on the privacy accounting and ROADMAP item 1
(defects A–G). The group frequencies P_S and rho come from the sensitive
data without noise; treat them as public in the guarantee. The counts T,
n, m and trials, and each positive real, are checked by dataset's
_check_int and _check_positive_finite, the owner of argument checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .classifier import ModelParams, forward, mean_param_grad
from .dataset import TabularDataset, _check_int, _check_positive_finite, group_counts
from .exceptions import CalibrationError
from .fairness import saddle_terms, strata

SENSITIVE_ONLY = "sensitive_only"
ALL_FEATURES = "all_features"
NO_PRIVACY = "none"
GRANULARITIES = (SENSITIVE_ONLY, ALL_FEATURES, NO_PRIVACY)


@dataclass(frozen=True)
class PrivacyBudget:
    """A positive finite epsilon and a delta in (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        _check_positive_finite("epsilon", self.epsilon, CalibrationError)
        if not 0.0 < self.delta < 1.0:
            raise CalibrationError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class SensitivityBounds:
    """Squared l2 sensitivity bounds of the batch-averaged saddle gradients."""

    delta_theta_sq: float
    delta_w_sq: float
    delta_theta = property(lambda self: math.sqrt(self.delta_theta_sq))
    delta_w = property(lambda self: math.sqrt(self.delta_w_sq))


@dataclass(frozen=True)
class NoiseScales:
    """Gaussian noise variances for the model and dual updates."""

    sigma_theta_sq: float
    sigma_w_sq: float

    def __post_init__(self):
        if not (0 <= self.sigma_theta_sq < math.inf and 0 <= self.sigma_w_sq < math.inf):
            raise ValueError("noise variances must be finite and nonnegative")

    @classmethod
    def none(cls) -> "NoiseScales":
        return cls(0.0, 0.0)


def noise_multiplier(budget: PrivacyBudget, T: int, n: int, m: int) -> float:
    """z = (m / (n eps)) sqrt(2 T ln(1/delta)), for eps <= 2 ln(1/delta)."""
    cap = 2.0 * math.log(1.0 / budget.delta)
    if budget.epsilon > cap:
        raise CalibrationError(f"epsilon={budget.epsilon} exceeds 2 ln(1/delta)={cap:.4f}")
    for name, count in (("T", T), ("n", n), ("m", m)):
        _check_int(name, count, 1)
    try:
        z = math.sqrt(T * m * m * cap / (n * n * budget.epsilon ** 2))
    except OverflowError:  # n * n or T * m * m is an int too large for a float
        name = "n" if n * n > sys.float_info.max else "iteration count T"
        raise CalibrationError(f"{name} overflows the noise multiplier") from None
    except ZeroDivisionError:  # epsilon ** 2 underflows to 0
        z = math.inf
    if z < math.inf:
        return z
    raise CalibrationError(f"epsilon={budget.epsilon} is too small for the noise multiplier")


def _squares(granularity: str, D: float, L: float, m: int, rho: float, l) -> tuple[float, float]:
    """(Delta_theta^2, Delta_w^2), the table in the module docstring; inf on overflow."""
    ld2, m2 = L * L * D * D, m * m
    try:
        if granularity == SENSITIVE_ONLY:
            return 8.0 * ld2 / (m2 * rho), 8.0 / (m2 * rho)
        return (32.0 * ld2 / rho + 16.0 * ld2 * D * D * l * l) / m2, 16.0 * (1.0 / rho + D * D) / m2
    except OverflowError:  # m * m or l is an int too large for a float
        return math.inf, math.inf


def sensitivities(
    granularity: str, D: float, L_theta: float, m: int, rho: float, l: int | None = None
) -> SensitivityBounds:
    """Worst-case l2 change of the batch-averaged saddle gradients when one
    person's sensitive attribute or record changes (l: ALL_FEATURES only)."""
    if granularity not in (SENSITIVE_ONLY, ALL_FEATURES):
        raise ValueError(f"granularity must be {SENSITIVE_ONLY!r} or {ALL_FEATURES!r}")
    if not 0.0 < rho <= 1.0:
        raise CalibrationError(f"rho must lie in (0, 1], got {rho}")
    for name, value in (("Lipschitz constant L_theta", L_theta), ("box radius D", D)):
        _check_positive_finite(name, value, CalibrationError)
    _check_int("batch size m", m, 1, CalibrationError)
    if granularity == ALL_FEATURES and (l is None or l < 2):
        raise CalibrationError(f"need at least two label classes, got l={l}")
    squares = _squares(granularity, D, L_theta, m, rho, l)
    if math.isinf(max(squares)):
        # name the first of m, rho, l, D that overflows the bounds when they
        # take their values in turn, the rest held at 1 (l at 2), else L_theta;
        # the ints m and l are not echoed, as they may have hundreds of digits
        steps = [("batch size m", 1.0, 1.0, m, 1.0, 2), (f"rho={rho}", 1.0, 1.0, m, rho, 2),
                 ("number of label classes l", 1.0, 1.0, m, rho, l),
                 (f"box radius D={D}", D, 1.0, m, rho, l)]
        culprit = (s[0] for s in steps if math.isinf(max(_squares(granularity, *s[1:]))))
        name = next(culprit, f"Lipschitz constant L_theta={L_theta}")
        raise CalibrationError(f"{name} overflows the sensitivity bounds")
    return SensitivityBounds(*squares)


def calibrate(
    granularity: str, budget: PrivacyBudget, T: int, n: int, m: int,
    rho: float, L_theta: float, D: float, l: int | None = None,
) -> NoiseScales:
    """sigma = z * Delta on each channel, as z^2 times the unrooted Delta^2."""
    z = noise_multiplier(budget, T, n, m)
    bounds = sensitivities(granularity, D, L_theta, m, rho, l)
    variances = z * z * bounds.delta_theta_sq, z * z * bounds.delta_w_sq
    if max(variances) == math.inf:  # z and Delta are finite, but not always their product
        raise CalibrationError(
            f"epsilon={budget.epsilon} with box radius D={D} overflows the noise variances"
        )
    return NoiseScales(*variances)


def min_iterations(n: int, m: int, epsilon: float) -> int:
    """Smallest iteration count the calibration requires: ceil((n sqrt(eps) / 2m)^2)."""
    _check_int("n", n, 1)
    _check_int("m", m, 1)
    _check_positive_finite("epsilon", epsilon)
    # n * n may be an int too large for a float, or overflow once scaled by epsilon
    value = n * n * epsilon / (4.0 * m * m) if n * n <= sys.float_info.max else math.inf
    if value == math.inf:
        raise CalibrationError("n overflows the iteration floor")
    return max(1, math.ceil(value - 1e-9 * max(value, 1.0)))


def gaussian_noise(rng: np.random.Generator, sigma_sq: float, dim: int) -> np.ndarray:
    """i.i.d. N(0, sigma_sq) vector; sigma_sq = 0 returns zeros without
    consuming the stream, so noiseless runs match noise-free references."""
    if sigma_sq < 0:
        raise ValueError("variance must be nonnegative")
    if sigma_sq == 0.0:
        return np.zeros(dim)
    return rng.normal(0.0, math.sqrt(sigma_sq), size=dim)


def empirical_sensitivity_audit(
    theta: ModelParams,
    w: np.ndarray,
    ds: TabularDataset,
    trials: int,
    m: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Largest observed gradient change over random adjacent-dataset pairs.

    Each trial draws a batch of m distinct indices, flips the sensitive
    attribute of one batch member, and measures the l2 difference of the
    batch-averaged saddle gradients between the two datasets, as the
    training kernels compute them on the demographic-parity layout of
    strata (w is its one k x l block). Batches use distinct indices because
    the sensitivity bound is per person: a person occurring twice in one
    batch would double their contribution. The group inverse square roots
    are held at the original dataset's values, matching the analysis that
    treats theta and W as fixed; flips that would empty a group are skipped.
    Returns the largest theta and dual differences, NaN if any difference is
    NaN; tests compare them with sensitivities(SENSITIVE_ONLY, ...).
    """
    _check_int("trials", trials, 1)
    _check_int("m", m, 1)
    if not m <= ds.n:
        raise ValueError(f"batch size {m} must satisfy 1 <= m <= n={ds.n}")
    counts = group_counts(ds)[1]
    cells, inv_sqrt = strata(ds)
    w = np.asarray(w, dtype=np.float64)[None]
    max_dtheta = max_dw = 0.0
    for _ in range(trials):
        batch = rng.choice(ds.n, size=m, replace=False)
        i = int(batch[rng.integers(0, m)])
        old = int(ds.sensitive[i])
        if counts[0, old - 1] <= 1:
            continue
        choices = [r for r in range(1, ds.k + 1) if r != old]
        s_new = int(choices[rng.integers(0, len(choices))])

        # theta and the batch features are the same on both datasets
        x = ds.features[batch]
        proba = forward(theta.weights, theta.bias, x)
        flipped = cells[batch]
        flipped[batch == i] = s_new - 1
        d_psi, g_w, _ = saddle_terms(proba, w, inv_sqrt, cells[batch])
        d_psi2, g_w2, _ = saddle_terms(proba, w, inv_sqrt, flipped)
        g_theta_diff = mean_param_grad(d_psi2, x) - mean_param_grad(d_psi, x)
        max_dtheta = np.maximum(max_dtheta, np.linalg.norm(g_theta_diff))
        max_dw = np.maximum(max_dw, np.linalg.norm(g_w2 - g_w))
    return float(max_dtheta), float(max_dw)
