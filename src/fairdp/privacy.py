"""Gaussian noise calibration and sensitivity analysis for private training.

Closed-form variances (taken with equality, i.e. the least noise the
analysis permits) for T iterations on n samples with batch size m, group
floor rho, dual box radius D and probability-map Lipschitz constant L:

  sensitive attributes only:
      sigma_w^2     = 16 T ln(1/delta) / (eps^2 n^2 rho)
      sigma_theta^2 = 16 L^2 D^2 T ln(1/delta) / (eps^2 n^2 rho)

  all features:
      sigma_w^2     = 32 T ln(1/delta) / (eps^2 n^2) * (1/rho + D^2)
      sigma_theta^2 = 64 L^2 D^2 T ln(1/delta) / (eps^2 n^2 rho)
                      + 32 D^4 L^2 l^2 T ln(1/delta) / (eps^2 n^2)

valid when eps <= 2 ln(1/delta) and T >= (n sqrt(eps) / (2m))^2. The
underlying per-update l2 sensitivities across datasets differing in one
person's sensitive attribute are

      Delta_theta^2 <= 8 D^2 L^2 / (m^2 rho),   Delta_w^2 <= 8 / (m^2 rho).

Composition across iterations is delegated entirely to these closed forms;
no separate accountant is implemented. Note that the group frequencies
P_S (and rho itself) are computed from the sensitive data without noise,
mirroring the training procedure's own preprocessing step; treat them as
public quantities when interpreting the guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ModelParams, forward, mean_param_grad
from .dataset import TabularDataset
from .exceptions import CalibrationError
from .fairness import saddle_terms, strata


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) pair; requires a finite epsilon <= 2 ln(1/delta)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:  # also rejects NaN
            raise CalibrationError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise CalibrationError("delta must lie in (0, 1)")
        if self.epsilon > 2.0 * math.log(1.0 / self.delta):
            raise CalibrationError(
                f"epsilon={self.epsilon} exceeds 2 ln(1/delta)={2 * math.log(1 / self.delta):.4f}"
            )


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


@dataclass(frozen=True)
class SensitivityBounds:
    """l2 sensitivity bounds of the batch-averaged saddle gradients."""

    delta_theta: float
    delta_w: float


def _check_calibration_inputs(rho: float, L_theta: float, D: float) -> None:
    """Reject a group floor outside (0, 1] and a non-finite or nonpositive
    Lipschitz constant or box radius, naming the parameter."""
    if not 0.0 < rho <= 1.0:
        raise CalibrationError(f"rho must lie in (0, 1], got {rho}")
    for name, value in (("Lipschitz constant L_theta", L_theta), ("box radius D", D)):
        if not 0.0 < value < math.inf:
            raise CalibrationError(f"{name} must be positive and finite, got {value}")


def _base(budget: PrivacyBudget, T: int, n: int) -> float:
    if T < 1 or n < 1:
        raise ValueError("T and n must be positive")
    return T * math.log(1.0 / budget.delta) / (budget.epsilon ** 2 * n ** 2)


def calibrate_sensitive_only(
    budget: PrivacyBudget, T: int, n: int, rho: float, L_theta: float, D: float
) -> NoiseScales:
    """Least noise making T updates private w.r.t. one person's sensitive attribute."""
    _check_calibration_inputs(rho, L_theta, D)
    base = _base(budget, T, n)
    return NoiseScales(
        sigma_theta_sq=16.0 * L_theta ** 2 * D ** 2 * base / rho,
        sigma_w_sq=16.0 * base / rho,
    )


def calibrate_all_features(
    budget: PrivacyBudget, T: int, n: int, rho: float, L_theta: float, D: float, l: int
) -> NoiseScales:
    """Least noise making T updates private w.r.t. one person's entire record."""
    _check_calibration_inputs(rho, L_theta, D)
    if l < 2:
        raise CalibrationError(f"need at least two label classes, got l={l}")
    base = _base(budget, T, n)
    return NoiseScales(
        sigma_theta_sq=64.0 * L_theta ** 2 * D ** 2 * base / rho
        + 32.0 * D ** 4 * L_theta ** 2 * l ** 2 * base,
        sigma_w_sq=32.0 * base * (1.0 / rho + D ** 2),
    )


def min_iterations(n: int, m: int, epsilon: float) -> int:
    """Smallest iteration count the calibration requires: ceil((n sqrt(eps) / 2m)^2)."""
    if n < 1 or m < 1 or not 0.0 < epsilon < math.inf:
        raise ValueError("n and m must be positive and epsilon positive and finite")
    value = n * n * epsilon / (4.0 * m * m)
    return max(1, math.ceil(value - 1e-9 * max(value, 1.0)))


def sensitivity_bounds(D: float, L_theta: float, m: int, rho: float) -> SensitivityBounds:
    """Worst-case l2 change of the batch-averaged saddle gradients."""
    # `not x > 0` also rejects NaN; an infinite L_theta (saturated features)
    # gives an infinite bound
    if not (D > 0 and L_theta > 0) or m < 1 or not 0.0 < rho <= 1.0:
        raise ValueError("D, L_theta, m must be positive and rho in (0, 1]")
    return SensitivityBounds(
        delta_theta=math.sqrt(8.0 * D ** 2 * L_theta ** 2 / (m ** 2 * rho)),
        delta_w=math.sqrt(8.0 / (m ** 2 * rho)),
    )


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

    Returns (max theta difference, max dual difference); tests compare these
    against sensitivity_bounds.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 1 <= m <= ds.n:
        raise ValueError(f"batch size {m} must satisfy 1 <= m <= n={ds.n}")
    cells, inv_sqrt = strata(ds)
    counts = np.bincount(cells, minlength=ds.k)
    w = np.asarray(w, dtype=np.float64)[None]
    max_dtheta = 0.0
    max_dw = 0.0
    for _ in range(trials):
        batch = rng.choice(ds.n, size=m, replace=False)
        i = int(batch[rng.integers(0, m)])
        old = int(ds.sensitive[i])
        if counts[old - 1] <= 1:
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
        max_dtheta = max(max_dtheta, float(np.linalg.norm(g_theta_diff)))
        max_dw = max(max_dw, float(np.linalg.norm(g_w2 - g_w)))
    return max_dtheta, max_dw
