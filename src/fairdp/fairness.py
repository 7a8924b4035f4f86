"""ERMI dependence estimators, the quadratic dual saddle function, and
empirical fairness-violation metrics.

ERMI (exponential Renyi mutual information) between predictions and
sensitive groups is

    sum_{j,r} p(j,r)^2 / (p_yhat(j) * p_s(r)) - 1,

a chi-squared style dependence measure that is nonnegative and zero iff the
joint factorizes. The training objective never touches ERMI directly:
each sample contributes a function psi_i(theta, W) that is quadratic and
strongly concave in a k x l dual matrix W, and the batch maximum of the
averaged psi over W recovers the soft-prediction ERMI exactly. That is
what makes unbiased minibatch gradients (and hence private stochastic
optimization) possible.

Both fairness notions use one dual layout. The dual is a (C, k, l) array,
one k x l block per conditioning stratum, with (C, k) group inverse square
roots: demographic parity is the single stratum C = 1, and equalized odds
conditions on the true label, C = l. strata() is the one place that maps a
dataset and a notion to this layout: each sample's 0-based cell code
stratum * k + group and the (C, k) statistics. The batch saddle terms
(saddle_terms) and the closed-form inner maximum (inner_max_closed_form)
work on it for both notions; psi, psi_grad_theta and psi_grad_w are the
per-sample references for one k x l block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import ModelParams, forward, mean_param_grad, predict_proba
from .dataset import SensitiveStats, TabularDataset, sensitive_stats
from .exceptions import DegenerateConditionalError, DegenerateGroupError

DEMOGRAPHIC_PARITY = "demographic_parity"
EQUALIZED_ODDS = "equalized_odds"
# added to a stratum's soft class marginals when one of them is zero
# (a saturated model), so the closed-form inner maximum stays finite
MARGINAL_RIDGE = 1e-8


@dataclass(frozen=True)
class FermiConfig:
    """Fairness-regularization weight and the notion it targets."""

    lam: float
    notion: str = DEMOGRAPHIC_PARITY

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.notion not in (DEMOGRAPHIC_PARITY, EQUALIZED_ODDS):
            raise ValueError(f"unknown fairness notion {self.notion!r}")


def strata(
    ds: TabularDataset, notion: str = DEMOGRAPHIC_PARITY
) -> tuple[np.ndarray, np.ndarray]:
    """Cell codes and group statistics of the (C, k, l) dual layout.

    Returns the 0-based (n,) codes stratum * k + (group - 1) and the (C, k)
    group inverse square roots within each stratum. Demographic parity has
    one stratum (C = 1) and raises DegenerateGroupError for an empty group;
    equalized odds has one stratum per label class (C = l) and raises
    DegenerateConditionalError if a label class is absent or a (label,
    group) cell is empty.
    """
    if notion == DEMOGRAPHIC_PARITY:
        return ds.sensitive - 1, sensitive_stats(ds).inv_sqrt[None, :]
    if notion != EQUALIZED_ODDS:
        raise ValueError(f"unknown fairness notion {notion!r}")
    inv_sqrt = []
    for y in range(1, ds.l + 1):
        groups = ds.sensitive[ds.labels == y]
        if groups.size == 0:
            raise DegenerateConditionalError(f"label class {y} has no samples")
        try:
            inv_sqrt.append(SensitiveStats.from_groups(groups, ds.k).inv_sqrt)
        except DegenerateGroupError as exc:
            raise DegenerateConditionalError(f"within label class {y}: {exc}") from None
    return (ds.labels - 1) * ds.k + (ds.sensitive - 1), np.stack(inv_sqrt)


def _joint_from_codes(a: np.ndarray, b: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Empirical joint distribution of two 1-based code vectors."""
    flat = np.bincount((a - 1) * dim_b + (b - 1), minlength=dim_a * dim_b)
    return flat.reshape(dim_a, dim_b) / a.shape[0]


def _ermi_from_joint(joint: np.ndarray) -> float:
    """sum p(j,r)^2 / (p_j * p_r) - 1 with 0-probability cells contributing 0."""
    p_rows = joint.sum(axis=1)
    p_cols = joint.sum(axis=0)
    mask = joint > 0
    denom = np.outer(p_rows, p_cols)
    return float((joint[mask] ** 2 / denom[mask]).sum() - 1.0)


def ermi_hard(preds: np.ndarray, s: np.ndarray, k: int | None = None, l: int | None = None) -> float:
    """ERMI of realized (hard) predictions against sensitive groups.

    Every group in 1..k must be present; prediction classes may have zero
    marginals (those cells contribute nothing).
    """
    preds = np.asarray(preds, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    if preds.shape != s.shape or preds.ndim != 1 or preds.size == 0:
        raise ValueError("preds and s must be equal-length nonempty vectors")
    k = int(s.max()) if k is None else k
    l = int(preds.max()) if l is None else l
    counts = np.bincount(s - 1, minlength=k)
    if counts.min() < 1:
        raise DegenerateGroupError("every sensitive group must appear at least once")
    return _ermi_from_joint(_joint_from_codes(preds, s, l, k))


def soft_distribution(
    theta: ModelParams, ds: TabularDataset, stats: SensitiveStats
) -> tuple[np.ndarray, np.ndarray]:
    """Soft joint p(j, r) = mean_i F_j(x_i) 1{s_i = r} and marginal p(j)."""
    proba = forward(theta.weights, theta.bias, ds.features)  # (l, n)
    return _cell_sums(proba, ds.sensitive - 1, stats.k) / ds.n, proba.mean(axis=1)


def ermi_soft(theta: ModelParams, ds: TabularDataset, stats: SensitiveStats) -> float:
    """ERMI of the randomized classifier that predicts j with probability F_j."""
    joint, marginal = soft_distribution(theta, ds, stats)
    mask = joint > 0
    denom = marginal[:, None] * stats.probabilities[None, :]
    return float((joint[mask] ** 2 / denom[mask]).sum() - 1.0)


def ermi_conditional(
    preds: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    k: int | None = None,
    l: int | None = None,
) -> float:
    """Label-conditional ERMI: sum_y p(y) * ERMI(preds; s | Y = y).

    Zero iff predictions are conditionally independent of the groups given
    the true label, i.e. iff equalized odds holds on this sample.
    """
    preds = np.asarray(preds, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if not preds.shape == s.shape == y.shape or preds.size == 0:
        raise ValueError("preds, s and y must be equal-length nonempty vectors")
    k = int(s.max()) if k is None else k
    l = int(max(preds.max(), y.max())) if l is None else l
    total = 0.0
    for label in np.unique(y):
        mask = y == label
        p_y = mask.mean()
        s_y = s[mask]
        if np.bincount(s_y - 1, minlength=k).min() < 1:
            raise DegenerateConditionalError(
                f"some sensitive group is absent within label class {label}"
            )
        joint = _joint_from_codes(preds[mask], s_y, l, k)
        total += p_y * (_ermi_from_joint(joint) + 1.0)
    return float(total - 1.0)


def _check_dual(theta: ModelParams, w: np.ndarray, stats: SensitiveStats) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (stats.k, theta.l):
        raise ValueError(f"dual must be {(stats.k, theta.l)}, got {w.shape}")
    return w


def psi(
    theta: ModelParams,
    w: np.ndarray,
    x: np.ndarray,
    s: int,
    stats: SensitiveStats,
) -> float:
    """Per-sample saddle value.

    psi = -Tr(W diag(F) W^T) + 2 Tr(W^T P_S^{-1/2} B) - 1 with
    B[r, j] = 1{s = r} F_j(x, theta); strongly concave in W, and the batch
    maximum over W of the averaged psi equals the soft ERMI.
    """
    w = _check_dual(theta, w, stats)
    probs = predict_proba(theta, x)
    quad = float((w ** 2).sum(axis=0) @ probs)
    coupling = float(w[s - 1] @ probs) * stats.inv_sqrt[s - 1]
    return -quad + 2.0 * coupling - 1.0


def psi_grad_w(
    theta: ModelParams,
    w: np.ndarray,
    x: np.ndarray,
    s: int,
    stats: SensitiveStats,
) -> np.ndarray:
    """Exact dual gradient -2 W diag(F) + 2 P_S^{-1/2} B."""
    w = _check_dual(theta, w, stats)
    probs = predict_proba(theta, x)
    grad = -2.0 * w * probs[None, :]
    grad[s - 1] += 2.0 * stats.inv_sqrt[s - 1] * probs
    return grad


def _psi_coeffs(w: np.ndarray, s: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """Coefficients c with psi = c . F - 1 for samples with group codes s."""
    diag_quad = (w ** 2).sum(axis=0)  # (l,)
    return -diag_quad[None, :] + 2.0 * inv_sqrt[s - 1, None] * w[s - 1, :]


def _cell_sums(proba: np.ndarray, cells: np.ndarray, n_cells: int) -> np.ndarray:
    """(l, n_cells) sums of class-major probabilities (l, m) per cell code.

    One bincount over the combined (class, cell) code; cells are 0-based.
    """
    l = proba.shape[0]
    codes = cells + (n_cells * np.arange(l))[:, None]
    return np.bincount(
        codes.ravel(), weights=proba.ravel(), minlength=l * n_cells
    ).reshape(l, n_cells)


def saddle_terms(
    proba: np.ndarray, w: np.ndarray, inv_sqrt: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Batch saddle terms for both fairness notions in one dual layout.

    The dual w is (C, k, l): one k x l block per conditioning stratum, with
    (C, k) group inverse square roots. Demographic parity is C = 1;
    equalized odds has one stratum per label class, C = l. A sample with
    stratum c and group r has cell code c * k + (r - 1) and touches only
    block c. proba is class-major (l, m).

    Returns the per-sample logit gradients of psi (l, m), to be chained
    through the features with mean_param_grad; the batch-mean dual gradient
    (C, k, l), where each block sums its own samples and divides by the full
    batch size; and the batch-mean psi value.
    """
    n_strata, k, l = w.shape
    m = cells.shape[0]
    blocks = w.reshape(n_strata * k, l)
    # per-cell psi coefficients: -diag(W_c^T W_c) + 2 W_c[r] / sqrt(p(r | c))
    diag_quad = np.repeat((w * w).sum(axis=1), k, axis=0)
    table = (2.0 * inv_sqrt.reshape(-1, 1) * blocks - diag_quad).T.copy()  # (l, C k)
    coeffs = table.take(cells, axis=1)  # (l, m)
    per_sample = (proba * coeffs).sum(axis=0)  # c . F
    # the logit gradient of c . F is diag(F) c - F (F . c)
    coeffs -= per_sample
    coeffs *= proba
    joint = _cell_sums(proba, cells, n_strata * k).T.reshape(n_strata, k, l)
    marginal = joint.sum(axis=1, keepdims=True)
    grad_w = (2.0 / m) * (inv_sqrt[:, :, None] * joint - w * marginal)
    return coeffs, grad_w, float(per_sample.sum() / m - 1.0)


def psi_grad_theta(
    theta: ModelParams,
    w: np.ndarray,
    x: np.ndarray,
    s: int,
    stats: SensitiveStats,
) -> np.ndarray:
    """Model gradient of psi, chained through the probability Jacobian.

    psi depends on theta only through F, linearly: psi = sum_j c_j F_j - 1
    with c_j = -(W^T W)_{jj} + 2 W[s, j] / sqrt(p_S(s)), so the gradient is
    J^T c where J is jacobian_proba.
    """
    w = _check_dual(theta, w, stats)
    x = np.asarray(x, dtype=np.float64)
    probs = predict_proba(theta, x)
    c = _psi_coeffs(w, np.array([s]), stats.inv_sqrt)[0]
    # J^T c without materializing J: a = (diag(F) - F F^T) c
    a = probs * c - probs * float(probs @ c)
    return np.concatenate([np.outer(a, x).ravel(), a])


def mean_psi_terms(
    theta: ModelParams,
    w: np.ndarray,
    features: np.ndarray,
    s: np.ndarray,
    stats: SensitiveStats,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Batch-averaged (theta-gradient, W-gradient, psi value) in one pass.

    Equivalent to averaging the per-sample psi_grad_* functions; the
    demographic-parity case of saddle_terms (a single stratum).
    """
    features = np.asarray(features, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    proba = forward(theta.weights, theta.bias, features)
    dlogits, grad_w, value = saddle_terms(
        proba, w[None], stats.inv_sqrt[None], np.asarray(s, dtype=np.int64) - 1
    )
    return mean_param_grad(dlogits, features), grad_w[0], value


def inner_max_closed_form(
    theta: ModelParams, ds: TabularDataset, notion: str = DEMOGRAPHIC_PARITY
) -> np.ndarray:
    """Maximizer of the batch-averaged psi over unconstrained (C, k, l) duals.

    The first-order condition of the strongly concave quadratic gives, per
    stratum c, W*_c[r, j] = p(j, r | c) / (sqrt(p(r | c)) * p(j | c)) with
    soft distributions. A stratum with a zero soft class marginal (a
    saturated model) gets MARGINAL_RIDGE added to its marginals before the
    division.
    """
    cells, inv_sqrt = strata(ds, notion)
    n_strata, k = inv_sqrt.shape
    proba = forward(theta.weights, theta.bias, ds.features)
    sums = _cell_sums(proba, cells, n_strata * k).T.reshape(n_strata, k, theta.l)
    # joint[c, r, j] = p(j, r | c) and marginal[c, j] = p(j | c)
    joint = sums / np.bincount(cells // k, minlength=n_strata)[:, None, None]
    marginal = joint.sum(axis=1)
    saturated = marginal.min(axis=1, keepdims=True) <= 0.0
    marginal = np.where(saturated, marginal + MARGINAL_RIDGE, marginal)
    return joint * inv_sqrt[:, :, None] / marginal[:, None, :]


def dp_violation(preds: np.ndarray, s: np.ndarray, k: int | None = None) -> float:
    """Worst-case gap max_{j, r1, r2} |P[yhat=j | s=r1] - P[yhat=j | s=r2]|."""
    preds = np.asarray(preds, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    if preds.shape != s.shape or preds.size == 0:
        raise ValueError("preds and s must be equal-length nonempty vectors")
    k = int(s.max()) if k is None else k
    l = int(preds.max())
    counts = np.bincount(s - 1, minlength=k).astype(float)
    if counts.min() < 1:
        raise DegenerateGroupError("every sensitive group must appear at least once")
    joint = _joint_from_codes(preds, s, l, k)  # rows: class, cols: group
    conditionals = joint / (counts / preds.shape[0])[None, :]
    return float((conditionals.max(axis=1) - conditionals.min(axis=1)).max())


def eo_violation(
    preds: np.ndarray, s: np.ndarray, y: np.ndarray, k: int | None = None, l: int | None = None
) -> float:
    """Worst-case equalized-odds gap.

    For every class j and group pair, compares P[yhat=j | s, y=j] and
    P[yhat=j | s, y!=j] across groups and returns the largest absolute
    difference. Every (class, group) stratum on both sides must be nonempty.
    """
    preds = np.asarray(preds, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if not preds.shape == s.shape == y.shape or preds.size == 0:
        raise ValueError("preds, s and y must be equal-length nonempty vectors")
    k = int(s.max()) if k is None else k
    l = int(max(preds.max(), y.max())) if l is None else l
    worst = 0.0
    for j in range(1, l + 1):
        for stratum in (y == j, y != j):
            rates = np.empty(k)
            for r in range(1, k + 1):
                cell = stratum & (s == r)
                if not cell.any():
                    raise DegenerateConditionalError(
                        f"empty stratum for class {j}, group {r}"
                    )
                rates[r - 1] = (preds[cell] == j).mean()
            worst = max(worst, float(rates.max() - rates.min()))
    return worst
