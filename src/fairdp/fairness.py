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

Every fairness quantity is computed on one layout: a (C, k, l) table with
one k x l block per conditioning stratum. Demographic parity is the single
stratum C = 1, and equalized odds conditions on the true label, C = l.
strata() maps a dataset and a notion to each sample's 0-based cell code
stratum * k + group and the (C, k) group inverse square roots. The hard
metrics (ermi_hard, given y or not, dp_violation, eo_violation) count
predictions into such a table, ermi_soft sums class probabilities into it,
and one estimator turns a table into ERMI, the label-conditional form being
the p(y)-weighted sum over strata. The dual is a (C, k, l) array on the
same layout: the batch saddle terms (saddle_terms) and the closed-form
inner maximum (inner_max_closed_form) work on it for both notions. Callers
pass cell codes; only this module builds the flat table indices cell * l + j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ModelParams, forward
from .dataset import TabularDataset, _no_samples, group_counts
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
        if not 0 <= self.lam < math.inf:  # also rejects NaN
            raise ValueError("lam must be finite and nonnegative")
        if self.notion not in (DEMOGRAPHIC_PARITY, EQUALIZED_ODDS):
            raise ValueError(f"unknown fairness notion {self.notion!r}")


def strata(
    ds: TabularDataset, notion: str = DEMOGRAPHIC_PARITY
) -> tuple[np.ndarray, np.ndarray]:
    """Cell codes and group statistics of the (C, k, l) layout.

    Returns dataset.group_counts' cell codes, with one stratum (C = 1) for
    demographic parity and one per label class (C = l) for equalized odds,
    and the (C, k) group inverse square roots within each stratum from its
    counts; an empty group, label class or (label, group) cell raises its error.
    """
    if notion not in (DEMOGRAPHIC_PARITY, EQUALIZED_ODDS):
        raise ValueError(f"unknown fairness notion {notion!r}")
    cells, counts = group_counts(ds, by_label=notion == EQUALIZED_ODDS)
    return cells, (counts / counts.sum(axis=1, keepdims=True)) ** -0.5


def _table_codes(cells: np.ndarray, l: int) -> np.ndarray:
    """(l, m) flat indices cell * l + j into a (C, k, l) table.

    Entry (j, i) addresses class j in the cell of sample i, so the codes
    line up with class-major (l, m) probabilities.
    """
    return cells * l + np.arange(l)[:, None]


def _cell_sums(proba: np.ndarray, codes: np.ndarray, n_strata: int, k: int) -> np.ndarray:
    """(C, k, l) sums of class-major probabilities (l, m) per cell.

    codes (l, m) are the _table_codes of the samples' cells; the sums are
    one bincount over them.
    """
    l = proba.shape[0]
    flat = np.bincount(codes.ravel(), weights=proba.ravel(), minlength=n_strata * k * l)
    return flat.reshape(n_strata, k, l)


def _hard_table(preds, s, y=None, k: int | None = None, l: int | None = None) -> np.ndarray:
    """(C, k, l) counts of hard predictions per (stratum, group, class) cell.

    Without y there is one stratum (C = 1); with y each label class is one
    (C = l). k defaults to the largest group code and l to the largest
    predicted (or true) class; codes outside 1..k and 1..l are rejected,
    and without y a group that does not appear raises DegenerateGroupError
    naming it as dataset.group_counts does.
    """
    names = ("preds", "s") if y is None else ("preds", "s", "y")
    codes = dict(zip(names, (np.asarray(c, dtype=np.int64) for c in (preds, s, y))))
    preds, s = codes["preds"], codes["s"]
    if preds.ndim != 1 or preds.size == 0 or any(c.shape != preds.shape for c in codes.values()):
        listed = f"{', '.join(names[:-1])} and {names[-1]}"
        raise ValueError(f"{listed} must be equal-length nonempty vectors")
    k = int(s.max()) if k is None else k
    l = int(max(preds.max(), codes.get("y", preds).max())) if l is None else l
    for name, c in codes.items():
        top = k if name == "s" else l
        if c.min() < 1 or c.max() > top:
            raise ValueError(f"{name} out of range 1..{top}")
    n_strata, stratum = (l, codes["y"] - 1) if "y" in codes else (1, 0)
    flat = np.bincount((stratum * k + s - 1) * l + preds - 1, minlength=n_strata * k * l)
    table = flat.reshape(n_strata, k, l)
    if y is None and not table.any(axis=2).all():
        raise DegenerateGroupError(_no_samples(table[0].sum(axis=1)))
    return table


def _stratified_ermi(table: np.ndarray) -> float:
    """sum_c (n_c / N) sum_{r,j} J^2 / (A_r B_j) - 1 over a (C, k, l) table.

    J is a cell's mass, A_r and B_j are the group and class sums of its
    stratum c, and n_c / N is the stratum's share of the total mass; empty
    cells contribute 0. The inner sum is the stratum's ERMI plus one, which
    does not depend on the stratum's scale, so counts and probability masses
    give the same value.
    """
    table = np.asarray(table, dtype=np.float64)
    denom = table.sum(axis=2, keepdims=True) * table.sum(axis=1, keepdims=True)
    ratios = np.divide(table * table, denom, out=np.zeros_like(table), where=table > 0)
    mass = table.sum(axis=(1, 2))
    return float(mass @ ratios.sum(axis=(1, 2)) / mass.sum() - 1.0)


def ermi_hard(
    preds: np.ndarray, s: np.ndarray, y=None, k: int | None = None, l: int | None = None
) -> float:
    """ERMI of realized (hard) predictions against sensitive groups.

    Without y the table has one stratum; with y it is the label-conditional
    form sum_y p(y) * ERMI(preds; s | Y = y), zero iff predictions are
    conditionally independent of the groups given the true label, i.e. iff
    equalized odds holds on this sample. Every group in 1..k must appear in
    every nonempty stratum; prediction classes may have zero marginals
    (those cells contribute nothing).
    """
    table = _hard_table(preds, s, y, k, l)
    groups = table.sum(axis=2)  # (C, k) samples per (stratum, group)
    absent = (groups.min(axis=1) == 0) & (groups.max(axis=1) > 0)
    if absent.any():  # only with y: _hard_table refuses an absent group without it
        c = int(np.argmax(absent))
        raise DegenerateConditionalError(f"within label class {c + 1}: {_no_samples(groups[c])}")
    return _stratified_ermi(table)


def ermi_soft(
    theta: ModelParams, ds: TabularDataset, notion: str = DEMOGRAPHIC_PARITY
) -> float:
    """ERMI of the randomized classifier that predicts j with probability F_j.

    The table holds the soft masses sum_i F_j(x_i) per cell of strata(ds,
    notion). For equalized odds this is the label-conditional form
    sum_y p(y) * ERMI_soft(slice y), the saddle value at the closed-form
    inner maximum.
    """
    cells, inv_sqrt = strata(ds, notion)
    proba = forward(theta.weights, theta.bias, ds.features)
    return _stratified_ermi(_cell_sums(proba, _table_codes(cells, ds.l), *inv_sqrt.shape))


def saddle_terms(
    proba: np.ndarray,
    w: np.ndarray,
    inv_sqrt: np.ndarray,
    cells: np.ndarray,
    out: np.ndarray | None = None,
    *,
    value: bool = True,
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Batch saddle terms for both fairness notions in one dual layout.

    The dual w is (C, k, l): one k x l block per conditioning stratum, with
    (C, k) group inverse square roots. Demographic parity is C = 1;
    equalized odds has one stratum per label class, C = l. A sample with
    stratum c and group r has cell code c * k + (r - 1) and touches only
    block c. proba is class-major (l, m).

    Returns the per-sample logit gradients of psi (l, m), to be chained
    through the features with mean_param_grad; the batch-mean dual gradient
    (C, k, l), where each block sums its own samples and divides by the full
    batch size; and the batch-mean psi value, or None with value=False.
    cells holds the batch's (m,) cell codes. An (l, m) float64 `out`
    receives the logit gradients and is returned in their place.
    """
    n_strata, k, l = w.shape
    m = proba.shape[1]
    # one flat (cell, class) index per entry of proba, for the gather and the joints
    codes = _table_codes(cells, l)
    # per-cell psi coefficients -diag(W_c^T W_c) + 2 W_c[r] / sqrt(p(r | c))
    diag_quad = (w * w).sum(axis=1)
    table = 2.0 * inv_sqrt[:, :, None] * w - diag_quad[:, None, :]
    # every code indexes the flat table (an out-of-range one would also
    # break the bincount below), and mode="clip" lets take write straight
    # into `out`, where mode="raise" copies through a temporary
    coeffs = table.ravel().take(codes, out=out, mode="clip")  # (l, m)
    per_sample = (proba * coeffs).sum(axis=0)  # c . F
    # the logit gradient of c . F is diag(F) c - F (F . c)
    coeffs -= per_sample
    coeffs *= proba
    joint = _cell_sums(proba, codes, n_strata, k)
    marginal = joint.sum(axis=1, keepdims=True)
    grad_w = (2.0 / m) * (inv_sqrt[:, :, None] * joint - w * marginal)
    return coeffs, grad_w, float(per_sample.sum() / m - 1.0) if value else None


def _inner_max(proba: np.ndarray, cells: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """Closed-form (C, k, l) maximizer from class-major probabilities of every sample."""
    n_strata, k = inv_sqrt.shape
    # joint[c, r, j] = p(j, r | c) and marginal[c, j] = p(j | c)
    joint = _cell_sums(proba, _table_codes(cells, proba.shape[0]), n_strata, k)
    joint /= np.bincount(cells // k, minlength=n_strata)[:, None, None]
    marginal = joint.sum(axis=1)
    saturated = marginal.min(axis=1, keepdims=True) <= 0.0
    marginal = np.where(saturated, marginal + MARGINAL_RIDGE, marginal)
    return joint * inv_sqrt[:, :, None] / marginal[:, None, :]


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
    return _inner_max(forward(theta.weights, theta.bias, ds.features), cells, inv_sqrt)


def dp_violation(preds: np.ndarray, s: np.ndarray, k: int | None = None) -> float:
    """Worst-case gap max_{j, r1, r2} |P[yhat=j | s=r1] - P[yhat=j | s=r2]|."""
    table = _hard_table(preds, s, None, k)[0]  # (k, l)
    rates = table / table.sum(axis=1, keepdims=True)
    return float((rates.max(axis=0) - rates.min(axis=0)).max())


def eo_violation(
    preds: np.ndarray, s: np.ndarray, y: np.ndarray, k: int | None = None, l: int | None = None
) -> float:
    """Worst-case equalized-odds gap.

    For every class j and group pair, compares P[yhat=j | s, y=j] and
    P[yhat=j | s, y!=j] across groups and returns the largest absolute
    difference. Every (class, group) stratum on both sides must be nonempty.
    """
    table = _hard_table(preds, s, y, k, l)  # [y - 1, s - 1, yhat - 1]
    classes = np.arange(table.shape[0])
    hits = table[classes, :, classes]  # (l, k): yhat = j among y = j
    sizes = table.sum(axis=2)  # (l, k): y = j
    # (l, 2, k): the y = j and y != j sides of class j, per group
    hits = np.stack([hits, table.sum(axis=0).T - hits], axis=1)
    sizes = np.stack([sizes, sizes.sum(axis=0) - sizes], axis=1)
    if sizes.min() == 0:
        j, _, r = (int(v) + 1 for v in np.argwhere(sizes == 0)[0])
        raise DegenerateConditionalError(f"empty stratum for class {j}, group {r}")
    rates = hits / sizes
    return float((rates.max(axis=2) - rates.min(axis=2)).max())
