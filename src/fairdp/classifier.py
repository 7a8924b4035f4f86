"""Multinomial logistic model: probabilities, cross-entropy, and Jacobians.

The batch kernels work class-major: `forward` returns an (l, m) array of
probabilities, `loss_dlogits` turns it into per-sample logit gradients
(clipped on request), and `mean_param_grad` chains any such (l, m) logit
gradients through the features to a mean parameter gradient. The training
step calls them directly; the batch helpers (mean_loss, mean_loss_grad) are
thin wrappers over them, and the per-sample functions (loss, loss_grad,
jacobian_proba) are the exact references they are tested against.
The three kernels follow numpy's `out=` convention: given a buffer, they
write their result into it and return it, with the same arithmetic in
the same order as the allocating call, so the two agree bit for bit. The
training step passes the buffers of its per-run workspace.
Parameter vectors are flattened as concat(weights row-major, bias).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Probabilities below this are clamped inside loss() so a saturated wrong
# prediction yields a large finite loss; gradients use the analytic form.
PROB_FLOOR = 1e-30


@dataclass(frozen=True)
class ModelParams:
    """Weights (l, d_x) and bias (l,) of a softmax-linear classifier."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        bias = np.array(self.bias, dtype=np.float64)
        if weights.ndim != 2 or bias.ndim != 1 or weights.shape[0] != bias.shape[0]:
            raise ValueError("weights must be (l, d_x) with a matching length-l bias")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise ValueError("model parameters must be finite")
        weights.setflags(write=False)
        bias.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    @property
    def l(self) -> int:
        return self.weights.shape[0]

    @property
    def d_x(self) -> int:
        return self.weights.shape[1]

    @property
    def d_theta(self) -> int:
        return self.l * self.d_x + self.l

    @classmethod
    def zeros(cls, l: int, d_x: int) -> "ModelParams":
        return cls(np.zeros((l, d_x)), np.zeros(l))

    @classmethod
    def from_vector(cls, vec: np.ndarray, l: int, d_x: int) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (l * d_x + l,):
            raise ValueError(f"expected a length-{l * d_x + l} vector")
        return cls(vec[: l * d_x].reshape(l, d_x), vec[l * d_x :])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.bias])


def forward(
    weights: np.ndarray, bias: np.ndarray, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Class-major softmax probabilities of the rows of x.

    weights (l, d_x), bias (l,) and a batch x (m, d_x) give an (l, m) array
    whose column i is F(x_i, theta). The class axis comes first so the max
    and sum reductions of the softmax run across contiguous rows. Raises
    FloatingPointError if a logit is not finite. Given a C-contiguous (l, m)
    float64 `out`, the probabilities are written into it and it is returned.
    """
    logits = np.matmul(weights, x.T, out=out)
    logits += bias[:, None]
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


def predict_proba(theta: ModelParams, x: np.ndarray) -> np.ndarray:
    """Softmax of weights @ x + bias, computed with max subtraction.

    Accepts a single feature vector (d_x,) or a batch (n, d_x); the result
    lies on the probability simplex row-wise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != theta.d_x:
        raise ValueError(f"expected feature dimension {theta.d_x}, got {x.shape[-1]}")
    probs = forward(theta.weights, theta.bias, x.reshape(-1, theta.d_x)).T
    return probs.reshape(x.shape[:-1] + (theta.l,))


def predict_label(theta: ModelParams, x: np.ndarray):
    """Argmax class in 1..l; ties break toward the smallest index."""
    probs = predict_proba(theta, x)
    labels = np.argmax(probs, axis=-1) + 1
    return labels if labels.ndim else int(labels)


def loss(theta: ModelParams, x: np.ndarray, y: int) -> float:
    """Cross-entropy -log F_y(x, theta), capped at -log(PROB_FLOOR)."""
    if not 1 <= y <= theta.l:
        raise ValueError(f"label {y} out of range 1..{theta.l}")
    p = predict_proba(theta, x)[y - 1]
    return float(-np.log(max(p, PROB_FLOOR)))


def loss_grad(theta: ModelParams, x: np.ndarray, y: int) -> np.ndarray:
    """Exact gradient of loss() in the flattened parameter vector."""
    if not 1 <= y <= theta.l:
        raise ValueError(f"label {y} out of range 1..{theta.l}")
    x = np.asarray(x, dtype=np.float64)
    dlogits = predict_proba(theta, x)
    dlogits[y - 1] -= 1.0
    return np.concatenate([np.outer(dlogits, x).ravel(), dlogits])


def jacobian_proba(theta: ModelParams, x: np.ndarray) -> np.ndarray:
    """(l, d_theta) matrix whose row j is the gradient of F_j(x, theta).

    Rows sum to zero because the probabilities sum to one.
    """
    x = np.asarray(x, dtype=np.float64)
    probs = predict_proba(theta, x)
    # dF/dlogits = diag(F) - F F^T, then chain through logits = Wx + b
    a = np.diag(probs) - np.outer(probs, probs)
    weight_part = a[:, :, None] * x[None, None, :]
    return np.concatenate([weight_part.reshape(theta.l, -1), a], axis=1)


def mean_cross_entropy(proba: np.ndarray, labels: np.ndarray) -> float:
    """Average -log F_y over class-major probabilities (l, m) and labels in 1..l."""
    picked = proba[labels - 1, np.arange(labels.shape[0])]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def mean_loss(theta: ModelParams, features: np.ndarray, labels: np.ndarray) -> float:
    """Average cross-entropy over a sample set."""
    features = np.asarray(features, dtype=np.float64)
    return mean_cross_entropy(forward(theta.weights, theta.bias, features), np.asarray(labels))


def gradient_scale(features: np.ndarray) -> np.ndarray:
    """sqrt(||x||^2 + 1) per row: the norm of a sample's full loss gradient
    is the norm of its logit gradient times this factor."""
    return np.sqrt(np.einsum("ij,ij->i", features, features) + 1.0)


def loss_dlogits(
    proba: np.ndarray,
    labels: np.ndarray,
    clip: float | None = None,
    scale: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample cross-entropy gradients in the logits, class-major (l, m).

    Column i is F(x_i) - onehot(y_i). With `clip`, each column is rescaled
    so that the sample's full gradient norm, its column norm times
    scale[i] = gradient_scale(x_i), is at most `clip`. An (l, m) float64
    `out` receives the gradients and is returned.
    """
    onehot = labels == np.arange(1, proba.shape[0] + 1)[:, None]
    dlogits = np.subtract(proba, onehot, out=out)
    if clip is not None:
        norms = np.sqrt((dlogits * dlogits).sum(axis=0)) * scale
        dlogits *= np.minimum(1.0, clip / np.maximum(norms, 1e-300))
    return dlogits


def mean_param_grad(
    dlogits: np.ndarray, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Batch mean of per-sample parameter gradients from class-major logit
    gradients (l, m): flattened as concat(weights row-major, bias).

    The weight and bias parts are written straight into their slices of
    the flat vector, which is `out` if given (contiguous float64, length
    l * d_x + l).
    """
    l, d_x = dlogits.shape[0], x.shape[1]
    out = np.empty(l * d_x + l) if out is None else out
    np.matmul(dlogits, x, out=out[: l * d_x].reshape(l, d_x))
    dlogits.sum(axis=1, out=out[l * d_x :])
    out /= x.shape[0]
    return out


def mean_loss_grad(
    theta: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    clip: float | None = None,
) -> np.ndarray:
    """Batch-averaged loss gradient, with optional per-sample l2 clipping.

    Clipping rescales each sample's gradient to norm at most `clip` before
    averaging; the per-sample norm is ||F - onehot(y)|| * sqrt(||x||^2 + 1).
    """
    features = np.asarray(features, dtype=np.float64)
    proba = forward(theta.weights, theta.bias, features)
    scale = None if clip is None else gradient_scale(features)
    return mean_param_grad(loss_dlogits(proba, np.asarray(labels), clip, scale), features)


def proba_lipschitz_bound(features: np.ndarray) -> float:
    """Upper bound on ||jacobian_proba||_F over the given feature rows.

    ||diag(F) - F F^T||_F <= 1/2 on the simplex, so the Jacobian norm is at
    most 0.5 * sqrt(max ||x||^2 + 1). This is the Lipschitz constant of the
    probability map used by noise calibration and the sensitivity audit.
    """
    features = np.asarray(features, dtype=np.float64)
    return float(0.5 * np.sqrt((features ** 2).sum(axis=-1).max() + 1.0))


def save_checkpoint(theta: ModelParams, path, metadata: dict | None = None) -> None:
    """Serialize dims, row-major weights, bias and encoding metadata as JSON."""
    payload = {
        "l": theta.l,
        "d_x": theta.d_x,
        "weights": theta.weights.ravel().tolist(),
        "bias": theta.bias.tolist(),
        "metadata": metadata or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    l, d_x = int(payload["l"]), int(payload["d_x"])
    theta = ModelParams(
        np.array(payload["weights"], dtype=np.float64).reshape(l, d_x),
        np.array(payload["bias"], dtype=np.float64),
    )
    return theta, payload.get("metadata", {})
