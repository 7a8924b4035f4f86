"""Multinomial logistic model: probabilities, cross-entropy gradients, checkpoints.

The batch kernels work class-major: `forward` returns an (l, m) array of
probabilities, `loss_dlogits` turns it into per-sample logit gradients
(clipped on request), and `mean_param_grad` chains any such (l, m) logit
gradients through the features to a mean parameter gradient. The training
step, the stationarity gap and the sensitivity audit run on them.
The three kernels follow numpy's `out=` convention: given a buffer, they
write their result into it and return it, with the same arithmetic in
the same order as the allocating call, so the two agree bit for bit. The
training step passes the buffers of its per-run workspace.
Parameter vectors are flattened as concat(weights row-major, bias).
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .dataset import _frozen_array
from .exceptions import CheckpointError

# Rows squared at a time by proba_lipschitz_bound.
LIPSCHITZ_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ModelParams:
    """Weights (l, d_x) and bias (l,) of a softmax-linear classifier.

    Held by TabularDataset's rule: a read-only float64 input that owns its
    memory is kept as it is, any other is stored as a read-only copy, so
    later writes to a writeable input do not reach the model.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weights = _frozen_array(self.weights, np.float64)
        bias = _frozen_array(self.bias, np.float64)
        if weights.ndim != 2 or bias.ndim != 1 or weights.shape[0] != bias.shape[0]:
            raise ValueError("weights must be (l, d_x) with a matching length-l bias")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise ValueError("model parameters must be finite")
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


def proba_lipschitz_bound(features: np.ndarray) -> float:
    """Upper bound on the Frobenius norm of dF(x, theta)/dtheta over the rows.

    ||diag(F) - F F^T||_F <= 1/2 on the simplex, so the Jacobian norm is at
    most 0.5 * sqrt(max ||x||^2 + 1). This is the Lipschitz constant of the
    probability map used by noise calibration and the sensitivity audit.
    """
    features = np.asarray(features, dtype=np.float64)
    rows = features.reshape(-1, features.shape[-1])
    # squared in row blocks rather than all at once; each row's sum, and so
    # the max, has the same bits. An overflow gives inf, which calibration
    # refuses or the run reports as diverged, whatever the warning filter
    with np.errstate(over="ignore"):
        sq_norms = [
            (rows[i : i + LIPSCHITZ_BLOCK_ROWS] ** 2).sum(axis=-1).max()
            for i in range(0, rows.shape[0], LIPSCHITZ_BLOCK_ROWS)
        ]
    return float(0.5 * np.sqrt(np.max(sq_norms) + 1.0))


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
    """The model and metadata of a save_checkpoint file. CheckpointError
    names the path of a file that is not UTF-8 JSON, and the first field
    that is missing or malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"checkpoint {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    if missing := [name for name in ("l", "d_x", "weights", "bias") if name not in payload]:
        raise CheckpointError(f"checkpoint has no {missing[0]!r} field")
    l, d_x = payload["l"], payload["d_x"]
    if not (type(l) is type(d_x) is int and l > 0 and d_x > 0):
        raise CheckpointError("checkpoint fields 'l' and 'd_x' must be positive integers")
    weights = _numbers(payload, "weights", l * d_x).reshape(l, d_x)
    theta = ModelParams(weights, _numbers(payload, "bias", l))
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CheckpointError("checkpoint field 'metadata' must be a JSON object")
    for field, count in (("label_names", l), ("feature_names", d_x)):
        names = metadata.get(field) or []
        strings = isinstance(names, list) and all(isinstance(name, str) for name in names)
        if not (strings and len(set(names)) == len(names) in (0, count)):
            raise CheckpointError(f"checkpoint field {field!r} must list {count} distinct names")
    return theta, metadata


def _numbers(payload: dict, name: str, size: int) -> np.ndarray:
    """payload[name] as a float64 vector of the given size: a list of JSON
    numbers, which are finite; a string, a bool, NaN or an infinity is not
    one."""
    value = payload[name]
    if isinstance(value, list) and len(value) == size:
        if all(type(v) in (int, float) for v in value):
            with suppress(OverflowError):  # an integer beyond float64's range
                numbers = np.array(value, dtype=np.float64)
                if np.isfinite(numbers).all():
                    return numbers
    raise CheckpointError(f"checkpoint field {name!r} must hold {size} numbers")
