"""Noisy two-timescale stochastic gradient descent-ascent.

The trainer (dp_fermi_train) runs noisy projected descent-ascent
on cross-entropy plus lam times the per-sample saddle terms:

    theta <- theta - eta_theta * (mean grad_theta loss
                                  + lam * (mean grad_theta psi + u_t))
    W     <- Pi_box(W + eta_w * (lam * mean grad_W psi + V_t))

with u_t ~ N(0, sigma_theta^2 I) and V_t entrywise N(0, sigma_w^2). The
theta noise sits inside the lam bracket, so the injected noise is
effectively lam * u_t; set noise_in_lambda_bracket=False to add u_t
unscaled instead. Everything is deterministic given the seed: per
iteration the batch is drawn first, then u_t, then V_t.

Each step is one fused pass in class-major (l, m) layout. The class
probabilities of the batch are computed once (classifier.forward) and feed
both the clipped loss gradient in the logits (classifier.loss_dlogits) and
the saddle terms (fairness.saddle_terms); the two logit gradients are
summed and chained through the features in a single product. Both fairness
notions share one dual layout, set up once per run by fairness.strata: a
(C, k, l) array with (C, k) group inverse square roots, where demographic
parity is the single stratum C = 1 and equalized odds has one stratum per
label class, C = l. Each sample's cell code stratum * k + group is
precomputed; saddle_terms turns the batch's codes into one (class, cell)
code array per step, which serves both the gather of the per-cell psi
coefficients and the one bincount of the joints. The final dual comes back
as the raw (C, k, l) array.

At lam = 0 every saddle term enters the update multiplied by zero, so the
step skips them: no saddle_terms call, theta takes the plain loss step and
W moves by projected noise alone, W <- Pi_box(W + eta_w * V_t). The draws
are the same (batch, u_t, V_t), and adding 0 * x to a number leaves it as
it is for any finite x (up to the sign of a zero), so params, dual and trace
equal those of the full step; the trace records the cross-entropy as the
objective and 0 as the dual gradient norm. The full step differs only where
its saddle terms are not finite, which needs |W| above about 1e154: there
it turns theta into NaN, although the lam = 0 objective does not depend on W.

stationarity_gap measures how far a model is from a stationary point of the
envelope max_W F(theta, W), using the closed-form inner maximum on the same
layout for both notions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .classifier import (
    ModelParams,
    forward,
    gradient_scale,
    loss_dlogits,
    mean_cross_entropy,
    mean_param_grad,
)
from .dataset import TabularDataset, minibatch
from .exceptions import DivergenceError
from .fairness import FermiConfig, _inner_max, saddle_terms, strata
from .privacy import NoiseScales, gaussian_noise

LAST = "last"
UNIFORM_RANDOM = "uniform_random"


@dataclass(frozen=True)
class SgdaConfig:
    """Step sizes, iteration budget, batch size and dual box for one run."""

    eta_theta: float
    eta_w: float
    T: int
    m: int
    box_radius: float
    clip_theta: float | None = None
    iterate_rule: str = LAST
    seed: int = 0

    def __post_init__(self):
        # 0 < v < inf also rejects NaN, which fails every comparison
        if not (0 < self.eta_theta < math.inf and 0 < self.eta_w < math.inf):
            raise ValueError("step sizes must be positive and finite")
        if self.T < 1 or self.m < 1:
            raise ValueError("T and m must be positive")
        if not 0 < self.box_radius < math.inf:
            raise ValueError("box_radius must be positive and finite")
        if self.clip_theta is not None and not 0 < self.clip_theta < math.inf:
            raise ValueError("clip_theta must be positive and finite when given")
        if self.iterate_rule not in (LAST, UNIFORM_RANDOM):
            raise ValueError(f"unknown iterate rule {self.iterate_rule!r}")


@dataclass(frozen=True)
class TrainResult:
    """Chosen iterate, final (C, k, l) dual, optional trace, and which t was chosen."""

    params: ModelParams
    dual: np.ndarray
    trace: list[dict] | None
    chosen_iterate: int


def project_box(w: np.ndarray, radius: float) -> np.ndarray:
    """Entrywise clamp to [-radius, radius]."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return w.clip(-radius, radius)


def _check_finite(arrays, iteration: int, what: str) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise DivergenceError(iteration, what)


class _TraceWriter:
    def __init__(self, every: int, path):
        self.every = every
        self.records: list[dict] | None = [] if every > 0 else None
        self._fh = open(path, "w", encoding="utf-8") if (every > 0 and path) else None

    def log(self, t: int, objective: float, g_theta_norm: float, g_w_norm: float, w_max: float):
        rec = {
            "iteration": t,
            "objective": float(objective),
            "grad_theta_norm": float(g_theta_norm),
            "grad_w_norm": float(g_w_norm),
            "w_max_abs": float(w_max),
        }
        self.records.append(rec)
        if self._fh is not None:
            self._fh.write(json.dumps(rec) + "\n")

    def close(self):
        if self._fh is not None:
            self._fh.close()


def _pick_iterate(rng: np.random.Generator, rule: str, T: int) -> int:
    """Iteration whose theta is returned; drawn up front so memory stays O(1)."""
    if rule == UNIFORM_RANDOM:
        return int(rng.integers(1, T + 1))
    return T


def dp_fermi_train(
    ds: TabularDataset,
    theta0: ModelParams,
    fermi: FermiConfig,
    config: SgdaConfig,
    noise: NoiseScales,
    rng: np.random.Generator | None = None,
    trace_every: int = 0,
    trace_path=None,
    noise_in_lambda_bracket: bool = True,
) -> TrainResult:
    """Fairness-regularized private training loop.

    Sets up the cell codes and group statistics once (fairness.strata),
    starts the (C, k, l) dual at zero, and runs T noisy descent-ascent
    steps on minibatches drawn uniformly with replacement.
    Per-sample clipping, when configured, applies to the loss gradient only;
    the saddle gradients are already bounded by the box radius and the
    probability-map Lipschitz constant. Non-finite logits raise
    DivergenceError(t, "logits"); non-finite iterates raise
    DivergenceError(t, "iterates").
    """
    if config.m > ds.n:
        raise ValueError(f"batch size {config.m} exceeds n={ds.n}")
    if theta0.d_x != ds.d_x or theta0.l != ds.l:
        raise ValueError("model dimensions do not match the dataset")
    rng = np.random.default_rng(config.seed) if rng is None else rng
    cells, inv_sqrt = strata(ds, fermi.notion)
    scale = None if config.clip_theta is None else gradient_scale(ds.features)
    w = np.zeros((inv_sqrt.shape[0], ds.k, ds.l))
    theta = theta0.as_vector()
    # views into theta, which every step updates in place
    weights = theta[: ds.l * ds.d_x].reshape(ds.l, ds.d_x)
    bias = theta[ds.l * ds.d_x :]
    lam = fermi.lam
    noise_weight = lam if noise_in_lambda_bracket else 1.0
    chosen = _pick_iterate(rng, config.iterate_rule, config.T)
    snapshot = theta.copy()
    tracer = _TraceWriter(trace_every, trace_path)

    try:
        for t in range(1, config.T + 1):
            batch = minibatch(ds.n, config.m, rng)
            x = ds.features.take(batch, axis=0)
            labels = ds.labels.take(batch)
            try:
                proba = forward(weights, bias, x)
            except FloatingPointError:
                raise DivergenceError(t, "logits") from None
            d_loss = loss_dlogits(
                proba, labels, config.clip_theta, None if scale is None else scale.take(batch)
            )
            if lam > 0:
                d_psi, g_w, psi_val = saddle_terms(proba, w, inv_sqrt, cells.take(batch))
                d_loss += lam * d_psi
            g_theta = mean_param_grad(d_loss, x)
            u = gaussian_noise(rng, noise.sigma_theta_sq, theta.size)
            v = gaussian_noise(rng, noise.sigma_w_sq, w.size).reshape(w.shape)
            theta -= config.eta_theta * (g_theta + noise_weight * u)
            if lam > 0:
                v = lam * g_w + v
            w = project_box(w + config.eta_w * v, config.box_radius)
            _check_finite((theta, w), t, "iterates")
            if t == chosen:
                snapshot = theta.copy()
            if tracer.records is not None and t % tracer.every == 0:
                objective, g_w_norm = mean_cross_entropy(proba, labels), 0.0
                if lam > 0:
                    objective, g_w_norm = objective + lam * psi_val, np.linalg.norm(lam * g_w)
                tracer.log(t, objective, np.linalg.norm(g_theta), g_w_norm, np.abs(w).max())
    finally:
        tracer.close()
    return TrainResult(
        params=ModelParams.from_vector(snapshot, ds.l, ds.d_x),
        dual=w,
        trace=tracer.records,
        chosen_iterate=chosen,
    )


def stationarity_gap(theta: ModelParams, ds: TabularDataset, fermi: FermiConfig) -> float:
    """Norm of the envelope gradient at theta.

    The inner maximizer is available in closed form for both notions, so by
    Danskin's rule the gradient of max_W F(theta, W) is the theta-gradient
    at that maximizer: the loss and saddle logit gradients on the full
    dataset, chained through the features. For lam = 0 this is the norm of
    the loss gradient.
    """
    proba = forward(theta.weights, theta.bias, ds.features)
    dlogits = loss_dlogits(proba, ds.labels)
    if fermi.lam > 0:
        cells, inv_sqrt = strata(ds, fermi.notion)
        w_star = _inner_max(proba, cells, inv_sqrt)
        dlogits = dlogits + fermi.lam * saddle_terms(proba, w_star, inv_sqrt, cells)[0]
    return float(np.linalg.norm(mean_param_grad(dlogits, ds.features)))
