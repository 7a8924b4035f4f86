"""Noisy two-timescale stochastic gradient descent-ascent.

The trainer (dp_fermi_train) runs noisy projected descent-ascent
on cross-entropy plus lam times the per-sample saddle terms:

    theta <- theta - eta_theta * (mean grad_theta loss
                                  + lam * (mean grad_theta psi + u_t))
    W     <- Pi_box(W + eta_w * (lam * mean grad_W psi + V_t))

with u_t ~ N(0, sigma_theta^2 I) and V_t entrywise N(0, sigma_w^2); Pi_box
clips each entry of W to [-D, D], D = SgdaConfig.box_radius, in place. The
theta noise sits inside the lam bracket, so the injected noise is lam * u_t.
SgdaConfig.seed, passed as is to np.random.default_rng, is the run's only
seed: per iteration the batch is drawn first, then u_t, then V_t.

Every run returns its last iterate, theta after step T. The utility
theorem's iterate, drawn uniformly from 1..T, is the last iterate of a run
of tau ~ U{1..T} steps with the noise calibrated for T: T only bounds the loop.

Each step is one fused pass in class-major (l, m) layout. The class
probabilities of the batch are computed once (classifier.forward) and feed
both the clipped loss gradient in the logits (classifier.loss_dlogits) and
the saddle terms (fairness.saddle_terms); the two logit gradients are
summed and chained through the features in a single product. Both fairness
notions share one dual layout, set up once per run by fairness.strata: a
(C, k, l) array with (C, k) group inverse square roots, where demographic
parity is the single stratum C = 1 and equalized odds has one stratum per
label class, C = l. Each sample's cell code stratum * k + group is
precomputed; the step passes the batch's cells to saddle_terms, and only
fairness builds table codes from them. The final dual comes back as the
raw (C, k, l) array.

Each dp_fermi_train call builds one workspace, and every step writes its
batch-sized results into it through the kernels' numpy-style out=
arguments instead of allocating them: the gathered batch (x, labels, clip
scale, cell codes), the (l, m) probabilities, loss gradient and psi logit
gradient, and the flat theta gradient. A step still allocates the
minibatch indices, the noise draws, the kernels' (m,) reductions and
(l, m) boolean masks, and saddle_terms' (l, m) table indices and one
(l, m) product. theta and W share one flat buffer, so both are
updated in place and one finiteness check covers them. The gathers use
take(..., out=, mode="clip"): minibatch indices are in range by
construction, and with out= numpy's default mode="raise" copies through a
temporary (a (4096, 40) float64 gather took about 370 us against 140 us
with mode="clip"; numpy 2.4, one core). The arithmetic is that of the
allocating calls, in the same order, so the results are bit for bit the
same. The workspace lives only as long as the call: nothing carries over
from one run to the next.

At lam = 0 every saddle term enters the update multiplied by zero, so the
step skips them: no saddle_terms call, theta takes the plain loss step and
W moves by projected noise alone, W <- Pi_box(W + eta_w * V_t). The draws
are the same (batch, u_t, V_t), and adding 0 * x to a number leaves it as
it is for any finite x (up to the sign of a zero), so params and dual equal
those of the full step. The full step differs only where its saddle terms
are not finite, which needs |W| above about 1e154: there it turns theta
into NaN, although the lam = 0 objective does not depend on W.

stationarity_gap measures how far a model is from a stationary point of the
envelope max_W F(theta, W), using the closed-form inner maximum on the same
layout for both notions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import ModelParams, forward, gradient_scale, loss_dlogits, mean_param_grad
from .dataset import TabularDataset, _check_int, _check_positive_finite, minibatch
from .exceptions import DivergenceError
from .fairness import FermiConfig, _inner_max, saddle_terms, strata
from .privacy import NoiseScales, gaussian_noise


@dataclass(frozen=True)
class SgdaConfig:
    """Step sizes, iteration budget, batch size, dual box and seed of one run.

    The run returns its last iterate; the theorem's uniform iterate is a run
    of tau ~ U{1..T} steps with the noise calibrated for T."""

    eta_theta: float
    eta_w: float
    T: int
    m: int
    box_radius: float
    clip_theta: float | None = None
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        _check_positive_finite("eta_theta", self.eta_theta)
        _check_positive_finite("eta_w", self.eta_w)
        _check_int("T", self.T, 1)
        _check_int("m", self.m, 1)
        _check_positive_finite("box radius D", self.box_radius)  # as in sensitivities
        if self.clip_theta is not None:
            _check_positive_finite("clip_theta", self.clip_theta)
        for part in self.seed if isinstance(self.seed, tuple) else (self.seed,):
            _check_int("seed", part)


@dataclass(frozen=True)
class TrainResult:
    """Last iterate (theta after step T) and final (C, k, l) dual."""

    params: ModelParams
    dual: np.ndarray


def dp_fermi_train(
    ds: TabularDataset,
    theta0: ModelParams,
    fermi: FermiConfig,
    config: SgdaConfig,
    noise: NoiseScales,
) -> TrainResult:
    """Fairness-regularized private training loop.

    Sets up the cell codes and group statistics once (fairness.strata),
    sets the (C, k, l) dual to zero, builds the step's workspace, and
    runs T noisy descent-ascent steps on minibatches drawn uniformly with
    replacement. The inputs are only read.
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
    rng = np.random.default_rng(config.seed)
    cells, inv_sqrt = strata(ds, fermi.notion)
    scale = None if config.clip_theta is None else gradient_scale(ds.features)
    m, l, d_theta = config.m, ds.l, theta0.d_theta
    # theta and the (C, k, l) dual W share one flat buffer, so one
    # finiteness check covers both; every step updates them in place
    iterate = np.zeros(d_theta + inv_sqrt.size * l)
    theta, w = iterate[:d_theta], iterate[d_theta:].reshape(*inv_sqrt.shape, l)
    theta[:] = theta0.as_vector()
    weights, bias = theta[: l * ds.d_x].reshape(l, ds.d_x), theta[l * ds.d_x :]
    lam = fermi.lam
    # the per-run workspace, which every step writes into: the gathered
    # batch, the (l, m) class-major arrays and the flat theta gradient
    x = np.empty((m, ds.d_x))
    labels, cells_b = np.empty(m, ds.labels.dtype), np.empty(m, cells.dtype)
    scale_b = None if scale is None else np.empty(m)
    proba, d_loss, d_psi = np.empty((l, m)), np.empty((l, m)), np.empty((l, m))
    g_theta = np.empty(d_theta)

    # an overflow makes an inf, which the finiteness checks turn into
    # DivergenceError, whatever the warning filter
    with np.errstate(over="ignore"):
        for t in range(1, config.T + 1):
            batch = minibatch(ds.n, m, rng)
            ds.features.take(batch, axis=0, out=x, mode="clip")
            ds.labels.take(batch, out=labels, mode="clip")
            if scale is not None:
                scale.take(batch, out=scale_b, mode="clip")
            try:
                forward(weights, bias, x, out=proba)
            except FloatingPointError:
                raise DivergenceError(t, "logits") from None
            loss_dlogits(proba, labels, config.clip_theta, scale_b, out=d_loss)
            if lam > 0:
                cells.take(batch, out=cells_b, mode="clip")
                _, g_w, _ = saddle_terms(proba, w, inv_sqrt, cells_b, out=d_psi, value=False)
                d_psi *= lam
                d_loss += d_psi
            mean_param_grad(d_loss, x, out=g_theta)
            u = gaussian_noise(rng, noise.sigma_theta_sq, d_theta)
            v = gaussian_noise(rng, noise.sigma_w_sq, w.size).reshape(w.shape)
            # theta <- theta - eta_theta * (g_theta + lam * u)
            u *= lam
            u += g_theta
            u *= config.eta_theta
            theta -= u
            # W <- Pi_box(W + eta_w * (lam * g_w + V_t)); g_w keeps lam * g_w
            if lam > 0:
                g_w *= lam
                v += g_w
            v *= config.eta_w
            v += w
            v.clip(-config.box_radius, config.box_radius, out=w)
            if not np.isfinite(iterate).all():
                raise DivergenceError(t, "iterates")
    return TrainResult(params=ModelParams(weights, bias), dual=w.copy())


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
