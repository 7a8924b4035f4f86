"""Noisy two-timescale stochastic gradient descent-ascent.

The fairness trainer (dp_fermi_train) runs noisy projected descent-ascent
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
notions share one dual layout: a (C, k, l) array with (C, k) group inverse
square roots, where demographic parity is the single stratum C = 1 and
equalized odds has one stratum per label class, C = l. Each sample's cell
code stratum * k + group is precomputed once per run, so the joints are one
bincount per step. The dual comes back as a DualMatrix for demographic
parity and a DualStack for equalized odds.

The generic engine (dp_sgda) runs the same update on any min-max problem
given by its gradient oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classifier import (
    ModelParams,
    forward,
    gradient_scale,
    loss_dlogits,
    mean_cross_entropy,
    mean_loss_grad,
    mean_param_grad,
)
from .dataset import TabularDataset, minibatch, sensitive_stats
from .exceptions import DivergenceError
from .fairness import (
    EQUALIZED_ODDS,
    DualMatrix,
    DualStack,
    FermiConfig,
    inner_max_closed_form,
    mean_psi_terms,
    saddle_terms,
)
from .privacy import NoiseScales, gaussian_noise, min_iterations

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
        if self.eta_theta <= 0 or self.eta_w <= 0:
            raise ValueError("step sizes must be positive")
        if self.T < 1 or self.m < 1:
            raise ValueError("T and m must be positive")
        if self.box_radius <= 0:
            raise ValueError("box_radius must be positive")
        if self.clip_theta is not None and self.clip_theta <= 0:
            raise ValueError("clip_theta must be positive when given")
        if self.iterate_rule not in (LAST, UNIFORM_RANDOM):
            raise ValueError(f"unknown iterate rule {self.iterate_rule!r}")


@dataclass(frozen=True)
class SmoothnessProfile:
    """Lipschitz/smoothness constants of a nonconvex-strongly-concave problem.

    These are user-supplied estimates (see estimate_smoothness_profile for a
    rough empirical probe); the step-size and iteration prescriptions consume
    them verbatim.
    """

    L_theta: float
    L_w: float
    beta_theta: float
    beta_w: float
    beta_thetaw: float
    mu: float
    delta_Phi: float
    d_theta: int
    d_w: int

    def __post_init__(self):
        positives = (self.L_theta, self.L_w, self.beta_theta, self.beta_w, self.beta_thetaw, self.mu)
        if any(v <= 0 for v in positives):
            raise ValueError("Lipschitz and smoothness constants must be positive")
        if self.delta_Phi < 0:
            raise ValueError("delta_Phi must be nonnegative")
        if self.beta_w < self.mu:
            raise ValueError("beta_w >= mu is required (kappa_w >= 1)")

    @property
    def kappa_w(self) -> float:
        return self.beta_w / self.mu

    @property
    def kappa_thetaw(self) -> float:
        return self.beta_thetaw / self.mu


@dataclass(frozen=True)
class MinMaxProblem:
    """Stochastic min-max problem seen through its gradient oracles.

    grad_theta / grad_w map (theta, w, batch_indices) to the batch-averaged
    gradients and must be unbiased for the full-batch gradients under
    uniform sampling. project maps a dual point onto the feasible set.
    objective is optional and only used for trace records.
    """

    n: int
    d_theta: int
    d_w: int
    grad_theta: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    grad_w: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    objective: Callable[[np.ndarray, np.ndarray, np.ndarray], float] | None = None


@dataclass(frozen=True)
class TrainResult:
    """Chosen iterate, final dual state, optional trace, and which t was chosen."""

    params: object
    dual: object
    trace: list[dict] | None
    chosen_iterate: int


def project_box(w: np.ndarray, radius: float) -> np.ndarray:
    """Entrywise clamp to [-radius, radius]."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return np.clip(w, -radius, radius)


def _check_finite(arrays, iteration: int, what: str) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise DivergenceError(iteration, what)


class _TraceWriter:
    def __init__(self, every: int, path):
        self.every = every
        self.records: list[dict] | None = [] if every > 0 else None
        self._fh = open(path, "w", encoding="utf-8") if (every > 0 and path) else None

    def log(self, t: int, objective, g_theta_norm: float, g_w_norm: float, w_max: float):
        if self.records is None or t % self.every != 0:
            return
        rec = {
            "iteration": t,
            "objective": None if objective is None else float(objective),
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


def dp_sgda(
    problem: MinMaxProblem,
    config: SgdaConfig,
    noise: NoiseScales,
    rng: np.random.Generator | None = None,
    theta0: np.ndarray | None = None,
    w0: np.ndarray | None = None,
    trace_every: int = 0,
    trace_path=None,
) -> TrainResult:
    """Run T noisy descent-ascent iterations on a generic min-max problem."""
    if config.m > problem.n:
        raise ValueError(f"batch size {config.m} exceeds n={problem.n}")
    rng = np.random.default_rng(config.seed) if rng is None else rng
    theta = np.zeros(problem.d_theta) if theta0 is None else np.array(theta0, dtype=np.float64)
    w = problem.project(np.zeros(problem.d_w)) if w0 is None else np.array(w0, dtype=np.float64)
    chosen = _pick_iterate(rng, config.iterate_rule, config.T)
    snapshot = theta.copy()
    tracer = _TraceWriter(trace_every, trace_path)
    try:
        for t in range(1, config.T + 1):
            batch = minibatch(problem.n, config.m, rng)
            g_theta = problem.grad_theta(theta, w, batch)
            g_w = problem.grad_w(theta, w, batch)
            u = gaussian_noise(rng, noise.sigma_theta_sq, problem.d_theta)
            v = gaussian_noise(rng, noise.sigma_w_sq, problem.d_w)
            theta = theta - config.eta_theta * (g_theta + u)
            w = problem.project(w + config.eta_w * (g_w + v))
            _check_finite((theta, w), t, "iterates")
            if t == chosen:
                snapshot = theta.copy()
            if tracer.records is not None and t % tracer.every == 0:
                obj = problem.objective(theta, w, batch) if problem.objective else None
                tracer.log(t, obj, np.linalg.norm(g_theta), np.linalg.norm(g_w), np.abs(w).max())
    finally:
        tracer.close()
    return TrainResult(params=snapshot, dual=w, trace=tracer.records, chosen_iterate=chosen)


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

    Computes the group statistics once up front (per label class for
    equalized odds), starts the dual at zero, and runs T noisy
    descent-ascent steps on minibatches drawn uniformly with replacement.
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
    eo = fermi.notion == EQUALIZED_ODDS
    if eo:
        stack = DualStack.initial(ds, config.box_radius)
        inv_sqrt = np.stack([st.inv_sqrt for st in stack.stats])
        cells = (ds.labels - 1) * ds.k + (ds.sensitive - 1)
    else:
        inv_sqrt = sensitive_stats(ds).inv_sqrt[None, :]
        cells = ds.sensitive - 1
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
            d_psi, g_w, psi_val = saddle_terms(proba, w, inv_sqrt, cells.take(batch))
            g_theta = mean_param_grad(d_loss + lam * d_psi, x)
            u = gaussian_noise(rng, noise.sigma_theta_sq, theta.size)
            v = gaussian_noise(rng, noise.sigma_w_sq, w.size).reshape(w.shape)
            theta -= config.eta_theta * (g_theta + noise_weight * u)
            w = project_box(w + config.eta_w * (lam * g_w + v), config.box_radius)
            _check_finite((theta, w), t, "iterates")
            if t == chosen:
                snapshot = theta.copy()
            if tracer.records is not None and t % tracer.every == 0:
                tracer.log(
                    t,
                    mean_cross_entropy(proba, labels) + lam * psi_val,
                    np.linalg.norm(g_theta),
                    np.linalg.norm(lam * g_w),
                    np.abs(w).max(),
                )
    finally:
        tracer.close()

    if eo:
        mats = tuple(DualMatrix(block, config.box_radius) for block in w)
        dual = DualStack(mats, stack.stats, stack.label_probs)
    else:
        dual = DualMatrix(w[0], config.box_radius)
    return TrainResult(
        params=ModelParams.from_vector(snapshot, ds.l, ds.d_x),
        dual=dual,
        trace=tracer.records,
        chosen_iterate=chosen,
    )


def recommended_hyperparams(
    profile: SmoothnessProfile, budget, n: int, D: float, m: int
) -> tuple[float, float, int]:
    """Theory-prescribed step sizes and iteration count.

    eta_theta = 1 / (16 kappa_w (beta_theta + beta_thetaw * kappa_thetaw)),
    eta_w = 1 / beta_w, and T proportional to eps * n times the smoothness
    mix, rounded up and floored at min_iterations(n, m, eps).
    """
    epsilon = budget.epsilon
    mix = profile.beta_theta + profile.beta_thetaw * profile.kappa_thetaw
    eta_theta = 1.0 / (16.0 * profile.kappa_w * mix)
    eta_w = 1.0 / profile.beta_w
    scale = math.sqrt(profile.kappa_w * (profile.delta_Phi * mix + profile.beta_thetaw ** 2 * D ** 2))
    per_dim = min(
        1.0 / (profile.L_theta * math.sqrt(profile.d_theta)),
        profile.beta_w
        / (profile.beta_thetaw * profile.L_w * math.sqrt(profile.kappa_w * profile.d_w)),
    )
    T = max(math.ceil(scale * epsilon * n * per_dim), min_iterations(n, m, epsilon))
    return eta_theta, eta_w, T


def stationarity_gap(
    theta: ModelParams, ds: TabularDataset, lam: float, stats=None
) -> float:
    """Norm of the envelope gradient at theta.

    The inner maximizer is available in closed form, so by Danskin's rule
    the gradient of max_W F(theta, W) is the theta-gradient evaluated at
    that maximizer; for lam = 0 this is just the loss gradient norm.
    """
    g = mean_loss_grad(theta, ds.features, ds.labels)
    if lam > 0:
        stats = sensitive_stats(ds) if stats is None else stats
        w_star = inner_max_closed_form(theta, ds, stats).w
        g_psi, _, _ = mean_psi_terms(theta, w_star, ds.features, ds.sensitive, stats)
        g = g + lam * g_psi
    return float(np.linalg.norm(g))


def estimate_smoothness_profile(
    ds: TabularDataset,
    lam: float,
    D: float,
    trials: int,
    rng: np.random.Generator,
    radius: float = 1.0,
) -> SmoothnessProfile:
    """Rough empirical probe of the constants in SmoothnessProfile.

    Samples random parameter/dual pairs within `radius` of the origin (duals
    within the box) and takes maxima of gradient norms and of gradient
    difference ratios. Heuristic only: these are lower estimates of the true
    suprema and should be treated as starting points, not certificates.
    """
    stats = sensitive_stats(ds)
    d_theta = ds.l * ds.d_x + ds.l
    L_theta = L_w = beta_theta = beta_w = beta_thetaw = 1e-12

    def draws():
        vec = rng.normal(size=d_theta) * radius
        w = rng.uniform(-D, D, size=(ds.k, ds.l))
        return ModelParams.from_vector(vec, ds.l, ds.d_x), w

    def grads(params, w):
        g_loss = mean_loss_grad(params, ds.features, ds.labels)
        g_t, g_w, _ = mean_psi_terms(params, w, ds.features, ds.sensitive, stats)
        return g_loss + lam * g_t, lam * g_w

    theta_ref = None
    for _ in range(trials):
        p1, w1 = draws()
        p2, w2 = draws()
        g1_t, g1_w = grads(p1, w1)
        g2_t, g2_w = grads(p2, w1)
        L_theta = max(L_theta, float(np.linalg.norm(g1_t)))
        L_w = max(L_w, float(np.linalg.norm(g1_w)))
        d_params = float(np.linalg.norm(p1.as_vector() - p2.as_vector()))
        if d_params > 1e-12:
            beta_theta = max(beta_theta, float(np.linalg.norm(g2_t - g1_t)) / d_params)
            beta_thetaw = max(beta_thetaw, float(np.linalg.norm(g2_w - g1_w)) / d_params)
        g3_t, g3_w = grads(p1, w2)
        d_w_dist = float(np.linalg.norm(w1 - w2))
        if d_w_dist > 1e-12:
            beta_w = max(beta_w, float(np.linalg.norm(g3_w - g1_w)) / d_w_dist)
            beta_thetaw = max(beta_thetaw, float(np.linalg.norm(g3_t - g1_t)) / d_w_dist)
        if theta_ref is None:
            theta_ref = p1
    # strong concavity modulus of the averaged dual quadratic: 2 lam min marginal
    from .fairness import soft_distribution

    _, marginal = soft_distribution(theta_ref, ds, stats)
    mu = max(2.0 * lam * float(marginal.min()), 1e-12)
    beta_w = max(beta_w, mu)
    return SmoothnessProfile(
        L_theta=L_theta,
        L_w=L_w,
        beta_theta=beta_theta,
        beta_w=beta_w,
        beta_thetaw=beta_thetaw,
        mu=mu,
        delta_Phi=0.0,
        d_theta=d_theta,
        d_w=ds.k * ds.l,
    )
