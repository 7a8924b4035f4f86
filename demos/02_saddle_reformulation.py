"""The min-max route to a stochastic fairness penalty.

The soft ERMI score is a ratio of averages, so its minibatch gradients are
biased. The trick that unlocks private stochastic training: each sample i
contributes a function psi_i(theta, W), quadratic and strongly concave in
a k x l dual matrix W, and

    max_W  mean_i psi_i(theta, W)  =  soft ERMI(theta).

Minibatch gradients of mean psi_i ARE unbiased, and the inner maximum has
a closed form. This script verifies the pieces numerically.
"""

import numpy as np

from fairdp import DEMOGRAPHIC_PARITY, ModelParams, SyntheticSpec, ermi_soft, synth_dataset
from fairdp.classifier import forward, mean_param_grad
from fairdp.fairness import inner_max_closed_form, saddle_terms, strata

rng = np.random.default_rng(1)
ds = synth_dataset(SyntheticSpec(n=400, d_x=4, bias=0.6, noise_scale=1.0, seed=3))
theta = ModelParams(rng.normal(scale=0.5, size=(ds.l, ds.d_x)), rng.normal(scale=0.5, size=ds.l))
# The saddle terms come from the kernels training runs: demographic parity
# is the single stratum of the (C, k, l) layout that strata() sets up, so a
# k x l dual w enters them as w[None].
cells, inv_sqrt = strata(ds, DEMOGRAPHIC_PARITY)
proba = forward(theta.weights, theta.bias, ds.features)  # class-major (l, n)


def one_sample(w):
    """psi, its dual gradient and its model gradient for sample 0: the
    batch terms of a batch of one."""
    d_psi, g_w, value = saddle_terms(proba[:, :1], w[None], inv_sqrt, cells[:1])
    return value, g_w[0], mean_param_grad(d_psi, ds.features[:1])


w = rng.normal(size=(ds.k, ds.l))
value, g_w, g_theta = one_sample(w)
print(f"psi at a random dual:   {value:+.4f}")
print(f"psi at the zero dual:   {one_sample(np.zeros_like(w))[0]:+.4f}  (always -1)")
print(f"dual gradient norm:     {np.linalg.norm(g_w):.4f}")
print(f"model gradient norm:    {np.linalg.norm(g_theta):.4f}")

# Closed-form inner maximizer: batch gradient vanishes there, and plugging
# it back in recovers the soft ERMI exactly.
w_star = inner_max_closed_form(theta, ds)[0]  # the single demographic-parity stratum
_, g_w, value = saddle_terms(proba, w_star[None], inv_sqrt, cells)
print(f"\nclosed-form maximizer entries:\n{np.round(w_star, 4)}")
print(f"batch dual gradient at maximizer: {np.abs(g_w).max():.2e}  (should be ~0)")
print(f"mean psi at maximizer:  {value:.10f}")
print(f"soft ERMI directly:     {ermi_soft(theta, ds):.10f}")

# Independent confirmation: projected gradient ascent from W = 0 converges
# to the same maximizer. The batch moments are fixed in W, so the ascent
# map is cheap to iterate.
joint = np.stack([proba[:, ds.sensitive == r].sum(axis=1) for r in range(1, ds.k + 1)]) / ds.n
marginal = proba.mean(axis=1)
coupling = 2.0 * inv_sqrt[0][:, None] * joint
w_ascent = np.zeros_like(w_star)
eta = 1.0 / (2.0 * marginal.max())
for _ in range(10_000):
    grad = -2.0 * w_ascent * marginal[None, :] + coupling
    w_ascent = np.clip(w_ascent + eta * grad, -10.0, 10.0)
print(f"ascent vs closed form:  {np.abs(w_ascent - w_star).max():.2e}  (entrywise)")
