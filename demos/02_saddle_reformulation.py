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

from fairdp import (
    ModelParams,
    SyntheticSpec,
    ermi_soft,
    inner_max_closed_form,
    project_box,
    psi,
    psi_grad_theta,
    psi_grad_w,
    sensitive_stats,
    synth_dataset,
)
from fairdp.fairness import mean_psi_terms, soft_distribution

rng = np.random.default_rng(1)
ds = synth_dataset(SyntheticSpec(n=400, d_x=4, bias=0.6, noise_scale=1.0, seed=3))
stats = sensitive_stats(ds)
theta = ModelParams(rng.normal(scale=0.5, size=(ds.l, ds.d_x)), rng.normal(scale=0.5, size=ds.l))

# One sample's saddle value and gradients.
x, s = ds.features[0], int(ds.sensitive[0])
w = rng.normal(size=(ds.k, ds.l))
print(f"psi at a random dual:   {psi(theta, w, x, s, stats):+.4f}")
print(f"psi at the zero dual:   {psi(theta, np.zeros((ds.k, ds.l)), x, s, stats):+.4f}  (always -1)")
print(f"dual gradient norm:     {np.linalg.norm(psi_grad_w(theta, w, x, s, stats)):.4f}")
print(f"model gradient norm:    {np.linalg.norm(psi_grad_theta(theta, w, x, s, stats)):.4f}")

# Closed-form inner maximizer: batch gradient vanishes there, and plugging
# it back in recovers the soft ERMI exactly.
w_star = inner_max_closed_form(theta, ds)[0]  # the single demographic-parity stratum
g_theta, g_w, value = mean_psi_terms(theta, w_star, ds.features, ds.sensitive, stats)
print(f"\nclosed-form maximizer entries:\n{np.round(w_star, 4)}")
print(f"batch dual gradient at maximizer: {np.abs(g_w).max():.2e}  (should be ~0)")
print(f"mean psi at maximizer:  {value:.10f}")
print(f"soft ERMI directly:     {ermi_soft(theta, ds, stats):.10f}")

# Independent confirmation: projected gradient ascent from W = 0 converges
# to the same maximizer. The batch moments are fixed in W, so the ascent
# map is cheap to iterate.
joint, marginal = soft_distribution(theta, ds, stats)
coupling = 2.0 * stats.inv_sqrt[:, None] * joint.T
w_ascent = np.zeros_like(w_star)
eta = 1.0 / (2.0 * marginal.max())
for _ in range(10_000):
    grad = -2.0 * w_ascent * marginal[None, :] + coupling
    w_ascent = project_box(w_ascent + eta * grad, 10.0)
print(f"ascent vs closed form:  {np.abs(w_ascent - w_star).max():.2e}  (entrywise)")
