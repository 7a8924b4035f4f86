"""Noise calibration and an empirical check of the sensitivity bounds.

The Gaussian noise injected per iteration is calibrated in closed form
from (epsilon, delta, T, n, rho) and the problem constants D (dual box
radius) and L (Lipschitz constant of the probability map). The calibration
rests on worst-case bounds for how much the batch-averaged saddle
gradients can change when one person's sensitive attribute flips; the
audit hammers those bounds with random adjacent-dataset pairs.
"""

import numpy as np

from fairdp import ALL_FEATURES, SENSITIVE_ONLY, ModelParams, SyntheticSpec, synth_dataset
from fairdp.classifier import proba_lipschitz_bound
from fairdp.dataset import group_counts
from fairdp.privacy import (
    PrivacyBudget,
    calibrate,
    empirical_sensitivity_audit,
    min_iterations,
    sensitivities,
)

ds = synth_dataset(SyntheticSpec(n=2000, d_x=4, bias=0.5, noise_scale=1.0, seed=5))
rho = float((group_counts(ds)[1][0] / ds.n).min())  # the smallest group fraction
L = proba_lipschitz_bound(ds.features)
D = 1.0
m = 100
T = 400
print(f"n={ds.n}, rho={rho:.3f}, L={L:.3f}, D={D}, m={m}, T={T}")
print(f"iteration floor for eps=1: {min_iterations(ds.n, m, 1.0)} (T must be at least this)\n")

print("epsilon  sigma_theta^2(sens)  sigma_w^2(sens)  sigma_theta^2(all)  sigma_w^2(all)")
for eps in (0.5, 1.0, 3.0, 9.0):
    budget = PrivacyBudget(eps, 1e-5)
    # the batch size cancels in sigma^2 = z^2 Delta^2, so m = 1 gives the same noise
    sens = calibrate(SENSITIVE_ONLY, budget, T, ds.n, 1, rho, L, D)
    full = calibrate(ALL_FEATURES, budget, T, ds.n, 1, rho, L, D, ds.l)
    print(
        f"{eps:7.1f}  {sens.sigma_theta_sq:19.6f}  {sens.sigma_w_sq:15.6f}"
        f"  {full.sigma_theta_sq:18.6f}  {full.sigma_w_sq:14.6f}"
    )

# Worst-case per-update sensitivities, and what random adjacent pairs
# actually achieve. The observed maxima must stay below the bounds.
rng = np.random.default_rng(7)
theta = ModelParams(rng.normal(scale=0.5, size=(ds.l, ds.d_x)), rng.normal(scale=0.5, size=ds.l))
w = rng.uniform(-D, D, size=(ds.k, ds.l))
print("\n   m   observed d_theta   bound d_theta   observed d_w   bound d_w")
for batch in (5, 10, 50):
    obs_theta, obs_w = empirical_sensitivity_audit(theta, w, ds, trials=500, m=batch, rng=rng)
    bound = sensitivities(SENSITIVE_ONLY, D, L, batch, rho)
    print(
        f"{batch:4d}   {obs_theta:16.4f}   {bound.delta_theta:13.4f}"
        f"   {obs_w:12.4f}   {bound.delta_w:9.4f}"
    )
