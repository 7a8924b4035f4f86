"""Datasets, group statistics, and how dependence between predictions and
sensitive groups is measured.

Generates a synthetic tabular dataset whose labels are skewed toward one
class inside one group, then walks through the empirical metrics: the
demographic-parity gap, the equalized-odds gap, and the ERMI dependence
score in its hard, soft, and label-conditional forms.
"""

import numpy as np

from fairdp import (
    ModelParams,
    SyntheticSpec,
    dp_violation,
    eo_violation,
    ermi_hard,
    ermi_soft,
    predict_label,
    sensitive_stats,
    synth_dataset,
    train_test_split,
)

spec = SyntheticSpec(n=4000, d_x=5, k=2, l=2, bias=0.8, noise_scale=1.0, seed=0)
ds = synth_dataset(spec)
train, test = train_test_split(ds, test_fraction=0.25, seed=0)
print(f"dataset: n={ds.n}, d_x={ds.d_x}, classes={ds.l}, groups={ds.k}")

stats = sensitive_stats(train)
print(f"group fractions: {np.round(stats.probabilities, 3)}, rho={stats.rho:.3f}")
print(f"P_S^(-1/2) diagonal: {np.round(stats.inv_sqrt, 4)}")

# With bias > 0, group 2's labels lean toward class 2.
for r in (1, 2):
    rate = (train.labels[train.sensitive == r] == 2).mean()
    print(f"P(y = 2 | group {r}) = {rate:.3f}")

# A crude "model": predict the label each group leans toward. Its hard
# predictions are maximally group-dependent, which every metric flags.
preds = train.sensitive.copy()
print("\npredicting each sample's group-preferred class:")
print(f"  demographic parity gap: {dp_violation(preds, train.sensitive):.3f}")
print(f"  equalized odds gap:     {eo_violation(preds, train.sensitive, train.labels):.3f}")
print(f"  hard ERMI:              {ermi_hard(preds, train.sensitive):.3f}  (1.0 = k - 1)")

# Constant predictions carry no group information at all.
constant = np.ones(train.n, dtype=int)
print("\npredicting a constant class:")
print(f"  demographic parity gap: {dp_violation(constant, train.sensitive):.3f}")
print(f"  hard ERMI:              {ermi_hard(constant, train.sensitive):.3f}")

# The soft ERMI scores the randomized classifier that samples a class from
# the predicted distribution. At theta = 0 every sample gets the uniform
# distribution, so predictions factorize from the groups exactly.
theta0 = ModelParams.zeros(train.l, train.d_x)
print(f"\nsoft ERMI at theta = 0: {ermi_soft(theta0, train):.2e}")

# Given the true labels, ermi_hard is the conditional variant, which only
# penalizes dependence within label strata.
preds = predict_label(theta0, train.features)
print(
    "conditional ERMI of uniform-model argmax predictions: "
    f"{ermi_hard(preds, train.sensitive, train.labels, k=train.k, l=train.l):.2e}"
)
