"""End-to-end private fair training and the tradeoff it buys.

Trains a logistic model on biased synthetic data at epsilon = 3 twice:
once as a plain private baseline (lambda = 0) and once with the fairness
penalty (lambda = 2), then sweeps lambda to show violation falling while
test error rises, and writes the records to CSV.
"""

import tempfile
from pathlib import Path

from fairdp import (
    SENSITIVE_ONLY,
    ExperimentConfig,
    FermiConfig,
    ModelParams,
    SyntheticSpec,
    aggregate,
    emit_csv,
    evaluate_metrics,
    dp_fermi_train,
    plan_run,
    run_sweep,
    synth_dataset,
    train_test_split,
)

spec = SyntheticSpec(n=6000, d_x=5, bias=0.9, noise_scale=1.25, seed=0)
ds = synth_dataset(spec)
train, test = train_test_split(ds, 0.25, seed=7)
# T, the batch size m and the noise as `fairdp train` plans them: 200 epochs
# of batches of up to 1024, sensitive-only privacy, box radius 3
sgda, noise = plan_run(ExperimentConfig(spec, epsilons=(3.0,), box_radius=3.0), train, 3.0)
print(
    f"T={sgda.T}, batch={sgda.m}, sigma_theta^2={noise.sigma_theta_sq:.4f}, "
    f"sigma_w^2={noise.sigma_w_sq:.6f}\n"
)

for lam in (0.0, 2.0):
    result = dp_fermi_train(
        train, ModelParams.zeros(train.l, train.d_x), FermiConfig(lam), sgda, noise
    )
    metrics = evaluate_metrics(result.params, test)
    print(
        f"lambda={lam}: test error {metrics['error']:.3f}, "
        f"dp gap {metrics['dp_violation']:.3f}, eo gap {metrics['eo_violation']:.3f}, "
        f"hard ERMI {metrics['ermi_hard']:.3f}"
    )

# The full sweep: 6 lambda values x 3 seeds at one privacy level.
config = ExperimentConfig(
    dataset=spec,
    lambdas=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5),
    epsilons=(3.0,),
    trials=3,
    granularity=SENSITIVE_ONLY,
    eta_theta=0.01,
    eta_w=0.01,
    epochs=200,
    batch_size=1024,
    box_radius=3.0,
    clip_theta=1.0,
    master_seed=7,
)
records = run_sweep(config)
out = Path(tempfile.gettempdir()) / "tradeoff_records.csv"
emit_csv(records, out)
print(f"\nwrote {len(records)} records to {out}")

print("\nlambda   mean dp gap   mean test error")
for row in aggregate(records):
    print(f"{row['lam']:6.1f}   {row['dp_violation_mean']:11.3f}   {row['test_error_mean']:15.3f}")
