"""Command-line interface.

Subcommands: train, sweep, calibrate, audit-sensitivity, evaluate, synth.
train and sweep map their flags to one harness.ExperimentConfig (a train run
is a sweep of one cell) and set each run up through harness.plan_run, so
they validate the same flags the same way.
Exit codes: 0 success, 1 audit-sensitivity FAIL (an observed sensitivity
above its closed-form bound), 2 configuration error (including a model whose
logits overflow on the data it is evaluated on), 3 divergence in a train run.
Runs execute sequentially, so results are deterministic for a fixed seed.
train --seed S seeds its run with S, not with sweep's first cell (S, 0, 0, 0).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import nullcontext

import numpy as np

from .classifier import (
    ModelParams,
    load_checkpoint,
    proba_lipschitz_bound,
    save_checkpoint,
)
from .dataset import CHUNK_ROWS, _read_csv, load_csv, sensitive_stats, train_test_split
from .exceptions import DivergenceError, FairdpError
from .fairness import DEMOGRAPHIC_PARITY, EQUALIZED_ODDS, FermiConfig
from .harness import (
    ALL_FEATURES,
    NO_PRIVACY,
    SENSITIVE_ONLY,
    ExperimentConfig,
    SyntheticSpec,
    calibrate_for_run,
    emit_csv,
    evaluate_metrics,
    load_experiment_dataset,
    plan_run,
    run_length,
    run_sweep,
    synth_dataset,
)
from .optimizer import _check_seed, dp_fermi_train
from .privacy import empirical_sensitivity_audit, sensitivity_bounds

NOTIONS = {"dp": DEMOGRAPHIC_PARITY, "eo": EQUALIZED_ODDS}
GRANULARITY_FLAGS = {"sensitive": SENSITIVE_ONLY, "all": ALL_FEATURES, "none": NO_PRIVACY}
# The audit's observed sensitivities are differences of two batch gradients,
# each a sum of m per-sample terms of size up to about 1/sqrt(rho) + D. Where
# a batch attains a bound exactly, rounding can put the observed value about
# m (1 + D) units in the last place above it; AUDIT_ULPS of those are allowed.
AUDIT_ULPS = 4


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="input CSV path")
    p.add_argument("--label-col", default="label")
    p.add_argument("--sensitive-col", default="sensitive")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--notion", choices=sorted(NOTIONS), default="dp")
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--eta-theta", type=float, default=0.01)
    p.add_argument("--eta-w", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--box-radius", type=float, default=1.0)
    p.add_argument("--clip", type=float, default=1.0, help="per-sample loss-gradient clip; 0 disables")
    p.add_argument("--granularity", choices=sorted(GRANULARITY_FLAGS), default="sensitive")
    p.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairdp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="one private fair training run")
    _add_schema_flags(p)
    _add_train_flags(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--out", help="checkpoint JSON path")

    p = sub.add_parser("sweep", help="grid over epsilon, lambda and seeds")
    _add_schema_flags(p)
    _add_train_flags(p)
    p.add_argument("--epsilon", type=float, nargs="+", default=[1.0])
    p.add_argument("--lambda", dest="lam", type=float, nargs="+", default=[0.0])
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", required=True, help="records CSV path")

    p = sub.add_parser("calibrate", help="print the noise/sensitivity table")
    p.add_argument("--epsilon", type=float, nargs="+", required=True)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--l-theta", type=float, default=1.0)
    p.add_argument("--box-radius", type=float, default=1.0)
    p.add_argument("--labels", type=int, default=2, help="number of classes l")
    p.add_argument("--granularity", choices=sorted(GRANULARITY_FLAGS), default="sensitive")
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("audit-sensitivity", help="empirical adjacent-dataset audit")
    _add_schema_flags(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--box-radius", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="metrics of a checkpoint on a dataset")
    _add_schema_flags(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d-x", type=int, default=5)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    return parser


def _clip(value: float) -> float | None:
    """clip_theta from --clip: a finite value >= 0, where 0 turns clipping off."""
    if not 0 <= value < math.inf:
        raise ValueError("--clip must be finite and nonnegative")
    return value if value > 0 else None


def _experiment_config(args, epsilons, lambdas, trials: int) -> ExperimentConfig:
    """The ExperimentConfig of the train and sweep flags."""
    return ExperimentConfig(
        dataset=args.dataset,
        notion=NOTIONS[args.notion],
        lambdas=tuple(lambdas),
        epsilons=tuple(epsilons),
        delta=args.delta,
        trials=trials,
        granularity=GRANULARITY_FLAGS[args.granularity],
        eta_theta=args.eta_theta,
        eta_w=args.eta_w,
        epochs=args.epochs,
        batch_size=args.batch_size,
        box_radius=args.box_radius,
        clip_theta=_clip(args.clip),
        master_seed=args.seed,
        label_col=args.label_col,
        sensitive_col=args.sensitive_col,
    )


def _cmd_train(args) -> int:
    # before the config, so a bad --lambda gets FermiConfig's one-value message
    fermi = FermiConfig(args.lam, NOTIONS[args.notion])
    config = _experiment_config(args, [args.epsilon], [args.lam], trials=1)
    ds = load_experiment_dataset(config)
    train, test = train_test_split(ds, config.test_fraction, config.master_seed)
    del ds  # the split keeps the name tuples; the whole file need not outlive it
    sgda, noise = plan_run(config, train, args.epsilon)
    result = dp_fermi_train(train, ModelParams.zeros(train.l, train.d_x), fermi, sgda, noise)
    metrics = evaluate_metrics(result.params, test)
    print(
        f"T={sgda.T} m={sgda.m} sigma_theta_sq={noise.sigma_theta_sq:.6g} "
        f"sigma_w_sq={noise.sigma_w_sq:.6g}"
    )
    for name, value in metrics.items():
        print(f"{name}={value:.6g}")
    if args.out:
        save_checkpoint(
            result.params,
            args.out,
            metadata={
                "label_names": list(train.label_names or []),
                "sensitive_names": list(train.sensitive_names or []),
                "feature_names": list(train.feature_names or []),
            },
        )
    return 0


def _cmd_sweep(args) -> int:
    config = _experiment_config(args, args.epsilon, args.lam, args.trials)
    emit_csv(run_sweep(config), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    m, T = run_length(args.n, args.batch_size, args.epochs)
    rows = []
    for epsilon in args.epsilon:
        noise = calibrate_for_run(
            GRANULARITY_FLAGS[args.granularity],
            epsilon,
            args.delta,
            T,
            args.n,
            m,
            args.rho,
            args.l_theta,
            args.box_radius,
            args.labels,
        )
        bounds = sensitivity_bounds(args.box_radius, args.l_theta, m, args.rho)
        rows.append(
            [epsilon, args.delta, T, args.n, m, args.rho,
             noise.sigma_theta_sq, noise.sigma_w_sq, bounds.delta_theta, bounds.delta_w]
        )
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epsilon", "delta", "T", "n", "m", "rho",
             "sigma_theta_sq", "sigma_w_sq", "delta_theta", "delta_w"]
        )
        for row in rows:
            writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])
    return 0


def _cmd_audit(args) -> int:
    _check_seed("seed", args.seed)
    ds = load_csv(args.dataset, args.label_col, args.sensitive_col)
    if args.box_radius <= 0:
        raise ValueError("box_radius must be positive")
    if not math.isfinite(args.box_radius):
        raise ValueError("box_radius must be finite")
    rng = np.random.default_rng(args.seed)
    theta = ModelParams(
        rng.normal(scale=0.5, size=(ds.l, ds.d_x)), rng.normal(scale=0.5, size=ds.l)
    )
    w = rng.uniform(-args.box_radius, args.box_radius, size=(ds.k, ds.l))
    observed_theta, observed_w = empirical_sensitivity_audit(
        theta, w, ds, args.trials, args.batch_size, rng
    )
    L_theta = proba_lipschitz_bound(ds.features)
    rho = sensitive_stats(ds).rho
    bounds = sensitivity_bounds(args.box_radius, L_theta, args.batch_size, rho)
    print(f"observed_delta_theta={observed_theta:.6g} bound={bounds.delta_theta:.6g}")
    print(f"observed_delta_w={observed_w:.6g} bound={bounds.delta_w:.6g}")
    ulp = np.finfo(np.float64).eps
    slack = 1.0 + AUDIT_ULPS * ulp * args.batch_size * (1.0 + args.box_radius)
    ok = observed_theta <= bounds.delta_theta * slack and observed_w <= bounds.delta_w * slack
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_evaluate(args) -> int:
    theta, metadata = load_checkpoint(args.checkpoint)
    names = metadata.get("label_names") or []
    ds = _read_csv(args.dataset, args.label_col, args.sensitive_col, names)
    if ds.l > len(names) > 0:
        label = ds.label_names[len(names)]
        raise ValueError(f"label {label!r} is not one of the checkpoint's labels {names}")
    if ds.l != theta.l:  # only possible without label names
        raise ValueError(f"the checkpoint has {theta.l} label classes, the dataset {ds.l}")
    for name, value in evaluate_metrics(theta, ds).items():
        print(f"{name}={value:.6g}")
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n=args.n,
        d_x=args.d_x,
        k=args.k,
        l=args.l,
        bias=args.bias,
        noise_scale=args.noise_scale,
        seed=args.seed,
    )
    ds = synth_dataset(spec)
    # no cell of these rows needs CSV quoting, so one template writes them
    row_format = "%.10g," * ds.d_x + "%d,%d\r\n"
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([f"f{j}" for j in range(ds.d_x)] + ["label", "sensitive"])
        for start in range(0, ds.n, CHUNK_ROWS):
            chunk = slice(start, start + CHUNK_ROWS)
            rows = zip(
                ds.features[chunk].tolist(),
                ds.labels[chunk].tolist(),
                ds.sensitive[chunk].tolist(),
            )
            fh.write("".join([row_format % (*x, y, s) for x, y, s in rows]))
    print(f"wrote {args.out} ({ds.n} rows, {ds.d_x} features)")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
    "audit-sensitivity": _cmd_audit,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # overflow yields inf, which the finiteness checks turn into exit 2
        # or 3; numpy's warning would only print ahead of that error line
        with np.errstate(over="ignore"):
            return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FairdpError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
