"""Command-line interface.

Subcommands: train, sweep, calibrate, audit-sensitivity, evaluate, synth.
train and sweep map their flags to one harness.ExperimentConfig (a train run
is a sweep of one cell) and set each run up through harness.plan_run, so
they validate the same flags the same way before reading any data: --lambda
and --notion in fairness.FermiConfig, --epsilon and --delta in
privacy.PrivacyBudget (as calibrate does), the step sizes, --box-radius and
--clip (0 turns it off) in optimizer.SgdaConfig, then --out.
epsilon <= 2 ln(1/delta) is checked only where noise is calibrated, by
privacy.noise_multiplier. The --out of train, sweep, calibrate and synth
passes one check (_check_out) before any data is read, drawn or computed:
it must not be empty or a directory, its directory must exist, and for
train and sweep it must not be the --dataset file; train, sweep and synth
check their other flags first. Once the data is read and split, train and
sweep refuse a train or test split that lacks a sensitive group before any
run trains, with one line naming the split and the group
(harness._load_split). audit-sensitivity checks every flag before it reads
the dataset, with the lines its bounds and audit print: --seed, then
--box-radius and --batch-size as sensitivities checks them, then a box
radius too large for a verdict, then --trials; only a --batch-size above
the dataset's n is refused after the read.
evaluate reads the columns a checkpoint names, features and labels, by
name; the checkpoint's weights and bias must be finite JSON numbers.
Exit codes: 0 success, 1 audit-sensitivity FAIL (an observed sensitivity
above its closed-form bound), 2 configuration error (also logits that
overflow on the evaluated data, overflowing noise or sensitivity formulas,
an audit --box-radius too large for a verdict and an allocation that fails),
3 train divergence. Results are deterministic for a fixed seed, whether a
sweep or a CSV parse runs in one process or forks across CPUs.
train --seed S seeds its run with S, not with sweep's first cell (S, 0, 0, 0).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .classifier import (
    ModelParams,
    load_checkpoint,
    proba_lipschitz_bound,
    save_checkpoint,
)
from .dataset import CHUNK_ROWS, _check_int, _read_csv, load_csv, sensitive_stats
from .exceptions import DivergenceError, FairdpError
from .fairness import DEMOGRAPHIC_PARITY, EQUALIZED_ODDS, FermiConfig
from .harness import (
    ALL_FEATURES,
    NO_PRIVACY,
    SENSITIVE_ONLY,
    ExperimentConfig,
    SyntheticSpec,
    _load_split,
    calibrate_for_run,
    emit_csv,
    evaluate_metrics,
    plan_run,
    run_length,
    run_sweep,
    synth_dataset,
)
from .optimizer import dp_fermi_train
from .privacy import SensitivityBounds, empirical_sensitivity_audit, sensitivities

NOTIONS = {"dp": DEMOGRAPHIC_PARITY, "eo": EQUALIZED_ODDS}
GRANULARITY_FLAGS = {"sensitive": SENSITIVE_ONLY, "all": ALL_FEATURES, "none": NO_PRIVACY}
# The audit's observed sensitivities are differences of two batch gradients,
# each a sum of m per-sample terms of size up to about 1/sqrt(rho) + D. Where
# a batch attains a bound exactly, rounding can put the observed value about
# m (1 + D) units in the last place above it; AUDIT_ULPS of those are allowed.
# An allowance above AUDIT_MAX_SLACK of the bound would hide real excesses.
AUDIT_ULPS = 4
AUDIT_MAX_SLACK = 1e-6


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
        clip_theta=args.clip or None,  # --clip 0 turns clipping off
        master_seed=args.seed,
        label_col=args.label_col,
        sensitive_col=args.sensitive_col,
    )


def _check_out(path, dataset=None) -> None:
    """Fail before a run, not after it, if its --out cannot be written: the
    path must not be empty or a directory, its directory must exist, and it
    must not be the --dataset file, which the run would overwrite."""
    if path is None:
        return
    if not path:
        raise ValueError("--out must not be empty")
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        raise ValueError(f"--out {path}: {directory} is not a directory")
    if dataset is not None and os.path.exists(path) and os.path.exists(dataset):
        if os.path.samefile(path, dataset):
            raise ValueError(f"--out {path} is the --dataset file")


def _cmd_train(args) -> int:
    config = _experiment_config(args, [args.epsilon], [args.lam], trials=1)
    fermi = FermiConfig(args.lam, config.notion)
    _check_out(args.out, args.dataset)
    train, test = _load_split(config)
    sgda, noise = plan_run(config, train, args.epsilon)
    result = dp_fermi_train(train, ModelParams.zeros(train.l, train.d_x), fermi, sgda, noise)
    metrics = evaluate_metrics(result.params, test)
    print(
        f"T={sgda.T} m={sgda.m} sigma_theta_sq={noise.sigma_theta_sq:.6g} "
        f"sigma_w_sq={noise.sigma_w_sq:.6g}"
    )
    for name, value in metrics.items():
        print(f"{name}={value:.6g}")
    if args.out is not None:
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
    _check_out(args.out, args.dataset)
    emit_csv(run_sweep(config), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    _check_out(args.out)
    m, T = run_length(args.n, args.batch_size, args.epochs)
    granularity = GRANULARITY_FLAGS[args.granularity]
    # the bounds sigma^2 was calibrated to; none calibrates nothing and shows
    # the sensitive-only bounds beside sigma^2 = 0, so its flags are checked too
    shown = SENSITIVE_ONLY if granularity == NO_PRIVACY else granularity
    rows = []
    for epsilon in args.epsilon:
        noise = calibrate_for_run(
            granularity, epsilon, args.delta, T, args.n, m,
            args.rho, args.l_theta, args.box_radius, args.labels,
        )
        bounds = sensitivities(shown, args.box_radius, args.l_theta, m, args.rho, args.labels)
        rows.append(dict(
            epsilon=epsilon, delta=args.delta, T=T, n=args.n, m=m, rho=args.rho,
            sigma_theta_sq=noise.sigma_theta_sq, sigma_w_sq=noise.sigma_w_sq,
            delta_theta=bounds.delta_theta, delta_w=bounds.delta_w,
        ))
    emit_csv(rows, args.out)
    return 0


def _cmd_audit(args) -> int:
    m, D = args.batch_size, args.box_radius
    # every flag is checked before the dataset is read, with the line the
    # checks after the read would print: the bounds only grow with L_theta
    # (at least 1/2) and 1/rho (at least 1), so bounds that overflow at those
    # floors overflow on any dataset
    _check_int("seed", args.seed)
    sensitivities(SENSITIVE_ONLY, D, 0.5, m, 1.0)
    slack = AUDIT_ULPS * np.finfo(np.float64).eps * m * (1.0 + D)
    if slack > AUDIT_MAX_SLACK:
        raise ValueError(f"--box-radius {D:g} is too large for the audit to give a verdict")
    _check_int("trials", args.trials, 1)
    ds = load_csv(args.dataset, args.label_col, args.sensitive_col)
    # features whose squared norm overflows make L_theta, and the theta bound, infinite
    L_theta, rho = proba_lipschitz_bound(ds.features), sensitive_stats(ds).rho
    finite = L_theta < math.inf
    bounds = sensitivities(SENSITIVE_ONLY, D, L_theta if finite else 1.0, m, rho)
    bounds = bounds if finite else SensitivityBounds(math.inf, bounds.delta_w_sq)
    rng = np.random.default_rng(args.seed)
    theta = ModelParams(
        rng.normal(scale=0.5, size=(ds.l, ds.d_x)), rng.normal(scale=0.5, size=ds.l)
    )
    w = rng.uniform(-D, D, size=(ds.k, ds.l))
    observed_theta, observed_w = empirical_sensitivity_audit(theta, w, ds, args.trials, m, rng)
    print(f"observed_delta_theta={observed_theta:.6g} bound={bounds.delta_theta:.6g}")
    print(f"observed_delta_w={observed_w:.6g} bound={bounds.delta_w:.6g}")
    # a NaN or infinite observation fails, even against an infinite bound
    pairs = ((observed_theta, bounds.delta_theta), (observed_w, bounds.delta_w))
    ok = all(math.isfinite(seen) and seen <= bound * (1.0 + slack) for seen, bound in pairs)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_evaluate(args) -> int:
    theta, metadata = load_checkpoint(args.checkpoint)
    names = metadata.get("label_names") or []
    features = metadata.get("feature_names") or []
    ds = _read_csv(args.dataset, args.label_col, args.sensitive_col, names, features)
    if ds.l > len(names) > 0:
        label = ds.label_names[len(names)]
        raise ValueError(f"label {label!r} is not one of the checkpoint's labels {names}")
    if ds.l != theta.l:  # only possible without label names
        raise ValueError(f"the checkpoint has {theta.l} label classes, the dataset {ds.l}")
    if ds.d_x != theta.d_x:  # only possible without feature names
        raise ValueError(f"the checkpoint has {theta.d_x} features, the dataset {ds.d_x}")
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
    _check_out(args.out)
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
    except (FairdpError, ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
