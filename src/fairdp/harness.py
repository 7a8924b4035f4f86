"""Experiment orchestration: synthetic data, sweeps over (epsilon, lambda,
seed) grids, multi-seed aggregation, and CSV emission of tradeoff tables.

An ExperimentConfig describes every run, a single `fairdp train` as well as
a sweep; plan_run is the one place that turns it into a run's SgdaConfig
and calibrated noise.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from ._fork import _run_shares, _workers
from .classifier import ModelParams, predict_label, proba_lipschitz_bound
from .dataset import (
    TabularDataset, _check_int, _check_positive_finite, _check_test_fraction, _frozen,
    group_counts, load_csv, sensitive_stats, train_test_split,
)
from .exceptions import (
    CalibrationError, DegenerateConditionalError, DegenerateGroupError, DivergenceError
)
from .fairness import (
    DEMOGRAPHIC_PARITY, EQUALIZED_ODDS, FermiConfig, dp_violation, eo_violation, ermi_hard
)
from .optimizer import SgdaConfig, dp_fermi_train
from .privacy import (  # the granularities are re-exported here
    ALL_FEATURES,
    GRANULARITIES,
    NO_PRIVACY,
    SENSITIVE_ONLY,
    NoiseScales,
    PrivacyBudget,
    calibrate,
    min_iterations,
)

SYNTH_BLOCK_ROWS = 4096  # rows per class-mean gather in synth_dataset


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian mixture data with group-dependent label bias.

    Labels start uniform and independent of the group; each sample is then
    flipped to its group's preferred class with probability
    bias * (s - 1) / (k - 1), so bias = 0 keeps labels independent of the
    groups and larger bias monotonically increases the demographic-parity
    violation of an accuracy-maximizing classifier. Features are drawn
    around per-class means (norm 2, distinct axes/signs per class) with the
    given noise scale, and the last coordinate additionally carries a unit
    group offset. That offset mirrors tabular data whose features correlate
    with the sensitive attribute; without it, predictions could depend on
    the group only through the label, and no classifier could trade
    violation against accuracy at a realistic rate.
    """

    n: int
    d_x: int
    k: int = 2
    l: int = 2
    bias: float = 0.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n", 1), ("d_x", 1), ("k", 2), ("l", 2)):
            _check_int(name, getattr(self, name), minimum)
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError("bias must lie in [0, 1]")
        _check_positive_finite("noise_scale", self.noise_scale)
        _check_int("seed", self.seed)

    @property
    def dataset_id(self) -> str:
        return f"synth_n{self.n}_d{self.d_x}_k{self.k}_l{self.l}_b{self.bias}_s{self.seed}"


def _class_means(l: int, d_x: int) -> np.ndarray:
    means = np.zeros((l, d_x))
    for j in range(l):
        means[j, (j // 2) % d_x] = 2.0 if j % 2 == 0 else -2.0
    return means


def synth_dataset(spec: SyntheticSpec) -> TabularDataset:
    """Deterministic synthetic dataset per the SyntheticSpec recipe."""
    rng = np.random.default_rng(spec.seed)
    s = rng.integers(1, spec.k + 1, size=spec.n)
    y = rng.integers(1, spec.l + 1, size=spec.n)
    preferred = ((s - 1) % spec.l) + 1
    flip_prob = spec.bias * (s - 1) / (spec.k - 1)
    y = np.where(rng.random(spec.n) < flip_prob, preferred, y)
    # means[y - 1] + noise_scale * z built in place with the operands
    # swapped, the same bits, and the means gathered a block of rows at a
    # time, so no (n, d_x) temporary is made
    features = rng.standard_normal((spec.n, spec.d_x))
    try:  # adding means and offsets of size 2 or less cannot overflow
        with np.errstate(over="raise"):
            features *= spec.noise_scale
    except FloatingPointError:
        raise ValueError(f"noise_scale={spec.noise_scale} overflows the features") from None
    means = _class_means(spec.l, spec.d_x)
    for i in range(0, spec.n, SYNTH_BLOCK_ROWS):
        features[i : i + SYNTH_BLOCK_ROWS] += means[y[i : i + SYNTH_BLOCK_ROWS] - 1]
    features[:, -1] += 2.0 * (2.0 * (s - 1) / (spec.k - 1) - 1.0)  # group offset in [-2, 2]
    _frozen(features, y, s)
    return TabularDataset(features, y, s, spec.l, spec.k)


@dataclass(frozen=True)
class ExperimentConfig:
    """A dataset source, a fairness notion, the run grid and its hyperparameters."""

    dataset: str | SyntheticSpec
    notion: str = DEMOGRAPHIC_PARITY
    lambdas: tuple[float, ...] = (0.0,)
    epsilons: tuple[float, ...] = (1.0,)
    delta: float = 1e-5
    trials: int = 1
    granularity: str = SENSITIVE_ONLY
    eta_theta: float = 0.01
    eta_w: float = 0.01
    epochs: int = 200
    batch_size: int = 1024
    box_radius: float = 1.0
    clip_theta: float | None = 1.0
    master_seed: int = 0
    test_fraction: float = 0.25
    label_col: str = "label"
    sensitive_col: str = "sensitive"

    def __post_init__(self):
        if not self.lambdas or not self.epsilons:
            raise ValueError("lambda and epsilon values must be nonempty")
        # each value is checked by the object a run builds from it
        for lam in self.lambdas:
            FermiConfig(lam, self.notion)
        for eps in self.epsilons:
            PrivacyBudget(eps, self.delta)
        _check_int("trials", self.trials, 1)
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        _check_int("epochs", self.epochs, 1)
        _check_int("batch_size", self.batch_size, 1)
        # only the per-sample clip bounds a whole record's loss gradient
        if self.granularity == ALL_FEATURES and self.clip_theta is None:
            raise CalibrationError("all-features privacy requires loss-gradient clipping")
        _check_int("master_seed", self.master_seed)
        _check_test_fraction(self.test_fraction)
        self.sgda(self.epochs, self.batch_size)  # plan_run sets T and m per split

    def sgda(self, T: int, m: int) -> SgdaConfig:
        """The SgdaConfig of a run of T steps with batch size m."""
        return SgdaConfig(
            self.eta_theta, self.eta_w, T, m, self.box_radius, self.clip_theta,
            seed=self.master_seed,
        )


@dataclass(frozen=True)
class TradeoffRecord:
    """One training run's position in the fairness-accuracy-privacy space."""

    dataset_id: str
    seed: int
    epsilon: float
    delta: float
    lam: float
    notion: str
    T: int
    m: int
    sigma_theta_sq: float
    sigma_w_sq: float
    train_error: float
    test_error: float
    dp_violation: float
    eo_violation: float
    ermi_hard: float
    status: str = "ok"


RECORD_COLUMNS = [f.name for f in fields(TradeoffRecord)]
AGGREGATE_FIELDS = tuple(RECORD_COLUMNS[RECORD_COLUMNS.index("T"):RECORD_COLUMNS.index("status")])


def load_experiment_dataset(config: ExperimentConfig) -> TabularDataset:
    if isinstance(config.dataset, SyntheticSpec):
        return synth_dataset(config.dataset)
    return load_csv(config.dataset, config.label_col, config.sensitive_col)


def _load_split(config: ExperimentConfig) -> tuple[TabularDataset, TabularDataset]:
    """The train and test splits of config's dataset, which is not kept.

    A split that lacks a sensitive group raises DegenerateGroupError naming
    the split here, before any run trains: calibration would raise it for
    the train split without naming it, and evaluate_metrics for the test
    split only after training. Under equalized odds, so does a train split
    that lacks a (label, group) cell (DegenerateConditionalError), which strata
    would raise inside the first run; a test split lacking one has a NaN EO gap.
    """
    splits = train_test_split(
        load_experiment_dataset(config), config.test_fraction, config.master_seed
    )
    for name, split in zip(("train", "test"), splits):
        try:
            group_counts(split)
            if name == "train" and config.notion == EQUALIZED_ODDS:
                group_counts(split, by_label=True)
        except (DegenerateGroupError, DegenerateConditionalError) as exc:
            raise type(exc)(f"{exc} in the {name} split") from None
    return splits


def _dataset_id(config: ExperimentConfig) -> str:
    if isinstance(config.dataset, SyntheticSpec):
        return config.dataset.dataset_id
    return os.path.basename(str(config.dataset))


def evaluate_metrics(theta: ModelParams, ds: TabularDataset) -> dict:
    """Error rate and fairness violations of hard predictions on a dataset."""
    preds = predict_label(theta, ds.features)
    metrics = {
        "error": float((preds != ds.labels).mean()),
        "dp_violation": dp_violation(preds, ds.sensitive, k=ds.k),
        "ermi_hard": ermi_hard(preds, ds.sensitive, k=ds.k, l=ds.l),
    }
    try:
        metrics["eo_violation"] = eo_violation(preds, ds.sensitive, ds.labels, k=ds.k, l=ds.l)
    except DegenerateConditionalError:
        metrics["eo_violation"] = math.nan
    return metrics


def calibrate_for_run(
    granularity: str,
    epsilon: float,
    delta: float,
    T: int,
    n: int,
    m: int,
    rho: float,
    L_theta: float,
    D: float,
    l: int,
) -> NoiseScales:
    """Noise sigma = z * Delta for one run at the requested privacy granularity.

    Checks the budget at every granularity. Raises CalibrationError if T is
    below the iteration floor, after the epsilon cap and sensitivity checks.
    """
    budget = PrivacyBudget(epsilon, delta)
    if granularity == NO_PRIVACY:
        return NoiseScales.none()
    noise = calibrate(granularity, budget, T, n, m, rho, L_theta, D, l)
    floor = min_iterations(n, m, epsilon)
    if T < floor:
        raise CalibrationError(
            f"T={T} is below the required minimum {floor} for n={n}, m={m}, eps={epsilon}"
        )
    return noise


def run_length(n: int, batch_size: int, epochs: int) -> tuple[int, int]:
    """Batch size m = min(batch_size, n) and steps T = epochs * ceil(n / m)."""
    _check_int("epochs", epochs, 1)
    _check_int("batch_size", batch_size, 1)
    _check_int("n", n, 1)
    m = min(batch_size, n)
    return m, epochs * -(-n // m)  # ceil(n / m) in ints, which cannot overflow


def plan_run(
    config: ExperimentConfig, train: TabularDataset, epsilon: float
) -> tuple[SgdaConfig, NoiseScales]:
    """The SgdaConfig and noise of one run of `config` on `train` at `epsilon`.

    m and T come from run_length. The noise is calibrated at the split's
    group floor rho and probability-map Lipschitz bound. Raises
    CalibrationError if T is below the iteration floor.
    """
    m, T = run_length(train.n, config.batch_size, config.epochs)
    noise = calibrate_for_run(
        config.granularity, epsilon, config.delta, T, train.n, m, sensitive_stats(train).rho,
        proba_lipschitz_bound(train.features), config.box_radius, train.l,
    )
    return config.sgda(T, m), noise


_DIVERGED_METRICS = dict.fromkeys(("error", "dp_violation", "eo_violation", "ermi_hard"), math.nan)

# A sweep forks only when its cells are long enough to repay a fork. Timed
# with each side in its own process (2 vCPUs, numpy 2.4.6, one BLAS thread),
# forking bench's narrow 2-cell sweep was 0.78x as fast at 30,720 sample-steps
# a cell (T * m), 0.87-1.10x at 66,560 and 1.12-1.45x from 133,120 on; the CI
# smoke sweep's was 1.13x at 30,720 and 1.23x at 92,160.
FORK_MIN_SAMPLE_STEPS = 1 << 16


def _cell_record(
    train: TabularDataset, test: TabularDataset, dataset_id: str, config: ExperimentConfig, job
) -> TradeoffRecord:
    """Train and evaluate one sweep cell (epsilon, lambda, trial, SgdaConfig,
    noise); a diverged run keeps status "diverged" and NaN metrics."""
    epsilon, lam, trial, sgda, noise = job
    theta0 = ModelParams.zeros(train.l, train.d_x)
    try:
        result = dp_fermi_train(train, theta0, FermiConfig(lam, config.notion), sgda, noise)
        train_preds = predict_label(result.params, train.features)
        train_error = float((train_preds != train.labels).mean())
        test_metrics = evaluate_metrics(result.params, test)
        status = "ok"
    except DivergenceError:
        train_error, test_metrics = math.nan, _DIVERGED_METRICS
        status = "diverged"
    return TradeoffRecord(
        dataset_id=dataset_id,
        seed=trial,
        epsilon=epsilon,
        delta=config.delta,
        lam=lam,
        notion=config.notion,
        T=sgda.T,
        m=sgda.m,
        sigma_theta_sq=noise.sigma_theta_sq,
        sigma_w_sq=noise.sigma_w_sq,
        train_error=train_error,
        test_error=test_metrics["error"],
        dp_violation=test_metrics["dp_violation"],
        eo_violation=test_metrics["eo_violation"],
        ermi_hard=test_metrics["ermi_hard"],
        status=status,
    )


def run_sweep(config: ExperimentConfig) -> list[TradeoffRecord]:
    """Train and evaluate every (epsilon, lambda, trial) cell of the grid.

    Each cell's SgdaConfig.seed is the tuple (master_seed, epsilon index,
    lambda index, trial), so every cell owns its own stream. Diverged runs are
    recorded with status "diverged" and NaN metrics rather than dropped.

    A split that lacks a sensitive group is refused, and every epsilon is
    planned, before any cell trains, so a DegenerateGroupError or a
    CalibrationError comes first; only the two splits outlive the set-up.
    The cells then run on one forked process per usable CPU (the caller
    trains one share) when a cell trains at least FORK_MIN_SAMPLE_STEPS
    sample-steps and fairdp._fork grants two workers: two cells to share,
    two usable CPUs and a single OS thread; otherwise in-process. Either
    way the records come back in grid order, the same bytes as an
    in-process run's, and a cell that raises raises as it would in-process:
    the first such cell in grid order wins, with a forked child's traceback
    as an exception note. A process with BLAS threads (numpy imported
    before fairdp on a multi-core host) runs in-process.
    """
    train, test = _load_split(config)
    dataset_id = _dataset_id(config)

    jobs = []
    for e_idx, epsilon in enumerate(config.epsilons):
        sgda, noise = plan_run(config, train, epsilon)
        for l_idx, lam in enumerate(config.lambdas):
            for trial in range(config.trials):
                cell = replace(sgda, seed=(config.master_seed, e_idx, l_idx, trial))
                jobs.append((epsilon, lam, trial, cell, noise))

    run_job = partial(_cell_record, train, test, dataset_id, config)
    # every cell has the same T and m: run_length reads only the split
    workers = _workers(len(jobs)) if sgda.T * sgda.m >= FORK_MIN_SAMPLE_STEPS else 1
    return _run_shares(run_job, jobs, workers, "sweep worker")


def aggregate(records: list[TradeoffRecord]) -> list[dict]:
    """Per-(epsilon, lambda) mean and population std of every numeric field.

    NaNs from diverged runs propagate into the aggregates on purpose.
    """
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict[tuple[float, float], list[TradeoffRecord]] = {}
    for rec in records:
        groups.setdefault((rec.epsilon, rec.lam), []).append(rec)
    rows = []
    for (epsilon, lam) in sorted(groups):
        members = groups[(epsilon, lam)]
        row = {"epsilon": epsilon, "lam": lam, "runs": len(members)}
        for name in AGGREGATE_FIELDS:
            values = np.array([getattr(rec, name) for rec in members], dtype=np.float64)
            row[f"{name}_mean"] = float(values.mean())
            row[f"{name}_std"] = float(values.std())
        rows.append(row)
    return rows


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_csv(rows, path) -> None:
    """Write records, aggregate rows or the dict rows of `fairdp calibrate`'s
    table with a fixed column order, to the file at path, or to standard
    output when path is None.

    Reals carry 6 significant digits; a header line is always present, so
    an empty record list produces a header-only file.
    """
    rows = list(rows)
    if rows and isinstance(rows[0], dict):
        columns = list(rows[0].keys())
        dicts = rows
    else:
        columns = RECORD_COLUMNS
        dicts = [{name: getattr(rec, name) for name in columns} for rec in rows]
    out = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="")
    with out as fh:
        writer = csv.writer(fh)
        header = ["lambda" if c == "lam" else c for c in columns]
        writer.writerow(header)
        for row in dicts:
            writer.writerow([_format_cell(row[c]) for c in columns])
