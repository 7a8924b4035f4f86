"""The benchmark's workloads: set-up, one operation, and its output check.

Every workload builds its inputs from the seed it is given, and calls the
library through module attributes (``harness.run_sweep``, not a name bound
at import), so the tracer's rebinding is seen. An operation returns its
outputs; `check` raises CheckFailed on a wrong output and otherwise returns
the quality numbers, and `digest` turns the outputs into bytes that must be
identical across operations of one run, traced or not.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from fairdp import classifier, cli, dataset, fairness, harness, optimizer
from fairdp.harness import SENSITIVE_ONLY, ExperimentConfig, SyntheticSpec
from fairdp.privacy import NoiseScales

TEST_FRACTION = 0.25
DELTA = 1e-5
ETA = 0.01
BOX_RADIUS = 3.0
CLIP = 1.0


class CheckFailed(Exception):
    """An operation returned an output that is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def majority_error(labels: np.ndarray) -> float:
    """Error of always predicting the most frequent class."""
    return float(1.0 - np.bincount(labels).max() / labels.shape[0])


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@dataclasses.dataclass
class TrainingCase:
    """The inputs of one dp_fermi_train call, for the C-call count."""

    train: dataset.TabularDataset
    fermi: fairness.FermiConfig
    sgda: optimizer.SgdaConfig
    noise: NoiseScales

    def run(self, T: int):
        theta0 = classifier.ModelParams.zeros(self.train.l, self.train.d_x)
        sgda = dataclasses.replace(self.sgda, T=T)
        return optimizer.dp_fermi_train(self.train, theta0, self.fermi, sgda, self.noise)


def _training_case(train, fermi, epochs, m, epsilon, seed) -> TrainingCase:
    T = epochs * math.ceil(train.n / m)
    noise = harness.calibrate_for_run(
        SENSITIVE_ONLY,
        epsilon,
        DELTA,
        T,
        train.n,
        m,
        dataset.sensitive_stats(train).rho,
        classifier.proba_lipschitz_bound(train.features),
        BOX_RADIUS,
        train.l,
    )
    sgda = optimizer.SgdaConfig(
        eta_theta=ETA, eta_w=ETA, T=T, m=m, box_radius=BOX_RADIUS, clip_theta=CLIP, seed=seed
    )
    return TrainingCase(train, fermi, sgda, noise)


def _case_record(spec: SyntheticSpec, case: TrainingCase, notion, epsilon, lambdas, **extra):
    return {
        "n": spec.n,
        "n_train": case.train.n,
        "m": case.sgda.m,
        "d_x": spec.d_x,
        "l": spec.l,
        "k": spec.k,
        "bias": spec.bias,
        "noise_scale": spec.noise_scale,
        "notion": notion,
        "granularity": SENSITIVE_ONLY,
        "epsilon": epsilon,
        "delta": DELTA,
        "lambdas": list(lambdas),
        "T": case.sgda.T,
        "sigma_theta_sq": case.noise.sigma_theta_sq,
        "sigma_w_sq": case.noise.sigma_w_sq,
        "box_radius": BOX_RADIUS,
        "clip": CLIP,
        "eta": ETA,
        **extra,
    }


class SweepDpNarrow:
    """run_sweep over lambda in {0, 2} on the acceptance tradeoff case."""

    name = "sweep-dp-narrow"
    lambdas = (0.0, 2.0)
    trials = 1
    epsilon = 3.0
    epochs = 200
    batch_size = 1024

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spec = SyntheticSpec(n=6000, d_x=5, k=2, l=2, bias=0.9, noise_scale=1.25, seed=seed)
        self.config = ExperimentConfig(
            dataset=self.spec,
            notion=fairness.DEMOGRAPHIC_PARITY,
            lambdas=self.lambdas,
            epsilons=(self.epsilon,),
            delta=DELTA,
            trials=self.trials,
            granularity=SENSITIVE_ONLY,
            eta_theta=ETA,
            eta_w=ETA,
            epochs=self.epochs,
            batch_size=self.batch_size,
            box_radius=BOX_RADIUS,
            clip_theta=CLIP,
            master_seed=seed,
            test_fraction=TEST_FRACTION,
        )

    def setup(self) -> None:
        ds = harness.synth_dataset(self.spec)
        train, test = dataset.train_test_split(ds, TEST_FRACTION, self.seed)
        self.majority_error = majority_error(test.labels)
        fermi = fairness.FermiConfig(self.lambdas[-1], fairness.DEMOGRAPHIC_PARITY)
        self.training = _training_case(
            train, fermi, self.epochs, min(self.batch_size, train.n), self.epsilon, self.seed
        )
        self.cells = len(self.lambdas) * self.trials
        self.iters_per_op = self.cells * self.training.sgda.T
        self.case = _case_record(
            self.spec,
            self.training,
            fairness.DEMOGRAPHIC_PARITY,
            self.epsilon,
            self.lambdas,
            trials=self.trials,
            cells=self.cells,
            seeds={"data": self.seed, "split": self.seed, "master": self.seed},
        )

    def training_case(self) -> TrainingCase:
        return self.training

    def op(self):
        return harness.run_sweep(self.config)

    def check(self, records) -> dict:
        require(len(records) == self.cells, f"expected {self.cells} records, got {len(records)}")
        for rec in records:
            require(rec.status == "ok", f"lambda={rec.lam} trial={rec.seed} diverged")
            values = (rec.train_error, rec.test_error, rec.dp_violation, rec.eo_violation)
            require(all(math.isfinite(v) for v in values), f"non-finite record {rec}")
            require(
                rec.test_error < self.majority_error,
                f"lambda={rec.lam}: test error {rec.test_error:.4f} is not below "
                f"the majority-class error {self.majority_error:.4f}",
            )
        by_cell = {(rec.lam, rec.seed): rec for rec in records}
        for trial in range(self.trials):
            base, fair = by_cell[(0.0, trial)], by_cell[(2.0, trial)]
            require(
                fair.dp_violation <= base.dp_violation,
                f"trial {trial}: DP gap at lambda=2 ({fair.dp_violation:.4f}) exceeds "
                f"the gap at lambda=0 ({base.dp_violation:.4f})",
            )
        quality = {"majority_error": self.majority_error}
        for rec in records:
            tag = f"lam{rec.lam:g}_trial{rec.seed}"
            quality[f"test_error_{tag}"] = rec.test_error
            quality[f"dp_gap_{tag}"] = rec.dp_violation
            quality[f"eo_gap_{tag}"] = rec.eo_violation
        return quality

    def digest(self, records) -> str:
        return sha256(repr([dataclasses.astuple(rec) for rec in records]).encode())


class TrainEoWide:
    """One equalized-odds dp_fermi_train on wide arrays, then test metrics."""

    name = "train-eo-wide"
    lam = 2.0
    epsilon = 3.0
    epochs = 75
    batch_size = 4096

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spec = SyntheticSpec(n=20000, d_x=40, k=4, l=5, bias=0.5, noise_scale=1.0, seed=seed)

    def setup(self) -> None:
        ds = harness.synth_dataset(self.spec)
        train, self.test = dataset.train_test_split(ds, TEST_FRACTION, self.seed)
        self.majority_error = majority_error(self.test.labels)
        fermi = fairness.FermiConfig(self.lam, fairness.EQUALIZED_ODDS)
        self.training = _training_case(
            train, fermi, self.epochs, self.batch_size, self.epsilon, self.seed
        )
        self.iters_per_op = self.training.sgda.T
        self.case = _case_record(
            self.spec,
            self.training,
            fairness.EQUALIZED_ODDS,
            self.epsilon,
            (self.lam,),
            seeds={"data": self.seed, "split": self.seed, "train": self.seed},
        )

    def training_case(self) -> TrainingCase:
        return self.training

    def op(self):
        result = self.training.run(self.training.sgda.T)
        return result, harness.evaluate_metrics(result.params, self.test)

    def check(self, outputs) -> dict:
        result, metrics = outputs
        require(np.all(np.isfinite(result.params.as_vector())), "non-finite model parameters")
        require(
            metrics["error"] < self.majority_error,
            f"test error {metrics['error']:.4f} is not below the majority-class error "
            f"{self.majority_error:.4f}",
        )
        return {
            "majority_error": self.majority_error,
            "test_error_lam2": metrics["error"],
            "dp_gap_lam2": metrics["dp_violation"],
            "eo_gap_lam2": metrics["eo_violation"],
        }

    def digest(self, outputs) -> str:
        result, metrics = outputs
        return sha256(result.params.as_vector().tobytes(), repr(metrics).encode())


def _parse_metrics(text: str) -> dict:
    """The key=value lines a CLI command printed, as floats."""
    values = {}
    for line in text.splitlines():
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep:
                try:
                    values[key] = float(value)
                except ValueError:
                    raise CheckFailed(f"unparsable metric {token!r}") from None
    return values


class CliIngest:
    """`fairdp train` then `fairdp evaluate` on a 100k-row CSV written in set-up."""

    name = "cli-ingest"
    n = 100_000
    d_x = 10
    k = 3
    l = 3
    bias = 0.5
    lam = 1.0
    epsilon = 1.0
    epochs = 5
    batch_size = 4096

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "data.csv"
        self.checkpoint = workdir / "model.json"
        self.spec = SyntheticSpec(
            n=self.n, d_x=self.d_x, k=self.k, l=self.l, bias=self.bias, seed=seed
        )

    def _main(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main([str(a) for a in argv])
        return code, out.getvalue()

    def setup(self) -> None:
        code, text = self._main(
            ["synth", "--n", self.n, "--d-x", self.d_x, "--k", self.k, "--l", self.l,
             "--bias", self.bias, "--seed", self.seed, "--out", self.csv]
        )
        require(code == 0, f"fairdp synth exited {code}: {text}")
        # Class frequencies do not depend on the CLI's label encoding, so the
        # synthesized labels give the majority-class errors of its split.
        ds = harness.synth_dataset(self.spec)
        train, test = dataset.train_test_split(ds, TEST_FRACTION, self.seed)
        self.majority_error_test = majority_error(test.labels)
        self.majority_error_all = majority_error(ds.labels)
        self.train_argv = [
            "train", "--dataset", self.csv, "--notion", "dp", "--granularity", "sensitive",
            "--epsilon", self.epsilon, "--lambda", self.lam, "--epochs", self.epochs,
            "--batch-size", self.batch_size, "--box-radius", BOX_RADIUS, "--clip", CLIP,
            "--eta-theta", ETA, "--eta-w", ETA, "--delta", DELTA, "--seed", self.seed,
            "--out", self.checkpoint,
        ]
        self.evaluate_argv = [
            "evaluate", "--dataset", self.csv, "--checkpoint", self.checkpoint
        ]
        m = min(self.batch_size, train.n)
        self.T = self.epochs * math.ceil(train.n / m)
        self.iters_per_op = self.T
        self.case = {
            "n": self.n,
            "n_train": train.n,
            "m": m,
            "d_x": self.d_x,
            "l": self.l,
            "k": self.k,
            "bias": self.bias,
            "notion": fairness.DEMOGRAPHIC_PARITY,
            "granularity": SENSITIVE_ONLY,
            "epsilon": self.epsilon,
            "delta": DELTA,
            "lambdas": [self.lam],
            "T": self.T,
            "box_radius": BOX_RADIUS,
            "clip": CLIP,
            "eta": ETA,
            "seeds": {"data": self.seed, "split": self.seed, "train": self.seed},
            "csv_rows": self.n,
        }

    def training_case(self) -> TrainingCase:
        """The dp_fermi_train inputs `fairdp train` builds from the CSV."""
        ds = dataset.load_csv(self.csv, "label", "sensitive")
        train, _ = dataset.train_test_split(ds, TEST_FRACTION, self.seed)
        fermi = fairness.FermiConfig(self.lam, fairness.DEMOGRAPHIC_PARITY)
        case = _training_case(
            train, fermi, self.epochs, min(self.batch_size, train.n), self.epsilon, self.seed
        )
        require(case.sgda.T == self.T, f"T={case.sgda.T} differs from the CLI's T={self.T}")
        return case

    def op(self):
        train_code, train_text = self._main(self.train_argv)
        eval_code, eval_text = self._main(self.evaluate_argv)
        checkpoint = self.checkpoint.read_bytes() if train_code == 0 else b""
        return train_code, train_text, eval_code, eval_text, checkpoint

    def check(self, outputs) -> dict:
        train_code, train_text, eval_code, eval_text, checkpoint = outputs
        require(train_code == 0, f"fairdp train exited {train_code}: {train_text}")
        require(eval_code == 0, f"fairdp evaluate exited {eval_code}: {eval_text}")
        trained = _parse_metrics(train_text)
        evaluated = _parse_metrics(eval_text)
        for name, values in (("train", trained), ("evaluate", evaluated)):
            for key in ("error", "dp_violation", "ermi_hard", "eo_violation"):
                require(key in values, f"fairdp {name} printed no {key}")
                require(math.isfinite(values[key]), f"fairdp {name}: {key} is not finite")
        require(trained.get("T") == self.T, f"fairdp train ran T={trained.get('T')}")
        require(
            trained["error"] < self.majority_error_test,
            f"test error {trained['error']:.4f} is not below the majority-class error "
            f"{self.majority_error_test:.4f}",
        )
        require(
            evaluated["error"] < self.majority_error_all,
            f"evaluate error {evaluated['error']:.4f} is not below the majority-class "
            f"error {self.majority_error_all:.4f}",
        )
        theta, _ = classifier.load_checkpoint(self.checkpoint)
        require(np.all(np.isfinite(theta.as_vector())), "non-finite checkpoint parameters")
        return {
            "majority_error": self.majority_error_test,
            "test_error_lam1": trained["error"],
            "dp_gap_lam1": trained["dp_violation"],
            "eo_gap_lam1": trained["eo_violation"],
            "evaluate_error": evaluated["error"],
        }

    def digest(self, outputs) -> str:
        _, train_text, _, eval_text, checkpoint = outputs
        return sha256(checkpoint, train_text.encode(), eval_text.encode())


WORKLOADS = {cls.name: cls for cls in (SweepDpNarrow, TrainEoWide, CliIngest)}
