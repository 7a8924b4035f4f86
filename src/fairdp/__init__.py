"""Differentially private fair learning.

A numpy library for training classifiers whose predictions are pushed
toward (conditional) independence of sensitive attributes, with Gaussian
noise calibrated so the training run is differentially private with
respect to the sensitive data (or the full records). The pieces:

- dataset: CSV ingestion, splits, group statistics, minibatches
- classifier: multinomial logistic model and its class-major batch kernels
- fairness: ERMI estimators, the dual saddle terms, violation metrics
- privacy: noise calibration (sigma = z * Delta), sensitivities, the empirical audit
- optimizer: noisy projected stochastic gradient descent-ascent
- harness: synthetic data, sweeps, aggregation, CSV emission

Where this package loads numpy, numpy's OpenBLAS starts one thread only:
OPENBLAS_NUM_THREADS=1 is set for that import alone, if the variable is
unset, and the environment is restored after it, so the processes a user
starts keep their BLAS threads. A fairdp process then has a single OS
thread, which sweeps and large CSV parses need to fork across CPUs. A
process that imported numpy first keeps its BLAS threads, and never forks.
"""

import os
import sys

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # OpenBLAS reads the variable as it loads
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys

from . import exceptions
from .classifier import (
    ModelParams,
    load_checkpoint,
    predict_label,
    predict_proba,
    proba_lipschitz_bound,
    save_checkpoint,
)
from .dataset import TabularDataset, load_csv, train_test_split
from .fairness import (
    DEMOGRAPHIC_PARITY,
    EQUALIZED_ODDS,
    FermiConfig,
    dp_violation,
    eo_violation,
    ermi_hard,
    ermi_soft,
    inner_max_closed_form,
)
from .harness import (
    ALL_FEATURES,
    NO_PRIVACY,
    SENSITIVE_ONLY,
    ExperimentConfig,
    SyntheticSpec,
    TradeoffRecord,
    aggregate,
    emit_csv,
    evaluate_metrics,
    run_sweep,
    synth_dataset,
)
from .optimizer import (
    SgdaConfig,
    TrainResult,
    dp_fermi_train,
    stationarity_gap,
)
from .privacy import (
    NoiseScales,
    PrivacyBudget,
    empirical_sensitivity_audit,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_FEATURES",
    "DEMOGRAPHIC_PARITY",
    "EQUALIZED_ODDS",
    "ExperimentConfig",
    "FermiConfig",
    "ModelParams",
    "NO_PRIVACY",
    "NoiseScales",
    "PrivacyBudget",
    "SENSITIVE_ONLY",
    "SgdaConfig",
    "SyntheticSpec",
    "TabularDataset",
    "TradeoffRecord",
    "TrainResult",
    "aggregate",
    "dp_fermi_train",
    "dp_violation",
    "emit_csv",
    "empirical_sensitivity_audit",
    "eo_violation",
    "ermi_hard",
    "ermi_soft",
    "evaluate_metrics",
    "exceptions",
    "inner_max_closed_form",
    "load_checkpoint",
    "load_csv",
    "predict_label",
    "predict_proba",
    "proba_lipschitz_bound",
    "run_sweep",
    "save_checkpoint",
    "stationarity_gap",
    "synth_dataset",
    "train_test_split",
]
