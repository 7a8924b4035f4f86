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
"""

from . import exceptions
from .classifier import (
    ModelParams,
    load_checkpoint,
    predict_label,
    predict_proba,
    proba_lipschitz_bound,
    save_checkpoint,
)
from .dataset import (
    SensitiveStats,
    TabularDataset,
    load_csv,
    minibatch,
    sensitive_stats,
    train_test_split,
)
from .fairness import (
    DEMOGRAPHIC_PARITY,
    EQUALIZED_ODDS,
    FermiConfig,
    dp_violation,
    eo_violation,
    ermi_conditional,
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
    project_box,
    stationarity_gap,
)
from .privacy import (
    NoiseScales,
    PrivacyBudget,
    calibrate_all_features,
    calibrate_sensitive_only,
    empirical_sensitivity_audit,
    min_iterations,
    sensitivities,
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
    "SensitiveStats",
    "SgdaConfig",
    "SyntheticSpec",
    "TabularDataset",
    "TradeoffRecord",
    "TrainResult",
    "aggregate",
    "calibrate_all_features",
    "calibrate_sensitive_only",
    "dp_fermi_train",
    "dp_violation",
    "emit_csv",
    "empirical_sensitivity_audit",
    "eo_violation",
    "ermi_conditional",
    "ermi_hard",
    "ermi_soft",
    "evaluate_metrics",
    "exceptions",
    "inner_max_closed_form",
    "load_checkpoint",
    "load_csv",
    "min_iterations",
    "minibatch",
    "predict_label",
    "predict_proba",
    "proba_lipschitz_bound",
    "project_box",
    "run_sweep",
    "save_checkpoint",
    "sensitive_stats",
    "sensitivities",
    "stationarity_gap",
    "synth_dataset",
    "train_test_split",
]
