"""The public API: the 45 names of fairdp.__all__, and the per-sample
references that live in tests/helpers.py rather than in the library."""

import pytest

import fairdp
from fairdp import classifier, fairness, privacy

PUBLIC = [
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


def test_all_is_the_public_api():
    assert len(PUBLIC) == 45
    assert fairdp.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(fairdp, name) is not None


@pytest.mark.parametrize(
    "module, name",
    [
        (classifier, "loss"),
        (classifier, "loss_grad"),
        (classifier, "jacobian_proba"),
        (classifier, "mean_loss"),
        (classifier, "mean_loss_grad"),
        (fairness, "psi"),
        (fairness, "psi_grad_w"),
        (fairness, "psi_grad_theta"),
        (fairness, "_check_dual"),
    ],
)
def test_per_sample_references_are_not_in_the_library(module, name):
    assert not hasattr(module, name)
    assert not hasattr(fairdp, name)


@pytest.mark.parametrize("name", ["SensitivityBounds", "gaussian_noise"])
def test_privacy_internals_stay_importable_from_their_module(name):
    assert name not in fairdp.__all__
    assert callable(getattr(privacy, name))
