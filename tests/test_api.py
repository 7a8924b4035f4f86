"""The public API: the 30 names of fairdp.__all__, the internals that stay
importable from their module, and the per-sample references that live in
tests/helpers.py rather than in the library."""

import dataclasses

import pytest

import fairdp
from fairdp import classifier, dataset, fairness, harness, optimizer, privacy

PUBLIC = [
    "ALL_FEATURES",
    "DEMOGRAPHIC_PARITY",
    "EQUALIZED_ODDS",
    "ExperimentConfig",
    "FermiConfig",
    "ModelParams",
    "NO_PRIVACY",
    "NoiseScales",
    "SENSITIVE_ONLY",
    "SgdaConfig",
    "SyntheticSpec",
    "TabularDataset",
    "aggregate",
    "dp_fermi_train",
    "dp_violation",
    "emit_csv",
    "eo_violation",
    "ermi_hard",
    "ermi_soft",
    "evaluate_metrics",
    "exceptions",
    "load_checkpoint",
    "load_csv",
    "plan_run",
    "predict_label",
    "predict_proba",
    "run_sweep",
    "save_checkpoint",
    "synth_dataset",
    "train_test_split",
]


def test_all_is_the_public_api():
    assert len(PUBLIC) == 30
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
        (classifier, "mean_cross_entropy"),
        (classifier, "PROB_FLOOR"),
        (fairness, "psi"),
        (fairness, "psi_grad_w"),
        (fairness, "psi_grad_theta"),
        (fairness, "_check_dual"),
    ],
)
def test_per_sample_references_are_not_in_the_library(module, name):
    assert not hasattr(module, name)
    assert not hasattr(fairdp, name)


@pytest.mark.parametrize(
    "module, name",
    [
        (dataset, "minibatch"),
        (dataset, "group_counts"),
        (dataset, "sensitive_stats"),
        (privacy, "SensitivityBounds"),
        (privacy, "calibrate"),
        (privacy, "gaussian_noise"),
        (privacy, "min_iterations"),
        (privacy, "sensitivities"),
        (optimizer, "stationarity_gap"),
        (optimizer, "TrainResult"),
        (fairness, "inner_max_closed_form"),
        (classifier, "proba_lipschitz_bound"),
        (privacy, "empirical_sensitivity_audit"),
        (privacy, "PrivacyBudget"),
        (harness, "TradeoffRecord"),
    ],
    ids=[
        "minibatch", "group_counts", "sensitive_stats", "SensitivityBounds", "calibrate",
        "gaussian_noise", "min_iterations", "sensitivities", "stationarity_gap", "TrainResult",
        "inner_max_closed_form", "proba_lipschitz_bound", "empirical_sensitivity_audit",
        "PrivacyBudget", "TradeoffRecord",
    ],
)
def test_internals_stay_importable_from_their_module(module, name):
    # analysis helpers and result types live in their module, not the root
    assert name not in fairdp.__all__
    assert not hasattr(fairdp, name)
    assert callable(getattr(module, name))


@pytest.mark.parametrize(
    "module, name",
    [
        (optimizer, "project_box"),
        (fairness, "ermi_conditional"),
        (dataset.TabularDataset, "from_arrays"),
        (optimizer, "_pick_iterate"),
        (optimizer, "LAST"),
        (optimizer, "UNIFORM_RANDOM"),
        (dataset.SensitiveStats, "from_groups"),
    ],
)
def test_folded_helpers_are_gone(module, name):
    # the step clips W in place, ermi_hard takes an optional y, a dataset
    # has one constructor, which takes l and k, every run returns its last
    # iterate, so no rule picks another one, and dataset.group_counts is the
    # one group counter
    assert not hasattr(module, name)
    assert not hasattr(fairdp, name)


@pytest.mark.parametrize(
    "cls, field",
    [(optimizer.SgdaConfig, "iterate_rule"), (optimizer.TrainResult, "chosen_iterate")],
)
def test_iterate_rule_fields_are_gone(cls, field):
    assert field not in {f.name for f in dataclasses.fields(cls)}
