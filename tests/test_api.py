"""The public API: the 38 names of fairdp.__all__, the internals that stay
importable from their module, and the per-sample references that live in
tests/helpers.py rather than in the library."""

import dataclasses

import pytest

import fairdp
from fairdp import classifier, dataset, fairness, optimizer, privacy

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
    "sensitive_stats",
    "stationarity_gap",
    "synth_dataset",
    "train_test_split",
]


def test_all_is_the_public_api():
    assert len(PUBLIC) == 38
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
        (privacy, "SensitivityBounds"),
        (privacy, "calibrate"),
        (privacy, "gaussian_noise"),
        (privacy, "min_iterations"),
        (privacy, "sensitivities"),
    ],
    ids=[
        "minibatch", "group_counts", "SensitivityBounds", "calibrate", "gaussian_noise",
        "min_iterations", "sensitivities",
    ],
)
def test_internals_stay_importable_from_their_module(module, name):
    assert name not in fairdp.__all__
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
