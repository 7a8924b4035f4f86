"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import spearmanr

from fairdp.classifier import (
    ModelParams,
    forward,
    predict_label,
    predict_proba,
    proba_lipschitz_bound,
)
from fairdp.dataset import TabularDataset, sensitive_stats, train_test_split
from fairdp.fairness import (
    EQUALIZED_ODDS,
    FermiConfig,
    ermi_hard,
    ermi_soft,
    inner_max_closed_form,
    saddle_terms,
)
from fairdp.harness import (
    SENSITIVE_ONLY,
    ExperimentConfig,
    SyntheticSpec,
    aggregate,
    emit_csv,
    run_sweep,
    synth_dataset,
)
from fairdp.optimizer import SgdaConfig, dp_fermi_train, stationarity_gap
from fairdp.privacy import (
    ALL_FEATURES,
    NoiseScales,
    PrivacyBudget,
    calibrate,
    empirical_sensitivity_audit,
    min_iterations,
    sensitivities,
)
from helpers import (
    central_diff_grad,
    central_diff_jac,
    jacobian_proba,
    loss,
    loss_grad,
    mean_loss,
    psi,
    psi_grad_theta,
    psi_grad_w,
    rel_error,
)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_instance(rng):
    l = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    d_x = int(rng.integers(1, 21))
    n = int(rng.integers(3 * max(k, l), 60))
    s = np.resize(np.arange(1, k + 1), n)
    rng.shuffle(s)
    y = np.resize(np.arange(1, l + 1), n)
    rng.shuffle(y)
    ds = TabularDataset(rng.normal(size=(n, d_x)), y, s, l=l, k=k)
    theta = ModelParams(rng.normal(scale=0.6, size=(l, d_x)), rng.normal(scale=0.6, size=l))
    return ds, theta


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        ds, theta = random_instance(rng)
        stats = sensitive_stats(ds)
        l, d_x = theta.l, theta.d_x
        i = int(rng.integers(0, ds.n))
        x, s, y = ds.features[i], int(ds.sensitive[i]), int(ds.labels[i])
        w = rng.normal(size=(ds.k, l))

        fd = central_diff_grad(
            lambda v: loss(ModelParams.from_vector(v, l, d_x), x, y), theta.as_vector()
        )
        worst = max(worst, rel_error(loss_grad(theta, x, y), fd))

        fd = central_diff_jac(
            lambda v: predict_proba(ModelParams.from_vector(v, l, d_x), x),
            theta.as_vector(),
            out_dim=l,
        )
        worst = max(worst, rel_error(jacobian_proba(theta, x), fd))

        fd = central_diff_grad(
            lambda v: psi(ModelParams.from_vector(v, l, d_x), w, x, s, stats),
            theta.as_vector(),
        )
        worst = max(worst, rel_error(psi_grad_theta(theta, w, x, s, stats), fd))

        fd = central_diff_grad(
            lambda v: psi(theta, v.reshape(ds.k, l), x, s, stats), w.ravel()
        ).reshape(ds.k, l)
        worst = max(worst, rel_error(psi_grad_w(theta, w, x, s, stats), fd))
    elapsed = time.monotonic() - start
    _report(
        1,
        "gradient fidelity",
        worst <= 1e-5 and elapsed < 60,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def _ascent_confirmation(instances, steps=10_000):
    """Projected ascent on the batch-averaged dual objective of each
    (theta, ds, stats, w_star) instance.

    The averaged gradient is -2 W diag(marginal) + 2 P^{-1/2} joint; the
    moments are fixed in W, so iterating the gradient map is an independent
    route to the maximizer. The instances are zero-padded into one
    (instances, k, l) stack that takes every step at once: a padded entry
    has zero marginal and coupling and stays 0, and each real entry goes
    through the same float operations as it would alone.
    """
    k_max = max(w_star.shape[0] for *_, w_star in instances)
    l_max = max(w_star.shape[1] for *_, w_star in instances)
    marginal = np.zeros((len(instances), 1, l_max))
    coupling = np.zeros((len(instances), k_max, l_max))
    box = np.empty((len(instances), 1, 1))
    eta = np.empty((len(instances), 1, 1))
    for i, (theta, ds, stats, w_star) in enumerate(instances):
        k, l = w_star.shape
        probs = predict_proba(theta, ds.features)  # (n, l)
        in_group = ds.sensitive[:, None] == np.arange(1, stats.k + 1)  # (n, k)
        joint = probs.T @ in_group / ds.n  # (l, k) soft p(j, r)
        marginal[i, 0, :l] = probs.mean(axis=0)
        coupling[i, :k, :l] = 2.0 * stats.inv_sqrt[:, None] * joint.T
        box[i] = np.abs(w_star).max() * 2.0 + 1.0
        eta[i] = 1.0 / (2.0 * marginal[i].max())
    w = np.zeros_like(coupling)
    for _ in range(steps):
        w = np.clip(w + eta * (-2.0 * w * marginal + coupling), -box, box)
    return [w[i, : w_star.shape[0], : w_star.shape[1]] for i, (*_, w_star) in enumerate(instances)]


def test_criterion_2_minmax_identity():
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    instances = []
    for _ in range(50):
        ds, theta = random_instance(rng)
        stats = sensitive_stats(ds)
        lam = float(rng.uniform(0.0, 2.5))
        w_star = inner_max_closed_form(theta, ds)[0]
        proba = forward(theta.weights, theta.bias, ds.features)
        _, _, psi_at_star = saddle_terms(proba, w_star[None], stats.inv_sqrt[None], ds.sensitive - 1)
        max_f = mean_loss(theta, ds.features, ds.labels) + lam * psi_at_star
        direct = mean_loss(theta, ds.features, ds.labels) + lam * ermi_soft(theta, ds)
        worst_gap = max(worst_gap, abs(max_f - direct))
        instances.append((theta, ds, stats, w_star))
    worst_entry = max(
        np.abs(w_ascent - w_star).max()
        for w_ascent, (*_, w_star) in zip(_ascent_confirmation(instances), instances)
    )
    _report(
        2,
        "min-max identity",
        worst_gap <= 1e-6 and worst_entry <= 1e-6,
        f"max identity gap {worst_gap:.2e}, max ascent deviation {worst_entry:.2e}",
    )


def test_criterion_3_ermi_correctness():
    ok = True
    detail = []
    # factorizing joints
    rng = np.random.default_rng(303)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        reps = int(rng.integers(1, 6))
        s = np.resize(np.arange(1, k + 1), k * reps)
        preds = np.ones_like(s)  # constant predictions factorize
        value = ermi_hard(preds, s, k=k)
        ok &= abs(value) <= 1e-12
    # perfectly correlated balanced instances
    for k in (2, 3, 4):
        s = np.resize(np.arange(1, k + 1), k * 6)
        value = ermi_hard(s, s, k=k, l=k)
        ok &= abs(value - (k - 1)) <= 1e-9
        detail.append(f"k={k}: {value:.12f}")
    # exhaustive n <= 8 zero-iff-independence over 2x2 joint tables
    checked = 0
    for n in range(2, 9):
        for c11, c12, c21 in itertools.product(range(n + 1), repeat=3):
            c22 = n - c11 - c12 - c21
            if c22 < 0:
                continue
            if (c11 + c21) == 0 or (c12 + c22) == 0:
                continue
            preds = [1] * (c11 + c12) + [2] * (c21 + c22)
            s = [1] * c11 + [2] * c12 + [1] * c21 + [2] * c22
            value = ermi_hard(preds, s, k=2, l=2)
            joint = np.array([[c11, c12], [c21, c22]]) / n
            independent = (
                np.abs(joint - np.outer(joint.sum(1), joint.sum(0))).max() <= 1e-12
            )
            ok &= (value <= 1e-12) == independent
            ok &= value >= -1e-12
            checked += 1
    _report(3, "ERMI correctness", ok, f"{'; '.join(detail)}; {checked} joint tables")


def test_criterion_4_sensitivity_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    spec = SyntheticSpec(n=400, d_x=4, bias=0.5, noise_scale=1.0, seed=11)
    ds = synth_dataset(spec)
    stats = sensitive_stats(ds)
    assert stats.rho >= 0.25
    D = 1.0
    L = proba_lipschitz_bound(ds.features)
    ok = True
    details = []
    for m in (5, 10, 50):
        theta = ModelParams(
            rng.normal(scale=0.5, size=(ds.l, ds.d_x)), rng.normal(scale=0.5, size=ds.l)
        )
        w = rng.uniform(-D, D, size=(ds.k, ds.l))
        obs_theta, obs_w = empirical_sensitivity_audit(theta, w, ds, trials=400, m=m, rng=rng)
        bound = sensitivities(SENSITIVE_ONLY, D, L, m, stats.rho)
        ok &= obs_theta <= bound.delta_theta and obs_w <= bound.delta_w
        details.append(
            f"m={m}: {obs_theta:.4f}<={bound.delta_theta:.4f}, {obs_w:.4f}<={bound.delta_w:.4f}"
        )
    elapsed = time.monotonic() - start
    ok &= elapsed < 120
    _report(4, "sensitivity soundness", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_5_calibration_formulas():
    budget = PrivacyBudget(1.0, 1e-5)
    noise = calibrate(SENSITIVE_ONLY, budget, T=400, n=2000, m=1, rho=0.4, L_theta=1.0, D=1.0)
    ok = float(f"{noise.sigma_w_sq:.6g}") == 0.0460517
    ok &= float(f"{noise.sigma_theta_sq:.6g}") == 0.0460517  # L * D = 1
    full = calibrate(ALL_FEATURES, budget, T=400, n=2000, m=1, rho=0.4, L_theta=1.0, D=1.0, l=2)
    ok &= float(f"{full.sigma_w_sq:.6g}") == float(f"{0.0460517 * 2 * 3.5 / 2.5:.6g}")

    def scales(eps=1.0, n=2000, T=400, rho=0.4):
        s = calibrate(SENSITIVE_ONLY, PrivacyBudget(eps, 1e-5), T, n, 1, rho, 1.0, 1.0)
        return s.sigma_theta_sq, s.sigma_w_sq

    base = scales()
    ok &= all(a < b for a, b in zip(scales(eps=2.0), base))  # decreasing in eps
    ok &= all(a < b for a, b in zip(scales(n=4000), base))  # decreasing in n
    ok &= all(a > b for a, b in zip(scales(T=800), base))  # increasing in T
    ok &= all(a < b for a, b in zip(scales(rho=0.8), base))  # decreasing in 1/rho
    _report(5, "calibration formulas", ok, f"sigma_w_sq={noise.sigma_w_sq:.6g}")


def test_criterion_6_nondegenerate_learning():
    start = time.monotonic()
    ds = synth_dataset(SyntheticSpec(n=2000, d_x=5, bias=0.0, noise_scale=0.5, seed=0))
    train, test = train_test_split(ds, 0.25, seed=0)
    m = min(1024, train.n)
    T = 200 * math.ceil(train.n / m)
    config = SgdaConfig(eta_theta=0.01, eta_w=0.01, T=T, m=m, box_radius=1.0, seed=0)
    result = dp_fermi_train(
        train, ModelParams.zeros(train.l, train.d_x), FermiConfig(0.0), config,
        NoiseScales.none(),
    )
    accuracy = float((predict_label(result.params, test.features) == test.labels).mean())
    elapsed = time.monotonic() - start
    _report(
        6,
        "non-degenerate learning",
        accuracy >= 0.95 and elapsed < 60,
        f"test accuracy {accuracy:.3f}, {elapsed:.1f}s",
    )


TRADEOFF_SPEC = SyntheticSpec(n=6000, d_x=5, bias=0.9, noise_scale=1.25, seed=0)


def tradeoff_config(notion, lambdas):
    return ExperimentConfig(
        dataset=TRADEOFF_SPEC,
        notion=notion,
        lambdas=lambdas,
        epsilons=(3.0,),
        delta=1e-5,
        trials=5,
        granularity=SENSITIVE_ONLY,
        eta_theta=0.01,
        eta_w=0.01,
        epochs=200,
        batch_size=1024,
        box_radius=3.0,
        clip_theta=1.0,
        master_seed=7,
    )


def test_criterion_7_tradeoff_direction():
    start = time.monotonic()
    lambdas = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    rows = aggregate(run_sweep(tradeoff_config("demographic_parity", lambdas)))
    by_lam = {row["lam"]: row for row in rows}
    base = by_lam[0.0]["dp_violation_mean"]
    at_two = by_lam[2.0]["dp_violation_mean"]
    acc_drop = by_lam[2.0]["test_error_mean"] - by_lam[0.0]["test_error_mean"]
    rho = spearmanr(
        [row["lam"] for row in rows], [row["dp_violation_mean"] for row in rows]
    ).statistic
    elapsed = time.monotonic() - start
    ok = (
        base >= 0.3
        and at_two <= 0.5 * base
        and acc_drop <= 0.15
        and rho <= -0.5
        and elapsed < 600
    )
    _report(
        7,
        "fairness-accuracy tradeoff direction",
        ok,
        f"baseline {base:.3f}, at lam=2 {at_two:.3f} ({1 - at_two / base:.0%} cut), "
        f"acc drop {acc_drop * 100:.1f}pp, spearman {rho:.2f}, {elapsed:.0f}s",
    )


def test_criterion_8_equalized_odds_variant():
    rows = aggregate(run_sweep(tradeoff_config(EQUALIZED_ODDS, (0.0, 2.0))))
    by_lam = {row["lam"]: row for row in rows}
    base = by_lam[0.0]["eo_violation_mean"]
    at_two = by_lam[2.0]["eo_violation_mean"]
    acc_drop = by_lam[2.0]["test_error_mean"] - by_lam[0.0]["test_error_mean"]
    ok = at_two <= 0.6 * base and acc_drop <= 0.15
    _report(
        8,
        "equalized-odds variant",
        ok,
        f"baseline {base:.3f}, at lam=2 {at_two:.3f} ({1 - at_two / base:.0%} cut), "
        f"acc drop {acc_drop * 100:.1f}pp",
    )


def test_criterion_9_scaling_trend():
    def gap_sq(n, trial):
        ds = synth_dataset(SyntheticSpec(n=n, d_x=5, bias=0.5, noise_scale=1.0, seed=trial))
        stats = sensitive_stats(ds)
        m = 100
        T = 12 * math.ceil(n / m)
        assert T >= min_iterations(n, m, 1.0)
        noise = calibrate(
            SENSITIVE_ONLY, PrivacyBudget(1.0, 1e-5), T, n, 1, stats.rho,
            proba_lipschitz_bound(ds.features), 3.0,
        )
        config = SgdaConfig(
            eta_theta=0.01, eta_w=0.01, T=T, m=m, box_radius=3.0, clip_theta=1.0, seed=trial
        )
        result = dp_fermi_train(
            ds, ModelParams.zeros(ds.l, ds.d_x), FermiConfig(1.0), config, noise
        )
        return stationarity_gap(result.params, ds, FermiConfig(1.0)) ** 2

    small = float(np.mean([gap_sq(500, t) for t in range(10)]))
    large = float(np.mean([gap_sq(4000, t) for t in range(10)]))
    _report(
        9,
        "private descent-ascent scaling trend",
        large < small,
        f"mean gap^2: n=500 -> {small:.4f}, n=4000 -> {large:.4f}",
    )


def test_criterion_10_determinism(tmp_path):
    config = ExperimentConfig(
        dataset=SyntheticSpec(n=400, d_x=4, bias=0.6, noise_scale=1.0, seed=2),
        lambdas=(0.0, 1.0),
        epsilons=(1.0, 3.0),
        trials=2,
        granularity=SENSITIVE_ONLY,
        eta_theta=0.01,
        eta_w=0.01,
        epochs=30,
        batch_size=100,
        box_radius=1.0,
        clip_theta=1.0,
        master_seed=13,
    )
    outputs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        emit_csv(run_sweep(config), path)
        outputs.append(path.read_bytes())
    _report(
        10,
        "pipeline determinism",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        f"{len(outputs[0])} bytes, byte-identical",
    )
