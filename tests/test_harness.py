import math
import os
import re
import statistics
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from fairdp import harness
from fairdp.classifier import ModelParams, proba_lipschitz_bound
from fairdp.dataset import TabularDataset, sensitive_stats, train_test_split
from fairdp.exceptions import CalibrationError, DegenerateGroupError
from fairdp.fairness import FermiConfig
from fairdp.harness import (
    ALL_FEATURES,
    NO_PRIVACY,
    SENSITIVE_ONLY,
    SYNTH_BLOCK_ROWS,
    ExperimentConfig,
    SyntheticSpec,
    TradeoffRecord,
    aggregate,
    calibrate_for_run,
    emit_csv,
    evaluate_metrics,
    load_experiment_dataset,
    plan_run,
    run_sweep,
    synth_dataset,
)
from fairdp.optimizer import SgdaConfig, dp_fermi_train
from fairdp.privacy import GRANULARITIES, NoiseScales
from helpers import TWO_USABLE_CPUS, reference_synth_dataset


def cheap_config(**kw):
    base = dict(
        dataset=SyntheticSpec(n=120, d_x=3, bias=0.6, noise_scale=1.0, seed=0),
        lambdas=(0.0,),
        epsilons=(1.0,),
        trials=1,
        granularity=NO_PRIVACY,
        eta_theta=0.02,
        eta_w=0.02,
        epochs=2,
        batch_size=30,
        box_radius=1.0,
        clip_theta=None,
        master_seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSyntheticData:
    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(n=1, d_x=1, seed=0),
            SyntheticSpec(n=50, d_x=4, bias=0.3, noise_scale=0.7, seed=9),
            SyntheticSpec(n=SYNTH_BLOCK_ROWS, d_x=3, k=3, l=4, bias=0.5, seed=2),
            SyntheticSpec(n=3 * SYNTH_BLOCK_ROWS + 5, d_x=10, k=3, l=3, bias=0.5, seed=2),
            SyntheticSpec(n=9000, d_x=2, k=4, l=5, noise_scale=3.3, seed=5),
        ],
    )
    def test_matches_the_whole_array_expression_bit_for_bit(self, spec):
        got, want = synth_dataset(spec), reference_synth_dataset(spec)
        assert got.features.tobytes() == want.features.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.sensitive, want.sensitive)

    def test_deterministic(self):
        spec = SyntheticSpec(n=50, d_x=4, bias=0.3, noise_scale=1.0, seed=9)
        a, b = synth_dataset(spec), synth_dataset(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.sensitive, b.sensitive)

    def test_zero_bias_labels_independent_of_groups(self):
        ds = synth_dataset(SyntheticSpec(n=20_000, d_x=3, bias=0.0, seed=1))
        # empirical P(y=2 | s) should match across groups up to sampling noise
        rates = [
            (ds.labels[ds.sensitive == r] == 2).mean() for r in (1, 2)
        ]
        assert abs(rates[0] - rates[1]) <= 0.02

    def test_bias_skews_preferred_class(self):
        ds = synth_dataset(SyntheticSpec(n=20_000, d_x=3, bias=0.8, seed=1))
        rate_g2 = (ds.labels[ds.sensitive == 2] == 2).mean()
        rate_g1 = (ds.labels[ds.sensitive == 1] == 2).mean()
        assert rate_g2 - rate_g1 >= 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=0, d_x=3)
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d_x=3, bias=1.5)

    @pytest.mark.parametrize("noise_scale", [0.0, -1.0, math.nan, math.inf])
    def test_noise_scale_must_be_positive_and_finite(self, noise_scale):
        with pytest.raises(ValueError) as info:
            SyntheticSpec(n=10, d_x=3, noise_scale=noise_scale)
        assert str(info.value) == f"noise_scale must be positive and finite, got {noise_scale}"

    def test_noise_scale_that_overflows_the_features_is_named(self):
        # finite, but noise_scale * z overflows for |z| > 1.8
        spec = SyntheticSpec(n=10, d_x=5, noise_scale=1e308)
        with pytest.raises(ValueError, match=r"^noise_scale=1e\+308 overflows the features$"):
            synth_dataset(spec)

    @pytest.mark.parametrize("seed", [-1, 2.0, (1, 2)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
            SyntheticSpec(n=10, d_x=3, seed=seed)
        with pytest.raises(ValueError, match="^master_seed must be a non-negative integer, got "):
            cheap_config(master_seed=seed)

    @staticmethod
    def _unregularized_violation(bias, seed):
        ds = synth_dataset(SyntheticSpec(n=2000, d_x=5, bias=bias, noise_scale=1.0, seed=seed))
        train, test = train_test_split(ds, 0.25, seed)
        sgda = SgdaConfig(
            eta_theta=0.01, eta_w=0.01, T=400, m=min(1024, train.n), box_radius=1.0, seed=seed
        )
        result = dp_fermi_train(
            train, ModelParams.zeros(2, 5), FermiConfig(0.0), sgda, NoiseScales.none()
        )
        return evaluate_metrics(result.params, test)["dp_violation"]

    def test_unbiased_data_trains_to_low_violation(self):
        mean = np.mean([self._unregularized_violation(0.0, seed) for seed in range(5)])
        assert mean <= 0.05

    def test_biased_data_trains_to_high_violation(self):
        mean = np.mean([self._unregularized_violation(0.8, seed) for seed in range(5)])
        assert mean >= 0.3


class TestRunSweep:
    def test_record_count_matches_grid(self, tmp_path):
        config = cheap_config(
            lambdas=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5),
            epsilons=(0.5, 1.0, 3.0, 9.0),
            trials=5,
            epochs=1,
        )
        records = run_sweep(config)
        assert len(records) == 4 * 6 * 5
        assert all(rec.status == "ok" for rec in records)
        path = tmp_path / "grid.csv"
        emit_csv(records, path)
        assert len(path.read_text().strip().splitlines()) == 121

    def test_plain_erm_baseline_matches_direct_run(self):
        config = cheap_config(epochs=3)
        record = run_sweep(config)[0]
        # replay the single cell by hand with the same derived stream
        ds = synth_dataset(config.dataset)
        train, test = train_test_split(ds, 0.25, config.master_seed)
        m = min(config.batch_size, train.n)
        T = config.epochs * math.ceil(train.n / m)
        sgda = SgdaConfig(
            eta_theta=config.eta_theta, eta_w=config.eta_w, T=T, m=m, box_radius=1.0,
            seed=(config.master_seed, 0, 0, 0),
        )
        result = dp_fermi_train(
            train, ModelParams.zeros(train.l, train.d_x), FermiConfig(0.0), sgda,
            NoiseScales.none(),
        )
        metrics = evaluate_metrics(result.params, test)
        assert record.test_error == pytest.approx(metrics["error"], abs=1e-12)
        assert record.dp_violation == pytest.approx(metrics["dp_violation"], abs=1e-12)
        assert record.sigma_theta_sq == 0.0 and record.sigma_w_sq == 0.0

    def test_calibration_floor_enforced(self):
        config = cheap_config(granularity=SENSITIVE_ONLY, epochs=1, batch_size=2)
        # T = 45 but min_iterations(90, 2, 1) = ceil((90/4)^2) >> 45
        with pytest.raises(CalibrationError):
            run_sweep(config)

    def test_every_epsilon_is_planned_before_any_cell_trains(self, monkeypatch):
        # T = 9 meets the floor 7 at epsilon 3 but not the floor 12 at epsilon 5
        config = cheap_config(granularity=SENSITIVE_ONLY, epochs=3, epsilons=(3.0, 5.0))
        calls = []
        monkeypatch.setattr(harness, "dp_fermi_train", lambda *args: calls.append(args))
        with pytest.raises(CalibrationError, match="below the required minimum 12"):
            run_sweep(config)
        assert calls == []

    def test_a_test_split_lacking_a_group_is_refused_before_any_cell_trains(self, monkeypatch):
        # group 3 is one row, the first that train_test_split draws into the
        # train split; evaluating the test split would fail after training
        config = cheap_config(lambdas=(0.0, 1.0))
        ds = synth_dataset(config.dataset)
        sensitive = ds.sensitive.copy()
        sensitive[np.random.default_rng(config.master_seed).permutation(ds.n)[0]] = 3
        ds = TabularDataset(ds.features, ds.labels, sensitive, ds.l, 3)
        calls = []

        def training(*args):
            calls.append(args)
            return dp_fermi_train(*args)

        monkeypatch.setattr(harness, "load_experiment_dataset", lambda config: ds)
        monkeypatch.setattr(harness, "dp_fermi_train", training)
        with pytest.raises(DegenerateGroupError) as info:
            run_sweep(config)
        assert str(info.value) == "sensitive group(s) [3] have no samples in the test split"
        assert calls == []

    def test_a_train_split_lacking_a_group_is_refused_before_any_cell_trains(self, monkeypatch):
        # group 3 is one row, the last that train_test_split draws, which goes
        # to the test split; calibration would fail on the train split without
        # naming it
        config = cheap_config(lambdas=(0.0, 1.0))
        ds = synth_dataset(config.dataset)
        sensitive = ds.sensitive.copy()
        sensitive[np.random.default_rng(config.master_seed).permutation(ds.n)[-1]] = 3
        ds = TabularDataset(ds.features, ds.labels, sensitive, ds.l, 3)
        calls = []
        monkeypatch.setattr(harness, "load_experiment_dataset", lambda config: ds)
        monkeypatch.setattr(harness, "dp_fermi_train", lambda *args: calls.append(args))
        with pytest.raises(DegenerateGroupError) as info:
            run_sweep(config)
        assert str(info.value) == "sensitive group(s) [3] have no samples in the train split"
        assert calls == []

    def test_the_loaded_dataset_is_dropped_before_the_first_cell_trains(self, monkeypatch):
        # the cells, and the children of a forked sweep, hold only the splits
        load, refs, alive = harness.load_experiment_dataset, [], []

        def loading(config):
            ds = load(config)
            refs.append(weakref.ref(ds))
            return ds

        def training(*args):
            alive.append(refs[0]() is not None)
            return dp_fermi_train(*args)

        monkeypatch.setattr(harness, "load_experiment_dataset", loading)
        monkeypatch.setattr(harness, "dp_fermi_train", training)
        run_sweep(cheap_config(lambdas=(0.0, 1.0)))
        assert alive == [False, False]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_logit_overflow_records_diverged(self):
        # noise_scale 1e200 gives features whose second-step logits overflow
        spec = SyntheticSpec(n=120, d_x=3, bias=0.6, noise_scale=1e200, seed=0)
        records = run_sweep(cheap_config(dataset=spec, lambdas=(0.0, 1.0)))
        assert [rec.status for rec in records] == ["diverged", "diverged"]
        assert all(math.isnan(rec.test_error) for rec in records)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected_before_any_cell(self, lam):
        # the config rejects it up front, so earlier lambdas are not trained first
        with pytest.raises(ValueError, match="finite"):
            cheap_config(lambdas=(0.0, lam))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
    def test_epsilon_must_be_positive_and_finite_without_privacy(self, epsilon):
        # no calibration reads epsilon at granularity none, so the config's
        # PrivacyBudget must
        message = f"^epsilon must be positive and finite, got {epsilon}$"
        with pytest.raises(CalibrationError, match=message):
            cheap_config(epsilons=(1.0, epsilon))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("eta_theta", "eta_theta must be positive and finite, got nan"),
            ("eta_w", "eta_w must be positive and finite, got nan"),
            ("box_radius", "box radius D must be positive and finite, got nan"),
            ("clip_theta", "clip_theta must be positive and finite, got nan"),
        ],
    )
    def test_sgda_values_rejected_before_any_data_is_read(self, field, message):
        # the config builds an SgdaConfig from its own fields; the file is never opened
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(dataset="does-not-exist.csv", **{field: math.nan})

    @pytest.mark.parametrize("fraction", [1.5, 0.0, 1.0, math.nan])
    def test_test_fraction_rejected_before_any_data_is_read(self, monkeypatch, fraction):
        # the config, not the split, refuses it, with train_test_split's line
        loads = []
        monkeypatch.setattr(harness, "load_experiment_dataset", loads.append)
        with pytest.raises(ValueError) as info:
            run_sweep(cheap_config(test_fraction=fraction))
        assert str(info.value) == f"test_fraction must lie in (0, 1), got {fraction}"
        assert loads == []

    @pytest.mark.parametrize("field", ["lambdas", "epsilons"])
    def test_empty_grid_rejected(self, field):
        with pytest.raises(ValueError) as info:
            cheap_config(**{field: ()})
        assert str(info.value) == "lambda and epsilon values must be nonempty"

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError) as info:
            cheap_config(granularity="everything")
        assert str(info.value) == f"granularity must be one of {GRANULARITIES}"

    def test_all_features_privacy_requires_clip(self):
        with pytest.raises(CalibrationError):
            cheap_config(granularity=ALL_FEATURES, clip_theta=None)
        assert cheap_config(granularity=ALL_FEATURES, clip_theta=1.0).clip_theta == 1.0

    def test_deterministic_records(self):
        config = cheap_config(lambdas=(0.0, 1.0), trials=2)
        assert run_sweep(config) == run_sweep(config)

    def test_each_cell_is_seeded_with_its_grid_indices(self, monkeypatch):
        # cell (e, l, t) of the grid is one dp_fermi_train run whose only
        # seed is SgdaConfig.seed = (master_seed, e, l, t)
        config = cheap_config(
            granularity=SENSITIVE_ONLY, epsilons=(1.0, 2.0), lambdas=(0.0, 1.5), trials=2
        )
        params = []

        def recording_train(*args, **kwargs):
            result = dp_fermi_train(*args, **kwargs)
            params.append(result.params.as_vector().tobytes())
            return result

        monkeypatch.setattr(harness, "dp_fermi_train", recording_train)
        records = run_sweep(config)
        assert len(records) == len(params) == 8
        ds = synth_dataset(config.dataset)
        train, test = train_test_split(ds, config.test_fraction, config.master_seed)
        cells = [(e, l, t) for e in range(2) for l in range(2) for t in range(2)]
        for (e, l, t), record, swept in zip(cells, records, params):
            sgda, noise = plan_run(config, train, config.epsilons[e])
            cell = SgdaConfig(
                eta_theta=config.eta_theta, eta_w=config.eta_w, T=sgda.T, m=sgda.m,
                box_radius=config.box_radius, clip_theta=config.clip_theta,
                seed=(config.master_seed, e, l, t),
            )
            result = dp_fermi_train(
                train, ModelParams.zeros(train.l, train.d_x), FermiConfig(config.lambdas[l]),
                cell, noise,
            )
            assert result.params.as_vector().tobytes() == swept
            train_metrics = evaluate_metrics(result.params, train)
            test_metrics = evaluate_metrics(result.params, test)
            assert (record.epsilon, record.lam, record.seed) == (
                config.epsilons[e], config.lambdas[l], t
            )
            assert record.train_error == train_metrics["error"]
            assert record.test_error == test_metrics["error"]
            for name in ("dp_violation", "eo_violation", "ermi_hard"):
                assert repr(getattr(record, name)) == repr(test_metrics[name])
        assert len(set(params)) == 8


# Run in a fresh interpreter with one BLAS thread, so the process has a single
# OS thread and, with two usable CPUs, run_sweep forks. FORKING's cells train
# EPOCHS steps of m = 300 (300 training rows), the fewest that reach
# FORK_MIN_SAMPLE_STEPS; forks counts the children harness starts.
FORK_PRELUDE = """
import os
from dataclasses import replace

from fairdp import harness
from fairdp.dataset import train_test_split
from fairdp.fairness import FermiConfig
from fairdp.harness import (
    SENSITIVE_ONLY, ExperimentConfig, SyntheticSpec, TradeoffRecord, evaluate_metrics, plan_run,
    run_sweep,
)
from fairdp.classifier import ModelParams
from fairdp.optimizer import dp_fermi_train

EPOCHS = -(-harness.FORK_MIN_SAMPLE_STEPS // 300)
FORKING = ExperimentConfig(
    dataset=SyntheticSpec(n=400, d_x=3, bias=0.6, seed=0), lambdas=(0.0, 1.5), epsilons=(3.0,),
    trials=2, granularity=SENSITIVE_ONLY, eta_theta=0.02, eta_w=0.02, epochs=EPOCHS,
    batch_size=300, master_seed=5,
)
CELLS = [(0, l, t) for l in range(2) for t in range(2)]
WORKERS = min(len(CELLS), len(os.sched_getaffinity(0)))
PARENT = os.getpid()
forks = []
fork = os.fork


def counting_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counting_fork


def no_child_is_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def where():
    return "parent" if os.getpid() == PARENT else "a child"
"""


def run_forking(body, timeout=120):
    """Run FORK_PRELUDE and then body in a new interpreter, under -X dev
    with warnings as errors; the completed process."""
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", FORK_PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.skipif(not TWO_USABLE_CPUS, reason="a sweep forks only with two usable CPUs")
class TestForkedSweep:
    def test_records_are_the_cell_references_forked_or_not(self):
        proc = run_forking("""
            records = run_sweep(FORKING)
            assert forks and len(forks) == WORKERS - 1, forks
            assert no_child_is_left()
            train, test = train_test_split(
                harness.load_experiment_dataset(FORKING), FORKING.test_fraction, 5
            )
            sgda, noise = plan_run(FORKING, train, 3.0)
            assert sgda.T * sgda.m >= harness.FORK_MIN_SAMPLE_STEPS
            expected = []
            for e, l, t in CELLS:
                lam = FORKING.lambdas[l]
                cell = replace(sgda, seed=(5, e, l, t))
                result = dp_fermi_train(
                    train, ModelParams.zeros(train.l, train.d_x), FermiConfig(lam), cell, noise
                )
                metrics = evaluate_metrics(result.params, test)
                expected.append(TradeoffRecord(
                    dataset_id=FORKING.dataset.dataset_id, seed=t, epsilon=3.0,
                    delta=FORKING.delta, lam=lam, notion=FORKING.notion, T=sgda.T, m=sgda.m,
                    sigma_theta_sq=noise.sigma_theta_sq, sigma_w_sq=noise.sigma_w_sq,
                    train_error=evaluate_metrics(result.params, train)["error"],
                    test_error=metrics["error"], dp_violation=metrics["dp_violation"],
                    eo_violation=metrics["eo_violation"], ermi_hard=metrics["ermi_hard"],
                ))
            assert repr(records) == repr(expected)
            assert len({rec.test_error for rec in records}) > 1
            # on one usable CPU the sweep runs in-process, to the same bytes
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            forks.clear()
            assert repr(run_sweep(FORKING)) == repr(records)
            assert forks == []
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == ""

    def test_short_cells_and_a_second_thread_keep_the_sweep_in_process(self):
        proc = run_forking("""
            import threading

            run_sweep(replace(FORKING, epochs=EPOCHS - 1))  # cells just below the floor
            assert forks == []
            records = run_sweep(FORKING)
            assert len(forks) == WORKERS - 1
            forks.clear()
            stop = threading.Event()
            waiter = threading.Thread(target=stop.wait)
            waiter.start()
            try:
                assert repr(run_sweep(FORKING)) == repr(records)
            finally:
                stop.set()
                waiter.join()
            assert forks == []
        """)
        assert proc.returncode == 0, proc.stderr

    def test_a_childs_error_is_raised_with_its_message_and_traceback(self):
        # cell (0, 0, 1) is the second job, the first of share 1
        proc = run_forking("""
            import traceback

            def failing_train(train, theta0, fermi, sgda, noise):
                if sgda.seed == (5, 0, 0, 1):
                    raise ValueError(f"cell {sgda.seed} failed in {where()}")
                return dp_fermi_train(train, theta0, fermi, sgda, noise)

            harness.dp_fermi_train = failing_train
            try:
                run_sweep(FORKING)
            except ValueError as exc:
                assert str(exc) == "cell (5, 0, 0, 1) failed in a child", exc
                printed = "".join(traceback.format_exception(exc))
                notes = exc.__notes__
            else:
                raise AssertionError("no error")
            assert forks and no_child_is_left()
            # the child's frames and message travel as the exception's one
            # note, printed after the caller's frames
            (child,) = notes
            here, _, _ = printed.partition(child)
            assert "in failing_train" in child, printed
            assert "ValueError: cell (5, 0, 0, 1) failed in a child" in child, printed
            assert "in _run_shares" in here and "in failing_train" not in here, printed
        """)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("failing", [(0, 1, 1, 0), (0, 0, 1, 1)])
    def test_the_first_failing_cell_in_grid_order_is_raised(self, failing):
        # job j is cell (0, j // 2, j % 2); the parent's share holds jobs 0
        # and, with two workers, 2. An in-process run stops at the first
        # failing job, and so must the forked run's error
        proc = run_forking(f"""
            failing = {failing!r}

            def failing_train(train, theta0, fermi, sgda, noise):
                job = 2 * sgda.seed[2] + sgda.seed[3]
                if failing[job]:
                    raise ValueError(f"job {{job}} failed")
                return dp_fermi_train(train, theta0, fermi, sgda, noise)

            harness.dp_fermi_train = failing_train
            messages = []
            for cpus in (os.sched_getaffinity(0), {{min(os.sched_getaffinity(0))}}):
                os.sched_setaffinity(0, cpus)
                try:
                    run_sweep(FORKING)
                except ValueError as exc:
                    messages.append(str(exc))
                assert no_child_is_left()
            assert len(forks) == WORKERS - 1, forks
            assert messages == [f"job {{failing.index(1)}} failed"] * 2, messages
        """)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "failing", [(0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        ids=["no_cell", "both_children", "a_child_and_the_parent"],
    )
    def test_three_workers(self, failing):
        # three workers, as on a host with three usable CPUs: the parent's
        # share is jobs 0 and 3, and each child runs one job. The records, or
        # the first failing job in grid order, are the in-process run's
        proc = run_forking(f"""
            failing = {failing!r}
            workers = harness._workers
            harness._workers = lambda tasks: 3 if workers(tasks) > 1 else 1

            def failing_train(train, theta0, fermi, sgda, noise):
                job = 2 * sgda.seed[2] + sgda.seed[3]
                if failing[job]:
                    raise ValueError(f"job {{job}} failed")
                return dp_fermi_train(train, theta0, fermi, sgda, noise)

            harness.dp_fermi_train = failing_train
            outcomes = []
            for cpus in (os.sched_getaffinity(0), {{min(os.sched_getaffinity(0))}}):
                os.sched_setaffinity(0, cpus)
                try:
                    outcomes.append(repr(run_sweep(FORKING)))
                except ValueError as exc:
                    outcomes.append(str(exc))
                assert no_child_is_left()
            assert len(forks) == 2, forks
            assert outcomes[0] == outcomes[1], outcomes
            if 1 in failing:
                assert outcomes[0] == f"job {{failing.index(1)}} failed", outcomes
            else:
                assert outcomes[0].startswith("[TradeoffRecord("), outcomes
        """)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "error",
        [
            "Holding(msg)",  # its lambda does not pickle
            "TwoArgs(msg, 'needs two')",  # pickles, but unpickles with one argument
        ],
    )
    def test_an_error_that_does_not_survive_pickling_comes_back_by_name(self, error):
        proc = run_forking(f"""
            class Holding(Exception):
                def __init__(self, msg):
                    super().__init__(msg)
                    self.hook = lambda: None

            class TwoArgs(Exception):
                def __init__(self, msg, extra):
                    super().__init__(msg)

            def failing_train(train, theta0, fermi, sgda, noise):
                if sgda.seed == (5, 0, 0, 1):
                    msg = "cell failed in " + where()
                    raise {error}
                return dp_fermi_train(train, theta0, fermi, sgda, noise)

            harness.dp_fermi_train = failing_train
            try:
                run_sweep(FORKING)
            except ChildProcessError as exc:
                name = {error!r}.partition("(")[0]
                assert str(exc) == name + ": cell failed in a child", exc
                (child,) = exc.__notes__
                assert "in failing_train" in child, child
                assert name + ": cell failed in a child" in child, child
            else:
                raise AssertionError("no error")
            assert forks and no_child_is_left()
        """)
        assert proc.returncode == 0, proc.stderr

    def test_a_child_that_sends_nothing_is_a_child_process_error(self):
        proc = run_forking("""
            def dying_train(train, theta0, fermi, sgda, noise):
                if sgda.seed == (5, 0, 0, 1):
                    os._exit(3)
                return dp_fermi_train(train, theta0, fermi, sgda, noise)

            harness.dp_fermi_train = dying_train
            try:
                run_sweep(FORKING)
            except ChildProcessError as exc:
                assert str(exc) == f"sweep worker 1 of {WORKERS} sent no records (exit status 3)"
            else:
                raise AssertionError("no error")
            assert forks and no_child_is_left()
        """)
        assert proc.returncode == 0, proc.stderr

    def test_the_cli_reports_a_dead_child_in_one_line(self, tmp_path):
        # ChildProcessError is an OSError, so fairdp sweep exits 2 without a traceback
        data, out = str(tmp_path / "data.csv"), str(tmp_path / "records.csv")
        proc = run_forking(f"""
            import sys
            from fairdp.cli import main

            def dying_train(train, theta0, fermi, sgda, noise):
                if where() != "parent":
                    os._exit(1)
                return dp_fermi_train(train, theta0, fermi, sgda, noise)

            assert main(["synth", "--n", "400", "--d-x", "3", "--out", {data!r}]) == 0
            harness.dp_fermi_train = dying_train
            code = main([
                "sweep", "--dataset", {data!r}, "--epsilon", "3", "--lambda", "0", "1.5",
                "--epochs", str(EPOCHS), "--batch-size", "300", "--granularity", "none",
                "--out", {out!r},
            ])
            assert forks and no_child_is_left()
            sys.exit(code)
        """)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: sweep worker 1 of 2 sent no records (exit status 1)\n"

    def test_an_interrupt_here_stops_and_reaps_the_children(self):
        # the parent's first cell is interrupted while the children would
        # train for a minute; they are killed, not waited for
        proc = run_forking("""
            import time

            def slow_train(train, theta0, fermi, sgda, noise):
                if where() == "parent":
                    raise KeyboardInterrupt
                time.sleep(60)

            harness.dp_fermi_train = slow_train
            start = time.monotonic()
            try:
                run_sweep(FORKING)
            except KeyboardInterrupt:
                pass
            else:
                raise AssertionError("no interrupt")
            assert time.monotonic() - start < 30
            assert forks and no_child_is_left()
        """)
        assert proc.returncode == 0, proc.stderr


def split_of(config):
    ds = load_experiment_dataset(config)
    return train_test_split(ds, config.test_fraction, config.master_seed)[0]


class TestPlanRun:
    def test_batch_capped_at_training_set(self):
        config = cheap_config(batch_size=10_000, epochs=3)
        train = split_of(config)
        sgda, _ = plan_run(config, train, 1.0)
        assert sgda.m == train.n == 90
        assert sgda.T == 3

    @pytest.mark.parametrize("batch_size, batches", [(7, 13), (30, 3), (40, 3), (89, 2), (90, 1)])
    def test_iterations_are_epochs_times_batches_per_epoch(self, batch_size, batches):
        config = cheap_config(batch_size=batch_size, epochs=4)
        train = split_of(config)
        assert batches == math.ceil(train.n / batch_size)
        sgda, _ = plan_run(config, train, 1.0)
        assert (sgda.m, sgda.T) == (batch_size, 4 * batches)

    def test_run_length_counts_batches_in_ints(self):
        # n / m as a float would overflow here, and lose digits beyond 2^53
        assert harness.run_length(10 ** 400, 10, 2) == (10, 2 * 10 ** 399)
        assert harness.run_length(2 ** 53 + 1, 1, 1) == (1, 2 ** 53 + 1)

    @pytest.mark.parametrize("n", [math.nan, 2.5, True], ids=["nan", "fraction", "bool"])
    def test_run_length_names_a_non_integer_n(self, n):
        with pytest.raises(ValueError) as info:
            harness.run_length(n, 10, 1)
        assert str(info.value) == f"n must be a positive integer, got {n!r}"

    @pytest.mark.parametrize("granularity", [SENSITIVE_ONLY, ALL_FEATURES, NO_PRIVACY])
    def test_noise_is_calibrated_at_the_split(self, granularity):
        config = cheap_config(
            granularity=granularity, epochs=3, box_radius=2.0, clip_theta=0.5, delta=1e-4
        )
        train = split_of(config)
        sgda, noise = plan_run(config, train, 3.0)
        expected = calibrate_for_run(
            granularity, 3.0, 1e-4, sgda.T, train.n, sgda.m, sensitive_stats(train).rho,
            proba_lipschitz_bound(train.features), 2.0, train.l,
        )
        assert noise == expected
        assert (noise.sigma_w_sq > 0) == (granularity != NO_PRIVACY)
        assert sgda == SgdaConfig(
            eta_theta=0.02, eta_w=0.02, T=sgda.T, m=30, box_radius=2.0, clip_theta=0.5, seed=5
        )

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="defect G: the noise is calibrated at rho and L of the private training split",
    )
    @pytest.mark.parametrize("granularity", [SENSITIVE_ONLY, ALL_FEATURES])
    def test_adjacent_training_splits_get_the_same_noise(self, granularity):
        # sensitive-only: one member of the smallest group moves to another
        # group; all-features: one record is replaced, its features set to 100
        config = cheap_config(granularity=granularity, epochs=3, clip_theta=0.5, delta=1e-4)
        train = split_of(config)
        features, sensitive = train.features.copy(), train.sensitive.copy()
        if granularity == SENSITIVE_ONLY:
            counts = np.bincount(sensitive, minlength=train.k + 1)[1:]
            smallest = int(np.argmin(counts)) + 1
            sensitive[np.flatnonzero(sensitive == smallest)[0]] = smallest % train.k + 1
        else:
            features[0] = 100.0
        adjacent = TabularDataset(features, train.labels, sensitive, l=train.l, k=train.k)
        assert plan_run(config, adjacent, 3.0)[1] == plan_run(config, train, 3.0)[1]

    def test_sweep_records_follow_the_plan(self):
        config = cheap_config(
            granularity=SENSITIVE_ONLY, epsilons=(1.0, 3.0), lambdas=(0.0, 1.0), trials=2,
            epochs=3, clip_theta=1.0,
        )
        records = run_sweep(config)
        assert len(records) == 8
        train = split_of(config)
        for rec in records:
            sgda, noise = plan_run(config, train, rec.epsilon)
            assert (rec.T, rec.m, rec.sigma_theta_sq, rec.sigma_w_sq) == (
                sgda.T, sgda.m, noise.sigma_theta_sq, noise.sigma_w_sq
            )
        assert records[0].sigma_w_sq > records[-1].sigma_w_sq > 0


def toy_records():
    base = dict(
        dataset_id="toy", delta=1e-5, notion="demographic_parity", T=10, m=5,
        sigma_theta_sq=0.0, sigma_w_sq=0.0, train_error=0.1, test_error=0.2,
        dp_violation=0.3, eo_violation=0.4, ermi_hard=0.05, status="ok",
    )
    return base


class TestAggregate:
    def test_single_record(self):
        rec = TradeoffRecord(seed=0, epsilon=1.0, lam=0.5, **toy_records())
        row = aggregate([rec])[0]
        assert row["runs"] == 1
        assert row["test_error_mean"] == pytest.approx(0.2)
        assert row["test_error_std"] == 0.0

    def test_symmetric_pair_mean_at_midpoint(self):
        base = toy_records()
        recs = []
        for seed, err in ((0, 0.1), (1, 0.3)):
            fields = dict(base)
            fields["test_error"] = err
            recs.append(TradeoffRecord(seed=seed, epsilon=1.0, lam=0.0, **fields))
        row = aggregate(recs)[0]
        assert row["test_error_mean"] == pytest.approx(0.2)
        assert row["test_error_std"] == pytest.approx(0.1)

    def test_fifteen_records_match_independent_recomputation(self):
        rng = np.random.default_rng(3)
        base = toy_records()
        recs = []
        for seed in range(15):
            fields = dict(base)
            fields["test_error"] = float(rng.uniform(0, 1))
            fields["dp_violation"] = float(rng.uniform(0, 1))
            recs.append(TradeoffRecord(seed=seed, epsilon=2.0, lam=1.0, **fields))
        row = aggregate(recs)[0]
        errors = [rec.test_error for rec in recs]
        assert row["test_error_mean"] == pytest.approx(statistics.fmean(errors), abs=1e-12)
        assert row["test_error_std"] == pytest.approx(statistics.pstdev(errors), abs=1e-12)

    def test_groups_sorted_by_epsilon_then_lambda(self):
        base = toy_records()
        recs = [
            TradeoffRecord(seed=0, epsilon=e, lam=l, **base)
            for e, l in [(3.0, 0.0), (1.0, 1.0), (1.0, 0.0), (3.0, 1.0)]
        ]
        rows = aggregate(recs)
        assert [(r["epsilon"], r["lam"]) for r in rows] == [
            (1.0, 0.0), (1.0, 1.0), (3.0, 0.0), (3.0, 1.0)
        ]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestEmitCsv:
    def test_header_only_for_no_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("dataset_id,seed,epsilon,delta,lambda,notion")

    def test_round_trip_six_digits(self, tmp_path):
        rec = TradeoffRecord(
            seed=3, epsilon=1.23456789, lam=0.987654321, **toy_records()
        )
        path = tmp_path / "r.csv"
        emit_csv([rec], path)
        header, row = path.read_text().strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["epsilon"]) == float(f"{1.23456789:.6g}")
        assert float(values["lambda"]) == float(f"{0.987654321:.6g}")
        assert values["status"] == "ok"

    def test_line_count(self, tmp_path):
        config = cheap_config(lambdas=(0.0, 1.0), epsilons=(1.0, 2.0), trials=2)
        records = run_sweep(config)
        path = tmp_path / "sweep.csv"
        emit_csv(records, path)
        assert len(path.read_text().strip().splitlines()) == len(records) + 1

    def test_aggregate_rows_supported(self, tmp_path):
        rec = TradeoffRecord(seed=0, epsilon=1.0, lam=0.0, **toy_records())
        path = tmp_path / "agg.csv"
        emit_csv(aggregate([rec]), path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("epsilon,lambda,runs")

    def test_byte_identical_output(self, tmp_path):
        config = cheap_config(lambdas=(0.0, 0.5), trials=2)
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            emit_csv(run_sweep(config), path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestCalibrateForRun:
    def test_none_granularity_is_noiseless(self):
        noise = calibrate_for_run(NO_PRIVACY, 1.0, 1e-5, 10, 100, 10, 0.5, 1.0, 1.0, 2)
        assert noise.sigma_theta_sq == 0.0 and noise.sigma_w_sq == 0.0

    def test_iteration_floor(self):
        with pytest.raises(CalibrationError):
            calibrate_for_run(SENSITIVE_ONLY, 1.0, 1e-5, 10, 1000, 10, 0.5, 1.0, 1.0, 2)

    @pytest.mark.parametrize("epsilon, delta", [(math.nan, 1e-5), (-1.0, 1e-5), (1.0, 7.0)])
    def test_none_granularity_checks_the_budget(self, epsilon, delta):
        with pytest.raises(CalibrationError):
            calibrate_for_run(NO_PRIVACY, epsilon, delta, 10, 100, 10, 0.5, 1.0, 1.0, 2)

    def test_none_granularity_has_no_epsilon_cap(self):
        noise = calibrate_for_run(NO_PRIVACY, 100.0, 1e-5, 10, 100, 10, 0.5, 1.0, 1.0, 2)
        assert noise == NoiseScales.none()
