"""Run one benchmark workload in this process and print its result as JSON.

Started by run.py, once per set-up sample and once for the measured run,
so that set-up time and peak memory belong to one workload alone:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --mode setup|run --workdir DIR

Set-up time is taken from the first statement of this file, so it includes
importing numpy and fairdp. Operations run in a closed loop until the time
is up. With --trace 1, untraced and traced operations alternate, and the
traced ones give the per-layer metrics.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, count_c_calls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYERS = ("dataset", "classifier", "fairness", "privacy", "optimizer", "harness", "cli")
MODULES = [importlib.import_module(f"fairdp.{layer}") for layer in LAYERS]
TRAIN = "fairdp.optimizer.dp_fermi_train"
PREDICT_PROBA = "fairdp.classifier.predict_proba"
C_CALL_ITERS = 10  # the C-call count is the difference of T=2a and T=a runs


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Loop:
    """Closed-loop operations with output checks and failure counts."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None  # digest every operation's outputs must match
        self.quality = None

    def run_op(self, tracer: Tracer | None = None) -> float | None:
        """One operation; its duration in seconds, or None if it failed."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.install(MODULES)
            try:
                start = time.perf_counter()
                outputs = self.workload.op()
                elapsed = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.restore()
            quality = self.workload.check(outputs)
            digest = self.workload.digest(outputs)
            if self.reference is None:
                self.reference, self.quality = digest, quality
            elif digest != self.reference:
                raise AssertionError(
                    "outputs differ from the run's first operation"
                    + (" under tracing" if tracer is not None else "")
                )
            return elapsed
        except Exception:  # noqa: BLE001 - count the failure and keep measuring
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def untraced_metrics(workload, times: list[float], setup_s: float) -> dict:
    busy = sum(times)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / busy, "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "iters_per_s": (workload.iters_per_op * len(times) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_metrics(workload, ops: Tracer, setup: Tracer, traced, untraced, c_calls) -> dict:
    n_ops = len(traced)
    busy = sum(traced)
    iters = workload.iters_per_op * n_ops
    trainings = ops.calls(func=TRAIN)
    metrics = {}
    for layer in LAYERS:
        self_s = ops.self_ns(layer=layer) / 1e9
        metrics[f"{layer}.self_s_per_op"] = (self_s / n_ops, "s")
        metrics[f"{layer}.calls_per_op"] = (ops.calls(layer=layer) / n_ops, "count")
        metrics[f"{layer}.self_share"] = (self_s / busy, "frac")
    load_csv_s = ops.median_ns(func="fairdp.dataset.load_csv") / 1e9
    rows = workload.case.get("csv_rows", 0)
    metrics.update(
        {
            "classifier.forward_calls_per_iter": (
                ops.calls(scope=TRAIN, func=PREDICT_PROBA) / iters, "count"),
            "classifier.predict_proba_us": (
                ops.median_ns(scope=TRAIN, func=PREDICT_PROBA) / 1e3, "us"),
            "classifier.loss_grad_us": (
                ops.median_ns(scope=TRAIN, func="fairdp.classifier.mean_loss_grad") / 1e3, "us"),
            # the fairness function the training loop calls: the batched saddle terms
            "fairness.saddle_us": (
                ops.median_ns(scope=TRAIN, parent=TRAIN, layer="fairness") / 1e3, "us"),
            "optimizer.self_us_per_iter": (
                (ops.self_ns(func=TRAIN) + ops.self_ns(scope=TRAIN, layer="optimizer"))
                / iters / 1e3, "us"),
            "optimizer.c_calls_per_iter": (c_calls, "count"),
            "dataset.minibatch_us": (
                ops.median_ns(scope=TRAIN, func="fairdp.dataset.minibatch") / 1e3, "us"),
            "privacy.noise_us_per_iter": (
                ops.total_ns(scope=TRAIN, layer="privacy") / iters / 1e3, "us"),
            "harness.evaluate_ms_per_cell": (
                ops.total_ns(func="fairdp.harness.evaluate_metrics") / max(trainings, 1) / 1e6,
                "ms"),
            "dataset.load_csv_s": (load_csv_s, "s"),
            "dataset.load_csv_rows_per_s": (rows / load_csv_s if load_csv_s else 0.0, "1/s"),
            "classifier.checkpoint_save_ms": (
                ops.median_ns(func="fairdp.classifier.save_checkpoint") / 1e6, "ms"),
            "classifier.checkpoint_load_ms": (
                ops.median_ns(func="fairdp.classifier.load_checkpoint") / 1e6, "ms"),
            "harness.synth_s": (setup.median_ns(func="fairdp.harness.synth_dataset") / 1e9, "s"),
            # set-up's only cli call is `fairdp synth`; its self time is the CSV write
            "cli.synth_csv_s": (setup.self_ns(layer="cli") / 1e9, "s"),
            "trace.overhead_frac": (
                statistics.median(traced) / statistics.median(untraced) - 1.0, "frac"),
        }
    )
    return metrics


def c_calls_per_iter(case) -> float:
    """Exact C calls per training iteration: (count at T=2a - count at T=a) / a."""
    short = count_c_calls(case.run, C_CALL_ITERS)
    long = count_c_calls(case.run, 2 * C_CALL_ITERS)
    return (long - short) / C_CALL_ITERS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_tracer = Tracer("fairdp")
    if args.trace:
        setup_tracer.install(MODULES)
    try:
        workload.setup()
    finally:
        setup_tracer.restore()
    setup_s = time.perf_counter() - _START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop(workload)
    untraced, traced = [], []
    ops_tracer = Tracer("fairdp", scope_roots=(TRAIN,))
    begin = time.perf_counter()

    def have_samples() -> bool:
        return bool(untraced) and (bool(traced) or not args.trace)

    # Past the time limit, go on only until there is a sample of each kind of
    # operation, and give up on that after a few attempts.
    while time.perf_counter() - begin < args.seconds or (
        not have_samples() and loop.attempted < 4
    ):
        tracing = bool(args.trace) and loop.attempted % 2 == 1
        elapsed = loop.run_op(ops_tracer if tracing else None)
        if elapsed is not None:
            (traced if tracing else untraced).append(elapsed)

    metrics = {}
    if have_samples() and args.trace:
        c_calls = c_calls_per_iter(workload.training_case())
        metrics = traced_metrics(workload, ops_tracer, setup_tracer, traced, untraced, c_calls)
    elif have_samples():
        metrics = untraced_metrics(workload, untraced, setup_s)
    result = {
        "workload": args.workload,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "op_times_s": traced if args.trace else untraced,
        "setup_s": setup_s,
        "quality": loop.quality,
        "case": workload.case,
        "machine": machine(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
