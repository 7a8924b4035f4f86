"""fairdp benchmark: run workloads, check their outputs, print their metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

Each workload runs in processes of its own (bench/worker.py), with BLAS
pinned to one thread, from the repository's src/ -- no installed fairdp is
needed. With --trace 0 the run reports the end-to-end metrics; the set-up
time is the median over several fresh processes. With --trace 1 it reports
the per-layer metrics of traced operations. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only if every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("sweep-dp-narrow", "train-eo-wide", "cli-ingest")
SETUP_SAMPLES = 3  # fresh set-up-only processes, besides the measured run's own set-up
TIME_LIMIT_S = 170.0  # one workload's whole run, set-up processes included
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",  # every process compiles alike; nothing is left behind
}


class RunFailed(Exception):
    pass


def run_worker(args, mode: str, workdir: Path, deadline: float) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
        "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{args.workload} {mode} process exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{args.workload} {mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) of the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    for p in (99.0, 95.0, 90.0, 75.0):
        rank = int(len(ordered) * p / 100.0)
        if len(ordered) - rank - 1 >= 10:
            return p, ordered[rank]
    return None


def run_workload(args) -> dict:
    """All processes of one workload; the combined result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setup_samples.append(run_worker(args, "setup", workdir, deadline)["setup_s"])
        result = run_worker(args, "run", workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    if "setup_s" in result["metrics"]:
        setup_samples.append(result["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_samples)
    result["setup_samples_s"] = setup_samples
    return result


def report(result: dict) -> None:
    """Human-readable lines: machine, case, quality, every metric."""
    name = result["workload"]
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"case: {json.dumps(result['case'])}")
    print(f"quality (not gated): {json.dumps(result['quality'])}")
    if result["setup_samples_s"]:
        samples = ", ".join(f"{s:.3f}" for s in result["setup_samples_s"])
        print(f"setup samples (s): {samples}")
    times = result["op_times_s"]
    tail = tail_percentile(times)
    tail_text = (
        f", p{tail[0]:g} {tail[1]:.4f} s" if tail else ", too few for a tail percentile"
    )
    print(f"operation times: {len(times)} samples{tail_text}")
    for metric, entry in result["metrics"].items():
        print(
            f"{name} {metric} = {entry['value']:.6g} {entry['unit']} "
            f"(attempted {result['attempted']}, failed {result['failed']})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "fairdp" / "__init__.py").is_file():
        print(f"error: no fairdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{metric}": entry for r in results for metric, entry in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["metrics"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
