"""The fork policy: the usable CPUs, the affinity mask capped at a cgroup
quota, and the one BLAS thread that lets a fairdp process fork."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairdp import _fork
from helpers import TWO_USABLE_CPUS


class TestQuotaCpus:
    @pytest.mark.parametrize(
        "texts, cpus",
        [
            # cgroup v2: cpu.max holds "$MAX $PERIOD", and MAX may be "max"
            (("max 100000\n", None, None), None),
            (("150000 100000\n", None, None), 1.5),
            (("400000 100000\n", "100000\n", "100000\n"), 4.0),  # v2 wins over v1
            # cgroup v1: a quota of -1 is none
            ((None, "-1\n", "100000\n"), None),
            ((None, "50000\n", "100000\n"), 0.5),
            ((None, "300000\n", "100000\n"), 3.0),
            # nothing readable, or contents that are not a quota
            ((None, None, None), None),
            ((None, "200000\n", None), None),
            (("", None, None), None),
            (("max\n", None, None), None),
            (("100000 0\n", None, None), None),
            ((None, "two\n", "100000\n"), None),
        ],
    )
    def test_parses_cpu_max_and_cfs_files(self, texts, cpus):
        assert _fork._quota_cpus(*texts) == cpus


def fake_machine(monkeypatch, quota, cpus, threads=1):
    """_fork sees a cgroup quota, `cpus` CPUs in its affinity mask and
    `threads` OS threads in this process."""
    real_listdir = os.listdir
    tasks = [str(i) for i in range(threads)]
    monkeypatch.setattr(_fork, "_cpu_quota", lambda: quota)
    monkeypatch.setattr(_fork.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(
        _fork.os, "listdir",
        lambda path: tasks if path == "/proc/self/task" else real_listdir(path),
    )


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
class TestWorkers:
    @pytest.mark.parametrize(
        "quota, cpus, tasks, workers",
        [
            (None, 4, 8, 4),  # no quota: the affinity mask
            (None, 4, 3, 3),  # at most one worker per task
            (2.0, 4, 8, 2),
            (2.9, 4, 8, 2),  # whole CPUs only
            (1.5, 4, 8, 1),  # less than two whole CPUs: in-process
            (0.5, 4, 8, 1),
            (16.0, 2, 8, 2),  # a quota above the mask changes nothing
            (None, 1, 8, 1),
            (None, 4, 1, 1),
        ],
    )
    def test_the_quota_caps_the_affinity_mask(self, monkeypatch, quota, cpus, tasks, workers):
        fake_machine(monkeypatch, quota, cpus)
        assert _fork._workers(tasks) == workers

    def test_a_second_thread_keeps_one_worker(self, monkeypatch):
        fake_machine(monkeypatch, None, 4, threads=2)
        assert _fork._workers(8) == 1

    def test_cpu_quota_reads_the_cgroup_files(self, tmp_path, monkeypatch):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("250000\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        monkeypatch.setattr(_fork, "CGROUP", str(tmp_path))
        assert _fork._cpu_quota() == 2.5
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert _fork._cpu_quota() is None


def fresh_interpreter(code):
    """Run code in a new interpreter whose environment lacks
    OPENBLAS_NUM_THREADS; its standard output."""
    src = str(Path(_fork.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not TWO_USABLE_CPUS, reason="a process forks only with two usable CPUs")
class TestBlasThreads:
    """import fairdp loads numpy with one OpenBLAS thread, so a fairdp
    process may fork, and leaves the environment as it found it."""

    def test_importing_fairdp_first_keeps_one_thread(self):
        out = fresh_interpreter(
            "import os, fairdp\n"
            "from fairdp import _fork\n"
            "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ,\n"
            "      _fork._workers(2))\n"
        )
        assert out == "1 False 2\n"

    def test_importing_numpy_first_keeps_its_threads_and_never_forks(self):
        out = fresh_interpreter(
            "import os, numpy, fairdp\n"
            "from fairdp import _fork\n"
            "print(len(os.listdir('/proc/self/task')) > 1, _fork._workers(2))\n"
        )
        assert out == "True 1\n"
