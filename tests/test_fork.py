"""The fork policy: the usable CPUs, the affinity mask capped at a cgroup
quota, and the one BLAS thread that lets a fairdp process fork."""

import os
import subprocess
import sys
import textwrap
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


def fresh_interpreter(code, **variables):
    """Run code under -X dev -W error in a new interpreter whose environment
    lacks OPENBLAS_NUM_THREADS, unless variables set it; its standard output."""
    src = str(Path(_fork.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env.update(variables)
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


@pytest.mark.skipif(not TWO_USABLE_CPUS, reason="a process forks only with two usable CPUs")
class TestPlacement:
    """With cpus the sorted affinity mask, _run_shares runs share i on CPU
    cpus[i % len(cpus)] and gives the caller back its mask however it ends."""

    def test_each_share_runs_on_its_cpu_and_the_caller_gets_its_mask_back(self):
        out = fresh_interpreter(
            "import os\n"
            "from fairdp import _fork\n"
            "mask = os.sched_getaffinity(0)\n"
            "cpus = sorted(mask)\n"
            "workers = min(len(cpus), 4)\n"
            "\n"
            "def no_child_is_left():\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        return True\n"
            "    return False\n"
            "\n"
            "def placed(job, fail=None):\n"
            "    if job == fail:\n"
            "        raise (ValueError if job else KeyboardInterrupt)(job)\n"
            "    return os.sched_getaffinity(0)\n"
            "\n"
            "seen = _fork._run_shares(placed, list(range(workers)), workers, 'worker')\n"
            "assert seen == [{cpus[i]} for i in range(workers)], (seen, cpus)\n"
            "assert os.sched_getaffinity(0) == mask and no_child_is_left()\n"
            "for fail, error in ((1, ValueError), (0, KeyboardInterrupt)):\n"
            "    try:\n"
            "        _fork._run_shares(lambda job: placed(job, fail), [0, 1], 2, 'worker')\n"
            "    except error:\n"
            "        pass\n"
            "    else:\n"
            "        raise AssertionError(f'job {fail} did not raise')\n"
            "    assert os.sched_getaffinity(0) == mask, fail\n"
            "    assert no_child_is_left(), fail\n"
            "print('ok')\n",
            OPENBLAS_NUM_THREADS="1",
        )
        assert out == "ok\n"



# Jobs 0, 1, 2, 3 in two shares: the caller runs jobs 0 and 2, a child 1 and 3.
FAILURES_PRELUDE = """
import os
from fairdp import _fork

PARENT = os.getpid()


def where():
    return "the caller" if os.getpid() == PARENT else "a child"


def outcome(job, jobs=(0, 1, 2, 3)):
    # the exception's type, message and notes; no child may be left
    try:
        _fork._run_shares(job, list(jobs), 2, "sweep worker")
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "__notes__", [])
    finally:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        else:
            raise AssertionError("a child is left")
    raise AssertionError("no error")
"""


@pytest.mark.skipif(not TWO_USABLE_CPUS, reason="a process forks only with two usable CPUs")
class TestFailures:
    """_run_shares raises the exception of the first job in job order that
    raised, a child that died counting as failed at its first job, and a
    child's exception carries the child's traceback as one note. A child's
    results that do not pickle fail its share at its first job, with a
    ChildProcessError that names the pickling error."""

    def test_a_child_that_sent_nothing_does_not_hide_an_earlier_error(self):
        # the child dies at job 1; the caller raises at job 0, then at job 2
        out = fresh_interpreter(FAILURES_PRELUDE + textwrap.dedent("""
            def failing_at(at):
                def job(j):
                    if j == 1:
                        os._exit(3)
                    if j == at:
                        raise ValueError(f"job {j} failed")
                    return j
                return job

            print(outcome(failing_at(0)))
            print(outcome(failing_at(2)))
        """), OPENBLAS_NUM_THREADS="1")
        assert out.splitlines() == [
            "('ValueError', 'job 0 failed', [])",
            "('ChildProcessError', 'sweep worker 1 of 2 sent no records (exit status 3)', [])",
        ]

    def test_a_childs_exception_carries_its_traceback_as_one_note(self):
        # job 1 runs in the child, and in the caller when it is the first job
        out = fresh_interpreter(FAILURES_PRELUDE + textwrap.dedent("""
            def failing_job(j):
                if j == 1:
                    raise ValueError(f"job 1 failed in {where()}")
                return j

            name, message, notes = outcome(failing_job)
            assert (name, message) == ("ValueError", "job 1 failed in a child"), message
            (note,) = notes
            assert "in failing_job" in note, note
            assert "ValueError: job 1 failed in a child" in note, note
            got = outcome(failing_job, (1, 0))
            assert got == ("ValueError", "job 1 failed in the caller", []), got
            print("ok")
        """), OPENBLAS_NUM_THREADS="1")
        assert out == "ok\n"

    def test_results_that_do_not_pickle_fail_at_the_first_job_naming_the_pickling_error(self):
        # job 1 runs in the child. Its result is a local lambda, which pickle
        # refuses, or an object that pickles but does not unpickle. In the
        # last case the child also raises an error that does not pickle at
        # job 3, and the caller raises at job 2, after the child's first job.
        out = fresh_interpreter(FAILURES_PRELUDE + textwrap.dedent("""
            class Holding(Exception):
                def __init__(self, msg):
                    super().__init__(msg)
                    self.hook = lambda: None

            class TwoArgs(Exception):
                def __init__(self, msg, extra):
                    super().__init__(msg)

            def results_and_error_do_not_pickle(j):
                if j == 2:
                    raise ValueError("job 2 failed")
                if j == 3:
                    raise Holding("job 3 failed")
                return lambda: j

            local_object = "AttributeError: Can't pickle local object"
            for job, jobs, error in (
                (lambda j: (lambda: j), (0, 1), local_object),
                (lambda j: TwoArgs("job", j), (0, 1), "TypeError: TwoArgs.__init__() missing"),
                (results_and_error_do_not_pickle, (0, 1, 2, 3), local_object),
            ):
                name, message, notes = outcome(job, jobs)
                assert name == "ChildProcessError", name
                assert message.startswith(error), message
                (note,) = notes
                assert note.startswith("Raised in a forked child:\\nTraceback"), note
                assert "in _send" in note and message in note, note
            print("ok")
        """), OPENBLAS_NUM_THREADS="1")
        assert out == "ok\n"

    def test_a_stand_in_is_named_by_the_exception_it_replaces(self):
        # job 1 runs in the child and raises an exception that does not pickle:
        # one with a note of its own, or a group; the name is the exception's
        # own line, not its traceback's last line
        out = fresh_interpreter(FAILURES_PRELUDE + textwrap.dedent("""
            class Holding(Exception):
                def __init__(self, msg):
                    super().__init__(msg)
                    self.hook = lambda: None

            def noted(j):
                if j == 1:
                    exc = Holding("x")
                    exc.add_note("while reading row 7")
                    raise exc
                return j

            def grouped(j):
                if j == 1:
                    raise ExceptionGroup("cells failed", [Holding("x")])
                return j

            # the traceback in the note holds the job's own note, or the group's member
            for job, message, shown in (
                (noted, "Holding: x", "while reading row 7"),
                (grouped, "ExceptionGroup: cells failed (1 sub-exception)", "Holding: x"),
            ):
                got = outcome(job)
                assert got[:2] == ("ChildProcessError", message), got
                (note,) = got[2]
                assert note.startswith("Raised in a forked child:\\n"), note
                assert "Traceback" in note and "in " + job.__name__ in note, note
                assert message in note and shown in note, note
            print("ok")
        """), OPENBLAS_NUM_THREADS="1")
        assert out == "ok\n"
