"""Share a list of jobs across forked processes, one per usable CPU.

harness.run_sweep runs its sweep cells here and dataset._read_csv the byte
ranges of a large CSV, so both take the one fork path below. Share i of
the jobs is jobs[i::workers]; the caller runs share 0 itself and a forked
child runs each other share, pipes back one (results, exception) payload
and never returns into the caller's code. The exception carries the
child's traceback as a note, and a part that does not pickle is replaced
(_send), so only a child that died sends nothing; it fails at its first
job. The results come back in job order, and the exception raised is the
first failing job's in job order, as an in-process run would raise it.

A process forks only when it has a single OS thread, whose locks a fork
could copy held, and at least two CPUs that both its affinity mask and its
cgroup's CPU quota allow (_workers). Each share is pinned to a CPU of the
affinity mask: where a cpuset does not balance load (sched_load_balance 0),
a child would stay on its parent's CPU. Nothing here is configured: a
caller that wants one process passes workers=1.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from contextlib import suppress
from functools import partial

CGROUP = "/sys/fs/cgroup"  # cgroup v2's files, or v1's controller directories


def _quota_cpus(cpu_max=None, cfs_quota=None, cfs_period=None) -> float | None:
    """The CPUs a cgroup quota allows, from the text of cgroup v2's cpu.max
    ("max 100000", or "150000 100000" for 1.5 CPUs) or, without it, of
    cgroup v1's cpu.cfs_quota_us (-1 for none) and cpu.cfs_period_us; None
    for no quota or unreadable contents."""
    try:
        if cpu_max is not None:
            quota, period = cpu_max.split()
            return None if quota == "max" else int(quota) / int(period)
        if cfs_quota is not None and cfs_period is not None:
            quota = int(cfs_quota)
            return None if quota < 0 else quota / int(cfs_period)
    except (ValueError, ZeroDivisionError):
        pass
    return None


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, ValueError):
        return None


def _cpu_quota() -> float | None:
    """The CPU quota of the cgroup mounted at CGROUP (in a container, its
    own), read only; None if there is none or it cannot be read."""
    return _quota_cpus(*(
        _read_text(os.path.join(CGROUP, name))
        for name in ("cpu.max", "cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")
    ))


def _workers(tasks: int) -> int:
    """Processes to share `tasks` jobs across: one per usable CPU, at most
    one per task, if this process has no other OS thread; else 1
    (in-process). The usable CPUs are those of the affinity mask, capped at
    the whole CPUs of a cgroup quota."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    quota = _cpu_quota()
    if quota is not None:
        cpus = min(cpus, math.floor(quota))
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    workers = min(tasks, cpus)
    return workers if workers >= 2 and threads == 1 else 1


def _run_share(run_job, share: list) -> tuple:
    """(results, None) for the jobs of share; at the first job that raises,
    (the results before it, the exception)."""
    results = []
    try:
        for job in share:
            results.append(run_job(job))
    except Exception as exc:
        return results, exc
    return results, None


def _send(pipe, run_job, share: list) -> None:
    """Write _run_share's (results, exception) for share, pickled (protocol
    5) with the contiguous arrays in it out of band: the buffers' sizes, the
    buffers, then the pickle. The exception carries the child's formatted
    traceback as a note. An exception that fails its pickle round trip, or the
    pickling error of results that do (then sent as none), goes as that note
    on a ChildProcessError named by its format_exception_only's first line."""
    results, raised = _run_share(run_job, share)
    exc, lines = raised, None if raised is None else traceback.format_exception(raised)
    while True:  # at most three times, as a stand-in always round-trips
        if exc is not None:
            exc.add_note("Raised in a forked child:\n" + "".join(lines).rstrip())
        try:
            buffers = []
            head = pickle.dumps((results, exc), 5, buffer_callback=buffers.append)
            pickle.loads(head, buffers=buffers)
            break
        except Exception as error:  # the exception stands in first, then the results
            if exc is None or exc is not raised:
                results, lines, raised = [], traceback.format_exception(error), error
            exc = ChildProcessError(traceback.format_exception_only(raised)[0].strip())
    pickle.dump([buf.raw().nbytes for buf in buffers], pipe)
    for buf in buffers:
        pipe.write(buf.raw())
    pipe.write(head)


def _receive(pipe, place) -> tuple | None:
    """A child's (results, exception) as _send wrote it, its buffers read
    into those place(sizes) returns, or into new ones if it returns None;
    None if the child sent nothing or was cut short."""
    try:
        sizes = pickle.load(pipe)
        buffers = place(sizes) or [bytearray(size) for size in sizes]
        for buf in buffers:
            if pipe.readinto(buf) != memoryview(buf).nbytes:
                return None
        return pickle.load(pipe, buffers=buffers)
    except (EOFError, pickle.UnpicklingError):
        return None


def _run_shares(
    run_job, jobs: list, workers: int, name: str, place=lambda i, sizes: None
) -> list:
    """[run_job(job) for job in jobs], with jobs[i::workers] run as share i.

    Share 0 runs here; each other share runs in a forked child that pipes
    back its payload and never returns into the caller's code. The arrays
    in a child's results travel out of band: place(i, sizes) may return a
    writable buffer of each size for share i, into which they are read, so
    the caller holds them once. With cpus the sorted affinity mask, share i
    runs on CPU cpus[i % len(cpus)], so each share has a CPU of its own
    when there are as many CPUs as workers; the caller's mask is restored
    when this returns or raises. Every child is reaped, and an interrupt
    here kills them first. The exception raised is that of the first job
    in job order that raised, as in an in-process run. A child that lives
    sends a payload by _send's rule, so one that sent nothing died: it
    counts as failed at its first job, with a ChildProcessError naming it
    as `name` i of workers.
    """
    if workers == 1:
        return [run_job(job) for job in jobs]
    pids, pipes, shares = [], [], []
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    try:
        for i in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        os.close(read_fd)
                        with suppress(OSError):  # a CPU taken offline since
                            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                        with open(write_fd, "wb", closefd=False) as pipe:
                            _send(pipe, run_job, jobs[i::workers])
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_fd)
            pids.append(pid)
        with suppress(OSError):
            os.sched_setaffinity(0, {cpus[0]})
        shares.append(_run_share(run_job, jobs[::workers]))
        for i, read_fd in enumerate(pipes, 1):
            with open(read_fd, "rb", closefd=False) as pipe:
                shares.append(_receive(pipe, partial(place, i)))
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for read_fd in pipes:
            os.close(read_fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        os.sched_setaffinity(0, mask)  # last: if it raises, no child or pipe is left
    for i, status in enumerate(statuses, 1):
        if shares[i] is None:  # a child that died fails at its first job
            code = os.waitstatus_to_exitcode(status)
            error = f"{name} {i} of {workers} sent no records (exit status {code})"
            shares[i] = [], ChildProcessError(error)
    # share i's first failed job, if any, is jobs[i + len(results) * workers]
    failed = [
        (i + len(results) * workers, exc)
        for i, (results, exc) in enumerate(shares)
        if exc is not None
    ]
    if failed:
        raise min(failed, key=lambda failure: failure[0])[1]
    results = [None] * len(jobs)
    for i, (share_results, _) in enumerate(shares):
        results[i::workers] = share_results
    return results
