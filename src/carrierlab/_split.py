"""Independent tasks over two CPUs: where a CPU is idle and the process has
one OS thread (a lock another thread held would stay held in the child), a
forked helper process runs tasks 1, 3, 5, ... and writes each outcome to a
pipe as one pickle, and the caller runs the others.  The caller runs its own
task i + 1 before it reads the helper's result i, so which process runs a
task, and the order in which the caller computes, are fixed functions of the
task list.  Results and the first exception come in task order either way."""

import contextlib
import functools
import os
import pickle
import signal
import time
from collections.abc import Iterator


@functools.cache  # once per process, so that a run splits every step or none
def _idle_cpu() -> bool:
    """Fewer tasks runnable on the machine (``/proc/loadavg``, this process
    included) than CPUs this process may use, in most of nine readings 1 ms apart."""
    cpus = len(os.sched_getaffinity(0))
    idle = 0
    for _ in range(9):
        with open("/proc/loadavg") as fh:
            idle += int(fh.read().split()[3].partition("/")[0]) < cpus
        time.sleep(0.001)
    return idle > 4


def _threads() -> int:
    """OS threads, a native BLAS pool's included; 0 where ``/proc`` lists none."""
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0


def _outcome(task) -> tuple:
    """``(True, task())``, or ``(False, exception)`` for the exception it raised."""
    try:
        return True, task()
    except Exception as exc:  # raised again in task order, by split
        return False, exc


def split(tasks: list) -> Iterator:
    """``task() for task in tasks``, in task order.  With a helper, the caller
    runs its own task i + 1 before it takes the helper's result i, so it holds
    at most one result of its own.  A helper that ends without its results
    raises ``ChildProcessError``.  The helper is killed and reaped when the
    iterator ends or is closed: a consumer that may stop early closes it
    (``contextlib.closing``), as a live traceback keeps it from collection."""
    pid = None
    if len(tasks) > 1 and _threads() == 1 and _idle_cpu():
        import fcntl  # POSIX only, like /proc

        r, w = os.pipe()
        with contextlib.suppress(OSError):  # best effort: a 1 MiB pipe stalls the helper less
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
        try:
            pid = os.fork()
        except OSError:  # no process to spare: every task runs here
            os.close(r)
            os.close(w)
        else:
            if pid == 0:
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        for task in tasks[1::2]:
                            ok, _ = outcome = _outcome(task)
                            pickle.dump(outcome, pipe)
                            pipe.flush()
                            if not ok:  # nothing after a raise is yielded
                                break
                finally:
                    os._exit(0)  # no exit handlers, no flush of inherited buffers; the pipe tells the parent
            os.close(w)
            theirs = open(r, "rb")
    if pid is None:
        for task in tasks:
            yield task()
        return
    try:
        mine = _outcome(tasks[0])
        for i in range(len(tasks)):
            if i % 2 == 0:
                ok, value = mine
            else:
                if i + 1 < len(tasks):
                    mine = _outcome(tasks[i + 1])  # before the helper's result i
                try:
                    ok, value = pickle.load(theirs)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError("the helper process ended without its results") from None
            if not ok:
                raise value
            yield value
    finally:
        theirs.close()
        os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still the helper's
        os.waitpid(pid, 0)
