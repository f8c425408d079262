"""Independent tasks over two CPUs: where a CPU is idle and the process has
one OS thread (a lock another thread held would stay held in the child), a
forked helper process runs tasks 1, 3, 5, ... and streams each outcome back
as soon as it has it, and the caller runs the others.  Which process runs a
task is a fixed function of its index.  Results and the first exception come
in task order either way."""

import contextlib
import functools
import os
import pickle
import select
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


def _read(fd: int, size: int) -> bytearray:
    """``size`` bytes from the pipe ``fd``, however many reads they take."""
    data = bytearray(size)
    done = 0
    while done < size:
        got = os.readv(fd, [memoryview(data)[done:]])
        if not got:
            raise ChildProcessError("the helper process ended without its results")
        done += got
    return data


def split(tasks: list) -> Iterator:
    """``task() for task in tasks``, in task order.  Where the result due next
    is the helper's and has not arrived, the caller runs its own next task
    rather than wait.  A helper that ends without its results raises
    ``ChildProcessError``.  The helper is killed and reaped when the iterator
    ends or is closed: a consumer that may stop early closes it
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
                        for i in range(1, len(tasks), 2):
                            ok, _ = outcome = _outcome(tasks[i])
                            data = pickle.dumps(outcome)
                            pipe.write(len(data).to_bytes(8, "little"))
                            pipe.write(data)
                            pipe.flush()
                            if not ok:  # nothing after a raise is yielded
                                break
                finally:
                    os._exit(0)  # no exit handlers, no flush of inherited buffers; the pipe tells the parent
            os.close(w)
            ready = select.poll()  # unlike select.select, not limited to fds below 1024
            ready.register(r, select.POLLIN)
    own = iter(range(len(tasks)) if pid is None else range(0, len(tasks), 2))
    outcomes: dict[int, tuple] = {}
    arrived = 1  # the helper's next task
    try:
        for i in range(len(tasks)):
            while i not in outcomes:
                # the helper's result if it is due and readable, else the caller's next task
                # (which is task i when i is the caller's), else wait for the helper
                theirs = pid is not None and i % 2 == 1
                if (theirs and ready.poll(0)) or (k := next(own, None)) is None:
                    outcomes[arrived] = pickle.loads(_read(r, int.from_bytes(_read(r, 8), "little")))
                    arrived += 2
                else:
                    outcomes[k] = _outcome(tasks[k])
                    if not outcomes[k][0]:
                        own = iter(())  # nothing after a raise is yielded
            ok, value = outcomes.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        if pid is not None:
            os.close(r)
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still the helper's
            os.waitpid(pid, 0)
