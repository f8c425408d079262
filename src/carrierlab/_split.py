"""Independent tasks over two CPUs: a forked helper process runs the heavier
half by weight and the caller the rest, where a CPU is idle and the process
has one OS thread (a lock another thread held would stay held in the child).
Results and the first exception come in task order either way."""

import functools
import os
import pickle
import signal
import time


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


def _run(tasks: list, indices: list[int]) -> dict:
    """``index -> (True, result)`` in order, up to a task that raises: ``(False, exception)``."""
    outcomes = {}
    for i in indices:
        try:
            outcomes[i] = (True, tasks[i]())
        except Exception as exc:  # raised again in task order, by split
            outcomes[i] = (False, exc)
            break
    return outcomes


def split(tasks: list, weights: list[float]) -> list:
    """``[task() for task in tasks]``.  A helper that ends without its results
    raises ``ChildProcessError``; none outlives the call."""
    share: list[int] = []
    if len(tasks) > 1 and _threads() == 1 and _idle_cpu():
        # the helper's tasks: the first, third, ... heaviest, at least half the weight
        share = sorted(sorted(range(len(tasks)), key=lambda i: -weights[i])[::2])
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: every task runs here
            os.close(r)
            os.close(w)
            share = []
        else:
            if pid == 0:
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pickle.dump(_run(tasks, share), pipe)
                finally:
                    os._exit(0)  # no exit handlers, no flush of inherited buffers; the pipe tells the parent
            os.close(w)
    try:
        outcomes = _run(tasks, [i for i in range(len(tasks)) if i not in share])
        raised = [i for i, (ok, _) in outcomes.items() if not ok]
        if share and not (raised and raised[0] < share[0]):  # the helper's outcomes may come first
            try:
                with open(r, "rb", closefd=False) as pipe:
                    outcomes.update(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError("the helper process ended without its results") from None
    finally:
        if share:
            os.close(r)
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still the helper's
            os.waitpid(pid, 0)
    for i in range(len(tasks)):  # a task missing here follows one that raised on its side
        if not outcomes[i][0]:
            raise outcomes[i][1]
    return [outcomes[i][1] for i in range(len(tasks))]
