"""Forked worker pools that hand back results in task order.

`gen` makes its scenes and `ablate` runs its (cell, seed) fits through
`forked_imap`. Every task is deterministic, so a forked run's results
equal the in-process run's bit for bit, whatever the pool's width.
"""

import multiprocessing
import os

# the function and shared arguments of a forked worker, set as it starts
_work = (None, ())


def _init_worker(fn, shared):
    global _work
    _work = (fn, shared)


def _run_task(task):
    fn, shared = _work
    return fn(*shared, task)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def forked_imap(fn, tasks, jobs: int, shared=()):
    """Yield fn(*shared, task) for each task, in task order.

    With room for more than one worker, min(jobs, len(tasks)) forked
    workers run the tasks; they inherit `shared` at the fork instead of
    receiving it pickled with each task. Otherwise the tasks run in
    process, one at a time as the results are read."""
    tasks = list(tasks)
    width = min(jobs, len(tasks))
    if width <= 1:
        for task in tasks:
            yield fn(*shared, task)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(width, initializer=_init_worker,
                  initargs=(fn, shared)) as pool:
        yield from pool.imap(_run_task, tasks)
