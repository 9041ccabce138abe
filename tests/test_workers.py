import os

from annoconsist.workers import forked_imap


def _tagged(offset, scale, task):
    return os.getpid(), offset + scale * task


def test_forked_imap_runs_in_process_when_one_worker_fits():
    # one job, or one task, runs every task here, in order
    for jobs, tasks in ((1, range(4)), (0, range(4)), (8, [3])):
        got = list(forked_imap(_tagged, tasks, jobs, (10, 2)))
        assert got == [(os.getpid(), 10 + 2 * t) for t in tasks]


def test_forked_imap_yields_worker_results_in_task_order():
    got = list(forked_imap(_tagged, range(7), 2, (10, 2)))
    assert [v for _, v in got] == [10 + 2 * t for t in range(7)]
    pids = {pid for pid, _ in got}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
