"""The fork map: task order, nesting and early close."""

import multiprocessing
import os

from conftest import usable_cpus
from throttleid.parallel import fork_map


def test_results_in_task_order(monkeypatch):
    usable_cpus(monkeypatch, 2)
    results = list(fork_map(lambda i: (i, os.getpid()), range(7)))
    assert [i for i, _ in results] == list(range(7))
    pids = [pid for _, pid in results]
    assert pids[0::2] == [os.getpid()] * 4
    assert len(set(pids[1::2])) == 1 and pids[1] != os.getpid()


def test_no_grandchildren(monkeypatch):
    # task 1 runs in a forked worker; the fork map it starts runs there
    usable_cpus(monkeypatch, 2)

    def inner_pids(task):
        return os.getpid(), list(fork_map(lambda _: os.getpid(), range(4)))

    _, (worker, inner) = fork_map(inner_pids, range(2))
    assert worker != os.getpid()
    assert inner == [worker] * 4


def test_early_close_stops_workers(monkeypatch):
    usable_cpus(monkeypatch, 2)
    results = fork_map(lambda i: i, range(1000))
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []
