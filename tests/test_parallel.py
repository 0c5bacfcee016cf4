"""The fork map: task order, nesting, errors and early close."""

import multiprocessing
import os
import pickle

import pytest

from conftest import usable_cpus
from throttleid.parallel import fork_map
from throttleid.plant import PropellantDepletedError
from throttleid.rollout import RolloutDivergenceError

# Errors the plant and the rollout raise inside fork-map tasks, each
# with the attributes it must keep when it crosses back to the caller.
TASK_ERRORS = {
    "depleted": (PropellantDepletedError(12.34, sample=1234), {"t": 12.34, "sample": 1234}),
    "depleted-no-sample": (PropellantDepletedError(0.5), {"t": 0.5, "sample": None}),
    "diverged": (RolloutDivergenceError(6, 0.06), {"t": 0.06, "sample": 6}),
}


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


def test_no_fork_inside_callers_task(monkeypatch):
    # task 0 runs in the caller; the fork map it starts runs there too
    usable_cpus(monkeypatch, 2)

    def inner_pids(task):
        children = {p.pid for p in multiprocessing.active_children()}
        inner = list(fork_map(lambda _: os.getpid(), range(4)))
        started = {p.pid for p in multiprocessing.active_children()} - children
        return os.getpid(), inner, started

    (caller, inner, started), _ = fork_map(inner_pids, range(2))
    assert caller == os.getpid()
    assert inner == [caller] * 4
    assert started == set()


def test_fork_allowed_between_tasks(monkeypatch):
    # code between two `next` calls is outside any task
    usable_cpus(monkeypatch, 2)
    outer = fork_map(lambda i: i, range(4))
    assert next(outer) == 0
    assert len(set(fork_map(lambda _: os.getpid(), range(2)))) == 2
    assert list(outer) == [1, 2, 3]


@pytest.mark.parametrize("name", list(TASK_ERRORS))
def test_task_errors_pickle(name):
    err, attrs = TASK_ERRORS[name]
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err) and str(back) == str(err)
    assert {k: getattr(back, k) for k in attrs} == attrs


@pytest.mark.parametrize("name", list(TASK_ERRORS))
def test_task_errors_cross_from_worker(monkeypatch, name):
    # task 1 raises in a forked worker
    usable_cpus(monkeypatch, 2)
    err, attrs = TASK_ERRORS[name]

    def task(i):
        if i == 1:
            raise err
        return i

    with pytest.raises(type(err)) as caught:
        list(fork_map(task, range(2)))
    assert caught.value is not err
    assert str(caught.value) == str(err)
    assert {k: getattr(caught.value, k) for k in attrs} == attrs


def test_early_close_stops_workers(monkeypatch):
    usable_cpus(monkeypatch, 2)
    results = fork_map(lambda i: i, range(1000))
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []
