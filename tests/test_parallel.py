"""The fork map: task order, nesting, errors, early close and shared arrays."""

import multiprocessing
import os
import pickle

import pytest

from conftest import two_at_once, usable_cpus
from throttleid.parallel import fork_map, shared_array
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
    # tasks 0 and 1 run at once, so two children share the work; the
    # caller runs none of it
    usable_cpus(monkeypatch, 2)
    meet = two_at_once()

    def task(i):
        if i < 2:
            meet()
        return i, os.getpid()

    results = list(fork_map(task, range(7)))
    assert [i for i, _ in results] == list(range(7))
    pids = {pid for _, pid in results}
    assert len(pids) == 2 and os.getpid() not in pids


def test_no_process_waits_behind_a_long_task(monkeypatch):
    # task 1 waits for task 3: the process that runs task 1 must leave
    # task 3 to another one
    usable_cpus(monkeypatch, 2)
    task3_done = multiprocessing.Event()

    def task(i):
        if i == 1:
            return task3_done.wait(timeout=10)
        if i == 3:
            task3_done.set()
        return i

    assert list(fork_map(task, range(4))) == [0, True, 2, 3]


def test_every_task_runs_once(monkeypatch):
    # four processes, more than the CPUs a test box may have, race for
    # 3000 empty tasks; a claim that two of them make runs a task twice
    usable_cpus(monkeypatch, 4)
    runs = multiprocessing.RawArray("i", 3000)

    def task(i):
        runs[i] += 1
        return i

    assert list(fork_map(task, range(3000))) == list(range(3000))
    assert list(runs) == [1] * 3000


def test_no_grandchildren(monkeypatch):
    # both tasks run in forked workers; the fork map each starts runs there
    usable_cpus(monkeypatch, 2)
    meet = two_at_once()

    def inner_pids(task):
        meet()
        return os.getpid(), list(fork_map(lambda _: os.getpid(), range(4)))

    results = list(fork_map(inner_pids, range(2)))
    assert len({worker for worker, _ in results} - {os.getpid()}) == 2
    assert all(inner == [worker] * 4 for worker, inner in results)


def test_callers_task_may_fork(monkeypatch):
    # a single task runs in the caller; the inner map's two tasks, which
    # must run at once, get two forked workers
    usable_cpus(monkeypatch, 2)
    meet = two_at_once()

    def inner_pids(task):
        return os.getpid(), list(fork_map(lambda _: (meet(), os.getpid())[1], range(2)))

    (caller, inner), = fork_map(inner_pids, range(1))
    assert caller == os.getpid()
    assert len(set(inner)) == 2 and caller not in inner


def test_fork_allowed_between_tasks(monkeypatch):
    # code between two `next` calls is outside any task: the inner
    # map's two tasks, which must run at once, get two processes
    usable_cpus(monkeypatch, 2)
    meet = two_at_once()
    outer = fork_map(lambda i: i, range(4))
    assert next(outer) == 0
    assert len(set(fork_map(lambda _: (meet(), os.getpid())[1], range(2)))) == 2
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


@pytest.mark.parametrize("outcome", ["raises", "exits"])
def test_earlier_task_decides_the_error(monkeypatch, outcome):
    # tasks 0 and 1 start at once in two children; the child of task 1
    # claims task 2, which fails while task 0 still runs. Task 0 then
    # fails too (or its child exits), and that is what a serial run meets first.
    usable_cpus(monkeypatch, 2)
    caller, meet, late_failed = os.getpid(), two_at_once(), multiprocessing.Event()

    def task(i):
        if i < 2:
            meet()
        if i == 0:
            assert late_failed.wait(timeout=10)
            if outcome == "exits" and os.getpid() != caller:
                os._exit(3)
            raise ValueError("early")
        if i == 2:
            late_failed.set()
            raise ValueError("late")
        return i

    expected = {"raises": (ValueError, "early"),
                "exits": (RuntimeError, "exited with code 3 before sending the result of task 0$")}
    with pytest.raises(expected[outcome][0], match=expected[outcome][1]):
        list(fork_map(task, range(4)))


def test_early_close_stops_workers(monkeypatch):
    usable_cpus(monkeypatch, 2)
    results = fork_map(lambda i: i, range(1000))
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_tasks_write_shared_array(monkeypatch, cpus):
    # at 2 CPUs the two tasks run at once in two children, each writing
    # its row into the caller's pages; at 1 both run in the caller
    usable_cpus(monkeypatch, cpus)
    meet = two_at_once() if cpus == 2 else lambda: None
    rows = shared_array((3, 2))

    def task(i):
        meet()
        rows[i] = [i + 1.0, -(i + 1.0)]
        return os.getpid()

    pids = list(fork_map(task, range(2)))
    assert rows.tolist() == [[1.0, -1.0], [2.0, -2.0], [0.0, 0.0]]
    assert (os.getpid() in pids) == (cpus == 1)
    assert shared_array((0, 5)).shape == (0, 5)
