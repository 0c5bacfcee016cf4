"""The fork map: task order, claim order, nesting, errors and early close."""

import multiprocessing
import os
import pickle
import signal

import pytest

from conftest import two_at_once, usable_cpus
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


@pytest.mark.parametrize("cpus", [1, 2])
def test_key_claims_longest_first(monkeypatch, cpus):
    # at 2 CPUs the longest task (3) holds one child until the shortest
    # (0) has run, so the other child runs every later claim in turn;
    # the two 4s keep their task order. One worker runs tasks in order.
    usable_cpus(monkeypatch, cpus)
    sizes = [1, 4, 2, 6, 4, 5]
    log, count = multiprocessing.RawArray("q", 6), multiprocessing.Value("q", 0)
    shortest_done = multiprocessing.Event()

    def task(i):
        with count.get_lock():
            log[count.value] = i
            count.value += 1
        if i == 3:
            assert shortest_done.wait(timeout=10)
        if i == 0:
            shortest_done.set()
        return 10 * i

    assert list(fork_map(task, range(6), key=sizes.__getitem__)) == [0, 10, 20, 30, 40, 50]
    if cpus == 1:
        assert list(log) == [0, 1, 2, 3, 4, 5]
    else:
        assert set(log[:2]) == {3, 5} and list(log[2:]) == [1, 4, 2, 0]


def _within_10_s(run):
    """run(), or TimeoutError after 10 s."""
    def expire(signum, frame):
        raise TimeoutError("fork map still waiting after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        return run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_key_earlier_failure_still_claimed(monkeypatch):
    # tasks 3 and 2 are claimed first, one per child; 3 fails while 2
    # runs. Tasks 0 and 1 come earlier in task order, so they are still
    # claimed, and 0's failure is the one a serial run meets first.
    usable_cpus(monkeypatch, 2)
    meet, late_failed = two_at_once(), multiprocessing.Event()

    def task(i):
        if i >= 2:
            meet()
        if i == 3:
            late_failed.set()
            raise ValueError("late")
        if i == 2:
            assert late_failed.wait(timeout=10)
        if i == 0:
            raise ValueError("early")
        return i

    with pytest.raises(ValueError, match="early"):
        _within_10_s(lambda: list(fork_map(task, range(4), key=lambda i: i >= 2 and i)))


@pytest.mark.parametrize("dying", [[2], [2, 3]], ids=["one-dies", "all-die"])
def test_key_dead_worker_reported(monkeypatch, dying):
    # the dying tasks are claimed first: with one of them the other child
    # runs the rest and the death is reported at its task; with both, no
    # child is left to claim task 0
    usable_cpus(monkeypatch, 2)
    meet = two_at_once() if len(dying) == 2 else lambda: None

    def task(i):
        if i in dying:
            meet()
            os._exit(3)
        return i

    results = fork_map(task, range(4), key=lambda i: i in dying and i)
    if dying == [2]:
        assert _within_10_s(lambda: [next(results), next(results)]) == [0, 1]
        match = "exited with code 3 before sending the result of task 2$"
    else:
        match = "every worker exited before task 0 was claimed"
    with pytest.raises(RuntimeError, match=match):
        _within_10_s(lambda: next(results))


def test_early_close_stops_workers(monkeypatch):
    usable_cpus(monkeypatch, 2)
    results = fork_map(lambda i: i, range(1000))
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []
