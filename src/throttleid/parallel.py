"""One fork map: independent tasks on every usable CPU.

Work that splits into independent tasks runs on every usable CPU (the
affinity set of the process; restrict it with `taskset`): the CV
sweeps one history length or one fold per task, the CSV writer one
block of rows per task, `cmd_gen_data` one corpus trace per task and
`cmd_validate` one plant response or one rollout per task. Tasks are
dealt round-robin to the calling process and to children forked for
the call, which read the caller's arrays and module state in place and
send back each task's result as soon as it is done. A task is computed
by the same code, on the same data, wherever it runs, and results are
yielded in task order, so output is byte-identical whatever the number
of workers; the error raised is that of the first failing task in
serial order.

A task never forks: a fork map called inside a task, in a worker or in
the caller, runs its own tasks in that process. So a task that writes
a CSV formats its blocks itself, while the other CPUs run other tasks.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence

_in_task = False   # whether this process is running a fork-map task


def _run(fn, task):
    """fn(task) with the nested-call rule on: a fork map inside it forks nothing."""
    global _in_task
    outer, _in_task = _in_task, True
    try:
        return fn(task)
    finally:
        _in_task = outer


def _serve(fn, tasks: Sequence, first: int, stride: int, conn) -> None:
    """A forked worker: send (ok, result or exception) of tasks first,
    first + stride, ... one message per task, as each is done, ending
    after the first task that raises."""
    try:
        for task in tasks[first::stride]:
            try:
                result = fn(task)
            except Exception as err:
                conn.send((False, err))
                break
            conn.send((True, result))
    finally:
        conn.close()


def fork_map(fn: Callable, tasks: Sequence) -> Iterator:
    """Yield fn(task) for each task in order, computed on the usable CPUs.

    With W = min(len(tasks), usable CPUs) workers, worker w runs tasks
    w, w + W, w + 2W, ...: the calling process is worker 0 and computes
    its tasks as the iteration reaches them, and workers 1..W-1 are
    children forked at the first `next`, which see the caller's arrays
    without pickling. A child sends each result as soon as it is done
    and blocks while the pipe is full, so the caller holds at most a
    few results at a time and never a child's whole share.

    Errors are raised in task order: the exception of the earliest
    failing task, which is the first failure a serial run would meet;
    a child that dies before sending a result raises RuntimeError.
    Closing the iterator early stops the children. With one worker,
    where fork is unavailable, inside a forked worker (which may not
    fork children of its own) or inside a task that the caller runs,
    every task runs in the calling process. Code between two `next`
    calls is outside any task, so it may start fork maps of its own.
    """
    import multiprocessing  # here, so importing the package does not pay for it

    workers = 1
    if not _in_task and hasattr(os, "sched_getaffinity") \
            and multiprocessing.parent_process() is None \
            and "fork" in multiprocessing.get_all_start_methods():
        workers = min(len(tasks), len(os.sched_getaffinity(0)))
    if workers <= 1:
        for task in tasks:
            yield _run(fn, task)
        return
    ctx = multiprocessing.get_context("fork")
    procs = []
    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, args=(fn, tasks, w, workers, send),
                               name=f"fork-map-{w}", daemon=True)
            proc.start()
            send.close()
            procs.append((proc, recv))
        for i, task in enumerate(tasks):
            if i % workers == 0:
                yield _run(fn, task)
                continue
            proc, recv = procs[i % workers - 1]
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"worker {proc.name} exited with code {proc.exitcode} "
                                   f"before sending its results") from None
            if not ok:
                raise value
            yield value
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            recv.close()
            proc.join()


__all__ = ["fork_map"]
