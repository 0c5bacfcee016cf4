"""One fork map: independent tasks on every usable CPU.

Work that splits into independent tasks runs on every usable CPU (the
affinity set of the process; restrict it with `taskset`): the CV
sweeps one history length or one fold per task, the CSV writer one
block of rows per task, `cmd_gen_data` one corpus trace per task and
`cmd_validate` one plant response or one rollout per task. One child
per usable CPU is forked for the call, and each child claims the next
unclaimed task from one shared counter whenever it is free, so a long
task holds up only the child that runs it. The children read the
caller's arrays and module state in place and send back each task's
result as soon as it is done; the caller only collects them. A task is
computed by the same code, on the same data, whichever child runs it,
and results are yielded in task order, so output is byte-identical
whatever the number of workers and wherever each task ran; the error
raised is that of the first failing task in serial order. Which tasks
the caller itself runs does not depend on timing: all of them with one
worker, none with more.

A task never forks: a fork map called inside a task runs its own tasks
in that process. So a task that writes a CSV formats its blocks
itself, while the other CPUs run other tasks.
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


def _serve(fn, tasks: Sequence, unclaimed, claimed, w: int, conn) -> None:
    """Forked worker w: claim tasks until none is left, and send
    (index, ok, result or exception) for each one as soon as it is
    done. The claim is recorded in claimed[w] under the counter's lock,
    which is never held while a task runs. A task that raises ends the
    worker and stops all claiming."""
    n = len(tasks)
    try:
        while True:
            with unclaimed.get_lock():
                i = claimed[w] = unclaimed.value
                unclaimed.value = min(i + 1, n)
            if i == n:
                break
            try:
                result = fn(tasks[i])
            except Exception as err:
                with unclaimed.get_lock():
                    unclaimed.value = n
                conn.send((i, False, err))
                break
            conn.send((i, True, result))
    finally:
        conn.close()


def fork_map(fn: Callable, tasks: Sequence) -> Iterator:
    """Yield fn(task) for each task in order, computed on the usable CPUs.

    With W = min(len(tasks), usable CPUs) workers, W children forked at
    the first `next` (which see the caller's arrays without pickling)
    take tasks from one shared counter: each claims the next unclaimed
    index whenever it is free. A child sends each result as soon as it
    is done; the caller waits for them and yields them in task order.
    A result that arrives before its turn is kept until then, so in the
    worst case the caller holds every result after the oldest one still
    running (a long early task lets the other children finish the rest).

    Errors are raised in task order: the exception of the earliest
    failing task, which is the first failure a serial run would meet,
    whichever child ran it. A failing task stops further claims, since
    no later result will be yielded. A child that exits before sending
    the result of a task it claimed raises RuntimeError at that task's
    turn. Closing the iterator early stops the children. With one
    worker, where fork is unavailable, inside a forked worker (which may
    not fork children of its own) or inside a task, every task runs in
    the calling process. Code between two `next` calls is outside any
    task, so it may start fork maps of its own.
    """
    import multiprocessing  # here, so importing the package does not pay for it
    from multiprocessing.connection import wait

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
    n = len(tasks)
    unclaimed = ctx.Value("q", 0)               # the next task index to claim
    claimed = ctx.RawArray("q", [n] * workers)  # each child's last claim, n for none

    live = {}     # receiving end of each running child's pipe -> (worker, process)
    ahead = {}    # task index -> (ok, result or exception), received before its turn
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, args=(fn, tasks, unclaimed, claimed, w, send),
                               name=f"fork-map-{w}", daemon=True)
            proc.start()
            send.close()
            live[recv] = w, proc
        for k in range(n):
            while k not in ahead:
                for recv in wait(list(live)):
                    try:
                        i, ok, value = recv.recv()
                    except (EOFError, OSError):   # the child has exited
                        w, proc = live.pop(recv)
                        recv.close()
                        proc.join()
                        lost = claimed[w]
                        if k <= lost < n and lost not in ahead:
                            ahead[lost] = False, RuntimeError(
                                f"worker {proc.name} exited with code {proc.exitcode} "
                                f"before sending the result of task {lost}")
                        continue
                    ahead[i] = ok, value
            ok, value = ahead.pop(k)
            if not ok:
                raise value
            yield value
    except BaseException:
        for _, proc in live.values():
            proc.terminate()
        raise
    finally:
        for recv, (_, proc) in live.items():
            recv.close()
            proc.join()


__all__ = ["fork_map"]
