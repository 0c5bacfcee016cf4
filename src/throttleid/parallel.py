"""One fork map: independent tasks on every usable CPU.

Work that splits into independent tasks runs on every usable CPU (the
affinity set of the process; restrict it with `taskset`). One child per
usable CPU is forked for the call, and each child claims the next
unclaimed task from one shared counter whenever it is free, so a long
task holds up only the child that runs it. A caller that knows its
tasks' sizes passes a `key`, and the tasks are claimed longest first: a
long task claimed last would run on alone after the others are done,
while claimed first it runs beside them (Graham's LPT rule). The
children read the caller's arrays and module state in place and send
back each task's result as soon as it is done; the caller only collects
them. A task is computed by the same code, on the same data, whichever
child runs it, and results are yielded in task order, so output is
byte-identical whatever the number of workers and wherever each task
ran; the error raised is that of the first failing task in serial
order. Which tasks the caller itself runs does not depend on timing:
all of them with one worker, none with more.

A forked child never forks: a fork map called inside a child's task
runs its own tasks in that child. So a `sweep_history` task takes its
folds' blocks and fits them itself, while the other CPUs run other
history lengths. A task that the caller runs itself (a map of one task,
or one usable CPU) may fork.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence


def _serve(fn, tasks: Sequence, order: Sequence[int], state, claimed, w: int, conn) -> None:
    """Forked worker w: claim tasks in `order` until none is left, and
    send (index, ok, result or exception) for each one as soon as it is
    done. state is the next position in `order` to claim; the claim is
    recorded in claimed[w] under its lock, which is never held while a
    task runs."""
    try:
        while True:
            with state.get_lock():
                if state.value == len(tasks):
                    break
                i = claimed[w] = order[state.value]
                state.value += 1
            try:
                result = fn(tasks[i])
            except Exception as err:
                conn.send((i, False, err))
            else:
                conn.send((i, True, result))
    finally:
        conn.close()


def fork_map(fn: Callable, tasks: Sequence, key: Callable | None = None) -> Iterator:
    """Yield fn(task) for each task in order, computed on the usable CPUs.

    With W = min(len(tasks), usable CPUs) workers, W children forked at
    the first `next` (which see the caller's arrays without pickling)
    take tasks from one shared counter: each claims the next unclaimed
    task whenever it is free, in task order, or in decreasing
    `key(task)` order (ties in task order) when `key` is given. Claiming
    the longest task first keeps it off the end of the map: the other
    children run the short ones meanwhile (Graham's LPT rule). A child
    sends each result as soon as it is done; the caller waits for them
    and yields them in task order. A result that arrives before its
    turn is kept until then, so in the worst case the caller holds
    every result after the oldest one still running.

    Errors are raised in task order: the exception of the earliest
    failing task, which is the first failure a serial run would meet,
    whichever child ran it. A child sends a failing task's exception
    back and goes on claiming, so the children may run later tasks
    until the caller reaches the failing one, raises it and stops them.
    A child that exits before sending the result of a task it claimed
    raises RuntimeError at that task's turn, and a task that no child
    is left to claim raises RuntimeError at its turn. Closing the
    iterator early stops the children. With one worker, where fork is
    unavailable, or inside a forked child (which never forks children
    of its own), every task runs in the calling process, in task order.
    A task that the caller runs, and code between two `next` calls, may
    start fork maps of their own.
    """
    import multiprocessing  # here, so importing the package does not pay for it
    from multiprocessing.connection import wait

    workers = 1
    if hasattr(os, "sched_getaffinity") and multiprocessing.parent_process() is None \
            and "fork" in multiprocessing.get_all_start_methods():
        workers = min(len(tasks), len(os.sched_getaffinity(0)))
    if workers <= 1:
        for task in tasks:
            yield fn(task)
        return
    ctx = multiprocessing.get_context("fork")
    n = len(tasks)
    order = range(n) if key is None else \
        sorted(range(n), key=lambda i: key(tasks[i]), reverse=True)  # stable: ties keep task order
    state = ctx.Value("q", 0)                   # next position in order to claim
    claimed = ctx.RawArray("q", [n] * workers)  # each child's last claim, n for none

    live = {}     # receiving end of each running child's pipe -> (worker, process)
    ahead = {}    # task index -> (ok, result or exception), received before its turn
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, args=(fn, tasks, order, state, claimed, w, send),
                               name=f"fork-map-{w}", daemon=True)
            proc.start()
            send.close()
            live[recv] = w, proc
        for k in range(n):
            while k not in ahead:
                if not live:
                    raise RuntimeError(f"every worker exited before task {k} was claimed")
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
