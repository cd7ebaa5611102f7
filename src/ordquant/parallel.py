"""Process parallelism: the one place the package starts worker processes.

Every task handed to ``ordered_map`` owns its random substream (see
``streams``), so a task's result does not depend on which worker runs it or
when; results are handed back in task order, so output is identical for any
number of workers.
"""

from __future__ import annotations

from collections import deque

__all__ = ["ordered_map"]


def ordered_map(func, tasks, jobs: int = 1):
    """Yield ``func(task)`` for every task, in task order.

    With ``jobs > 1`` and more than one task, the tasks run in a pool of up
    to ``jobs`` worker processes; otherwise they run one after another in
    this process.  ``func`` must be a module-level function and the tasks
    and results picklable.  An exception propagates when its task's turn
    comes, and the tasks not yet started are cancelled; a caller that wants
    a task's failure as data has ``func`` return it.

    Workers are forked, so they start without re-importing numpy and the
    package.  With fork the executor starts every worker before its own
    manager thread, and the package starts no other threads.  The pool
    modules are imported only here, so a run that never forks does not
    load them.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield func(task)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), mp_context=context) as pool:
        # A future leaves the queue before its result is yielded, so while a
        # consumer keeps the generator open no yielded result is held here.
        futures = deque(pool.submit(func, task) for task in tasks)
        try:
            while futures:
                yield futures.popleft().result()
        finally:
            for future in futures:
                future.cancel()
