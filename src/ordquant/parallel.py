"""Parallelism: the one place the package starts worker processes and threads.

Every task handed to ``ordered_map`` owns its random substream (see
``streams``), so a task's result does not depend on which worker runs it or
when; results are handed back in task order, so output is identical for any
number of workers.

A chain whose dataset holds more than ``_CHUNK_OBSERVATIONS`` observations
(``is_chunked``) runs its per-observation passes over
``observation_chunks``, equal contiguous chunks whose layout depends only
on the observation count.  ``map_chunks`` runs one pass's chunks on the
thread share, the CPUs left over by the worker processes: the usable CPUs
divided among the workers of the ``ordered_map`` that forked this process.
The caller is one of those threads and a pool holds the others.  Each
chunk writes only its own slices and draws only from its own generator, so
the draws are identical for any number of threads.  The pool is made on
first use and kept, because a pool per call costs about four maps on a
live one; where the share is one CPU, the chunks run in order on the
caller.  No thread of the pool is alive across a fork: ``ordered_map``
shuts the pool down before it forks, and a forked child drops the
parent's pool.
"""

from __future__ import annotations

import os

__all__ = ["ordered_map"]

# Observations one chunk holds at most: the same bound as a batch's
# chain-observations (``gibbs._BATCH_CELLS``).
_CHUNK_OBSERVATIONS = 1 << 16

_pool = None    # (thread pool or None, thread share) once made
_workers = 1    # worker processes of the ordered_map that forked this process


def usable_cpus() -> int:
    """The CPUs this process may run on (all CPUs where the OS has no affinity masks)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def is_chunked(n: int) -> bool:
    """Whether a chain of ``n`` observations runs its passes over chunks."""
    return n > _CHUNK_OBSERVATIONS


def observation_chunks(n: int) -> list[slice]:
    """``ceil(n / _CHUNK_OBSERVATIONS)`` contiguous slices of ``range(n)``
    whose sizes differ by at most one."""
    k = -(-n // _CHUNK_OBSERVATIONS)
    ends = [j * n // k for j in range(k + 1)]
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def map_chunks(func, count: int) -> list:
    """``[func(j) for j in range(count)]``, run on the thread share.

    The caller and the pool's threads each take the next chunk not yet
    taken until none is left.  Every chunk runs, whichever fails; then the
    first failure in chunk order is raised, so a failure reads the same for
    any thread count.
    """
    outcomes = [None] * count
    chunks = iter(range(count))

    def work():
        for j in chunks:
            try:
                outcomes[j] = func(j), None
            except Exception as exc:
                outcomes[j] = None, exc

    pool, threads = _thread_pool()
    helpers = [pool.submit(work) for _ in range(min(threads, count) - 1)]
    work()
    for helper in helpers:
        helper.result()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]


def _thread_pool():
    """The pool and the thread share, which counts the caller: the pool
    holds one thread fewer, none where the share is one CPU."""
    global _pool
    if _pool is None:
        threads = max(1, usable_cpus() // _workers)
        pool = None
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="ordquant-chunk")
        _pool = pool, threads
    return _pool


def _shut_down_pool() -> None:
    global _pool
    if _pool and _pool[0]:
        _pool[0].shutdown()
    _pool = None


def _set_workers(workers: int) -> None:
    global _workers
    _workers = workers


def _drop_pool() -> None:
    # In a forked child the pool's threads do not exist; its object is left
    # to the parent.
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_drop_pool)


def ordered_map(func, tasks, jobs: int = 1):
    """Yield ``func(task)`` for every task, in task order.

    With ``jobs > 1`` and more than one task, ``Executor.map`` runs them in
    a pool of up to ``jobs`` worker processes; otherwise they run one after
    another in this process.  ``func`` must be a module-level function and
    the tasks and results picklable.  No yielded result is held here.  An
    exception propagates when its task's turn comes, and closing the
    generator early cancels the tasks not yet started; a caller that wants
    a task's failure as data has ``func`` return it.

    Workers are forked, so they start without re-importing numpy and the
    package.  The thread pool is shut down first, and with fork the
    executor starts every worker before its own manager thread, so no
    other thread is alive at a fork.  Each worker's thread share is the
    usable CPUs divided among the workers.  The process pool modules are
    imported only here, and the thread pool's on its first use, so a run
    that never forks or chunks loads neither.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield func(task)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _shut_down_pool()
    workers = min(jobs, len(tasks))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, context, initializer=_set_workers, initargs=(workers,)) as pool:
        yield from pool.map(func, tasks)
