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
caller.  No thread of the pool is alive across a fork: ``ordered_map`` and
``spool_parts`` shut the pool down before they fork, and a forked child
drops the parent's pool.

``spool_parts`` is the process counterpart of ``map_chunks``, for work that
holds the GIL, such as formatting a large table's text: part 0 writes on
the caller, straight into the output, and parts 1..k-1 in children forked
from the caller, each into its own spool, which the caller then appends in
part order.  k is the CPU share, so it is 1 inside chain workers and
under a one-CPU affinity mask; ``data._write_table`` forks only for a
table of at least ``_SPOOL_CELLS`` cells.
"""

from __future__ import annotations

import os

__all__ = ["ordered_map"]

# Observations one chunk holds at most, and the one bound of a batch of
# chains (``gibbs.batched``: chain-observations and retained draw cells, so
# a chunked chain is a batch of its own) and of a DIC block's cells.
_CHUNK_OBSERVATIONS = 1 << 16
# Cells a table must hold before ``data._write_table`` formats it in parts
# on forked children (``spool_parts``): below it, a fork and a spool cost
# more than half the table's formatting saves.
_SPOOL_CELLS = 1 << 17

_pool = None    # (thread pool or None, thread share) once made
_workers = 1    # worker processes of the ordered_map that forked this process


def usable_cpus() -> int:
    """The CPUs this process may run on (all CPUs where the OS has no affinity masks)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cpu_share() -> int:
    """The usable CPUs divided among the workers of the ``ordered_map``
    that forked this process, and at least one."""
    return max(1, usable_cpus() // _workers)


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
    any thread count.  One chunk runs on the caller and makes no pool.
    """
    if count == 1:
        return [func(0)]
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
        threads = cpu_share()
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


def spool_parts(write, count: int, out) -> None:
    """``write(j, file)`` for every part ``j`` in ``range(count)``, so that
    ``out`` receives part 0's text, then part 1's, and so on.

    ``out`` is a text file opened with ``newline=""``.  Part 0 runs on the
    caller and writes straight into ``out``.  Each other part runs in a
    child forked from the caller and writes into its own spool: an
    unlinked temporary file in ``out``'s directory, made before the fork,
    which the child sees as a text file in ``out``'s encoding.  Every
    child leaves through ``os._exit`` and is reaped, whichever part fails;
    then the first failure in part order is raised, a child's with its own
    type and message, and otherwise each spool's bytes are appended to
    ``out`` in part order.  The thread pool is shut down before the first
    fork, as ``ordered_map`` does.  One part runs on the caller and forks
    nothing.
    """
    if count == 1:
        write(0, out)
        return
    import shutil
    import tempfile
    from contextlib import ExitStack

    _shut_down_pool()
    directory = os.path.dirname(os.path.abspath(out.name))
    pids, spools = [], []
    with ExitStack() as stack:
        try:
            for j in range(1, count):
                spool = stack.enter_context(tempfile.TemporaryFile(dir=directory))
                pids.append(_fork_part(write, j, spool, out.encoding))
                spools.append(spool)
            write(0, out)
        finally:
            failures = [_reap(pid, spool, j) for j, (pid, spool) in enumerate(zip(pids, spools), 1)]
        failure = next((exc for exc in failures if exc is not None), None)
        if failure is not None:
            raise failure
        out.flush()
        for spool in spools:
            spool.seek(0)
            shutil.copyfileobj(spool, out.buffer)


def _fork_part(write, j: int, spool, encoding: str) -> int:
    """Fork a child that writes part ``j`` into ``spool`` and return its
    pid.  The child exits 0 once the part is written, or 1 once its
    failure is pickled into the emptied spool (3 if even that fails)."""
    pid = os.fork()
    if pid:
        return pid
    code = 3
    try:
        try:
            with open(spool.fileno(), "w", encoding=encoding, newline="", closefd=False) as text:
                write(j, text)
            code = 0
        except BaseException as exc:  # raised again by the caller
            import pickle

            spool.seek(0)
            spool.truncate()
            pickle.dump(exc, spool)
            spool.flush()
            code = 1
    finally:
        os._exit(code)


def _reap(pid: int, spool, j: int) -> BaseException | None:
    """Wait for the child ``pid`` that ``_fork_part`` forked for part ``j``:
    None if it wrote its part, else its failure."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return None
    if code == 1:
        import pickle

        spool.seek(0)
        try:
            return pickle.load(spool)
        except Exception:  # the failure does not rebuild here; its exit code is reported
            pass
    return ChildProcessError(f"the child forked for part {j} exited with code {code}")
