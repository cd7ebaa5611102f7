import os
import threading

import pytest

from ordquant import parallel
from ordquant.parallel import ordered_map


def square_or_fail(x):
    if x < 0:
        raise ValueError(f"negative task {x}")
    return x * x


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_come_in_task_order(jobs):
    assert list(ordered_map(square_or_fail, range(7), jobs)) == [x * x for x in range(7)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_errors_propagate(jobs):
    with pytest.raises(ValueError, match="negative task -3"):
        list(ordered_map(square_or_fail, [0, -3, 3], jobs))


def chunk_or_fail(j):
    if j in (1, 2):
        raise ValueError(f"chunk {j}")
    return j


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_chunks_runs_every_chunk_and_raises_the_first_failure(thread_share, threads):
    thread_share(threads)
    assert parallel.map_chunks(lambda j: j * j, 5) == [0, 1, 4, 9, 16]
    ran = []

    def record(j):
        ran.append(j)
        return chunk_or_fail(j)

    with pytest.raises(ValueError, match="^chunk 1$"):
        parallel.map_chunks(record, 5)
    assert sorted(ran) == [0, 1, 2, 3, 4]


def test_pool_is_kept_between_maps(thread_share):
    thread_share(2)
    parallel.map_chunks(abs, 4)
    pool, threads = parallel._pool
    parallel.map_chunks(abs, 4)
    assert parallel._pool[0] is pool and threads == 2


def test_pool_holds_the_share_but_the_caller(thread_share):
    thread_share(1)
    assert parallel._thread_pool() == (None, 1)
    thread_share(3)
    pool, threads = parallel._thread_pool()
    assert threads == 3 and pool._max_workers == 2


def worker_view(_):
    """What a forked worker sees: its pool before first use, its live threads,
    and its share.  The pool is shut down again, so a worker that runs two
    tasks starts each one alike."""
    view = parallel._pool, threading.active_count(), parallel._thread_pool()[1]
    parallel._shut_down_pool()
    return view


def test_forked_workers_start_without_threads_and_take_their_share(thread_share):
    thread_share(4)
    parallel.map_chunks(abs, 4)  # the pool's thread is alive
    assert threading.active_count() > 1
    assert list(ordered_map(worker_view, range(2), jobs=2)) == [(None, 1, 2)] * 2
    assert parallel._pool is None  # shut down before the fork
    thread_share(2)
    assert list(ordered_map(worker_view, range(2), jobs=2)) == [(None, 1, 1)] * 2


def test_a_forked_child_drops_the_pool(thread_share):
    thread_share(2)
    parallel.map_chunks(abs, 2)
    pid = os.fork()
    if pid == 0:
        os._exit(0 if parallel._pool is None else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert parallel._pool is not None
