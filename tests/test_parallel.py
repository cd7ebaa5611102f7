import csv
import os
import resource
import threading

import numpy as np
import pytest

from ordquant import data, parallel
from ordquant.cli import main
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


def test_spool_parts_appends_every_part_in_order(tmp_path, thread_share):
    path = tmp_path / "parts.txt"
    with path.open("w", newline="", encoding="utf-8") as out:
        out.write("head\r\n")
        parallel.spool_parts(lambda j, file: file.write(f"part {j} é\r\n" * j), 4, out)
    want = "head\r\n" + "".join(f"part {j} é\r\n" * j for j in range(4))
    assert path.read_bytes() == want.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["parts.txt"]  # the spools were unlinked


def part_or_fail(failing, error):
    def write(j, file):
        file.write(f"part {j}\n")
        if j in failing:
            raise error(f"part {j}")
    return write


@pytest.mark.parametrize("failing", [{1}, {2, 3}, {0, 2}])
@pytest.mark.parametrize("error", [ValueError, PermissionError, KeyboardInterrupt])
def test_a_failing_part_raises_its_own_error_in_part_order(tmp_path, failing, error):
    with (tmp_path / "parts.txt").open("w", newline="", encoding="utf-8") as out:
        with pytest.raises(error, match=f"^part {min(failing)}$") as info:
            parallel.spool_parts(part_or_fail(failing, error), 4, out)
    assert type(info.value) is error


def test_a_child_that_dies_raises_child_process_error(tmp_path):
    def write(j, file):
        if j == 2:
            os._exit(7)

    with (tmp_path / "parts.txt").open("w", newline="", encoding="utf-8") as out:
        with pytest.raises(ChildProcessError, match="^the child forked for part 2 exited with code 7$"):
            parallel.spool_parts(write, 3, out)


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 9])
def test_tables_in_parts_keep_their_bytes(tmp_path, thread_share, monkeypatch, rows):
    ids = data._csv_cells(["plain", "has,comma", 'has "quote"', "has\nnewline", "%d"] * 2)[:rows]
    columns = [ids, np.arange(rows), np.linspace(-1.0, 1e22, rows)]
    data._write_table(tmp_path / "one.csv", ["id", "n", "x"], "%s,%d,%.17g", columns)
    thread_share(4)
    monkeypatch.setattr(parallel, "_SPOOL_CELLS", 0)
    data._write_table(tmp_path / "parts.csv", ["id", "n", "x"], "%s,%d,%.17g", columns)
    assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_only_a_table_of_the_bound_forks(tmp_path, thread_share, monkeypatch):
    thread_share(4)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    small = [np.arange(parallel._SPOOL_CELLS // 2 - 1)] * 2
    data._write_table(tmp_path / "small.csv", ["a", "b"], "%d,%d", small)
    assert not forks
    data._write_table(tmp_path / "bound.csv", ["a", "b"], "%d,%d", [np.arange(parallel._SPOOL_CELLS // 2)] * 2)
    assert len(forks) == 3
    with (tmp_path / "small.csv").open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == [[str(v), str(v)] for v in small[0]]


def test_a_part_that_fails_in_a_child_exits_2(tmp_path, thread_share, monkeypatch, capsys):
    """A child that cannot write its spool (here it may write 4 KiB) makes
    the command fail as an in-process ``OSError`` would."""
    thread_share(2)
    monkeypatch.setattr(parallel, "_SPOOL_CELLS", 0)
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid == 0:
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
        return pid

    monkeypatch.setattr(os, "fork", fork)
    args = ["simulate", "--scenario", "sim2", "--subjects", "40", "--n-per-subject", "10", "--seed", "1"]
    assert main([*args, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: [Errno 27] File too large\n"
