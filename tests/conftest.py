"""Fixtures shared by more than one test module."""

import functools
import os
from pathlib import Path

import pytest

from ordquant import parallel
from ordquant.cli import main

# The random-effects desk panel (sim2, 40 subjects x 10, seed 2026), and
# criterion 5's fit to it: two over-dispersed chains of 10k sweeps.
SIM2 = ["simulate", "--scenario", "sim2", "--subjects", "40", "--n-per-subject", "10", "--seed", "2026"]
CRITERION_5 = ["fit", "--theta", "0.5", "--iterations", "10000", "--burn-in", "2000", "--chains", "2",
               "--overdispersed-starts", "--seed", "17", "--delta-min", "-3", "--delta-max", "3"]


def run_criterion_5(root: Path) -> Path:
    """Simulate the desk panel under ``root``, fit criterion 5 to it, and
    return the fit's run directory."""
    assert main([*SIM2, "--out", str(root)]) == 0
    dataset = root / "simulate-2026" / "dataset.csv"
    assert main([*CRITERION_5, "--input", str(dataset), "--out", str(root)]) == 0
    return root / "fit-17"


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process running or unreaped (the
    child is reaped here if it has exited)."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child {pid} unreaped, with status {status}" if pid
                else "the test left a child process running")


@pytest.fixture(scope="session")
def criterion_5_fit(tmp_path_factory):
    """A function returning criterion 5's run directory.  The fit runs on
    the session's first call only, so the first test to ask pays for it
    inside its own timing, and every later one reads the same outputs."""
    return functools.cache(lambda: run_criterion_5(tmp_path_factory.mktemp("criterion-5")))


@pytest.fixture
def thread_share(monkeypatch):
    """``use(threads)`` gives the chunked passes a thread share of
    ``threads``; the pools made are shut down after the test."""
    monkeypatch.setattr(parallel, "_pool", None)

    def use(threads):
        parallel._shut_down_pool()
        monkeypatch.setattr(parallel, "usable_cpus", lambda: threads)

    yield use
    parallel._shut_down_pool()
