"""Checks of the benchmark's own ESS and R-hat.

Run with ``python3 -m pytest perfbench/tests``.
"""

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


def ar1(rho: float, n: int, rng) -> np.ndarray:
    noise = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    out = np.empty(n)
    out[0] = rng.standard_normal()
    for t in range(1, n):
        out[t] = rho * out[t - 1] + noise[t]
    return out


def test_normal_quantile_matches_stdlib():
    p = np.array([1e-300, 1e-20, 1e-5, 0.02425, 0.3, 0.5, 0.7, 0.97575, 1 - 1e-9])
    expected = [statistics.NormalDist().inv_cdf(v) for v in p]
    assert np.allclose(stats.normal_quantile(p), expected, rtol=1e-14, atol=0.0)


def test_iid_draws_give_ess_near_n():
    draws = np.random.default_rng(1).standard_normal((4, 2000, 3))
    ess = stats.ess_bulk(draws)
    assert np.all(np.abs(ess / 8000 - 1.0) < 0.1)


def test_ar1_ess_matches_theory():
    rho, n = 0.9, 40000
    rng = np.random.default_rng(2)
    ess = stats.ess_bulk(ar1(rho, n, rng)[None, :])[0]
    assert ess == pytest.approx(n * (1 - rho) / (1 + rho), rel=0.2)


def test_shifted_chains_give_large_rhat():
    draws = np.random.default_rng(3).standard_normal((2, 1000))
    draws[1] += 1.0
    assert stats.split_rhat(draws)[0] > 1.1


def test_identical_chains_give_rhat_near_one():
    chain = np.random.default_rng(4).standard_normal(2000)
    rhat = stats.split_rhat(np.vstack([chain, chain]))[0]
    assert rhat == pytest.approx(1.0, abs=0.01)


def test_rank_normalisation_is_invariant_to_monotone_maps():
    draws = np.random.default_rng(5).standard_normal((2, 500))
    assert np.allclose(stats.ess_bulk(draws), stats.ess_bulk(np.exp(draws)))
    assert np.allclose(stats.split_rhat(draws), stats.split_rhat(np.exp(draws)))


def test_ties_get_average_ranks():
    assert stats._average_ranks(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [3.5, 1.0, 3.5, 2.0]
