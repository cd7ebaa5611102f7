import copy
import csv
import io
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ordquant.data import OrdinalDataset, PosteriorDraws, read_draws
from ordquant.distributions import _TAIL_CUTOFF
from ordquant.errors import ChainDivergedError, ConfigError, SchemaError
from ordquant import data, gibbs, model, parallel
from ordquant.gibbs import (
    SamplerConfig,
    run_chain,
    update_alpha,
    update_beta,
    update_delta,
    update_l,
    update_lambda_sq,
    update_phi,
    update_s,
    update_v,
    write_draws,
)
from ordquant.model import (ChainState, ModelSpec, Priors, chunked, initialize_state, nonfinite_blocks, stack_specs,
                            stack_states)
from ordquant.simulate import ScenarioConfig, generate
from ordquant.streams import STREAM_CHAIN, STREAM_DATASET, substream

from .oracles import (
    gig_moment,
    initialize_state_full_bounds,
    ks_vs_cdf,
    ks_vs_log_kernel,
    read_draws_rowwise,
    update_alpha_normal_call,
    update_l_full_bounds,
    update_s_array_call,
    validate_state,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def single_obs_spec(theta=0.5, **priors):
    ds = OrdinalDataset(["s"], np.zeros(1, dtype=int), np.array([2]),
                        np.array([[1.0]]), np.zeros(1, dtype=int), 2)
    return ModelSpec(theta=theta, dataset=ds, priors=Priors(**priors))


def single_obs_state(spec, l=2.0, v=1.0, beta=0.0, alpha=0.0, cut=0.0):
    return ChainState(
        beta=np.array([beta]), alpha=np.array([alpha]),
        latent_l=np.array([l]), latent_v=np.array([v]),
        s=np.array([1.0]), lambda_sq=1.0, phi=1.0,
        cutpoints=np.array([-np.inf, cut, np.inf]),
    )


class TestUpdateV:
    def test_conditional_mean_closed_form(self):
        # residual 2 gives rho1 = sqrt(2), rho2 = sqrt(1/2): mean 4
        spec = single_obs_spec()
        g = rng(1)
        draws = np.empty(100000)
        state = single_obs_state(spec, l=2.0)
        for i in range(draws.size):
            state.latent_v[0] = 1.0
            update_v(state, spec, g)
            draws[i] = state.latent_v[0]
        assert draws.mean() == pytest.approx(gig_moment(1, np.sqrt(2.0), np.sqrt(0.5)), rel=0.02)
        assert draws.mean() == pytest.approx(4.0, rel=0.02)

    def test_positive_support(self):
        spec = single_obs_spec(0.3)
        state = single_obs_state(spec, l=0.0)  # zero residual exercises the clamp
        g = rng(2)
        for _ in range(200):
            update_v(state, spec, g)
            assert state.latent_v[0] > 0.0

    @pytest.mark.parametrize("shape", ["one-chain", "batch", "chunked"])
    def test_draws_over_the_previous_array(self, monkeypatch, shape):
        if shape == "chunked":
            monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", 128)  # 200 observations: two chunks
        spec = liability_spec(0.3, subjects=40)
        if shape == "batch":
            state = stack_states([initialize_state(spec, rng(k)) for k in range(2)])
            spec, g = stack_specs([spec] * 2), [rng(5), rng(6)]
        else:
            state, g = initialize_state(spec, rng(0)), rng(5)
        assert chunked(state) == (shape == "chunked")
        previous = state.latent_v
        before = previous.copy()
        update_v(state, spec, g)
        assert state.latent_v is previous
        assert not np.array_equal(previous, before)


class TestUpdateBeta:
    def test_no_data_reduces_to_prior(self):
        ds = OrdinalDataset(["s"], np.zeros(3, dtype=int), np.array([1, 2, 1]),
                            np.zeros((3, 1)), np.arange(3), 2)
        spec = ModelSpec(theta=0.4, dataset=ds)
        state = ChainState(
            beta=np.zeros(1), alpha=np.zeros(1),
            latent_l=np.array([-0.5, 0.5, -1.0]), latent_v=np.ones(3),
            s=np.array([2.5]), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, 0.0, np.inf]),
        )
        g = rng(3)
        draws = np.empty(100000)
        for i in range(draws.size):
            state.beta[0] = 0.0
            update_beta(state, spec, g)
            draws[i] = state.beta[0]
        assert draws.mean() == pytest.approx(0.0, abs=3 * np.sqrt(2.5 / draws.size))
        assert draws.var() == pytest.approx(2.5, rel=0.02)

    def test_flat_prior_matches_weighted_least_squares(self):
        g = rng(4)
        n = 12
        x = g.normal(size=(n, 1))
        l = g.normal(size=n)
        v = g.uniform(0.5, 2.0, size=n)
        ds = OrdinalDataset(["s"], np.zeros(n, dtype=int), np.where(l > 0, 2, 1),
                            x, np.arange(n), 2)
        spec = ModelSpec(theta=0.5, dataset=ds)
        state = ChainState(
            beta=np.zeros(1), alpha=np.zeros(1), latent_l=l.copy(), latent_v=v.copy(),
            s=np.array([1e12]), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, 0.0, np.inf]),
        )
        w = 1.0 / (2.0 * v)
        target = np.sum(w * l * x[:, 0]) / np.sum(w * x[:, 0] ** 2)
        sd = np.sqrt(1.0 / np.sum(w * x[:, 0] ** 2))
        m = 40000
        draws = np.empty(m)
        for i in range(m):
            state.beta[0] = 0.0
            update_beta(state, spec, g)
            draws[i] = state.beta[0]
        assert draws.mean() == pytest.approx(target, abs=3 * sd / np.sqrt(m))

    def test_mean_matches_closed_form_conditional(self):
        g = rng(5)
        n = 8
        x = g.normal(size=(n, 2))
        l = g.normal(size=n)
        v = g.uniform(0.5, 2.0, size=n)
        ds = OrdinalDataset(["s"], np.zeros(n, dtype=int), np.where(l > 0, 2, 1),
                            x, np.arange(n), 2)
        spec = ModelSpec(theta=0.3, dataset=ds)
        beta0 = np.array([0.4, -0.7])
        s = np.array([1.3, 0.8])
        w = 1.0 / (2.0 * v)
        # closed-form conditional for k = 0 holding beta_1 fixed
        r0 = l - x[:, 1] * beta0[1] - spec.xi * v
        prec = np.sum(w * x[:, 0] ** 2) + 1.0 / s[0]
        mu = np.sum(w * r0 * x[:, 0]) / prec
        state = ChainState(
            beta=beta0.copy(), alpha=np.zeros(1), latent_l=l.copy(), latent_v=v.copy(),
            s=s.copy(), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, 0.0, np.inf]),
        )
        m = 40000
        draws = np.empty(m)
        for i in range(m):
            state.beta = beta0.copy()
            update_beta(state, spec, g)
            draws[i] = state.beta[0]
        assert draws.mean() == pytest.approx(mu, abs=3 * np.sqrt(1.0 / prec / m))


class TestUpdateS:
    def test_conditional_mean(self):
        spec = single_obs_spec()
        state = single_obs_state(spec, beta=1.0)
        state.lambda_sq = 1.0
        g = rng(6)
        draws = np.empty(100000)
        for i in range(draws.size):
            state.s[0] = 1.0
            update_s(state, spec, g)
            draws[i] = state.s[0]
        assert draws.mean() == pytest.approx(2.0, rel=0.02)
        assert np.all(draws > 0.0)

    def test_zero_beta_clamp(self):
        spec = single_obs_spec()
        state = single_obs_state(spec, beta=0.0)
        g = rng(7)
        update_s(state, spec, g)
        assert state.s[0] > 0.0


class TestUpdateLambdaSq:
    def test_gamma_moments(self):
        ds = OrdinalDataset(["s"], np.zeros(3, dtype=int), np.array([1, 2, 1]),
                            rng(0).normal(size=(3, 3)), np.arange(3), 2)
        spec = ModelSpec(theta=0.5, dataset=ds, priors=Priors(a1=1.0, a2=1.0))
        state = ChainState(
            beta=np.zeros(3), alpha=np.zeros(1),
            latent_l=np.array([-0.5, 0.5, -1.0]), latent_v=np.ones(3),
            s=np.array([2.0, 2.0, 2.0]), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, 0.0, np.inf]),
        )
        g = rng(8)
        draws = np.empty(100000)
        for i in range(draws.size):
            update_lambda_sq(state, spec, g)
            draws[i] = state.lambda_sq
        # gamma(p + a1 = 4, rate sum(s)/2 + a2 = 4)
        assert draws.mean() == pytest.approx(1.0, rel=0.02)
        assert np.all(draws > 0.0)


class TestUpdateAlpha:
    def test_flat_prior_limit(self):
        spec = single_obs_spec()
        state = single_obs_state(spec, l=1.7, v=0.5, beta=0.6)
        state.phi = 1e12
        target = 1.7 - 0.6 * 1.0 - spec.xi * 0.5
        g = rng(9)
        m = 40000
        draws = np.empty(m)
        for i in range(m):
            state.alpha[0] = 0.0
            update_alpha(state, spec, g)
            draws[i] = state.alpha[0]
        assert draws.mean() == pytest.approx(target, abs=3 * np.sqrt(1.0 / m))

    def test_zero_information_centered(self):
        spec = single_obs_spec()
        state = single_obs_state(spec, l=spec.xi * 1.0, v=1.0, beta=0.0)
        g = rng(10)
        m = 40000
        draws = np.empty(m)
        for i in range(m):
            state.alpha[0] = 0.0
            update_alpha(state, spec, g)
            draws[i] = state.alpha[0]
        assert draws.mean() == pytest.approx(0.0, abs=3 / np.sqrt(m))


def random_state_spec(subjects, covariates, n_i=3, seed=0):
    """A random dataset and a random state on it, for comparing draw paths."""
    g = rng(seed)
    n = subjects * n_i
    ds = OrdinalDataset([f"s{i}" for i in range(subjects)], np.repeat(np.arange(subjects), n_i),
                        np.resize([1, 2, 3], n), g.normal(size=(n, covariates)),
                        np.tile(np.arange(n_i), subjects), 3)
    spec = ModelSpec(theta=0.3, dataset=ds)
    state = initialize_state(spec, g, overdispersed=True)
    state.latent_v = g.exponential(size=n) + 0.05
    state.s = g.exponential(size=covariates) + 0.1
    state.lambda_sq, state.phi = 0.7, 1.9
    return state, spec


class TestScalarGeneratorPaths:
    """update_s and update_alpha draw the bits of the array-parameter calls they replaced."""

    BLOCKS = [(update_s, update_s_array_call, "s"), (update_alpha, update_alpha_normal_call, "alpha")]

    @pytest.mark.parametrize("block, reference, field", BLOCKS)
    @pytest.mark.parametrize("subjects, covariates", [(1, 1), (3000, 40)])
    def test_same_bits_and_stream_position(self, block, reference, field, subjects, covariates):
        for seed in range(3):
            state, spec = random_state_spec(subjects, covariates, seed=seed)
            twin = copy.deepcopy(state)
            g, g_ref = rng(100 + seed), rng(100 + seed)
            block(state, spec, g)
            reference(twin, spec, g_ref)
            assert getattr(state, field).tobytes() == getattr(twin, field).tobytes()
            assert g.bit_generator.state == g_ref.bit_generator.state

    def test_scalar_uniform_and_normal_forms_draw_the_same_bits(self):
        # update_delta's _uniform and the standard-normal form of the
        # coefficient and location draws, against the generator calls.
        cases = rng(7).uniform(-5.0, 5.0, size=(5000, 2))
        g, g_ref = rng(8), rng(8)
        for lo, width in cases.tolist():
            hi = lo + abs(width) + 1e-3
            assert gibbs._uniform(g, lo, hi) == g_ref.uniform(lo, hi)
            assert lo + (hi - lo) * g.standard_normal() == g_ref.normal(lo, hi - lo)
        assert g.bit_generator.state == g_ref.bit_generator.state

    @pytest.mark.parametrize("block, reference, field", BLOCKS)
    def test_nan_beta_gives_nan_on_both_paths(self, block, reference, field):
        state, spec = random_state_spec(50, 4)
        state.beta[1] = np.nan
        twin = copy.deepcopy(state)
        block(state, spec, rng(5))
        reference(twin, spec, rng(5))
        out = getattr(state, field)
        assert np.isnan(out).any()
        np.testing.assert_array_equal(out, getattr(twin, field))


class TestUpdatePhi:
    def test_inverse_gamma_mean(self):
        ds = OrdinalDataset(["a", "b", "c", "d"], np.arange(4), np.array([1, 2, 1, 2]),
                            np.ones((4, 1)), np.zeros(4, dtype=int), 2)
        spec = ModelSpec(theta=0.5, dataset=ds, priors=Priors(b1=1.0, b2=1.0))
        state = ChainState(
            beta=np.zeros(1), alpha=np.ones(4),
            latent_l=np.array([-0.5, 0.5, -1.0, 0.2]), latent_v=np.ones(4),
            s=np.ones(1), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, 0.0, np.inf]),
        )
        g = rng(11)
        draws = np.empty(100000)
        for i in range(draws.size):
            update_phi(state, spec, g)
            draws[i] = state.phi
        # inverse-gamma(N/2 + b1 = 3, scale sum(alpha^2)/2 + b2 = 3): mean 1.5
        assert draws.mean() == pytest.approx(1.5, rel=0.02)
        assert np.all(draws > 0.0)


class TestUpdateL:
    def test_lower_category_mean(self):
        # y = 1, cut at 0, center 0, variance 2v = 1: negative half-normal
        ds = OrdinalDataset(["s"], np.zeros(1, dtype=int), np.array([1]),
                            np.zeros((1, 1)), np.zeros(1, dtype=int), 2)
        spec = ModelSpec(theta=0.5, dataset=ds)
        state = ChainState(
            beta=np.zeros(1), alpha=np.zeros(1),
            latent_l=np.array([-0.5]), latent_v=np.array([0.5]),
            s=np.ones(1), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, 0.0, np.inf]),
        )
        g = rng(12)
        draws = np.empty(100000)
        for i in range(draws.size):
            state.latent_l[0] = -0.5
            update_l(state, spec, g)
            draws[i] = state.latent_l[0]
        assert np.all(draws < 0.0)
        assert draws.mean() == pytest.approx(-np.sqrt(2.0 / np.pi), rel=0.02)

    def test_every_draw_in_interval(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=8, obs_per_subject=3)
        ds = generate(cfg, substream(4, 2, 0))
        spec = ModelSpec(theta=0.7, dataset=ds, priors=Priors(delta_min=-3, delta_max=3))
        state = initialize_state(spec, substream(4, 0, 0))
        g = rng(13)
        for _ in range(50):
            update_l(state, spec, g)
            assert np.all(state.cutpoints[ds.y - 1] < state.latent_l)
            assert np.all(state.latent_l <= state.cutpoints[ds.y])


def liability_spec(theta, subjects=300, n_i=5, categories=4, empty=None, delta=3.0, seed=0):
    """A random panel whose category ``empty``, if given, holds no observation."""
    g = rng(seed)
    n = subjects * n_i
    y = g.integers(1, categories + 1, size=n)
    if empty is not None:
        y[y == empty] = empty + 1
    ds = OrdinalDataset([f"s{i}" for i in range(subjects)], np.repeat(np.arange(subjects), n_i), y,
                        g.normal(size=(n, 3)), np.tile(np.arange(n_i), subjects), categories)
    return ModelSpec(theta=theta, dataset=ds, priors=Priors(delta_min=-delta, delta_max=delta))


def tail_elements(state, spec) -> int:
    """Liabilities whose interval lies beyond the truncated-normal tail cutoff."""
    ds = spec.dataset
    center = ds.x @ state.beta + state.alpha[ds.subject_index] + spec.xi * state.latent_v
    sd = np.sqrt(2.0 * state.latent_v)
    a = (state.cutpoints[ds.y - 1] - center) / sd
    b = (state.cutpoints[ds.y] - center) / sd
    return int(np.count_nonzero((a > _TAIL_CUTOFF) | (b < -_TAIL_CUTOFF)))


def peak_arrays(func, n) -> float:
    """Peak traced allocation during ``func()``, in n-length float64 arrays."""
    import scipy.special  # noqa: F401  (imported lazily by the first draw; not part of a budget)

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        func()
        return (tracemalloc.get_traced_memory()[1] - base) / (8.0 * n)
    finally:
        if started:
            tracemalloc.stop()


class TestLiabilityDraw:
    """``model.draw_liabilities``, called by ``initialize_state`` and ``update_l``,
    draws the bits of the former out-of-place code from the same stream, and
    holds fewer full-length arrays."""

    @pytest.mark.parametrize("theta, overdispersed, empty, delta, subjects, tails", [
        (0.3, False, None, 3.0, 4, False),
        (0.7, True, None, 3.0, 300, True),
        (0.25, True, 2, 3.0, 300, True),
        (0.6, False, 3, 20.0, 300, True),
    ])
    def test_initialize_state_matches_reference(self, theta, overdispersed, empty, delta, subjects, tails):
        spec = liability_spec(theta, empty=empty, delta=delta, subjects=subjects)
        g, g_ref = rng(31), rng(31)
        state = initialize_state(spec, g, overdispersed=overdispersed)
        ref = initialize_state_full_bounds(spec, g_ref, overdispersed=overdispersed)
        assert (tail_elements(state, spec) > 0) == tails
        for name in ("beta", "alpha", "latent_l", "latent_v", "s", "cutpoints"):
            assert getattr(state, name).tobytes() == getattr(ref, name).tobytes()
        assert g.bit_generator.state == g_ref.bit_generator.state
        validate_state(state, spec)

    @pytest.mark.parametrize("theta, empty, v, last_cut, tails", [
        (0.3, None, 4.0, None, False),   # wide intervals: one unmasked pass
        (0.7, None, 0.5, 2.9, True),     # the last category sits in the upper tail
        (0.25, 2, 0.3, 2.5, True),       # an empty category and the upper tail
    ])
    def test_update_l_matches_reference(self, theta, empty, v, last_cut, tails):
        spec = liability_spec(theta, empty=empty)
        g = rng(41)
        state = initialize_state(spec, g, overdispersed=True)
        for op in gibbs._SWEEP:
            op(state, spec, g)
        if v is not None:
            state.latent_v[:] = v
        if last_cut is not None:
            state.cutpoints[-2] = last_cut
        assert (tail_elements(state, spec) > 0) == tails
        for _ in range(3):
            twin = state.copy()
            g_ref = copy.deepcopy(g)
            update_l(state, spec, g)
            update_l_full_bounds(twin, spec, g_ref)
            assert state.latent_l.tobytes() == twin.latent_l.tobytes()
            assert g.bit_generator.state == g_ref.bit_generator.state

    def test_copy_taken_before_update_l_is_unchanged(self):
        spec = liability_spec(0.4)
        g = rng(43)
        state = initialize_state(spec, g)
        before = state.copy()
        kept = before.latent_l.tobytes()
        previous = state.latent_l
        update_l(state, spec, g)
        assert state.latent_l is previous  # drawn over the previous liabilities
        assert before.latent_l.tobytes() == kept
        assert not np.array_equal(state.latent_l, before.latent_l)

    # Peak traced allocation in n-length float64 arrays at n = 50,000, as
    # measured (4.25, 5.38 and 7.50; initialize_state returns two of its
    # arrays as state).  The former code, which gathered full-length bounds
    # and drew into fresh arrays, measured 9.38, 12.38 and 12.47 here.
    BUDGET_BODY, BUDGET_TAIL, BUDGET_INIT = 4.3, 5.4, 7.55

    def budget_spec(self, top=1, delta=3.0):
        """50,000 observations in categories 1..3 of 4, but ``top`` in category 4."""
        n = 50_000
        g = rng(47)
        y = g.integers(1, 4, size=n)
        y[:top] = 4
        ds = OrdinalDataset([f"s{i}" for i in range(n // 10)], np.repeat(np.arange(n // 10), 10), y,
                            g.normal(size=(n, 3)), np.tile(np.arange(10), n // 10), 4)
        return n, ModelSpec(theta=0.3, dataset=ds, priors=Priors(delta_min=-delta, delta_max=delta))

    def test_update_l_allocation_budget(self):
        n, spec = self.budget_spec()
        state = initialize_state(spec, rng(1))
        state.latent_v[:] = 8.0  # every interval within the tail cutoff
        assert tail_elements(state, spec) == 0
        assert peak_arrays(lambda: update_l(state, spec, rng(1)), n) <= self.BUDGET_BODY

    def test_update_l_tail_path_allocation_budget(self):
        n, spec = self.budget_spec(top=5, delta=30.0)
        state = initialize_state(spec, rng(1))
        state.latent_v[:] = 1.0
        state.cutpoints[1:-1] = [-1.5, 0.0, 25.0]  # category 4 lies past the cutoff
        assert tail_elements(state, spec) == 5
        assert peak_arrays(lambda: update_l(state, spec, rng(1)), n) <= self.BUDGET_TAIL

    def test_initialize_state_allocation_budget(self):
        n, spec = self.budget_spec()
        assert peak_arrays(lambda: initialize_state(spec, rng(2)), n) <= self.BUDGET_INIT


class BoundsRecorder:
    """Stands in for ``gibbs._uniform``, the uniform draw of ``update_delta``:
    records each draw's support and returns its midpoint, so the next
    cut-point's bounds are known exactly."""

    def __init__(self):
        self.bounds = []

    def __call__(self, g, low, high):
        self.bounds.append((low, high))
        return 0.5 * (low + high)


class TestUpdateDelta:
    def delta_fixture(self):
        x = np.zeros((4, 1))
        y = np.array([1, 1, 2, 2])
        ds = OrdinalDataset(["s"], np.zeros(4, dtype=int), y, x, np.arange(4), 2)
        spec = ModelSpec(theta=0.5, dataset=ds, priors=Priors(delta_min=-10, delta_max=10))
        state = ChainState(
            beta=np.zeros(1), alpha=np.zeros(1),
            latent_l=np.array([0.1, 0.3, 0.7, 1.5]), latent_v=np.ones(4),
            s=np.ones(1), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, 0.5, np.inf]),
        )
        return spec, state

    def test_direct_bounds(self, monkeypatch):
        spec, state = self.delta_fixture()
        g = BoundsRecorder()
        monkeypatch.setattr(gibbs, "_uniform", g)
        update_delta(state, spec, rng(0))
        assert g.bounds == [(0.3, 0.7)]

    def test_uniform_distribution_ks(self):
        spec, state = self.delta_fixture()
        g = rng(14)
        draws = np.empty(100000)
        for i in range(draws.size):
            state.cutpoints[1] = 0.5
            update_delta(state, spec, g)
            draws[i] = state.cutpoints[1]
        assert np.all((draws > 0.3) & (draws < 0.7))
        cdf = lambda t: np.clip((t - 0.3) / 0.4, 0.0, 1.0)
        assert ks_vs_cdf(draws, cdf) < 0.01

    def test_empty_category_falls_back_to_neighbours(self, monkeypatch):
        x = np.zeros((3, 1))
        y = np.array([1, 3, 3])  # category 2 unobserved
        ds = OrdinalDataset(["s"], np.zeros(3, dtype=int), y, x, np.arange(3), 3)
        spec = ModelSpec(theta=0.5, dataset=ds, priors=Priors(delta_min=-10, delta_max=10))
        state = ChainState(
            beta=np.zeros(1), alpha=np.zeros(1),
            latent_l=np.array([-1.0, 2.0, 2.5]), latent_v=np.ones(3),
            s=np.ones(1), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, -0.5, 1.0, np.inf]),
        )
        g = BoundsRecorder()
        monkeypatch.setattr(gibbs, "_uniform", g)
        update_delta(state, spec, rng(0))
        (lo1, hi1), (lo, hi) = g.bounds
        assert lo1 == -1.0
        assert hi1 == 1.0  # empty category 2 contributes +inf; neighbour binds
        assert lo == 0.0   # empty category 2: falls back to the fresh delta_1
        assert hi == 2.0   # min liability in category 3

    def test_inconsistent_state_aborts(self):
        spec, state = self.delta_fixture()
        state.latent_l = np.array([0.9, 0.95, 0.1, 0.2])  # inverted: L > U
        with pytest.raises(ChainDivergedError):
            update_delta(state, spec, rng(15))


class TestShiftLocation:
    """The translation move that opens ``update_v``: shift g added to the
    subject effects, interior cut-points and liabilities, with conditional
    kernel sum_i -(alpha_i + g)^2 / (2 phi) on the shifts that keep the
    cut-points inside the prior support."""

    ALPHA = np.array([0.5, -0.1])
    PHI = 0.5

    def fixture(self, delta_min, delta_max, cuts):
        x = np.array([[0.3], [-0.4], [0.9], [0.1]])
        ds = OrdinalDataset(["a", "b"], np.array([0, 0, 1, 1]), np.array([1, 2, 3, 2]),
                            x, np.array([0, 1, 0, 1]), 3)
        spec = ModelSpec(theta=0.3, dataset=ds,
                         priors=Priors(delta_min=delta_min, delta_max=delta_max))
        state = ChainState(
            beta=np.array([0.2]), alpha=self.ALPHA.copy(),
            latent_l=np.array([cuts[0] - 0.4, 0.5 * (cuts[0] + cuts[1]), cuts[1] + 0.4, cuts[1] - 0.01]),
            latent_v=np.ones(4), s=np.array([1.0]), lambda_sq=1.0, phi=self.PHI,
            cutpoints=np.array([-np.inf, cuts[0], cuts[1], np.inf]),
        )
        return spec, state

    def shift_draws(self, spec, state, n=100000):
        g = rng(16)
        alpha0, l0, cuts0 = state.alpha, state.latent_l, state.cutpoints
        shift_location = model.takes_one_chain(gibbs._shift_location)
        draws = np.empty(n)
        for i in range(n):
            state.alpha, state.latent_l, state.cutpoints = alpha0.copy(), l0.copy(), cuts0.copy()
            shift_location(state, spec, g)
            draws[i] = state.alpha[0] - alpha0[0]
        return draws

    def kernel(self, g):
        g = np.asarray(g)[:, None]
        return -np.sum((self.ALPHA[None, :] + g) ** 2, axis=1) / (2.0 * self.PHI)

    @pytest.mark.parametrize("delta_min, delta_max, cuts", [
        (-10.0, 10.0, (-0.5, 0.9)),  # bounds (-9.5, 9.1) lie far out in the tails
        (-3.0, 3.0, (-2.8, 2.7)),    # bounds (-0.2, 0.3): most plain draws miss
    ])
    def test_shift_is_truncated_normal(self, delta_min, delta_max, cuts):
        spec, state = self.fixture(delta_min, delta_max, cuts)
        lo, hi = delta_min - cuts[0], delta_max - cuts[1]
        draws = self.shift_draws(spec, state)
        assert np.all((draws > lo) & (draws < hi))
        assert ks_vs_log_kernel(draws, self.kernel, lo, hi) < 0.01

    def test_update_v_keeps_likelihood_differences(self):
        spec, state = self.fixture(-3.0, 3.0, (-0.5, 0.9))
        before = state.copy()
        update_v(state, spec, rng(17))
        assert not np.allclose(state.alpha, before.alpha)
        np.testing.assert_allclose(state.latent_l - state.alpha[spec.dataset.subject_index],
                                   before.latent_l - before.alpha[spec.dataset.subject_index],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.latent_l[:, None] - state.cutpoints[None, 1:-1],
                                   before.latent_l[:, None] - before.cutpoints[None, 1:-1],
                                   rtol=0, atol=1e-12)
        validate_state(state, spec)


class TestSamplerConfig:
    def test_retained_count(self):
        cfg = SamplerConfig(iterations=100, burn_in=20, thin=8)
        assert cfg.retained_per_chain == 10

    @pytest.mark.parametrize("kwargs", [
        {"iterations": 0},
        {"iterations": 10, "burn_in": 10},
        {"iterations": 10, "burn_in": -1},
        {"iterations": 10, "burn_in": 0, "thin": 0},
        {"iterations": 10, "burn_in": 8, "thin": 5},
        {"iterations": 10, "num_chains": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SamplerConfig(**kwargs)


def small_sim_spec(theta=0.5, seed=21, subjects=8, n_i=4):
    cfg = ScenarioConfig(scenario="sim1", subjects=subjects, obs_per_subject=n_i)
    ds = generate(cfg, substream(seed, 2, 0))
    return ModelSpec(theta=theta, dataset=ds, priors=Priors(delta_min=-3, delta_max=3))


class TestRunChain:
    def test_row_bookkeeping(self):
        spec = small_sim_spec()
        draws = run_chain(spec, SamplerConfig(iterations=10, burn_in=0, thin=1, seed=1))
        assert draws.values.shape[0] == 10
        assert list(draws.iteration) == list(range(1, 11))

    def test_determinism(self):
        spec = small_sim_spec()
        cfg = SamplerConfig(iterations=50, burn_in=10, seed=7, num_chains=2)
        a = run_chain(spec, cfg)
        b = run_chain(spec, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_invariants_hold_each_sweep(self):
        spec = small_sim_spec(theta=0.25)
        state = initialize_state(spec, substream(5, 0, 0))
        g = substream(5, 0, 0)
        for _ in range(60):
            for op in gibbs._SWEEP:
                op(state, spec, g)
            validate_state(state, spec)

    def test_nan_aborts_with_location(self, monkeypatch):
        spec = small_sim_spec()

        def poisoned(state, spec_, rng_):
            state.latent_v[:] = np.nan

        monkeypatch.setattr(gibbs, "_SWEEP", (poisoned,))
        with pytest.raises(ChainDivergedError, match="latent_v at sweep 1"):
            run_chain(spec, SamplerConfig(iterations=5, burn_in=0, seed=3))

    @pytest.mark.parametrize("block", ["beta", "alpha", "latent_l", "latent_v", "s", "lambda_sq", "phi", "delta"])
    def test_nonfinite_block_named_alike(self, monkeypatch, block):
        spec = small_sim_spec()
        config = SamplerConfig(iterations=5, burn_in=0, seed=3)

        def poison(state):
            if block in ("lambda_sq", "phi"):
                setattr(state, block, np.nan)
            else:
                (state.cutpoints[..., 1:-1] if block == "delta" else getattr(state, block))[0] = np.nan

        state = initialize_state(spec, substream(3, 0, 0))
        poison(state)
        with pytest.raises(ChainDivergedError, match=f"^non-finite {block}$"):
            validate_state(state, spec)

        def poisoned(state, spec_, rng_):
            poison(state)

        monkeypatch.setattr(gibbs, "_SWEEP", (poisoned,))
        with pytest.raises(ChainDivergedError, match=f"^chain 0: non-finite {block} at sweep 1$"):
            run_chain(spec, config)

        def failing(state, spec_, rng_):
            poison(state)
            raise FloatingPointError("overflow")

        monkeypatch.setattr(gibbs, "_SWEEP", (failing,))
        with pytest.raises(ChainDivergedError,
                           match=f"^chain 0: failing failed at sweep 1 with non-finite {block}: overflow$"):
            run_chain(spec, config)

    def test_matches_hand_loop_over_sweep_blocks(self):
        # The benchmark's traced run times each block by running
        # gibbs._SWEEP itself; it must reproduce run_chain's draws exactly.
        spec = small_sim_spec()
        cfg = SamplerConfig(iterations=30, burn_in=10, thin=2, seed=9, num_chains=2,
                            overdispersed_starts=True, retain_alpha=True)
        rows = []
        for chain in range(cfg.num_chains):
            g = substream(cfg.seed, STREAM_CHAIN, chain)
            state = initialize_state(spec, g, overdispersed=True)
            for t in range(1, cfg.iterations + 1):
                for op in gibbs._SWEEP:
                    op(state, spec, g)
                if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
                    rows.append(np.concatenate([state.beta, state.cutpoints[1:-1],
                                                [state.lambda_sq, state.phi], state.alpha]))
        assert np.array_equal(run_chain(spec, cfg).values, np.array(rows))

    def test_worker_processes_give_identical_draws(self):
        spec = small_sim_spec()
        cfg = SamplerConfig(iterations=40, burn_in=10, thin=2, seed=4, num_chains=3,
                            overdispersed_starts=True, retain_alpha=True)
        serial = run_chain(spec, cfg)
        pooled = run_chain(spec, cfg, jobs=2)
        assert np.array_equal(pooled.values, serial.values)
        assert np.array_equal(pooled.chain, serial.chain)
        assert np.array_equal(pooled.iteration, serial.iteration)

    def test_alpha_retention_flag(self):
        spec = small_sim_spec()
        cfg = SamplerConfig(iterations=10, burn_in=0, seed=1, retain_alpha=True)
        draws = run_chain(spec, cfg)
        assert f"alpha_{spec.dataset.num_subjects}" in draws.names
        slim = run_chain(spec, SamplerConfig(iterations=10, burn_in=0, seed=1))
        assert not any(n.startswith("alpha_") for n in slim.names)

    def test_subject_permutation_invariance(self):
        # permuting subject order must leave posterior summaries unchanged
        # within Monte Carlo error (matched seeds, distinct draw paths)
        cfg = ScenarioConfig(scenario="sim1", subjects=10, obs_per_subject=4)
        ds = generate(cfg, substream(31, 2, 0))
        perm = [7, 2, 9, 0, 5, 1, 8, 3, 6, 4]
        rows = np.concatenate([np.flatnonzero(ds.subject_index == i) for i in perm])
        ds_perm = OrdinalDataset([ds.subject_ids[i] for i in perm], np.argsort(perm)[ds.subject_index[rows]],
                                 ds.y[rows], ds.x[rows], ds.time_index[rows], ds.num_categories)
        sampler = SamplerConfig(iterations=24000, burn_in=4000, seed=13)
        pri = Priors(delta_min=-3, delta_max=3)
        a = run_chain(ModelSpec(theta=0.5, dataset=ds, priors=pri), sampler)
        b = run_chain(ModelSpec(theta=0.5, dataset=ds_perm, priors=pri), sampler)
        for name in ["beta_1", "beta_2", "beta_3", "delta_1", "delta_4", "lambda_sq", "phi"]:
            ca, cb = a.column(name), b.column(name)
            mcse = np.sqrt(batch_means_var(ca) + batch_means_var(cb))
            assert abs(ca.mean() - cb.mean()) < 5.0 * mcse

    def test_sign_flip_equivariance(self):
        # negating all covariates flips the coefficient draws exactly in law;
        # summaries agree within Monte Carlo error and cut-points are unchanged
        cfg = ScenarioConfig(scenario="sim1", subjects=10, obs_per_subject=4)
        ds = generate(cfg, substream(17, 2, 0))
        flipped = OrdinalDataset(ds.subject_ids, ds.subject_index, ds.y, -ds.x,
                                 ds.time_index, ds.num_categories)
        sampler = SamplerConfig(iterations=24000, burn_in=4000, seed=19)
        pri = Priors(delta_min=-3, delta_max=3)
        a = run_chain(ModelSpec(theta=0.5, dataset=ds, priors=pri), sampler)
        b = run_chain(ModelSpec(theta=0.5, dataset=flipped, priors=pri), sampler)
        for k in (1, 2, 3):
            ca, cb = a.column(f"beta_{k}"), -b.column(f"beta_{k}")
            mcse = np.sqrt(batch_means_var(ca) + batch_means_var(cb))
            assert abs(ca.mean() - cb.mean()) < 5.0 * mcse
        for c in (1, 2, 3, 4):
            ca, cb = a.column(f"delta_{c}"), b.column(f"delta_{c}")
            mcse = np.sqrt(batch_means_var(ca) + batch_means_var(cb))
            assert abs(ca.mean() - cb.mean()) < 5.0 * mcse

    def test_covariate_scaling_equivariance(self):
        # informative design: doubling covariates halves the coefficients
        g = np.random.default_rng(77)
        n, p = 150, 2
        x = g.uniform(-1.0, 1.0, size=(n, p))
        liab = x @ np.array([1.5, -2.0]) + g.logistic(0.0, 0.5, size=n)
        cuts = np.array([-0.7, 0.7])
        y = np.searchsorted(cuts, liab) + 1
        subj = np.repeat(np.arange(30), 5)
        ds = OrdinalDataset([f"s{i}" for i in range(30)], subj, y, x,
                            np.tile(np.arange(5), 30), 3)
        scaled = OrdinalDataset(ds.subject_ids, ds.subject_index, ds.y, 2.0 * ds.x,
                                ds.time_index, ds.num_categories)
        sampler = SamplerConfig(iterations=24000, burn_in=4000, seed=23)
        pri = Priors(delta_min=-5, delta_max=5)
        a = run_chain(ModelSpec(theta=0.5, dataset=ds, priors=pri), sampler)
        b = run_chain(ModelSpec(theta=0.5, dataset=scaled, priors=pri), sampler)
        for k in (1, 2):
            ca, cb = a.column(f"beta_{k}"), 2.0 * b.column(f"beta_{k}")
            mcse = np.sqrt(batch_means_var(ca) + batch_means_var(cb))
            assert abs(ca.mean() - cb.mean()) < max(5.0 * mcse, 0.05 * abs(ca.mean()))
        for c in (1, 2):
            ca, cb = a.column(f"delta_{c}"), b.column(f"delta_{c}")
            mcse = np.sqrt(batch_means_var(ca) + batch_means_var(cb))
            assert abs(ca.mean() - cb.mean()) < max(5.0 * mcse, 0.05)


def batch_means_var(chain, batches=40):
    n = len(chain) // batches * batches
    means = chain[:n].reshape(batches, -1).mean(axis=1)
    return means.var(ddof=1) / batches


def edit_cell(line, column, text):
    """An edit of a file's lines that puts ``text`` in field ``column`` of ``line``."""
    def edit(lines):
        fields = lines[line - 1].split(",")
        fields[column] = text
        lines[line - 1] = ",".join(fields)
    return edit


def edit_line(line, text):
    """An edit of a file's lines that replaces ``line`` with ``text``."""
    def edit(lines):
        lines[line - 1] = text
    return edit


def chain_of(batch: ChainState, k: int) -> ChainState:
    """Chain ``k`` of a batch state, as a one-chain state."""
    return ChainState(batch.beta[k], batch.alpha[k], batch.latent_l[k], batch.latent_v[k], batch.s[k],
                      float(batch.lambda_sq[k]), float(batch.phi[k]), batch.cutpoints[k])


def assert_same_state(got: ChainState, want: ChainState) -> None:
    for name in ("beta", "alpha", "latent_l", "latent_v", "s", "cutpoints"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("lambda_sq", "phi"):
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes(), name


def batch_case(case):
    """One-chain specs and states that one batch will hold.

    ``shared``: three chains of one dataset.  ``distinct``: five datasets of
    one design at two quantile levels, one with an empty category.
    ``tails``: one chain whose liability draw takes the truncated-normal
    tail branch.  ``fallback``: one chain whose location move misses its
    narrow bounds and falls back to the truncated-normal draw, and one
    whose end cut-points sit on the support, so its move is pinned.
    """
    if case == "shared":
        specs = [liability_spec(0.3, subjects=40)] * 3
    elif case == "distinct":
        specs = [liability_spec(theta, subjects=40, empty=2 if k == 3 else None, seed=k)
                 for k, theta in enumerate((0.25, 0.5, 0.25, 0.5, 0.5))]
    else:
        specs = [liability_spec(0.7, subjects=40, seed=k) for k in range(3)]
    states = []
    for k, spec in enumerate(specs):
        g = rng(60 + k)
        state = initialize_state(spec, g, overdispersed=True)
        for _ in range(3):
            for op in gibbs._SWEEP:
                op(state, spec, g)
        pri = spec.priors
        if case == "tails" and k == 1:
            state.latent_v[:] = 0.5
            state.cutpoints[-2] = 2.9
        if case == "fallback" and k == 1:
            state.cutpoints[1:-1] = [pri.delta_min + 1e-3, 0.0, pri.delta_max - 1e-3]
        if case == "fallback" and k == 2:
            state.cutpoints[1:-1] = [pri.delta_min, 0.0, pri.delta_max]
        update_l(state, spec, g)  # liabilities consistent with the edited cut-points
        states.append(state)
    return specs, states


class TestBatchedBlocks:
    """Every block advances a batch of chains, each drawing from its own
    generator, to the bits each chain reaches alone."""

    @pytest.mark.parametrize("case", ["shared", "distinct", "tails", "fallback"])
    @pytest.mark.parametrize("block", gibbs._SWEEP, ids=lambda op: op.__name__)
    def test_block_matches_each_chain_alone(self, case, block, monkeypatch):
        specs, states = batch_case(case)
        if block is update_l and case == "tails":
            assert [tail_elements(state, spec) > 0 for state, spec in zip(states, specs)] == [False, True, False]
        fallbacks = []
        if case == "fallback" and block is update_v:
            def counted(*args, trunc_normal=gibbs._trunc_normal):
                fallbacks.append(None)
                return trunc_normal(*args)
            monkeypatch.setattr(gibbs, "_trunc_normal", counted)
        gens = [rng(70 + k) for k in range(len(states))]
        batch = stack_states(states)
        block(batch, stack_specs(specs), gens)
        in_batch = len(fallbacks)
        for k, (spec, state) in enumerate(zip(specs, states)):
            g = rng(70 + k)
            block(state, spec, g)
            assert_same_state(chain_of(batch, k), state)
            assert gens[k].bit_generator.state == g.bit_generator.state
        if case == "fallback" and block is update_v:
            assert in_batch == len(fallbacks) - in_batch == 1

    def test_stack_specs_rejects_different_designs(self):
        with pytest.raises(ConfigError, match="share"):
            stack_specs([liability_spec(0.5, subjects=40), liability_spec(0.5, subjects=30)])


class TestEntryShim:
    """``model.takes_one_chain`` lets every block take one chain's own state,
    a ``ModelSpec`` and one generator: it runs the block's batch body on the
    state viewed as a K = 1 batch, and leaves the state in its own form."""

    @pytest.mark.parametrize("block", gibbs._SWEEP, ids=lambda op: op.__name__)
    def test_one_chain_state_keeps_its_form(self, block):
        spec = liability_spec(0.3, subjects=40)
        g = rng(80)
        state = initialize_state(spec, g, overdispersed=True)
        taken = {name: getattr(state, name) for name in ("latent_v", "latent_l")}
        values = {name: array.copy() for name, array in taken.items()}
        block(state, spec, g)
        assert type(state.lambda_sq) is float and type(state.phi) is float
        for name in ("beta", "alpha", "latent_l", "latent_v", "s", "cutpoints"):
            assert getattr(state, name).ndim == 1, name
        written = {update_v: "latent_v", update_l: "latent_l"}.get(block)
        if written:
            assert getattr(state, written) is taken[written]
            assert not np.array_equal(taken[written], values[written])

    @pytest.mark.parametrize("bound", [1 << 16, 128], ids=["whole", "chunked"])
    @pytest.mark.parametrize("block", gibbs._SWEEP, ids=lambda op: op.__name__)
    def test_one_chain_call_draws_the_k1_batch_bits(self, monkeypatch, block, bound):
        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", bound)
        spec = desk_spec()
        g = substream(9, STREAM_CHAIN, 0)
        state = initialize_state(spec, g, overdispersed=True)
        for _ in range(2):
            for op in gibbs._SWEEP:
                op(state, spec, g)
        batch = stack_states([state])
        assert chunked(state) == chunked(batch) == (bound == 128)
        g_batch = copy.deepcopy(g)
        block(state, spec, g)
        block(batch, stack_specs([spec]), [g_batch])
        assert_same_state(chain_of(batch, 0), state)
        assert g.bit_generator.state == g_batch.bit_generator.state

    @pytest.mark.parametrize("bound", [1 << 16, 128], ids=["whole", "chunked"])
    def test_one_chain_sweeps_draw_the_sampled_rows(self, monkeypatch, bound):
        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", bound)
        spec = desk_spec()
        config = SamplerConfig(iterations=12, burn_in=4, seed=9, overdispersed_starts=True, retain_alpha=True)
        expected = gibbs._sample_chains([(spec, config, 0)])[0]
        g = substream(config.seed, STREAM_CHAIN, 0)
        state = initialize_state(spec, g, overdispersed=True)
        rows = []
        for t in range(1, config.iterations + 1):
            for op in gibbs._SWEEP:
                op(state, spec, g)
            if t > config.burn_in:
                rows.append(np.concatenate([state.beta, state.cutpoints[1:-1], [state.lambda_sq, state.phi],
                                            state.alpha]))
        assert np.array(rows).tobytes() == expected.tobytes()


class TestBatchedChains:
    """``batched`` and ``sample_batch`` sample chains as batches with the
    draws of one-chain runs, and sample a batch again one chain at a time
    when a chain fails in it."""

    @staticmethod
    def sample(tasks):
        return [rows for batch in gibbs.batched(tasks) for rows in gibbs.sample_batch(batch)]

    @staticmethod
    def tasks(chains, theta, distinct):
        config = SamplerConfig(iterations=30, burn_in=6, thin=4, overdispersed_starts=True, retain_alpha=True)
        specs = [small_sim_spec(theta, seed=21 + (k if distinct else 0)) for k in range(chains)]
        return [(spec, replace(config, seed=900 + k), k) for k, spec in enumerate(specs)]

    @pytest.mark.parametrize("chains", [1, 2, 5])
    @pytest.mark.parametrize("theta", [0.25, 0.5])
    @pytest.mark.parametrize("distinct", [False, True], ids=["shared", "distinct"])
    def test_batch_matches_one_chain_runs(self, chains, theta, distinct):
        tasks = self.tasks(chains, theta, distinct)
        batched = gibbs._sample_chains(tasks)  # raises where sample_batch would fall back
        for task, rows in zip(tasks, batched):
            assert rows.tobytes() == gibbs._sample_chains([task])[0].tobytes()
        assert [rows.tobytes() for rows in self.sample(tasks)] == [rows.tobytes() for rows in batched]

    @pytest.mark.parametrize("long_chains", [False, True], ids=["observations", "retained-draws"])
    def test_batches_are_bounded(self, monkeypatch, long_chains):
        # A batch holds at most parallel._CHUNK_OBSERVATIONS chain-observations
        # and as many retained draw cells, so long chains are split.
        tasks = self.tasks(5, 0.5, True)
        if not long_chains:
            short = SamplerConfig(iterations=30, burn_in=6, thin=12)
            tasks = [(spec, replace(short, seed=config.seed), k) for spec, config, k in tasks]
        spec, config, _ = tasks[0]
        n = spec.dataset.num_observations
        row_cells = config.retained_per_chain * len(gibbs.parameter_names(spec, config.retain_alpha))
        assert (row_cells > n) == long_chains
        sizes = []

        def sample_chains(batch, sample=gibbs._sample_chains):
            sizes.append(len(batch))
            return sample(batch)

        monkeypatch.setattr(gibbs, "_sample_chains", sample_chains)
        for cells, want in ((2 * max(n, row_cells), [2, 2, 1]), (2 * min(n, row_cells), [1] * 5)):
            monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", cells)
            sizes.clear()
            self.sample(tasks)
            assert sizes == want

    def test_probe_overflow_on_finite_values_keeps_the_batch(self, monkeypatch):
        # After sweep 3, chain 1's mixing variables are finite but so large
        # that the finiteness probe overflows; the next sweep overwrites them
        # before any block reads them, so the batch goes on unchanged.
        tasks = self.tasks(3, 0.5, True)
        clean = [gibbs._sample_chains([task])[0].tobytes() for task in tasks]
        sweeps = []

        def update_delta(state, spec, rng_):
            gibbs.update_delta(state, spec, rng_)
            if state.beta.ndim > 1:
                sweeps.append(None)
                if len(sweeps) == 3:
                    l = state.latent_l[1]
                    assert np.abs(l).sum() > 1.0
                    state.latent_v[1] = np.where(l >= 0, np.finfo(float).max, -np.finfo(float).max)

        sizes = []

        def sample_chains(batch, sample=gibbs._sample_chains):
            sizes.append(len(batch))
            return sample(batch)

        monkeypatch.setattr(gibbs, "_SWEEP", tuple(update_delta if op is gibbs.update_delta else op
                                                   for op in gibbs._SWEEP))
        monkeypatch.setattr(gibbs, "_sample_chains", sample_chains)
        outcomes = self.sample(tasks)
        assert sizes == [3]
        assert [rows.tobytes() for rows in outcomes] == clean

    def test_nonfinite_cutpoint_named_in_a_batch(self):
        for chains in (2, 3):
            states = [initialize_state(small_sim_spec(), substream(3, 0, k)) for k in range(chains)]
            batch = stack_states(states)
            assert nonfinite_blocks(batch) == []
            batch.cutpoints[chains - 1, 1] = np.nan
            assert nonfinite_blocks(batch) == ["delta"]

    def test_diverging_chain_is_reported_alone(self, monkeypatch):
        tasks = self.tasks(4, 0.5, True)
        clean = [gibbs._sample_chains([task])[0].tobytes() for task in tasks]
        target = tasks[2][0].dataset.x
        sweeps = {"batch": 0, "alone": 0}

        def update_beta(state, spec, rng_):
            # Chain 2 turns non-finite at its fifth sweep, in a batch or alone.
            gibbs.update_beta(state, spec, rng_)
            x = spec.dataset.x
            run = "batch" if x.ndim == 3 else "alone" if x is target else None
            if run:
                sweeps[run] += 1
                if sweeps[run] == 5:
                    (state.beta[2] if run == "batch" else state.beta)[0] = np.nan

        monkeypatch.setattr(gibbs, "_SWEEP", tuple(update_beta if op is gibbs.update_beta else op
                                                   for op in gibbs._SWEEP))
        with pytest.raises(ChainDivergedError) as alone:
            gibbs._sample_chains([tasks[2]])
        assert "chain 2: " in str(alone.value) and "at sweep 5 with non-finite beta" in str(alone.value)
        sweeps["alone"] = 0
        outcomes = self.sample(tasks)
        assert sweeps["batch"] == 5
        assert str(outcomes[2]) == str(alone.value)
        assert [rows.tobytes() for k, rows in enumerate(outcomes) if k != 2] == clean[:2] + clean[3:]


def desk_spec():
    """The 400-observation desk data (sim2, 40 subjects x 10, dataset seed 2026)."""
    ds = generate(ScenarioConfig(scenario="sim2", subjects=40, obs_per_subject=10),
                  substream(2026, STREAM_DATASET, 0))
    return ModelSpec(theta=0.5, dataset=ds, priors=Priors(delta_min=-3, delta_max=3))


def one_conditional_spec(n, y, theta=0.5):
    """n observations of 100 subjects, one covariate of zeros, every response
    ``y`` of two categories: each observation has the same conditional."""
    subjects = 100
    ds = OrdinalDataset([f"s{i}" for i in range(subjects)], np.repeat(np.arange(subjects), n // subjects),
                        np.full(n, y), np.zeros((n, 1)), np.tile(np.arange(n // subjects), subjects), 2)
    return ModelSpec(theta=theta, dataset=ds)


class TestChunkedPasses:
    """A chain of more than ``parallel._CHUNK_OBSERVATIONS`` observations runs
    its per-observation passes over equal observation chunks on a thread
    share.  The bound is lowered to 128 here, so the desk data runs as four
    chunks of 100 observations; a dataset is made after the bound is set,
    because a chunked dataset stores its covariates by column."""

    CONFIG = SamplerConfig(iterations=30, burn_in=10, thin=2, seed=9, overdispersed_starts=True, retain_alpha=True)

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", 128)

    def test_chunk_layout(self, monkeypatch):
        assert parallel.observation_chunks(400) == [slice(0, 100), slice(100, 200), slice(200, 300), slice(300, 400)]
        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", 1 << 16)
        assert [s.stop - s.start for s in parallel.observation_chunks(200_000)] == [50_000] * 4
        assert [s.stop - s.start for s in parallel.observation_chunks(65_537)] == [32_768, 32_769]
        assert parallel.observation_chunks(65_536) == [slice(0, 65_536)]

    @pytest.mark.parametrize("bound, chunks", [(399, True), (400, False)])
    def test_only_a_chain_above_the_bound_is_chunked(self, monkeypatch, bound, chunks):
        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", bound)
        spec = desk_spec()
        assert spec.dataset.x.flags.f_contiguous == chunks
        assert chunked(initialize_state(spec, rng(1))) == chunks
        runs = [run_chain(spec, self.CONFIG).values.tobytes()]
        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", 1 << 16)
        runs.append(run_chain(desk_spec(), self.CONFIG).values.tobytes())
        assert (runs[0] != runs[1]) == chunks
        assert not chunked(stack_states([initialize_state(spec, rng(k)) for k in range(2)]))

    def test_draws_identical_for_one_and_two_threads(self, thread_share, monkeypatch):
        spec = desk_spec()
        workers = []

        def column_product(x, beta, product=model.column_product):
            workers.append(threading.current_thread().name)
            return product(x, beta)

        monkeypatch.setattr(model, "column_product", column_product)
        draws = {}
        for threads in (1, 2):
            thread_share(threads)
            workers.clear()
            draws[threads] = run_chain(spec, self.CONFIG).values.tobytes()
            helped = {name for name in workers if name.startswith("ordquant-chunk")}
            assert bool(helped) == (threads == 2)
        assert draws[1] == draws[2]

    def test_chunked_chain_calls_no_blas(self, monkeypatch):
        # Above about 10k elements np.dot gives different bits at one and two
        # BLAS threads, so a chunked chain, whose draws must not depend on the
        # thread count, reaches no BLAS product.
        spec = desk_spec()
        expected = run_chain(spec, self.CONFIG).values.tobytes()

        def blas(*args, **kwargs):
            raise AssertionError("a chunked chain called the BLAS")

        for name in ("dot", "vdot", "matmul", "inner"):
            monkeypatch.setattr(np, name, blas)
        monkeypatch.setattr(model, "linear_predictor", blas)
        assert run_chain(spec, self.CONFIG).values.tobytes() == expected

    def test_draws_identical_for_any_jobs(self):
        spec = desk_spec()
        config = replace(self.CONFIG, num_chains=2)
        assert run_chain(spec, config, jobs=2).values.tobytes() == run_chain(spec, config).values.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_called_alone_reproduce_run_chain(self, thread_share, threads):
        # The benchmark's traced run calls each block as op(state, spec, rng)
        # with the chain's generator alone.
        thread_share(threads)
        spec, cfg = desk_spec(), self.CONFIG
        g = substream(cfg.seed, STREAM_CHAIN, 0)
        state = initialize_state(spec, g, overdispersed=True)
        rows = []
        for t in range(1, cfg.iterations + 1):
            for op in gibbs._SWEEP:
                op(state, spec, g)
            if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
                rows.append(np.concatenate([state.beta, state.cutpoints[1:-1], [state.lambda_sq, state.phi],
                                            state.alpha]))
        assert run_chain(spec, cfg).values.tobytes() == np.array(rows).tobytes()

    def test_chunk_streams_are_spawned_by_each_drawing_pass(self):
        # Chunk 0 draws from the chain's generator, chunks 1..3 from
        # rng.spawn(3), called at each pass that draws per observation.
        spec = desk_spec()
        g = rng(5)
        state = initialize_state(spec, g)
        spawned = g.bit_generator.seed_seq.n_children_spawned
        assert spawned == 3
        for op in gibbs._SWEEP:
            op(state, spec, g)
            spawned += 3 if op in (update_v, update_l) else 0
            assert g.bit_generator.seed_seq.n_children_spawned == spawned, op.__name__

    def test_update_v_ks_on_chunks(self, monkeypatch):
        # Residual 2 everywhere: v ~ GIG(1/2, rho1^2 = 2, rho2^2 = 1/2), in each chunk.
        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", 25_000)
        spec = one_conditional_spec(100_000, 2)
        n = spec.dataset.num_observations
        state = ChainState(np.zeros(1), np.zeros(100), np.full(n, 2.0), np.ones(n), np.ones(1), 1.0, 1.0,
                           np.array([-np.inf, 0.0, np.inf]))
        update_v(state, spec, rng(81))

        def lk(x):
            return -0.5 * np.log(x) - (2.0 / x + 0.5 * x) / 2.0

        for rows in parallel.observation_chunks(n):
            assert ks_vs_log_kernel(state.latent_v[rows], lk, 1e-6, 80.0) < 0.015
        assert ks_vs_log_kernel(state.latent_v, lk, 1e-6, 80.0) < 0.01

    def test_update_l_ks_on_chunks(self, monkeypatch):
        # Category 1 below a cut at 0, centre 0, variance 2 v = 1: negative half-normals.
        from scipy.special import ndtr

        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", 25_000)
        spec = one_conditional_spec(100_000, 1)
        n = spec.dataset.num_observations
        state = ChainState(np.zeros(1), np.zeros(100), np.full(n, -0.5), np.full(n, 0.5), np.ones(1), 1.0, 1.0,
                           np.array([-np.inf, 0.0, np.inf]))
        update_l(state, spec, rng(82))
        assert np.all(state.latent_l < 0.0)
        for rows in parallel.observation_chunks(n):
            assert ks_vs_cdf(state.latent_l[rows], lambda x: 2.0 * ndtr(x)) < 0.015
        assert ks_vs_cdf(state.latent_l, lambda x: 2.0 * ndtr(x)) < 0.01

    def test_update_beta_ks_on_chunks(self, thread_share):
        # beta_1 from its closed-form conditional, and beta_2 from its
        # conditional given each fresh beta_1, with sums over four chunks.
        from scipy.special import ndtr

        thread_share(1)
        spec = desk_spec()
        g = rng(83)
        state = initialize_state(spec, g, overdispersed=True)
        for _ in range(5):
            for op in gibbs._SWEEP:
                op(state, spec, g)
        ds, beta0 = spec.dataset, state.beta.copy()
        x, w = ds.x, 0.5 / state.latent_v
        base = state.latent_l - state.alpha[ds.subject_index] - spec.xi * state.latent_v

        def conditional(k, beta):
            r = base - np.delete(x, k, axis=1) @ np.delete(beta, k)
            precision = np.sum(w * x[:, k] ** 2) + 1.0 / state.s[k]
            return np.sum(w * r * x[:, k]) / precision, precision

        m = 10_000
        first, second = np.empty(m), np.empty(m)
        mean0, precision0 = conditional(0, beta0)
        for i in range(m):
            state.beta = beta0.copy()
            update_beta(state, spec, g)
            first[i] = (state.beta[0] - mean0) * np.sqrt(precision0)
            mean1, precision1 = conditional(1, np.array([state.beta[0], 0.0, beta0[2]]))
            second[i] = (state.beta[1] - mean1) * np.sqrt(precision1)
        assert ks_vs_cdf(first, ndtr) < 0.02
        assert ks_vs_cdf(second, ndtr) < 0.02

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failing_chunk_in_chunk_order_raises(self, thread_share, monkeypatch, threads):
        thread_share(threads)
        spec = desk_spec()
        g = substream(9, STREAM_CHAIN, 3)
        state = stack_states([initialize_state(spec, g)])  # the chain as the K = 1 batch it samples as
        starts = [rows.start for rows in parallel.observation_chunks(spec.dataset.num_observations)]
        later_failed = threading.Event()
        calls = []

        def draw(mean, sd, lower, upper, index, rng_, out, draw=model._trunc_normal_gathered):
            j = starts.index((out.ctypes.data - state.latent_l.ctypes.data) // out.itemsize)
            calls.append(j)
            if j == 2:
                later_failed.set()
                raise FloatingPointError("chunk 2 failed")
            if j == 1:
                later_failed.wait(0.5)  # with a second thread, chunk 2 fails first
                raise ValueError("chunk 1 failed")
            return draw(mean, sd, lower, upper, index, rng_, out)

        monkeypatch.setattr(model, "_trunc_normal_gathered", draw)
        config = SamplerConfig(iterations=5, burn_in=0)
        rows = np.empty((1, config.retained_per_chain, len(gibbs.parameter_names(spec))))
        with pytest.raises(ChainDivergedError, match=r"^chain 3: update_l failed at sweep 1: chunk 1 failed$"):
            gibbs._run_sweeps(state, stack_specs([spec]), [g], config, rows, 3)
        assert sorted(calls) == [0, 1, 2, 3]


class TestPosteriorDrawsIO:
    def test_csv_roundtrip(self, tmp_path):
        spec = small_sim_spec()
        draws = run_chain(spec, SamplerConfig(iterations=30, burn_in=10, seed=2, num_chains=2))
        path = tmp_path / "draws.csv"
        write_draws(draws, path, spec)
        again = read_draws([path])
        assert again.names == draws.names
        np.testing.assert_allclose(again.values, draws.values, rtol=0, atol=0)
        np.testing.assert_array_equal(again.chain, draws.chain)
        np.testing.assert_array_equal(again.iteration, draws.iteration)
        meta = (tmp_path / "draws.meta").read_text()
        assert "theta" in meta and "seed" in meta

    def test_multiple_files_stack_chains(self, tmp_path):
        spec = small_sim_spec()
        a = run_chain(spec, SamplerConfig(iterations=20, burn_in=10, seed=3))
        b = run_chain(spec, SamplerConfig(iterations=20, burn_in=10, seed=4))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        merged = read_draws([pa, pb])
        assert merged.num_chains == 2
        assert merged.values.shape[0] == 20

    def test_mismatched_columns_rejected(self, tmp_path):
        spec = small_sim_spec()
        a = run_chain(spec, SamplerConfig(iterations=20, burn_in=10, seed=3))
        b = run_chain(spec, SamplerConfig(iterations=20, burn_in=10, seed=4, retain_alpha=True))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        from ordquant.errors import SchemaError

        with pytest.raises(SchemaError):
            read_draws([pa, pb])

    def test_csv_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_CELLS", 1)  # one row per chunk
        values = np.array([[-0.0, 1e-300, 5e-324, 3.0],
                           [2.0, -1.5, 0.1, 1e22],
                           [np.pi, -7.0, 123456789.0, -2.5e-310]])
        draws = PosteriorDraws(["beta_1", "delta_1", "lambda_sq", "phi"], values,
                               np.array([0, 0, 0]), np.array([5, 7, 9]))
        path = tmp_path / "draws.csv"
        draws.to_csv(path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["chain", "iteration", *draws.names])
        for c, t, row in zip(draws.chain, draws.iteration, values):
            writer.writerow([int(c), int(t), *(f"{v:.17g}" for v in row)])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("line, edit, message", [
        (3, lambda f: f[:5] + ["abc"] + f[6:], "draws.csv:3: column delta_1: 'abc' is not a number"),
        (4, lambda f: f[:-1], "draws.csv:4: column phi: expected 11 fields, got 10"),
        (4, lambda f: f + ["1"], "draws.csv:4: column 12: expected 11 fields, got 12"),
        (5, lambda f: f[:6] + ["nan"] + f[7:], "draws.csv:5: column delta_2: nan is not finite"),
        (6, lambda f: f[:-1] + ["-inf"], "draws.csv:6: column phi: -inf is not finite"),
        (2, lambda f: ["0.5"] + f[1:], "draws.csv:2: column chain: '0.5' is not an integer"),
        (3, lambda f: ["-1"] + f[1:], "draws.csv:3: column chain: -1 is negative"),
        (7, lambda f: f[:1] + ["x"] + f[2:], "draws.csv:7: column iteration: 'x' is not an integer"),
        (6, lambda f: f[:1] + ["13"] + f[2:], "draws.csv:6: column iteration: chain 0 repeats iteration 13"),
        (1, lambda f: f[:3] + ["beta_1"] + f[4:], "draws.csv: the header names column 'beta_1' 2 times"),
        (1, lambda f: f[:2] + ["iteration"] + f[3:], "draws.csv: the header names column 'iteration' 2 times"),
        (1, lambda f: f[:2], "draws.csv: the header names no parameter column after chain,iteration"),
    ])
    def test_bad_cells_name_file_line_and_column(self, tmp_path, line, edit, message):
        spec = small_sim_spec()
        draws = run_chain(spec, SamplerConfig(iterations=20, burn_in=10, seed=3))
        assert draws.names[:5] == ["beta_1", "beta_2", "beta_3", "delta_1", "delta_2"]
        good = tmp_path / "good.csv"
        draws.to_csv(good)
        lines = good.read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        path = tmp_path / "draws.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            read_draws([good, path])
        assert str(info.value).endswith(message)

    # Edits of the second draws file (the first file is edited only where a
    # case says so); every file has a header and ten rows, and a one-cell
    # budget gives one-row chunks, so every case crosses a chunk boundary.
    PARITY_CASES = {
        "clean": ([], []),
        "earlier row wins": ([], [edit_cell(9, 4, "x"), edit_cell(4, 0, "-2")]),
        "parse before sign": ([], [edit_cell(5, 0, "-1"), edit_cell(5, 6, "nope")]),
        "cell before width": ([], [edit_cell(6, 1, "1.5"), edit_line(8, "0,1,2")]),
        "parse beats an earlier nan": ([edit_cell(3, 3, "nan")], [edit_cell(7, 5, "?")]),
        "nan in a later chunk": ([], [edit_cell(10, 2, "inf")]),
        "blank line": ([], [edit_line(4, "")]),
        "multi-line record, then a bad cell": ([], [edit_cell(3, 3, '"0.5\n"'), edit_cell(8, 2, "bad")]),
        "multi-line record, then a nan": ([], [edit_cell(3, 3, '"0.5\r\n"'), edit_cell(9, 4, "-inf")]),
        "padded cells": ([], [edit_cell(5, 0, " 0\t"), edit_cell(6, 3, "\u2003-1.25 ")]),
        "separator cell": ([], [edit_cell(4, 3, "\x1c0.5")]),
        "header repeats a column": ([], [edit_cell(1, 3, "beta_1")]),
        "no parameter column": ([], [edit_line(1, "chain,iteration")]),
        "repeated iteration": ([], [edit_cell(6, 1, "14")]),
        "first repeat in file order": ([], [edit_cell(7, 1, "12"), edit_cell(9, 1, "11")]),
        "nan before a repeat": ([], [edit_cell(3, 1, "11"), edit_cell(9, 4, "nan")]),
        "unequal chains": ([], [edit_cell(11, 0, "1")]),
        "repeat before unequal chains": ([], [edit_cell(4, 1, "12"), edit_cell(11, 0, "1")]),
        "first file's chain is short": ([edit_cell(11, 0, "1")], []),
    }

    @pytest.mark.parametrize("chunk", [1, data._CHUNK_CELLS])
    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_chunked_parse_matches_rowwise_reference(self, tmp_path, monkeypatch, chunk, case):
        monkeypatch.setattr(data, "_CHUNK_CELLS", chunk)
        spec = small_sim_spec()
        paths = []
        for k, edits in enumerate(self.PARITY_CASES[case]):
            path = tmp_path / f"draws{k}.csv"
            run_chain(spec, SamplerConfig(iterations=20, burn_in=10, seed=3 + k)).to_csv(path)
            lines = path.read_text().splitlines()
            for edit in edits:
                edit(lines)
            path.write_text("\n".join(lines) + "\n")
            paths.append(path)
        try:
            want = read_draws_rowwise(paths)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as info:
                read_draws(paths)
            assert str(info.value) == str(exc)
        else:
            got = read_draws(paths)
            assert got.names == want.names
            for name in ("values", "chain", "iteration"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert getattr(got, name).dtype == getattr(want, name).dtype

    @pytest.mark.parametrize("column, value, message", [
        (0, "99999999999999999999", "column chain: 99999999999999999999 does not fit in a 64-bit integer"),
        (1, "-99999999999999999999", "column iteration: -99999999999999999999 does not fit in a 64-bit integer"),
        (0, "-99999999999999999999", "column chain: -99999999999999999999 is negative"),
    ])
    def test_integer_beyond_64_bits_names_its_cell(self, tmp_path, column, value, message):
        path = tmp_path / "draws.csv"
        run_chain(small_sim_spec(), SamplerConfig(iterations=20, burn_in=10, seed=3)).to_csv(path)
        lines = path.read_text().splitlines()
        edit_cell(4, column, value)(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            read_draws([path])
        assert str(info.value) == f"{path}:4: {message}"

    @pytest.mark.parametrize("files, message", [
        ({"a": "0,1,0.1\n0,2,0.2\n0,3,0.3\n", "b": "0,1,0.1\n0,2,0.2\n"},
         "{b}: chain 0 has 2 draws, but chain 0 of {a} has 3; chains must have equal length"),
        ({"a": "0,1,0.1\n0,2,0.2\n", "b": "0,1,0.1\n0,2,0.2\n0,3,0.3\n"},
         "{a}: chain 0 has 2 draws, but chain 0 of {b} has 3; chains must have equal length"),
        ({"a": "0,1,0.1\n0,2,0.2\n2,1,0.3\n2,2,0.4\n"},
         "{a}: chain 1 has 0 draws, but chain 0 of {a} has 2; chains must have equal length"),
        ({"a": "0,1,0.1\n0,2,0.2\n", "b": "1,1,0.3\n1,2,0.4\n"},
         "{b}: chain 0 has 0 draws, but chain 0 of {a} has 2; chains must have equal length"),
        ({"a": "1,5,0.1\n0,1,0.2\n1,6,0.3\n0,1,0.4\n"}, "{a}:5: column iteration: chain 0 repeats iteration 1"),
        ({"a": "0,1,0.1\n0,2,0.2\n", "b": "3,7,0.1\n0,1,0.1\n3,7,0.2\n"},
         "{b}:4: column iteration: chain 3 repeats iteration 7"),
        ({"e": "", "a": "0,1,0.1\n0,2,0.2\n"}, "{e}: the draws file has a header and no rows"),
        ({"e": "", "a": "0,1,0.1\n0,x,0.2\n"}, "{a}:3: column iteration: 'x' is not an integer"),
    ], ids=["second-file-short", "first-file-short", "skipped-chain", "skipped-first-chain", "repeat",
            "repeat-in-second-file", "header-only-file", "bad-cell-after-header-only-file"])
    def test_chain_rows_name_file_and_chain(self, tmp_path, files, message):
        paths = {}
        for name, rows in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("chain,iteration,beta_1\n" + rows)
        for call in (read_draws, read_draws_rowwise):
            with pytest.raises(SchemaError) as info:
                call(list(paths.values()))
            assert str(info.value) == message.format(**paths)

    def test_unequal_chain_lengths_rejected(self):
        with pytest.raises(ValueError):
            PosteriorDraws(["p"], np.zeros((3, 1)), np.array([0, 0, 1]), np.array([1, 2, 1]))
