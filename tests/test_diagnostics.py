import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordquant.data import OrdinalDataset
from ordquant.diagnostics import (
    dic,
    mpsrf,
    relative_bias,
    relative_efficiency,
    summarize,
)
from ordquant.gibbs import PosteriorDraws, SamplerConfig, run_chain
from ordquant.model import ModelSpec, Priors
from ordquant.simulate import ScenarioConfig, generate
from ordquant.streams import substream

from .oracles import dic_per_draw, mpsrf_top_eigh, summary_row


def make_draws(values, names=None, chains=1):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    rows = values.shape[0]
    names = names or [f"p{j}" for j in range(values.shape[1])]
    per = rows // chains
    chain = np.repeat(np.arange(chains), per)
    iteration = np.tile(np.arange(1, per + 1), chains)
    return PosteriorDraws(names, values, chain, iteration)


class TestSummarize:
    def test_constant_column(self):
        t = summarize(make_draws(np.full(10, 3.25)))
        row = summary_row(t, "p0")
        assert row == {"mean": 3.25, "sd": 0.0, "lower": 3.25, "upper": 3.25}

    def test_interpolated_interval(self):
        # level 0.8 on {1..5}: type-7 empirical 10th and 90th percentiles
        t = summarize(make_draws([1.0, 2.0, 3.0, 4.0, 5.0]), level=0.8)
        row = summary_row(t, "p0")
        assert row["lower"] == pytest.approx(1.4)
        assert row["upper"] == pytest.approx(4.6)

    def test_pooling_identical_chains_is_idempotent(self):
        # duplicating the sample leaves the empirical distribution unchanged:
        # the mean is exactly invariant; interpolated type-7 quantiles and the
        # ddof=1 SD move only by their O(1/n) position corrections
        vals = np.linspace(-3.0, 4.0, 200)
        one = summarize(make_draws(vals))
        two = summarize(make_draws(np.concatenate([vals, vals]), chains=2))
        assert summary_row(one, "p0")["mean"] == summary_row(two, "p0")["mean"]
        for key in ("sd", "lower", "upper"):
            assert summary_row(one, "p0")[key] == pytest.approx(summary_row(two, "p0")[key], abs=7.0 / len(vals))

    @given(st.permutations(list(range(12))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, perm):
        base = np.linspace(-2, 5, 12)
        a = summarize(make_draws(base))
        b = summarize(make_draws(base[np.array(perm)]))
        for key in ("mean", "sd", "lower", "upper"):
            assert summary_row(a, "p0")[key] == pytest.approx(summary_row(b, "p0")[key], abs=1e-12)

    def test_level_domain(self):
        with pytest.raises(ValueError):
            summarize(make_draws([1.0, 2.0]), level=1.0)

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            summarize(make_draws([1.0]))

    def test_serialization(self, tmp_path):
        t = summarize(make_draws(np.arange(10.0)))
        t.to_csv(tmp_path / "s.csv")
        text = t.to_text()
        assert "parameter" in (tmp_path / "s.csv").read_text()
        assert "p0" in text


def scalar_psrf(chains: np.ndarray) -> float:
    """Direct scalar shrink-factor: (n-1)/n + ((m+1)/m) (B/n)/W."""
    m, n = chains.shape
    means = chains.mean(axis=1)
    w = chains.var(axis=1, ddof=1).mean()
    b_over_n = means.var(ddof=1)
    return (n - 1) / n + (m + 1) / m * b_over_n / w


class TestMpsrf:
    def test_identical_chains_hit_floor(self):
        vals = np.sin(np.arange(40.0))
        draws = make_draws(np.concatenate([vals, vals]), names=["beta_1"], chains=2)
        series = mpsrf(draws, checkpoints=[10, 20, 40])
        for t, v in zip(series.iterations, series.values):
            assert v == pytest.approx((t - 1) / t, abs=1e-12)

    def test_univariate_matches_scalar_psrf(self):
        g = np.random.default_rng(3)
        m, n = 3, 400
        chains = g.normal(size=(m, n)) + g.normal(scale=0.2, size=(m, 1))
        draws = make_draws(chains.reshape(-1), names=["beta_1"], chains=m)
        series = mpsrf(draws, checkpoints=[n])
        assert series.values[-1] == pytest.approx(scalar_psrf(chains), abs=1e-10)

    def test_converges_for_iid_chains(self):
        g = np.random.default_rng(4)
        m, n, k = 2, 10000, 3
        chains = g.normal(size=(m, n, k))
        draws = make_draws(chains.reshape(-1, k), names=["beta_1", "beta_2", "beta_3"], chains=m)
        series = mpsrf(draws, checkpoints=[n])
        assert abs(series.values[-1] - 1.0) < 0.05

    def test_needs_two_chains(self):
        with pytest.raises(ValueError):
            mpsrf(make_draws(np.arange(10.0), names=["beta_1"]), checkpoints=[10])

    def test_needs_two_draws_per_chain(self):
        with pytest.raises(ValueError, match="at least two chains of at least two draws"):
            mpsrf(make_draws(np.arange(2.0), names=["beta_1"], chains=2), checkpoints=20)

    @pytest.mark.parametrize("iterations, message", [
        ([1, 2, 5, 6], "draw 1 of chain 1 is at iteration 5, and chain 0's at 1"),
        ([1, 2, 3, 1, 3, 4], "draw 2 of chain 1 is at iteration 3, and chain 0's at 2"),
    ], ids=["disjoint", "overlapping"])
    def test_chains_must_share_their_iterations(self, iterations, message):
        per = len(iterations) // 2
        draws = PosteriorDraws(["beta_1"], np.arange(2.0 * per)[:, None] ** 2, np.repeat([0, 1], per), iterations)
        with pytest.raises(ValueError) as info:
            mpsrf(draws, checkpoints=[10])
        assert str(info.value) == ("the multivariate shrink factor needs chains that share their iteration "
                                   f"numbers, but {message}")

    def test_shared_iterations_in_any_row_order(self):
        draws = PosteriorDraws(["beta_1"], np.array([[0.0], [1.0], [3.0], [2.0]]), [0, 1, 0, 1], [2, 1, 1, 2])
        assert mpsrf(draws, checkpoints=[2]).iterations == [2]

    @pytest.mark.parametrize("count", [1, 2, 3, 20, 400])
    def test_checkpoint_count_grid(self, count):
        # Two or more checkpoints keep their grid from the second retained
        # draw to the last; one checkpoint is the last draw, not the second.
        n = 300
        draws = make_draws(np.random.default_rng(9).normal(size=2 * n), names=["beta_1"], chains=2)
        series = mpsrf(draws, checkpoints=count)
        grid = np.unique(np.linspace(1, n - 1, count).astype(int)) if count > 1 else [n - 1]
        assert series.iterations == [int(i) + 1 for i in grid]  # draw i has iteration i + 1

    def test_singular_within_is_ridged_and_flagged(self):
        # second parameter constant within each chain but different across
        m, n = 2, 50
        base = np.random.default_rng(5).normal(size=(m, n))
        const = np.stack([np.zeros(n), np.ones(n)])
        mat = np.stack([base, const], axis=2)
        draws = make_draws(mat.reshape(-1, 2), names=["beta_1", "beta_2"], chains=m)
        series = mpsrf(draws, checkpoints=[n])
        assert series.ridged == [True]
        assert series.values[0] > 1.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_matches_eigh_reference(self, m, k):
        g = np.random.default_rng(10 * m + k)
        for n in (20, 60, 400):
            # Correlated parameters on scales 0.1 to 10, chains offset from each
            # other.  The mix's condition number is 100, so both reductions are
            # accurate to rounding; an ill-conditioned W makes both err alike.
            q, _ = np.linalg.qr(g.normal(size=(k, k)))
            mix = np.logspace(-1, 1, k)[:, None] * q
            mat = g.normal(size=(m, n, k)) @ mix + g.normal(scale=0.3, size=(m, 1, k))
            names = [f"beta_{j + 1}" for j in range(k)]
            series = mpsrf(make_draws(mat.reshape(-1, k), names=names, chains=m), checkpoints=[n // 2, n])
            for t, value, ridged in zip(series.iterations, series.values, series.ridged):
                expected, expected_ridged = mpsrf_top_eigh(mat[:, :t, :])
                assert value == pytest.approx(expected, rel=1e-12, abs=0)
                assert ridged == expected_ridged is False

    def test_singular_within_matches_eigh_reference(self):
        m, n = 2, 50
        base = np.random.default_rng(5).normal(size=(m, n))
        const = np.stack([np.zeros(n), np.ones(n)])
        mat = np.stack([base, const], axis=2)
        draws = make_draws(mat.reshape(-1, 2), names=["beta_1", "beta_2"], chains=m)
        series = mpsrf(draws, checkpoints=[10, 30, n])
        for t, value, ridged in zip(series.iterations, series.values, series.ridged):
            expected, expected_ridged = mpsrf_top_eigh(mat[:, :t, :])
            assert ridged is expected_ridged is True
            assert value == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_draws_raise_value_error(self, bad):
        g = np.random.default_rng(8)
        values = g.normal(size=(200, 2))
        values[150, 1] = bad
        draws = make_draws(values, names=["beta_1", "beta_2"], chains=2)
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            mpsrf(draws, checkpoints=[100])

    def test_default_parameters_exclude_scales(self):
        g = np.random.default_rng(6)
        names = ["beta_1", "delta_1", "lambda_sq", "phi"]
        draws = make_draws(g.normal(size=(200, 4)), names=names, chains=2)
        series = mpsrf(draws, checkpoints=[100])
        assert series.parameters == ["beta_1", "delta_1"]

    def test_plot_file_two_columns(self, tmp_path):
        g = np.random.default_rng(7)
        draws = make_draws(g.normal(size=(400, 1)), names=["beta_1"], chains=2)
        series = mpsrf(draws, checkpoints=[100, 200])
        series.to_plot_file(tmp_path / "m.dat")
        lines = (tmp_path / "m.dat").read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(len(line.split()) == 2 for line in lines)
        series.to_csv(tmp_path / "m.csv")
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header == "iteration,mpsrf,ridged"
        text = series.to_text()
        assert "mpsrf" in text and "beta_1" in text


def binary_dataset(x, y, subjects=None):
    n = len(y)
    subjects = subjects if subjects is not None else np.zeros(n, dtype=int)
    ids = [f"s{i}" for i in range(int(subjects.max()) + 1)]
    return OrdinalDataset(ids, subjects, np.asarray(y), np.asarray(x, dtype=float).reshape(n, -1),
                          np.arange(n), 2)


def sld_cdf_ref(e, theta):
    if e <= 0:
        return theta * math.exp((1 - theta) * e)
    return 1 - (1 - theta) * math.exp(-theta * e)


class TestDic:
    def draws_for(self, ds, beta_rows, delta_rows, alpha_rows):
        p = ds.num_covariates
        names = [f"beta_{k+1}" for k in range(p)]
        names += [f"delta_{c}" for c in range(1, ds.num_categories)]
        names += [f"alpha_{i+1}" for i in range(ds.num_subjects)]
        vals = np.hstack([np.atleast_2d(beta_rows), np.atleast_2d(delta_rows), np.atleast_2d(alpha_rows)])
        return make_draws(vals, names=names)

    def test_single_draw_collapses(self):
        ds = binary_dataset([[0.0]], [1])
        spec = ModelSpec(theta=0.5, dataset=ds)
        draws = self.draws_for(ds, [[0.0]], [[0.0]], [[0.0]])
        result = dic(draws, spec)
        assert result.p_d == pytest.approx(0.0, abs=1e-12)
        assert result.dic == pytest.approx(result.dbar)
        # single cell probability F(0) = theta = 0.5
        assert result.dbar == pytest.approx(-2.0 * math.log(0.5))

    def test_half_probability_closed_form(self):
        ds = binary_dataset([[1.0]], [2])
        spec = ModelSpec(theta=0.5, dataset=ds)
        # cut at 0, shift 0: P(y=2) = 1 - F(0) = 0.5 for every draw
        draws = self.draws_for(ds, [[0.0]] * 3, [[0.0]] * 3, [[0.0]] * 3)
        result = dic(draws, spec)
        assert result.dbar == pytest.approx(-2.0 * math.log(0.5), abs=1e-12)
        assert result.p_d == pytest.approx(0.0, abs=1e-12)

    def test_matches_hand_rolled_recomputation(self):
        theta = 0.35
        x = np.array([[0.4], [-0.8], [1.1], [0.2]])
        y = [2, 1, 2, 1]
        subj = np.array([0, 0, 1, 1])
        ds = binary_dataset(x, y, subj)
        spec = ModelSpec(theta=theta, dataset=ds)
        g = np.random.default_rng(9)
        betas = g.normal(size=(5, 1))
        deltas = g.normal(size=(5, 1)) * 0.3
        alphas = g.normal(size=(5, 2)) * 0.5
        draws = self.draws_for(ds, betas, deltas, alphas)
        result = dic(draws, spec)

        def deviance(beta, delta, alpha):
            total = 0.0
            for i in range(4):
                shift = alpha[subj[i]] + x[i, 0] * beta[0]
                if y[i] == 1:
                    p = sld_cdf_ref(delta[0] - shift, theta)
                else:
                    p = 1.0 - sld_cdf_ref(delta[0] - shift, theta)
                total += math.log(p)
            return -2.0 * total

        devs = [deviance(betas[r], deltas[r], alphas[r]) for r in range(5)]
        dbar = sum(devs) / 5
        dhat = deviance(betas.mean(axis=0), deltas.mean(axis=0), alphas.mean(axis=0))
        assert result.dbar == pytest.approx(dbar, abs=1e-10)
        assert result.p_d == pytest.approx(dbar - dhat, abs=1e-10)
        assert result.dic == pytest.approx(2 * dbar - dhat, abs=1e-10)

    def test_ignores_unused_columns(self):
        ds = binary_dataset([[1.0], [0.5]], [2, 1])
        spec = ModelSpec(theta=0.5, dataset=ds)
        draws = self.draws_for(ds, [[0.1]] * 4, [[0.0]] * 4, [[0.2]] * 4)
        base = dic(draws, spec)
        extended = PosteriorDraws(
            draws.names + ["junk"],
            np.hstack([draws.values, np.full((4, 1), 123.0)]),
            draws.chain, draws.iteration,
        )
        assert dic(extended, spec).dic == base.dic

    def test_requires_alpha(self):
        ds = binary_dataset([[1.0]], [2])
        spec = ModelSpec(theta=0.5, dataset=ds)
        names = ["beta_1", "delta_1"]
        draws = make_draws(np.zeros((3, 2)), names=names)
        with pytest.raises(ValueError, match="alpha"):
            dic(draws, spec)

    def test_underflow_floored_and_flagged(self):
        ds = binary_dataset([[1.0]], [1])
        spec = ModelSpec(theta=0.5, dataset=ds)
        # y = 1 but enormous positive shift: cell probability underflows
        draws = self.draws_for(ds, [[2000.0]] * 2, [[0.0]] * 2, [[0.0]] * 2)
        result = dic(draws, spec)
        assert result.floored_cells > 0
        assert np.isfinite(result.dic)

    def test_matches_per_draw_reference_exactly(self):
        # More draws than one block, more observations than one row of cells
        # per draw, and one draw whose cells underflow the floor.
        cfg = ScenarioConfig(scenario="sim2", subjects=30, obs_per_subject=7)
        ds = generate(cfg, substream(4, 2, 0))
        spec = ModelSpec(theta=0.3, dataset=ds, priors=Priors(delta_min=-3, delta_max=3))
        draws = run_chain(spec, SamplerConfig(iterations=200, burn_in=50, seed=8, num_chains=2, retain_alpha=True))
        draws.values[17, 0] = 1e6
        result = dic(draws, spec)
        assert result.floored_cells > 0
        assert (result.dic, result.dbar, result.d_at_mean, result.p_d, result.floored_cells) == dic_per_draw(draws, spec)


class TestRelativeBias:
    def test_exact_recovery(self):
        assert relative_bias([5.0, 5.0, 5.0], 5.0) == 0.0

    def test_symmetric_errors_cancel(self):
        assert relative_bias([0.9, 1.1], 1.0) == pytest.approx(0.0)
        assert relative_bias([-4.0, -6.0], -5.0) == pytest.approx(0.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_bias([1.0], 0.0)

    def test_single_replication(self):
        assert relative_bias([6.0], 5.0) == pytest.approx(0.2)

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=12),
        st.floats(-50, 50).filter(lambda v: abs(v) > 1e-3),
        st.floats(-10, 10), st.floats(0.1, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_in_estimates(self, ests, truth, shift, scale):
        ests = np.asarray(ests)
        a = relative_bias(ests, truth)
        b = relative_bias(ests + shift, truth)
        assert b == pytest.approx(a + shift / abs(truth), rel=1e-9, abs=1e-9)
        c = relative_bias(truth + scale * (ests - truth), truth)
        assert c == pytest.approx(scale * a, rel=1e-9, abs=1e-9)


class TestRelativeEfficiency:
    def test_self_comparison_is_exactly_one(self):
        vals = [1.0, 2.0, 4.0]
        assert relative_efficiency(vals, vals) == 1.0

    def test_double_deviations_quadruple(self):
        ref = np.array([1.0, 3.0, 5.0])
        model = ref.mean() + 2.0 * (ref - ref.mean())
        assert relative_efficiency(model, ref) == pytest.approx(4.0)

    def test_matches_two_pass_oracle(self):
        g = np.random.default_rng(11)
        model = g.normal(size=30)
        ref = g.normal(size=30)

        def s2(v):
            mean = sum(v) / len(v)
            return sum((u - mean) ** 2 for u in v) / len(v)

        assert relative_efficiency(model, ref) == pytest.approx(s2(model) / s2(ref), abs=1e-12)

    def test_zero_reference_dispersion_rejected(self):
        with pytest.raises(ValueError):
            relative_efficiency([1.0, 2.0], [3.0, 3.0])

    def test_shift_leaves_dispersion_unchanged(self):
        g = np.random.default_rng(12)
        model = g.normal(size=20)
        ref = g.normal(size=20)
        base = relative_efficiency(model, ref)
        assert relative_efficiency(model + 7.5, ref) == pytest.approx(base, rel=1e-12)

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            relative_efficiency([1.0], [1.0, 2.0])
