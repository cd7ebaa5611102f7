import numpy as np
import pytest
from scipy.special import expit

from ordquant import gibbs, parallel, simulate
from ordquant.diagnostics import relative_efficiency
from ordquant.errors import ChainDivergedError, ConfigError
from ordquant.gibbs import SamplerConfig
from ordquant.kvfile import read_kv
from ordquant.simulate import (
    TRUE_BETA,
    TRUE_CUTPOINTS,
    ScenarioConfig,
    generate,
    liability_to_category,
    posterior_mean_estimator,
    run_replication_study,
    write_scenario_dataset,
)
from ordquant.streams import substream

from .oracles import assert_same_dataset


class TestThresholding:
    def test_below_first_cut(self):
        assert liability_to_category(-1.0, TRUE_CUTPOINTS) == 1

    def test_between_middle_cuts(self):
        assert liability_to_category(0.0, TRUE_CUTPOINTS) == 3

    def test_boundaries_are_upper_inclusive(self):
        assert liability_to_category(-0.8416, TRUE_CUTPOINTS) == 1
        assert liability_to_category(0.8416, TRUE_CUTPOINTS) == 4
        assert liability_to_category(0.8417, TRUE_CUTPOINTS) == 5

    def test_exhaustive_and_exclusive(self):
        liab = np.linspace(-6, 6, 20001)
        y = liability_to_category(liab, TRUE_CUTPOINTS)
        assert set(np.unique(y)) <= {1, 2, 3, 4, 5}


class TestGenerateSim1:
    def test_shape_and_support(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=40, obs_per_subject=5)
        ds = generate(cfg, substream(1, 2, 0))
        assert ds.num_subjects == 40
        assert ds.num_observations == 200
        assert ds.num_categories == 5
        assert ds.num_covariates == 3
        assert np.all((ds.x >= -0.1) & (ds.x <= 0.1))

    def test_category_frequencies_match_logistic_cdf(self):
        # P(y <= c) averages the logistic CDF at delta_c - x'beta over the covariates
        cfg = ScenarioConfig(scenario="sim1", subjects=100000, obs_per_subject=10)
        ds = generate(cfg, substream(2, 2, 0))
        freqs = np.bincount(ds.y, minlength=6)[1:] / ds.num_observations
        cdf = expit(np.subtract.outer(TRUE_CUTPOINTS, ds.x @ np.asarray(TRUE_BETA))).mean(axis=1)
        expected = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
        np.testing.assert_allclose(freqs, expected, atol=0.005)

    def test_regeneration_identical(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=12, obs_per_subject=3)
        a = generate(cfg, substream(9, 2, 0))
        b = generate(cfg, substream(9, 2, 0))
        assert_same_dataset(a, b)


class TestGenerateSim2:
    def test_zero_effect_sd_matches_sim1(self):
        cfg1 = ScenarioConfig(scenario="sim1", subjects=15, obs_per_subject=4)
        cfg2 = ScenarioConfig(scenario="sim2", subjects=15, obs_per_subject=4, random_effect_sd=0.0)
        a = generate(cfg1, substream(4, 2, 0))
        b = generate(cfg2, substream(4, 2, 0))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)

    def test_effect_constant_within_subject(self):
        cfg = ScenarioConfig(scenario="sim2", subjects=30, obs_per_subject=6)
        ds = generate(cfg, substream(5, 2, 0))
        # replay the generator's stream consumption and rebuild the liability
        # with one shared effect per subject; categories must match exactly
        rng = substream(5, 2, 0)
        effect_rng = rng.spawn(1)[0]
        n = cfg.subjects * cfg.obs_per_subject
        x = rng.uniform(-0.1, 0.1, size=(n, 3))
        eps = rng.logistic(0.0, 1.0, size=n)
        alpha = cfg.effect_sd * effect_rng.standard_normal(cfg.subjects)
        subj = np.repeat(np.arange(cfg.subjects), cfg.obs_per_subject)
        liab = alpha[subj] + x @ np.asarray(TRUE_BETA) + eps
        np.testing.assert_array_equal(ds.y, liability_to_category(liab, TRUE_CUTPOINTS))

    def test_marginal_liability_variance(self):
        # var = random-effect variance + logistic variance = 1 + pi^2 / 3
        cfg = ScenarioConfig(scenario="sim2", subjects=100000, obs_per_subject=10)
        rng = substream(6, 2, 0)
        n = cfg.subjects * cfg.obs_per_subject
        effect_rng = rng.spawn(1)[0]
        rng.uniform(-0.1, 0.1, size=(n, 3))
        eps = rng.logistic(0.0, 1.0, size=n)
        alpha = cfg.effect_sd * effect_rng.standard_normal(cfg.subjects)
        liab = alpha[np.repeat(np.arange(cfg.subjects), cfg.obs_per_subject)] + eps
        assert liab.var() == pytest.approx(1.0 + np.pi ** 2 / 3.0, rel=0.02)

    def test_scenario_dispatch(self):
        cfg = ScenarioConfig(scenario="sim2", subjects=5, obs_per_subject=2)
        ds = generate(cfg, substream(7, 2, 0))
        assert ds.num_subjects == 5

    def test_normal_error_option(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=50000, obs_per_subject=4, error="normal")
        rng = substream(8, 2, 0)
        n = cfg.subjects * cfg.obs_per_subject
        rng.uniform(-0.1, 0.1, size=(n, 3))
        eps = rng.normal(0.0, 1.0, size=n)
        # standard-normal noise: P(y <= c) averages the normal CDF at delta_c - x'beta
        from scipy.special import ndtr

        ds = generate(cfg, substream(8, 2, 0))
        freqs = np.bincount(ds.y, minlength=6)[1:] / ds.num_observations
        cdf = ndtr(np.subtract.outer(TRUE_CUTPOINTS, ds.x @ np.asarray(TRUE_BETA))).mean(axis=1)
        expected = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
        np.testing.assert_allclose(freqs, expected, atol=0.01)
        assert eps.var() == pytest.approx(1.0, rel=0.02)


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.effect_sd == 0.0
        assert ScenarioConfig(scenario="sim2").effect_sd == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"scenario": "sim3"},
        {"subjects": 0},
        {"obs_per_subject": 0},
        {"replications": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)


class TestDatasetSidecar:
    def test_metadata_records_design(self, tmp_path):
        cfg = ScenarioConfig(scenario="sim2", subjects=6, obs_per_subject=2, seed=77)
        ds = generate(cfg, substream(77, 2, 0))
        write_scenario_dataset(ds, cfg, tmp_path / "d.csv")
        meta = read_kv(tmp_path / "d.meta")
        assert meta["scenario"] == "sim2"
        assert meta["random_effect_sd"] == "1"
        assert "uniform(-0.1, 0.1)" in meta["covariate_distributions"]
        assert "x3" in meta["covariate_distributions"]
        assert meta["error_distribution"] == "logistic(0, 1)"
        assert (tmp_path / "d.csv").exists()


def truth_estimator(dataset, theta, sampler):
    names = [f"beta_{k+1}" for k in range(3)] + [f"delta_{c}" for c in range(1, 5)]
    return dict(zip(names, list(TRUE_BETA) + list(TRUE_CUTPOINTS)))


def always_fails(dataset, theta, sampler):
    raise ChainDivergedError("synthetic")


TWO_LEVELS = ScenarioConfig(scenario="sim1", subjects=5, obs_per_subject=3, replications=3, seed=13)


def fails_replication_1_first(dataset, theta, sampler):
    """``posterior_mean_estimator``, but the fit of ``TWO_LEVELS``'s
    replication 1 at the first level diverges."""
    if sampler.seed == simulate._fit_config(TWO_LEVELS, sampler, 1, 0).seed:
        raise ChainDivergedError("synthetic")
    return posterior_mean_estimator(dataset, theta, sampler)


class TestReplicationStudy:
    def test_single_replication_bookkeeping(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=6, obs_per_subject=3, replications=1, seed=3)
        sampler = SamplerConfig(iterations=60, burn_in=10)
        run = run_replication_study(cfg, sampler, thetas=[0.5])
        report = run.reports[0.5]
        assert report.completed == 1
        assert set(report.bias) == set(run.parameters)
        assert run.estimates[0.5].shape == (1, 7)

    def test_truth_stub_gives_zero_bias_and_unit_efficiency(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=6, obs_per_subject=3, replications=2, seed=4)
        sampler = SamplerConfig(iterations=60, burn_in=10)
        run = run_replication_study(cfg, sampler, thetas=[0.25, 0.5], estimator=truth_estimator)
        for theta in (0.25, 0.5):
            assert all(b == 0.0 for b in run.reports[theta].bias.values())
        ref_eff = run.reports[0.25].efficiency["theta=0.25"]
        assert all(v == 1.0 for v in ref_eff.values())

    @pytest.mark.parametrize("replications", [1, 2])
    def test_study_fills_efficiency_with_two_completions(self, replications):
        cfg = ScenarioConfig(scenario="sim1", subjects=6, obs_per_subject=3, replications=replications, seed=4)
        run = run_replication_study(cfg, SamplerConfig(iterations=60, burn_in=10), thetas=[0.25, 0.5])
        if replications == 1:
            assert all(run.reports[theta].efficiency == {} for theta in run.thetas)
            return
        ref = run.estimates[0.25]
        for theta in run.thetas:
            mat = run.estimates[theta]
            assert run.reports[theta].efficiency == {f"theta={theta:g}": {
                name: relative_efficiency(mat[:, j], ref[:, j]) for j, name in enumerate(run.parameters)}}
        assert set(run.reports[0.25].efficiency["theta=0.25"].values()) == {1.0}
        assert 1.0 not in run.reports[0.5].efficiency["theta=0.5"].values()

    def test_aggregation_matches_brute_force(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=6, obs_per_subject=3, replications=3, seed=5)
        sampler = SamplerConfig(iterations=80, burn_in=20)
        run = run_replication_study(cfg, sampler, thetas=[0.5])
        mat = run.estimates[0.5]
        report = run.reports[0.5]
        truth = list(TRUE_BETA) + list(TRUE_CUTPOINTS)
        for j, name in enumerate(run.parameters):
            expected = np.mean((mat[:, j] - truth[j]) / abs(truth[j]))
            assert report.bias[name] == pytest.approx(expected, abs=1e-12)

    def test_attrition_recorded(self):
        calls = {"n": 0}

        def flaky(dataset, theta, sampler):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ChainDivergedError("synthetic failure")
            return truth_estimator(dataset, theta, sampler)

        cfg = ScenarioConfig(scenario="sim1", subjects=6, obs_per_subject=3, replications=3, seed=6)
        sampler = SamplerConfig(iterations=60, burn_in=10)
        run = run_replication_study(cfg, sampler, thetas=[0.5], estimator=flaky)
        report = run.reports[0.5]
        assert report.completed == 2
        assert report.attrition == 1
        assert any("replication 1" in f for f in report.failures)
        assert report.to_text().count("failed") >= 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_total_attrition_does_not_crash(self, jobs):
        cfg = ScenarioConfig(scenario="sim1", subjects=5, obs_per_subject=3, replications=2, seed=7)
        run = run_replication_study(cfg, SamplerConfig(iterations=60, burn_in=10),
                                    thetas=[0.5], estimator=always_fails, jobs=jobs)
        report = run.reports[0.5]
        assert report.completed == 0
        assert report.attrition == 2
        assert report.failures == ["replication 0: synthetic", "replication 1: synthetic"]
        assert all(np.isnan(v) for v in report.bias.values())

    def test_parallel_equals_sequential(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=5, obs_per_subject=3, replications=4, seed=8)
        sampler = SamplerConfig(iterations=60, burn_in=10)
        seq = run_replication_study(cfg, sampler, thetas=[0.5])
        par = run_replication_study(cfg, sampler, thetas=[0.5], jobs=2)
        np.testing.assert_array_equal(seq.estimates[0.5], par.estimates[0.5])

    @staticmethod
    def assert_same_run(got, want):
        for theta in want.thetas:
            assert got.reports[theta].failures == want.reports[theta].failures
            assert got.estimates[theta].tobytes() == want.estimates[theta].tobytes()
            assert got.reports[theta] == want.reports[theta]

    @pytest.mark.parametrize("chains", [1, 2])
    def test_batched_study_equals_per_replication_estimator(self, chains):
        cfg = ScenarioConfig(scenario="sim2", subjects=6, obs_per_subject=3, replications=5, seed=10)
        sampler = SamplerConfig(iterations=60, burn_in=10, thin=2, num_chains=chains)
        reference = run_replication_study(cfg, sampler, thetas=[0.25, 0.5], estimator=posterior_mean_estimator)
        for jobs in (1, 2, 3):
            self.assert_same_run(run_replication_study(cfg, sampler, thetas=[0.25, 0.5], jobs=jobs), reference)

    def test_long_chains_split_the_batches(self, monkeypatch):
        # A batch of replications counts its chains' retained draw cells as
        # well as their observations, so long chains run one at a time.
        cfg = ScenarioConfig(scenario="sim1", subjects=6, obs_per_subject=3, replications=5, seed=12)
        sampler = SamplerConfig(iterations=60, burn_in=10)
        reference = run_replication_study(cfg, sampler, thetas=[0.5], estimator=posterior_mean_estimator)
        row_cells = sampler.retained_per_chain * (len(TRUE_BETA) + len(TRUE_CUTPOINTS) + 2)
        assert row_cells > cfg.subjects * cfg.obs_per_subject
        sizes = []

        def sample_chains(batch, sample=gibbs._sample_chains):
            sizes.append(len(batch))
            return sample(batch)

        monkeypatch.setattr(gibbs, "_sample_chains", sample_chains)
        for cells, want in ((2 * row_cells, [2, 2, 1]), (row_cells, [1] * 5)):
            monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", cells)
            sizes.clear()
            self.assert_same_run(run_replication_study(cfg, sampler, thetas=[0.5]), reference)
            assert sizes == want

    def test_study_reads_its_tasks_a_batch_at_a_time(self, monkeypatch):
        # A replication's dataset is generated when its batch is formed, so
        # a worker holds the datasets of one batch at a time.
        cfg = ScenarioConfig(scenario="sim1", subjects=6, obs_per_subject=3, replications=5, seed=12)
        sampler = SamplerConfig(iterations=60, burn_in=10)
        calls = []

        def replication_dataset(config, rep, make=simulate._replication_dataset):
            calls.append("generate")
            return make(config, rep)

        def sample_chains(batch, sample=gibbs._sample_chains):
            calls.append(f"sample {len(batch)}")
            return sample(batch)

        monkeypatch.setattr(simulate, "_replication_dataset", replication_dataset)
        monkeypatch.setattr(gibbs, "_sample_chains", sample_chains)
        row_cells = sampler.retained_per_chain * (len(TRUE_BETA) + len(TRUE_CUTPOINTS) + 2)
        monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", 2 * row_cells)
        run_replication_study(cfg, sampler, thetas=[0.5], jobs=1)
        assert calls == ["generate", "generate", "sample 2", "generate", "generate", "sample 2",
                         "generate", "sample 1"]

    def test_diverging_replication_reads_as_alone(self, monkeypatch):
        cfg = ScenarioConfig(scenario="sim1", subjects=6, obs_per_subject=3, replications=4, seed=11)
        sampler = SamplerConfig(iterations=40, burn_in=10)
        clean = run_replication_study(cfg, sampler, thetas=[0.25, 0.5])
        target = generate(cfg, substream(cfg.seed, 1, 2, 0)).x  # replication 2's covariates
        sweeps = {}

        def update_beta(state, spec, rng):
            # Replication 2's chain turns non-finite at its fifth sweep at
            # the first level, whether it runs in a batch or alone.
            gibbs.update_beta(state, spec, rng)
            x = spec.dataset.x
            if x.ndim == 3:  # the stacked covariates of a batch of replications
                hits = [k for k in range(len(x)) if np.array_equal(x[k], target)]
                run, beta = "batch", state.beta[hits[0]] if hits else None
            else:
                run, beta = "alone", state.beta if np.array_equal(x, target) else None
            if beta is not None:
                sweeps[run] = sweeps.get(run, 0) + 1
                if sweeps[run] == 5:
                    beta[:] = np.nan

        monkeypatch.setattr(gibbs, "_SWEEP", tuple(update_beta if op is gibbs.update_beta else op
                                                   for op in gibbs._SWEEP))
        batched = run_replication_study(cfg, sampler, thetas=[0.25, 0.5])
        assert sweeps == {"batch": 5, "alone": 5}
        sweeps.clear()
        alone = run_replication_study(cfg, sampler, thetas=[0.25, 0.5], estimator=posterior_mean_estimator)
        self.assert_same_run(batched, alone)
        failures = batched.reports[0.25].failures
        assert batched.reports[0.5].failures == failures
        assert len(failures) == 1
        assert failures[0].startswith("replication 2: chain 0: update_")
        assert "at sweep 5 with non-finite beta" in failures[0]
        for theta in clean.thetas:
            assert batched.estimates[theta].tobytes() == clean.estimates[theta][[0, 1, 3]].tobytes()

    def test_estimator_failure_skips_later_levels(self):
        sampler = SamplerConfig(iterations=40, burn_in=10)
        thetas = [0.25, 0.5]
        fits = []

        def recording(dataset, theta, cfg):
            fits.append((cfg.seed, theta))
            return fails_replication_1_first(dataset, theta, cfg)

        run = run_replication_study(TWO_LEVELS, sampler, thetas, estimator=recording)
        expected = [(simulate._fit_config(TWO_LEVELS, sampler, rep, q).seed, theta)
                    for q, theta in enumerate(thetas) for rep in range(3) if (rep, q) != (1, 1)]
        assert sorted(fits) == sorted(expected)
        clean = run_replication_study(TWO_LEVELS, sampler, thetas)
        for theta in thetas:
            assert run.reports[theta].failures == ["replication 1: synthetic"]
            assert run.estimates[theta].tobytes() == clean.estimates[theta][[0, 2]].tobytes()
        pooled = run_replication_study(TWO_LEVELS, sampler, thetas, estimator=fails_replication_1_first, jobs=2)
        self.assert_same_run(pooled, run)

    def test_estimates_csv(self, tmp_path):
        cfg = ScenarioConfig(scenario="sim1", subjects=5, obs_per_subject=3, replications=2, seed=9)
        sampler = SamplerConfig(iterations=60, burn_in=10)
        run = run_replication_study(cfg, sampler, thetas=[0.5], estimator=truth_estimator)
        run.estimates_to_csv(tmp_path / "est.csv")
        lines = (tmp_path / "est.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 replications x 1 theta
        assert lines[0].startswith("replication,theta,beta_1")
