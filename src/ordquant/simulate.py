"""Simulated-data generators and the replication study harness.

Two scenarios share one design: covariates uniform on [-0.1, 0.1],
coefficients (-5, -10, 15), unit-scale logistic liability errors (normal
optionally), a per-subject normal location shift, and five response
categories cut at (-0.8416, -0.2533, 0.2533, 0.8416).  The scenarios differ
only in the shift's default SD: 0 for the first (fixed effects), 1 for the
second.  The shift is drawn from a spawned child stream, so a dataset
depends on its SD and not on its scenario name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import OrdinalDataset, _write_table, write_csv
from .diagnostics import ReplicationReport, relative_bias, relative_efficiency
from .errors import ChainDivergedError, ConfigError
from .gibbs import (PosteriorDraws, SamplerConfig, chains_per_batch, collect_draws, parameter_names, run_chain,
                    sample_tasks, split_groups)
from .kvfile import write_kv
from .model import ModelSpec, Priors
from .parallel import ordered_map
from .streams import STREAM_REPLICATION, child_seed, substream

__all__ = [
    "TRUE_BETA",
    "TRUE_CUTPOINTS",
    "ScenarioConfig",
    "ReplicationRun",
    "liability_to_category",
    "generate",
    "run_replication_study",
    "write_scenario_dataset",
]

TRUE_BETA = (-5.0, -10.0, 15.0)
TRUE_CUTPOINTS = (-0.8416, -0.2533, 0.2533, 0.8416)

# Fit-time cut-point support for simulated designs; comfortably contains
# the true cut-points while keeping the order-statistics prior proper.
SIM_DELTA_MIN = -3.0
SIM_DELTA_MAX = 3.0


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "sim1"
    subjects: int = 40
    obs_per_subject: int = 5
    random_effect_sd: float | None = None  # None: 0 for sim1, 1 for sim2
    error: str = "logistic"  # liability noise: logistic(0,1) or normal(0,1)
    replications: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in ("sim1", "sim2"):
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected sim1 or sim2")
        if self.error not in ("logistic", "normal"):
            raise ConfigError(f"unknown error distribution {self.error!r}; expected logistic or normal")
        if self.subjects < 1 or self.obs_per_subject < 1:
            raise ConfigError("subjects and observations per subject must be positive")
        if self.replications < 1:
            raise ConfigError("at least one replication is required")

    @property
    def effect_sd(self) -> float:
        if self.random_effect_sd is not None:
            return self.random_effect_sd
        return 1.0 if self.scenario == "sim2" else 0.0


def liability_to_category(liability, cutpoints) -> np.ndarray:
    """Category labels 1..C for liabilities under half-open (lo, hi] bins."""
    cuts = np.asarray(cutpoints, dtype=float)
    return np.searchsorted(cuts, np.asarray(liability, dtype=float), side="left") + 1


def _build_dataset(config: ScenarioConfig, x, liability) -> OrdinalDataset:
    N, n_i = config.subjects, config.obs_per_subject
    width = len(str(N))
    subject_ids = [f"s{i + 1:0{width}d}" for i in range(N)]
    subject_index = np.repeat(np.arange(N, dtype=np.intp), n_i)
    y = liability_to_category(liability, TRUE_CUTPOINTS)
    time_index = np.tile(np.arange(n_i, dtype=np.intp), N)
    return OrdinalDataset(
        subject_ids, subject_index, y, x, time_index,
        num_categories=len(TRUE_CUTPOINTS) + 1,
        covariate_names=[f"x{j + 1}" for j in range(len(TRUE_BETA))],
    )


def generate(config: ScenarioConfig, rng) -> OrdinalDataset:
    """Liability = x'beta + alpha_i + noise, with alpha_i ~ N(0, effect_sd^2).

    The effects come from a child stream spawned before any draw, so the
    covariate and noise draws occupy the same positions at every SD, and
    SD 0 gives the fixed-effects design.
    """
    n = config.subjects * config.obs_per_subject
    effect_rng = rng.spawn(1)[0]
    x = rng.uniform(-0.1, 0.1, size=(n, len(TRUE_BETA)))
    noise = rng.normal if config.error == "normal" else rng.logistic
    eps = noise(0.0, 1.0, size=n)
    alpha = config.effect_sd * effect_rng.standard_normal(config.subjects)
    liability = alpha.repeat(config.obs_per_subject) + x @ np.asarray(TRUE_BETA) + eps
    return _build_dataset(config, x, liability)


def write_scenario_dataset(dataset: OrdinalDataset, config: ScenarioConfig, path) -> None:
    """Dataset CSV plus a ``.meta`` sidecar recording the generating design."""
    write_csv(dataset, path)
    write_kv(
        Path(path).with_suffix(".meta"),
        {
            "scenario": config.scenario,
            "subjects": config.subjects,
            "obs_per_subject": config.obs_per_subject,
            "seed": config.seed,
            "true_beta": ", ".join(f"{b:.17g}" for b in TRUE_BETA),
            "true_cutpoints": ", ".join(f"{d:.17g}" for d in TRUE_CUTPOINTS),
            "covariate_distributions": ", ".join(f"x{j + 1}: uniform(-0.1, 0.1)" for j in range(len(TRUE_BETA))),
            "error_distribution": f"{config.error}(0, 1)",
            "random_effect_sd": f"{config.effect_sd:.17g}",
        },
    )


# ---------------------------------------------------------------------------
# Replication study
# ---------------------------------------------------------------------------

def sim_priors() -> Priors:
    return Priors(delta_min=SIM_DELTA_MIN, delta_max=SIM_DELTA_MAX)


def posterior_mean_estimator(dataset: OrdinalDataset, theta: float, sampler: SamplerConfig) -> dict[str, float]:
    """Default per-replication estimator: posterior means from one fit."""
    spec = _sim_spec(theta, dataset)
    return _posterior_means(spec, run_chain(spec, sampler))


def _sim_spec(theta: float, dataset: OrdinalDataset) -> ModelSpec:
    return ModelSpec(theta=theta, dataset=dataset, priors=sim_priors())


def _posterior_means(spec: ModelSpec, draws: PosteriorDraws) -> dict[str, float]:
    return {name: float(draws.column(name).mean()) for name in parameter_names(spec)}


@dataclass
class ReplicationRun:
    thetas: list[float]
    parameters: list[str]
    estimates: dict[float, np.ndarray]          # theta -> (completed, k)
    reports: dict[float, ReplicationReport]
    failures: list[str]

    def estimates_to_csv(self, path) -> None:
        mats = [self.estimates[theta] for theta in self.thetas]
        _write_table(path, ["replication", "theta", *self.parameters], "%d" + ",%.17g" * (1 + len(self.parameters)),
                     [np.concatenate([np.arange(len(mat)) for mat in mats]),
                      np.repeat(self.thetas, [len(mat) for mat in mats]), *np.concatenate(mats).T])


def _replication_dataset(config: ScenarioConfig, rep: int) -> OrdinalDataset:
    return generate(config, substream(config.seed, STREAM_REPLICATION, rep, 0))


def _fit_config(config: ScenarioConfig, sampler: SamplerConfig, rep: int, q: int) -> SamplerConfig:
    """Replication ``rep``'s sampler at the ``q``-th quantile level."""
    return replace(sampler, seed=child_seed(config.seed, STREAM_REPLICATION, rep, 1 + q))


def _replication_worker(args):
    """One replication's estimates at every level, from ``estimator``, or the
    error that ended its first failed fit."""
    config, sampler, thetas, rep, estimator = args
    dataset = _replication_dataset(config, rep)
    try:
        return {theta: estimator(dataset, theta, _fit_config(config, sampler, rep, q))
                for q, theta in enumerate(thetas)}
    except (ChainDivergedError, FloatingPointError) as exc:
        return exc


def _replication_group(args) -> list:
    """Posterior means of the replications ``reps``, or the error that ended
    each one's first failed fit.

    The replications are taken a batch at a time, as many as keep their
    chains within ``gibbs.chains_per_batch``, and at each level the chains
    of every replication of the batch still alive are sampled as one batch;
    each chain draws from its own stream, so the estimates equal
    ``posterior_mean_estimator``'s."""
    config, sampler, thetas, reps = args
    chains = sampler.num_chains
    datasets = {reps[0]: _replication_dataset(config, reps[0])}
    # Every replication's dataset has the first one's design.
    size = max(1, chains_per_batch(_sim_spec(thetas[0], datasets[reps[0]]), sampler) // chains)
    outcomes = {}
    for start in range(0, len(reps), size):
        datasets = {rep: datasets[rep] if rep in datasets else _replication_dataset(config, rep)
                    for rep in reps[start:start + size]}
        estimates = {rep: {} for rep in datasets}
        for q, theta in enumerate(thetas):
            fits = [(rep, _sim_spec(theta, datasets[rep]), _fit_config(config, sampler, rep, q))
                    for rep in datasets if rep not in outcomes]
            blocks = iter(sample_tasks([(spec, cfg, c) for _, spec, cfg in fits for c in range(chains)]))
            for rep, spec, cfg in fits:
                rows = [next(blocks) for _ in range(chains)]
                failure = next((b for b in rows if isinstance(b, Exception)), None)
                if failure is not None:
                    outcomes[rep] = failure
                else:
                    estimates[rep][theta] = _posterior_means(spec, collect_draws(spec, cfg, rows))
        for rep, found in estimates.items():
            outcomes.setdefault(rep, found)
    return [outcomes[rep] for rep in reps]


def run_replication_study(
    config: ScenarioConfig,
    sampler: SamplerConfig,
    thetas=(0.5,),
    estimator=None,
    jobs: int = 1,
) -> ReplicationRun:
    """Generate M datasets, fit each at every quantile level, and aggregate.

    Bias is against ``TRUE_BETA`` and ``TRUE_CUTPOINTS``.  A replication
    whose fit diverges is recorded and skipped; the report states the
    attrition.  With two or more completed replications, each level's
    report gets the efficiency block ``theta=<level>`` against the first
    level (exactly 1 there).  Without an ``estimator``, the replications
    are split into up to ``jobs`` contiguous groups, and a group's fits are
    sampled as batches of chains (``_replication_group``); with one, each
    replication is a task that calls it at every level and returns its
    failure as data (``_replication_worker``).  With ``jobs > 1`` the tasks
    run in up to ``jobs`` worker processes.
    Aggregation is in replication-index order either way, so the output is
    identical for any ``jobs``, and the default equals
    ``estimator=posterior_mean_estimator``.
    """
    thetas = [float(t) for t in thetas]
    names = [f"beta_{k + 1}" for k in range(len(TRUE_BETA))]
    names += [f"delta_{c}" for c in range(1, len(TRUE_CUTPOINTS) + 1)]
    truth = dict(zip(names, TRUE_BETA + TRUE_CUTPOINTS))

    if estimator is None:
        groups = [(config, sampler, thetas, reps) for reps in split_groups(range(config.replications), jobs)]
        outcomes = (outcome for group in ordered_map(_replication_group, groups, jobs) for outcome in group)
    else:
        tasks = [(config, sampler, thetas, rep, estimator) for rep in range(config.replications)]
        outcomes = ordered_map(_replication_worker, tasks, jobs)
    results: dict[int, dict] = {}
    failures: list[str] = []
    for rep, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            failures.append(f"replication {rep}: {outcome}")
        else:
            results[rep] = outcome

    estimates = {}
    reports = {}
    completed = sorted(results)
    for theta in thetas:
        mat = np.array([[results[rep][theta][name] for name in names] for rep in completed])
        mat = mat.reshape(len(completed), len(names))
        estimates[theta] = mat
        bias = {name: relative_bias(mat[:, j], truth[name]) if completed else float("nan")
                for j, name in enumerate(names)}
        reports[theta] = ReplicationReport(
            theta=theta,
            replications=config.replications,
            completed=len(completed),
            truth=truth,
            bias=bias,
            failures=list(failures),
        )
    if len(completed) >= 2:
        ref = estimates[thetas[0]]
        for theta in thetas:
            reports[theta].efficiency[f"theta={theta:g}"] = {
                name: relative_efficiency(estimates[theta][:, j], ref[:, j]) for j, name in enumerate(names)
            }
    return ReplicationRun(thetas, names, estimates, reports, failures)

