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
from .gibbs import SamplerConfig, batched, run_chain, sample_batch, split_groups
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

# The study's priors: a cut-point support that comfortably contains the
# true cut-points while keeping the order-statistics prior proper.
_SIM_PRIORS = Priors(delta_min=-3.0, delta_max=3.0)

# The replication study's parameters: the first columns of ``gibbs.parameter_names``.
_STUDY_NAMES = ([f"beta_{k + 1}" for k in range(len(TRUE_BETA))]
                + [f"delta_{c}" for c in range(1, len(TRUE_CUTPOINTS) + 1)])


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

def posterior_mean_estimator(dataset: OrdinalDataset, theta: float, sampler: SamplerConfig) -> dict[str, float]:
    """Posterior means from one ``run_chain`` fit: an ``estimator`` for
    ``run_replication_study``, and the reference its batched default equals."""
    return _posterior_means(run_chain(_sim_spec(theta, dataset), sampler).values)


def _sim_spec(theta: float, dataset: OrdinalDataset) -> ModelSpec:
    return ModelSpec(theta=theta, dataset=dataset, priors=_SIM_PRIORS)


def _posterior_means(values: np.ndarray) -> dict[str, float]:
    """The study's estimates from a chain-major draws matrix: the mean of
    each of its first columns, beta and delta."""
    return {name: float(values[:, j].mean()) for j, name in enumerate(_STUDY_NAMES)}


@dataclass
class ReplicationRun:
    thetas: list[float]
    parameters: list[str]
    estimates: dict[float, np.ndarray]          # theta -> (completed, k)
    reports: dict[float, ReplicationReport]

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


def _replication_group(args) -> list:
    """The estimates of the replications ``reps`` at every level, or the
    error that ended each one's first failed fit.

    The levels run one at a time, and at each the replications still alive
    run in order, so a failed replication is not fit at later levels.  With
    an ``estimator``, a replication's estimates are its result, and a
    ``ChainDivergedError`` or ``FloatingPointError`` it raises is the
    replication's outcome.  Without one, the chains are read through
    ``gibbs.batched`` and sampled by ``gibbs.sample_batch``, and a
    replication's dataset is generated when the batch of its first chain is
    formed, so a worker holds one batch's datasets and rows at a time.  Each
    chain draws from its own stream, so the estimates equal
    ``posterior_mean_estimator``'s."""
    config, sampler, thetas, reps, estimator = args
    chains = sampler.num_chains
    outcomes = {rep: {} for rep in reps}
    for q, theta in enumerate(thetas):
        alive = [rep for rep in reps if isinstance(outcomes[rep], dict)]
        fits = ((_replication_dataset(config, rep), _fit_config(config, sampler, rep, q)) for rep in alive)
        tasks = ((_sim_spec(theta, dataset), cfg, chain) for dataset, cfg in fits for chain in range(chains))
        blocks = (block for batch in batched(tasks) for block in sample_batch(batch))
        for rep in alive:
            if estimator is None:
                rows = [next(blocks) for _ in range(chains)]
                failure = next((b for b in rows if isinstance(b, Exception)), None)
                outcome = _posterior_means(np.concatenate(rows)) if failure is None else failure
            else:
                dataset, cfg = next(fits)
                try:
                    outcome = estimator(dataset, theta, cfg)
                except (ChainDivergedError, FloatingPointError) as exc:
                    outcome = exc
            if isinstance(outcome, Exception):
                outcomes[rep] = outcome
            else:
                outcomes[rep][theta] = outcome
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
    whose fit diverges is recorded and skipped; each level's report lists
    the failures.  With two or more completed replications, each level's
    report gets the efficiency block ``theta=<level>`` against the first
    level (exactly 1 there).  The replications are split into up to
    ``jobs`` contiguous groups, and each group is one task that fits its
    replications a level at a time, generating each replication's dataset
    again at each level (``_replication_group``).  Without an
    ``estimator``, a level's chains are sampled in batches; with one, it is
    called once per replication and level as ``estimator(dataset, theta,
    sampler)``.  With ``jobs > 1`` the groups run in up to ``jobs`` worker
    processes.  Aggregation is in replication-index order, so the output is
    identical for any ``jobs``, and the default equals
    ``estimator=posterior_mean_estimator``.
    """
    thetas = [float(t) for t in thetas]
    names = list(_STUDY_NAMES)
    truth = dict(zip(names, TRUE_BETA + TRUE_CUTPOINTS))

    groups = [(config, sampler, thetas, reps, estimator) for reps in split_groups(range(config.replications), jobs)]
    outcomes = (outcome for group in ordered_map(_replication_group, groups, jobs) for outcome in group)
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
            reports[theta].efficiency[f"theta={theta:g}"] = {
                name: relative_efficiency(mat[:, j], ref[:, j]) for j, name in enumerate(names)
            }
    return ReplicationRun(thetas, names, estimates, reports)

