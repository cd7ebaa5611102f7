"""Bayesian quantile regression for ordinal longitudinal data.

A Gibbs sampler for panel data with ordered categorical outcomes: the
response is modelled through a latent liability whose conditional quantile
is a subject-level random effect plus a linear predictor, with
Lasso-type shrinkage on the coefficients and ordered cut-points linking the
liability to the observed categories.
"""

__version__ = "0.1.0"

from .data import CsvSchema, OrdinalDataset, PosteriorDraws, ingest_csv, read_draws, write_csv
from .diagnostics import (
    DicResult,
    MpsrfSeries,
    ReplicationReport,
    SummaryTable,
    dic,
    mpsrf,
    relative_bias,
    relative_efficiency,
    summarize,
)
from .errors import ChainDivergedError, ConfigError, DataError, SchemaError
from .gibbs import SamplerConfig, parameter_names, run_chain, write_draws
from .model import ChainState, ModelSpec, Priors, initialize_state
from .simulate import (
    ReplicationRun,
    ScenarioConfig,
    generate,
    run_replication_study,
)
from .streams import child_seed, fresh_seed, substream

__all__ = [
    "__version__",
    "CsvSchema",
    "OrdinalDataset",
    "ingest_csv",
    "write_csv",
    "Priors",
    "ModelSpec",
    "ChainState",
    "initialize_state",
    "SamplerConfig",
    "PosteriorDraws",
    "run_chain",
    "parameter_names",
    "read_draws",
    "write_draws",
    "SummaryTable",
    "summarize",
    "MpsrfSeries",
    "mpsrf",
    "DicResult",
    "dic",
    "relative_bias",
    "relative_efficiency",
    "ReplicationReport",
    "ScenarioConfig",
    "ReplicationRun",
    "generate",
    "run_replication_study",
    "substream",
    "child_seed",
    "fresh_seed",
    "SchemaError",
    "DataError",
    "ConfigError",
    "ChainDivergedError",
]
