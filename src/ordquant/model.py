"""Model specification and per-chain state for ordinal quantile regression.

The latent-variable model: each observation has an unobserved continuous
liability whose conditional quantile at the target level is a subject
random effect plus a linear predictor.  Ordered cut-points slice the
liability scale into the observed categories; the liability error follows
the skewed-Laplace law, handled through its normal scale-mixture form with
a per-observation exponential mixing variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import parallel
from .data import OrdinalDataset
from .distributions import _trunc_normal_gathered
from .errors import ConfigError

# Floor for the rho1^2 argument of latent-scale GIG draws; avoids the
# degenerate zero-residual boundary case while staying below sampling noise.
RHO1_SQ_FLOOR = 1e-12

__all__ = ["Priors", "ModelSpec", "ChainState", "initialize_state"]


@dataclass(frozen=True)
class Priors:
    """Hyperparameters: gamma(a1, a2) on the shrinkage rate squared,
    inverse-gamma(b1, b2) on the random-effect variance, and a uniform
    order-statistics prior for interior cut-points on [delta_min, delta_max].
    """

    a1: float = 0.1
    a2: float = 0.1
    b1: float = 0.1
    b2: float = 0.1
    delta_min: float = -10.0
    delta_max: float = 10.0

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"prior hyperparameter {name} must be positive")
        if not self.delta_min < self.delta_max:
            raise ConfigError("delta_min must be strictly below delta_max")
        if not (np.isfinite(self.delta_min) and np.isfinite(self.delta_max)):
            raise ConfigError("cut-point support bounds must be finite")


@dataclass(frozen=True)
class ModelSpec:
    theta: float
    dataset: OrdinalDataset
    priors: Priors = field(default_factory=Priors)

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"quantile level must lie in (0, 1), got {self.theta}")

    @cached_property
    def xi(self) -> float:
        """Mixture location factor 1 - 2 theta (cached: three blocks read it every sweep)."""
        return 1.0 - 2.0 * self.theta

    @property
    def zeta(self) -> float:
        """Mixing-variable exponential rate theta (1 - theta)."""
        return self.theta * (1.0 - self.theta)


@dataclass
class ChainState:
    """One complete draw of every parameter and latent block.

    ``cutpoints`` has length C + 1 with fixed -inf / +inf endpoints; the
    C - 1 interior values are strictly increasing within the prior support.
    A batch of K chains (``stack_states``) holds every array with a leading
    chain axis, and ``lambda_sq`` and ``phi`` as (K,) arrays.
    """

    beta: np.ndarray       # (p,)
    alpha: np.ndarray      # (N,)
    latent_l: np.ndarray   # (n_obs,) liabilities
    latent_v: np.ndarray   # (n_obs,) mixing variables, > 0
    s: np.ndarray          # (p,) coefficient prior scales, > 0
    lambda_sq: float       # shrinkage rate squared, > 0
    phi: float             # random-effect variance, > 0
    cutpoints: np.ndarray  # (C + 1,)

    def copy(self) -> "ChainState":
        return ChainState(
            self.beta.copy(), self.alpha.copy(), self.latent_l.copy(), self.latent_v.copy(),
            self.s.copy(), self.lambda_sq, self.phi, self.cutpoints.copy(),
        )


@dataclass(frozen=True, eq=False)
class StackedDataset:
    """The datasets of a batch of K chains, which share one design: the
    same subjects, observation count, covariate count and categories.

    ``x`` is the one (n, p) matrix when every chain fits the same dataset,
    else the (K, n, p) stack.  The index arrays point into the flattened
    batch state, so one ``take`` or ``bincount`` serves every chain and
    visits each chain's elements in its one-chain order: row k of
    ``subject_index`` indexes ``alpha.ravel()`` and row k of ``y`` the
    flattened (K, C + 1) cut-points, and ``category_runs()`` orders the
    flattened liabilities, its categories numbered k (C + 1) + c.
    """

    x: np.ndarray
    y: np.ndarray              # (K, n)
    subject_index: np.ndarray  # (K, n)
    num_subjects: int
    num_categories: int
    runs: tuple[np.ndarray, np.ndarray, list[int]]

    @property
    def num_covariates(self) -> int:
        return self.x.shape[-1]

    def category_runs(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        return self.runs


@dataclass(frozen=True, eq=False)
class BatchSpec:
    """The model constants of a batch of K chains (``stack_specs``): what a
    Gibbs block reads from a ``ModelSpec``, with ``xi`` as a (K, 1) array."""

    dataset: StackedDataset
    xi: np.ndarray
    priors: Priors


def stack_specs(specs) -> BatchSpec:
    """One ``BatchSpec`` for chains that fit ``specs``, one spec per chain.

    The specs may differ in their quantile level and their dataset, but the
    datasets must share one design and the specs one set of priors."""
    first = specs[0].dataset
    n, N, C = first.num_observations, first.num_subjects, first.num_categories
    datasets = [spec.dataset for spec in specs]
    for spec, ds in zip(specs, datasets):
        if (spec.priors != specs[0].priors or ds.x.shape != first.x.shape or ds.num_subjects != N
                or ds.num_categories != C or not np.array_equal(ds.subject_index, first.subject_index)):
            raise ConfigError("the chains of one batch must share their priors and their design")
    x = first.x if all(ds is first for ds in datasets) else np.stack([ds.x for ds in datasets])
    chains = np.arange(len(specs))[:, None]
    runs = [ds.category_runs() for ds in datasets]
    order = np.concatenate([o + k * n for k, (o, _, _) in enumerate(runs)])
    starts = np.concatenate([s + k * n for k, (_, s, _) in enumerate(runs)])
    present = [c + k * (C + 1) for k, (_, _, cats) in enumerate(runs) for c in cats]
    dataset = StackedDataset(x, np.stack([ds.y for ds in datasets]) + (C + 1) * chains,
                             first.subject_index + N * chains, N, C, (order, starts, present))
    return BatchSpec(dataset, np.array([[spec.xi] for spec in specs]), specs[0].priors)


def stack_states(states) -> ChainState:
    """One batch state holding copies of the one-chain ``states``."""
    def stacked(values):
        return np.stack(values) if isinstance(values[0], np.ndarray) else np.array(values)
    return ChainState(*(stacked([getattr(s, f.name) for s in states]) for f in fields(ChainState)))


def interior_cutpoints(num_categories: int, delta_min: float, delta_max: float) -> np.ndarray:
    """C - 1 equally spaced points strictly inside (delta_min, delta_max)."""
    c = np.arange(1, num_categories)
    grid = delta_min + (delta_max - delta_min) * c / num_categories
    if not (np.all(np.diff(grid) > 0.0) and grid[0] > delta_min and grid[-1] < delta_max):
        raise ConfigError(
            f"cannot place {num_categories - 1} distinct cut-points inside ({delta_min}, {delta_max})"
        )
    return grid


def initialize_state(spec: ModelSpec, rng, overdispersed: bool = False) -> ChainState:
    """Deterministic neutral start; ``overdispersed`` perturbs the
    coefficients with N(0, 4) noise for multi-chain diagnostics."""
    ds = spec.dataset
    p, N, C = ds.num_covariates, ds.num_subjects, ds.num_categories
    beta = np.zeros(p)
    if overdispersed:
        beta = beta + rng.normal(0.0, 2.0, size=p)
    alpha = np.zeros(N)
    cuts = np.concatenate([[-np.inf], interior_cutpoints(C, spec.priors.delta_min, spec.priors.delta_max), [np.inf]])
    v = rng.exponential(1.0 / spec.zeta, size=ds.num_observations)
    state = ChainState(beta, alpha, np.empty(ds.num_observations), v, np.ones(p), 1.0, 1.0, cuts)
    draw_liabilities(state, spec, rng)
    return state


def draw_liabilities(state: ChainState, spec: ModelSpec, rng) -> None:
    """Draw every liability from its full conditional, over ``state.latent_l``.

    L_ij is N(x_ij beta + alpha_i + xi v_ij, 2 v_ij) truncated to the
    interval (delta_{y_ij - 1}, delta_{y_ij}) of its category.  The centre
    and the standard deviation take two arrays, the uniforms are drawn into
    the previous liability array, whose values are lost, and the cut-point
    bounds are gathered inside the truncated-normal draw.  A batch state
    draws with ``rng``, the chains' generators, under a ``BatchSpec``.  A
    chunked state (``per_observation``) holds these arrays per chunk.
    """
    ds = spec.dataset
    v, cuts = state.latent_v, state.cutpoints
    below = _shifted_cutpoints(cuts)

    def draw(rows, center, g):
        sd = state.alpha.take(ds.subject_index[rows])
        center += sd
        center += np.multiply(v[rows], spec.xi, out=sd)
        np.sqrt(np.multiply(v[rows], 2.0, out=sd), out=sd)
        _trunc_normal_gathered(center, sd, below, cuts, ds.y[rows], g, state.latent_l[rows])

    per_observation(state, spec, draw, rng)


def per_observation(state: ChainState, spec, func, rng=None) -> list:
    """``func(rows, xbeta, g)`` over a pass's observations, in a list.

    ``rows`` indexes the observation axis, ``xbeta`` is a fresh array of
    x beta on those rows and ``g`` the generator for them (None when
    ``rng`` is).  A batch, and a chain of at most
    ``parallel._CHUNK_OBSERVATIONS`` observations, run as one call on every
    row, with ``linear_predictor`` and ``rng``.  A larger chain is chunked
    (``chunked``): its ``parallel.observation_chunks`` run on the thread
    share, each with x beta from ``column_product``, chunk 0 drawing from
    ``rng`` and chunk j from child j of ``rng.spawn(k - 1)``, spawned at
    each call.  So the draws depend on the observation count, never on the
    number of threads, and each call is a pure function of the state, the
    spec and ``rng``.
    """
    x, beta = spec.dataset.x, state.beta
    if not chunked(state):
        return [func(slice(None), linear_predictor(x, beta), rng)]
    chunks = parallel.observation_chunks(x.shape[0])
    gens = [None] * len(chunks) if rng is None else [rng, *rng.spawn(len(chunks) - 1)]
    return parallel.map_chunks(lambda j: func(chunks[j], column_product(x[chunks[j]], beta), gens[j]), len(chunks))


def chunked(state: ChainState) -> bool:
    """Whether the per-observation passes of ``state`` run over observation
    chunks: one chain of more than ``parallel._CHUNK_OBSERVATIONS``
    observations.  A batch never chunks (``gibbs.batched`` gives a chain of
    that size a batch of its own)."""
    return state.beta.ndim == 1 and parallel.is_chunked(state.latent_l.shape[0])


def linear_predictor(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x @ beta`` for one chain; for a batch, each chain's product by one
    stacked matmul, which gives every chain the bits of its own ``x @ beta``."""
    return x @ beta if beta.ndim == 1 else np.matmul(x, beta[..., None])[..., 0]


def column_product(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``x @ beta`` for one chain, one column at a time in coefficient
    order, so its bits depend on no BLAS; a chunked chain's x beta."""
    out = np.multiply(x[:, 0], beta[0])
    term = np.empty_like(out)
    for k in range(1, beta.size):
        out += np.multiply(x[:, k], beta[k], out=term)
    return out


def _shifted_cutpoints(cuts: np.ndarray) -> np.ndarray:
    """``cuts`` shifted one step along its last axis: entry y is cut-point
    y - 1, so both bounds of category y are gathered by y.  Entry 0 is never
    read, because y >= 1."""
    below = np.empty_like(cuts)
    below[..., 1:] = cuts[..., :-1]
    return below


def nonfinite_blocks(state: ChainState) -> list[str]:
    """Names of the state blocks that hold an inf or NaN, in ``ChainState`` field order."""
    blocks = (
        ("beta", state.beta),
        ("alpha", state.alpha),
        ("latent_l", state.latent_l),
        ("latent_v", state.latent_v),
        ("s", state.s),
        ("lambda_sq", state.lambda_sq),
        ("phi", state.phi),
        ("delta", state.cutpoints[..., 1:-1]),
    )
    return [name for name, block in blocks if not np.all(np.isfinite(block))]
