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
from functools import cached_property, wraps

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

    @cached_property
    def one_chain(self) -> "BatchSpec":
        """This spec as a K = 1 batch's (``stack_specs``, ``takes_one_chain``):
        its index arrays are ``[None]`` views of the dataset's, so it copies neither."""
        ds = self.dataset
        stacked = StackedDataset(ds.x, ds.y[None], ds.subject_index[None], ds.num_subjects, ds.num_categories, (ds,))
        return BatchSpec(stacked, self.xi, self.priors)


@dataclass
class ChainState:
    """One complete draw of every parameter and latent block.

    ``cutpoints`` has length C + 1 with fixed -inf / +inf endpoints; the
    C - 1 interior values are strictly increasing within the prior support.
    One chain's own state has the shapes noted below; a batch of K chains
    (``stack_states``), which the Gibbs blocks take, adds a leading chain
    axis to each, so ``lambda_sq`` and ``phi`` are (K,) arrays.
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
    flattened (K, C + 1) cut-points, and ``runs`` orders the flattened
    liabilities, its categories numbered k (C + 1) + c.
    """

    x: np.ndarray
    y: np.ndarray              # (K, n)
    subject_index: np.ndarray  # (K, n)
    num_subjects: int
    num_categories: int
    datasets: tuple            # chain k's dataset

    @cached_property
    def columns(self) -> np.ndarray:
        """x by column, (K, p, n): chain k's covariate j as one contiguous
        row, a view of one (p, n) array where the chains share x."""
        rows = np.ascontiguousarray(np.swapaxes(self.x, -1, -2))
        return np.broadcast_to(rows, (len(self.y), *rows.shape[-2:]))

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Every chain's ``OrdinalDataset.category_runs()``, over the flattened batch."""
        n, C = self.y.shape[-1], self.num_categories
        runs = [ds.category_runs() for ds in self.datasets]
        order = np.concatenate([o + k * n for k, (o, _, _) in enumerate(runs)])
        starts = np.concatenate([s + k * n for k, (_, s, _) in enumerate(runs)])
        return order, starts, [c + k * (C + 1) for k, (_, _, cats) in enumerate(runs) for c in cats]



@dataclass(frozen=True, eq=False)
class BatchSpec:
    """The model constants of a batch of K chains (``stack_specs``): what a
    Gibbs block reads from a ``ModelSpec``, with ``xi`` the chains' one float
    or, where their quantile levels differ, a (K, 1) array."""

    dataset: StackedDataset
    xi: float | np.ndarray
    priors: Priors


def stack_specs(specs) -> BatchSpec:
    """One ``BatchSpec`` for chains that fit ``specs``, one spec per chain.

    The specs may differ in their quantile level and their dataset, but the
    datasets must share one design and the specs one set of priors.  One
    spec's batch is its ``one_chain``, which copies no index array."""
    if len(specs) == 1:
        return specs[0].one_chain
    first = specs[0].dataset
    N, C = first.num_subjects, first.num_categories
    datasets = [spec.dataset for spec in specs]
    for spec, ds in zip(specs, datasets):
        if (spec.priors != specs[0].priors or ds.x.shape != first.x.shape or ds.num_subjects != N
                or ds.num_categories != C or not np.array_equal(ds.subject_index, first.subject_index)):
            raise ConfigError("the chains of one batch must share their priors and their design")
    x = first.x if all(ds is first for ds in datasets) else np.stack([ds.x for ds in datasets])
    chains = np.arange(len(specs))[:, None]
    dataset = StackedDataset(x, np.stack([ds.y for ds in datasets]) + (C + 1) * chains,
                             first.subject_index + N * chains, N, C, tuple(datasets))
    xi = specs[0].xi
    if any(spec.xi != xi for spec in specs):
        xi = np.array([[spec.xi] for spec in specs])
    return BatchSpec(dataset, xi, specs[0].priors)


def stack_states(states) -> ChainState:
    """One batch state holding copies of the one-chain ``states``."""
    return ChainState(*(np.array([getattr(s, f.name) for s in states]) for f in fields(ChainState)))


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
    """One chain's deterministic neutral start, as its own state (1-D
    arrays); ``overdispersed`` perturbs the coefficients with N(0, 4) noise
    for multi-chain diagnostics."""
    ds = spec.dataset
    p, N, C = ds.num_covariates, ds.num_subjects, ds.num_categories
    beta = np.zeros(p)
    if overdispersed:
        beta = beta + rng.normal(0.0, 2.0, size=p)
    alpha = np.zeros(N)
    cuts = np.concatenate([[-np.inf], interior_cutpoints(C, spec.priors.delta_min, spec.priors.delta_max), [np.inf]])
    v = rng.exponential(1.0 / spec.zeta, size=ds.num_observations)
    state = ChainState(beta, alpha, np.empty(ds.num_observations), v, np.ones(p), 1.0, 1.0, cuts)
    takes_one_chain(draw_liabilities)(state, spec, rng)
    return state


def takes_one_chain(body):
    """The entry shim: ``body``, a block written for a batch, also called
    as ``op(state, spec, rng)`` on one chain's own state, its ``ModelSpec``
    and its generator.  That state is viewed as a K = 1 batch, its arrays
    as ``[None]`` views that the body writes in place; an array the body
    replaces is put back as its row, and ``lambda_sq`` and ``phi`` as
    floats."""
    names = [f.name for f in fields(ChainState)]

    @wraps(body)
    def block(state: ChainState, spec, rng) -> None:
        if isinstance(spec, BatchSpec):
            return body(state, spec, rng)
        views = [np.asarray(getattr(state, name))[None] for name in names]
        batch = ChainState(*views)
        body(batch, spec.one_chain, [rng])
        for name, view in zip(names, views):
            value = getattr(batch, name)
            if value is not view:
                setattr(state, name, value[0] if value.ndim > 1 else float(value[0]))

    return block


def draw_liabilities(state: ChainState, spec, rng) -> None:
    """Draw every liability from its full conditional, over ``state.latent_l``.

    L_ij is N(x_ij beta + alpha_i + xi v_ij, 2 v_ij) truncated to the
    interval (delta_{y_ij - 1}, delta_{y_ij}) of its category.  The centre
    and the standard deviation take two arrays, the uniforms are drawn into
    the previous liability array, whose values are lost, and the cut-point
    bounds are gathered inside the truncated-normal draw, chain k's from
    ``rng[k]``.  A chunked chain (``per_observation``) holds these arrays
    per chunk.
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

    ``rows`` indexes the batch's arrays on their last, observation axis
    (``...``, or ``(..., chunk)``), ``xbeta`` is a fresh (K, m) array of each
    chain's x beta on those m observations and ``g`` the chains' generators
    (None when ``rng`` is).  A batch runs as one call, with
    ``linear_predictor`` and ``rng``, unless it is one chunked chain
    (``chunked``): its ``parallel.observation_chunks`` run on the thread
    share, each with x beta from ``column_product``, chunk 0 drawing from
    ``rng`` and chunk j from child j of each generator's ``spawn(k - 1)``,
    spawned at each call.  So the draws depend on the observation count,
    never on the number of threads, and each call is a pure function of the
    state, the spec and ``rng``.
    """
    x, beta = spec.dataset.x, state.beta
    if not chunked(state):
        return [func(..., linear_predictor(x, beta), rng)]
    chunks = parallel.observation_chunks(state.latent_l.shape[-1])
    gens = [None] * len(chunks) if rng is None else [rng, *zip(*(g.spawn(len(chunks) - 1) for g in rng))]
    return parallel.map_chunks(lambda j: func((..., chunks[j]), column_product(x[chunks[j]], beta), gens[j]),
                               len(chunks))


def chunked(state: ChainState) -> bool:
    """Whether the per-observation passes of ``state`` run over observation
    chunks: one chain, alone in its batch, of more than
    ``parallel._CHUNK_OBSERVATIONS`` observations.  A batch of more chains
    never chunks, because ``gibbs.batched`` gives a chain of that size a
    batch of its own."""
    n = state.latent_l.shape[-1]
    return state.latent_l.size == n and parallel.is_chunked(n)


def linear_predictor(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Each chain's ``x @ beta``, (K, n), by one stacked matmul, which gives
    every chain the bits of its own ``x @ beta``; a K = 1 batch's by one
    ``np.dot``, the same BLAS product without the stacking."""
    if len(beta) == 1:
        return np.dot(beta, x.T)
    return np.matmul(x, beta[..., None])[..., 0]


def column_product(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Each chain's ``x @ beta``, (K, n), one column at a time in
    coefficient order, so its bits depend on no BLAS; a chunked chain's x
    beta."""
    out = np.multiply(x[..., 0], beta[:, 0, None])
    term = np.empty_like(out)
    for k in range(1, beta.shape[-1]):
        out += np.multiply(x[..., k], beta[:, k, None], out=term)
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
    blocks = {f.name: getattr(state, f.name) for f in fields(ChainState)}
    blocks["delta"] = blocks.pop("cutpoints")[..., 1:-1]
    return [name for name, block in blocks.items() if not np.all(np.isfinite(block))]
