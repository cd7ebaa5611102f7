"""Eight-step Gibbs sampler and chain orchestration.

One sweep updates, in order: the per-observation mixing variables, the
coefficients (one at a time against fresh partial residuals), the
coefficient prior scales, the shrinkage rate, the subject effects, the
random-effect variance, the liabilities, and the interior cut-points.
Every update draws from its exact full conditional, so a sweep leaves the
joint posterior invariant.

The mixing-variable block opens with an exact translation move: one common
shift of the subject effects, the cut-points and the liabilities leaves the
likelihood unchanged, and no single-block update moves along that ridge.
The cut-point spread still mixes slowly, because the uniform cut-point
update moves each cut-point only within the gap between neighbouring
liabilities.

Chain scheduling.  A chain is strictly sequential, and each chain draws
only from its own substream ``substream(seed, STREAM_CHAIN, c)``.
``batched`` alone decides how chains become batches: at most
``parallel._CHUNK_OBSERVATIONS`` (65,536) chain-observations and as many
retained draw cells each.  ``sample_batch`` samples one: one call of a
block advances every chain of it, and one chain alone runs on one-chain
arrays.  A batch in which any chain fails, or ends a sweep non-finite, is
sampled again one chain at a time, so a failure reads as it does in a
one-chain run and the other chains keep their draws.
``run_chain(spec, config, jobs)`` splits the chains into up to ``jobs``
contiguous groups, each read through ``batched``, and
``parallel.ordered_map`` runs the batches in up to ``jobs`` worker
processes (in this process when ``jobs`` is 1).  The parent copies each
chain's rows into the draws matrix in chain order, so the draws are
identical for any ``jobs``.  ``ordquant fit`` runs the levels
one after another, each with one worker per chain, capped by the usable
CPUs, so up to the CPUs every chain samples alone.  The replication study
reads each level's chains of a worker's replications through the same two
functions, so a batch may hold chains of several replications' fits.
Workers never start process pools of their own.

Observation chunks.  A chain of more than ``parallel._CHUNK_OBSERVATIONS``
(65,536) observations (``model.chunked``) runs its per-observation passes
over equal contiguous chunks on a thread pool (``parallel.map_chunks``):
``update_v``'s draws after the location move, ``update_l`` and
``initialize_state``'s liability draw (``model.per_observation``),
``update_beta``'s residual and inner-product passes, and ``update_alpha``'s
per-subject sums.  The scalar draws and every other step stay on the
calling thread in their one-chain order.  Such a chain holds more
observations than a batch may, so ``batched`` gives it a batch of its own,
and its threads are the CPUs its process is not already using for chain
workers, so a one-chain ``fit`` on 2 CPUs samples on both.

Hot-path contract.  Arguments are validated only at public boundaries:
``SamplerConfig``, ``ModelSpec``, ``Priors``, ``OrdinalDataset`` and the
public samplers in ``distributions``.  Each block is a pure function of
``(state, spec, rng)``: what it writes into the state depends on nothing
else, and it calls the unchecked cores ``_gig_half``, ``_trunc_normal`` and,
through ``model.draw_liabilities``, ``_trunc_normal_gathered`` on arrays it
built itself.  A one-chain call takes a ``ModelSpec``, a state of 1-D
arrays and one generator.  A batch call takes ``model.stack_specs``'s
``BatchSpec``, ``model.stack_states``'s state, whose arrays carry a leading
chain axis, and the chains' generators in chain order.  Every chain of a
batch draws from its own generator in its one-chain order, and every
reduction keeps the one-chain bits: a stacked ``matmul`` for ``x @ beta``,
a ``take`` or ``bincount`` over chain-offset indices, a per-chain
``np.dot`` or row sum; scalar draws and the truncated-normal tail stay
per-chain loops.  A chunked chain draws chunk 0 from its generator and
chunk j from child j of ``rng.spawn(k - 1)``, spawned inside the block at
each pass that draws, so a block stays a pure function of
``(state, spec, rng)``; it calls no BLAS: x beta one column at a time
(``model.column_product``), sums over observations by ``np.einsum`` or as
per-chunk sums added in chunk order.  So its draws depend on the
observation count, but neither on the number of threads nor on the BLAS.
An unchunked chain's ``np.dot`` and ``x @ beta`` do call the BLAS, whose
last bits change with its thread count above about 10k elements.
There is no cross-block cache; only constants of the dataset are cached,
on the dataset.  ``run_chain`` turns a numerical failure inside a block, or
a non-finite state after a sweep, into ``ChainDivergedError`` naming the
chain, the sweep and the block; in a chunked pass every chunk runs, and the
first failure in chunk order is the one raised.

Aliasing.  Blocks write into the state's arrays in place where they can:
the location move shifts ``alpha``, the cut-points and ``latent_l``,
``update_v`` writes the new mixing variables over the previous
``latent_v`` array, and ``update_l`` draws the new liabilities over the
previous ``latent_l`` array.  In a batch the same holds for the stacked
arrays, and a chain's row is a view into them.  An array taken from the
state before a block therefore holds the block's new values after it;
``ChainState.copy()`` keeps a draw.
"""

from __future__ import annotations

import math
from contextlib import closing
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .data import _convert, _fit_intp, _line_of, _record_chunks, _write_table
from .errors import ChainDivergedError, ConfigError, SchemaError
from .kvfile import write_kv
from .model import (RHO1_SQ_FLOOR, ChainState, ModelSpec, chunked, draw_liabilities, initialize_state,
                    nonfinite_blocks, per_observation, stack_specs, stack_states)
from .distributions import _gig_half, _trunc_normal
from .streams import STREAM_CHAIN, substream

__all__ = [
    "SamplerConfig",
    "PosteriorDraws",
    "run_chain",
    "parameter_names",
    "write_draws",
    "read_draws",
    "update_v",
    "update_beta",
    "update_s",
    "update_lambda_sq",
    "update_alpha",
    "update_phi",
    "update_l",
    "update_delta",
]

_SQRT_HALF = float(np.sqrt(0.5))
# The inner product of two vectors without the BLAS, for a chunked chain.
# Bits: above about 10k elements ``np.dot`` gives different bits at
# OPENBLAS_NUM_THREADS=1 and 2.  Speed: the BLAS threads compete with the
# chunk threads; ``np.vdot`` in ``_check_finite`` keeps every bit but took a
# 200k-observation sweep from 31 to 49-53 ms (29.8 ms at one BLAS thread)
# on 2 CPUs.
_inner = partial(np.einsum, "i,i->")


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int = 20000
    burn_in: int = 2000
    thin: int = 1
    num_chains: int = 1
    seed: int = 0
    overdispersed_starts: bool = False
    retain_alpha: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigError("burn-in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ConfigError("thinning interval must be >= 1")
        if self.retained_per_chain < 1:
            raise ConfigError("configuration retains no draws")
        if self.num_chains < 1:
            raise ConfigError("at least one chain is required")

    @property
    def retained_per_chain(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


# ---------------------------------------------------------------------------
# Single-block updates (each mutates one component of the state in place)
# ---------------------------------------------------------------------------

def _stacked(draw, rng, *blocks) -> np.ndarray:
    """``draw(rng[k], *parts)`` for each chain k of a batch, where ``parts``
    is chain k's row of each of ``blocks``, stacked on a leading chain axis.

    Each block writes its per-chain draws once, as ``draw``, and calls it
    directly for one chain (``draw(rng, *blocks)``) or through this for a
    batch, so a one-chain sweep pays no per-chain dispatch.
    """
    return np.array([draw(*chain) for chain in zip(rng, *blocks)])


def _shift_location(state: ChainState, spec: ModelSpec, rng) -> None:
    """Exact translation move along the location ridge (Liu and Sabatti 2000).

    Adding one shift g to the subject effects, the interior cut-points and
    the liabilities leaves the likelihood unchanged.  The cut-point prior is
    flat and the Jacobian is 1, so only the subject-effect prior depends on
    g: it is N(-mean(alpha), phi / N), truncated so that the cut-points stay
    inside [delta_min, delta_max].  A plain normal draw that lands inside
    the bounds is kept; a miss falls back to the truncated-normal sampler,
    so g is exactly truncated normal either way.
    """
    pri = spec.priors
    n = state.alpha.shape[-1]

    def draw(g, cuts, alpha, phi):
        lo = pri.delta_min - cuts[1]
        hi = pri.delta_max - cuts[-2]
        if not lo < hi:
            # Both end cut-points pinned at the support: g = 0 exactly, and
            # adding -0.0 leaves every bit of the state as it is.
            return -0.0
        mean = -float(alpha.sum()) / n
        variance = phi / n
        shift = mean + math.sqrt(variance) * g.standard_normal()
        if not lo < shift < hi:
            shift = float(_trunc_normal(*(np.array([a]) for a in (mean, variance, lo, hi)), g)[0])
        return shift

    blocks = state.cutpoints, state.alpha, state.phi
    shift = _stacked(draw, rng, *blocks)[:, None] if state.beta.ndim > 1 else draw(rng, *blocks)
    state.alpha += shift
    state.cutpoints[..., 1:-1] += shift
    state.latent_l += shift


def update_v(state: ChainState, spec: ModelSpec, rng) -> None:
    """Mixing variables: GIG(1/2) with rho1^2 = residual^2 / 2, rho2^2 = 1/2.

    The location move runs first: it leaves the residual L - x beta - alpha,
    and so this block's conditional, unchanged.  The draws run per
    observation chunk (``model.per_observation``) and are written over
    ``state.latent_v``.
    """
    _shift_location(state, spec, rng)
    ds = spec.dataset
    batch = state.beta.ndim > 1

    def wald(g, mean):
        return g.wald(mean, _SQRT_HALF * _SQRT_HALF)

    def draw(rows, resid, g):
        np.subtract(state.latent_l[rows], resid, out=resid)
        effect = state.alpha.take(ds.subject_index[rows])
        resid -= effect
        rho1_sq = np.multiply(resid, 0.5, out=effect)
        rho1_sq *= resid
        np.maximum(rho1_sq, RHO1_SQ_FLOOR, out=rho1_sq)
        np.sqrt(rho1_sq, out=rho1_sq)
        # The draws of _gig_half(rho1, sqrt(1/2)), with the Wald means written
        # over rho1 and the reciprocals over the mixing variables.
        means = np.divide(_SQRT_HALF, rho1_sq, out=rho1_sq)
        v = _stacked(wald, g, means) if batch else wald(g, means)
        np.divide(1.0, v, out=state.latent_v[rows])

    per_observation(state, spec, draw, rng)


def update_beta(state: ChainState, spec: ModelSpec, rng) -> None:
    """Coefficients, swept in ascending index against fresh partial residuals.

    One ``model.per_observation`` pass builds each part's residuals, weights
    1 / (2 v) and scratch: one part, or one per observation chunk.
    Coefficient k then runs one pass over the parts, which moves the
    residuals from coefficient k - 1 to k and returns the part's two inner
    products; the parts' sums are added in part order.  A chain's inner
    products are its own ``np.dot`` (a chunk's ``np.einsum``, which calls no
    BLAS) and its draw its own scalar call, so a batch draws every chain's
    bits.
    """
    ds = spec.dataset
    beta = state.beta
    batch = beta.ndim > 1
    by_chunk = chunked(state)

    def coefficient(k):
        return beta[:, k, None] if batch else beta[k]

    def inner(a, b, w, term):
        """Each chain's sum of a b w, with ``term`` as scratch."""
        if by_chunk:
            return np.einsum("i,i,i->", a, b, w)
        np.multiply(a, b, out=term)
        return [np.dot(t, u) for t, u in zip(term, w)] if batch else np.dot(term, w)

    def residuals(rows, r, _):
        x, v = ds.x[rows], state.latent_v[rows]
        np.subtract(state.latent_l[rows], r, out=r)
        term = state.alpha.take(ds.subject_index[rows])
        r -= term
        r -= np.multiply(v, spec.xi, out=term)
        return x, r, np.divide(0.5, v), term

    def sums(k, j):
        x, r, inv2v, term = parts[j]
        if k > 0:
            r -= np.multiply(x[..., k - 1], coefficient(k - 1), out=term)
        xk = x[..., k]
        r += np.multiply(xk, coefficient(k), out=term)
        return inner(xk, xk, inv2v, term), inner(r, xk, inv2v, term)

    parts = per_observation(state, spec, residuals)
    for k, s_k in enumerate(state.s.T.tolist()):
        (precision, rx), *later = parallel.map_chunks(partial(sums, k), len(parts))
        for part_precision, part_rx in later:
            precision += part_precision
            rx += part_rx
        if batch:
            beta[:, k] = [_draw_coefficient(*chain) for chain in zip(rng, rx, precision, s_k)]
        else:
            beta[k] = _draw_coefficient(rng, rx, precision, s_k)


def _draw_coefficient(g, rx: float, precision: float, s_k: float) -> float:
    """One chain's coefficient k, from its sum of r x_k / (2 v) and its data precision."""
    variance = 1.0 / (precision + 1.0 / s_k)
    return variance * rx + math.sqrt(variance) * g.standard_normal()


def update_s(state: ChainState, spec: ModelSpec, rng) -> None:
    """Coefficient scales: GIG(1/2) with rho1^2 = beta_k^2, rho2^2 = lambda^2.

    One scalar draw per coefficient, in index order: the generator gives the
    same numbers as one call with an array of means, without that call's
    fixed cost of about 10 microseconds.
    """
    def draw(g, beta, lambda_sq):
        rho2 = math.sqrt(lambda_sq)
        return [_gig_half(math.sqrt(max(b_k * b_k, RHO1_SQ_FLOOR)), rho2, g) for b_k in beta.tolist()]

    blocks = state.beta, state.lambda_sq
    state.s = _stacked(draw, rng, *blocks) if state.beta.ndim > 1 else np.array(draw(rng, *blocks))


def update_lambda_sq(state: ChainState, spec: ModelSpec, rng) -> None:
    """Shrinkage rate squared: gamma(p + a1, rate = sum(s)/2 + a2)."""
    pri = spec.priors
    shape = spec.dataset.num_covariates + pri.a1

    def draw(g, s):
        return g.gamma(shape, 1.0 / (0.5 * float(s.sum()) + pri.a2))

    state.lambda_sq = _stacked(draw, rng, state.s) if state.beta.ndim > 1 else draw(rng, state.s)


def update_alpha(state: ChainState, spec: ModelSpec, rng) -> None:
    """Subject effects: normal with data precision sum_j 1/(2 v_ij) + 1/phi.

    A chunked chain sums each chunk's terms per subject and adds the
    chunks' sums in chunk order (``model.per_observation``).
    """
    ds = spec.dataset

    def sums(rows, eta, _):
        v = state.latent_v[rows]
        inv2v = np.divide(0.5, v)
        np.subtract(state.latent_l[rows], eta, out=eta)
        eta -= np.multiply(v, spec.xi)
        eta *= inv2v
        index = ds.subject_index[rows]
        return _subject_sums(ds, index, inv2v), _subject_sums(ds, index, eta)

    (variance, mean), *later = per_observation(state, spec, sums)
    for chunk_variance, chunk_mean in later:
        variance += chunk_variance
        mean += chunk_mean
    variance += 1.0 / (state.phi[:, None] if state.beta.ndim > 1 else state.phi)
    np.divide(1.0, variance, out=variance)
    mean *= variance
    # The draws rng.normal(mean, sd) would make, without its array-parameter cost.
    def draw(g):
        return g.standard_normal(ds.num_subjects)

    alpha = _stacked(draw, rng) if state.beta.ndim > 1 else draw(rng)
    alpha *= np.sqrt(variance, out=variance)
    alpha += mean
    state.alpha = alpha


def _subject_sums(ds, index: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each chain's per-subject sums of ``weights``, the terms of the
    observations ``index`` holds the subjects of.  In a batch, one
    ``bincount`` over the chain-offset subject index adds each chain's
    terms in its one-chain order."""
    if weights.ndim == 1:
        return np.bincount(index, weights=weights, minlength=ds.num_subjects)
    sums = np.bincount(index.ravel(), weights=weights.ravel(), minlength=weights.shape[0] * ds.num_subjects)
    return sums.reshape(weights.shape[0], ds.num_subjects)


def update_phi(state: ChainState, spec: ModelSpec, rng) -> None:
    """Random-effect variance: inverse-gamma(N/2 + b1, scale = sum(alpha^2)/2 + b2)."""
    pri = spec.priors
    shape = 0.5 * spec.dataset.num_subjects + pri.b1
    dot = _inner if chunked(state) else np.dot

    def draw(g, alpha):
        return 1.0 / g.gamma(shape, 1.0 / (0.5 * float(dot(alpha, alpha)) + pri.b2))

    state.phi = _stacked(draw, rng, state.alpha) if state.beta.ndim > 1 else draw(rng, state.alpha)


def update_l(state: ChainState, spec: ModelSpec, rng) -> None:
    """Liabilities: normal truncated to each observation's category interval,
    drawn over the previous liability array (``model.draw_liabilities``)."""
    draw_liabilities(state, spec, rng)


def update_delta(state: ChainState, spec: ModelSpec, rng) -> None:
    """Interior cut-points, swept in increasing order with fresh neighbours.

    Cut-point c is uniform on (L_c, U_c).  L_c is the largest of: the
    liabilities in category c, the freshly drawn cut-point c - 1 and the
    prior floor.  U_c is the smallest of: the liabilities in category c + 1,
    the next cut-point and the prior ceiling.  An empty category contributes
    -inf / +inf, so the bound falls back to the neighbours.
    """
    ds = spec.dataset
    C = ds.num_categories
    order, starts, present = ds.category_runs()
    runs = state.latent_l.take(order)
    largest = [-math.inf] * state.cutpoints.size
    smallest = [math.inf] * state.cutpoints.size
    for c, top, bottom in zip(present, np.maximum.reduceat(runs, starts).tolist(),
                              np.minimum.reduceat(runs, starts).tolist()):
        largest[c] = top
        smallest[c] = bottom
    pri = spec.priors
    chains = zip(rng, state.cutpoints) if state.beta.ndim > 1 else [(rng, state.cutpoints)]
    for base, (g, row) in zip(range(0, state.cutpoints.size, C + 1), chains):
        bounds = row.tolist()
        for c in range(1, C):
            lo = max(largest[base + c], bounds[c - 1], pri.delta_min)
            hi = min(smallest[base + c + 1], bounds[c + 1], pri.delta_max)
            if not lo < hi:
                raise ChainDivergedError(
                    f"cut-point {c} has empty conditional support [{lo}, {hi}]; "
                    "liability thresholding was inconsistent before the update"
                )
            bounds[c] = row[c] = _uniform(g, lo, hi)


def _uniform(g, lo: float, hi: float) -> float:
    """The draw of ``g.uniform(lo, hi)``, without that call's argument handling."""
    return lo + (hi - lo) * g.random()


_SWEEP = (update_v, update_beta, update_s, update_lambda_sq, update_alpha, update_phi, update_l, update_delta)


# ---------------------------------------------------------------------------
# Chain orchestration
# ---------------------------------------------------------------------------

def parameter_names(spec: ModelSpec, retain_alpha: bool = False) -> list[str]:
    ds = spec.dataset
    names = [f"beta_{k + 1}" for k in range(ds.num_covariates)]
    names += [f"delta_{c}" for c in range(1, ds.num_categories)]
    names += ["lambda_sq", "phi"]
    if retain_alpha:
        names += [f"alpha_{i + 1}" for i in range(ds.num_subjects)]
    return names


@dataclass
class PosteriorDraws:
    """Retained post-burn-in draws, chain-major, with equal chain lengths."""

    names: list[str]
    values: np.ndarray       # (rows, len(names))
    chain: np.ndarray        # (rows,) chain index
    iteration: np.ndarray    # (rows,) originating sweep number (1-based)
    theta: float | None = None
    config: SamplerConfig | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.chain = np.asarray(self.chain, dtype=np.intp)
        self.iteration = np.asarray(self.iteration, dtype=np.intp)
        if self.values.shape != (len(self.chain), len(self.names)):
            raise ValueError("draw matrix shape does not match names/chain labels")
        counts = np.bincount(self.chain)
        if counts.size and not np.all(counts == counts[0]):
            raise ValueError("chain segments must have equal length")

    @property
    def num_chains(self) -> int:
        return int(self.chain.max()) + 1 if self.chain.size else 0

    @property
    def chain_length(self) -> int:
        return self.values.shape[0] // max(self.num_chains, 1)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def select(self, names) -> np.ndarray:
        cols = [self.names.index(n) for n in names]
        return self.values[:, cols]

    def by_chain(self, names) -> np.ndarray:
        """The draws of ``names`` as a (chains, draws, parameters) array."""
        mat = self.select(names)
        order = np.lexsort((self.iteration, self.chain))
        return mat[order].reshape(self.num_chains, self.chain_length, mat.shape[1])

    def to_csv(self, path) -> None:
        """One row per draw, each draw written with ``%.17g``, streamed in
        chunks, so no copy of the whole file is held."""
        _write_table(path, ["chain", "iteration", *self.names], "%d,%d" + ",%.17g" * len(self.names),
                     [self.chain, self.iteration, *self.values.T])


def run_chain(spec: ModelSpec, config: SamplerConfig, jobs: int = 1) -> PosteriorDraws:
    """Run the sampler and collect retained draws from every chain.

    The chains are split into up to ``jobs`` contiguous groups, and each
    group into ``batched`` batches; the batches run in up to ``jobs`` worker
    processes when ``jobs > 1``, and the draws are identical for any
    ``jobs``.  The first failure among the batches' ``sample_batch``
    outcomes, in chain order, is raised: a numerical failure inside a sweep
    as ``ChainDivergedError`` naming the chain, the sweep and the block.
    """
    names = parameter_names(spec, config.retain_alpha)
    rows = config.retained_per_chain
    values = np.empty((rows * config.num_chains, len(names)))
    batches = [batch for group in split_groups(range(config.num_chains), jobs)
               for batch in batched((spec, config, chain) for chain in group)]
    # Each batch's rows are copied as they arrive, so one batch's rows are
    # held besides the draws matrix; closing cancels the batches not started.
    with closing(parallel.ordered_map(sample_batch, batches, jobs)) as outcomes:
        for chain, block in enumerate(block for batch in outcomes for block in batch):
            if isinstance(block, Exception):
                raise block
            values[chain * rows:(chain + 1) * rows] = block
    chain_ids = np.repeat(np.arange(config.num_chains, dtype=np.intp), rows)
    iterations = np.tile(config.burn_in + config.thin * np.arange(1, rows + 1, dtype=np.intp), config.num_chains)
    return PosteriorDraws(names, values, chain_ids, iterations, theta=spec.theta, config=config)


def split_groups(items, parts: int) -> list[list]:
    """``items`` as at most ``parts`` contiguous groups whose sizes differ by at most one."""
    items = list(items)
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    ends = [k * size + min(k, extra) for k in range(parts + 1)]
    return [items[a:b] for a, b in zip(ends, ends[1:])]


def batched(tasks):
    """``(spec, config, chain)`` tasks from any iterable, read a batch at a
    time: as many as keep the batch's chain-observations and retained draw
    cells within ``parallel._CHUNK_OBSERVATIONS`` for its first task, and at
    least one.  So a batch of large panels or of long chains is one chain,
    and holds what a one-chain run holds; a chain whose passes are chunked
    (``model.chunked``) holds more observations than that bound, so it is
    always a batch of its own and its draws never depend on its batch.  A
    batch's tasks must share one design and one configuration but for its
    seed.  A task is read when its batch forms."""
    tasks = iter(tasks)
    for first in tasks:
        spec, config, _ = first
        n = spec.dataset.num_observations
        row_cells = config.retained_per_chain * len(parameter_names(spec, config.retain_alpha))
        size = max(1, parallel._CHUNK_OBSERVATIONS // max(n, row_cells))
        yield [first, *islice(tasks, size - 1)]


def sample_batch(batch) -> list:
    """Each task's retained rows, or the ``ChainDivergedError`` or
    ``FloatingPointError`` that ended it, in task order.

    The batch is sampled as one; if any chain fails or ends a sweep
    non-finite, it is sampled again one chain at a time, so a failure reads
    as it does in a one-chain run, and the other chains keep their draws.
    """
    try:
        return list(_sample_chains(batch))
    except (ChainDivergedError, FloatingPointError) as exc:
        if len(batch) == 1:
            return [exc]
    return [rows for task in batch for rows in sample_batch([task])]


def _sample_chains(tasks) -> np.ndarray:
    """The retained rows, (chains, rows, parameters), of chain tasks that
    share one design and one configuration but for its seed, sampled as one
    batch; one task samples on one-chain arrays."""
    spec, config, chain = tasks[0]
    rngs = [substream(cfg.seed, STREAM_CHAIN, c) for _, cfg, c in tasks]
    rows = np.empty((len(tasks), config.retained_per_chain, len(parameter_names(spec, config.retain_alpha))))

    def start(s, g):
        return initialize_state(s, g, overdispersed=config.overdispersed_starts)

    if len(tasks) == 1:
        _run_sweeps(start(spec, rngs[0]), spec, rngs[0], config, rows[0], chain)
    else:
        state = stack_states([start(s, g) for (s, _, _), g in zip(tasks, rngs)])
        _run_sweeps(state, stack_specs([s for s, _, _ in tasks]), rngs, config, rows, chain)
    return rows


def _run_sweeps(state: ChainState, spec, rng, config: SamplerConfig, rows: np.ndarray, chain: int) -> None:
    """Run every sweep of ``config`` on ``state``, one chain or a batch, and
    write each retained draw into ``rows``."""
    row = 0
    for t in range(1, config.iterations + 1):
        try:
            for op in _SWEEP:
                op(state, spec, rng)
        except (ValueError, ArithmeticError, ChainDivergedError) as exc:
            bad = nonfinite_blocks(state)
            state_note = f" with non-finite {', '.join(bad)}" if bad else ""
            raise ChainDivergedError(
                f"chain {chain}: {op.__name__} failed at sweep {t}{state_note}: {exc}"
            ) from exc
        _check_finite(state, chain, t)
        if t > config.burn_in and (t - config.burn_in) % config.thin == 0:
            _flatten(state, rows[..., row, :], config.retain_alpha)
            row += 1


def _flatten(state: ChainState, out: np.ndarray, retain_alpha: bool) -> None:
    """Write one draw of each chain into ``out`` in ``parameter_names`` order."""
    p = state.beta.shape[-1]
    c = p + state.cutpoints.shape[-1] - 2
    out[..., :p] = state.beta
    out[..., p:c] = state.cutpoints[..., 1:-1]
    out[..., c] = state.lambda_sq
    out[..., c + 1] = state.phi
    if retain_alpha:
        out[..., c + 2:] = state.alpha


def _check_finite(state: ChainState, chain: int, t: int) -> None:
    """Raise ``ChainDivergedError`` naming the non-finite blocks.

    An inf or NaN in any block makes its inner product or sum, and so the
    probe, non-finite.  A finite probe therefore proves the state finite;
    only a non-finite one (or a finite state so large that the probe
    overflows) pays for the per-block scan.
    """
    scalars = state.lambda_sq + state.phi
    if state.beta.ndim > 1:
        dot, scalars = np.vdot, scalars.sum()
    else:
        dot = _inner if chunked(state) else np.dot
    probe = (dot(state.latent_l, state.latent_v) + dot(state.alpha, state.alpha) + dot(state.beta, state.s)
             + state.cutpoints[..., 1:-1].sum() + scalars)
    if not math.isfinite(probe):
        bad = nonfinite_blocks(state)
        if bad:
            raise ChainDivergedError(f"chain {chain}: non-finite {', '.join(bad)} at sweep {t}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_draws(draws: PosteriorDraws, path, spec: ModelSpec) -> None:
    """Write the draws CSV plus a ``.meta`` sidecar describing the run."""
    path = Path(path)
    draws.to_csv(path)
    meta: dict[str, object] = {"version": __version__}
    if draws.theta is not None:
        meta["theta"] = f"{draws.theta:.17g}"
    pri = spec.priors
    meta.update(
        a1=pri.a1, a2=pri.a2, b1=pri.b1, b2=pri.b2,
        delta_min=pri.delta_min, delta_max=pri.delta_max,
    )
    if draws.config is not None:
        cfg = draws.config
        meta.update(
            iterations=cfg.iterations, burn_in=cfg.burn_in, thin=cfg.thin,
            num_chains=cfg.num_chains, seed=cfg.seed,
            overdispersed_starts=cfg.overdispersed_starts, retain_alpha=cfg.retain_alpha,
        )
    write_kv(path.with_suffix(".meta"), meta)


def read_draws(paths) -> PosteriorDraws:
    """Load the draws CSVs of the list ``paths``; each extra file appends its chains.

    Each file is parsed in chunks of records, one column at a time.  A header
    that names a column twice or no parameter column raises ``SchemaError``
    naming the file.  A row with the wrong number of fields, a ``chain`` or
    ``iteration`` that is not an integer or does not fit in 64 bits, a
    negative ``chain``, or a draw that does not parse as a number raises
    ``SchemaError`` naming the file, the line and the column, at the first
    such row in file order.  Once every cell of every file has parsed, so
    that a later cell that does not parse wins over them, the same is raised
    at the first draw that is not finite (``nan``, ``inf``), then at the
    first row that repeats its chain's iteration.  Last, a chain with fewer
    rows than the longest (a chain number a file skips has none) raises
    ``SchemaError`` naming its file and its number in that file.
    """
    names: list[str] | None = None
    chains, iters, values = [], [], []
    sources = []  # (first row, first chain, path) of each file
    rows = offset = 0
    for path in paths:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            file_chunks = _record_chunks(fh, SchemaError)
            header = next(file_chunks)
            if header is None or header[:2] != ["chain", "iteration"]:
                raise SchemaError(f"{path}: not a draws file (expected chain,iteration,... header)")
            counts = Counter(header)
            repeated = next((name for name in header if counts[name] > 1), None)
            if repeated is not None:
                raise SchemaError(f"{path}: the header names column {repeated!r} {counts[repeated]} times")
            if len(header) == 2:
                raise SchemaError(f"{path}: the header names no parameter column after chain,iteration")
            if names is None:
                names = header[2:]
            elif header[2:] != names:
                raise SchemaError(f"{path}: parameter columns {header[2:]} do not match {names}")
            sources.append((rows, offset, path))
            local_max = -1
            for first, records in file_chunks:
                chain, iteration, block = _parse_draws(path, header, records, first)
                local_max = max(local_max, int(chain.max()))
                chain += offset
                chains.append(chain)
                iters.append(iteration)
                values.append(block)
                rows += len(records)
        offset += local_max + 1
    if not rows:
        raise SchemaError("draws files contain no rows")

    def at(row: int) -> str:  # "path:line" of a row in file order
        first, _, path = next(src for src in reversed(sources) if src[0] <= row)
        return f"{path}:{_line_of(path, row - first)}"

    def numbered(c) -> tuple[int, object]:  # chain c as its file numbers it, and that file
        _, first, path = next(src for src in reversed(sources) if src[1] <= c)
        return int(c) - first, path

    matrix = np.concatenate(values)
    del values  # the chunks take as much memory as the matrix
    if not np.isfinite(matrix).all():
        row, col = (int(i) for i in np.argwhere(~np.isfinite(matrix))[0])
        raise SchemaError(f"{at(row)}: column {names[col]}: {matrix[row, col]} is not finite")
    chain, iteration = np.concatenate(chains), np.concatenate(iters)
    order = np.lexsort((iteration, chain))
    chain, iteration = chain[order], iteration[order]
    repeats = np.flatnonzero((np.diff(chain) == 0) & (np.diff(iteration) == 0)) + 1
    if repeats.size:
        k = repeats[order[repeats].argmin()]  # a stable sort puts a repeat after the row it repeats
        raise SchemaError(f"{at(int(order[k]))}: column iteration: chain {numbered(chain[k])[0]} "
                          f"repeats iteration {iteration[k]}")
    lengths = np.bincount(chain)
    short = np.flatnonzero(lengths != lengths.max())
    if short.size:
        (c, path), (longest, other) = numbered(short[0]), numbered(lengths.argmax())
        raise SchemaError(f"{path}: chain {c} has {lengths[short[0]]} draws, but chain {longest} of {other} "
                          f"has {lengths.max()}; chains must have equal length")
    return PosteriorDraws(names, matrix[order], chain, iteration)


def _parse_draws(path, header: list[str], records: list[list[str]], first: int):
    """Chains, iterations and draws of ``records``, the records of ``path``
    from index ``first`` on, each column converted by ``_convert``.  The
    earliest bad record raises its first failing check, in this order: width,
    cells left to right, a negative chain, then the 64-bit range."""
    width = len(header)
    errors = []  # (record, message), in check order
    if set(map(len, records)) != {width}:
        bad = next(i for i, rec in enumerate(records) if len(rec) != width)
        got = len(records[bad])
        # A short row names its first missing column, a long one the number of its first extra column.
        errors.append((bad, f"column {header[got] if got < width else width + 1}: expected {width} fields, got {got}"))
        records = records[:bad]
    cells = list(zip(*records)) or [()] * width
    chain = _convert(cells[0], int, errors, lambda cell: f"column chain: {cell!r} is not an integer", str)
    iteration = _convert(cells[1], int, errors, lambda cell: f"column iteration: {cell!r} is not an integer", str)
    block = np.empty((len(records), width - 2))
    for j, name in enumerate(header[2:]):
        values = _convert(cells[j + 2], float, errors, lambda cell: f"column {name}: {cell!r} is not a number", str)
        block[:values.size, j] = values
    negative = np.flatnonzero(chain < 0)
    if negative.size:
        errors.append((negative[0], f"column chain: {chain[negative[0]]} is negative"))
    chain = _fit_intp(chain, errors, "column chain:")
    iteration = _fit_intp(iteration, errors, "column iteration:")
    if errors:
        bad, message = min(errors, key=lambda error: error[0])
        raise SchemaError(f"{path}:{_line_of(path, first + bad)}: {message}")
    return chain, iteration, block
