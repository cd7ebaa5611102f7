"""Eight-step Gibbs sampler and chain scheduling; ``data`` holds the draws' container and reader.

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

Chain scheduling.  A chain is strictly sequential and draws only from its
own substream ``substream(seed, STREAM_CHAIN, c)``.  Every chain is
sampled in a batch, one chain alone as a K = 1 batch: ``batched`` alone
decides how chains become batches, ``sample_batch`` samples one, and one
call of a block advances every chain of it.  ``run_chain`` runs the
batches in up to ``jobs`` worker processes and copies each chain's rows in
chain order, so the draws are identical for any ``jobs`` and any batching.
A chain of more than ``parallel._CHUNK_OBSERVATIONS`` observations
(``model.chunked``) is a batch of its own, whose per-observation passes
run over observation chunks on the thread share (``model.per_observation``).

Hot-path contract.  Arguments are validated only at public boundaries:
``SamplerConfig``, ``ModelSpec``, ``Priors``, ``OrdinalDataset`` and the
public samplers in ``distributions``.  Each block is a pure function of
``(state, spec, rng)`` that calls the unchecked cores ``_gig_half``,
``_trunc_normal`` and ``_trunc_normal_gathered`` on arrays it built itself.
Each block has one body, for a batch: ``model.stack_specs``'s
``BatchSpec``, ``model.stack_states``'s state, whose arrays carry a leading
chain axis, and the chains' generators in chain order.  The entry shim,
``model.takes_one_chain``, runs that body on one chain's own state,
``ModelSpec`` and generator, viewed as a K = 1 batch.  Every chain draws
from its own generator in its one-chain order, and every reduction gives a
chain the bits it has alone: a stacked ``matmul`` for ``x @ beta``, a
``take`` or ``bincount`` over chain-offset indices, a per-chain inner
product or row sum.  Only the per-chain helpers (``_stacked``, ``_dots``,
``model.linear_predictor``) read how many chains a batch holds.  A chunked
chain calls no BLAS, so its draws depend on neither the thread count nor
the BLAS (``model.per_observation``); an unchunked chain's inner products
and ``x @ beta`` call the BLAS, whose last bits change with its thread
count above about 10k elements.  There is no cross-block cache; only
constants of the dataset are cached, on the dataset.  ``run_chain`` turns
a numerical failure inside a block, or a non-finite state after a sweep,
into ``ChainDivergedError`` naming the chain, the sweep and the block; in
a chunked pass every chunk runs, and the first failure in chunk order is
the one raised.

Aliasing.  Blocks write into the state's arrays in place where they can:
the location move shifts ``alpha``, the cut-points and ``latent_l``,
``update_v`` writes the new mixing variables over the previous
``latent_v`` array, and ``update_l`` draws the new liabilities over the
previous ``latent_l`` array.  A chain's row of a batch, and the shim's
``[None]`` view of one chain's array, are views, so an array taken from
the state before a block holds the block's new values after it;
``ChainState.copy()`` keeps a draw.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .data import PosteriorDraws
from .errors import ChainDivergedError, ConfigError
from .kvfile import write_kv
from .model import (RHO1_SQ_FLOOR, BatchSpec, ChainState, ModelSpec, chunked, draw_liabilities, initialize_state,
                    nonfinite_blocks, per_observation, stack_specs, stack_states, takes_one_chain)
from .distributions import _gig_half, _trunc_normal
from .streams import STREAM_CHAIN, substream

__all__ = [
    "SamplerConfig",
    "run_chain",
    "parameter_names",
    "write_draws",
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
    is chain k's row of each of ``blocks``, stacked on a leading chain axis:
    each block writes its per-chain draws once, as ``draw``.  A K = 1
    batch's one draw is viewed as a batch, without the list."""
    if len(rng) == 1:
        return np.asarray(draw(rng[0], *[block[0] for block in blocks]))[None]
    return np.array([draw(*chain) for chain in zip(rng, *blocks)])


def _dots(by_chunk: bool, a, b, w=None, term=None) -> list:
    """Each chain's inner product of its rows of ``a`` and ``b``, weighted
    by ``w`` when given (``term``, of the product's shape, is then scratch):
    an unchunked chain's by ``np.vdot``, a K = 1 batch's without the loop
    over chains, and a chunked chain's by ``np.einsum``, which calls no BLAS
    (``np.vdot`` kept every bit there, but its threads competed with the
    chunk threads: a 200k-observation sweep took 49-53 ms, not 31, on 2 CPUs)."""
    if by_chunk:
        rows = zip(a, b) if w is None else zip(a, b, w)
        return [np.einsum("i,i->" if w is None else "i,i,i->", *row) for row in rows]
    if w is not None:
        a, b = np.multiply(a, b, out=term), w
    if len(a) == 1:
        return [np.vdot(a, b)]
    return [np.vdot(u, v) for u, v in zip(a, b)]


def _shift_location(state: ChainState, spec: BatchSpec, rng) -> None:
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

    def move(g, cuts, alpha, latent_l, phi):
        lo = pri.delta_min - cuts[1]
        hi = pri.delta_max - cuts[-2]
        if not lo < hi:
            # Both end cut-points pinned at the support: g = 0 exactly, and
            # the state keeps every bit.
            return
        mean = -float(np.add.reduce(alpha)) / n
        variance = phi / n
        shift = mean + math.sqrt(variance) * g.standard_normal()
        if not lo < shift < hi:
            shift = float(_trunc_normal(*(np.array([a]) for a in (mean, variance, lo, hi)), g)[0])
        alpha += shift
        cuts[1:-1] += shift
        latent_l += shift

    # Each chain's rows are views, so each chain moves its own in place.
    for chain in zip(rng, state.cutpoints, state.alpha, state.latent_l, state.phi):
        move(*chain)


@takes_one_chain
def update_v(state: ChainState, spec: BatchSpec, rng) -> None:
    """Mixing variables: GIG(1/2) with rho1^2 = residual^2 / 2, rho2^2 = 1/2.

    The location move runs first: it leaves the residual L - x beta - alpha,
    and so this block's conditional, unchanged.  The draws run per
    observation chunk (``model.per_observation``) and are written over
    ``state.latent_v``.
    """
    _shift_location(state, spec, rng)
    ds = spec.dataset

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
        np.divide(1.0, _stacked(wald, g, means), out=state.latent_v[rows])

    per_observation(state, spec, draw, rng)


@takes_one_chain
def update_beta(state: ChainState, spec: BatchSpec, rng) -> None:
    """Coefficients, swept in ascending index against fresh partial residuals.

    One ``model.per_observation`` pass builds each part's residuals, weights
    1 / (2 v) and scratch: one part, or one per observation chunk.
    Coefficient k then runs one pass over the parts, which moves the
    residuals from coefficient k - 1 to k and returns each chain's two
    inner products of the part (``_dots``); the parts' sums are added in
    part order.  Each chain's draw is its own scalar call, so a batch draws
    every chain's bits.
    """
    ds = spec.dataset
    beta = state.beta
    by_chunk = chunked(state)

    def residuals(rows, r, _):
        v = state.latent_v[rows]
        np.subtract(state.latent_l[rows], r, out=r)
        term = state.alpha.take(ds.subject_index[rows])
        r -= term
        r -= np.multiply(v, spec.xi, out=term)
        return ds.columns[rows], r, np.divide(0.5, v), term

    def sums(k, j):
        x, r, inv2v, term = parts[j]
        if k > 0:
            r -= np.multiply(x[:, k - 1], coefficients[k - 1], out=term)
        xk = x[:, k]
        r += np.multiply(xk, coefficients[k], out=term)
        return _dots(by_chunk, xk, xk, inv2v, term), _dots(by_chunk, r, xk, inv2v, term)

    coefficients = beta.T[..., None]  # row k, (K, 1), is a view of coefficient k
    parts = per_observation(state, spec, residuals)
    for k, s_k in enumerate(state.s.T.tolist()):
        (precision, rx), *later = parallel.map_chunks(partial(sums, k), len(parts))
        for part_precision, part_rx in later:
            precision = np.add(precision, part_precision)
            rx = np.add(rx, part_rx)
        for chain, (g, chain_rx, chain_precision, chain_s) in enumerate(zip(rng, rx, precision, s_k)):
            variance = 1.0 / (chain_precision + 1.0 / chain_s)
            beta[chain, k] = variance * chain_rx + math.sqrt(variance) * g.standard_normal()


@takes_one_chain
def update_s(state: ChainState, spec: BatchSpec, rng) -> None:
    """Coefficient scales: GIG(1/2) with rho1^2 = beta_k^2, rho2^2 = lambda^2.

    One scalar draw per coefficient, in index order: the generator gives the
    same numbers as one call with an array of means, without that call's
    fixed cost of about 10 microseconds.
    """
    def draw(g, beta, lambda_sq):
        rho2 = math.sqrt(lambda_sq)
        return [_gig_half(math.sqrt(max(b_k * b_k, RHO1_SQ_FLOOR)), rho2, g) for b_k in beta.tolist()]

    state.s = _stacked(draw, rng, state.beta, state.lambda_sq)


@takes_one_chain
def update_lambda_sq(state: ChainState, spec: BatchSpec, rng) -> None:
    """Shrinkage rate squared: gamma(p + a1, rate = sum(s)/2 + a2)."""
    pri = spec.priors
    shape = state.beta.shape[-1] + pri.a1

    def draw(g, s):
        return g.gamma(shape, 1.0 / (0.5 * float(np.add.reduce(s)) + pri.a2))

    state.lambda_sq = _stacked(draw, rng, state.s)


@takes_one_chain
def update_alpha(state: ChainState, spec: BatchSpec, rng) -> None:
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
    variance += 1.0 / state.phi[:, None]
    np.divide(1.0, variance, out=variance)
    mean *= variance
    # The draws g.normal(mean, sd) would make, without its array-parameter cost.
    alpha = _stacked(lambda g: g.standard_normal(ds.num_subjects), rng)
    alpha *= np.sqrt(variance, out=variance)
    alpha += mean
    state.alpha = alpha


def _subject_sums(ds, index: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each chain's per-subject sums of ``weights``, the terms of the
    observations ``index`` holds the subjects of: one ``bincount`` over the
    chain-offset subject index adds each chain's terms in its one-chain
    order."""
    chains = len(weights)
    sums = np.bincount(index.ravel(), weights=weights.ravel(), minlength=chains * ds.num_subjects)
    return sums.reshape(chains, ds.num_subjects)


@takes_one_chain
def update_phi(state: ChainState, spec: BatchSpec, rng) -> None:
    """Random-effect variance: inverse-gamma(N/2 + b1, scale = sum(alpha^2)/2 + b2)."""
    pri = spec.priors
    shape = 0.5 * spec.dataset.num_subjects + pri.b1

    def draw(g, squares):
        return 1.0 / g.gamma(shape, 1.0 / (0.5 * float(squares) + pri.b2))

    state.phi = _stacked(draw, rng, _dots(chunked(state), state.alpha, state.alpha))


@takes_one_chain
def update_l(state: ChainState, spec: BatchSpec, rng) -> None:
    """Liabilities: normal truncated to each observation's category interval,
    drawn over the previous liability array (``model.draw_liabilities``)."""
    draw_liabilities(state, spec, rng)


@takes_one_chain
def update_delta(state: ChainState, spec: BatchSpec, rng) -> None:
    """Interior cut-points, swept in increasing order with fresh neighbours.

    Cut-point c is uniform on (L_c, U_c).  L_c is the largest of: the
    liabilities in category c, the freshly drawn cut-point c - 1 and the
    prior floor.  U_c is the smallest of: the liabilities in category c + 1,
    the next cut-point and the prior ceiling.  An empty category contributes
    -inf / +inf, so the bound falls back to the neighbours.
    """
    ds = spec.dataset
    C = ds.num_categories
    order, starts, present = ds.runs
    runs = state.latent_l.take(order)
    largest = [-math.inf] * state.cutpoints.size
    smallest = [math.inf] * state.cutpoints.size
    for c, top, bottom in zip(present, np.maximum.reduceat(runs, starts).tolist(),
                              np.minimum.reduceat(runs, starts).tolist()):
        largest[c] = top
        smallest[c] = bottom
    pri = spec.priors
    for base, g, row in zip(range(0, state.cutpoints.size, C + 1), rng, state.cutpoints):
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
    batch; one task is a K = 1 batch."""
    spec, config, chain = tasks[0]
    rngs = [substream(cfg.seed, STREAM_CHAIN, c) for _, cfg, c in tasks]
    rows = np.empty((len(tasks), config.retained_per_chain, len(parameter_names(spec, config.retain_alpha))))
    state = stack_states([initialize_state(s, g, overdispersed=config.overdispersed_starts)
                          for (s, _, _), g in zip(tasks, rngs)])
    _run_sweeps(state, stack_specs([s for s, _, _ in tasks]), rngs, config, rows, chain)
    return rows


def _run_sweeps(state: ChainState, spec: BatchSpec, rng, config: SamplerConfig, rows: np.ndarray,
                chain: int) -> None:
    """Run every sweep of ``config`` on the batch ``state``, and write each
    chain's retained draws into its row of ``rows``."""
    row = 0
    bodies = [getattr(op, "__wrapped__", op) for op in _SWEEP]  # each batch body, past the entry shim
    for t in range(1, config.iterations + 1):
        try:
            for op in bodies:
                op(state, spec, rng)
        except (ValueError, ArithmeticError, ChainDivergedError) as exc:
            bad = nonfinite_blocks(state)
            state_note = f" with non-finite {', '.join(bad)}" if bad else ""
            raise ChainDivergedError(
                f"chain {chain}: {op.__name__} failed at sweep {t}{state_note}: {exc}"
            ) from exc
        _check_finite(state, chain, t)
        if t > config.burn_in and (t - config.burn_in) % config.thin == 0:
            _flatten(state, rows[:, row], config.retain_alpha)
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
    # A chunked chain's inner products without the BLAS.
    dot = (lambda a, b: np.einsum("i,i->", np.ravel(a), np.ravel(b))) if chunked(state) else np.vdot
    probe = (dot(state.latent_l, state.latent_v) + dot(state.alpha, state.alpha) + dot(state.beta, state.s)
             + dot(state.lambda_sq, state.phi) + np.add.reduce(state.cutpoints[:, 1:-1], axis=None))
    if not math.isfinite(probe):
        bad = nonfinite_blocks(state)
        if bad:
            raise ChainDivergedError(f"chain {chain}: non-finite {', '.join(bad)} at sweep {t}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_draws(draws: PosteriorDraws, path, spec: ModelSpec) -> None:
    """Write the draws CSV plus a ``.meta`` sidecar recording the priors and the ``SamplerConfig``."""
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
