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
``run_chain(spec, config, jobs)`` samples the chains one after another in
this process when ``jobs`` is 1, and otherwise in up to ``jobs`` worker
processes through ``parallel.ordered_map``; the parent copies each chain's
retained rows into the preallocated draws matrix in chain order, so the
draws are identical for any ``jobs``.  ``ordquant fit`` runs one worker per
chain, capped by the usable CPUs; the replication study's workers call
``run_chain`` with ``jobs=1``, so pools never nest.

Hot-path contract.  Arguments are validated only at public boundaries:
``SamplerConfig``, ``ModelSpec``, ``Priors``, ``OrdinalDataset`` and the
public samplers in ``distributions``.  Each block is a pure function of
``(state, spec, rng)``: what it writes into the state depends on nothing
else, and it calls the unchecked cores ``_gig_half``, ``_trunc_normal`` and,
through ``model.draw_liabilities``, ``_trunc_normal_gathered`` on arrays it
built itself.  There is no cross-block cache; only constants of the dataset are
cached, on the dataset.  ``run_chain`` turns a numerical failure inside a
block, or a non-finite state after a sweep, into ``ChainDivergedError``
naming the chain, the sweep and the block.

Aliasing.  Blocks write into the state's arrays in place where they can:
the location move shifts ``alpha``, the cut-points and ``latent_l``, and
``update_l`` draws the new liabilities over the previous ``latent_l``
array.  An array taken from the state before a block therefore holds the
block's new values after it; ``ChainState.copy()`` keeps a draw.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import _line_of, _record_chunks, _write_table
from .errors import ChainDivergedError, ConfigError, SchemaError
from .kvfile import write_kv
from .model import RHO1_SQ_FLOOR, ChainState, ModelSpec, draw_liabilities, initialize_state, nonfinite_blocks
from .distributions import _gig_half, _trunc_normal
from .parallel import ordered_map
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
_INTP = np.iinfo(np.intp)


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
    cuts = state.cutpoints
    lo = spec.priors.delta_min - cuts[1]
    hi = spec.priors.delta_max - cuts[-2]
    if not lo < hi:
        return  # both end cut-points pinned at the support: g = 0 exactly
    n = state.alpha.size
    mean = -float(state.alpha.sum()) / n
    variance = state.phi / n
    g = rng.normal(mean, math.sqrt(variance))
    if not lo < g < hi:
        g = float(_trunc_normal(*(np.array([a]) for a in (mean, variance, lo, hi)), rng)[0])
    state.alpha += g
    cuts[1:-1] += g
    state.latent_l += g


def update_v(state: ChainState, spec: ModelSpec, rng) -> None:
    """Mixing variables: GIG(1/2) with rho1^2 = residual^2 / 2, rho2^2 = 1/2.

    The location move runs first: it leaves the residual L - x beta - alpha,
    and so this block's conditional, unchanged.
    """
    _shift_location(state, spec, rng)
    ds = spec.dataset
    resid = ds.x @ state.beta
    np.subtract(state.latent_l, resid, out=resid)
    effect = state.alpha.take(ds.subject_index)
    resid -= effect
    rho1_sq = np.multiply(resid, 0.5, out=effect)
    rho1_sq *= resid
    np.maximum(rho1_sq, RHO1_SQ_FLOOR, out=rho1_sq)
    state.latent_v = _gig_half(np.sqrt(rho1_sq, out=rho1_sq), _SQRT_HALF, rng)


def update_beta(state: ChainState, spec: ModelSpec, rng) -> None:
    """Coefficients, swept in ascending index against fresh partial residuals."""
    ds = spec.dataset
    x, v, beta = ds.x, state.latent_v, state.beta
    inv2v = np.divide(0.5, v)
    r = x @ beta
    np.subtract(state.latent_l, r, out=r)
    term = state.alpha.take(ds.subject_index)
    r -= term
    r -= np.multiply(v, spec.xi, out=term)
    for k, s_k in enumerate(state.s.tolist()):
        xk = x[:, k]
        r += np.multiply(xk, beta[k], out=term)
        precision = np.dot(np.multiply(xk, xk, out=term), inv2v) + 1.0 / s_k
        variance = 1.0 / precision
        mean = variance * np.dot(np.multiply(r, xk, out=term), inv2v)
        b_new = rng.normal(mean, math.sqrt(variance))
        beta[k] = b_new
        r -= np.multiply(xk, b_new, out=term)


def update_s(state: ChainState, spec: ModelSpec, rng) -> None:
    """Coefficient scales: GIG(1/2) with rho1^2 = beta_k^2, rho2^2 = lambda^2.

    One scalar draw per coefficient, in index order: the generator gives the
    same numbers as one call with an array of means, without that call's
    fixed cost of about 10 microseconds.
    """
    rho2 = math.sqrt(state.lambda_sq)
    state.s = np.array([_gig_half(math.sqrt(max(b_k * b_k, RHO1_SQ_FLOOR)), rho2, rng)
                        for b_k in state.beta.tolist()])


def update_lambda_sq(state: ChainState, spec: ModelSpec, rng) -> None:
    """Shrinkage rate squared: gamma(p + a1, rate = sum(s)/2 + a2)."""
    rate = 0.5 * float(state.s.sum()) + spec.priors.a2
    state.lambda_sq = rng.gamma(spec.dataset.num_covariates + spec.priors.a1, 1.0 / rate)


def update_alpha(state: ChainState, spec: ModelSpec, rng) -> None:
    """Subject effects: normal with data precision sum_j 1/(2 v_ij) + 1/phi."""
    ds = spec.dataset
    v = state.latent_v
    inv2v = np.divide(0.5, v)
    variance = np.bincount(ds.subject_index, weights=inv2v, minlength=ds.num_subjects)
    variance += 1.0 / state.phi
    np.divide(1.0, variance, out=variance)
    eta = ds.x @ state.beta
    np.subtract(state.latent_l, eta, out=eta)
    eta -= np.multiply(v, spec.xi)
    eta *= inv2v
    mean = np.bincount(ds.subject_index, weights=eta, minlength=ds.num_subjects)
    mean *= variance
    # The draws rng.normal(mean, sd) would make, without its array-parameter cost.
    alpha = rng.standard_normal(ds.num_subjects)
    alpha *= np.sqrt(variance, out=variance)
    alpha += mean
    state.alpha = alpha


def update_phi(state: ChainState, spec: ModelSpec, rng) -> None:
    """Random-effect variance: inverse-gamma(N/2 + b1, scale = sum(alpha^2)/2 + b2)."""
    scale = 0.5 * float(np.dot(state.alpha, state.alpha)) + spec.priors.b2
    state.phi = 1.0 / rng.gamma(0.5 * spec.dataset.num_subjects + spec.priors.b1, 1.0 / scale)


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
    largest = [-math.inf] * (C + 1)
    smallest = [math.inf] * (C + 1)
    for c, top, bottom in zip(present, np.maximum.reduceat(runs, starts).tolist(),
                              np.minimum.reduceat(runs, starts).tolist()):
        largest[c] = top
        smallest[c] = bottom
    pri = spec.priors
    cuts = state.cutpoints
    bounds = cuts.tolist()
    for c in range(1, C):
        lo = max(largest[c], bounds[c - 1], pri.delta_min)
        hi = min(smallest[c + 1], bounds[c + 1], pri.delta_max)
        if not lo < hi:
            raise ChainDivergedError(
                f"cut-point {c} has empty conditional support [{lo}, {hi}]; "
                "liability thresholding was inconsistent before the update"
            )
        bounds[c] = cuts[c] = rng.uniform(lo, hi)


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

    def by_chain(self, names=None) -> np.ndarray:
        """Draws as a (chains, draws, parameters) array."""
        names = list(names) if names is not None else self.names
        mat = self.select(names)
        m = self.num_chains
        order = np.lexsort((self.iteration, self.chain))
        return mat[order].reshape(m, self.chain_length, len(names))

    def to_csv(self, path) -> None:
        """One row per draw, each draw written with ``%.17g``, streamed in
        chunks, so no copy of the whole file is held."""
        _write_table(path, ["chain", "iteration", *self.names], "%d,%d" + ",%.17g" * len(self.names),
                     [self.chain, self.iteration, *self.values.T])


def run_chain(spec: ModelSpec, config: SamplerConfig, jobs: int = 1) -> PosteriorDraws:
    """Run the sampler and collect retained draws from every chain.

    With ``jobs > 1`` the chains run in up to ``jobs`` worker processes, and
    each chain's rows are copied into the draws matrix in chain order as they
    arrive; the draws are identical for any ``jobs``.  A numerical failure
    inside a sweep raises ``ChainDivergedError`` naming the chain, the sweep
    and the block.
    """
    names = parameter_names(spec, config.retain_alpha)
    rows = config.retained_per_chain
    values = np.empty((rows * config.num_chains, len(names)))
    tasks = [(spec, config, chain) for chain in range(config.num_chains)]
    for chain, block in enumerate(ordered_map(_sample_chain, tasks, jobs)):
        values[chain * rows:(chain + 1) * rows] = block
    chain_ids = np.repeat(np.arange(config.num_chains, dtype=np.intp), rows)
    iterations = np.tile(config.burn_in + config.thin * np.arange(1, rows + 1, dtype=np.intp), config.num_chains)
    return PosteriorDraws(names, values, chain_ids, iterations, theta=spec.theta, config=config)


def _sample_chain(task: tuple[ModelSpec, SamplerConfig, int]) -> np.ndarray:
    """Run chain ``c`` of ``config`` and return its retained rows."""
    spec, config, chain = task
    rows = np.empty((config.retained_per_chain, len(parameter_names(spec, config.retain_alpha))))
    rng = substream(config.seed, STREAM_CHAIN, chain)
    state = initialize_state(spec, rng, overdispersed=config.overdispersed_starts)
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
            _flatten(state, rows[row], config.retain_alpha)
            row += 1
    return rows


def _flatten(state: ChainState, out: np.ndarray, retain_alpha: bool) -> None:
    """Write one draw into ``out`` in ``parameter_names`` order."""
    p = state.beta.size
    c = p + state.cutpoints.size - 2
    out[:p] = state.beta
    out[p:c] = state.cutpoints[1:-1]
    out[c] = state.lambda_sq
    out[c + 1] = state.phi
    if retain_alpha:
        out[c + 2:] = state.alpha


def _check_finite(state: ChainState, chain: int, t: int) -> None:
    """Raise ``ChainDivergedError`` naming the non-finite blocks.

    An inf or NaN in any block makes its dot product or sum, and so the
    probe, non-finite.  A finite probe therefore proves the state finite;
    only a non-finite one (or a finite state so large that the probe
    overflows) pays for the per-block scan.
    """
    probe = (np.dot(state.latent_l, state.latent_v) + np.dot(state.alpha, state.alpha)
             + np.dot(state.beta, state.s) + state.cutpoints[1:-1].sum() + state.lambda_sq + state.phi)
    if not math.isfinite(probe):
        bad = nonfinite_blocks(state)
        if bad:
            raise ChainDivergedError(f"chain {chain}: non-finite {', '.join(bad)} at sweep {t}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_draws(draws: PosteriorDraws, path, spec: ModelSpec | None = None) -> None:
    """Write the draws CSV plus a ``.meta`` sidecar describing the run."""
    path = Path(path)
    draws.to_csv(path)
    meta: dict[str, object] = {"version": __version__}
    if draws.theta is not None:
        meta["theta"] = f"{draws.theta:.17g}"
    if spec is not None:
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
    """Load one or more draws CSVs; each extra file appends its chains.

    Each file is parsed in chunks of records, one column at a time.  A row
    with the wrong number of fields, a ``chain`` or ``iteration`` that is not
    an integer or does not fit in 64 bits, a negative ``chain``, or a draw
    that does not parse as a number raises ``SchemaError`` naming the file,
    the line and the column, at the first such row in file order.  A draw
    that parses but is not finite (``nan``, ``inf``) is reported the same
    way, but only after every cell of every file has parsed, so a later cell
    that does not parse wins over an earlier ``nan``.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    names: list[str] | None = None
    chains, iters, values = [], [], []
    sources = []  # (first row, path, header) of each file
    rows = offset = 0
    for path in paths:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:2] != ["chain", "iteration"]:
                raise SchemaError(f"{path}: not a draws file (expected chain,iteration,... header)")
            if names is None:
                names = header[2:]
            elif header[2:] != names:
                raise SchemaError(f"{path}: parameter columns {header[2:]} do not match {names}")
            sources.append((rows, path, header))
            local_max = -1
            for first, records in _record_chunks(reader, len(header)):
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
    matrix = np.concatenate(values)
    del values  # the chunks take as much memory as the matrix
    if not np.isfinite(matrix).all():
        row, col = (int(i) for i in np.argwhere(~np.isfinite(matrix))[0])
        first, path, header = next(src for src in reversed(sources) if src[0] <= row)
        raise SchemaError(f"{path}:{_line_of(path, row - first)}: column {header[col + 2]}: "
                          f"{matrix[row, col]} is not finite")
    draws = PosteriorDraws(names, matrix, np.concatenate(chains), np.concatenate(iters))
    order = np.lexsort((draws.iteration, draws.chain))
    return replace(draws, values=draws.values[order], chain=draws.chain[order], iteration=draws.iteration[order])


def _parse_draws(path, header: list[str], records: list[list[str]], first: int):
    """Chains, iterations and draws of ``records``, the records of ``path``
    from index ``first`` on, converted one column at a time.  A chunk that
    does not convert is searched row by row for its first bad cell."""
    n, width = len(records), len(header)
    if set(map(len, records)) == {width}:
        cells = list(zip(*records))
        try:
            chain = np.fromiter(map(int, cells[0]), np.intp, n)
            iteration = np.fromiter(map(int, cells[1]), np.intp, n)
            block = np.empty((n, width - 2))
            for j, column in enumerate(cells[2:]):
                block[:, j] = np.fromiter(map(float, column), np.float64, n)
        except (ValueError, OverflowError):
            pass
        else:
            if chain.min() >= 0:
                return chain, iteration, block
    for i, rec in enumerate(records):
        fault = _row_fault(header, rec)
        if fault:
            raise SchemaError(f"{path}:{_line_of(path, first + i)}: {fault}")
    raise SchemaError(f"{path}: records {first + 1}..{first + n} do not parse")


def _row_fault(header: list[str], rec: list[str]) -> str | None:
    """What is wrong with one draws record, at its first bad cell, or None."""
    if len(rec) != len(header):
        # A short row names its first missing column, a long one the
        # number of its first extra column.
        column = header[len(rec)] if len(rec) < len(header) else len(header) + 1
        return f"column {column}: expected {len(header)} fields, got {len(rec)}"
    for j, (name, cell) in enumerate(zip(header, rec)):
        try:
            int(cell) if j < 2 else float(cell)
        except ValueError:
            return f"column {name}: {cell!r} is not {'an integer' if j < 2 else 'a number'}"
    c, t = int(rec[0]), int(rec[1])
    if c < 0:
        return f"column chain: {c} is negative"
    for name, value in (("chain", c), ("iteration", t)):
        if not _INTP.min <= value <= _INTP.max:
            return f"column {name}: {value} does not fit in a {_INTP.bits}-bit integer"
    return None

