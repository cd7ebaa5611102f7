"""Posterior summaries, convergence diagnostics, and replication metrics.

The module needs only numpy.  The shrink factor's generalized eigenproblem
is reduced to a symmetric one with a Cholesky factor of the within-chain
covariance, so a process that diagnoses draws without sampling them (the
parent of a multi-chain fit, ``ordquant diagnose``) never imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import parallel
from .data import _csv_cells, _write_table
from .distributions import sld_cdf
from .gibbs import PosteriorDraws
from .model import ModelSpec, _shifted_cutpoints, linear_predictor

__all__ = [
    "SummaryTable",
    "summarize",
    "MpsrfSeries",
    "mpsrf",
    "DicResult",
    "dic",
    "relative_bias",
    "relative_efficiency",
    "ReplicationReport",
]

# Probability floor for likelihood cells in the deviance; cells this small
# are counted and flagged rather than producing -inf.
_CELL_FLOOR = 1e-300

_MPSRF_RIDGE = 1e-10


# ---------------------------------------------------------------------------
# Posterior summaries
# ---------------------------------------------------------------------------

@dataclass
class SummaryTable:
    """Per-parameter posterior mean, SD, and equal-tailed credible interval.

    Intervals are empirical quantiles with linear interpolation between
    order statistics (numpy's default rule, Hyndman-Fan type 7); the SD is
    the sample SD with one delta degree of freedom.
    """

    parameters: list[str]
    mean: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float

    def to_csv(self, path) -> None:
        _write_table(path, ["parameter", "mean", "sd", "lower", "upper", "level"], "%s" + ",%.17g" * 5,
                     [_csv_cells(self.parameters), self.mean, self.sd, self.lower, self.upper,
                      [self.level] * len(self.parameters)])

    def to_text(self) -> str:
        width = max([len(p) for p in self.parameters] + [9])
        pct = 100.0 * self.level
        lines = [f"{'parameter':<{width}}  {'mean':>12}  {'sd':>12}  {pct:.0f}% interval"]
        for i, name in enumerate(self.parameters):
            lines.append(
                f"{name:<{width}}  {self.mean[i]:>12.4f}  {self.sd[i]:>12.4f}  "
                f"({self.lower[i]:.4f}, {self.upper[i]:.4f})"
            )
        return "\n".join(lines) + "\n"


def summarize(draws: PosteriorDraws, level: float = 0.95) -> SummaryTable:
    """Column means, SDs, and equal-tailed intervals, all chains pooled."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"credible level must lie in (0, 1), got {level}")
    if draws.values.shape[0] < 2:
        raise ValueError("summaries need at least two retained draws")
    tail = 0.5 * (1.0 - level)
    mat = draws.values
    return SummaryTable(
        parameters=list(draws.names),
        mean=mat.mean(axis=0),
        sd=mat.std(axis=0, ddof=1),
        lower=np.quantile(mat, tail, axis=0),
        upper=np.quantile(mat, 1.0 - tail, axis=0),
        level=level,
    )


# ---------------------------------------------------------------------------
# Multivariate potential scale reduction factor
# ---------------------------------------------------------------------------

@dataclass
class MpsrfSeries:
    iterations: list[int]
    values: list[float]
    ridged: list[bool]
    num_chains: int
    parameters: list[str] = field(default_factory=list)

    def to_csv(self, path) -> None:
        _write_table(path, ["iteration", "mpsrf", "ridged"], "%d,%.17g,%d", [self.iterations, self.values, self.ridged])

    def to_plot_file(self, path) -> None:
        """Two whitespace-separated columns (iteration, value), no header."""
        lines = [f"{t} {v:.17g}" for t, v in zip(self.iterations, self.values)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def to_text(self) -> str:
        lines = [f"multivariate shrink factor, {self.num_chains} chains, "
                 f"parameters: {', '.join(self.parameters)}"]
        lines.append(f"{'iteration':>10}  {'mpsrf':>10}")
        for t, v, r in zip(self.iterations, self.values, self.ridged):
            lines.append(f"{t:>10}  {v:>10.4f}" + ("  (ridged)" if r else ""))
        return "\n".join(lines) + "\n"


def mpsrf(draws: PosteriorDraws, checkpoints) -> MpsrfSeries:
    """Brooks-Gelman multivariate shrink factor at cumulative checkpoints.

    At a checkpoint t the statistic uses every retained draw with sweep
    index <= t from each chain: (n-1)/n + ((m+1)/m) lambda_1, where
    lambda_1 is the top generalized eigenvalue of the between-chain against
    the within-chain covariance.  A singular within-chain matrix gets a
    trace-proportional ridge and the checkpoint is flagged.  Non-finite
    draws, fewer than two draws per chain, or chains that do not share
    their iteration numbers raise ``ValueError``.  k > 1
    checkpoints span the second draw to the last, and one is the last draw.
    The parameters are the coefficients and the cut-points.
    """
    if draws.num_chains < 2 or draws.chain_length < 2:
        raise ValueError("the multivariate shrink factor needs at least two chains of at least two draws")
    parameters = [n for n in draws.names if n.startswith(("beta_", "delta_"))]
    mat = draws.by_chain(parameters)  # (m, n, k)
    m, n_total, _ = mat.shape
    grid = draws.iteration[np.lexsort((draws.iteration, draws.chain))].reshape(m, n_total)
    apart = np.argwhere(grid != grid[0])
    if apart.size:
        c, j = apart[0]
        raise ValueError(f"the multivariate shrink factor needs chains that share their iteration numbers, but "
                         f"draw {j + 1} of chain {c} is at iteration {grid[c, j]}, and chain 0's at {grid[0, j]}")
    iters = grid[0]
    if np.isscalar(checkpoints):
        start = 1 if checkpoints > 1 else n_total - 1
        marks = iters[np.unique(np.linspace(start, n_total - 1, int(checkpoints)).astype(int))]
    else:
        marks = np.asarray(sorted(checkpoints))

    out = MpsrfSeries([], [], [], num_chains=m, parameters=parameters)
    for t in marks:
        n = int(np.searchsorted(iters, t, side="right"))
        if n < 2:
            continue
        value, ridged = _mpsrf_at(mat[:, :n, :])
        out.iterations.append(int(t))
        out.values.append(value)
        out.ridged.append(ridged)
    return out


def _mpsrf_at(mat: np.ndarray) -> tuple[float, bool]:
    m, n, k = mat.shape
    chain_means = mat.mean(axis=1)                      # (m, k)
    within = np.zeros((k, k))
    for j in range(m):
        dev = mat[j] - chain_means[j]
        within += dev.T @ dev / (n - 1)
    within /= m
    grand = chain_means.mean(axis=0)
    dev_means = chain_means - grand
    between_over_n = dev_means.T @ dev_means / (m - 1)  # B/n

    floor = (n - 1) / n
    if not np.any(between_over_n):
        return floor, False
    if not (np.isfinite(between_over_n).all() and np.isfinite(within).all()):
        raise ValueError("the multivariate shrink factor needs finite draws")
    ridged = False
    w = within
    for _ in range(2):
        try:
            # W = L L^T turns B x = lambda W x into the symmetric standard
            # problem L^-1 B L^-T y = lambda y.
            chol = np.linalg.cholesky(w)
            reduced = np.linalg.solve(chol, np.linalg.solve(chol, between_over_n).T)
            eigvals = np.linalg.eigvalsh(reduced)
            if np.isfinite(eigvals).all():
                lam = float(eigvals[-1])
                return floor + (m + 1) / m * lam, ridged
        except np.linalg.LinAlgError:
            pass
        ridge = _MPSRF_RIDGE * max(np.trace(within), 1e-30) / k
        w = within + ridge * np.eye(k)
        ridged = True
    raise ArithmeticError("within-chain covariance is singular even after ridging")


# ---------------------------------------------------------------------------
# Deviance information criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DicResult:
    dic: float
    dbar: float
    d_at_mean: float
    p_d: float
    floored_cells: int


def dic(draws: PosteriorDraws, spec: ModelSpec) -> DicResult:
    """DIC under the marginal skewed-Laplace ordinal likelihood.

    The likelihood of an observation is the difference of the error CDF at
    the standardized cut-points (the mixing variable integrated out
    analytically), conditional on the subject effects; subject effects are
    treated as parameters, so the draws must retain them.  Cells below the
    probability floor are clamped and counted.  The deviances are taken in
    blocks of ``max(1, parallel._CHUNK_OBSERVATIONS // n)`` draws for ``n``
    observations; each is its own row sum, so no bit depends on the block.
    """
    ds = spec.dataset
    position = {name: j for j, name in enumerate(draws.names)}
    beta_names = [f"beta_{k + 1}" for k in range(ds.num_covariates)]
    delta_names = [f"delta_{c}" for c in range(1, ds.num_categories)]
    alpha_names = [f"alpha_{i + 1}" for i in range(ds.num_subjects)]
    missing = [n for n in beta_names + delta_names + alpha_names if n not in position]
    if missing:
        raise ValueError(
            f"deviance needs columns {missing[:4]}{'...' if len(missing) > 4 else ''}; "
            "re-run the fit with subject-effect retention enabled"
        )

    # Each block's draws are copied rows first, then columns, and the means
    # are taken column by column, so no copy of every retained draw is made.
    columns = [[position[n] for n in names] for names in (beta_names, delta_names, alpha_names)]
    rows = draws.values.shape[0]
    block = max(1, parallel._CHUNK_OBSERVATIONS // ds.num_observations)
    devs = np.empty(rows)
    floored = 0
    for start in range(0, rows, block):
        part = draws.values[start:start + block]
        devs[start:start + block], small = _deviances(*(part[:, cols] for cols in columns), spec)
        floored += small
    dbar = float(devs.mean())
    at_mean, small = _deviances(*(np.array([[draws.values[:, j].mean() for j in cols]]) for cols in columns), spec)
    floored += small
    d_hat = float(at_mean[0])
    p_d = dbar - d_hat
    return DicResult(dic=dbar + p_d, dbar=dbar, d_at_mean=d_hat, p_d=p_d, floored_cells=floored)


def _deviances(betas, deltas, alphas, spec: ModelSpec) -> tuple[np.ndarray, int]:
    """Deviances of a block of draws (one per row) and the floored-cell count.

    Each draw's linear predictor comes from one stacked matmul
    (``model.linear_predictor``), which gives every draw the bits of its own
    ``x @ beta``, and its log likelihood is its own row sum, so every
    deviance has the bits of the one-draw computation.
    """
    ds = spec.dataset
    k = betas.shape[0]
    shift = alphas[:, ds.subject_index]
    shift += linear_predictor(ds.x, betas)
    cuts = np.empty((k, ds.num_categories + 1))
    cuts[:, 0] = -np.inf
    cuts[:, 1:-1] = deltas
    cuts[:, -1] = np.inf
    cells = sld_cdf(cuts[:, ds.y] - shift, spec.theta)
    cells -= sld_cdf(_shifted_cutpoints(cuts)[:, ds.y] - shift, spec.theta)
    floored = int(np.count_nonzero(cells < _CELL_FLOOR))
    np.maximum(cells, _CELL_FLOOR, out=cells)
    # One sum per row: a 2-D reduction along axis 1 may add in another order.
    log_lik = [row.sum() for row in np.log(cells, out=cells)]
    return np.multiply(log_lik, -2.0), floored


# ---------------------------------------------------------------------------
# Replication-study metrics
# ---------------------------------------------------------------------------

def relative_bias(estimates, truth: float) -> float:
    """Average of (estimate - truth) / |truth| across replications."""
    truth = float(truth)
    if truth == 0.0:
        raise ValueError("relative bias is undefined for a zero true value")
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size < 1:
        raise ValueError("relative bias needs at least one replication")
    return float(np.mean((estimates - truth) / abs(truth)))


def _mean_sq_deviation(values: np.ndarray) -> float:
    return float(np.mean((values - values.mean()) ** 2))


def relative_efficiency(model_estimates, reference_estimates) -> float:
    """Ratio of mean squared deviations about each replication mean.

    The reference goes in the denominator; comparing a sample of estimates
    against itself is exactly 1 by definition.
    """
    model = np.asarray(model_estimates, dtype=float)
    reference = np.asarray(reference_estimates, dtype=float)
    if model.size < 2 or reference.size < 2:
        raise ValueError("relative efficiency needs at least two replications per model")
    if np.array_equal(model, reference):
        return 1.0
    s2_ref = _mean_sq_deviation(reference)
    if s2_ref == 0.0:
        raise ValueError("reference estimates have zero dispersion")
    return _mean_sq_deviation(model) / s2_ref


@dataclass
class ReplicationReport:
    """Aggregated replication-study metrics for one quantile level."""

    theta: float
    replications: int
    completed: int
    truth: dict[str, float]
    bias: dict[str, float]
    efficiency: dict[str, dict[str, float]] = field(default_factory=dict)  # model label -> per-parameter
    failures: list[str] = field(default_factory=list)

    @property
    def attrition(self) -> int:
        return self.replications - self.completed

    def to_text(self) -> str:
        width = max([len(p) for p in self.bias] + [9])
        lines = [
            f"quantile level {self.theta:g}: {self.completed}/{self.replications} replications completed"
            + (f" ({self.attrition} failed)" if self.attrition else ""),
            f"{'parameter':<{width}}  {'truth':>10}  {'rel. bias':>10}",
        ]
        for name, b in self.bias.items():
            lines.append(f"{name:<{width}}  {self.truth[name]:>10.4f}  {b:>10.4f}")
        for model in sorted(self.efficiency):
            lines.append(f"relative efficiency vs reference, model {model}:")
            for name, value in self.efficiency[model].items():
                lines.append(f"  {name:<{width}}  {value:>10.4f}")
        for msg in self.failures:
            lines.append(f"failed: {msg}")
        return "\n".join(lines) + "\n"
