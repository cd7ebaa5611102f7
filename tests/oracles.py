"""Shared independent oracles: quadrature-normalized CDFs and KS distances.

These deliberately avoid the library's sampling code paths: kernels are
written out from the model's full-conditional formulas and normalized by
trapezoid quadrature on a dense grid.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_trapezoid


def ks_statistic(sample, cdf_values) -> float:
    """Two-sided KS distance of a sorted-sample/CDF pair."""
    n = len(sample)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(cdf_values - i / n)), np.max(np.abs(cdf_values - (i - 1) / n))))


def ks_vs_log_kernel(sample, log_kernel, lo, hi, n_grid=40001) -> float:
    """KS distance between a sample and the quadrature-normalized kernel.

    ``log_kernel`` is evaluated vectorized on a dense grid over [lo, hi],
    which must cover essentially all of the kernel's mass.
    """
    grid = np.linspace(lo, hi, n_grid)
    lk = np.asarray(log_kernel(grid), dtype=float)
    lk -= lk[np.isfinite(lk)].max()
    dens = np.exp(lk)
    cdf = cumulative_trapezoid(dens, grid, initial=0.0)
    cdf /= cdf[-1]
    xs = np.sort(np.asarray(sample, dtype=float))
    assert xs[0] >= lo and xs[-1] <= hi, "sample leaves the quadrature grid"
    return ks_statistic(xs, np.interp(xs, grid, cdf))


def ks_vs_cdf(sample, cdf) -> float:
    xs = np.sort(np.asarray(sample, dtype=float))
    return ks_statistic(xs, cdf(xs))


def gig_moment(order: int, rho1: float, rho2: float) -> float:
    """Closed-form GIG(1/2) moments via half-integer Bessel ratios."""
    eta = rho1 / rho2
    omega = rho1 * rho2
    if order == 1:
        return eta * (1.0 + 1.0 / omega)
    if order == 2:
        return eta * eta * (1.0 + 3.0 / omega + 3.0 / omega ** 2)
    raise ValueError("only first and second moments are tabulated")


def dic_per_draw(draws, spec):
    """DIC computed one draw at a time, as ``diagnostics.dic`` once did.

    Returns ``(dic, dbar, d_at_mean, p_d, floored_cells)``; the vectorised
    ``dic`` must reproduce every value bit for bit.
    """
    from ordquant.diagnostics import _CELL_FLOOR
    from ordquant.distributions import sld_cdf

    ds = spec.dataset
    betas = draws.select([f"beta_{k + 1}" for k in range(ds.num_covariates)])
    deltas = draws.select([f"delta_{c}" for c in range(1, ds.num_categories)])
    alphas = draws.select([f"alpha_{i + 1}" for i in range(ds.num_subjects)])
    floored = 0

    def deviance(beta, delta_interior, alpha) -> float:
        nonlocal floored
        cuts = np.concatenate([[-np.inf], delta_interior, [np.inf]])
        shift = alpha[ds.subject_index] + ds.x @ beta
        cells = sld_cdf(cuts[ds.y] - shift, spec.theta) - sld_cdf(cuts[ds.y - 1] - shift, spec.theta)
        small = cells < _CELL_FLOOR
        if small.any():
            floored += int(small.sum())
            cells = np.maximum(cells, _CELL_FLOOR)
        return -2.0 * float(np.log(cells).sum())

    devs = np.array([deviance(betas[r], deltas[r], alphas[r]) for r in range(draws.values.shape[0])])
    dbar = float(devs.mean())
    d_hat = deviance(betas.mean(axis=0), deltas.mean(axis=0), alphas.mean(axis=0))
    p_d = dbar - d_hat
    return dbar + p_d, dbar, d_hat, p_d, floored
