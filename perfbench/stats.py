"""Bulk effective sample size and split R-hat, numpy only.

The benchmark carries its own yardstick so that a change to the library's
diagnostics cannot move it.  Both statistics follow Vehtari, Gelman,
Simpson, Carpenter and Buerkner (2021), "Rank-normalization, folding, and
localization: an improved R-hat", Bayesian Analysis 16(2):667-718:
chains are split in half, the pooled draws are rank-normalised, the
autocorrelation comes from an FFT, and the sum of autocorrelations is cut
by Geyer's (1992) initial-monotone-sequence rule.

Draws are passed as an array of shape (chains, draws) or
(chains, draws, parameters); results are per parameter.
"""

from __future__ import annotations

import numpy as np

# Wichura (1988), algorithm AS241 (PPND16): inverse standard-normal CDF,
# accurate to about 1e-16.  Coefficients are highest order first.
_AS241_CENTRAL_NUM = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
                      4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
                      1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_CENTRAL_DEN = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
                      2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
                      4.2313330701600911252e1, 1.0)
_AS241_NEAR_NUM = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
                   1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
                   4.63033784615654529590e0, 1.42343711074968357734e0)
_AS241_NEAR_DEN = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
                   1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
                   2.05319162663775882187e0, 1.0)
_AS241_FAR_NUM = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
                  2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
                  5.46378491116411436990e0, 6.65790464350110377720e0)
_AS241_FAR_DEN = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
                  7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
                  5.99832206555887937690e-1, 1.0)


def normal_quantile(p) -> np.ndarray:
    """Inverse standard-normal CDF for probabilities strictly inside (0, 1)."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    r_central = 0.180625 - q * q
    central = q * np.polyval(_AS241_CENTRAL_NUM, r_central) / np.polyval(_AS241_CENTRAL_DEN, r_central)
    r = np.sqrt(-np.log(np.where(q <= 0.0, p, 1.0 - p)))
    near = np.polyval(_AS241_NEAR_NUM, r - 1.6) / np.polyval(_AS241_NEAR_DEN, r - 1.6)
    far = np.polyval(_AS241_FAR_NUM, r - 5.0) / np.polyval(_AS241_FAR_DEN, r - 5.0)
    tail = np.where(r <= 5.0, near, far)
    return np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail))


def _as_3d(draws) -> np.ndarray:
    arr = np.asarray(draws, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[1] < 4:
        raise ValueError("draws must have shape (chains, draws[, parameters]) with at least 4 draws")
    return arr


def split_chains(draws) -> np.ndarray:
    """Each chain's first and last halves as two chains (an odd middle draw is dropped)."""
    arr = _as_3d(draws)
    half = arr.shape[1] // 2
    return np.concatenate([arr[:, :half], arr[:, arr.shape[1] - half:]], axis=0)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    first = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    group = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (starts + 1 + ends)[group]
    return ranks


def rank_normalize(draws) -> np.ndarray:
    """Normal scores of the ranks pooled over chains, per parameter."""
    arr = _as_3d(draws)
    m, n, k = arr.shape
    out = np.empty_like(arr)
    total = m * n
    for j in range(k):
        ranks = _average_ranks(arr[:, :, j].ravel())
        out[:, :, j] = normal_quantile((ranks - 0.375) / (total + 0.25)).reshape(m, n)
    return out


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance along axis 1 by zero-padded FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def _ess_one(chains: np.ndarray) -> float:
    m, n = chains.shape
    if np.ptp(chains) == 0.0:
        return float("nan")
    acov = _autocovariance(chains)
    chain_mean = chains.mean(axis=1)
    mean_var = float(np.mean(acov[:, 0])) * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += float(np.var(chain_mean, ddof=1))
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum autocorrelation pairs while the pair sums stay positive ...
    pairs = rho[: 2 * ((n - 1) // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs <= 0.0)
    used = pairs[: negative[0]] if negative.size else pairs
    # ... and make them monotone non-increasing.
    used = np.minimum.accumulate(used)
    tau = -1.0 + 2.0 * float(used.sum())
    tau = max(tau, 1.0 / np.log10(m * n))
    return m * n / tau


def ess_bulk(draws) -> np.ndarray:
    """Bulk effective sample size per parameter (split, rank-normalised)."""
    z = rank_normalize(split_chains(draws))
    return np.array([_ess_one(z[:, :, j]) for j in range(z.shape[2])])


def split_rhat(draws) -> np.ndarray:
    """Rank-normalised split R-hat per parameter."""
    z = rank_normalize(split_chains(draws))
    n = z.shape[1]
    within = z.var(axis=1, ddof=1).mean(axis=0)
    between = n * z.mean(axis=1).var(axis=0, ddof=1)
    return np.sqrt((between / within + n - 1.0) / n)
