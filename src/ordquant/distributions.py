"""Skewed-Laplace CDF and random-variate generators for the ordinal quantile sampler.

The module defines the skewed-Laplace CDF, which the deviance uses, and the
two samplers the Gibbs sweep needs beyond the generator's own gamma, normal
and uniform draws:

* ``sample_gig(0.5, rho1, rho2, rng)``: density ~ x^(-1/2) exp{-(rho1^2 / x + rho2^2 x) / 2}
* ``sample_trunc_normal(mean, variance, lower, upper, rng)``: N(mean, variance)
  restricted to (lower, upper)

Each returns one draw per element of its arguments' broadcast shape, and
``sld_cdf(eps, theta)`` an array of the shape of ``eps``.

All samplers draw from an explicit ``numpy.random.Generator``.  A generator
is single-owner and must not be shared across concurrent callers; distinct
generators may run in parallel.  The CDF is pure and safe for unrestricted
concurrent use.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "sld_cdf",
    "sample_gig",
    "sample_trunc_normal",
]

# Interval bounds further than this many SDs into one tail switch the
# truncated-normal sampler from inverse-CDF to exponential rejection.
_TAIL_CUTOFF = 4.0
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def sld_cdf(eps, theta):
    """Exact CDF of the skewed-Laplace law with unit scale.

    F(e) = theta exp{(1-theta) e} for e <= 0 and
    F(e) = 1 - (1-theta) exp{-theta e} for e > 0, so F(0) = theta.  The
    sign of ``eps`` picks the exponent, so each cell costs one ``exp``.
    """
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {theta}")
    eps = np.asarray(eps, dtype=float)
    left = eps <= 0.0
    e = np.exp(eps * np.where(left, 1.0 - theta, -theta))
    return np.where(left, theta * e, 1.0 - (1.0 - theta) * e)


# ---------------------------------------------------------------------------
# Generalized inverse Gaussian
# ---------------------------------------------------------------------------

def sample_gig(nu, rho1, rho2, rng):
    """Draw from the GIG law with kernel x^(nu-1) exp{-(rho1^2/x + rho2^2 x)/2}.

    Only nu = 1/2, the order every GIG draw of the Gibbs sweep has, is
    supported; other orders raise ``ValueError``.  The draw is exact and
    O(1) through the reciprocal identity with the inverse Gaussian law: if
    Y is inverse Gaussian with mean rho2/rho1 and shape rho2^2 then 1/Y has
    the kernel above.
    """
    if float(nu) != 0.5:
        raise ValueError(f"only GIG order nu = 1/2 is supported, got {nu}")
    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    if not (np.all(rho1 > 0.0) and np.all(rho2 > 0.0)):
        raise ValueError("rho1 and rho2 must be strictly positive")
    return _gig_half(rho1, rho2, rng)


def _gig_half(rho1, rho2, rng):
    """GIG(1/2) draws with no argument checks: rho1 and rho2 must be positive."""
    return 1.0 / rng.wald(rho2 / rho1, rho2 * rho2)


# ---------------------------------------------------------------------------
# Truncated normal
# ---------------------------------------------------------------------------

def sample_trunc_normal(mean, variance, lower, upper, rng):
    """Draw from N(mean, variance) restricted to (lower, upper).

    Inverse-CDF sampling in the body of the distribution; once the whole
    interval lies beyond ``_TAIL_CUTOFF`` standard deviations on one side,
    a shifted-exponential rejection sampler takes over, which stays exact
    and NaN-free for arbitrarily remote intervals.  Bounds may be +-inf.
    The draws are an array of the arguments' broadcast shape.
    """
    mean, variance, lower, upper = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (mean, variance, lower, upper)))
    if not np.all(variance > 0.0):
        raise ValueError("variance must be strictly positive")
    if not np.all(lower < upper):
        raise ValueError("lower bound must be strictly below upper bound")
    return _trunc_normal(mean.ravel(), variance.ravel(), lower.ravel(), upper.ravel(), rng).reshape(mean.shape)


def _trunc_normal(mean, variance, lower, upper, rng):
    """Truncated-normal draws with no argument checks.

    The four arguments are 1-D float arrays of one length, with positive
    variances and lower < upper.
    """
    return _trunc_normal_gathered(mean, np.sqrt(variance), lower, upper, np.arange(mean.size), rng,
                                  np.empty(mean.size))


def _trunc_normal_gathered(mean, sd, lower, upper, index, rng, out):
    """Draw i from N(mean[i], sd[i]^2) restricted to (lower[index[i]], upper[index[i]]).

    No argument checks: ``mean``, ``sd``, ``index`` and ``out`` are float
    arrays of one shape (``index`` integer), ``index`` holds valid indices
    into the flattened ``lower`` and ``upper``, the standard deviations are
    positive and each interval is non-empty.  One-dimensional arrays are one
    chain drawing from the generator ``rng``; (K, n) arrays are K chains,
    row k drawing from ``rng[k]`` exactly what it would draw alone.  The
    draws are written into ``out``, which is returned.  The bounds are
    gathered into two arrays for the standardized draw and again for the
    final clip, so besides ``mean``, ``sd`` and ``out`` a one-chain call
    holds two full-length arrays, or three when some interval lies in a tail.
    """
    z = _tn_standard(mean, sd, lower, upper, index, rng, out)
    z *= sd
    z += mean
    # A draw strictly inside its bounds is left unchanged by the clip, so
    # only the draws at or past a bound are clipped.
    lower = lower.take(index, mode="clip")
    at = z <= lower
    upper = upper.take(index, mode="clip")
    at |= z >= upper
    if at.any():
        z[at] = np.clip(z[at], np.nextafter(lower[at], np.inf), np.nextafter(upper[at], -np.inf))
    return z


def _tn_standard(mean, sd, lower, upper, index, rng, out):
    """Standard-normal draws, each restricted to its standardized interval,
    written into ``out``.  When no interval lies beyond ``_TAIL_CUTOFF``, the
    uniforms are drawn into ``out`` and every draw takes the inverse-CDF body
    in one pass; otherwise each chain's body elements are drawn first, then
    its upper tail and its lower tail.  The standardized bounds are freed on
    return, before the caller gathers the bounds again for its clip."""
    # Every index is valid, so mode="clip" only skips take's bounds check.
    a = lower.take(index, mode="clip")
    a -= mean
    a /= sd
    b = upper.take(index, mode="clip")
    b -= mean
    b /= sd
    if a.max(initial=-np.inf) <= _TAIL_CUTOFF and b.min(initial=np.inf) >= -_TAIL_CUTOFF:
        if out.ndim == 1:
            return _tn_body(a, b, rng.random(out=out))
        for row, g in zip(out, rng):
            g.random(out=row)
        return _tn_body(a, b, out)
    if out.ndim > 1:
        # Some chain has a tail: each chain takes the one-chain path alone.
        del a, b
        for m, s, i, g, row in zip(mean, sd, index, rng, out):
            _tn_standard(m, s, lower, upper, i, g, row)
        return out
    hi_tail = a > _TAIL_CUTOFF
    lo_tail = b < -_TAIL_CUTOFF
    hi = a[hi_tail], b[hi_tail]
    lo = -b[lo_tail], -a[lo_tail]
    body = ~(hi_tail | lo_tail)
    a = a[body]  # one full-length array is released before the next is gathered
    b = b[body]
    if a.size:
        out[body] = _tn_body(a, b, rng.random(a.size))
    if hi[0].size:
        out[hi_tail] = _tn_tail(*hi, rng)
    if lo[0].size:
        out[lo_tail] = -_tn_tail(*lo, rng)
    return out


@functools.cache
def _special():
    # scipy.special, imported on first use rather than at module level, so
    # that commands which never sample (simulate) do not load it.
    import scipy.special

    return scipy.special


def _tn_body(a, b, u):
    # Inverse CDF of N(0,1) restricted to (a, b) at the uniforms u.
    # Overwrites a, b and u and returns u.
    special = _special()
    ndtr, ndtri = special.ndtr, special.ndtri
    pa = ndtr(a, out=a)
    span = ndtr(b, out=b)
    span -= pa
    u *= span
    u += pa
    u.clip(1e-300, _BELOW_ONE, out=u)
    return ndtri(u, out=u)


def _tn_tail(a, b, rng):
    # Exponential-proposal rejection for N(0,1) restricted to (a, b), a > 0.
    # Proposal: rate alpha exponential shifted to a and cut at b; acceptance
    # exp{-(x - alpha)^2 / 2} with the standard optimal rate.
    alpha = 0.5 * (a + np.sqrt(a * a + 4.0))
    span = -np.expm1(-alpha * (b - a))  # 1 - exp(-alpha (b - a)), b = inf -> 1
    out = np.empty(a.shape, dtype=float)
    todo = np.ones(a.shape, dtype=bool)
    while todo.any():
        k = int(todo.sum())
        u = rng.random(k)
        x = a[todo] - np.log1p(-u * span[todo]) / alpha[todo]
        accept = np.log(rng.random(k) + 1e-320) <= -0.5 * (x - alpha[todo]) ** 2
        hit = todo.copy()
        hit[todo] = accept
        out[hit] = x[accept]
        todo[hit] = False
    return out

