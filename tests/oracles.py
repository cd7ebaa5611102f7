"""Shared independent oracles: quadrature-normalized CDFs and KS distances.

These deliberately avoid the library's sampling code paths: kernels are
written out from the model's full-conditional formulas and normalized by
trapezoid quadrature on a dense grid.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_trapezoid

from ordquant.errors import ChainDivergedError
from ordquant.model import ChainState, ModelSpec, nonfinite_blocks


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


def sld_cdf_two_branch(eps, theta):
    """The skewed-Laplace CDF evaluating both branches, as ``sld_cdf`` once did.

    ``distributions.sld_cdf`` computes one ``exp`` per cell and must keep
    every bit of this expression.
    """
    eps = np.asarray(eps, dtype=float)
    left = theta * np.exp((1.0 - theta) * np.minimum(eps, 0.0))
    right = 1.0 - (1.0 - theta) * np.exp(-theta * np.maximum(eps, 0.0))
    return np.where(eps <= 0.0, left, right)


def sld_density(eps, theta):
    """Skewed-Laplace density theta(1-theta) exp{-eps (theta - 1{eps < 0})},
    as ``distributions.sld_density`` once computed it; ``sld_cdf`` must be its
    antiderivative."""
    eps = np.asarray(eps, dtype=float)
    out = theta * (1.0 - theta) * np.exp(-eps * (theta - (eps < 0.0)))
    return float(out) if out.ndim == 0 else out


def validate_state(state: ChainState, spec: ModelSpec) -> None:
    """Raise ``ChainDivergedError`` if any state invariant is broken, as
    ``model.validate_state`` once did; every sweep must keep the state valid."""
    bad = nonfinite_blocks(state)
    if bad:
        raise ChainDivergedError(f"non-finite {', '.join(bad)}")
    ds = spec.dataset
    checks = [
        (np.all(state.latent_v > 0.0), "mixing variables must be positive"),
        (np.all(state.s > 0.0), "coefficient scales must be positive"),
        (state.lambda_sq > 0.0, "shrinkage rate must be positive"),
        (state.phi > 0.0, "random-effect variance must be positive"),
        (state.cutpoints[0] == -np.inf and state.cutpoints[-1] == np.inf, "cut-point endpoints must be fixed"),
        (np.all(np.diff(state.cutpoints) > 0.0), "cut-points must be strictly increasing"),
        (
            np.all(state.cutpoints[1:-1] >= spec.priors.delta_min)
            and np.all(state.cutpoints[1:-1] <= spec.priors.delta_max),
            "interior cut-points must respect the prior support",
        ),
        (
            np.all(state.cutpoints[ds.y - 1] < state.latent_l) and np.all(state.latent_l <= state.cutpoints[ds.y]),
            "liabilities must lie in their category intervals",
        ),
    ]
    for ok, message in checks:
        if not ok:
            raise ChainDivergedError(message)


def assert_same_dataset(got, want):
    """Assert two datasets hold the same values: the list fields by ``repr``
    (so an int label never matches a float one) and the arrays by dtype,
    shape and bytes."""
    for name in ("subject_ids", "covariate_names", "category_labels", "num_categories"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    for name in ("subject_index", "y", "x", "time_index"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def summary_row(table, name) -> dict[str, float]:
    """One parameter's mean, SD and interval bounds in a ``SummaryTable``."""
    i = table.parameters.index(name)
    return {key: float(getattr(table, key)[i]) for key in ("mean", "sd", "lower", "upper")}


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


def ingest_csv_rowwise(path, schema=None):
    """Dataset ingest one row at a time, as ``data.ingest_csv`` once did.

    The columnar ``ingest_csv`` must return an equal dataset and raise the
    same errors and warnings with the same text.
    """
    import csv
    import math
    import warnings
    from pathlib import Path

    from ordquant.data import CsvSchema, OrdinalDataset, _resolve_columns
    from ordquant.errors import DataError

    schema = schema or CsvSchema()
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        columns = _resolve_columns(path, header, schema)
        rows = []
        for raw in reader:
            lineno = reader.line_num
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}")
            subject = raw[columns["subject"]].strip()
            if not subject:
                raise DataError(f"{path}:{lineno}: empty subject id")
            y_raw = raw[columns["response"]].strip()
            try:
                y = int(y_raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: response {y_raw!r} is not an integer category") from None
            if schema.num_categories is not None and not 1 <= y <= schema.num_categories:
                raise DataError(
                    f"{path}:{lineno}: category {y} outside declared range 1..{schema.num_categories}"
                )
            xs = []
            for name, j in columns["covariates"]:
                cell = raw[j].strip()
                if not cell:
                    raise DataError(f"{path}:{lineno}: missing value in covariate {name!r}")
                try:
                    xs.append(float(cell))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: covariate {name!r} value {cell!r} is not numeric") from None
                if not math.isfinite(xs[-1]):
                    raise DataError(f"{path}:{lineno}: covariate {name!r} value {cell!r} is not finite")
            if columns["time"] is not None:
                t_raw = raw[columns["time"]].strip()
                try:
                    t = int(t_raw)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: time index {t_raw!r} is not an integer") from None
            else:
                t = None
            rows.append((subject, y, xs, t))
    if not rows:
        raise DataError(f"{path}: no data rows")

    order: dict[str, int] = {}
    for subject, *_ in rows:
        order.setdefault(subject, len(order))
    subject_ids = list(order)
    labels = sorted({y for _, y, _, _ in rows})
    if schema.num_categories is not None:
        C = schema.num_categories
        category_labels = list(range(1, C + 1))
        remap = {c: c for c in category_labels}
        empty = sorted(set(category_labels) - set(labels))
        if empty:
            warnings.warn(f"categories {empty} have no observations", stacklevel=2)
    else:
        C = len(labels)
        if C < 2:
            raise DataError(f"{path}: an ordinal response needs at least two distinct categories")
        remap = {lab: i + 1 for i, lab in enumerate(labels)}
        category_labels = labels
    rows = sorted(enumerate(rows), key=lambda item: (order[item[1][0]], item[0]))
    times = []
    counters = dict.fromkeys(subject_ids, 0)
    for _, (subject, _, _, t) in rows:
        times.append(counters[subject] if t is None else t)
        counters[subject] += 1
    return OrdinalDataset(
        subject_ids,
        np.array([order[r[0]] for _, r in rows], dtype=np.intp),
        np.array([remap[r[1]] for _, r in rows], dtype=np.intp),
        np.array([r[2] for _, r in rows], dtype=float),
        np.array(times, dtype=np.intp),
        C,
        covariate_names=[name for name, _ in columns["covariates"]],
        category_labels=category_labels,
    )


def write_csv_rowwise(dataset, path, schema=None):
    """Dataset CSV written one cell at a time through ``csv.writer``, as
    ``data.write_csv`` once did; the chunked writer must give the same bytes."""
    import csv
    from pathlib import Path

    from ordquant.data import CsvSchema

    schema = schema or CsvSchema()
    time_col = schema.time or "time"
    header = [schema.subject, schema.response, *dataset.covariate_names, time_col]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.num_observations):
            writer.writerow([
                dataset.subject_ids[dataset.subject_index[i]],
                dataset.category_labels[dataset.y[i] - 1],
                *(f"{v:.17g}" for v in dataset.x[i]),
                dataset.time_index[i],
            ])


def mpsrf_top_eigh(mat):
    """The shrink factor at one checkpoint through ``scipy.linalg.eigh``, as
    ``diagnostics._mpsrf_at`` once computed it; returns ``(value, ridged)``.

    ``mat`` is a (chains, draws, parameters) array.  The numpy Cholesky
    reduction must agree with it to rounding and flag the same ridges.
    """
    import scipy.linalg

    from ordquant.diagnostics import _MPSRF_RIDGE

    m, n, k = mat.shape
    chain_means = mat.mean(axis=1)
    within = np.zeros((k, k))
    for j in range(m):
        dev = mat[j] - chain_means[j]
        within += dev.T @ dev / (n - 1)
    within /= m
    dev_means = chain_means - chain_means.mean(axis=0)
    between_over_n = dev_means.T @ dev_means / (m - 1)
    floor = (n - 1) / n
    if not np.any(between_over_n):
        return floor, False
    ridged = False
    w = within
    for _ in range(2):
        try:
            eigvals = scipy.linalg.eigh(between_over_n, w, eigvals_only=True)
            if np.isfinite(eigvals).all():
                return floor + (m + 1) / m * float(eigvals[-1]), ridged
        except scipy.linalg.LinAlgError:
            pass
        w = within + _MPSRF_RIDGE * max(np.trace(within), 1e-30) / k * np.eye(k)
        ridged = True
    raise ArithmeticError("within-chain covariance is singular even after ridging")


def update_s_array_call(state, spec, rng):
    """Coefficient scales from one array-parameter ``wald`` call, as
    ``gibbs.update_s`` once drew them; the scalar calls must give the same bits."""
    import math

    from ordquant.distributions import _gig_half
    from ordquant.model import RHO1_SQ_FLOOR

    rho1_sq = np.multiply(state.beta, state.beta)
    np.maximum(rho1_sq, RHO1_SQ_FLOOR, out=rho1_sq)
    state.s = _gig_half(np.sqrt(rho1_sq, out=rho1_sq), math.sqrt(state.lambda_sq), rng)


def update_alpha_normal_call(state, spec, rng):
    """Subject effects from ``rng.normal(mean, sd)`` with array parameters, as
    ``gibbs.update_alpha`` once drew them; the standard-normal path must give
    the same bits."""
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
    state.alpha = rng.normal(mean, np.sqrt(variance, out=variance))


def trunc_normal_full_bounds(mean, variance, lower, upper, rng):
    """Truncated-normal draws from full-length bound arrays and a fresh array
    of uniforms, as ``distributions._trunc_normal`` once drew them."""
    from scipy.special import ndtr, ndtri

    from ordquant.distributions import _BELOW_ONE, _TAIL_CUTOFF, _tn_tail

    def body(a, b):
        pa = ndtr(a, out=a)
        span = ndtr(b, out=b)
        span -= pa
        u = rng.random(a.shape)
        u *= span
        u += pa
        u.clip(1e-300, _BELOW_ONE, out=u)
        return ndtri(u, out=u)

    sd = np.sqrt(variance)
    a = np.subtract(lower, mean)
    a /= sd
    b = np.subtract(upper, mean)
    b /= sd
    if a.max(initial=-np.inf) <= _TAIL_CUTOFF and b.min(initial=np.inf) >= -_TAIL_CUTOFF:
        z = body(a, b)
    else:
        z = np.empty(a.shape, dtype=float)
        hi_tail = a > _TAIL_CUTOFF
        lo_tail = b < -_TAIL_CUTOFF
        mid = ~(hi_tail | lo_tail)
        if mid.any():
            z[mid] = body(a[mid], b[mid])
        if hi_tail.any():
            z[hi_tail] = _tn_tail(a[hi_tail], b[hi_tail], rng)
        if lo_tail.any():
            z[lo_tail] = -_tn_tail(-b[lo_tail], -a[lo_tail], rng)
    z *= sd
    z += mean
    at = (z <= lower) | (z >= upper)
    if at.any():
        z[at] = np.clip(z[at], np.nextafter(lower[at], np.inf), np.nextafter(upper[at], -np.inf))
    return z


def initialize_state_full_bounds(spec, rng, overdispersed=False):
    """The starting state as ``model.initialize_state`` once built it, with
    the liabilities drawn from out-of-place sums and full-length bounds."""
    from ordquant.model import ChainState, interior_cutpoints

    ds = spec.dataset
    p, N, C = ds.num_covariates, ds.num_subjects, ds.num_categories
    beta = np.zeros(p)
    if overdispersed:
        beta = beta + rng.normal(0.0, 2.0, size=p)
    alpha = np.zeros(N)
    cuts = np.concatenate([[-np.inf], interior_cutpoints(C, spec.priors.delta_min, spec.priors.delta_max), [np.inf]])
    v = rng.exponential(1.0 / spec.zeta, size=ds.num_observations)
    center = ds.x @ beta + alpha[ds.subject_index] + spec.xi * v
    l = trunc_normal_full_bounds(center, 2.0 * v, cuts[ds.y - 1], cuts[ds.y], rng)
    return ChainState(beta, alpha, l, v, np.ones(p), 1.0, 1.0, cuts)


def update_l_full_bounds(state, spec, rng):
    """Liabilities into a new array from full-length bounds, as
    ``gibbs.update_l`` once drew them."""
    ds = spec.dataset
    v = state.latent_v
    center = ds.x @ state.beta
    term = state.alpha.take(ds.subject_index)
    center += term
    center += np.multiply(v, spec.xi, out=term)
    variance = np.multiply(v, 2.0, out=term)
    cuts = state.cutpoints
    state.latent_l = trunc_normal_full_bounds(center, variance, cuts.take(ds.y - 1), cuts.take(ds.y), rng)


def read_draws_rowwise(paths):
    """Draws files parsed row by row into Python lists, as ``read_draws``
    once parsed them; the chunked parse must give the same draws and the same
    ``SchemaError`` texts."""
    import csv
    from array import array
    from dataclasses import replace
    from pathlib import Path

    from ordquant.errors import SchemaError
    from ordquant.data import PosteriorDraws

    def bad_cell(path, line, header, rec):
        for j, (name, cell) in enumerate(zip(header, rec)):
            try:
                int(cell) if j < 2 else float(cell)
            except ValueError:
                kind = "an integer" if j < 2 else "a number"
                return SchemaError(f"{path}:{line}: column {name}: {cell!r} is not {kind}")
        return SchemaError(f"{path}:{line}: row does not parse")

    names = None
    values, chains, iters = [], [], []
    lines = array("q")
    sources = []
    empty = []
    offset = 0
    for path in paths:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:2] != ["chain", "iteration"]:
                raise SchemaError(f"{path}: not a draws file (expected chain,iteration,... header)")
            for k, name in enumerate(header):
                if name in header[:k]:
                    raise SchemaError(f"{path}: the header names column {name!r} {header.count(name)} times")
            if len(header) == 2:
                raise SchemaError(f"{path}: the header names no parameter column after chain,iteration")
            if names is None:
                names = header[2:]
            elif header[2:] != names:
                raise SchemaError(f"{path}: parameter columns {header[2:]} do not match {names}")
            sources.append((len(values), path, header, offset))
            local_max = -1
            for rec in reader:
                if len(rec) != len(header):
                    column = header[len(rec)] if len(rec) < len(header) else len(header) + 1
                    raise SchemaError(f"{path}:{reader.line_num}: column {column}: "
                                      f"expected {len(header)} fields, got {len(rec)}")
                try:
                    c = int(rec[0])
                    t = int(rec[1])
                    row = [float(v) for v in rec[2:]]
                except ValueError:
                    raise bad_cell(path, reader.line_num, header, rec) from None
                if c < 0:
                    raise SchemaError(f"{path}:{reader.line_num}: column chain: {c} is negative")
                local_max = max(local_max, c)
                chains.append(offset + c)
                iters.append(t)
                values.append(row)
                lines.append(reader.line_num)
            if len(values) == sources[-1][0]:
                empty.append(path)
        offset += local_max + 1
    if not values:
        raise SchemaError("draws files contain no rows")
    if empty:
        raise SchemaError(f"{empty[0]}: the draws file has a header and no rows")
    matrix = np.array(values)
    if not np.isfinite(matrix).all():
        row, col = (int(i) for i in np.argwhere(~np.isfinite(matrix))[0])
        _, path, header, _ = next(src for src in reversed(sources) if src[0] <= row)
        raise SchemaError(f"{path}:{lines[row]}: column {header[col + 2]}: {matrix[row, col]} is not finite")
    seen = set()
    for row, key in enumerate(zip(chains, iters)):
        if key in seen:
            _, path, _, first_chain = [src for src in sources if src[0] <= row][-1]
            raise SchemaError(f"{path}:{lines[row]}: column iteration: chain {key[0] - first_chain} "
                              f"repeats iteration {key[1]}")
        seen.add(key)
    lengths = [chains.count(c) for c in range(max(chains) + 1)]

    def numbered(c):
        _, path, _, first_chain = [src for src in sources if src[3] <= c][-1]
        return c - first_chain, path

    longest = lengths.index(max(lengths))
    for c, length in enumerate(lengths):
        if length != lengths[longest]:
            (k, path), (j, other) = numbered(c), numbered(longest)
            raise SchemaError(f"{path}: chain {k} has {length} draws, but chain {j} of {other} has "
                              f"{lengths[longest]}; chains must have equal length")
    draws = PosteriorDraws(names, matrix, np.array(chains), np.array(iters))
    order = np.lexsort((draws.iteration, draws.chain))
    return replace(draws, values=draws.values[order], chain=draws.chain[order], iteration=draws.iteration[order])


def prior_state(spec: ModelSpec, rng) -> ChainState:
    """One chain's parameters drawn from the prior, with its latent arrays
    unset: lambda^2 ~ gamma(a1, rate a2), s_k ~ Exp(rate lambda^2 / 2),
    beta_k ~ N(0, s_k), phi ~ inverse-gamma(b1, scale b2), alpha_i ~ N(0,
    phi), and the interior cut-points the order statistics of C - 1
    uniforms on [delta_min, delta_max].  ``rng`` may be any generator; only
    ``spec``'s design, quantile level and priors are read."""
    ds, pri = spec.dataset, spec.priors
    lambda_sq = rng.gamma(pri.a1, 1.0 / pri.a2)
    s = rng.exponential(2.0 / lambda_sq, size=ds.num_covariates)
    beta = rng.normal(0.0, np.sqrt(s))
    phi = 1.0 / rng.gamma(pri.b1, 1.0 / pri.b2)
    alpha = rng.normal(0.0, np.sqrt(phi), size=ds.num_subjects)
    interior = np.sort(rng.uniform(pri.delta_min, pri.delta_max, size=ds.num_categories - 1))
    n = ds.num_observations
    return ChainState(beta, alpha, np.empty(n), np.empty(n), s, float(lambda_sq), float(phi),
                      np.concatenate([[-np.inf], interior, [np.inf]]))


def mixture_form(spec: ModelSpec, beta: np.ndarray, alpha: np.ndarray, cutpoints: np.ndarray, rng):
    """One chain's latent data and responses given its parameters, from the
    model's normal scale-mixture form: v ~ Exp(rate theta (1 - theta)),
    L = x beta + alpha + xi v + sqrt(2 v) z with z ~ N(0, 1), and y the
    category of L among the cut-points, as (v, L, y).  Only ``spec``'s
    design (x and the subject index) and quantile level are read."""
    ds = spec.dataset
    n = ds.num_observations
    v = rng.exponential(1.0 / spec.zeta, size=n)
    liabilities = ds.x @ beta + alpha[ds.subject_index] + spec.xi * v + np.sqrt(2.0 * v) * rng.standard_normal(n)
    return v, liabilities, np.searchsorted(cutpoints[1:-1], liabilities) + 1
