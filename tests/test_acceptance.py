"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 4 is implemented exactly as stated and is expected to fail on
this synthetic design: the generating liability noise is logistic with
scale 1 (SD about 1.81) while the fitted error law is the skewed-Laplace
with unit scale (SD about 2.83 at the median), so the infinite-data fit
inflates every coefficient and cut-point by a factor around 1.3, beyond the
bias bounds.

Criterion 5 sits at the edge of its bound.  The sampler's translation move
mixes the common location of the subject effects, cut-points and
liabilities, but the cut-point spread still has lag-1 autocorrelation near
0.99 under the uniform cut-point update, so whether two 10k-sweep chains
have merged by sweep 5000 depends on the seed: the test's seed passes with
a late maximum of 1.1994, and two of the nine other fit seeds tried exceed 1.2.
README's "Known behavior on the synthetic designs" section carries the
quantitative analysis.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import t as student_t

import ordquant as oq
from ordquant.cli import main
from ordquant.data import OrdinalDataset
from ordquant import gibbs
from ordquant.diagnostics import mpsrf, relative_bias, relative_efficiency
from ordquant.model import ChainState, ModelSpec, Priors

from .oracles import gig_moment, ks_vs_cdf, ks_vs_log_kernel

DRAWS = 100_000
RUN_STATE: dict[str, Path] = {}


def _announce(line):
    # visible with -s or --capture=tee-sys, and replayed for failing tests
    print(line, flush=True)


@contextmanager
def criterion(number, description, budget_s):
    start = time.time()
    try:
        yield
    except BaseException:
        _announce(f"\n[FAIL] criterion {number}: {description} ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"
    _announce(f"\n[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def cli(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim2_dataset(workdir):
    """The random-effects panel (sim2, 40 subjects x 10, seed 2026) that
    criterion 3 fits, generated once through the CLI."""
    out = workdir / "c3"
    assert cli(["simulate", "--scenario", "sim2", "--subjects", "40",
                "--n-per-subject", "10", "--seed", "2026", "--out", out]) == 0
    RUN_STATE["c3-simulate"] = out / "simulate-2026" / "manifest.txt"
    return out / "simulate-2026" / "dataset.csv"


def read_summary(path):
    rows = {}
    for line in Path(path).read_text().strip().splitlines()[1:]:
        name, mean, sd, lower, upper, _ = line.split(",")
        rows[name] = (float(mean), float(sd), float(lower), float(upper))
    return rows


# ---------------------------------------------------------------------------
# 1. distribution layer
# ---------------------------------------------------------------------------

def test_criterion_1_distribution_layer():
    with criterion(1, "GIG moments on the (rho1, rho2) grid; truncated-normal "
                      "and mixture KS < 0.01 at 1e5 draws", budget_s=30):
        g = np.random.default_rng(1001)
        for rho1 in (0.1, 1.0, 10.0):
            for rho2 in (0.1, 1.0, 10.0):
                sample = oq.distributions.sample_gig(0.5, np.full(DRAWS, rho1), rho2, g)
                assert sample.mean() == pytest.approx(gig_moment(1, rho1, rho2), rel=0.02)
                assert np.mean(sample ** 2) == pytest.approx(gig_moment(2, rho1, rho2), rel=0.02)

        body = oq.distributions.sample_trunc_normal(np.full(DRAWS, 0.5), 2.0, -1.0, 2.0, g)
        sd = math.sqrt(2.0)
        a, b = (-1.0 - 0.5) / sd, (2.0 - 0.5) / sd
        cdf = lambda x: (ndtr((x - 0.5) / sd) - ndtr(a)) / (ndtr(b) - ndtr(a))
        assert ks_vs_cdf(body, cdf) < 0.01

        tail = oq.distributions.sample_trunc_normal(np.zeros(DRAWS), 1.0, 5.5, 7.0, g)
        assert ks_vs_log_kernel(tail, lambda x: -0.5 * x * x, 5.5, 7.0) < 0.01

        theta = 0.25
        v = g.exponential(1.0 / (theta * (1.0 - theta)), size=DRAWS)
        eps = g.normal((1.0 - 2.0 * theta) * v, np.sqrt(2.0 * v))
        assert ks_vs_cdf(eps, lambda e: oq.distributions.sld_cdf(e, theta)) < 0.01


# ---------------------------------------------------------------------------
# 2. full-conditional single-site oracles
# ---------------------------------------------------------------------------

def _binary_spec():
    x = np.array([[0.7], [-1.1]])
    ds = OrdinalDataset(["s1"], np.array([0, 0]), np.array([2, 1]), x, np.array([0, 1]), 2)
    return ModelSpec(theta=0.3, dataset=ds,
                     priors=Priors(a1=2.0, a2=1.5, b1=2.5, b2=1.8, delta_min=-3, delta_max=3))


def _binary_state():
    return ChainState(
        beta=np.array([0.9]), alpha=np.array([0.4]),
        latent_l=np.array([0.8, -1.2]), latent_v=np.array([0.9, 1.4]),
        s=np.array([1.1]), lambda_sq=1.3, phi=0.8,
        cutpoints=np.array([-np.inf, 0.25, np.inf]),
    )


def _single_site_draws(op, reset, read, spec, n=DRAWS, seed=4242):
    g = np.random.default_rng(seed)
    state = _binary_state() if spec.dataset.num_categories == 2 else None
    out = np.empty(n)
    for i in range(n):
        state = reset(state)
        op(state, spec, g)
        out[i] = read(state)
    return out


def test_criterion_2_full_conditional_oracles():
    with criterion(2, "each Gibbs block matches its quadrature-normalized "
                      "conditional (KS < 0.01 at 1e5 draws)", budget_s=120):
        spec = _binary_spec()
        xi = spec.xi
        x = spec.dataset.x
        base = _binary_state()
        results = {}

        def reset_component(name, value):
            def _reset(state):
                setattr(state, name, value.copy() if hasattr(value, "copy") else value)
                return state
            return _reset

        # 1: mixing variable
        resid = base.latent_l[0] - x[0, 0] * base.beta[0] - base.alpha[0]
        draws = _single_site_draws(gibbs.update_v, reset_component("latent_v", base.latent_v),
                                   lambda s: s.latent_v[0], spec)
        lk = lambda v: -0.5 * np.log(v) - 0.5 * ((resid ** 2 / 2.0) / v + 0.5 * v)
        results["v"] = ks_vs_log_kernel(draws, lk, 1e-6, 80.0)

        # 2: coefficient
        r = base.latent_l - base.alpha[0] - xi * base.latent_v
        draws = _single_site_draws(gibbs.update_beta, reset_component("beta", base.beta),
                                   lambda s: s.beta[0], spec)
        lk = lambda b: (
            -np.sum((r[None, :] - x[:, 0][None, :] * np.asarray(b)[:, None]) ** 2
                    / (4.0 * base.latent_v[None, :]), axis=1)
            - np.asarray(b) ** 2 / (2.0 * base.s[0])
        )
        results["beta"] = ks_vs_log_kernel(draws, lk, -8.0, 10.0)

        # 3: coefficient scale
        draws = _single_site_draws(gibbs.update_s, reset_component("s", base.s),
                                   lambda s: s.s[0], spec)
        lk = lambda sv: -0.5 * np.log(sv) - 0.5 * (base.beta[0] ** 2 / sv + base.lambda_sq * sv)
        results["s"] = ks_vs_log_kernel(draws, lk, 1e-6, 60.0)

        # 4: shrinkage rate
        draws = _single_site_draws(gibbs.update_lambda_sq, reset_component("lambda_sq", 1.3),
                                   lambda s: s.lambda_sq, spec)
        lk = lambda ggg: (1 + spec.priors.a1 - 1.0) * np.log(ggg) - ggg * (base.s[0] / 2.0 + spec.priors.a2)
        results["lambda_sq"] = ks_vs_log_kernel(draws, lk, 1e-9, 30.0)

        # 5: subject effect
        eta = base.latent_l - x[:, 0] * base.beta[0] - xi * base.latent_v
        draws = _single_site_draws(gibbs.update_alpha, reset_component("alpha", base.alpha),
                                   lambda s: s.alpha[0], spec)
        lk = lambda a: (
            -np.sum((eta[None, :] - np.asarray(a)[:, None]) ** 2
                    / (4.0 * base.latent_v[None, :]), axis=1)
            - np.asarray(a) ** 2 / (2.0 * base.phi)
        )
        results["alpha"] = ks_vs_log_kernel(draws, lk, -8.0, 9.0)

        # 6: random-effect variance
        draws = _single_site_draws(gibbs.update_phi, reset_component("phi", 0.8),
                                   lambda s: s.phi, spec)
        lk = lambda f: (-(0.5 + spec.priors.b1 + 1.0) * np.log(f)
                        - (base.alpha[0] ** 2 / 2.0 + spec.priors.b2) / f)
        results["phi"] = ks_vs_log_kernel(draws, lk, 1e-4, 200.0)

        # 7: liability (upper category: interval (0.25, inf))
        m = x[0, 0] * base.beta[0] + base.alpha[0] + xi * base.latent_v[0]
        var = 2.0 * base.latent_v[0]
        draws = _single_site_draws(gibbs.update_l, reset_component("latent_l", base.latent_l),
                                   lambda s: s.latent_l[0], spec)
        lk = lambda l: np.where(np.asarray(l) > 0.25, -(np.asarray(l) - m) ** 2 / (2.0 * var), -np.inf)
        results["l"] = ks_vs_log_kernel(draws, lk, 0.25, 12.0)

        # 8: cut-point (three categories so an interior cut has data on both sides)
        x3 = np.array([[0.3], [-0.4], [0.9], [0.1]])
        ds3 = OrdinalDataset(["s1"], np.zeros(4, dtype=int), np.array([1, 2, 3, 2]),
                             x3, np.arange(4), 3)
        spec3 = ModelSpec(theta=0.3, dataset=ds3, priors=Priors(delta_min=-3, delta_max=3))
        state3 = ChainState(
            beta=np.array([0.2]), alpha=np.array([0.1]),
            latent_l=np.array([-0.9, -0.1, 1.3, 0.4]), latent_v=np.ones(4),
            s=np.array([1.0]), lambda_sq=1.0, phi=1.0,
            cutpoints=np.array([-np.inf, -0.5, 0.9, np.inf]),
        )
        g = np.random.default_rng(77)
        draws = np.empty(DRAWS)
        for i in range(DRAWS):
            state3.cutpoints = np.array([-np.inf, -0.5, 0.9, np.inf])
            gibbs.update_delta(state3, spec3, g)
            draws[i] = state3.cutpoints[1]
        # conditional: uniform on (max liability in category 1, min in category 2)
        lk = lambda d: np.where((np.asarray(d) > -0.9) & (np.asarray(d) < -0.1), 0.0, -np.inf)
        results["delta"] = ks_vs_log_kernel(draws, lk, -0.9, -0.1)

        print("\nsingle-site KS:", {k: round(v, 4) for k, v in results.items()})
        for block, ks in results.items():
            assert ks < 0.01, f"block {block}: KS {ks:.4f} >= 0.01"


# ---------------------------------------------------------------------------
# 3. parameter recovery on the random-effects design
# ---------------------------------------------------------------------------

TRUTH = {
    "beta_1": -5.0, "beta_2": -10.0, "beta_3": 15.0,
    "delta_1": -0.8416, "delta_2": -0.2533, "delta_3": 0.2533, "delta_4": 0.8416,
}


def test_criterion_3_parameter_recovery(workdir, sim2_dataset):
    with criterion(3, "random-effects recovery: means within 2 posterior SDs, "
                      "SDs within the stated envelopes (10k sweeps, 2k burn-in)", budget_s=600):
        out = workdir / "c3"
        assert cli(["fit", "--input", sim2_dataset, "--theta", "0.5", "--iterations", "10000",
                    "--burn-in", "2000", "--seed", "11", "--delta-min", "-3",
                    "--delta-max", "3", "--out", out]) == 0
        RUN_STATE["c3-fit"] = out / "fit-11" / "manifest.txt"
        rows = read_summary(out / "fit-11" / "summary-theta0.5.csv")

        lines = []
        for name, truth in TRUTH.items():
            mean, sd, *_ = rows[name]
            lines.append(f"{name}: mean={mean:8.3f} sd={sd:6.3f} truth={truth:8.3f} "
                         f"|z|={abs(mean - truth) / sd:.2f}")
        print("\n" + "\n".join(lines))
        for name, truth in TRUTH.items():
            mean, sd, *_ = rows[name]
            assert abs(mean - truth) <= 2.0 * sd, f"{name} outside 2 posterior SDs"
        for name in ("beta_1", "beta_2", "beta_3"):
            assert 0.7 / 3.0 <= rows[name][1] <= 1.0 * 3.0, f"{name} SD outside envelope"
        for name in ("delta_1", "delta_2", "delta_3", "delta_4"):
            assert 0.06 / 3.0 <= rows[name][1] <= 0.09 * 3.0, f"{name} SD outside envelope"


# ---------------------------------------------------------------------------
# 4. bias study at desk scale (expected fail; see module docstring)
# ---------------------------------------------------------------------------

def test_criterion_4_bias_study(workdir):
    with criterion(4, "desk-scale bias study: |bias| <= 0.15 for beta_2/beta_3 "
                      "and <= 0.05 for cut-points (M=20, n_i=10)", budget_s=7200):
        out = workdir / "c4"
        assert cli(["replicate", "--scenario", "sim1", "--replications", "20",
                    "--subjects", "40", "--n-per-subject", "10", "--theta", "0.5",
                    "--iterations", "10000", "--burn-in", "2000", "--jobs", "2",
                    "--seed", "314", "--out", out]) == 0
        RUN_STATE["c4-replicate"] = out / "replicate-314" / "manifest.txt"
        report = {}
        for line in (out / "replicate-314" / "report.csv").read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            report[cells[1]] = float(cells[3])
        print("\nmeasured relative bias:", {k: round(v, 3) for k, v in report.items()})
        failures = []
        for name in ("beta_2", "beta_3"):
            if abs(report[name]) > 0.15:
                failures.append(f"{name}: |{report[name]:.3f}| > 0.15")
        for name in ("delta_1", "delta_2", "delta_3", "delta_4"):
            if abs(report[name]) > 0.05:
                failures.append(f"{name}: |{report[name]:.3f}| > 0.05")
        assert not failures, (
            "bias bounds not attainable at this design: the fitted error law "
            "(skewed-Laplace, SD 2.83) is wider than the generating logistic "
            "noise (SD 1.81), so the infinite-data fit is inflated ~1.3x; "
            f"violations: {failures}"
        )


# ---------------------------------------------------------------------------
# 5. multivariate shrink factor (at the edge of its bound; see module docstring)
# ---------------------------------------------------------------------------

def test_criterion_5_mpsrf(criterion_5_fit):
    with criterion(5, "2 over-dispersed chains: shrink factor < 1.2 at every "
                      "checkpoint past iteration 5000, plot-ready series emitted", budget_s=900):
        # The fit (tests/conftest.py) runs once per session; the golden
        # test reads its late maximum too.
        run_dir = criterion_5_fit()
        RUN_STATE["c5-fit"] = run_dir / "manifest.txt"

        plot = (run_dir / "mpsrf-theta0.5.dat").read_text().strip().splitlines()
        assert len(plot) >= 10 and all(len(line.split()) == 2 for line in plot)
        series = [(int(line.split()[0]), float(line.split()[1])) for line in plot]
        print("\nshrink-factor series:", " ".join(f"{t}:{v:.2f}" for t, v in series))
        assert series[-1][1] <= series[0][1] + 0.05, "series does not trend toward 1"

        late = [(t, v) for t, v in series if t > 5000]
        bad = [(t, round(v, 3)) for t, v in late if v >= 1.2]
        assert not bad, (
            "shrink factor exceeds 1.2 after iteration 5000: the cut-point spread "
            "(delta_4 - delta_1, lag-1 autocorrelation about 0.99 under the "
            "uniform cut-point update) mixes over thousands of sweeps, so two "
            f"chains have not merged by then; violations {bad}"
        )


# ---------------------------------------------------------------------------
# 6. metric identities
# ---------------------------------------------------------------------------

def test_criterion_6_metric_identities():
    with criterion(6, "replication metrics match brute force to 1e-12; "
                      "multivariate factor equals scalar PSRF to 1e-10", budget_s=60):
        g = np.random.default_rng(606)
        for _ in range(25):
            est = g.normal(size=g.integers(2, 30))
            truth = float(g.normal()) or 1.0
            manual = sum((e - truth) / abs(truth) for e in est) / len(est)
            assert relative_bias(est, truth) == pytest.approx(manual, abs=1e-12)

            other = g.normal(size=len(est))
            mm = sum(est) / len(est)
            mo = sum(other) / len(other)
            s2m = sum((e - mm) ** 2 for e in est) / len(est)
            s2o = sum((o - mo) ** 2 for o in other) / len(other)
            assert relative_efficiency(est, other) == pytest.approx(s2m / s2o, abs=1e-12)

        m, n = 4, 300
        chains = g.normal(size=(m, n)) + g.normal(scale=0.3, size=(m, 1))
        draws = gibbs.PosteriorDraws(
            ["beta_1"], chains.reshape(-1, 1),
            np.repeat(np.arange(m), n), np.tile(np.arange(1, n + 1), m),
        )
        series = mpsrf(draws, checkpoints=[n])
        means = chains.mean(axis=1)
        w = chains.var(axis=1, ddof=1).mean()
        b_over_n = means.var(ddof=1)
        scalar = (n - 1) / n + (m + 1) / m * b_over_n / w
        assert series.values[-1] == pytest.approx(scalar, abs=1e-10)


# ---------------------------------------------------------------------------
# 7. toy-scale equivalence against an enumerated posterior
# ---------------------------------------------------------------------------

def _toy_enumeration_oracle():
    """Posterior mean of the coefficient by dense enumeration.

    Marginalizes the scale mixture analytically: the coefficient prior is
    the Laplace mixture integrated against its gamma hyperprior by
    quadrature, the subject-effect prior marginalizes to a Student t, and
    the likelihood uses the closed-form error CDF.  Everything is evaluated
    on dense grids and summed; no sampling is involved.
    """
    theta = 0.5
    a1, a2, b1, b2 = 3.0, 1.0, 3.0, 0.5
    x = np.array([0.6, -0.8, 1.5, -0.3])
    y = np.array([2, 1, 2, 2])
    subj = np.array([0, 0, 1, 1])

    def cdf(e):
        e = np.asarray(e, dtype=float)
        return np.where(e <= 0, theta * np.exp((1 - theta) * np.minimum(e, 0)),
                        1 - (1 - theta) * np.exp(-theta * np.maximum(e, 0)))

    def coef_prior(b):
        return quad(lambda gsq: 0.5 * np.sqrt(gsq) * np.exp(-np.sqrt(gsq) * abs(b))
                    * gamma_dist.pdf(gsq, a1, scale=1.0 / a2), 0, 300, limit=300)[0]

    effect_pdf = lambda a: student_t.pdf(a, df=2 * b1, scale=np.sqrt(b2 / b1))

    bgrid = np.linspace(-10.0, 10.0, 301)
    dgrid = np.linspace(-2.999, 2.999, 241)
    agrid = np.linspace(-8.0, 8.0, 241)
    pb = np.array([coef_prior(b) for b in bgrid])
    pa = effect_pdf(agrid)
    B, A = np.meshgrid(bgrid, agrid, indexing="ij")
    weight = np.zeros((len(bgrid), len(dgrid)))
    for di, d in enumerate(dgrid):
        blocks = np.ones((len(bgrid), len(agrid), 2))
        for j in range(4):
            F = cdf(d - A - x[j] * B)
            blocks[:, :, subj[j]] *= F if y[j] == 1 else 1.0 - F
        weight[:, di] = pb * (blocks[:, :, 0] @ pa) * (blocks[:, :, 1] @ pa)
    z = weight.sum()
    return float((bgrid[:, None] * weight).sum() / z), float((dgrid[None, :] * weight).sum() / z)


def test_criterion_7_toy_posterior_equivalence():
    with criterion(7, "toy-scale joint correctness: sampler posterior mean of the "
                      "coefficient within 5% of the enumerated posterior", budget_s=600):
        oracle_beta, oracle_delta = _toy_enumeration_oracle()
        x = np.array([0.6, -0.8, 1.5, -0.3])
        ds = OrdinalDataset(["s1", "s2"], np.array([0, 0, 1, 1]), np.array([2, 1, 2, 2]),
                            x.reshape(-1, 1), np.array([0, 1, 0, 1]), 2)
        spec = ModelSpec(theta=0.5, dataset=ds,
                         priors=Priors(a1=3.0, a2=1.0, b1=3.0, b2=0.5,
                                       delta_min=-3.0, delta_max=3.0))
        draws = gibbs.run_chain(spec, gibbs.SamplerConfig(iterations=120000, burn_in=10000, seed=7))
        sampled_beta = float(draws.column("beta_1").mean())
        sampled_delta = float(draws.column("delta_1").mean())
        print(f"\nenumeration: beta={oracle_beta:.4f} delta={oracle_delta:.4f}; "
              f"sampler: beta={sampled_beta:.4f} delta={sampled_delta:.4f}")
        assert sampled_beta == pytest.approx(oracle_beta, rel=0.05)
        assert sampled_delta == pytest.approx(oracle_delta, rel=0.05)
        # external-estimator baselines and third-party clinical data are out
        # of scope; this equivalence test plus the property suites stand in.


# ---------------------------------------------------------------------------
# 8. manifest replay reproducibility
# ---------------------------------------------------------------------------

def test_criterion_8_manifest_replay(workdir):
    with criterion(8, "replaying every recorded manifest reproduces the output "
                      "files byte for byte", budget_s=3600):
        assert RUN_STATE, "earlier criteria record their manifests here"
        import filecmp

        for label, manifest in sorted(RUN_STATE.items()):
            assert manifest.exists(), f"{label}: manifest missing"
            replay_root = workdir / f"replay-{label}"
            assert cli(["replay", manifest, "--out", replay_root]) == 0
            original = manifest.parent
            replayed = replay_root / original.name
            names = [p.name for p in original.iterdir() if p.name != "manifest.txt"]
            assert names, f"{label}: no outputs to compare"
            match, mismatch, errors = filecmp.cmpfiles(original, replayed, names, shallow=False)
            assert not mismatch and not errors, (
                f"{label}: replay differs {mismatch or errors}"
            )
            print(f"\nreplayed {label}: {len(match)} files byte-identical")
