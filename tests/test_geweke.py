"""Geweke's joint-distribution test of the whole sweep (Geweke 2004, JASA 99:799-804).

Two simulators of the joint law of the parameters and the data must agree.
The marginal-conditional one draws the parameters from the prior directly.
The successive-conditional one alternates a draw of the data (v, L, y)
given the parameters, from the model's mixture form, with one sweep of
``gibbs._SWEEP`` given y; its parameters keep the prior as their law only
if the sweep leaves the posterior invariant.  Each statistic's chain mean
is compared with its prior mean by a z-score, whose variance comes from 50
batch means and from the direct draws.

The design is tiny (3 subjects x 3 observations, two covariates, three
categories) and at theta = 0.3, where xi = 1 - 2 theta is not zero, so a
wrong xi term shows; the priors are informative, so every statistic has
finite moments.  The iteration count and the threshold were fixed before
any mutation was tried: a flipped sign of xi in the liability centre and
phi in place of phi / N in the location move each fail both runs.
"""

import numpy as np
import pytest

from ordquant import gibbs, parallel
from ordquant.data import OrdinalDataset
from ordquant.model import ModelSpec, Priors, stack_specs, stack_states

from .oracles import mixture_form, prior_state

# Steps of the successive-conditional simulator: 50 chains of 2,000 as one
# batch, whose 50 chain means are the batch means; and one chain of 20,000
# in 50 batches of 400, for a chunked chain, which is a batch of its own.
CHAINS, ITERATIONS = 50, 2_000
CHUNKED_ITERATIONS = 20_000
BATCHES = 50
PRIOR_DRAWS = 200_000
Z_LIMIT = 4.0
THETA = 0.3
PRIORS = Priors(a1=3.0, a2=2.0, b1=3.0, b2=2.0, delta_min=-3.0, delta_max=3.0)
SUBJECTS, PER_SUBJECT, CATEGORIES = 3, 3, 3
STATISTICS = ["beta_1", "beta_2", "beta_1^2", "log phi", "log lambda^2", "alpha_1", "delta_1", "delta_2",
              "delta_2 - delta_1", "log s_1"]


def toy_spec(x, y) -> ModelSpec:
    n = SUBJECTS * PER_SUBJECT
    ds = OrdinalDataset([f"s{i}" for i in range(SUBJECTS)], np.repeat(np.arange(SUBJECTS), PER_SUBJECT), y, x,
                        np.tile(np.arange(PER_SUBJECT), SUBJECTS), CATEGORIES)
    assert ds.num_observations == n
    return ModelSpec(theta=THETA, dataset=ds, priors=PRIORS)


def statistics(beta, phi, lambda_sq, alpha_1, interior, s_1) -> np.ndarray:
    """The ten statistics, one row per draw."""
    return np.column_stack([beta[:, 0], beta[:, 1], beta[:, 0] ** 2, np.log(phi), np.log(lambda_sq), alpha_1,
                            interior[:, 0], interior[:, 1], interior[:, 1] - interior[:, 0], np.log(s_1)])


def direct_draws(spec: ModelSpec, rng) -> np.ndarray:
    """The statistics of ``PRIOR_DRAWS`` draws from the prior, by the same
    generator ``prior_state`` uses, one draw per row."""
    pri, p = spec.priors, spec.dataset.num_covariates
    lambda_sq = rng.gamma(pri.a1, 1.0 / pri.a2, size=PRIOR_DRAWS)
    s = rng.exponential(2.0 / lambda_sq[:, None], size=(PRIOR_DRAWS, p))
    beta = rng.normal(0.0, np.sqrt(s))
    phi = 1.0 / rng.gamma(pri.b1, 1.0 / pri.b2, size=PRIOR_DRAWS)
    alpha_1 = rng.normal(0.0, np.sqrt(phi))
    interior = np.sort(rng.uniform(pri.delta_min, pri.delta_max, size=(PRIOR_DRAWS, CATEGORIES - 1)), axis=1)
    return statistics(beta, phi, lambda_sq, alpha_1, interior, s[:, 0])


def successive_draws(seed: int, chains: int, iterations: int) -> tuple[ModelSpec, np.ndarray]:
    """The statistics of ``iterations`` steps of the successive-conditional
    simulator in each of ``chains`` independent chains, sampled as one
    batch, chain by chain and one step per row: each step draws the data
    given the parameters, then runs one sweep."""
    g = np.random.default_rng(seed)
    n = SUBJECTS * PER_SUBJECT
    x = g.normal(size=(n, 2))
    spec = toy_spec(x, np.ones(n, dtype=int))
    gens = g.spawn(chains)
    state = stack_states([prior_state(spec, gen) for gen in gens])
    rows = np.empty((iterations, chains, 8))  # beta, phi, lambda^2, alpha_1, interior cut-points, s_1
    for t in range(iterations):
        specs = []
        for k, gen in enumerate(gens):
            state.latent_v[k], state.latent_l[k], y = mixture_form(spec, state.beta[k], state.alpha[k],
                                                                   state.cutpoints[k], gen)
            specs.append(toy_spec(x, y))
        batch = stack_specs(specs)
        for op in gibbs._SWEEP:
            op(state, batch, gens)
        rows[t, :, :2] = state.beta
        rows[t, :, 2], rows[t, :, 3], rows[t, :, 4] = state.phi, state.lambda_sq, state.alpha[:, 0]
        rows[t, :, 5:7] = state.cutpoints[:, 1:-1]
        rows[t, :, 7] = state.s[:, 0]
    rows = rows.transpose(1, 0, 2).reshape(-1, 8)
    draws = statistics(rows[:, :2], rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5:7], rows[:, 7])
    return spec, draws


def z_scores(chain: np.ndarray, direct: np.ndarray) -> np.ndarray:
    batches = chain.reshape(BATCHES, -1, chain.shape[1]).mean(axis=1)
    se2 = batches.var(axis=0, ddof=1) / BATCHES + direct.var(axis=0, ddof=1) / len(direct)
    return (chain.mean(axis=0) - direct.mean(axis=0)) / np.sqrt(se2)


def check(seed: int, chains: int, iterations: int) -> None:
    spec, chain = successive_draws(seed, chains, iterations)
    z = z_scores(chain, direct_draws(spec, np.random.default_rng(seed + 1)))
    table = ", ".join(f"{name} {value:+.2f}" for name, value in zip(STATISTICS, z))
    print(f"\nGeweke z-scores: {table}")
    assert np.all(np.abs(z) < Z_LIMIT), f"Geweke z-scores beyond {Z_LIMIT}: {table}"


def test_sweep_keeps_the_joint_law():
    check(2004, CHAINS, ITERATIONS)


def test_chunked_sweep_keeps_the_joint_law(monkeypatch, thread_share):
    # The 9 observations run as two chunks, with the chunks' own streams
    # and sums, on one thread.
    monkeypatch.setattr(parallel, "_CHUNK_OBSERVATIONS", 8)
    thread_share(1)
    assert parallel.observation_chunks(SUBJECTS * PER_SUBJECT) == [slice(0, 4), slice(4, 9)]
    check(2005, 1, CHUNKED_ITERATIONS)
