"""Traced run: one workload's steps through ordquant's public functions.

Usage (PYTHONPATH must include the repository's ``src``)::

    python3 perfbench/traced.py --workload desk-fit --seed 0 --out DIR

It simulates and writes the dataset, ingests it, runs every chain as
``gibbs.run_chain`` does but with a span around each Gibbs block, writes the
draws, and runs the diagnostics, the way ``ordquant fit`` would.  Outputs go
to DIR: the dataset and draws files (which run.py compares byte for byte
with the CLI's), ``spans.npz`` and ``traced.json``.  Nothing in the library
is changed: the numerical-guard counts are recomputed here from the state
between blocks, inside their own spans so that they do not count as
bookkeeping.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from ordquant import gibbs
from ordquant.data import CsvSchema, ingest_csv, write_csv
from ordquant.diagnostics import dic, mpsrf, summarize
from ordquant.distributions import _TAIL_CUTOFF, sample_gig, sample_trunc_normal
from ordquant.gibbs import PosteriorDraws, SamplerConfig, parameter_names, run_chain, write_draws
from ordquant.model import RHO1_SQ_FLOOR, ModelSpec, Priors, initialize_state
from ordquant.simulate import ScenarioConfig, generate, run_replication_study
from ordquant.streams import STREAM_CHAIN, STREAM_DATASET, STREAM_REPLICATION, child_seed, substream

import stats
from tracing import Tracer, timed_estimator
from workloads import BLOCKS, DELTA_MAX, DELTA_MIN, THETA, WORKLOADS, quality_params

KERNEL_TIMING_S = 0.2


def check_block_order() -> list:
    order = tuple(op.__name__ for op in getattr(gibbs, "_SWEEP", ()))
    if order != BLOCKS:
        raise SystemExit(
            f"gibbs.sweep runs {order or 'an unknown block list'}, but perfbench/traced.py "
            f"times {BLOCKS}; update perfbench/workloads.py and perfbench/traced.py"
        )
    return [getattr(gibbs, name) for name in BLOCKS]


class Guards:
    """Counts of the numerical guards that fire during the traced sweeps."""

    WATCHED = ("update_v", "update_s", "update_l")

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec
        self.rho1_floor_hits = 0
        self.tail_draws = 0
        self.cutpoint_pinned = 0

    def before(self, block: str, state) -> None:
        ds = self.spec.dataset
        if block == "update_v":
            resid = state.latent_l - ds.x @ state.beta - state.alpha[ds.subject_index]
            self.rho1_floor_hits += int(np.count_nonzero(0.5 * resid * resid < RHO1_SQ_FLOOR))
        elif block == "update_s":
            self.rho1_floor_hits += int(np.count_nonzero(state.beta * state.beta < RHO1_SQ_FLOOR))
        elif block == "update_l":
            center = ds.x @ state.beta + state.alpha[ds.subject_index] + self.spec.xi * state.latent_v
            sd = np.sqrt(2.0 * state.latent_v)
            a = (state.cutpoints[ds.y - 1] - center) / sd
            b = (state.cutpoints[ds.y] - center) / sd
            self.tail_draws += int(np.count_nonzero((a > _TAIL_CUTOFF) | (b < -_TAIL_CUTOFF)))

    def after_sweep(self, state) -> None:
        interior = state.cutpoints[1:-1]
        self.cutpoint_pinned += int(np.count_nonzero((interior <= DELTA_MIN) | (interior >= DELTA_MAX)))


def check_finite(state, chain: int, t: int) -> None:
    """The per-sweep finiteness check ``run_chain`` makes."""
    for name, block in (("beta", state.beta), ("alpha", state.alpha), ("latent_l", state.latent_l),
                        ("latent_v", state.latent_v), ("s", state.s), ("lambda_sq", state.lambda_sq),
                        ("phi", state.phi), ("delta", state.cutpoints[1:-1])):
        if not np.all(np.isfinite(block)):
            raise SystemExit(f"chain {chain}: non-finite {name} at sweep {t}")


def traced_chains(tracer: Tracer, root: int, spec: ModelSpec, config: SamplerConfig, ops, guards: Guards):
    """``run_chain`` with spans; also keeps the subject effects of every retained sweep."""
    names = parameter_names(spec, config.retain_alpha)
    total = config.retained_per_chain * config.num_chains
    values = np.empty((total, len(names)))
    alphas = np.empty((total, spec.dataset.num_subjects))
    chain_ids = np.empty(total, dtype=np.intp)
    iterations = np.empty(total, dtype=np.intp)
    steps = [(op, tracer.name(f"gibbs.{op.__name__}"),
              partial(guards.before, op.__name__) if op.__name__ in Guards.WATCHED else None)
             for op in ops]
    guard_id = tracer.name("bench.guards")
    init_id = tracer.name("model.initialize_state")
    add = tracer.spans.append
    clock = time.perf_counter
    row = 0
    state = None
    for chain in range(config.num_chains):
        chain_span = tracer.open("gibbs.run_chain", root)
        rng = substream(config.seed, STREAM_CHAIN, chain)
        t0 = clock()
        state = initialize_state(spec, rng, overdispersed=config.overdispersed_starts)
        add((init_id, t0, clock(), chain_span))
        for t in range(1, config.iterations + 1):
            for op, block_id, guard in steps:
                if guard is not None:
                    t0 = clock()
                    guard(state)
                    add((guard_id, t0, clock(), chain_span))
                t0 = clock()
                op(state, spec, rng)
                add((block_id, t0, clock(), chain_span))
            t0 = clock()
            guards.after_sweep(state)
            add((guard_id, t0, clock(), chain_span))
            check_finite(state, chain, t)
            if t > config.burn_in and (t - config.burn_in) % config.thin == 0:
                parts = [state.beta, state.cutpoints[1:-1], [state.lambda_sq, state.phi]]
                if config.retain_alpha:
                    parts.append(state.alpha)
                values[row] = np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])
                alphas[row] = state.alpha
                chain_ids[row] = chain
                iterations[row] = t
                row += 1
        tracer.close(chain_span)
    draws = PosteriorDraws(names, values, chain_ids, iterations, theta=spec.theta, config=config)
    return draws, alphas, state


def with_alpha(draws: PosteriorDraws, alphas: np.ndarray) -> PosteriorDraws:
    if any(n.startswith("alpha_") for n in draws.names):
        return draws
    names = draws.names + [f"alpha_{i + 1}" for i in range(alphas.shape[1])]
    return replace(draws, names=names, values=np.hstack([draws.values, alphas]))


def as_two_chains(draws: PosteriorDraws) -> PosteriorDraws:
    """A single chain's halves as two chains, so the shrink factor is defined."""
    if draws.num_chains >= 2:
        return draws
    half = draws.values.shape[0] // 2
    values = np.vstack([draws.values[:half], draws.values[draws.values.shape[0] - half:]])
    return replace(draws, values=values, chain=np.repeat([0, 1], half),
                   iteration=np.tile(draws.iteration[:half], 2))


def ns_per_draw(func, n: int) -> float:
    times = []
    deadline = time.perf_counter() + KERNEL_TIMING_S
    while len(times) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        func()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / n * 1e9


def kernel_timings(spec: ModelSpec, state) -> dict[str, float]:
    """Distribution kernels on update_l's and update_v's inputs from the final state."""
    ds = spec.dataset
    rng = np.random.default_rng(0)
    center = ds.x @ state.beta + state.alpha[ds.subject_index] + spec.xi * state.latent_v
    variance = 2.0 * state.latent_v
    lower = state.cutpoints[ds.y - 1]
    upper = state.cutpoints[ds.y]
    resid = state.latent_l - ds.x @ state.beta - state.alpha[ds.subject_index]
    rho1 = np.sqrt(np.maximum(0.5 * resid * resid, RHO1_SQ_FLOOR))
    n = ds.num_observations
    return {
        "distributions.sample_trunc_normal.ns_per_draw":
            ns_per_draw(lambda: sample_trunc_normal(center, variance, lower, upper, rng), n),
        "distributions.sample_gig.ns_per_draw":
            ns_per_draw(lambda: sample_gig(0.5, rho1, np.sqrt(0.5), rng), n),
    }


def draw_statistics(draws: PosteriorDraws) -> dict[str, float]:
    params = quality_params(draws.names)
    by_chain = draws.by_chain(params)
    deltas = draws.by_chain([n for n in params if n.startswith("delta_")])
    steps = np.abs(np.diff(deltas, axis=1))
    centred = deltas - deltas.mean(axis=1, keepdims=True)
    lag1 = (centred[:, 1:] * centred[:, :-1]).sum(axis=1) / (centred * centred).sum(axis=1)
    return {
        "bench.min_ess": float(np.min(stats.ess_bulk(by_chain))),
        "bench.max_split_rhat": float(np.max(stats.split_rhat(by_chain))),
        "gibbs.cutpoint_step_mean": float(steps.mean()),
        "gibbs.delta_lag1_max": float(lag1.max()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ops = check_block_order()

    tracer = Tracer()
    root = tracer.open("bench.traced_run")
    if w.command == "replicate":
        scenario = ScenarioConfig(scenario=w.scenario, subjects=w.subjects, obs_per_subject=w.n_per_subject,
                                  replications=w.replications, seed=w.run_seed(args.seed))
        data_rng = substream(scenario.seed, STREAM_REPLICATION, 0, 0)
        fit_seed = child_seed(scenario.seed, STREAM_REPLICATION, 0, 1)
    else:
        scenario = ScenarioConfig(scenario=w.scenario, subjects=w.subjects, obs_per_subject=w.n_per_subject,
                                  seed=w.dataset_seed(args.seed))
        data_rng = substream(scenario.seed, STREAM_DATASET, 0)
        fit_seed = w.run_seed(args.seed)
    with tracer.span("simulate.generate", root):
        generated = generate(scenario, data_rng)
    with tracer.span("data.write_csv", root):
        write_csv(generated, out / "dataset.csv")
    with tracer.span("data.ingest_csv", root):
        dataset = ingest_csv(out / "dataset.csv", CsvSchema())

    spec = ModelSpec(theta=THETA, dataset=dataset, priors=Priors(delta_min=DELTA_MIN, delta_max=DELTA_MAX))
    config = SamplerConfig(iterations=w.iterations, burn_in=w.burn_in, num_chains=w.chains, seed=fit_seed,
                           overdispersed_starts=w.chains > 1, retain_alpha=w.dic)

    start = time.perf_counter()
    reference = run_chain(spec, config)
    untraced_s = time.perf_counter() - start

    guards = Guards(spec)
    start = time.perf_counter()
    draws, alphas, state = traced_chains(tracer, root, spec, config, ops, guards)
    traced_s = time.perf_counter() - start
    if not np.array_equal(draws.values, reference.values):
        raise SystemExit("traced chains drew different values from gibbs.run_chain")

    with tracer.span("gibbs.write_draws", root):
        write_draws(draws, out / f"draws-theta{THETA:g}.csv", spec)
    with tracer.span("diagnostics.summarize", root):
        summarize(draws)
    with tracer.span("diagnostics.mpsrf", root):
        mpsrf(as_two_chains(draws), checkpoints=20)
    with tracer.span("diagnostics.dic", root):
        dic_result = dic(with_alpha(draws, alphas), spec)

    result = {
        "untraced_run_chain_s": untraced_s,
        "traced_run_chain_s": traced_s,
        "fit_s": [untraced_s],
        "study_wall_s": None,
        "model.rho1_floor_hits": guards.rho1_floor_hits,
        "distributions.trunc_normal_tail_draws": guards.tail_draws,
        "gibbs.cutpoint_pinned": guards.cutpoint_pinned,
        "diagnostics.dic_floored_cells": dic_result.floored_cells,
        "gibbs.draws_bytes": (out / f"draws-theta{THETA:g}.csv").stat().st_size,
        **draw_statistics(draws),
        **kernel_timings(spec, state),
    }

    if w.command == "replicate":
        fit_dir = out / "fit-times"
        fit_dir.mkdir(exist_ok=True)
        sampler = SamplerConfig(iterations=w.iterations, burn_in=w.burn_in)
        with tracer.span("simulate.run_replication_study", root) as study_span:
            run = run_replication_study(scenario, sampler, [THETA], estimator=partial(timed_estimator, str(fit_dir)),
                                        jobs=w.jobs)
        run.estimates_to_csv(out / "estimates.csv")
        means = np.array([draws.column(n).mean() for n in run.parameters])
        if not np.array_equal(means, run.estimates[THETA][0]):
            raise SystemExit("traced replication 0 does not reproduce the study's first estimate row")
        result["fit_s"] = [float(p.read_text()) for p in sorted(fit_dir.glob("fit-*.txt"))]
        result["study_wall_s"] = tracer.duration(study_span)
    tracer.close(root)

    totals = tracer.totals()
    sweeps = config.num_chains * config.iterations
    for name in BLOCKS:
        result[f"gibbs.{name}.us_per_sweep"] = totals[f"gibbs.{name}"][0] / sweeps * 1e6
    result["gibbs.bookkeeping.us_per_sweep"] = totals["gibbs.run_chain"][1] / sweeps * 1e6
    for name, key, scale in (("gibbs.write_draws", "gibbs.write_draws.s", 1.0),
                             ("diagnostics.summarize", "diagnostics.summarize.ms", 1e3),
                             ("diagnostics.mpsrf", "diagnostics.mpsrf.ms", 1e3),
                             ("diagnostics.dic", "diagnostics.dic.s", 1.0),
                             ("data.write_csv", "data.write_csv.s", 1.0),
                             ("data.ingest_csv", "data.ingest_csv.s", 1.0),
                             ("simulate.generate", "simulate.generate.ms", 1e3),
                             ("model.initialize_state", "model.initialize_state.ms", 1e3 / config.num_chains)):
        result[key] = totals[name][0] * scale
    blocks_s = sum(totals[f"gibbs.{name}"][0] for name in BLOCKS)
    result["sweep_s"] = blocks_s + totals["gibbs.run_chain"][1]
    result["guards_s"] = totals["bench.guards"][0]

    tracer.write(out / "spans.npz")
    (out / "traced.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
