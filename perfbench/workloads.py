"""Workload definitions: what each benchmark run asks the ordquant CLI to do.

Every seed the benchmark receives is an offset added to the acceptance
tests' seeds (dataset 2026, desk fit 11, two-chain fit 17, replication
study 314), so ``--seed 0`` reproduces the acceptance configurations.  Why each
workload exists is recorded in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

DELTA_MIN = -3.0
DELTA_MAX = 3.0
THETA = 0.5

DATASET_SEED = 2026


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "fit" or "replicate"
    scenario: str
    subjects: int
    n_per_subject: int
    iterations: int
    burn_in: int
    base_seed: int          # fit seed, or replication-study seed
    chains: int = 1
    dic: bool = False
    replications: int = 1
    jobs: int = 1

    def dataset_seed(self, seed: int) -> int:
        return DATASET_SEED + seed

    def run_seed(self, seed: int) -> int:
        return self.base_seed + seed

    @property
    def retained(self) -> int:
        return self.iterations - self.burn_in

    @property
    def chain_sweeps(self) -> int:
        """Sweeps one command performs, over every chain and replication."""
        return self.iterations * self.chains * self.replications

    def simulate_args(self, seed: int, out) -> list[str]:
        return ["simulate", "--scenario", self.scenario, "--subjects", str(self.subjects),
                "--n-per-subject", str(self.n_per_subject),
                "--seed", str(self.dataset_seed(seed)), "--out", str(out)]

    def command_args(self, seed: int, dataset, out) -> list[str]:
        common = ["--theta", str(THETA), "--iterations", str(self.iterations),
                  "--burn-in", str(self.burn_in), "--seed", str(self.run_seed(seed)), "--out", str(out)]
        if self.command == "replicate":
            return ["replicate", "--scenario", self.scenario, "--replications", str(self.replications),
                    "--subjects", str(self.subjects), "--n-per-subject", str(self.n_per_subject),
                    "--jobs", str(self.jobs), *common]
        args = ["fit", "--input", str(dataset), "--delta-min", str(DELTA_MIN),
                "--delta-max", str(DELTA_MAX), *common]
        if self.chains > 1:
            args += ["--chains", str(self.chains), "--overdispersed-starts"]
        if self.dic:
            args.append("--dic")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-fit",
            command="fit", scenario="sim2", subjects=40, n_per_subject=10,
            iterations=10000, burn_in=2000, base_seed=11,
        ),
        Workload(
            name="chains-dic",
            command="fit", scenario="sim2", subjects=40, n_per_subject=10,
            iterations=10000, burn_in=2000, base_seed=17, chains=2, dic=True,
        ),
        Workload(
            name="replication-study",
            command="replicate", scenario="sim1", subjects=40, n_per_subject=10,
            iterations=1000, burn_in=250, base_seed=314, replications=8, jobs=2,
        ),
        Workload(
            name="large-panel",
            command="fit", scenario="sim2", subjects=20000, n_per_subject=10,
            iterations=60, burn_in=30, base_seed=11,
        ),
    )
}

def quality_params(names) -> list[str]:
    """The parameters ``min_ess`` and ``max_split_rhat`` range over."""
    return [n for n in names if n.startswith(("beta_", "delta_")) or n in ("lambda_sq", "phi")]


# Gibbs blocks in the order gibbs.sweep runs them; perfbench/traced.py
# refuses to run if the library's order differs.
BLOCKS = ("update_v", "update_beta", "update_s", "update_lambda_sq",
          "update_alpha", "update_phi", "update_l", "update_delta")
