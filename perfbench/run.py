"""ordquant benchmark: one workload through the real ``ordquant`` CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk-fit --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up the workload's input several times, then repeats the
workload's command (the first time as ``fit``/``replicate``, then as
``replay`` of its manifest) in fresh interpreters for about ``--seconds``
seconds.  It checks every output, prints each end-to-end metric with its
unit and sample count, and ends with one JSON line.  Times are rescaled to
reference seconds by the host-speed calibration in ``calibrate.py``.

``--trace 1`` runs the command once untraced, then ``perfbench/traced.py``
in a fresh interpreter, which repeats the same steps through the library's
public functions with spans.  The traced draws must match the CLI's byte for
byte; the JSON line then carries the per-layer metrics.

The exit code is 0 when every check passed, 1 when an output check failed
and 2 when the repository or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import stats
from calibrate import HostSpeed
from workloads import DELTA_MAX, DELTA_MIN, THETA, WORKLOADS, Workload, quality_params

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 3
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 150.0
DRAWS = f"draws-theta{THETA:g}.csv"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # numpy's OpenBLAS would otherwise start up to 64 threads per process,
    # oversubscribing the CPUs once the replication pool runs two workers.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def environment() -> dict[str, object]:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": child_env()["OPENBLAS_NUM_THREADS"],
    }


@dataclass
class Command:
    code: int
    wall_s: float
    maxrss_mb: float


@dataclass
class Ledger:
    """Operations attempted and the reasons any of them failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)


def run_process(argv: list[str], log_path: Path) -> Command:
    """Run a child to completion; wall time and peak RSS of it and its children."""
    with log_path.open("ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_cli(args: list[str], log_path: Path) -> Command:
    return run_process([sys.executable, "-m", "ordquant.cli", *args], log_path)


def exit_problems(cmd: Command, log_path: Path) -> list[str]:
    if cmd.code == 0:
        return []
    return [f"exit code {cmd.code}; log ends: {log_path.read_text(errors='replace')[-1000:]}"]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file; the manifest without its timestamp and output root."""
    result = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            lines = data.decode("utf-8").splitlines(keepends=True)
            data = "".join(l for l in lines if not l.startswith(("created_utc ", "out "))).encode("utf-8")
        result[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
    return result


def read_csv_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_cutpoints(deltas: np.ndarray) -> list[str]:
    problems = []
    if not np.all(np.diff(deltas, axis=1) > 0.0):
        problems.append("cut-points not strictly increasing in every draw")
    if not (np.all(deltas >= DELTA_MIN) and np.all(deltas <= DELTA_MAX)):
        problems.append(f"cut-points outside [{DELTA_MIN}, {DELTA_MAX}]")
    return problems


def expected_files(w: Workload) -> list[str]:
    if w.command == "replicate":
        return ["estimates.csv", "report.csv", "report.txt", "manifest.txt"]
    tag = f"theta{THETA:g}"
    names = [DRAWS, f"draws-{tag}.meta", f"summary-{tag}.csv", f"summary-{tag}.txt", "manifest.txt"]
    if w.chains > 1:
        names += [f"mpsrf-{tag}.csv", f"mpsrf-{tag}.dat", f"mpsrf-{tag}.txt"]
    if w.dic:
        names.append(f"dic-{tag}.txt")
    return names


def check_outputs(w: Workload, out_dir: Path) -> tuple[list[str], np.ndarray | None]:
    """Content checks on one command's outputs; returns problems and draws by chain."""
    try:
        return _check_outputs(w, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"], None


def _check_outputs(w: Workload, out_dir: Path) -> tuple[list[str], np.ndarray | None]:
    missing = [n for n in expected_files(w) if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output files {missing}"], None
    if w.command == "replicate":
        return check_replicate(w, out_dir), None
    names, values = read_csv_matrix(out_dir / DRAWS)
    problems = []
    if values.shape != (w.chains * w.retained, len(names)):
        problems.append(f"draws have shape {values.shape}")
        return problems, None
    if not np.all(np.isfinite(values)):
        problems.append("non-finite draws")
    problems += check_cutpoints(values[:, [i for i, n in enumerate(names) if n.startswith("delta_")]])
    if w.name == "desk-fit":
        means = {n: values[:, i].mean() for i, n in enumerate(names)}
        signs = tuple(np.sign([means["beta_1"], means["beta_2"], means["beta_3"]]))
        if signs != (-1.0, -1.0, 1.0):
            problems.append(f"beta posterior-mean signs {signs}, expected (-, -, +)")
    if w.dic:
        dic_line = (out_dir / f"dic-theta{THETA:g}.txt").read_text(encoding="utf-8").splitlines()[0]
        if not np.isfinite(float(dic_line.split("=", 1)[1])):
            problems.append("DIC is not finite")
    params = [names.index(n) for n in quality_params(names)]
    by_chain = values[:, params].reshape(w.chains, w.retained, len(params))
    return problems, by_chain


def check_replicate(w: Workload, out_dir: Path) -> list[str]:
    problems = []
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    done = f"{w.replications}/{w.replications} replications completed"
    if done not in report or "failed" in report:
        problems.append(f"replication attrition: report does not say '{done}'")
    names, values = read_csv_matrix(out_dir / "estimates.csv")
    if values.shape[0] != w.replications:
        problems.append(f"{values.shape[0]} estimate rows for {w.replications} replications")
    if not np.all(np.isfinite(values)):
        problems.append("non-finite estimates")
    problems += check_cutpoints(values[:, [i for i, n in enumerate(names) if n.startswith("delta_")]])
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup(w: Workload, seed: int, rundir: Path, ledger: Ledger, repeats: int,
          speed: HostSpeed | None = None) -> tuple[list[float], Path]:
    """Simulate the input ``repeats`` times; the copies must be identical."""
    walls, first = [], None
    for k in range(repeats):
        if speed is not None:
            speed.sample()
        root = rundir / f"setup{k}"
        cmd = run_cli(w.simulate_args(seed, root), rundir / "commands.log")
        out_dir = root / f"simulate-{w.dataset_seed(seed)}"
        problems = exit_problems(cmd, rundir / "commands.log")
        if not problems and not (out_dir / "dataset.csv").is_file():
            problems.append("dataset.csv missing")
        if not problems:
            sums = digests(out_dir)
            first = first or sums
            if sums != first:
                problems.append("dataset differs from the first simulate with the same seed")
        ledger.record(f"simulate #{k}", problems)
        walls.append(cmd.wall_s)
    return walls, rundir / "setup0" / f"simulate-{w.dataset_seed(seed)}" / "dataset.csv"


def measure(w: Workload, seed: int, seconds: float, rundir: Path, ledger: Ledger):
    """Repeat the workload's command for about ``seconds`` seconds.

    The host's speed is sampled before every set-up and timed command and
    once at the end."""
    speed = HostSpeed()
    setup_walls, dataset = setup(w, seed, rundir, ledger, SETUP_REPEATS, speed)
    commands: list[Command] = []
    reference = None
    by_chain = None
    start = time.perf_counter()
    while True:
        speed.sample()
        k = len(commands)
        root = rundir / f"run{k}"
        out_dir = root / f"{w.command}-{w.run_seed(seed)}"
        if k == 0:
            args = w.command_args(seed, dataset, root)
        else:
            args = ["replay", str(rundir / "run0" / f"{w.command}-{w.run_seed(seed)}" / "manifest.txt"),
                    "--out", str(root)]
        cmd = run_cli(args, rundir / "commands.log")
        commands.append(cmd)
        problems = exit_problems(cmd, rundir / "commands.log")
        if not problems and k == 0:
            problems, by_chain = check_outputs(w, out_dir)
            reference = digests(out_dir)
        elif not problems:
            sums = digests(out_dir)
            if sums != reference:
                changed = sorted(n for n in set(sums) | set(reference) if sums.get(n) != reference.get(n))
                problems.append(f"replay differs from the first run in {changed}")
        if k > 0:
            shutil.rmtree(root, ignore_errors=True)
        ledger.record(f"{args[0]} #{k}", problems)
        # Stop before a command would end after ``seconds``, once MIN_COMMANDS
        # have run; a long command stops at 2 rather than run past 2 x ``seconds``.
        finish = time.perf_counter() - start + statistics.median(c.wall_s for c in commands)
        if len(commands) >= 2 and finish > seconds and (len(commands) >= MIN_COMMANDS or finish > 2 * seconds):
            break
    speed.sample()
    return setup_walls, commands, speed, by_chain


def end_to_end(w: Workload, setup_walls, commands: list[Command], speed: HostSpeed) -> dict[str, list[float]]:
    """Times in reference seconds: measured seconds times the run's host-speed factor."""
    raw = [c.wall_s for c in commands]
    print(f"measured wall_s median {statistics.median(raw):.4g} s, setup_s median "
          f"{statistics.median(setup_walls):.4g} s; host-speed factor {speed.factor:.4f} "
          f"from {len(speed.samples)} calibrations")
    walls = [t * speed.factor for t in raw]
    return {
        "setup_s": [t * speed.factor for t in setup_walls],
        "wall_s": walls,
        "sweeps_per_s": [w.chain_sweeps / t for t in walls],
        "peak_rss_mb": [c.maxrss_mb for c in commands],
    }


def report_end_to_end(w: Workload, samples, by_chain, ledger: Ledger, units: dict[str, str]) -> dict:
    wall = statistics.median(samples["wall_s"])
    extra = {"failed_fraction": ([ledger.failed / ledger.attempted], "1")}
    if w.command == "replicate":
        extra["replications_per_min"] = ([60.0 * w.replications / t for t in samples["wall_s"]], "1/min")
    if by_chain is not None:
        min_ess = float(np.min(stats.ess_bulk(by_chain)))
        extra["min_ess"] = ([min_ess], "draws")
        extra["min_ess_per_s"] = ([min_ess / wall], "1/s")
        extra["max_split_rhat"] = ([float(np.max(stats.split_rhat(by_chain)))], "1")
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name, (values, unit) in [*((n, (samples[n], u)) for n, u in units.items()), *extra.items()]:
        q1, q2, q3 = quartiles(values)
        print(f"{name:<22} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>3}  {unit}")
    return {n: {"value": statistics.median(samples[n]), "unit": u} for n, u in units.items()}


def trace(w: Workload, seed: int, rundir: Path, ledger: Ledger, units: dict[str, str]) -> dict:
    """One untraced command, then perfbench/traced.py; per-layer metrics."""
    _, dataset = setup(w, seed, rundir, ledger, 1)
    root = rundir / "run0"
    out_dir = root / f"{w.command}-{w.run_seed(seed)}"
    cmd = run_cli(w.command_args(seed, dataset, root), rundir / "commands.log")
    problems = exit_problems(cmd, rundir / "commands.log")
    if not problems:
        problems = check_outputs(w, out_dir)[0]
    ledger.record(f"{w.command} (untraced)", problems)

    traced_dir = rundir / "traced"
    traced_cmd = run_process([sys.executable, str(HERE / "traced.py"), "--workload", w.name, "--seed", str(seed),
                          "--out", str(traced_dir)], rundir / "traced.log")
    if traced_cmd.code != 0:
        ledger.record("traced run", exit_problems(traced_cmd, rundir / "traced.log"))
        return {}
    parity = [("draws", DRAWS), ("draws metadata", DRAWS.replace(".csv", ".meta"))]
    if w.command == "replicate":
        parity = [("estimates", "estimates.csv")]
    problems = [f"traced {label} differ from the CLI's" for label, name in parity
                if not (out_dir / name).is_file()
                or (traced_dir / name).read_bytes() != (out_dir / name).read_bytes()]
    if w.command == "fit" and (traced_dir / "dataset.csv").read_bytes() != dataset.read_bytes():
        problems.append("traced dataset differs from the CLI's")
    ledger.record("traced parity", problems)

    # Interpreter start, imports and argument parsing: a command that does nothing else.
    startup = statistics.median(run_cli(["--version"], rundir / "commands.log").wall_s for _ in range(3))
    traced = json.loads((traced_dir / "traced.json").read_text(encoding="utf-8"))
    if w.command == "replicate":
        busy = sum(traced["fit_s"]) / (w.jobs * traced["study_wall_s"])
    else:
        # One fit, one worker: the share of the command spent sampling.
        command_s = (startup + traced["data.ingest_csv.s"] + traced["untraced_run_chain_s"]
                     + traced["gibbs.write_draws.s"] + traced["diagnostics.summarize.ms"] / 1e3)
        if w.chains > 1:
            command_s += traced["diagnostics.mpsrf.ms"] / 1e3
        if w.dic:
            command_s += traced["diagnostics.dic.s"]
        busy = traced["untraced_run_chain_s"] / command_s
    values = {k: traced[k] for k in units if k in traced}
    values.update({
        "simulate.fit_s.p50": statistics.median(traced["fit_s"]),
        "simulate.fit_s.max": max(traced["fit_s"]),
        "simulate.pool_busy_fraction": busy,
        "cli.overhead.s": startup,
        "bench.trace_overhead_s": traced["traced_run_chain_s"] - traced["untraced_run_chain_s"],
        "bench.min_ess_per_s": traced["bench.min_ess"] / (cmd.wall_s if w.command == "fit"
                                                          else traced["untraced_run_chain_s"]),
    })
    spans = traced_dir / "spans.npz"
    if spans.is_file():
        (RUNS / "results").mkdir(parents=True, exist_ok=True)
        shutil.copyfile(spans, RUNS / "results" / f"spans-{w.name}-seed{seed}.npz")
    print(f"traced sweep time {traced['sweep_s']:.3f} s = blocks + bookkeeping; "
          f"guard counting {traced['guards_s']:.3f} s; untraced run_chain {traced['untraced_run_chain_s']:.3f} s")
    for name in units:
        print(f"{name:<46} {values[name]:>14.6g}  {units[name]}")
    return {n: {"value": values[n], "unit": units[n]} for n in units}


def metric_units(spec: dict, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ordquant benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="offset added to the acceptance tests' seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to repeat the command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ordquant" / "cli.py").is_file():
        print(f"error: {SRC / 'ordquant'} not found; run from an ordquant checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}[w.name]
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {why}")
    rundir = RUNS / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True)
    ledger = Ledger()
    try:
        if args.trace:
            metrics = trace(w, args.seed, rundir, ledger, metric_units(spec, "per_layer"))
        else:
            setup_walls, commands, speed, by_chain = measure(w, args.seed, args.seconds, rundir, ledger)
            metrics = report_end_to_end(w, end_to_end(w, setup_walls, commands, speed), by_chain, ledger,
                                        metric_units(spec, "end_to_end"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "environment": env, **result}
    (RUNS / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
