"""Command-line front end: fit, simulate, replicate, diagnose, replay.

Every command resolves its options from flags, then an optional flat
key-value config file, then built-in defaults; the resolved values are
recorded in a manifest so ``ordquant replay <manifest>`` reproduces the
output files byte for byte; a replay first checks that its input still has
the recorded sha256.  Flag, config-file and manifest text goes
through one converter: list items split on commas (whitespace also splits
numbers), so an item cannot hold a comma, and a value that does not
convert is an error naming the option.  A replayed manifest may hold only
option keys and the run-record keys in ``_RECORD_KEYS``.  Exit codes are
stable: 0 success, 2 user or configuration error, 3 numerical failure
during sampling.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .data import CsvSchema, _csv_cells, _write_table, ingest_csv, read_draws
from .diagnostics import dic, mpsrf, summarize
from .errors import ChainDivergedError, ConfigError, DataError, SchemaError
from .gibbs import SamplerConfig, run_chain, write_draws
from .kvfile import read_kv, write_kv
from .model import ModelSpec, Priors
from .parallel import usable_cpus
from .simulate import ScenarioConfig, generate, run_replication_study, write_scenario_dataset
from .streams import STREAM_DATASET, fresh_seed, substream

# Bytes read at a time when hashing an input file for the manifest.
_HASH_BLOCK = 1 << 16

# The values ``replicate --full-paper-scale`` sets.
_FULL_PAPER_SCALE = {"replications": 200, "iterations": 20000, "burn-in": 2000}


@dataclass(frozen=True)
class Opt:
    name: str
    kind: str  # int | float | str | flag | float_list | str_list
    default: object = None
    help: str = ""
    required: bool = False


_SCHEMA_OPTS = [
    Opt("subject-col", "str", "subject", "subject id column name"),
    Opt("response-col", "str", "y", "ordinal response column name"),
    Opt("time-col", "str", "time", "time index column name (used when present)"),
    Opt("covariates", "str_list", None, "covariate columns, comma-separated or repeated (default: all others)"),
    Opt("categories", "int", None, "declared number of categories (default: infer from data)"),
]

_PRIOR_OPTS = [
    Opt("a1", "float", 0.1, "gamma shape for the shrinkage rate"),
    Opt("a2", "float", 0.1, "gamma rate for the shrinkage rate"),
    Opt("b1", "float", 0.1, "inverse-gamma shape for the random-effect variance"),
    Opt("b2", "float", 0.1, "inverse-gamma scale for the random-effect variance"),
    Opt("delta-min", "float", -10.0, "lower support bound for interior cut-points"),
    Opt("delta-max", "float", 10.0, "upper support bound for interior cut-points"),
]

_COMMON_OPTS = [
    Opt("seed", "int", None, "64-bit seed (default: auto-generated and recorded)"),
    Opt("out", "str", "runs", "output root directory"),
]

OPTIONS: dict[str, list[Opt]] = {
    "fit": [
        Opt("input", "str", None, "dataset CSV", required=True),
        Opt("theta", "float_list", [0.5], "quantile levels, comma-separated or repeated"),
        Opt("iterations", "int", 20000),
        Opt("burn-in", "int", 2000),
        Opt("thin", "int", 1),
        Opt("chains", "int", 1),
        Opt("level", "float", 0.95, "credible-interval level"),
        Opt("checkpoints", "int", 20, "number of shrink-factor checkpoints"),
        Opt("dic", "flag", False, "compute the deviance information criterion"),
        Opt("retain-alpha", "flag", False, "keep subject-effect draws"),
        Opt("overdispersed-starts", "flag", False, "perturb each chain's starting coefficients"),
        *_SCHEMA_OPTS,
        *_PRIOR_OPTS,
        *_COMMON_OPTS,
    ],
    "simulate": [
        Opt("scenario", "str", None, "sim1 (fixed effects) or sim2 (random effects)", required=True),
        Opt("subjects", "int", 40),
        Opt("n-per-subject", "int", 5),
        Opt("random-effect-sd", "float", None, "override the scenario's random-effect SD"),
        Opt("error", "str", "logistic", "liability noise: logistic or normal"),
        *_COMMON_OPTS,
    ],
    "replicate": [
        Opt("scenario", "str", None, "sim1 or sim2", required=True),
        Opt("replications", "int", 20),
        Opt("theta", "float_list", [0.5], "quantile levels, comma-separated or repeated"),
        Opt("subjects", "int", 40),
        Opt("n-per-subject", "int", 5),
        Opt("error", "str", "logistic", "liability noise: logistic or normal"),
        Opt("iterations", "int", 10000),
        Opt("burn-in", "int", 2000),
        Opt("thin", "int", 1),
        Opt("chains", "int", 1),
        Opt("jobs", "int", 1, "parallel replication workers"),
        Opt("full-paper-scale", "flag", False, "200 replications at 20000/2000 iterations"),
        *_COMMON_OPTS,
    ],
    "diagnose": [
        Opt("draws", "str_list", None, "draws CSV file(s); several files = several chains", required=True),
        Opt("mpsrf", "flag", False, "emit the multivariate shrink-factor series"),
        Opt("checkpoints", "int", 20),
        Opt("dic", "flag", False, "compute DIC (needs --data and --theta)"),
        Opt("data", "str", None, "dataset CSV for the deviance"),
        Opt("theta", "float", None, "quantile level of the fit being diagnosed"),
        Opt("level", "float", 0.95),
        *_SCHEMA_OPTS,
        *_COMMON_OPTS,
    ],
}


# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "flag": lambda text: _BOOLEANS[text.lower()],
    "float_list": lambda text: [float(v) for v in text.replace(",", " ").split()],
    "str_list": lambda text: [v.strip() for v in text.split(",") if v.strip()],
}

# How argparse keeps each kind's flag text; any other kind is a plain store.
_ACTIONS = {
    "flag": {"action": "store_const", "const": "true"},
    "float_list": {"action": "append"},
    "str_list": {"action": "append"},
}


def _parse_option(opt: Opt, text: str, source: str):
    try:
        return _PARSERS[opt.kind](text.strip())
    except (KeyError, ValueError):
        raise ConfigError(f"option {opt.name} in {source}: {text!r} is not a valid {opt.kind}") from None


def _format(opt: Opt, value) -> str:
    if opt.kind == "flag":
        return "true" if value else "false"
    if opt.kind in ("float_list", "str_list"):
        return ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if opt.kind == "float":
        return repr(float(value))
    return str(value)


def _add_arguments(parser: argparse.ArgumentParser, opts: list[Opt]) -> None:
    for opt in opts:
        parser.add_argument(f"--{opt.name}", dest=opt.name, help=opt.help, **_ACTIONS.get(opt.kind, {}))


def _resolve(opts: list[Opt], texts: dict[str, str], source: str) -> dict:
    """Each option's value converted from ``texts``, else its default."""
    unknown = set(texts) - {o.name for o in opts}
    if unknown:
        raise ConfigError(f"unknown option(s) {sorted(unknown)} in {source}")
    resolved = {}
    for opt in opts:
        value = _parse_option(opt, texts[opt.name], source) if opt.name in texts else opt.default
        if value is None and opt.required:
            raise ConfigError(f"missing required option --{opt.name}")
        resolved[opt.name] = value
    return resolved


def _write_manifest(out_dir: Path, command: str, resolved: dict, extra=None) -> None:
    items: dict[str, str] = {
        "command": command,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    for opt in OPTIONS[command]:
        if resolved[opt.name] is not None:
            items[opt.name] = _format(opt, resolved[opt.name])
    items.update(extra or {})
    write_kv(out_dir / "manifest.txt", items)


def _sha256(path) -> str:
    """Hex SHA-256 of a file, read through one ``_HASH_BLOCK``-byte buffer."""
    h = hashlib.sha256()
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with Path(path).open("rb", buffering=0) as fh:
        while size := fh.readinto(block):
            h.update(view[:size])
    return h.hexdigest()


def _schema_from(resolved: dict) -> CsvSchema:
    covs = resolved.get("covariates")
    return CsvSchema(
        subject=resolved["subject-col"],
        response=resolved["response-col"],
        covariates=tuple(covs) if covs else None,
        time=resolved["time-col"],
        num_categories=resolved["categories"],
    )


def _priors_from(resolved: dict) -> Priors:
    return Priors(
        a1=resolved["a1"], a2=resolved["a2"], b1=resolved["b1"], b2=resolved["b2"],
        delta_min=resolved["delta-min"], delta_max=resolved["delta-max"],
    )


def _scenario_from(resolved: dict) -> ScenarioConfig:
    return ScenarioConfig(
        scenario=resolved["scenario"],
        subjects=resolved["subjects"],
        obs_per_subject=resolved["n-per-subject"],
        random_effect_sd=resolved.get("random-effect-sd"),
        error=resolved["error"],
        replications=resolved.get("replications", ScenarioConfig.replications),
        seed=resolved["seed"],
    )


def _check_report_options(resolved: dict) -> None:
    """Reject a credible level or checkpoint count the reports cannot use, before any draw."""
    if not 0.0 < resolved["level"] < 1.0:
        raise ConfigError(f"option level must lie in (0, 1), got {resolved['level']}")
    if resolved["checkpoints"] < 1:
        raise ConfigError(f"option checkpoints must be at least 1, got {resolved['checkpoints']}")


def _check_levels(thetas: list[float]) -> None:
    """Reject a quantile level outside (0, 1), a level listed twice, and two
    levels that share the tag ``f"{theta:g}"`` that names their outputs,
    before any input is read or any level sampled."""
    for k, theta in enumerate(thetas):
        if not 0.0 < theta < 1.0:
            raise ConfigError(f"option theta: quantile level must lie in (0, 1), got {theta!r}")
        twin = next((t for t in thetas[:k] if f"{t:g}" == f"{theta:g}"), None)
        if twin == theta:
            raise ConfigError(f"option theta lists the level {theta!r} more than once")
        if twin is not None:
            raise ConfigError(f"option theta lists the levels {twin!r} and {theta!r}, which share "
                              f"the output tag {theta:g}")


# ---------------------------------------------------------------------------
# Command runners (fill out_dir from resolved options; return any manifest extras)
# ---------------------------------------------------------------------------

def _run_fit(resolved: dict, out_dir: Path) -> dict:
    input_path = Path(resolved["input"]).resolve()
    resolved["input"] = str(input_path)
    _check_report_options(resolved)
    _check_levels(resolved["theta"])
    config = SamplerConfig(
        iterations=resolved["iterations"],
        burn_in=resolved["burn-in"],
        thin=resolved["thin"],
        num_chains=resolved["chains"],
        seed=resolved["seed"],
        overdispersed_starts=resolved["overdispersed-starts"],
        retain_alpha=resolved["retain-alpha"] or resolved["dic"],
    )
    retained = config.retained_per_chain
    if retained < 2:
        need = " per chain; the shrink factor needs" if config.num_chains > 1 else "; the summaries need"
        raise ConfigError(f"options iterations, burn-in, thin and chains retain {retained} draw{need} at least two")
    dataset = ingest_csv(input_path, _schema_from(resolved))
    digest = _sha256(input_path)
    expected = resolved.get("input_sha256")
    if expected is not None and digest != expected:
        raise DataError(f"input {input_path} has sha256 {digest}, but the manifest records {expected}")
    priors = _priors_from(resolved)
    specs = [ModelSpec(theta=theta, dataset=dataset, priors=priors) for theta in resolved["theta"]]
    # One worker process per chain, up to the CPUs this process may run on;
    # the draws do not depend on the number of workers.
    jobs = min(config.num_chains, usable_cpus())
    for spec in specs:
        draws = run_chain(spec, config, jobs)
        write_draws(draws, out_dir / f"draws-theta{spec.theta:g}.csv", spec)
        _write_reports(out_dir, f"-theta{spec.theta:g}", draws, resolved, config.num_chains >= 2,
                       spec if resolved["dic"] else None)
    return {"input_sha256": digest}


def _write_reports(out_dir: Path, tag: str, draws, resolved: dict, with_mpsrf: bool, dic_spec) -> None:
    """The summary files of ``draws``, the shrink-factor files when
    ``with_mpsrf``, and DIC under ``dic_spec`` unless it is None, each named
    ``<kind><tag>.<ext>``, once all of them are computed."""
    table = summarize(draws, level=resolved["level"])
    series = mpsrf(draws, checkpoints=resolved["checkpoints"]) if with_mpsrf else None
    result = dic(draws, dic_spec) if dic_spec is not None else None
    table.to_csv(out_dir / f"summary{tag}.csv")
    (out_dir / f"summary{tag}.txt").write_text(table.to_text(), encoding="utf-8")
    if series is not None:
        series.to_csv(out_dir / f"mpsrf{tag}.csv")
        series.to_plot_file(out_dir / f"mpsrf{tag}.dat")
        (out_dir / f"mpsrf{tag}.txt").write_text(series.to_text(), encoding="utf-8")
    if result is not None:
        write_kv(
            out_dir / f"dic{tag}.txt",
            {
                "dic": f"{result.dic:.17g}",
                "dbar": f"{result.dbar:.17g}",
                "d_at_posterior_mean": f"{result.d_at_mean:.17g}",
                "p_d": f"{result.p_d:.17g}",
                "floored_cells": result.floored_cells,
            },
        )


def _run_simulate(resolved: dict, out_dir: Path) -> None:
    config = _scenario_from(resolved)
    rng = substream(config.seed, STREAM_DATASET, 0)
    dataset = generate(config, rng)
    write_scenario_dataset(dataset, config, out_dir / "dataset.csv")


def _run_replicate(resolved: dict, out_dir: Path) -> None:
    _check_levels(resolved["theta"])
    if resolved["jobs"] < 1:
        raise ConfigError(f"option jobs must be at least 1, got {resolved['jobs']}")
    config = _scenario_from(resolved)
    sampler = SamplerConfig(
        iterations=resolved["iterations"],
        burn_in=resolved["burn-in"],
        thin=resolved["thin"],
        num_chains=resolved["chains"],
    )
    run = run_replication_study(config, sampler, resolved["theta"], jobs=resolved["jobs"])
    run.estimates_to_csv(out_dir / "estimates.csv")
    _write_report_csv(run, out_dir / "report.csv")
    text = "".join(run.reports[t].to_text() + "\n" for t in run.thetas)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")


def _write_report_csv(run, path) -> None:
    models = sorted({m for t in run.thetas for m in run.reports[t].efficiency})
    reports = [run.reports[theta] for theta in run.thetas]
    rows = [(report.theta, report.truth[name], bias,
             *(f"{report.efficiency[m][name]:.17g}" if m in report.efficiency else "" for m in models))
            for report in reports for name, bias in report.bias.items()]
    theta, truth, bias, *efficiency = zip(*rows)
    names = _csv_cells([name for report in reports for name in report.bias])
    _write_table(path, ["theta", "parameter", "truth", "relative_bias", *(f"efficiency_{m}" for m in models)],
                 "%.17g,%s,%.17g,%.17g" + ",%s" * len(models), [theta, names, truth, bias, *efficiency])


def _run_diagnose(resolved: dict, out_dir: Path) -> None:
    _check_report_options(resolved)
    draws = read_draws(resolved["draws"])
    spec = None
    if resolved["dic"]:
        if not resolved["data"] or resolved["theta"] is None:
            raise ConfigError("DIC needs --data and --theta")
        data_path = Path(resolved["data"]).resolve()
        resolved["data"] = str(data_path)
        spec = ModelSpec(theta=resolved["theta"], dataset=ingest_csv(data_path, _schema_from(resolved)))
    _write_reports(out_dir, "", draws, resolved, resolved["mpsrf"], spec)
    resolved["draws"] = [str(Path(p).resolve()) for p in resolved["draws"]]


_RUNNERS = {
    "fit": _run_fit,
    "simulate": _run_simulate,
    "replicate": _run_replicate,
    "diagnose": _run_diagnose,
}


# Manifest keys that record the run rather than set an option.
_RECORD_KEYS = ("command", "version", "created_utc", "input_sha256")


def _run(command: str, texts: dict[str, str], source: str, recorded=None) -> int:
    """Resolve ``command``'s options from ``texts``, run it and write the manifest that replays it.

    ``recorded`` holds a replayed manifest's ``input_sha256``, which ``fit`` checks;
    ``--full-paper-scale`` sets ``_FULL_PAPER_SCALE``, and ``texts`` setting another value is an error.
    A run that fails removes the directories it made while they are empty."""
    resolved = {**_resolve(OPTIONS[command], texts, source), **(recorded or {})}
    if resolved.get("full-paper-scale"):
        for name, value in _FULL_PAPER_SCALE.items():
            if name in texts and resolved[name] != value:
                raise ConfigError(f"option full-paper-scale sets {name} to {value}, "
                                  f"but {source} sets it to {resolved[name]}")
        resolved.update(_FULL_PAPER_SCALE)
    if resolved["seed"] is None:
        resolved["seed"] = fresh_seed()
    out_dir = Path(resolved["out"]) / f"{command}-{resolved['seed']}"
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        extra = _RUNNERS[command](resolved, out_dir)
    except BaseException:
        for d in created:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    _write_manifest(out_dir, command, resolved, extra)
    return 0


def _run_replay(manifest_path, out_override) -> int:
    manifest = read_kv(manifest_path)
    command = manifest.get("command")
    if command not in _RUNNERS:
        raise ConfigError(f"manifest {manifest_path} does not name a replayable command")
    texts = {key: text for key, text in manifest.items() if key not in _RECORD_KEYS}
    if out_override:
        texts["out"] = out_override
    recorded = {"input_sha256": manifest["input_sha256"]} if "input_sha256" in manifest else None
    return _run(command, texts, f"manifest {manifest_path}", recorded)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordquant",
        description="Bayesian quantile regression for ordinal longitudinal data",
    )
    parser.add_argument("--version", action="version", version=f"ordquant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "fit": "fit the model to a dataset CSV at one or more quantile levels",
        "simulate": "generate a synthetic dataset from a named scenario",
        "replicate": "run a replication study and report bias/efficiency",
        "diagnose": "summaries, shrink factor, and DIC from stored draws",
    }
    for command, opts in OPTIONS.items():
        p = sub.add_parser(command, help=descriptions[command])
        p.add_argument("--config", help="flat key=value options file")
        _add_arguments(p, opts)
        if command == "diagnose":
            p.add_argument("draws_files", nargs="*", help="draws CSV file(s)")
    replay = sub.add_parser("replay", help="re-run a command from its manifest")
    replay.add_argument("manifest")
    replay.add_argument("--out", help="override the output root")
    return parser


def _dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "replay":
        return _run_replay(args.manifest, args.out)
    texts = read_kv(args.config) if args.config else {}
    if args.command == "diagnose" and args.draws_files:
        args.draws = (args.draws or []) + args.draws_files
    for opt in OPTIONS[args.command]:
        text = getattr(args, opt.name)
        if text is not None:
            texts[opt.name] = text if isinstance(text, str) else ",".join(text)
    source = f"the command line or config file {args.config}" if args.config else "the command line"
    return _run(args.command, texts, source)


def main(argv=None) -> int:
    try:
        return _dispatch(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
    except (SchemaError, DataError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChainDivergedError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
