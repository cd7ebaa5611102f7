import csv
import filecmp
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ordquant
from ordquant import cli, data, gibbs
from ordquant.cli import main
from ordquant.diagnostics import MpsrfSeries, ReplicationReport, SummaryTable, summarize
from ordquant.gibbs import PosteriorDraws, SamplerConfig, read_draws
from ordquant.kvfile import read_kv
from ordquant.simulate import ReplicationRun, run_replication_study

from .oracles import summary_row


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    rows = ["subject,y,x1"]
    vals = [("a", 1, -0.4), ("a", 2, 0.6), ("a", 1, -0.1), ("b", 2, 0.8), ("b", 1, -0.7),
            ("b", 2, 0.3), ("c", 1, -0.9), ("c", 2, 0.5), ("c", 1, -0.2), ("c", 2, 0.9)]
    rows += [f"{s},{y},{x}" for s, y, x in vals]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def wide_csv(tmp_path):
    path = tmp_path / "wide.csv"
    rows = ["subject,y,x1,x2,age group"]
    vals = [("a", 1, -0.4, 0.2, 0.1), ("a", 2, 0.6, -0.3, 0.4), ("a", 1, -0.1, 0.5, -0.2),
            ("b", 2, 0.8, 0.1, 0.3), ("b", 1, -0.7, -0.6, -0.5), ("b", 2, 0.3, 0.4, 0.6),
            ("c", 1, -0.9, 0.2, -0.1), ("c", 2, 0.5, -0.2, 0.2), ("c", 1, -0.2, 0.7, -0.4),
            ("c", 2, 0.9, -0.1, 0.5)]
    rows += [",".join(map(str, v)) for v in vals]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def manifest_of(out_root, command, seed):
    return Path(out_root) / f"{command}-{seed}" / "manifest.txt"


def replay_differences(original, replayed):
    """Files of run directory ``replayed`` that differ from ``original``: any
    output byte, or a manifest line other than ``created_utc`` and ``out``."""
    def contents(run_dir):
        files = {}
        for path in sorted(run_dir.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.txt":
                lines = data.decode("utf-8").splitlines(keepends=True)
                data = "".join(l for l in lines if not l.startswith(("created_utc ", "out "))).encode("utf-8")
            files[path.name] = data
        return files
    a, b = contents(original), contents(replayed)
    assert "manifest.txt" in a and len(a) > 1
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


class TestFit:
    def test_draws_row_count(self, tmp_path, toy_csv):
        out = tmp_path / "runs"
        code = run(["fit", "--input", toy_csv, "--theta", "0.5", "--iterations", "100",
                    "--burn-in", "20", "--seed", "7", "--out", out])
        assert code == 0
        draws = (out / "fit-7" / "draws-theta0.5.csv").read_text().strip().splitlines()
        assert len(draws) == 1 + 80
        assert (out / "fit-7" / "summary-theta0.5.csv").exists()
        assert (out / "fit-7" / "summary-theta0.5.txt").exists()
        assert manifest_of(out, "fit", 7).exists()

    def test_determinism_byte_identical(self, tmp_path, toy_csv):
        before = toy_csv.read_bytes()
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(["fit", "--input", toy_csv, "--theta", "0.5", "--iterations", "80",
                        "--burn-in", "10", "--seed", "7", "--out", out]) == 0
        a = out1 / "fit-7" / "draws-theta0.5.csv"
        b = out2 / "fit-7" / "draws-theta0.5.csv"
        assert a.read_bytes() == b.read_bytes()
        assert toy_csv.read_bytes() == before  # inputs are never mutated

    def test_multiple_quantiles(self, tmp_path, toy_csv):
        out = tmp_path / "runs"
        code = run(["fit", "--input", toy_csv, "--theta", "0.25", "--theta", "0.5",
                    "--iterations", "60", "--burn-in", "10", "--seed", "3", "--out", out])
        assert code == 0
        for tag in ("theta0.25", "theta0.5"):
            assert (out / "fit-3" / f"summary-{tag}.csv").exists()
            assert (out / "fit-3" / f"draws-{tag}.csv").exists()

    def test_two_chains_emit_shrink_factor(self, tmp_path, toy_csv):
        out = tmp_path / "runs"
        code = run(["fit", "--input", toy_csv, "--iterations", "80", "--burn-in", "10",
                    "--chains", "2", "--seed", "5", "--out", out])
        assert code == 0
        assert (out / "fit-5" / "mpsrf-theta0.5.csv").exists()
        assert (out / "fit-5" / "mpsrf-theta0.5.dat").exists()

    def test_dic_output(self, tmp_path, toy_csv):
        out = tmp_path / "runs"
        code = run(["fit", "--input", toy_csv, "--iterations", "60", "--burn-in", "10",
                    "--dic", "--seed", "5", "--out", out])
        assert code == 0
        dic_kv = read_kv(out / "fit-5" / "dic-theta0.5.txt")
        assert float(dic_kv["dic"]) > 0.0
        assert "p_d" in dic_kv

    def test_mid_sweep_nan_exits_3(self, tmp_path, toy_csv, monkeypatch, capsys):
        calls = []

        def update_beta(state, spec, rng):
            gibbs.update_beta(state, spec, rng)
            calls.append(None)
            if len(calls) == 5:
                state.beta[0] = np.nan

        sweep = tuple(update_beta if op is gibbs.update_beta else op for op in gibbs._SWEEP)
        monkeypatch.setattr(gibbs, "_SWEEP", sweep)
        code = run(["fit", "--input", toy_csv, "--iterations", "20", "--burn-in", "5",
                    "--seed", "7", "--out", tmp_path / "runs"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: chain 0: update_" in err
        assert "at sweep 5 with non-finite beta" in err

    def test_nan_in_worker_chains_exits_3(self, tmp_path, toy_csv, monkeypatch, capsys):
        # Each forked worker inherits the patched sweep with its own call count,
        # so every chain turns non-finite at sweep 5; the error names chain 0
        # and the block that failed on the non-finite beta.
        calls = []

        def update_beta(state, spec, rng):
            gibbs.update_beta(state, spec, rng)
            calls.append(None)
            if len(calls) == 5:
                state.beta[0] = np.nan

        sweep = tuple(update_beta if op is gibbs.update_beta else op for op in gibbs._SWEEP)
        monkeypatch.setattr(gibbs, "_SWEEP", sweep)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = run(["fit", "--input", toy_csv, "--iterations", "20", "--burn-in", "5", "--chains", "2",
                    "--seed", "7", "--out", tmp_path / "runs"])
        assert code == 3
        assert not calls  # the sweeps ran in the workers
        err = capsys.readouterr().err
        assert "numerical failure: chain 0: update_delta failed at sweep 5 with non-finite beta" in err

    def test_worker_chains_write_serial_bytes(self, tmp_path, toy_csv, monkeypatch):
        args = ["fit", "--input", toy_csv, "--iterations", "60", "--burn-in", "10", "--chains", "2",
                "--overdispersed-starts", "--dic", "--theta", "0.3", "--theta", "0.6", "--seed", "5"]
        for cpus, out in (({0}, "serial"), ({0, 1}, "pooled")):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert run([*args, "--out", tmp_path / out]) == 0

        def digests(root):
            files = sorted(p for p in (root / "fit-5").iterdir() if p.name != "manifest.txt")
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}

        serial = digests(tmp_path / "serial")
        assert "dic-theta0.3.txt" in serial and "mpsrf-theta0.6.csv" in serial
        assert digests(tmp_path / "pooled") == serial
        # Where the OS has no affinity masks, fit counts every CPU instead.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert run([*args, "--out", tmp_path / "no-affinity"]) == 0
        assert digests(tmp_path / "no-affinity") == serial

    # Two chains of one draw each hold the summaries' two draws, but the
    # shrink factor needs two draws per chain.
    @pytest.mark.parametrize("args, message", [
        (["--iterations", "3", "--burn-in", "2"], "retain 1 draw; the summaries need at least two"),
        (["--iterations", "12", "--burn-in", "2", "--thin", "6"], "retain 1 draw; the summaries need at least two"),
        (["--chains", "2", "--iterations", "3", "--burn-in", "2"],
         "retain 1 draw per chain; the shrink factor needs at least two"),
    ], ids=["burn-in", "thin", "one-per-chain"])
    def test_one_retained_draw_exits_2_before_sampling(self, tmp_path, toy_csv, capsys, args, message):
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, "--seed", "3", "--out", out, *args]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [1, 4], ids=["header", "row"])
    def test_oversized_field_exits_2_naming_the_line(self, tmp_path, toy_csv, capsys, line):
        lines = toy_csv.read_text(encoding="utf-8").splitlines()
        lines[line - 1] += "," + "9" * 140_000
        toy_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, "--seed", "3", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"toy.csv:{line}: field larger than field limit (131072)\n")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, line", [(b"subject", b"subj\xe9ct", 1), (b"b,2,0.8", b"\xe9,2,0.8", 5)],
                             ids=["header", "row"])
    def test_non_utf8_dataset_exits_2_naming_the_line(self, tmp_path, toy_csv, capsys, old, new, line):
        toy_csv.write_bytes(toy_csv.read_bytes().replace(old, new))
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, "--seed", "3", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(
            f"toy.csv:{line}: byte 0xe9 is not UTF-8 (invalid continuation byte)\n")
        assert not out.exists()

    def test_schema_error_exit_2(self, tmp_path, toy_csv):
        out = tmp_path / "runs"
        code = run(["fit", "--input", toy_csv, "--response-col", "score", "--out", out,
                    "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("args", [["--level", "2"], ["--response-col", "nope"], ["--covariates", "x1,x1"],
                                      ["--covariates", "y"]],
                             ids=["level", "schema", "repeated-covariate", "covariate-is-response"])
    def test_rejected_run_creates_no_directory(self, tmp_path, toy_csv, args):
        out = tmp_path / "f3"
        assert run(["fit", "--input", toy_csv, "--seed", "4", "--out", out, *args]) == 2
        assert not out.exists()
        out.mkdir()
        assert run(["fit", "--input", toy_csv, "--seed", "4", "--out", out, *args]) == 2
        assert out.is_dir() and not any(out.iterdir())

    @pytest.mark.parametrize("covariates,role", [("y", "response"), ("x1,subject", "subject")])
    def test_covariate_that_is_a_model_column_exits_2(self, tmp_path, toy_csv, monkeypatch, capsys, covariates, role):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a covariate that is a model column")

        monkeypatch.setattr(cli, "run_chain", no_sampling)
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, "--covariates", covariates, "--seed", "3", "--out", out]) == 2
        column = covariates.split(",")[-1]
        assert f"{toy_csv}: covariate column {column!r} is also the {role} column" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_row_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,y,x1\na,1,0.5\na,huh,0.2\n", encoding="utf-8")
        assert run(["fit", "--input", bad, "--seed", "1", "--out", tmp_path / "r"]) == 2

    def test_time_index_beyond_64_bits_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "wide.csv"
        bad.write_text("subject,y,x1,time\na,1,0.5,0\na,2,0.1,99999999999999999999\n", encoding="utf-8")
        assert run(["fit", "--input", bad, "--seed", "1", "--out", tmp_path / "r"]) == 2
        assert f"{bad}:3: time index 99999999999999999999 does not fit in a 64-bit integer" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("a,1,0.5\na,2,nan\n", "{f}:3: covariate 'x1' value 'nan' is not finite"),
        ("a,1,1e400\na,2,0.2\n", "{f}:2: covariate 'x1' value '1e400' is not finite"),
        ("a,1,0.5\na,2,-inf\n", "{f}:3: covariate 'x1' value '-inf' is not finite"),
        ("a,2,0.5\nb,2,0.1\n", "{f}: an ordinal response needs at least two distinct categories"),
    ], ids=["nan", "beyond-float", "infinite", "one-category"])
    def test_bad_dataset_exits_2_with_one_line(self, tmp_path, capsys, rows, message):
        f = tmp_path / "bad.csv"
        f.write_text("subject,y,x1\n" + rows, encoding="utf-8")
        out = tmp_path / "r"
        assert run(["fit", "--input", f, "--seed", "1", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message.format(f=f)}\n"
        assert not out.exists()

    def test_config_file_and_flag_precedence(self, tmp_path, toy_csv):
        cfg = tmp_path / "fit.conf"
        cfg.write_text("iterations = 60\nburn-in = 10\ntheta = 0.25\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = run(["fit", "--input", toy_csv, "--config", cfg, "--theta", "0.5",
                    "--seed", "2", "--out", out])
        assert code == 0
        # flag overrides the file value
        assert (out / "fit-2" / "draws-theta0.5.csv").exists()
        assert not (out / "fit-2" / "draws-theta0.25.csv").exists()
        manifest = read_kv(manifest_of(out, "fit", 2))
        assert manifest["iterations"] == "60"

    def test_unknown_config_key_exit_2(self, tmp_path, toy_csv):
        cfg = tmp_path / "fit.conf"
        cfg.write_text("iterationz = 60\n", encoding="utf-8")
        assert run(["fit", "--input", toy_csv, "--config", cfg, "--seed", "2",
                    "--out", tmp_path / "r"]) == 2

    @pytest.mark.parametrize("args,message", [
        (["--level", "1.5"], "option level must lie in (0, 1), got 1.5"),
        (["--theta", "0.5", "--theta", "1.5"], "quantile level must lie in (0, 1), got 1.5"),
        (["--chains", "2", "--checkpoints", "0"], "option checkpoints must be at least 1, got 0"),
    ], ids=["level", "second-theta", "checkpoints"])
    def test_bad_option_exits_2_before_sampling(self, tmp_path, toy_csv, monkeypatch, capsys, args, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the options were checked")

        monkeypatch.setattr(cli, "run_chain", no_sampling)
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, "--iterations", "40", "--burn-in", "10",
                    "--seed", "3", "--out", out, *args]) == 2
        assert message in capsys.readouterr().err
        assert not [p for p in out.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("theta", ["1.5", "0", "1", "-0.25", "nan"])
    def test_out_of_range_level_exits_2_before_reading_input(self, tmp_path, toy_csv, monkeypatch, capsys, theta):
        def untouched(*args, **kwargs):
            raise AssertionError("read the input or sampled before the levels were checked")

        monkeypatch.setattr(cli, "ingest_csv", untouched)
        monkeypatch.setattr(cli, "run_chain", untouched)
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, "--theta", f"0.5,{theta}", "--seed", "3", "--out", out]) == 2
        assert f"option theta: quantile level must lie in (0, 1), got {float(theta)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["--theta", "0.25,0.5", "--theta", "0.5"], "option theta lists the level 0.5 more than once"),
        (["--theta", "0.1,0.1000001"], "option theta lists the levels 0.1 and 0.1000001, which share the output tag 0.1"),
    ], ids=["exact-repeat", "shared-tag"])
    def test_repeated_level_exits_2_before_reading_input(self, tmp_path, toy_csv, monkeypatch, capsys, args, message):
        def untouched(*args, **kwargs):
            raise AssertionError("read the input or sampled before the levels were checked")

        monkeypatch.setattr(cli, "ingest_csv", untouched)
        monkeypatch.setattr(cli, "run_chain", untouched)
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, *args, "--seed", "3", "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_sim1_dimensions(self, tmp_path):
        out = tmp_path / "runs"
        code = run(["simulate", "--scenario", "sim1", "--subjects", "40",
                    "--n-per-subject", "5", "--seed", "11", "--out", out])
        assert code == 0
        rows = (out / "simulate-11" / "dataset.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 200

    def test_auto_seed_recorded(self, tmp_path):
        out = tmp_path / "runs"
        code = run(["simulate", "--scenario", "sim1", "--subjects", "3",
                    "--n-per-subject", "2", "--out", out])
        assert code == 0
        run_dirs = list(out.iterdir())
        assert len(run_dirs) == 1
        manifest = read_kv(run_dirs[0] / "manifest.txt")
        assert int(manifest["seed"]) >= 0
        assert run_dirs[0].name == f"simulate-{manifest['seed']}"

    def test_invalid_scenario_exit_2(self, tmp_path):
        assert run(["simulate", "--scenario", "sim9", "--seed", "1", "--out", tmp_path]) == 2

    def test_degenerate_sim2_equals_sim1(self, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--scenario", "sim1", "--subjects", "8", "--n-per-subject", "3",
             "--seed", "4", "--out", o1])
        run(["simulate", "--scenario", "sim2", "--random-effect-sd", "0", "--subjects", "8",
             "--n-per-subject", "3", "--seed", "4", "--out", o2])
        a = (o1 / "simulate-4" / "dataset.csv").read_text()
        b = (o2 / "simulate-4" / "dataset.csv").read_text()
        assert a == b

    def test_random_effect_sd_overrides_either_scenario(self, tmp_path):
        datasets = {}
        for scenario, sd in [("sim1", "2"), ("sim2", "2"), ("sim1", "0")]:
            out = tmp_path / f"{scenario}-sd{sd}"
            assert run(["simulate", "--scenario", scenario, "--random-effect-sd", sd, "--subjects", "8",
                        "--n-per-subject", "3", "--seed", "4", "--out", out]) == 0
            assert read_kv(out / "simulate-4" / "dataset.meta")["random_effect_sd"] == sd
            datasets[scenario, sd] = (out / "simulate-4" / "dataset.csv").read_bytes()
        assert datasets["sim1", "2"] == datasets["sim2", "2"]
        assert datasets["sim1", "2"] != datasets["sim1", "0"]


class TestReplicate:
    def test_smoke_report_structure(self, tmp_path):
        out = tmp_path / "runs"
        code = run(["replicate", "--scenario", "sim1", "--replications", "2",
                    "--subjects", "6", "--n-per-subject", "3", "--iterations", "60",
                    "--burn-in", "10", "--theta", "0.5", "--seed", "13", "--out", out])
        assert code == 0
        report = (out / "replicate-13" / "report.csv").read_text().strip().splitlines()
        names = [line.split(",")[1] for line in report[1:]]
        assert names == ["beta_1", "beta_2", "beta_3", "delta_1", "delta_2", "delta_3", "delta_4"]
        text = (out / "replicate-13" / "report.txt").read_text()
        assert "2/2 replications completed" in text

    def test_row_count_is_parameters_times_thetas(self, tmp_path):
        out = tmp_path / "runs"
        code = run(["replicate", "--scenario", "sim1", "--replications", "2",
                    "--subjects", "6", "--n-per-subject", "3", "--iterations", "60",
                    "--burn-in", "10", "--theta", "0.25", "--theta", "0.5",
                    "--seed", "14", "--out", out])
        assert code == 0
        rows = (out / "replicate-14" / "report.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 7 * 2

    def test_invalid_replications_exit_2(self, tmp_path):
        assert run(["replicate", "--scenario", "sim1", "--replications", "0",
                    "--seed", "1", "--out", tmp_path]) == 2

    @staticmethod
    def no_study(*args, **kwargs):
        raise AssertionError("sampled before the options were checked")

    @pytest.mark.parametrize("args,message", [
        (["--jobs", "0"], "option jobs must be at least 1, got 0"),
        (["--jobs", "-4"], "option jobs must be at least 1, got -4"),
        (["--theta", "0.5,0.25,0.5"], "option theta lists the level 0.5 more than once"),
        (["--theta", "0.25,0.2500001"], "option theta lists the levels 0.25 and 0.2500001, which share the output tag 0.25"),
        (["--theta", "0.5,1.5"], "option theta: quantile level must lie in (0, 1), got 1.5"),
    ], ids=["jobs-0", "jobs-negative", "repeated-theta", "shared-tag", "theta-out-of-range"])
    def test_bad_option_exits_2_before_sampling(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.setattr(cli, "run_replication_study", self.no_study)
        out = tmp_path / "runs"
        assert run(["replicate", "--scenario", "sim1", "--seed", "1", "--out", out, *args]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,config,message", [
        (["--replications", "5"], "", "sets replications to 200, but the command line sets it to 5"),
        (["--iterations", "300"], "", "sets iterations to 20000, but the command line sets it to 300"),
        ([], "burn-in = 100\n", "sets burn-in to 2000, but the command line or config file {cfg} sets it to 100"),
    ], ids=["replications", "iterations", "config-burn-in"])
    def test_full_paper_scale_rejects_other_values(self, tmp_path, monkeypatch, capsys, args, config, message):
        monkeypatch.setattr(cli, "run_replication_study", self.no_study)
        cfg = tmp_path / "study.conf"
        if config:
            cfg.write_text(config, encoding="utf-8")
            args = [*args, "--config", cfg]
        out = tmp_path / "runs"
        assert run(["replicate", "--scenario", "sim1", "--full-paper-scale", "--seed", "1", "--out", out, *args]) == 2
        assert f"option full-paper-scale {message.format(cfg=cfg)}" in capsys.readouterr().err
        assert not out.exists()

    def test_full_paper_scale_runs_its_preset_and_replays(self, tmp_path, monkeypatch):
        # The stub records the study's scale and runs a small one in its place.
        scales = []

        def small_study(config, sampler, thetas, jobs):
            scales.append((config.replications, sampler.iterations, sampler.burn_in))
            return run_replication_study(replace(config, replications=2), SamplerConfig(iterations=30, burn_in=10),
                                         thetas, jobs=jobs)

        monkeypatch.setattr(cli, "run_replication_study", small_study)
        out = tmp_path / "runs"
        assert run(["replicate", "--scenario", "sim1", "--full-paper-scale", "--replications", "200",
                    "--subjects", "6", "--n-per-subject", "3", "--seed", "5", "--out", out]) == 0
        manifest = read_kv(manifest_of(out, "replicate", 5))
        assert (manifest["replications"], manifest["iterations"], manifest["burn-in"]) == ("200", "20000", "2000")
        replayed = tmp_path / "replayed"
        assert run(["replay", manifest_of(out, "replicate", 5), "--out", replayed]) == 0
        assert replay_differences(out / "replicate-5", replayed / "replicate-5") == []
        assert scales == [(200, 20000, 2000)] * 2


class TestDiagnose:
    @pytest.fixture()
    def two_chain_files(self, tmp_path, toy_csv):
        out = tmp_path / "fits"
        run(["fit", "--input", toy_csv, "--iterations", "80", "--burn-in", "20",
             "--seed", "21", "--out", out])
        run(["fit", "--input", toy_csv, "--iterations", "80", "--burn-in", "20",
             "--seed", "22", "--out", out])
        return [out / "fit-21" / "draws-theta0.5.csv", out / "fit-22" / "draws-theta0.5.csv"]

    def test_identical_chains_floor(self, tmp_path, two_chain_files):
        out = tmp_path / "diag"
        # same file twice: between-chain variance is exactly zero
        code = run(["diagnose", "--mpsrf", "--seed", "0", "--out", out,
                    two_chain_files[0], two_chain_files[0]])
        assert code == 0
        rows = (out / "diagnose-0" / "mpsrf.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            t, v, _ = row.split(",")
            n = int(t) - 20  # retained draws up to t (burn-in was 20)
            assert float(v) == pytest.approx((n - 1) / n, abs=1e-12)

    def test_single_chain_mpsrf_exit_2(self, tmp_path, two_chain_files):
        assert run(["diagnose", "--mpsrf", "--seed", "0", "--out", tmp_path / "d",
                    two_chain_files[0]]) == 2

    def test_one_draw_per_chain_mpsrf_exits_2(self, tmp_path, capsys):
        draws = tmp_path / "draws.csv"
        draws.write_text("chain,iteration,beta_1,delta_1\n0,3,0.1,0.2\n1,3,0.3,0.1\n", encoding="utf-8")
        out = tmp_path / "d"
        assert run(["diagnose", "--mpsrf", "--seed", "0", "--out", out, draws]) == 2
        assert capsys.readouterr().err == ("error: the multivariate shrink factor needs at least two chains "
                                           "of at least two draws\n")
        assert not out.exists()

    @pytest.mark.parametrize("line", [1, 3], ids=["header", "row"])
    def test_oversized_draws_field_exits_2(self, tmp_path, two_chain_files, capsys, line):
        lines = two_chain_files[1].read_text().splitlines()
        lines[line - 1] += "," + "9" * 140_000
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["diagnose", "--seed", "0", "--out", tmp_path / "d", two_chain_files[0], bad]) == 2
        assert capsys.readouterr().err == f"error: {bad}:{line}: field larger than field limit (131072)\n"

    def test_summary_and_dic(self, tmp_path, toy_csv):
        fits = tmp_path / "fits"
        run(["fit", "--input", toy_csv, "--iterations", "80", "--burn-in", "20",
             "--retain-alpha", "--seed", "31", "--out", fits])
        out = tmp_path / "diag"
        code = run(["diagnose", "--dic", "--data", toy_csv, "--theta", "0.5",
                    "--seed", "0", "--out", out, fits / "fit-31" / "draws-theta0.5.csv"])
        assert code == 0
        assert (out / "diagnose-0" / "summary.csv").exists()
        assert "dic" in read_kv(out / "diagnose-0" / "dic.txt")

    def test_dic_without_data_exit_2(self, tmp_path, two_chain_files):
        assert run(["diagnose", "--dic", "--seed", "0", "--out", tmp_path / "d",
                    two_chain_files[0]]) == 2

    def test_mismatched_columns_exit_2(self, tmp_path, toy_csv, two_chain_files):
        fits = tmp_path / "fits2"
        run(["fit", "--input", toy_csv, "--iterations", "80", "--burn-in", "20",
             "--retain-alpha", "--seed", "41", "--out", fits])
        assert run(["diagnose", "--seed", "0", "--out", tmp_path / "d",
                    two_chain_files[0], fits / "fit-41" / "draws-theta0.5.csv"]) == 2

    def test_zero_checkpoints_exit_2(self, tmp_path, two_chain_files, capsys):
        out = tmp_path / "d"
        assert run(["diagnose", "--mpsrf", "--checkpoints", "0", "--seed", "0", "--out", out,
                    *two_chain_files]) == 2
        assert "option checkpoints must be at least 1, got 0" in capsys.readouterr().err
        assert not [p for p in out.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("files, flags, message", [
        ({"a": "chain,iteration,beta_1,beta_1,delta_1\n0,1,0.1,0.2,0.3\n0,2,0.2,0.1,0.3\n"}, [],
         "{a}: the header names column 'beta_1' 2 times"),
        ({"a": "chain,iteration\n0,1\n0,2\n"}, [], "{a}: the header names no parameter column after chain,iteration"),
        ({"a": "chain,iteration,beta_1\n0,1,0.1\n0,1,0.2\n"}, [],
         "{a}:3: column iteration: chain 0 repeats iteration 1"),
        ({"a": "chain,iteration,beta_1\n0,1,0.1\n0,2,0.2\n0,3,0.3\n",
          "b": "chain,iteration,beta_1\n0,1,0.1\n0,2,0.2\n"}, [],
         "{b}: chain 0 has 2 draws, but chain 0 of {a} has 3; chains must have equal length"),
        ({"a": "chain,iteration,beta_1\n0,1,0.1\n0,2,0.2\n2,1,0.1\n2,2,0.3\n"}, ["--mpsrf"],
         "{a}: chain 1 has 0 draws, but chain 0 of {a} has 2; chains must have equal length"),
        ({"a": "chain,iteration,beta_1\n0,1,0.1\n0,2,0.3\n1,5,0.2\n1,6,0.5\n"}, ["--mpsrf"],
         "the multivariate shrink factor needs chains that share their iteration numbers, "
         "but draw 1 of chain 1 is at iteration 5, and chain 0's at 1"),
    ], ids=["repeated-column", "no-parameter", "repeated-iteration", "unequal-chains", "skipped-chain",
            "iteration-grids"])
    def test_bad_draws_exit_2_with_one_line(self, tmp_path, capsys, files, flags, message):
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text, encoding="utf-8")
        out = tmp_path / "d"
        assert run(["diagnose", *flags, "--seed", "0", "--out", out, *paths.values()]) == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert not out.exists()

    def test_bad_draws_cell_exit_2(self, tmp_path, two_chain_files, capsys):
        lines = two_chain_files[1].read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = "abc"
        lines[3] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["diagnose", "--mpsrf", "--seed", "0", "--out", tmp_path / "d",
                    two_chain_files[0], bad]) == 2
        assert f"error: {bad}:4: column beta_1: 'abc' is not a number" in capsys.readouterr().err


def csv_writer_bytes(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def g17(values):
    return [f"{v:.17g}" for v in values]


class TestTableBytes:
    """Every CSV table is written with the bytes ``csv.writer`` writes for
    the rows the former row-at-a-time writers built."""

    NAMES = ["plain", "has,comma", 'has "quote"', "has\nnewline"]
    VALUES = [-0.0, 5e-324, 1e22, float("nan")]

    @pytest.fixture(autouse=True, params=["chunk-1", "chunk-default"])
    def chunk_cells(self, request, monkeypatch):
        if request.param == "chunk-1":
            monkeypatch.setattr(data, "_CHUNK_CELLS", 1)

    def test_summary_table(self, tmp_path):
        v = np.array(self.VALUES)
        table = SummaryTable(self.NAMES, v, v[::-1], v - 1.0, v + 0.1, 0.9)
        table.to_csv(tmp_path / "summary.csv")
        rows = [[name, *g17(cells), "0.90000000000000002"]
                for name, *cells in zip(self.NAMES, v, v[::-1], v - 1.0, v + 0.1)]
        assert (tmp_path / "summary.csv").read_bytes() == csv_writer_bytes(
            ["parameter", "mean", "sd", "lower", "upper", "level"], rows)

    def test_mpsrf_series(self, tmp_path):
        series = MpsrfSeries([5, 10, 15], [1.5, 1.0000000000000002, 0.9], [False, True, False], 2)
        series.to_csv(tmp_path / "mpsrf.csv")
        rows = [[t, f"{v:.17g}", int(r)] for t, v, r in zip(series.iterations, series.values, series.ridged)]
        assert (tmp_path / "mpsrf.csv").read_bytes() == csv_writer_bytes(["iteration", "mpsrf", "ridged"], rows)

    def replication_run(self):
        estimates = {0.25: np.array([self.VALUES[:2], self.VALUES[2:]]), 0.5: np.array([[3.0, -1.25]]),
                     0.75: np.empty((0, 2))}
        reports = {
            theta: ReplicationReport(theta, 2, len(mat), {"beta_1": -5.0, "delta_1": 0.1},
                                     dict(zip(["beta_1", "delta_1"], self.VALUES[k:k + 2])))
            for k, (theta, mat) in enumerate(estimates.items())
        }
        reports[0.25].efficiency["theta=0.25"] = {"beta_1": 1.0, "delta_1": 1.0}
        reports[0.5].efficiency["theta=0.25"] = {"beta_1": 0.1, "delta_1": 1e-300}
        return ReplicationRun(list(estimates), ["beta_1", "delta_1"], estimates, reports)

    def test_replication_estimates(self, tmp_path):
        run = self.replication_run()
        run.estimates_to_csv(tmp_path / "estimates.csv")
        rows = [[r, f"{theta:.17g}", *g17(mat[r])] for theta, mat in run.estimates.items() for r in range(len(mat))]
        assert (tmp_path / "estimates.csv").read_bytes() == csv_writer_bytes(
            ["replication", "theta", "beta_1", "delta_1"], rows)

    def test_replication_report(self, tmp_path):
        run = self.replication_run()
        cli._write_report_csv(run, tmp_path / "report.csv")
        rows = [[f"{theta:.17g}", name, f"{report.truth[name]:.17g}", f"{bias:.17g}",
                 f"{report.efficiency['theta=0.25'][name]:.17g}" if report.efficiency else ""]
                for theta, report in run.reports.items() for name, bias in report.bias.items()]
        assert (tmp_path / "report.csv").read_bytes() == csv_writer_bytes(
            ["theta", "parameter", "truth", "relative_bias", "efficiency_theta=0.25"], rows)

    def test_diagnose_quotes_parameter_names(self, tmp_path):
        values = np.arange(16.0).reshape(4, 4) ** 1.5 - 7.0
        draws = PosteriorDraws(self.NAMES, values, np.zeros(4, dtype=np.intp), np.arange(1, 5))
        draws.to_csv(tmp_path / "draws.csv")
        assert read_draws([tmp_path / "draws.csv"]).names == self.NAMES
        assert run(["diagnose", "--seed", "0", "--out", tmp_path, tmp_path / "draws.csv"]) == 0
        table = summarize(draws)
        rows = [[name, *g17(summary_row(table, name).values()), f"{table.level:.17g}"] for name in self.NAMES]
        assert (tmp_path / "diagnose-0" / "summary.csv").read_bytes() == csv_writer_bytes(
            ["parameter", "mean", "sd", "lower", "upper", "level"], rows)


class TestReplay:
    def test_fit_replay_byte_identical(self, tmp_path, toy_csv):
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, "--iterations", "80", "--burn-in", "10",
                    "--chains", "2", "--dic", "--seed", "7", "--out", out]) == 0
        replay_out = tmp_path / "replayed"
        assert run(["replay", manifest_of(out, "fit", 7), "--out", replay_out]) == 0
        original = out / "fit-7"
        replayed = replay_out / "fit-7"
        files = [p.name for p in original.iterdir() if p.name != "manifest.txt"]
        assert files
        match, mismatch, errors = filecmp.cmpfiles(original, replayed, files, shallow=False)
        assert not mismatch and not errors

    def test_simulate_replay(self, tmp_path):
        out = tmp_path / "runs"
        assert run(["simulate", "--scenario", "sim2", "--subjects", "5",
                    "--n-per-subject", "2", "--seed", "9", "--out", out]) == 0
        replay_out = tmp_path / "replayed"
        assert run(["replay", manifest_of(out, "simulate", 9), "--out", replay_out]) == 0
        a = (out / "simulate-9" / "dataset.csv").read_bytes()
        b = (replay_out / "simulate-9" / "dataset.csv").read_bytes()
        assert a == b

    def test_edited_input_exits_2_before_sampling(self, tmp_path, toy_csv, monkeypatch, capsys):
        out = tmp_path / "runs"
        assert run(["fit", "--input", toy_csv, "--iterations", "40", "--burn-in", "10",
                    "--seed", "7", "--out", out]) == 0
        manifest = manifest_of(out, "fit", 7)
        recorded = read_kv(manifest)["input_sha256"]
        toy_csv.write_text(toy_csv.read_text().replace("a,2,0.6", "a,1,0.6"), encoding="utf-8")
        edited = hashlib.sha256(toy_csv.read_bytes()).hexdigest()

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the input was checked")

        monkeypatch.setattr(cli, "run_chain", no_sampling)
        assert run(["replay", manifest, "--out", tmp_path / "replayed"]) == 2
        assert f"input {toy_csv} has sha256 {edited}, but the manifest records {recorded}" in capsys.readouterr().err
        assert not (tmp_path / "replayed").exists()
        monkeypatch.undo()
        # A manifest that records no input hash still replays.
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        manifest.write_text("".join(l for l in lines if not l.startswith("input_sha256 ")), encoding="utf-8")
        assert run(["replay", manifest, "--out", tmp_path / "replayed"]) == 0
        assert read_kv(manifest_of(tmp_path / "replayed", "fit", 7))["input_sha256"] == edited

    def test_replay_missing_manifest_exit_2(self, tmp_path):
        assert run(["replay", tmp_path / "nope.txt"]) == 2

    def test_every_command_replays(self, tmp_path, toy_csv):
        out = tmp_path / "runs"
        assert run(["simulate", "--scenario", "sim2", "--subjects", "5", "--n-per-subject", "2",
                    "--seed", "9", "--out", out]) == 0
        assert run(["fit", "--input", toy_csv, "--theta", "0.25", "--theta", "0.5", "--iterations", "60",
                    "--burn-in", "10", "--chains", "2", "--dic", "--seed", "7", "--out", out]) == 0
        assert run(["replicate", "--scenario", "sim1", "--replications", "2", "--subjects", "6",
                    "--n-per-subject", "3", "--iterations", "60", "--burn-in", "10",
                    "--theta", "0.25", "--theta", "0.5", "--seed", "13", "--out", out]) == 0
        assert run(["diagnose", "--mpsrf", "--dic", "--data", toy_csv, "--theta", "0.5", "--seed", "0",
                    "--out", out, out / "fit-7" / "draws-theta0.5.csv"]) == 0
        runs = sorted(p.name for p in out.iterdir())
        assert runs == ["diagnose-0", "fit-7", "replicate-13", "simulate-9"]
        replayed = tmp_path / "replayed"
        for name in runs:
            assert run(["replay", out / name / "manifest.txt", "--out", replayed]) == 0
            assert replay_differences(out / name, replayed / name) == []

    def test_names_with_spaces_replay(self, tmp_path, wide_csv):
        out = tmp_path / "my runs"
        assert run(["fit", "--input", wide_csv, "--covariates", "age group", "--iterations", "60",
                    "--burn-in", "10", "--retain-alpha", "--seed", "4", "--out", out]) == 0
        assert [n for n in read_draws([out / "fit-4" / "draws-theta0.5.csv"]).names if n.startswith("beta_")] == ["beta_1"]
        assert read_kv(manifest_of(out, "fit", 4))["covariates"] == "age group"
        assert run(["diagnose", "--seed", "0", "--out", out, out / "fit-4" / "draws-theta0.5.csv"]) == 0
        replayed = tmp_path / "replayed"
        for name in ("fit-4", "diagnose-0"):
            assert run(["replay", out / name / "manifest.txt", "--out", replayed]) == 0
            assert replay_differences(out / name, replayed / name) == []

    def test_empty_option_value_replays(self, tmp_path):
        # With no time column named, a column called time is one more covariate.
        data = tmp_path / "timed.csv"
        data.write_text("subject,y,x1,time\n" + "".join(f"s{i // 3},{1 + i % 2},{0.1 * i:.1f},{i % 3}\n"
                                                      for i in range(12)), encoding="utf-8")
        out = tmp_path / "runs"
        assert run(["fit", "--input", data, "--time-col", "", "--iterations", "40", "--burn-in", "10",
                    "--seed", "8", "--out", out]) == 0
        assert read_kv(manifest_of(out, "fit", 8))["time-col"] == ""
        assert run(["replay", manifest_of(out, "fit", 8), "--out", tmp_path / "replayed"]) == 0
        assert replay_differences(out / "fit-8", tmp_path / "replayed" / "fit-8") == []

    # A manifest as an earlier release wrote it: lists joined by ", ", floats
    # by repr, flags as true/false, and the run-record keys.
    EARLIER_MANIFEST = """\
command = fit
version = 0.1.0
created_utc = 2026-10-18T18:47:03.423392+00:00
input = {input}
theta = 0.25, 0.5
iterations = 60
burn-in = 10
thin = 1
chains = 2
level = 0.95
checkpoints = 20
dic = true
retain-alpha = false
overdispersed-starts = false
subject-col = subject
response-col = y
time-col = time
covariates = x1, x2
a1 = 0.1
a2 = 0.1
b1 = 0.1
b2 = 0.1
delta-min = -3.0
delta-max = 10.0
seed = 5
out = runs
input_sha256 = 0bd25dce786282f2332054e35f6dd331847e1c68d66ff7e7fe9869b3315d8695
"""

    def test_earlier_manifest_replays(self, tmp_path, wide_csv):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(self.EARLIER_MANIFEST.format(input=wide_csv), encoding="utf-8")
        earlier = read_kv(manifest)
        assert hashlib.sha256(wide_csv.read_bytes()).hexdigest() == earlier["input_sha256"]
        assert run(["replay", manifest, "--out", tmp_path / "replayed"]) == 0
        out = tmp_path / "runs"
        assert run(["fit", "--input", wide_csv, "--theta", "0.25", "--theta", "0.5", "--covariates", "x1",
                    "--covariates", "x2", "--iterations", "60", "--burn-in", "10", "--chains", "2", "--dic",
                    "--delta-min", "-3", "--seed", "5", "--out", out]) == 0
        assert replay_differences(out / "fit-5", tmp_path / "replayed" / "fit-5") == []
        replayed = read_kv(tmp_path / "replayed" / "fit-5" / "manifest.txt")
        assert {k: v for k, v in replayed.items() if k not in ("created_utc", "out", "version")} == \
            {k: v for k, v in earlier.items() if k not in ("created_utc", "out", "version")}


class TestOptionText:
    """Flags, config files and manifests are read by one converter."""

    def test_comma_list_flags_match_config_file(self, tmp_path, wide_csv):
        cfg = tmp_path / "fit.conf"
        cfg.write_text("covariates = x1, x2\ntheta = 0.25 0.5\n", encoding="utf-8")
        forms = {
            "flags": ["--covariates", "x1,x2", "--theta", "0.25,0.5"],
            "repeated": ["--covariates", "x1", "--covariates", "x2", "--theta", "0.25", "--theta", "0.5"],
            "config": ["--config", cfg],
        }
        outputs = {}
        for form, args in forms.items():
            out = tmp_path / form
            assert run(["fit", "--input", wide_csv, "--iterations", "40", "--burn-in", "10",
                        "--seed", "6", "--out", out, *args]) == 0
            manifest = read_kv(manifest_of(out, "fit", 6))
            assert (manifest["covariates"], manifest["theta"]) == ("x1, x2", "0.25, 0.5")
            outputs[form] = [(out / "fit-6" / f"draws-theta{t}.csv").read_bytes() for t in ("0.25", "0.5")]
        assert outputs["flags"] == outputs["config"] == outputs["repeated"]

    def test_config_list_item_keeps_inner_spaces(self, tmp_path, wide_csv):
        cfg = tmp_path / "fit.conf"
        cfg.write_text("covariates = age group\n", encoding="utf-8")
        out = tmp_path / "runs"
        assert run(["fit", "--input", wide_csv, "--config", cfg, "--iterations", "40", "--burn-in", "10",
                    "--seed", "6", "--out", out]) == 0
        assert read_kv(manifest_of(out, "fit", 6))["covariates"] == "age group"
        assert [n for n in read_draws([out / "fit-6" / "draws-theta0.5.csv"]).names if n.startswith("beta_")] == ["beta_1"]

    @pytest.mark.parametrize("source", ["flag", "config", "manifest"])
    def test_bad_value_names_option(self, tmp_path, toy_csv, capsys, source):
        out = tmp_path / "runs"
        args = ["fit", "--input", toy_csv, "--seed", "2", "--out", out]
        if source == "flag":
            code = run([*args, "--iterations", "ten"])
            where = "the command line"
        elif source == "config":
            cfg = tmp_path / "fit.conf"
            cfg.write_text("iterations = ten\n", encoding="utf-8")
            code = run([*args, "--config", cfg])
            where = str(cfg)
        else:
            assert run([*args, "--iterations", "40", "--burn-in", "10"]) == 0
            manifest = manifest_of(out, "fit", 2)
            manifest.write_text(manifest.read_text().replace("iterations = 40", "iterations = ten"))
            code = run(["replay", manifest, "--out", tmp_path / "replayed"])
            where = f"manifest {manifest}"
        assert code == 2
        err = capsys.readouterr().err
        assert "option iterations in " in err and where in err and "'ten' is not a valid int" in err
        assert "usage:" not in err

    def test_unknown_manifest_key_exit_2(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["simulate", "--scenario", "sim1", "--subjects", "3", "--n-per-subject", "2",
                    "--seed", "1", "--out", out]) == 0
        manifest = manifest_of(out, "simulate", 1)
        manifest.write_text(manifest.read_text() + "subjectz = 4\n")
        assert run(["replay", manifest, "--out", tmp_path / "replayed"]) == 2
        assert "unknown option(s) ['subjectz']" in capsys.readouterr().err


class TestInputHash:
    @pytest.mark.parametrize("size", [0, 1, cli._HASH_BLOCK, 3 * cli._HASH_BLOCK + 5])
    def test_streamed_hash_matches_whole_file(self, tmp_path, size):
        path = tmp_path / "input.csv"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_holds_one_block(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(bytes(4 * cli._HASH_BLOCK))
        tracemalloc.start()
        try:
            cli._sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * cli._HASH_BLOCK


class TestMisc:
    def test_no_command_exit_2(self):
        assert run([]) == 2

    def test_import_leaves_heavy_scipy_modules_unloaded(self):
        src = str(Path(ordquant.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, ordquant.cli; "
                 "print(sorted({'scipy.optimize', 'scipy.linalg', 'scipy.special'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_import_leaves_pool_modules_unloaded(self):
        # Commands that never fork do not pay for the process-pool imports.
        src = str(Path(ordquant.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, ordquant.cli; "
                 "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_multi_chain_fit_and_diagnose_leave_scipy_unloaded(self, tmp_path, toy_csv):
        # Two chains on two CPUs sample in forked workers, so only the workers
        # need scipy.special; the shrink factor and DIC in the parent need none.
        src = str(Path(ordquant.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "runs"
        probe = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from ordquant.cli import main\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            f"code = main(['fit', '--input', {str(toy_csv)!r}, '--iterations', '40', '--burn-in', '10',\n"
            f"             '--chains', '2', '--dic', '--seed', '3', '--out', {str(out)!r}])\n"
            "print(code, scipy_modules())\n"
            f"code = main(['diagnose', '--mpsrf', '--seed', '0', '--out', {str(out)!r},\n"
            f"             {str(out / 'fit-3' / 'draws-theta0.5.csv')!r}])\n"
            "print(code, scipy_modules())\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.splitlines() == ["0 []", "0 []"]
        assert (out / "fit-3" / "mpsrf-theta0.5.csv").is_file()
        assert (out / "diagnose-0" / "mpsrf.csv").is_file()

    def test_version_exit_0(self, capsys):
        assert run(["--version"]) == 0
        assert "ordquant" in capsys.readouterr().out
