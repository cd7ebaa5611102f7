"""Byte identity: the sha256 of every output file of a set of small, fast
runs, manifests aside, and criterion 5's late shrink-factor maximum (from
the fit ``conftest.py`` shares with the acceptance suite), each against its
record in ``golden.json``.  The digests are checked twice: as the runs
write their tables, and with every table written in parts by forked
children.

The BLAS can change the last bits of ``x @ beta``, so the records hold only
on the numpy and BLAS that made them; on any other the test fails and says
so.  They also hold only at the BLAS thread count that made them: an
unchunked inner product of more than about 10k elements sums in another
order at another count, so the ``multi-batch`` run's estimates and report
made at two threads differ at ``OPENBLAS_NUM_THREADS=1``.  A change that alters draws on purpose regenerates the records with

    PYTHONPATH=src python -m tests.test_golden

and lists in CHANGES.md which digests changed and why.  Any other change to
``golden.json`` is a finding.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from ordquant import parallel
from ordquant.cli import main

from .conftest import run_criterion_5

GOLDEN = Path(__file__).with_name("golden.json")

_SIM_PRIORS = ["--delta-min", "-3", "--delta-max", "3"]
_STUDY = ["replicate", "--scenario", "sim1", "--replications", "4", "--theta", "0.25,0.5", "--subjects", "6",
          "--n-per-subject", "3", "--iterations", "80", "--burn-in", "20", "--chains", "2", "--seed", "5"]

# Each run's command; "{name}" stands for the directory of the earlier run ``name``.
RUNS = {
    "sim1": ["simulate", "--scenario", "sim1", "--subjects", "12", "--n-per-subject", "4", "--seed", "3"],
    "sim2": ["simulate", "--scenario", "sim2", "--subjects", "40", "--n-per-subject", "10", "--seed", "2026"],
    "desk-fit": ["fit", "--input", "{sim2}/dataset.csv", "--theta", "0.25,0.5", "--iterations", "300",
                 "--burn-in", "100", "--seed", "11", *_SIM_PRIORS],
    "chains-dic": ["fit", "--input", "{sim2}/dataset.csv", "--theta", "0.5", "--iterations", "200",
                   "--burn-in", "50", "--chains", "2", "--overdispersed-starts", "--dic", "--seed", "17",
                   *_SIM_PRIORS],
    "diagnose": ["diagnose", "--draws", "{chains-dic}/draws-theta0.5.csv", "--mpsrf", "--dic",
                 "--data", "{sim2}/dataset.csv", "--theta", "0.5", "--seed", "1"],
    "replicate-jobs1": [*_STUDY, "--jobs", "1"],
    "replicate-jobs2": [*_STUDY, "--jobs", "2"],
    # 20,000 observations a replication: a batch holds at most three
    # chains, so the six chains of three two-chain fits take several.
    "multi-batch": ["replicate", "--scenario", "sim2", "--replications", "3", "--subjects", "2000",
                    "--n-per-subject", "10", "--iterations", "12", "--burn-in", "4", "--chains", "2",
                    "--seed", "9"],
    # 66,000 observations: each chain's per-observation passes run over two
    # observation chunks, inside forked chain workers.
    "chunked-sim2": ["simulate", "--scenario", "sim2", "--subjects", "6600", "--n-per-subject", "10", "--seed", "7"],
    "chunked-fit": ["fit", "--input", "{chunked-sim2}/dataset.csv", "--theta", "0.5", "--iterations", "8",
                    "--burn-in", "2", "--chains", "2", "--overdispersed-starts", "--seed", "13", *_SIM_PRIORS],
}


def environment() -> dict[str, str]:
    """The numpy version and the BLAS it was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 does not report its build
        blas = {}
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run(root: Path, name: str, args: list[str], dirs: dict[str, Path]) -> Path:
    """Run one command under ``root/name`` and return its run directory."""
    args = [arg.format(**dirs) for arg in args]
    assert main([*args, "--out", str(root / name)]) == 0, f"{name}: {' '.join(args)}"
    (run_dir,) = (root / name).iterdir()
    return run_dir


def record_runs(root: Path) -> dict[str, str]:
    """The sha256 of every output but the manifests of ``RUNS``, by ``run/file``."""
    dirs, digests = {}, {}
    for name, args in RUNS.items():
        dirs[name] = _run(root, name, args, dirs)
        for path in sorted(dirs[name].iterdir()):
            if path.name != "manifest.txt":
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def late_max(run_dir: Path) -> str:
    """The largest shrink factor past sweep 5000 of criterion 5's fit in
    ``run_dir``, to 17 digits."""
    plot = (run_dir / "mpsrf-theta0.5.dat").read_text().split("\n")
    late = max(float(v) for t, v in (line.split() for line in plot if line) if int(t) > 5000)
    return f"{late:.17g}"


def load_golden() -> dict:
    """The records, after checking that this numpy and BLAS made them."""
    record = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = environment()
    made = {key: record[key] for key in here}
    assert made == here, (f"golden.json was made with {made}, but this is {here}; the BLAS can change "
                          "the last bits of every draw, so the records do not apply here")
    return record


def check_digests(root: Path) -> None:
    want, got = load_golden()["digests"], record_runs(root)
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, f"outputs differ from golden.json: {changed}"


def test_output_digests(tmp_path):
    check_digests(tmp_path)


def test_output_digests_in_parts(tmp_path, thread_share, monkeypatch):
    """The same records when every table, however small, is written in four
    parts, three of them by forked children; the ``estimates.csv`` tables
    of three rows have fewer rows than parts."""
    thread_share(4)
    monkeypatch.setattr(parallel, "_SPOOL_CELLS", 0)
    check_digests(tmp_path)


def test_criterion_5_late_max(criterion_5_fit):
    assert late_max(criterion_5_fit()) == load_golden()["criterion_5_late_max"]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        record = {**environment(), "criterion_5_late_max": late_max(run_criterion_5(Path(tmp, "criterion-5"))),
                  "digests": record_runs(Path(tmp, "runs"))}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(record['digests'])} digests to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
