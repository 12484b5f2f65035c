"""Write cli_golden.json: a set of cheap ``phiprod`` invocations with the
stdout and exit code each one gives, which
``tests/test_cli.py::test_replays_the_committed_invocations`` replays.

Each case names its argv and the files it reads. ``{dir}`` in an argument
stands for the directory the files are written to. The cases cover every
command, the exact (N <= 2) and QMC paths, text and ``--json`` output, and
the usage, domain and verification-failure exits. ``verify --json`` is
left out: it reports each check's wall time.

Run from the repository root (it takes a few seconds):

    PYTHONPATH=src python tests/data/make_cli_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))

from test_cli import CLI_GOLDEN, replay  # noqa: E402


def _matrix(entries) -> str:
    return json.dumps({"dim": len(entries), "entries": entries})


FILES = {
    "half.json": _matrix([[1.5, 1.25], [1.25, 1.5]]),
    "diag.json": _matrix([[1.5, 0.0], [0.0, 0.8]]),
    "one.json": _matrix([[0.49]]),
    "c3.json": _matrix([[1.3, 0.3, 0.3], [0.3, 1.3, 0.3], [0.3, 0.3, 1.3]]),
    # ROADMAP item 1's deep-tail query: the closed form is about 1e-51
    "strong.json": _matrix([[1.0, -0.485, -0.699], [-0.485, 1.0, -0.183],
                            [-0.699, -0.183, 1.0]]),
    "notpd.json": _matrix([[1.0, 2.0], [2.0, 1.0]]),
    "bad.json": "{not json",
    "records.json": json.dumps([
        {"id": "scalar", "mu": 0.0, "sigma2": 1.0, "m": [0, 0], "v": [1, 1]},
        {"id": "vector", "mu": [0.2, -0.1], "m": [0.0, 0.1], "v": [0.9, 1.3],
         "cov": [[1.0, 0.2], [0.2, 0.8]]},
    ]),
    "median.json": json.dumps(
        [{"id": "scalar", "mu": 0.5, "sigma2": 1.0, "m": [0.5], "v": [2.0]}]),
    "badrecord.json": json.dumps(
        [{"id": "scalar", "mu": 0.0, "sigma2": 1.0, "m": [0.0], "v": [1.0]},
         {"id": "nonsense"}]),
    "object.json": json.dumps({"id": "scalar"}),
    "empty.json": "[]",
}

ARCSINE = ["scalar", "--mu", "0", "--sigma2", "1", "--m", "0,0", "--v", "1,1"]
TAIL = ["vector", "--mu=-1.07,-2.58,-2.66", "--m", "0,0,0", "--v", "0.01,0.01,0.01",
        "--cov", "{dir}/strong.json"]

# name -> argv
CASES = {
    "scalar-oracle-text": ARCSINE + ["--oracle"],
    "scalar-oracle-json": ARCSINE + ["--oracle", "--json"],
    "scalar-one-factor-json": ["scalar", "--mu", "0.3", "--sigma2", "0.7",
                               "--m", "0.1,-0.2,0.5", "--v", "0.8,1.2,1.0",
                               "--oracle", "--json"],
    "scalar-single-factor-text": ["scalar", "--mu", "0.5", "--sigma2", "1",
                                  "--m", "0.5", "--v", "2"],
    "scalar-bad-width": ["scalar", "--mu", "0", "--sigma2", "1", "--m", "0,0",
                         "--v", "0,1"],
    "scalar-bad-reals": ["scalar", "--mu", "0", "--sigma2", "1", "--m", "0,x",
                         "--v", "1,1"],
    "scalar-bad-accuracy": ARCSINE + ["--accuracy", "0.5"],
    "scalar-missing-argument": ["scalar", "--mu", "0"],
    "vector-diagonal-json": ["vector", "--mu", "0.4,-0.7", "--m", "0.4,-0.7",
                             "--v", "0.9,1.7", "--cov", "{dir}/diag.json", "--json"],
    "vector-one-text": ["vector", "--mu", "0.3", "--m", "-0.1", "--v", "1.2",
                        "--cov", "{dir}/one.json"],
    "vector-qmc-json": ["vector", "--mu", "0.2,-0.4,0.1", "--m", "0.0,0.3,-0.2",
                        "--v", "0.8,1.1,0.6", "--cov", "{dir}/c3.json", "--json"],
    "vector-oracle-text": ["vector", "--mu", "0.2,-0.4,0.1", "--m", "0.0,0.3,-0.2",
                           "--v", "0.8,1.1,0.6", "--cov", "{dir}/c3.json",
                           "--oracle", "--draws", "20000", "--seed", "3"],
    "vector-oracle-json": ["vector", "--mu", "0.2,-0.4", "--m", "0.1,0.3",
                           "--v", "0.9,1.7", "--cov", "{dir}/half.json",
                           "--oracle", "--draws", "20000", "--json"],
    "vector-deep-tail-json": TAIL + ["--json"],
    "vector-deep-tail-oracle-text": TAIL + ["--oracle", "--draws", "20000"],
    "vector-deep-tail-oracle-json": TAIL + ["--oracle", "--draws", "20000", "--json"],
    "vector-missing-file": ["vector", "--mu", "0", "--m", "0", "--v", "1",
                            "--cov", "{dir}/missing.json"],
    "vector-invalid-file": ["vector", "--mu", "0", "--m", "0", "--v", "1",
                            "--cov", "{dir}/bad.json"],
    "vector-not-pd": ["vector", "--mu", "0,0", "--m", "0,0", "--v", "1,1",
                      "--cov", "{dir}/notpd.json"],
    "vector-too-few-draws": ["vector", "--mu", "0.3", "--m", "-0.1", "--v", "1.2",
                             "--cov", "{dir}/one.json", "--oracle", "--draws", "100"],
    "vector-length-mismatch": ["vector", "--mu", "0,0", "--m", "0", "--v", "1",
                               "--cov", "{dir}/one.json"],
    "pmf-n2-json": ["pmf", "--mu", "0,0", "--cov", "{dir}/half.json", "--y", "1,1",
                    "--json"],
    "pmf-n2-text": ["pmf", "--mu", "0.3,-0.2", "--cov", "{dir}/half.json",
                    "--y=-1,1"],
    "pmf-n1-text": ["pmf", "--mu", "0.4", "--cov", "{dir}/one.json", "--y", "-1"],
    "pmf-qmc-json": ["pmf", "--mu", "0.2,-0.1,0.4", "--cov", "{dir}/c3.json",
                     "--y", "1,-1,1", "--json"],
    "pmf-tilted-json": ["pmf", "--mu=-2,-2,-2", "--cov", "{dir}/c3.json",
                        "--y", "1,1,1", "--json"],
    "pmf-float-signs-text": ["pmf", "--mu", "0,0", "--cov", "{dir}/half.json",
                             "--y", "1.0,-1e0"],
    "pmf-non-sign": ["pmf", "--mu", "0,0", "--cov", "{dir}/half.json", "--y", "1,0"],
    "pmf-non-real": ["pmf", "--mu", "0,0", "--cov", "{dir}/half.json", "--y", "1,a"],
    "pmf-wrong-length": ["pmf", "--mu", "0,0", "--cov", "{dir}/half.json", "--y", "1"],
    "pmf-bad-accuracy": ["pmf", "--mu", "0,0", "--cov", "{dir}/half.json",
                         "--y", "1,1", "--accuracy", "0"],
    "sample-text": ["sample", "--mu", "0,0", "--cov", "{dir}/half.json", "--n", "5",
                    "--seed", "7"],
    "sample-json": ["sample", "--mu", "0.2,-0.1,0.4", "--cov", "{dir}/c3.json",
                    "--n", "3", "--json"],
    "sample-zero": ["sample", "--mu", "0,0", "--cov", "{dir}/half.json", "--n", "0"],
    "normalize-json": ["normalize", "--mu", "0,0", "--cov", "{dir}/half.json", "--json"],
    "normalize-qmc-text": ["normalize", "--mu", "0.2,-0.1,0.4", "--cov", "{dir}/c3.json",
                           "--accuracy", "1e-3"],
    "verify-matrix-text": ["verify", "--suite", "matrix", "--trials", "2"],
    "verify-identity-vector-text": ["verify", "--suite", "identity-vector",
                                    "--trials", "1", "--seed", "5"],
    "verify-perturbed": ["verify", "--suite", "matrix", "--trials", "2",
                         "--perturb", "1e-3"],
    "verify-unknown-suite": ["verify", "--suite", "bogus"],
    "table-csv": ["table", "--spec", "{dir}/records.json"],
    "table-json": ["table", "--spec", "{dir}/median.json", "--format", "json"],
    "table-empty": ["table", "--spec", "{dir}/empty.json"],
    "table-bad-record": ["table", "--spec", "{dir}/badrecord.json"],
    "table-not-a-list": ["table", "--spec", "{dir}/object.json"],
    "table-missing-file": ["table", "--spec", "{dir}/missing.json"],
    "figure-csv": ["figure", "--rho", "0.3", "--grid", "3", "--extent", "1.0"],
    "figure-bad-rho": ["figure", "--rho", "1.0"],
    "figure-bad-grid": ["figure", "--rho", "0.3", "--grid", "1"],
    "no-command": [],
}


def main() -> None:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            case = {"name": name, "argv": argv,
                    "files": {f: FILES[f] for f in FILES
                              if any("{dir}/" + f in a for a in argv)}}
            work = Path(tmp) / name
            work.mkdir()
            case["stdout"], case["exit"] = replay(case, work)
            cases.append(case)
    CLI_GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
