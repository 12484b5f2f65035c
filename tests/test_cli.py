import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from phiprod.cli import main

# written by data/make_cli_golden.py
CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


@pytest.fixture
def fixture_cov(tmp_path):
    path = tmp_path / "half_corr.json"
    path.write_text(json.dumps(
        {"dim": 2, "entries": [[1.5, 1.25], [1.25, 1.5]]}), encoding="utf-8")
    return str(path)


@pytest.fixture
def diag_cov(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(
        {"dim": 2, "entries": [[1.5, 0.0], [0.0, 0.8]]}), encoding="utf-8")
    return str(path)


def test_importing_the_cli_leaves_heavy_scipy_modules_unloaded():
    # scipy.integrate alone costs about 18 MB and 0.2 s at import
    heavy = ("scipy.integrate", "scipy.stats", "scipy.optimize")
    code = f"import sys, phiprod.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


class TestScalarCommand:
    def test_arcsine_case_with_oracle(self, capsys):
        code = main(["scalar", "--mu", "0", "--sigma2", "1", "--m", "0,0",
                     "--v", "1,1", "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.333333" in out

    def test_single_factor_median(self, capsys):
        code = main(["scalar", "--mu", "0.5", "--sigma2", "1", "--m", "0.5",
                     "--v", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.5" in out.split("=")[1]

    def test_nonpositive_width_rejected(self, capsys):
        code = main(["scalar", "--mu", "0", "--sigma2", "1", "--m", "0,0",
                     "--v", "0,1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_is_single_object(self, capsys):
        code = main(["scalar", "--mu", "0", "--sigma2", "1", "--m", "0,0",
                     "--v", "1,1", "--oracle", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "scalar"
        assert payload["oracle"]["pass"] is True
        assert payload["value"] == pytest.approx(1 / 3, abs=1e-9)


    def test_three_factors_take_the_one_factor_route(self, capsys):
        code = main(["scalar", "--mu", "0.3", "--sigma2", "0.7", "--m", "0.1,-0.2,0.5",
                     "--v", "0.8,1.2,1.0", "--oracle", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["method"] == "one_factor_trapezoid"
        assert payload["converged"] is True
        assert payload["n_points"] > 0
        assert payload["oracle"]["pass"] is True

    def test_oracle_resolves_a_narrow_factor(self, capsys):
        # v_r / s = 0.1: an order-200 Gauss-Hermite rule is off by 3.5e-5 here
        # and its order-halving certificate reads only 1.6e-5
        code = main(["scalar", "--mu", "0.3", "--sigma2", "1", "--m=-0.2,0.1,0.5",
                     "--v", "0.1,1.2,1.0", "--oracle", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["oracle"]["pass"] is True
        assert payload["oracle"]["certificate"] <= 1e-12
        assert payload["oracle"]["value"] == pytest.approx(0.30637008027173, abs=1e-13)


class TestVectorCommand:
    def test_diagonal_median_product(self, capsys, diag_cov):
        code = main(["vector", "--mu", "0.4,-0.7", "--m", "0.4,-0.7",
                     "--v", "0.9,1.7", "--cov", diag_cov, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["value"] == pytest.approx(0.25, abs=1e-9)

    def test_single_factor_matches_scalar_command(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"dim": 1, "entries": [[0.49]]}', encoding="utf-8")
        code = main(["vector", "--mu", "0.3", "--m", "-0.1", "--v", "1.2",
                     "--cov", str(path), "--json"])
        vec = json.loads(capsys.readouterr().out)
        code2 = main(["scalar", "--mu", "0.3", "--sigma2", "0.49", "--m", "-0.1",
                      "--v", "1.2", "--json"])
        sca = json.loads(capsys.readouterr().out)
        assert code == 0 and code2 == 0
        assert vec["value"] == pytest.approx(sca["value"], abs=1e-12)

    def test_oracle_pass_on_random_fixture(self, capsys, tmp_path, rng):
        g = rng.standard_normal((3, 3))
        entries = (g.T @ g + 0.1 * np.eye(3)).tolist()
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"dim": 3, "entries": entries}), encoding="utf-8")
        code = main(["vector", "--mu", "0.2,-0.4,0.1", "--m", "0.0,0.3,-0.2",
                     "--v", "0.8,1.1,0.6", "--cov", str(path), "--oracle",
                     "--draws", "200000", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["oracle"]["pass"] is True

    def test_json_of_a_deep_tail_is_strict_json(self, capsys, tmp_path):
        # the tilted QMC sums of this query are nan; json.dumps would print
        # that as the bare token NaN, which no strict JSON reader accepts
        path = tmp_path / "strong.json"
        path.write_text(json.dumps({"dim": 3, "entries": [
            [1.0, -0.485, -0.699], [-0.485, 1.0, -0.183], [-0.699, -0.183, 1.0]]}),
            encoding="utf-8")
        code = main(["vector", "--mu=-1.07,-2.58,-2.66", "--m", "0,0,0",
                     "--v", "0.01,0.01,0.01", "--cov", str(path), "--json"])

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == 0
        assert 0.0 <= payload["value"] <= 1e-50

    def test_oracle_bar_of_an_all_zero_sample_is_the_rule_of_three(self, capsys,
                                                                     tmp_path):
        # the closed form is about 1e-51 and every one of the 20000 Monte Carlo
        # products is 0: a standard error of 0 would fail a correct value
        path = tmp_path / "strong.json"
        path.write_text(json.dumps({"dim": 3, "entries": [
            [1.0, -0.485, -0.699], [-0.485, 1.0, -0.183], [-0.699, -0.183, 1.0]]}),
            encoding="utf-8")
        code = main(["vector", "--mu=-1.07,-2.58,-2.66", "--m", "0,0,0",
                     "--v", "0.01,0.01,0.01", "--cov", str(path), "--oracle",
                     "--draws", "20000", "--json"])
        oracle = json.loads(capsys.readouterr().out)["oracle"]
        assert code == 0
        assert (oracle["estimate"], oracle["std_error"]) == (0.0, 1.0 / 20000)
        assert oracle["pass"] is True

    def test_missing_matrix_file(self, capsys):
        code = main(["vector", "--mu", "0", "--m", "0", "--v", "1",
                     "--cov", "/nonexistent/cov.json"])
        assert code == 2

    def test_invalid_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["vector", "--mu", "0", "--m", "0", "--v", "1",
                     "--cov", str(path)])
        assert code == 2


class TestPmfSampleNormalize:
    def test_pmf_half_correlation(self, capsys, fixture_cov):
        code = main(["pmf", "--mu", "0,0", "--cov", fixture_cov, "--y", "1,1",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["value"] == pytest.approx(1 / 3, abs=1e-6)

    def test_pmf_reports_lattice_size_and_convergence(self, capsys, tmp_path):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"dim": 3, "entries": (np.eye(3) + 0.3).tolist()}),
                        encoding="utf-8")
        code = main(["pmf", "--mu", "0.2,-0.1,0.4", "--cov", str(path),
                     "--y", "1,-1,1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["method"] == "qmc_genz"
        assert payload["n_points"] >= 1024
        assert payload["converged"] is True

    def test_pmf_reports_the_variable_order(self, capsys, tmp_path, fixture_cov):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"dim": 3, "entries": (np.eye(3) + 0.3).tolist()}),
                        encoding="utf-8")
        code = main(["pmf", "--mu", "0.2,-0.1,0.4", "--cov", str(path),
                     "--y", "1,-1,1", "--json"])
        qmc = json.loads(capsys.readouterr().out)
        code2 = main(["pmf", "--mu", "0,0", "--cov", fixture_cov, "--y", "1,1", "--json"])
        exact = json.loads(capsys.readouterr().out)
        assert code == 0 and code2 == 0
        assert sorted(qmc["order"]) == [0, 1, 2]
        assert exact["order"] == []

    def test_json_reports_whether_the_integrand_was_tilted(self, capsys, tmp_path,
                                                           diag_cov):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps({"dim": 3, "entries": (np.eye(3) + 0.3).tolist()}),
                        encoding="utf-8")
        payloads = []
        for argv in (["pmf", "--mu=-2,-2,-2", "--cov", str(path), "--y", "1,1,1"],
                     ["pmf", "--mu", "2,2,2", "--cov", str(path), "--y", "1,1,1"],
                     ["vector", "--mu", "0.2,-0.4", "--m", "0.1,0.3", "--v", "0.9,1.7",
                      "--cov", diag_cov],
                     ["scalar", "--mu", "0", "--sigma2", "1", "--m", "0,0", "--v", "1,1"]):
            assert main(argv + ["--json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        tail, bulk, vector, scalar = payloads
        # a tail orthant (p = 2.3e-3) is tilted, a bulk one (p = 0.76) is not
        assert (tail["method"], tail["tilted"]) == ("qmc_genz", True)
        assert (bulk["method"], bulk["tilted"]) == ("qmc_genz", False)
        assert vector["tilted"] is False and scalar["tilted"] is False

    def test_pmf_rejects_non_sign(self, capsys, fixture_cov):
        code = main(["pmf", "--mu", "0,0", "--cov", fixture_cov, "--y", "1,0"])
        assert code == 2
        # the parsed entry, not a numpy repr
        assert "sign entries must be -1 or +1, got 0.0" in capsys.readouterr().err

    def test_sample_repeatable(self, capsys, fixture_cov):
        code = main(["sample", "--mu", "0,0", "--cov", fixture_cov,
                     "--n", "50", "--seed", "7"])
        first = capsys.readouterr().out
        code2 = main(["sample", "--mu", "0,0", "--cov", fixture_cov,
                      "--n", "50", "--seed", "7"])
        second = capsys.readouterr().out
        assert code == 0 and code2 == 0
        assert first == second
        rows = first.strip().split("\n")
        assert len(rows) == 50
        assert all(set(r.split(",")) <= {"1", "-1"} for r in rows)

    def test_normalize_within_budget(self, capsys, fixture_cov):
        code = main(["normalize", "--mu", "0,0", "--cov", fixture_cov, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["deviation"] <= payload["budget"]


class TestVerifyCommand:
    def test_matrix_suite_passes(self, capsys):
        code = main(["verify", "--suite", "matrix", "--trials", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out
        assert "FAIL " not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "bogus"])
        assert info.value.code == 2

    def test_perturbation_fails(self, capsys):
        code = main(["verify", "--suite", "matrix", "--trials", "5",
                     "--perturb", "1e-3"])
        assert code == 1

    def test_json_report(self, capsys):
        code = main(["verify", "--suite", "matrix", "--trials", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert all(check["pass"] for check in payload["checks"])

    def test_json_reports_check_wall_time(self, capsys):
        start = time.perf_counter()
        main(["verify", "--suite", "scalar", "--json"])
        wall = time.perf_counter() - start
        elapsed = [check["elapsed_s"] for check in json.loads(capsys.readouterr().out)["checks"]]
        assert len(elapsed) == 7
        assert min(elapsed) >= 0.0
        assert sum(elapsed) <= wall

    # every check that an acceptance criterion reads, with a bias past its
    # tolerance at one trial
    @pytest.mark.parametrize("suite, check, perturb", [
        pytest.param(suite, check, perturb, id=check) for suite, check, perturb in [
            ("scalar", "owen_t_vs_quadrature", 1e-9),
            ("matrix", "bordered_determinant_identity", 1e-3),
            ("matrix", "partitioned_inverse_identity", 1e-3),
            ("identity-scalar", "closed_form_vs_quadrature", 1e-3),
            ("identity-scalar", "quadrature_tolerance_certificate", 1e-10),
            ("identity-vector", "closed_form_vs_monte_carlo", 1e-2),
            ("bernoulli", "pmf_normalization", 1e-2),
        ]])
    def test_reused_check_fails_under_perturbation(self, capsys, suite, check, perturb):
        code = main(["verify", "--suite", suite, "--trials", "1",
                     "--perturb", str(perturb)])
        out = capsys.readouterr().out
        assert code == 1
        assert f"FAIL  {suite}/{check}" in out


class TestTableCommand:
    def test_two_record_fixture(self, capsys, tmp_path):
        spec = [
            {"id": "scalar", "mu": 0.0, "sigma2": 1.0, "m": [0, 0], "v": [1, 1]},
            {"id": "vector", "mu": [0.2, -0.1], "m": [0.0, 0.1], "v": [0.9, 1.3],
             "cov": [[1.0, 0.2], [0.2, 0.8]]},
        ]
        path = tmp_path / "records.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["table", "--spec", str(path), "--format", "csv"])
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "id,params,closed,oracle,absdiff"
        assert len(lines) == 3
        for line in lines[1:]:
            assert float(line.rsplit(",", 1)[1]) <= 1e-3

    def test_empty_array_is_header_only(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        code = main(["table", "--spec", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "id,params,closed,oracle,absdiff\n"

    def test_median_record(self, capsys, tmp_path):
        path = tmp_path / "median.json"
        path.write_text(json.dumps(
            [{"id": "scalar", "mu": 0.5, "sigma2": 1.0, "m": [0.5], "v": [2.0]}]),
            encoding="utf-8")
        code = main(["table", "--spec", str(path), "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows[0]["closed"] == 0.5

    def test_narrow_factor_record_has_no_false_gap(self, capsys, tmp_path):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(
            [{"id": "scalar", "mu": 0.3, "sigma2": 1.0, "m": [-0.2, 0.1, 0.5],
              "v": [0.1, 1.2, 1.0]}]), encoding="utf-8")
        code = main(["table", "--spec", str(path), "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows[0]["absdiff"] <= 1e-12

    def test_bad_record_names_index(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            [{"id": "scalar", "mu": 0.0, "sigma2": 1.0, "m": [0.0], "v": [1.0]},
             {"id": "nonsense"}]), encoding="utf-8")
        code = main(["table", "--spec", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "record 1" in err


class TestFigureCommand:
    @pytest.mark.parametrize("rho,target", [(0.5, 1 / 3), (-0.5, 1 / 6), (0.0, 0.25)])
    def test_riemann_mass_over_region(self, capsys, rho, target):
        code = main(["figure", "--rho", str(rho), "--grid", "201"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "z1,z2,density,in_region"
        cell = (2 * 3.5 / 200) ** 2
        mass = 0.0
        for line in lines[1:]:
            z1, z2, density, in_region = line.split(",")
            if in_region == "1":
                assert float(z1) <= 0.0 and float(z2) <= 0.0
                mass += float(density) * cell
        assert abs(mass - target) <= 1e-2

    def test_line_endings_are_lf(self, capsys):
        main(["figure", "--rho", "0.3", "--grid", "3", "--extent", "1.0"])
        out = capsys.readouterr().out
        assert "\r" not in out

    @pytest.mark.parametrize("rho", ["1.0", "-1.0", "1.5"])
    def test_degenerate_rho_rejected(self, rho, capsys):
        assert main(["figure", "--rho", rho]) == 2


@pytest.mark.parametrize("option, value, rest", [
    ("--y", "-1,1", ["pmf", "--mu", "0.3,-0.2", "--cov", "{cov}"]),
    ("--mu", "-0.3,0.2", ["pmf", "--cov", "{cov}", "--y", "1,1"]),
    ("--m", "-0.2,0.1", ["scalar", "--mu", "0", "--sigma2", "1", "--v", "1,1"]),
    # widths must be positive: the library, not the parser, says so
    ("--v", "-1,1", ["vector", "--mu", "0,0", "--m", "0,0", "--cov", "{cov}"]),
])
def test_a_comma_list_starting_negative_is_read_after_a_space(capsys, fixture_cov, option,
                                                              value, rest):
    outcomes = []
    for form in ([option, value], [f"{option}={value}"]):
        argv = [arg.replace("{cov}", fixture_cov) for arg in rest] + form
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (2 if option == "--v" else 0)


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def replay(case: dict, workdir: Path) -> tuple[str, int]:
    """(stdout, exit code) of ``main`` on a case of cli_golden.json, with the
    case's files written to ``workdir``, which ``{dir}`` in its argv names."""
    for name, text in case["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("{dir}", str(workdir)) for arg in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code


@pytest.mark.parametrize(
    "case", json.loads(CLI_GOLDEN.read_text(encoding="utf-8")), ids=lambda c: c["name"])
def test_replays_the_committed_invocations(case, tmp_path):
    assert replay(case, tmp_path) == (case["stdout"], case["exit"])
