import json
import os
import subprocess
import sys

import pytest

from qfb import cli, zeros
from qfb.qcore import QContext


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def edit_cache_row(path, k, edit):
    """Replace the fields of row k of a zero-cache file by edit(fields)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        parts = line.split("\t")
        if parts[0] == str(k):
            lines[i] = "\t".join(edit(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def certified_past_alpha(parts):
    """A q = 0.5 row moved to eps = 2 alpha, value consistent, marked certified."""
    k, alpha = int(parts[0]), float(parts[3])
    eps = 2.0 * alpha
    return [parts[0], f"{0.5 ** (-k + eps):.17g}", f"{eps:.17g}", parts[3], "1"]


class TestZerosCommand:
    def test_table_contents(self, capsys, tmp_path):
        code, out, _ = run_cli(["zeros", "--q", "0.5", "--nu", "1", "--k", "1..10",
                                "--format", "csv", "--cache", str(tmp_path)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value,eps,alpha,certified"
        assert len(lines) == 11
        for line in lines[1:]:
            k, value, eps, alpha, certified = line.split(",")
            assert certified == "1"
            assert 0.0 <= float(eps) < float(alpha)

    def test_invalid_q_exits_one(self, capsys):
        code, _, err = run_cli(["zeros", "--q", "1.5", "--k", "1..3"], capsys)
        assert code == 1
        assert "q must lie" in err

    def test_cache_round_trip(self, capsys, tmp_path):
        argv = ["zeros", "--q", "0.5", "--nu", "1", "--k", "1..6",
                "--format", "csv", "--cache", str(tmp_path)]
        _, cold, _ = run_cli(argv, capsys)
        cache_file = cli.cache_path(str(tmp_path), 0.5, 1.0)
        assert os.path.exists(cache_file)
        with open(cache_file) as fh:
            assert fh.readline().startswith("#qbf-zeros v1 q=0.500000000000")
        _, warm, _ = run_cli(argv, capsys)
        assert warm == cold

    def test_cache_survives_value_round_trip(self, tmp_path):
        rows = {3: {"k": 3, "value": 7.999999513450252,
                    "eps": 8.774286624447152e-08,
                    "alpha": 0.0028681847745722394, "certified": True}}
        path = cli.cache_path(str(tmp_path), 0.5, 1.0)
        cli.save_zero_cache(path, 0.5, 1.0, rows)
        back = cli.load_zero_cache(path, 0.5, 1.0)
        assert back[3]["value"] == rows[3]["value"]
        assert back[3]["eps"] == rows[3]["eps"]

    def test_cache_keyed_on_tolerance(self, capsys, tmp_path):
        argv = ["zeros", "--q", "0.5", "--nu", "1", "--k", "1..2",
                "--format", "json", "--cache", str(tmp_path)]
        run_cli(argv + ["--tol", "1e-6"], capsys)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        # the default-tolerance zero is served, not the one solved at 1e-6
        zeros._CACHE.clear()
        value = json.loads(out)[0]["value"]
        assert value == zeros.find_zero(QContext(0.5, 1.0), 1).value
        assert value != 1.9167297209922123

    @pytest.mark.parametrize("edit", [
        lambda p: ["two"] + p[1:],               # a row that does not parse
        lambda p: p[:2],                         # a row with fields missing
        lambda p: [p[0], "99.0"] + p[2:],        # value is not q^(-k + eps)
        lambda p: p[:3] + ["0.5", p[4]],         # alpha is not alpha_bound(k)
        certified_past_alpha,                    # certified with eps > alpha
    ], ids=["unparsable", "short", "value", "alpha", "certified"])
    def test_invalid_cache_row_is_a_miss(self, edit, capsys, tmp_path):
        argv = ["zeros", "--q", "0.5", "--nu", "1", "--k", "1..4",
                "--format", "csv", "--cache", str(tmp_path)]
        _, cold, _ = run_cli(argv, capsys)
        path = cli.cache_path(str(tmp_path), 0.5, 1.0)
        edit_cache_row(path, 2, edit)
        assert cli.load_zero_cache(path, 0.5, 1.0) == {}
        code, warm, err = run_cli(argv, capsys)
        assert (code, warm, err) == (0, cold, "")
        assert len(cli.load_zero_cache(path, 0.5, 1.0)) == 4  # rewritten

    def test_scanned_zero_marked_certified_is_a_miss(self, capsys, tmp_path):
        # j_3 at q = 0.9 lies below the regime, so it is found by scanning and
        # never certified, although its eps lies in (0, alpha)
        argv = ["zeros", "--q", "0.9", "--nu", "1", "--k", "3",
                "--format", "csv", "--cache", str(tmp_path)]
        run_cli(argv, capsys)
        path = cli.cache_path(str(tmp_path), 0.9, 1.0)
        assert cli.load_zero_cache(path, 0.9, 1.0)
        edit_cache_row(path, 3, lambda p: p[:4] + ["1"])
        assert cli.load_zero_cache(path, 0.9, 1.0) == {}

    def test_env_var_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        assert cli.cache_dir(None) == str(tmp_path)
        assert cli.cache_dir("/explicit") == "/explicit"


class TestEvalCommand:
    def test_bessel_row(self, capsys):
        code, out, _ = run_cli(["eval", "--q", "0.5", "--nu", "1", "--z", "2.0",
                                "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        jrow = [r for r in rows if r["kind"] == "bessel_j"][0]
        assert jrow["value"] == pytest.approx(-0.1629786244058852, rel=1e-12)

    def test_poly_coeff_rows(self, capsys):
        code, out, _ = run_cli(["eval", "--poly-n", "2", "--format", "json"], capsys)
        rows = json.loads(out)
        assert code == 0
        assert len([r for r in rows if r["kind"] == "poly_p_coeff"]) == 3

    def test_zero_argument_prints_no_cancellation_warning(self, capsys):
        # J is exactly 0 at z = 0, so its condition is infinite but nothing
        # cancelled
        code, out, err = run_cli(["eval", "--z", "0", "--nu", "1"], capsys)
        assert code == 0
        assert err == ""
        assert out.splitlines()[1] == "bessel_j,0.0,0.0,0,0.0,inf"

    def test_needs_some_target(self, capsys):
        code, _, err = run_cli(["eval"], capsys)
        assert code == 1
        assert "eval needs" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--z", "nan"],
        ["eval", "--z", "1e20"],
        ["eval", "--z", "1e200"],
        ["eval", "--z", "-1"],
        ["eval", "--z", "0", "--nu", "0.5"],
        ["eval", "--poly-n", "-1"],
        ["zeros", "--k", "0"],
        ["zeros", "--k", "two"],
        ["zeros", "--nu", "inf", "--k", "1"],
    ])
    def test_invalid_parameters_exit_one(self, argv, capsys, tmp_path):
        code, out, err = run_cli(argv + ["--cache", str(tmp_path)], capsys)
        assert code == 1
        assert err.startswith("error: ") or "\nerror: " in err
        assert out == ""


class TestCoeffsAndExpand:
    def test_power_closed_vs_numeric_columns(self, capsys):
        code, out, _ = run_cli(["coeffs", "--q", "0.5", "--nu", "2", "--f",
                                "power-nu", "--kmax", "3", "--format", "json"], capsys)
        assert code == 0
        for row in json.loads(out):
            assert row["a_numeric"] == pytest.approx(row["a_closed"], rel=1e-9)

    def test_expand_with_values_file(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        q = 0.5
        lines = ["n,f"] + [f"{n},{(q**n)**2}" for n in range(40)]
        lines.append(f"-1,{(1/q)**2}")
        lines.append("inf,0.0")
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(["expand", "--q", "0.5", "--nu", "2", "--values",
                                str(path), "--kmax", "5", "--ngrid", "8",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["coefficients"]) == 5
        assert payload["points"][0]["abs_error"] < 1e-3

    def test_coefficients_where_the_closed_form_eta_cancels(self, capsys):
        code, out, _ = run_cli(["coeffs", "--q", "0.9", "--nu", "1", "--f", "power-nu",
                                "--kmax", "8", "--format", "json"], capsys)
        assert code == 0
        assert len(json.loads(out)) == 8

    def test_bad_values_file_exits_three(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        code, _, err = run_cli(["expand", "--values", str(path)], capsys)
        assert code == 3
        assert "cannot parse" in err

    def test_gap_in_values_file_exits_three(self, capsys, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("n,f\n0,1.0\n2,0.25\n")
        code, _, _ = run_cli(["expand", "--values", str(path)], capsys)
        assert code == 3


class TestConverge:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(["converge", "--q", "0.5", "--nu", "2", "--f",
                                "power-nu", "--kmax", "12", "--ngrid", "12",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["holder_order"] == pytest.approx(2.0, abs=0.05)
        assert payload["hypotheses"]["holder_order_gt_1"]
        assert payload["sup_errors"][-1] < 1e-8


class TestVerify:
    def test_single_family(self, capsys):
        code, out, _ = run_cli(["verify", "--family", "jacobi", "--q", "0.5"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["families"]["jacobi"]["passed"]
        assert rep["families"]["jacobi"]["residual"] < 1e-13

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(["verify", "--family", "nope"], capsys)
        assert code == 1
        assert "unknown family" in err

    def test_seed_recorded(self, capsys):
        code, out, _ = run_cli(["verify", "--family", "finite-sums",
                                "--seed", "777"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 777

    def test_roundtrip_settles_at_larger_q(self, capsys):
        # the first zero offsets at q = 0.7 contract slowly under the
        # fixed-point map and need its secant steps
        code, out, _ = run_cli(["verify", "--q", "0.7", "--family", "roundtrip"], capsys)
        assert code == 0
        assert json.loads(out)["families"]["roundtrip"]["residual"] < 1e-9

    @pytest.mark.parametrize("family", ["qintegral", "byparts"])
    def test_quadrature_families_pass_near_one(self, family, capsys):
        # 0.9^256 no longer passes the stopping rule on the default grid: the
        # integrands' tail models and the longer boundary-limit probe take over
        code, out, _ = run_cli(["verify", "--q", "0.9", "--nu", "1", "--family", family],
                               capsys)
        assert code == 0
        assert json.loads(out)["families"][family]["passed"]

    def test_family_that_raises_fails_without_traceback(self, capsys):
        # the mp zero-offset solve has no start where the first zero lies far
        # from q^-1
        code, out, err = run_cli(["verify", "--q", "0.85", "--family", "roundtrip"], capsys)
        assert code == 4
        assert err == ""
        fam = json.loads(out)["families"]["roundtrip"]
        assert not fam["passed"]
        assert fam["detail"].startswith("ArithmeticError: zero-offset fixed point")

    def test_eta_family_reports_closed_form_gap(self, capsys):
        # the J'(j_k) series behind eta_closed cancels at q = 0.9
        code, out, _ = run_cli(["verify", "--q", "0.9", "--nu", "1", "--family", "eta"],
                               capsys)
        assert code == 4
        fam = json.loads(out)["families"]["eta"]
        assert not fam["passed"]
        assert 1e-9 < fam["residual"] < 1e-6

    def test_fast_families_pass(self, capsys):
        for fam in ("pochhammer", "qintegral", "qderivative", "orthogonality",
                    "eta", "shift-identity", "poly"):
            code, out, _ = run_cli(["verify", "--family", fam, "--kmax", "5"], capsys)
            assert code == 0, (fam, out)


def test_console_entry_point_subprocess(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["QBF_CACHE_DIR"] = str(tmp_path)
    out = subprocess.run(
        [sys.executable, "-m", "qfb.cli", "zeros", "--q", "0.5", "--nu", "1",
         "--k", "2", "--format", "csv"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines()[1].startswith("2,3.999103238038275")
