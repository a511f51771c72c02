import json
import math

import numpy as np
import pytest

from logsob.cli import dumps, main
from logsob.perturbations import parse_perturbation, render_perturbation
from logsob.potentials import parse_potential, render_potential


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- serialization -----------------------------------------------------------

def test_dumps_17_significant_digits():
    text = dumps({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1.0 / 3.0


def test_dumps_non_finite_as_strings():
    obj = json.loads(dumps({"a": math.inf, "b": -math.inf, "c": math.nan}))
    assert obj == {"a": "inf", "b": "-inf", "c": "nan"}


def test_dumps_escapes_keys_and_strings():
    obj = {'say "hi"\n': ["tab\there\r", {"k": "\\"}]}
    assert json.loads(dumps(obj)) == obj
    line = dumps(obj, one_line=True)
    assert "\n" not in line and "\r" not in line
    assert json.loads(line) == obj


def test_dumps_numpy_types():
    obj = json.loads(dumps({"v": np.array([1.5, 2.5]), "n": np.int64(3), "f": np.float64(0.5)}))
    assert obj == {"v": [1.5, 2.5], "n": 3, "f": 0.5}


# --- bound -------------------------------------------------------------------

def test_bound_be_gaussian_constant_two(capsys):
    code, out, err = run(
        capsys, "bound",
        "--potential", "family=gaussian rho=1 dim=2",
        "--perturbation", "perturbation=identity",
        "--method", "be",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["constant"] == 2.0
    assert reports[0]["valid"] is True
    assert "\n" not in err.strip()
    manifest = json.loads(err)
    assert manifest["command"] == "bound"
    assert "finished" in manifest


def test_bound_all_methods(capsys):
    code, out, _ = run(
        capsys, "bound",
        "--potential", "family=subbotin alpha=4 dim=1",
        "--perturbation", "perturbation=arctan eps=0.5",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["method"] for r in reports] == [
        "feynman_kac", "bakry_emery", "holley_stroock", "feynman_kac_monotone"]
    fk = reports[0]
    assert fk["valid"] is True
    assert fk["constant"] > 0


def test_bound_fk_quartic_arctan_is_certified(capsys):
    code, out, _ = run(
        capsys, "bound",
        "--potential", "family=subbotin alpha=4 dim=2",
        "--perturbation", "perturbation=arctan eps=0.3",
        "--method", "fk",
    )
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["valid"] is True and rep["certified"] is True
    kappa_verdict = [v for v in rep["preconditions"] if v["name"] == "kappa_a > 0"][0]
    assert kappa_verdict["heuristic"] is False
    assert "(polynomial_certificate)" in kappa_verdict["detail"]


def test_bound_invalid_is_reported_not_an_error(capsys):
    code, out, _ = run(
        capsys, "bound",
        "--potential", "family=subbotin alpha=4 dim=2",
        "--perturbation", "perturbation=identity",
        "--method", "fk",
    )
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["valid"] is False
    assert rep["constant"] == "inf"


def test_bound_bad_potential_exits_one(capsys):
    code, out, err = run(
        capsys, "bound",
        "--potential", "family=subbotin alpha=1 dim=2",
        "--perturbation", "perturbation=identity",
    )
    assert code == 1
    assert out == ""
    assert "\n" not in err.strip()
    assert "alpha" in json.loads(err)["error"]


@pytest.mark.parametrize("argv, token", [
    (("bound", "--potential", "family=gaussian rho=abc dim=1",
      "--perturbation", "perturbation=identity"), "rho=abc"),
    (("bound", "--potential", "family=gaussian rho=1 dim=1",
      "--perturbation", "perturbation=arctan eps=x"), "eps=x"),
    (("simulate", "--potential", "family=gaussian rho=1 dim=1",
      "--perturbation", "perturbation=identity", "--x0", "abc", "--paths", "10"), "abc"),
])
def test_malformed_number_exits_one_with_manifest(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "\n" not in err.strip()
    error = json.loads(err)["error"]
    assert error.startswith("ParameterError") and token in error


# --- certify -------------------------------------------------------------------

def test_certify_negative_verdict_exits_zero(capsys):
    code, out, _ = run(capsys, "certify", "--family", "quadric", "--eps", "2", "--dim", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["kappa"] == 2.0
    assert len(payload["coefficients"]) == 5


def test_certify_canonical_quadric(capsys):
    eps = 8.0 / (3 * math.sqrt(3) * 9)
    code, out, _ = run(capsys, "certify", "--family", "quadric",
                       "--eps", repr(eps), "--dim", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["kappa"] == pytest.approx(eps * 8, rel=1e-15)


def test_certify_double_well_requires_beta(capsys):
    code, _, err = run(capsys, "certify", "--family", "double_well",
                       "--eps", "0.5", "--dim", "2")
    assert code == 1
    assert "beta" in json.loads(err)["error"]


# --- sweep ------------------------------------------------------------------------

def test_sweep_quadric_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "quadric", "--dims", "1:8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,eps,kappa,bound,envelope,valid,certified"
    assert len(lines) == 9
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) <= 14.1213 + 1e-4
        assert cells[5] == "true"


def test_sweep_bad_range_exits_one(capsys):
    code, _, _ = run(capsys, "sweep", "--family", "quadric", "--dims", "8:1")
    assert code == 1


# --- simulate ------------------------------------------------------------------------

def test_simulate_summary_and_paths_file(tmp_path, capsys):
    out_file = tmp_path / "paths.csv"
    argv = ["simulate",
            "--potential", "family=gaussian rho=1 dim=2",
            "--perturbation", "perturbation=arctan eps=0.3",
            "--t", "0.2", "--dt", "0.01", "--paths", "256", "--seed", "7",
            "--x0", "0.5,0",
            "--emit-paths", str(out_file)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    summary = json.loads(out)
    assert summary["n_paths"] == 256
    assert summary["n_divergent"] == 0
    assert abs(summary["mean_weight"] - 1.0) < 0.05
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "path_id,x_t_0,x_t_1,log_r,j_norm"
    assert len(lines) == 257
    # without --emit-paths the tangent flow is skipped; the summary is unchanged
    code, out_lean, _ = run(capsys, *argv[:-2])
    assert code == 0
    assert out_lean == out


def test_simulate_deterministic_given_seed(capsys):
    argv = ["simulate", "--potential", "family=gaussian rho=1 dim=1",
            "--perturbation", "perturbation=identity",
            "--t", "0.1", "--dt", "0.01", "--paths", "64", "--seed", "3", "--x0", "1"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# --- verify -------------------------------------------------------------------------

def test_verify_martingale_small_run(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "martingale",
        "--potential", "family=subbotin alpha=4 dim=2",
        "--perturbation", "perturbation=arctan eps=0.4",
        "--t", "0.5", "--dt", "0.005", "--paths", "4000", "--seed", "5",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["name"] == "martingale"


def test_verify_monotone_d2_exits_one(capsys):
    code, _, err = run(
        capsys, "verify", "--check", "monotone",
        "--potential", "family=subbotin alpha=4 dim=2",
        "--perturbation", "perturbation=identity",
        "--f", "one-plus-tanh",
        "--t", "0.2", "--dt", "0.01", "--paths", "100",
    )
    assert code == 1
    assert "d=1" in json.loads(err)["error"]


def test_verify_unknown_function_exits_one(capsys):
    code, _, _ = run(
        capsys, "verify", "--check", "monotone",
        "--potential", "family=subbotin alpha=4 dim=1",
        "--perturbation", "perturbation=identity",
        "--f", "nosuch", "--paths", "100",
    )
    assert code == 1


# --- sample -------------------------------------------------------------------------

def test_sample_csv_output(tmp_path, capsys):
    out_file = tmp_path / "samples.csv"
    code, out, _ = run(
        capsys, "sample",
        "--potential", "family=double_well beta=0.25 dim=1",
        "-n", "500", "--method", "radial", "--seed", "11",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x_0"
    assert len(lines) == 501


# --- usage errors ---------------------------------------------------------------------

def test_unknown_flag_exits_two(capsys):
    assert main(["bound", "--nosuch", "x"]) == 2


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_exits_two(capsys):
    assert main(["bound"]) == 2


# --- round trip -------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "family=subbotin alpha=4 dim=8",
    "family=double_well beta=0.25 dim=3",
    "family=gaussian rho=1 dim=2",
])
def test_potential_round_trip(text):
    assert render_potential(parse_potential(render_potential(parse_potential(text)))) == \
        render_potential(parse_potential(text))


@pytest.mark.parametrize("text", ["perturbation=arctan eps=0.35", "perturbation=identity"])
def test_perturbation_round_trip(text):
    assert render_perturbation(parse_perturbation(render_perturbation(parse_perturbation(text)))) == \
        render_perturbation(parse_perturbation(text))
