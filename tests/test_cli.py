import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import logsob
from logsob import cli
from logsob.bounds import BoundReport, Verdict
from logsob.cli import EMIT_ROWS, _csv_cell, dumps, main
from logsob.perturbations import parse_perturbation, render_perturbation
from logsob.potentials import parse_potential, render_potential
from logsob.sde import SdeConfig, simulate
from logsob.verify import sample_measure


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


def test_dumps_exact_text_of_nested_dataclasses_and_numpy_values():
    # a report holding a tuple of dataclasses, numpy scalars, a 0-d array,
    # float keys (martingale_check's means) and empty containers
    rep = BoundReport(method="fk", constant=0.5, valid=np.bool_(True),
                      preconditions=(Verdict("(G)", True, False),
                                     Verdict("kappa > 0", np.bool_(False), True, "grid")),
                      inputs={"dim": 2, "eps": np.float64(0.25)}, certified=False, notes="")
    obj = {"report": rep, "passed": np.bool_(False), "lhs": np.array(1.0 / 3.0),
           "means": {0.02: 1.0, 0.04: np.float64(0.75)}, "flags": (), "details": {}}
    assert dumps(obj) == textwrap.dedent("""\
        {
          "report": {
            "method": "fk",
            "constant": 0.5,
            "valid": true,
            "preconditions": [
              {
                "name": "(G)",
                "ok": true,
                "heuristic": false,
                "detail": ""
              },
              {
                "name": "kappa > 0",
                "ok": false,
                "heuristic": true,
                "detail": "grid"
              }
            ],
            "inputs": {
              "dim": 2,
              "eps": 0.25
            },
            "certified": false,
            "notes": ""
          },
          "passed": false,
          "lhs": 0.33333333333333331,
          "means": {
            "0.02": 1,
            "0.04": 0.75
          },
          "flags": [],
          "details": {}
        }""")
    assert dumps(obj, one_line=True) == (
        '{"report": {"method": "fk", "constant": 0.5, "valid": true, "preconditions": '
        '[{"name": "(G)", "ok": true, "heuristic": false, "detail": ""}, '
        '{"name": "kappa > 0", "ok": false, "heuristic": true, "detail": "grid"}], '
        '"inputs": {"dim": 2, "eps": 0.25}, "certified": false, "notes": ""}, '
        '"passed": false, "lhs": 0.33333333333333331, "means": {"0.02": 1, "0.04": 0.75}, '
        '"flags": [], "details": {}}')


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


def test_holley_stroock_tilt_past_the_largest_float_gives_inf(capsys):
    # (sup a * sup 1/a)^4 exceeds the largest float while rho_a > 0
    code, out, err = run(
        capsys, "bound",
        "--potential", "family=gaussian rho=1e4 dim=1",
        "--perturbation", "perturbation=arctan eps=240",
        "--method", "hs",
    )
    assert code == 0
    assert "error" not in json.loads(err)
    rep = json.loads(out)[0]
    assert rep["method"] == "holley_stroock"
    assert rep["valid"] is True
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
    (("bound", "--potential", "family=gaussian rho=inf dim=1",
      "--perturbation", "perturbation=identity"), "rho"),
    (("bound", "--potential", "family=subbotin alpha=inf dim=2",
      "--perturbation", "perturbation=identity"), "alpha"),
    (("bound", "--potential", "family=subbotin alpha=4 dim=2",
      "--perturbation", "perturbation=arctan eps=inf"), "eps"),
    (("bound", "--potential", "family=subbotin alpha=4 dim=2",
      "--perturbation", "perturbation=arctan eps=1000"), "eps"),
    (("simulate", "--potential", "family=gaussian rho=1 dim=1",
      "--perturbation", "perturbation=identity", "--t", "inf", "--paths", "10"), "horizon"),
    (("verify", "--check", "martingale", "--potential", "family=gaussian rho=1 dim=1",
      "--perturbation", "perturbation=identity", "--t", "1e300", "--dt", "1e-300",
      "--paths", "10"), "horizon"),
])
def test_malformed_number_exits_one_with_manifest(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "\n" not in err.strip()
    error = json.loads(err)["error"]
    assert error.startswith("ParameterError") and token in error


def test_evaluation_error_exits_one_with_manifest(capsys):
    # psi of |x|^1000 / 1000 overflows at the radii where kappa checks its closed forms
    code, out, err = run(
        capsys, "bound",
        "--potential", "family=subbotin alpha=1000 dim=2",
        "--perturbation", "perturbation=arctan eps=0.3",
        "--method", "fk",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"].startswith("EvaluationError")


def test_eigensolve_failure_exits_one_with_manifest(capsys):
    # the d = 8 Hessian of |x|^1000 / 1000 holds nan (inf * 0) at the radii
    # the curvature search visits, and LAPACK does not converge on it
    code, out, err = run(
        capsys, "bound",
        "--potential", "family=subbotin alpha=1000 dim=8",
        "--perturbation", "perturbation=arctan eps=0.3",
    )
    assert code == 1
    assert out == ""
    error = json.loads(err.strip().splitlines()[-1])["error"]
    assert error.startswith("EvaluationError") and "did not converge" in error


def test_numpy_warnings_go_into_the_manifest(capsys):
    # the same command: numpy warns of overflow before the eigensolve fails
    code, _, err = run(
        capsys, "bound",
        "--potential", "family=subbotin alpha=1000 dim=8",
        "--perturbation", "perturbation=arctan eps=0.3",
    )
    assert code == 1
    assert err.endswith("\n") and err.count("\n") == 1
    warned = json.loads(err)["warnings"]
    assert "RuntimeWarning: overflow encountered in power" in warned
    assert len(set(warned)) == len(warned)


def test_sweep_envelope_violation_exits_one_with_manifest(capsys, monkeypatch):
    from logsob import bounds
    monkeypatch.setattr(bounds, "envelope_constant", lambda family, beta=None: 1e-9)
    code, out, err = run(capsys, "sweep", "--family", "quadric", "--dims", "1:2")
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error.startswith("EvaluationError") and "exceeds envelope" in error


@pytest.mark.parametrize("flag, argv", [
    ("--out", ("certify", "--family", "quadric", "--eps", "0.25", "--dim", "8")),
    ("--emit-paths", ("simulate", "--potential", "family=gaussian rho=1 dim=1",
                      "--perturbation", "perturbation=identity", "--t", "0.02", "--dt", "0.01",
                      "--paths", "16")),
])
def test_unwritable_output_exits_one_with_manifest(tmp_path, capsys, flag, argv):
    target = str(tmp_path / "missing" / "x.csv")
    code, out, err = run(capsys, *argv, flag, target)
    assert code == 1
    assert out == ""
    manifest = json.loads(err)
    assert manifest["error"].startswith("FileNotFoundError") and target in manifest["error"]
    assert manifest["outputs"] == []


@pytest.mark.parametrize("command, tail", [
    ("certify", ("--eps", "0.25", "--dim", "8")),
    ("sweep", ("--dims", "1:2")),
])
def test_beta_with_quadric_exits_one(capsys, command, tail):
    code, out, err = run(capsys, command, "--family", "quadric", *tail, "--beta", "0.25")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ParameterError: --beta applies only to double_well"


# --- start-up -------------------------------------------------------------------

_STARTUP_SCRIPT = textwrap.dedent("""
    import contextlib, importlib.abc, io, json, sys

    class NoScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError("no scipy: " + name)

    sys.meta_path.insert(0, NoScipy())

    import numpy as np
    import logsob
    from logsob import cli

    def run(*argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(list(argv))

    pot, ident = "family=subbotin alpha=4 dim=2", "perturbation=identity"
    lean = [
        run("certify", "--family", "quadric", "--eps", "0.25", "--dim", "8"),
        run("bound", "--potential", pot, "--perturbation", "perturbation=arctan eps=0.3"),
        run("sweep", "--family", "quadric", "--dims", "1:2"),
        run("simulate", "--potential", pot, "--perturbation", ident,
            "--t", "0.02", "--dt", "0.01", "--paths", "64", "--x0", "0,0"),
        run("verify", "--check", "martingale", "--potential", pot, "--perturbation", ident,
            "--t", "0.02", "--dt", "0.01", "--paths", "1000"),
        run("verify", "--check", "audit", "--potential", pot,
            "--perturbation", "perturbation=arctan eps=0.3", "--paths", "1000"),
        run("sample", "--potential", pot, "-n", "10", "--method", "radial"),
    ]
    p = logsob.make_custom_potential(
        2,
        value=lambda x: 0.5 * (x[..., 0] ** 2 + 2.0 * x[..., 1] ** 2),
        gradient=lambda x: np.stack([x[..., 0], 2.0 * x[..., 1]], axis=-1),
        hessian=lambda x: np.broadcast_to(np.diag([1.0, 2.0]), np.shape(x)[:-1] + (2, 2)).copy(),
    )
    rep = logsob.kappa(p, logsob.identity_perturbation(), logsob.SearchConfig(n_starts=2))
    try:
        import scipy.optimize
        blocked = False
    except ImportError:
        blocked = True
    print(json.dumps({
        "lean": lean, "kappa": [rep.method, rep.value], "blocked": blocked,
        "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    }))
""")


def test_no_command_loads_scipy():
    # a fresh process whose every scipy import fails: the suite's own
    # imports must not hide a scipy import anywhere in the package
    src = str(Path(logsob.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["lean"] == [0] * 7
    assert seen["kappa"][0] == "full_grid" and seen["kappa"][1] == pytest.approx(2.0, abs=1e-6)
    assert seen["blocked"] and seen["loaded"] == []


# --- CSV cells -----------------------------------------------------------------

def test_csv_cell_non_finite_and_non_float():
    assert [_csv_cell(v) for v in (math.nan, math.inf, -math.inf)] == ["nan", "inf", "-inf"]
    assert _csv_cell(0.1) == "0.10000000000000001"
    assert _csv_cell(-0.0) == "-0"
    assert _csv_cell(3) == "3" and _csv_cell("x") == "x"
    assert _csv_cell(True) == "true" and _csv_cell(False) == "false"
    # the row formats of --emit-paths and sample write the same cells
    row = "%d" + ",%.17g" * 4
    assert row % (7.0, 0.1, math.nan, math.inf, -math.inf) == "7,0.10000000000000001,nan,inf,-inf"


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


def _first_difference(text, expected):
    """(line number, line, expected line) of the first mismatch, or None;
    a short report where a diff of two large files would take minutes."""
    got, want = text.split("\n"), expected.split("\n")
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i, a, b
    return None if len(got) == len(want) else (min(len(got), len(want)), len(got), len(want))


def test_emitted_paths_match_per_cell_rendering(tmp_path, capsys):
    # two full chunks and a partial one
    n = 2 * EMIT_ROWS + 37
    pot, pert = "family=subbotin alpha=4 dim=3", "perturbation=arctan eps=0.3"
    out_file = tmp_path / "paths.csv"
    code, _, _ = run(capsys, "simulate", "--potential", pot, "--perturbation", pert,
                     "--t", "0.004", "--dt", "0.002", "--paths", str(n),
                     "--seed", "9", "--x0", "0.2,0,-0.1", "--emit-paths", str(out_file))
    assert code == 0
    cfg = SdeConfig(dt=0.002, horizon=0.004, n_paths=n, seed=9, x0=(0.2, 0.0, -0.1))
    batch = simulate(parse_potential(pot), parse_perturbation(pert), cfg,
                     variant="perturbed")
    j_norms = np.linalg.norm(batch.j_t, ord=2, axis=(1, 2))
    lines = ["path_id,x_t_0,x_t_1,x_t_2,log_r,j_norm"]
    for i in range(len(batch)):
        row = [str(i)] + [_csv_cell(float(v)) for v in batch.x_t[i]]
        row += [_csv_cell(float(batch.girsanov_log_weight[i])), _csv_cell(float(j_norms[i]))]
        lines.append(",".join(row))
    assert _first_difference(out_file.read_text(), "\n".join(lines) + "\n") is None


def test_simulate_deterministic_given_seed(capsys):
    argv = ["simulate", "--potential", "family=gaussian rho=1 dim=1",
            "--perturbation", "perturbation=identity",
            "--t", "0.1", "--dt", "0.01", "--paths", "64", "--seed", "3", "--x0", "1"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_main_builds_its_parser_once(monkeypatch, capsys):
    """main parses every call with one parser built once per process, and a
    call sees none of an earlier call's options."""
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        argv = ["simulate", "--potential", "family=gaussian rho=1 dim=1",
                "--perturbation", "perturbation=identity", "--t", "0.1", "--dt", "0.01",
                "--paths", "64", "--seed", "3"]
        code1, out1, _ = run(capsys, *argv, "--x0", "1")
        code2, out2, err2 = run(capsys, *argv)
        assert built == [1]
    finally:
        cli._parser.cache_clear()
    assert code1 == code2 == 0
    assert json.loads(out1)["mean_x_t"] != json.loads(out2)["mean_x_t"]
    assert "x0" not in json.loads(err2)["inputs"]


def test_simulate_without_x0_starts_at_the_origin_of_the_potential(capsys):
    argv = ["simulate", "--potential", "family=subbotin alpha=4 dim=2",
            "--perturbation", "perturbation=arctan eps=0.4",
            "--t", "0.05", "--dt", "0.01", "--paths", "64", "--seed", "3"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    code_origin, out_origin, _ = run(capsys, *argv, "--x0", "0,0")
    assert code_origin == 0
    assert out == out_origin


def test_simulate_with_every_path_divergent_exits_one(capsys):
    # every path leaves the divergence radius on its second step
    code, out, err = run(capsys, "simulate", "--potential", "family=subbotin alpha=4 dim=2",
                         "--perturbation", "perturbation=identity", "--t", "1.8", "--dt", "0.9",
                         "--paths", "50", "--seed", "43", "--x0", "50,-50")
    assert code == 1
    assert out == ""
    manifest = json.loads(err)
    assert manifest["error"] == "EstimationError: only 0 valid paths; cannot estimate"
    assert manifest["warnings"] == []


def test_simulate_with_one_path_exits_one(capsys):
    # one path has no standard error
    code, out, err = run(capsys, "simulate", "--potential", "family=gaussian rho=1 dim=1",
                         "--perturbation", "perturbation=arctan eps=0.3", "--t", "0.1",
                         "--dt", "0.01", "--paths", "1", "--seed", "3")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "EstimationError: only 1 valid paths; cannot estimate"


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


def test_verify_martingale_single_step(capsys):
    # with one step the only checkpoint is the horizon
    code, out, err = run(
        capsys, "verify", "--check", "martingale",
        "--potential", "family=subbotin alpha=4 dim=2",
        "--perturbation", "perturbation=identity",
        "--t", "1", "--dt", "1", "--paths", "100", "--seed", "5",
    )
    assert "error" not in json.loads(err)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert list(rep["details"]["means"]) == ["1.0"]


@pytest.mark.parametrize("check", ["monotone", "representation"])
def test_verify_fails_on_unreliable_estimates(capsys, check):
    # dt 0.3 is past the explicit Euler stability limit of the quartic: about
    # 1% of the paths diverge, above the 0.1% reliability threshold
    code, out, _ = run(
        capsys, "verify", "--check", check,
        "--potential", "family=subbotin alpha=4 dim=1",
        "--perturbation", "perturbation=arctan eps=0.5",
        "--t", "3", "--dt", "0.3", "--paths", "2000", "--seed", "47", "--f", "one-plus-tanh",
    )
    rep = json.loads(out)
    assert code == 1
    assert rep["passed"] is False
    [reason] = rep["details"]["flagged"]
    assert reason.startswith("more than 0.1% of the paths diverged")


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


def test_verify_representation_unknown_function_exits_one(capsys):
    code, _, err = run(
        capsys, "verify", "--check", "representation",
        "--potential", "family=gaussian rho=1 dim=1",
        "--perturbation", "perturbation=identity",
        "--f", "nosuch", "--t", "0.1", "--dt", "0.05", "--paths", "100",
    )
    assert code == 1
    assert "nosuch" in json.loads(err)["error"]


AUDIT = ("verify", "--check", "audit", "--potential", "family=subbotin alpha=4 dim=1",
         "--perturbation", "perturbation=identity", "--paths", "2000", "--seed", "3")


def test_verify_audit_ignores_the_sde_and_function_options(capsys):
    # the audit samples the measure: neither --f nor the SDE options are read,
    # so an unknown function and a dt above the horizon change nothing
    code, reference, _ = run(capsys, *AUDIT)
    assert code == 0
    code, out, err = run(capsys, *AUDIT, "--f", "nosuch", "--t", "0.5", "--dt", "1")
    assert "error" not in json.loads(err)
    assert code == 0
    assert out == reference


def test_verify_audit_on_one_sample_exits_one(capsys):
    # one sample gives every ratio 0 with stderr 0: no evidence to pass on
    code, out, err = run(capsys, "verify", "--check", "audit",
                         "--potential", "family=subbotin alpha=4 dim=1",
                         "--perturbation", "perturbation=arctan eps=0.3", "--paths", "1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "EstimationError: only 1 samples; cannot estimate"


def test_verify_martingale_ignores_the_function_option(capsys):
    argv = ("verify", "--check", "martingale", "--potential", "family=subbotin alpha=4 dim=2",
            "--perturbation", "perturbation=arctan eps=0.4", "--t", "0.1", "--dt", "0.01",
            "--paths", "2000", "--seed", "5")
    code, reference, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--f", "nosuch")
    assert code == 0
    assert out == reference


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


@pytest.mark.parametrize("method,sampler", [("radial", "radial_exact"), ("mala", "mala")])
def test_sample_csv_matches_per_cell_rendering(capsys, method, sampler):
    pot = "family=subbotin alpha=4 dim=3"
    code, out, _ = run(capsys, "sample", "--potential", pot, "-n", "300",
                       "--method", method, "--seed", "4")
    assert code == 0
    points = sample_measure(parse_potential(pot), 300, method=sampler, seed=4)
    lines = ["x_0,x_1,x_2"] + [",".join(_csv_cell(float(v)) for v in row) for row in points]
    assert out == "\n".join(lines) + "\n"


def test_sample_mala_with_chains_that_never_move_exits_one(capsys):
    code, out, err = run(capsys, "sample", "--potential", "family=subbotin alpha=8 dim=8",
                         "-n", "640", "--method", "mala", "--seed", "1")
    assert code == 1
    assert out == ""
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["error"].startswith(
        "EstimationError: 6 of 64 MALA chains accepted no proposal")


def test_sample_subbotin_with_large_alpha_exits_zero(capsys):
    # |x|^1000 overflows inside the first radial grid: V = inf there is a decayed tail
    code, out, _ = run(capsys, "sample", "--potential", "family=subbotin alpha=1000 dim=1",
                       "-n", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x_0" and len(lines) == 11
    assert all(abs(float(v)) <= 1.02 for v in lines[1:])


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
