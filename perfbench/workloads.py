"""The benchmark's workloads: seeded inputs, operations and output checks.

Every input the library sees is generated here from the workload seed:
the ``SdeConfig`` and sampler seeds, and the certification cells.  Sizes
below are the run-length levers; they were chosen so that one pass takes a
few seconds on a 2-CPU machine while every operation still runs the code
path it is meant to load.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from harness import Op, check

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

# SDE operations run two full 65,536-path blocks, so both workers of the
# 2-worker pool get a full block.
SDE_BLOCKS = 2
# (dt, horizon) per SDE configuration.  The martingale check has no
# allowance for the Euler bias of E[R_t], so its dt keeps that bias well
# below one standard error at 131,072 paths.
REP_OU = (0.01, 0.1)
REP_QUARTIC = (0.01, 0.25)
SIM_D8 = (0.002, 0.01)
MARTINGALE = (0.0005, 0.02)
MONOTONE = (0.01, 0.5)

QUADRIC_KAPPA_DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64)
DOUBLE_WELL_KAPPA_DIMS = (1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 28, 32)
CRITERION4_BETAS = tuple(float(b) for b in np.arange(0.05, 0.4501, 0.05))
MULTISTART_DIMS = (2, 3)
MULTISTART_STARTS = 4
MULTISTART_EPS = 0.3
AUDIT_SAMPLES = 5_000
ENTROPY_SAMPLES = 100_000
ENTROPY_THETA = 0.8
SAMPLE_RADIAL_N = 20_000
SAMPLE_MALA_N = 10_000


@dataclass
class Workload:
    name: str
    why: str
    build: Callable  # (logsob, seed, scratch) -> list of Op
    thread_speedup: Optional[Callable] = None  # (logsob, seed) -> float


def num(x) -> str:
    """Exact text form of a float for the command line."""
    return repr(float(x))


def eps_quadric(d: int) -> float:
    """Optimal arctan eps for the quartic potential in dimension d."""
    return 8.0 / (3.0 * SQ3 * (d + 1))


def quadric_bound(d: int) -> float:
    """Closed form of the optimized quadric bound (criterion 3)."""
    return (3 * SQ3 * (d + 1) / (2 * d)) * math.exp(2 * math.pi / (3 * SQ3 * (d + 1)))


def double_well_bound(d: int, beta: float) -> float:
    eps = 2.0 / (d + 1)
    return 4.0 * math.exp(eps * math.pi / 4.0) / (2.0 * d / (d + 1) - 2.0 * beta)


QUADRIC_ENVELOPE = 3.0 * math.e * SQ3


def double_well_envelope(beta: float) -> float:
    return 4.0 * math.e / (1.0 - 2.0 * beta)


def rel_err(value, target) -> float:
    return abs(float(value) - target) / abs(target)


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _ok_cli(result, what):
    code, out, _ = result
    check(code == 0, f"{what}: exit code {code}")
    return out


def _json_cli(result, what):
    return json.loads(_ok_cli(result, what))


def _batch(metric, calls):
    """An operation made of several CLI calls timed as one."""

    def run(ctx):
        return [ctx.cli(argv) for argv, _ in calls]

    def verify(results):
        for (argv, check_one), res in zip(calls, results):
            check_one(res, " ".join(str(a) for a in argv[:3]))
        return "\n".join(out for _, out, _ in results).encode()

    return Op(metric, run, verify)


# --- certify-audit -----------------------------------------------------------------


def _certify_calls(rng):
    calls = []

    def expect(verdict, kappa=None):
        def verify(res, what):
            out = _json_cli(res, what)
            check(out["verdict"] is verdict, f"{what}: verdict {out['verdict']}, expected {verdict}")
            if kappa is not None:
                check(abs(out["kappa"] - kappa) <= 1e-8, f"{what}: kappa {out['kappa']} != {kappa}")
        return verify

    # g(t) decreases in eps for t >= 0 and is nonnegative at the optimal eps
    # (criterion 2), so every eps below it certifies with kappa = eps d
    for d in rng.integers(1, 65, size=5):
        eps = rng.uniform(0.3, 1.0) * eps_quadric(int(d))
        calls.append((["certify", "--family", "quadric", "--eps", num(eps), "--dim", int(d)],
                      expect(True, eps * int(d))))
    # over-eps negative control: g(0) = 2 - eps^2 < 0
    calls.append((["certify", "--family", "quadric", "--eps", num(rng.uniform(SQ2 + 0.01, 2.0)),
                   "--dim", 1], expect(False)))
    # double well, d >= 2: nonnegative at beta = 0 for eps in [0.6, 1] * 2/(d+1),
    # g grows with beta, and eps > 2 beta / d holds for beta < 0.4
    for _ in range(4):
        d = int(rng.integers(2, 33))
        beta = rng.uniform(0.05, 0.3)
        eps = rng.uniform(0.6, 1.0) * 2.0 / (d + 1)
        calls.append((["certify", "--family", "double_well", "--eps", num(eps), "--dim", d,
                       "--beta", num(beta)], expect(True, eps * d - 2.0 * beta)))
    # negative control: eps <= 2 beta / d leaves kappa at t = 0 non-positive
    d = int(rng.integers(1, 33))
    beta = rng.uniform(0.2, 0.45)
    eps = rng.uniform(0.2, 0.9) * 2.0 * beta / d
    calls.append((["certify", "--family", "double_well", "--eps", num(eps), "--dim", d,
                   "--beta", num(beta)], expect(False)))
    return calls


def _bound_calls(rng):
    calls = []

    def expect(constant, envelope=None):
        def verify(res, what):
            reports = {r["method"]: r for r in _json_cli(res, what)}
            fk, be = reports["feynman_kac"], reports["bakry_emery"]
            check(fk["valid"] is True, f"{what}: feynman_kac bound invalid")
            check(rel_err(fk["constant"], constant) <= 1e-7,
                  f"{what}: fk constant {fk['constant']} != {constant}")
            if envelope is not None:
                check(fk["constant"] <= envelope * (1 + 1e-12), f"{what}: fk constant above envelope")
            check(be["valid"] is False, f"{what}: Bakry-Emery must be invalid without convexity")
        return verify

    for d in (1, 2, 8):
        eps = rng.uniform(0.5, 1.0) * eps_quadric(d)
        calls.append((["bound", "--potential", f"family=subbotin alpha=4 dim={d}",
                       "--perturbation", f"perturbation=arctan eps={num(eps)}", "--method", "all"],
                      expect(4.0 * math.exp(eps * math.pi / 4.0) / (eps * d))))
    for d in (1, 2, 8):
        beta = rng.uniform(0.05, 0.45)
        calls.append((["bound", "--potential", f"family=double_well beta={num(beta)} dim={d}",
                       "--perturbation", f"perturbation=arctan eps={num(2.0 / (d + 1))}",
                       "--method", "all"],
                      expect(double_well_bound(d, beta), double_well_envelope(beta))))
    return calls


def _sweep_calls(rng):
    def expect(dims, closed, kappa, envelope):
        def verify(res, what):
            lines = _ok_cli(res, what).strip().splitlines()
            check(lines[0] == "d,eps,kappa,bound,envelope,valid,certified", f"{what}: header")
            rows = [line.split(",") for line in lines[1:]]
            check([int(r[0]) for r in rows] == list(dims), f"{what}: dimensions")
            for r in rows:
                d, bound = int(r[0]), float(r[3])
                check(r[5] == "true", f"{what}: d={d} invalid")
                check(rel_err(bound, closed(d)) <= 1e-12, f"{what}: d={d} bound {bound} != {closed(d)}")
                check(abs(float(r[2]) - kappa(d)) <= 1e-12, f"{what}: d={d} kappa {r[2]}")
                check(bound <= envelope * (1 + 1e-12), f"{what}: d={d} bound above envelope")
        return verify

    beta = float(rng.uniform(0.05, 0.45))
    return [
        (["sweep", "--family", "quadric", "--dims", "1:64"],
         expect(range(1, 65), quadric_bound, lambda d: eps_quadric(d) * d, QUADRIC_ENVELOPE)),
        (["sweep", "--family", "double_well", "--dims", "1:32", "--beta", num(beta)],
         expect(range(1, 33), lambda d: double_well_bound(d, beta),
                lambda d: 2.0 * d / (d + 1) - 2.0 * beta, double_well_envelope(beta))),
    ]


def _kappa_radial(logsob, rng):
    make, arctan = logsob.potentials.make_potential, logsob.perturbations.arctan_perturbation
    cells = []
    for d in QUADRIC_KAPPA_DIMS:
        eps = rng.uniform(0.5, 1.0) * eps_quadric(d)
        cells.append((make("subbotin", d, alpha=4.0), arctan(eps), eps * d))
    for d in DOUBLE_WELL_KAPPA_DIMS:
        beta = CRITERION4_BETAS[int(rng.integers(len(CRITERION4_BETAS)))]
        cells.append((make("double_well", d, beta=beta), arctan(2.0 / (d + 1)),
                      2.0 * d / (d + 1) - 2.0 * beta))

    def run(ctx):
        return [ctx.logsob.curvature.kappa(ctx.potential(p), ctx.perturbation(a)).value
                for p, a, _ in cells]

    def verify(values):
        for (p, _, target), v in zip(cells, values):
            check(abs(v - target) <= 1e-8,
                  f"kappa {p.family} d={p.dim}: {v} != {target}")
        return repr(values).encode()

    return Op("kappa_radial_s", run, verify)


def _anisotropic_quartic(logsob, d):
    """V = x^T A x / 2 + sum x_i^4 / 4 with A = diag(linspace(1, 2, d)): not radial."""
    diag = np.linspace(1.0, 2.0, d)
    idx = np.arange(d)

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(diag * x * x, axis=-1) + 0.25 * np.sum(x**4, axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return diag * x + x**3

    def hessian(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (d,))
        out[..., idx, idx] = diag + 3.0 * x * x
        return out

    return logsob.potentials.make_custom_potential(d, value, gradient, hessian)


def _kappa_multistart(logsob):
    a = logsob.perturbations.arctan_perturbation(MULTISTART_EPS)
    cfg = logsob.curvature.SearchConfig(n_starts=MULTISTART_STARTS)
    # at the origin hess V = A and psi_a = eps d, so kappa(0) = 2 + eps d
    cases = [(_anisotropic_quartic(logsob, d), 2.0 + MULTISTART_EPS * d) for d in MULTISTART_DIMS]

    def run(ctx):
        return [ctx.logsob.curvature.kappa(ctx.potential(p), ctx.perturbation(a), cfg)
                for p, _ in cases]

    def verify(reports):
        for (p, at_origin), rep in zip(cases, reports):
            check(rep.method == "full_grid", f"multistart d={p.dim}: method {rep.method}")
            check(math.isfinite(rep.value), f"multistart d={p.dim}: kappa {rep.value}")
            check(rep.value <= at_origin + 1e-12,
                  f"multistart d={p.dim}: kappa {rep.value} above its value {at_origin} at 0")
        return repr([(r.value, np.asarray(r.argmin).tolist()) for r in reports]).encode()

    return Op("kappa_multistart_s", run, verify)


def _audit_calls(seed):
    cases = [("family=subbotin alpha=4 dim=1", quadric_bound(1), QUADRIC_ENVELOPE),
             ("family=subbotin alpha=4 dim=2", quadric_bound(2), QUADRIC_ENVELOPE),
             ("family=double_well beta=0.25 dim=1", double_well_bound(1, 0.25),
              double_well_envelope(0.25))]

    def expect(constant, envelope):
        def verify(res, what):
            rep = _json_cli(res, what)
            check(rep["passed"] is True, f"{what}: audit did not pass")
            check(rel_err(rep["rhs"], constant) <= 1e-12, f"{what}: bound {rep['rhs']} != {constant}")
            check(rep["rhs"] <= envelope * (1 + 1e-12), f"{what}: bound above envelope")
        return verify

    return [(["verify", "--check", "audit", "--potential", spec,
              "--perturbation", "perturbation=identity",
              "--paths", AUDIT_SAMPLES, "--seed", seed], expect(c, env))
            for spec, c, env in cases]


def _entropy_ratio(logsob, seed):
    g = logsob.potentials.make_potential("gaussian", 1, rho=1.0)
    samples = logsob.verify.sample_measure(g, ENTROPY_SAMPLES, method="radial_exact", seed=seed)
    theta = ENTROPY_THETA
    f = logsob.sde.SmoothFunction(
        "tilt",
        value=lambda x: np.exp(0.5 * theta * x[..., 0]),
        gradient=lambda x: 0.5 * theta * np.exp(0.5 * theta * x[..., 0])[..., None],
    )

    def run(ctx):
        return ctx.logsob.verify.entropy_ratio(ctx.potential(g), f, samples, seed=seed)

    def verify(est):
        check(1.9 <= est.ratio <= 2.1, f"gaussian entropy ratio {est.ratio} outside [1.9, 2.1]")
        return repr((est.ratio, est.ratio_stderr)).encode()

    return Op("entropy_ratio_s", run, verify)


def _sample_calls(seed):
    def expect(n, dim):
        def verify(res, what):
            lines = _ok_cli(res, what).strip().splitlines()
            check(lines[0] == ",".join(f"x_{i}" for i in range(dim)), f"{what}: header")
            check(len(lines) == n + 1, f"{what}: {len(lines) - 1} rows, expected {n}")
            points = np.array([line.split(",") for line in lines[1:]], dtype=float)
            check(points.shape == (n, dim) and np.all(np.isfinite(points)), f"{what}: bad points")
        return verify

    spec = "family=double_well beta=0.25 dim=2"
    return [(["sample", "--potential", spec, "-n", SAMPLE_RADIAL_N, "--method", "radial",
              "--seed", seed], expect(SAMPLE_RADIAL_N, 2)),
            (["sample", "--potential", spec, "-n", SAMPLE_MALA_N, "--method", "mala",
              "--seed", seed], expect(SAMPLE_MALA_N, 2))]


def build_certify_audit(logsob, seed, scratch):
    rng = np.random.default_rng(seed)
    s_audit, s_entropy, s_sample = _seeds(rng, 3)
    return [_batch("cli_certify_batch_s",
                   _bound_calls(rng) + _certify_calls(rng) + _sweep_calls(rng)),
            _kappa_radial(logsob, rng),
            _kappa_multistart(logsob),
            _batch("audit_s", _audit_calls(s_audit)),
            _entropy_ratio(logsob, s_entropy),
            _batch("sample_s", _sample_calls(s_sample))]


# --- Monte Carlo workloads -----------------------------------------------------------


def _n_paths(logsob):
    return SDE_BLOCKS * logsob.rng.BLOCK_PATHS


def _steps(logsob, dt_horizon):
    dt, horizon = dt_horizon
    return logsob.sde.SdeConfig(dt=dt, horizon=horizon, n_paths=1, seed=0, x0=(0.0,)).n_steps


def _representation(logsob, seeds):
    make, arctan = logsob.potentials.make_potential, logsob.perturbations.arctan_perturbation
    SdeConfig, SmoothFunction = logsob.sde.SdeConfig, logsob.sde.SmoothFunction
    n = _n_paths(logsob)
    v = np.array([0.8, -0.6])
    linear = SmoothFunction("linear", value=lambda x: x @ v,
                            gradient=lambda x: np.broadcast_to(v, x.shape).copy())
    tanh = SmoothFunction("tanh", value=lambda x: np.tanh(x[..., 0]),
                          gradient=lambda x: (1.0 / np.cosh(x[..., 0]) ** 2)[..., None])
    dt, horizon = REP_OU
    ou = (make("gaussian", 2, rho=1.0), arctan(0.3), linear,
          SdeConfig(dt=dt, horizon=horizon, n_paths=n, seed=seeds[0], x0=(0.0, 0.0)))
    dt, horizon = REP_QUARTIC
    quartic = (make("subbotin", 1, alpha=4.0), arctan(0.5), tanh,
               SdeConfig(dt=dt, horizon=horizon, n_paths=n, seed=seeds[1], x0=(0.3,)))
    cases = (ou, quartic)

    def run(ctx):
        return [ctx.logsob.verify.representation_check(ctx.potential(p), ctx.perturbation(a), f, cfg)
                for p, a, f, cfg in cases]

    def verify(reports):
        for (p, _, _, cfg), rep in zip(cases, reports):
            check(rep.passed, f"representation {p.family} d={p.dim}: {rep.details['pairwise']}")
        # Ornstein-Uhlenbeck anchor: every estimator near e^{-T} v
        rep, cfg = reports[0], ou[3]
        target = math.exp(-cfg.horizon) * v
        for est, se in ((rep.lhs, rep.lhs_stderr), (rep.rhs, rep.rhs_stderr),
                        (rep.details["fd_estimate"], rep.details["fd_stderr"])):
            check(np.all(np.abs(est - target) <= 3 * se + 5 * cfg.dt_eff),
                  f"OU gradient {est} not within 3 se + 5 dt of {target}")
        return b"".join(np.asarray(x).tobytes() for r in reports
                        for x in (r.lhs, r.rhs, r.details["fd_estimate"]))

    steps = sum((2 + 2 * p.dim) * cfg.n_paths * cfg.n_steps for p, _, _, cfg in cases)
    return Op("representation_s", run, verify, path_steps=steps)


def _simulate_argv(logsob, seed):
    dt, horizon = SIM_D8
    return ["simulate", "--potential", "family=subbotin alpha=4 dim=8",
            "--perturbation", "perturbation=arctan eps=0.3", "--t", num(horizon), "--dt", num(dt),
            "--paths", _n_paths(logsob), "--seed", seed, "--x0", ",".join(["0"] * 8)]


def _check_summary(logsob, out, what):
    summary = json.loads(out)
    check(summary["n_paths"] == _n_paths(logsob), f"{what}: n_paths {summary['n_paths']}")
    check(summary["n_steps"] == _steps(logsob, SIM_D8), f"{what}: n_steps {summary['n_steps']}")
    check(summary["n_divergent"] == 0, f"{what}: {summary['n_divergent']} divergent paths")
    check(math.isfinite(summary["mean_weight"]), f"{what}: mean weight {summary['mean_weight']}")


def _simulate_emit(logsob, seed, scratch):
    path = scratch / "paths.csv"
    argv = _simulate_argv(logsob, seed) + ["--emit-paths", str(path)]
    n = _n_paths(logsob)

    def run(ctx):
        return ctx.cli(argv, files=(path,))

    def verify(res):
        out = _ok_cli(res, "simulate --emit-paths")
        _check_summary(logsob, out, "simulate --emit-paths")
        # streamed, so the check adds little to the process's peak memory
        digest = hashlib.sha256(out.encode())
        header = ",".join(["path_id"] + [f"x_t_{i}" for i in range(8)] + ["log_r", "j_norm"])
        j_norm = []
        with open(path, "rb") as fh:
            first = fh.readline()
            digest.update(first)
            for line in fh:
                digest.update(line)
                j_norm.append(line.rsplit(b",", 1)[1])
        path.unlink()
        check(first.decode().rstrip("\n") == header, "emitted CSV header")
        check(len(j_norm) == n, f"emitted CSV has {len(j_norm)} rows, expected {n}")
        values = np.array(j_norm, dtype=float)
        check(np.all(np.isfinite(values) & (values > 0)), "emitted j_norm not finite and positive")
        return digest.digest()

    steps = n * _steps(logsob, SIM_D8)
    return Op("simulate_emit_s", run, verify, path_steps=steps)


def _simulate_plain(logsob, seed):
    argv = _simulate_argv(logsob, seed)

    def run(ctx):
        return ctx.cli(argv)

    def verify(res):
        out = _ok_cli(res, "simulate")
        _check_summary(logsob, out, "simulate")
        return out.encode()

    return Op("simulate_s", run, verify, path_steps=_n_paths(logsob) * _steps(logsob, SIM_D8))


def _verify_cli(logsob, metric, check_name, potential, perturbation, dt_horizon, seed,
                sims, extra=()):
    dt, horizon = dt_horizon
    argv = ["verify", "--check", check_name, "--potential", potential,
            "--perturbation", perturbation, "--t", num(horizon), "--dt", num(dt),
            "--paths", _n_paths(logsob), "--seed", seed, *extra]

    def run(ctx):
        return ctx.cli(argv)

    def verify(res):
        rep = _json_cli(res, f"verify --check {check_name}")
        check(rep["passed"] is True, f"{check_name} check did not pass")
        return _ok_cli(res, check_name).encode()

    steps = sims * _n_paths(logsob) * _steps(logsob, dt_horizon)
    return Op(metric, run, verify, path_steps=steps)


def build_mc_tangent(logsob, seed, scratch):
    rng = np.random.default_rng(seed)
    s_rep_ou, s_rep_quartic, s_sim = _seeds(rng, 3)
    return [_representation(logsob, (s_rep_ou, s_rep_quartic)),
            _simulate_emit(logsob, s_sim, scratch)]


def build_mc_weights(logsob, seed, scratch):
    rng = np.random.default_rng(seed)
    s_mart, s_mono, s_sim = _seeds(rng, 3)
    return [
        _verify_cli(logsob, "martingale_s", "martingale", "family=subbotin alpha=4 dim=2",
                    "perturbation=arctan eps=0.4", MARTINGALE, s_mart, sims=1),
        _verify_cli(logsob, "monotone_s", "monotone", "family=subbotin alpha=4 dim=1",
                    "perturbation=arctan eps=0.5", MONOTONE, s_mono, sims=2,
                    extra=("--f", "one-plus-tanh")),
        _simulate_plain(logsob, s_sim),
    ]


def d8_thread_speedup(logsob, seed):
    """Wall time of the d=8 simulation at LOGSOB_THREADS workers over 1 worker."""
    dt, horizon = SIM_D8
    p = logsob.potentials.make_potential("subbotin", 8, alpha=4.0)
    a = logsob.perturbations.arctan_perturbation(0.3)
    cfg = logsob.sde.SdeConfig(dt=dt, horizon=horizon, n_paths=_n_paths(logsob), seed=seed,
                               x0=(0.0,) * 8)
    times = {}
    for workers in (1, int(os.environ["LOGSOB_THREADS"])):
        t0 = time.perf_counter()
        logsob.sde.simulate(p, a, cfg, variant="perturbed", max_workers=workers)
        times[workers] = time.perf_counter() - t0
    return times[1] / times[max(times)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "certify-audit",
            "certified constants, then their audit; loads curvature (certificate, radial and "
            "multistart kappa), bounds, potentials, perturbations, verify samplers and "
            "bootstrap, cli; never sde or rng",
            build_certify_audit),
        Workload(
            "mc-tangent",
            "SDE paths whose caller reads the tangent flow J (representation check, simulate "
            "--emit-paths); loads sde (Hessian build, J update), rng, potentials, "
            "perturbations, verify, cli",
            build_mc_tangent, d8_thread_speedup),
        Workload(
            "mc-weights",
            "the same SDE layer where no caller reads J (martingale, monotone, simulate), so "
            "all tangent-flow work is wasted; loads sde, rng, potentials, perturbations, "
            "verify, cli",
            build_mc_weights, d8_thread_speedup),
    )
}
