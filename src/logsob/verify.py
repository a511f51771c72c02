"""Statistical verification harness.

Checks the probabilistic identities behind the curvature bounds by
simulation, samples the Gibbs measure exactly or by MALA, and audits
certified constants against empirical entropy/energy ratios.

Tolerances follow one model throughout: two estimates agree when their
difference is within k * sigma_combined + c * dt componentwise, where
sigma_combined is the root-sum-square of the standard errors, k covers
the Monte Carlo noise and c * dt allows for the first-order
discretization bias of the Euler scheme.  k = K_SIGMA = 3 and
c = C_DT = 5 are constants of the module, not defaults; checks without a
discretization allowance record c = 0.  Every report records k, c, the
sample sizes and the seed.

The audit direction is one-sided by construction: a sampled ratio below
the bound never proves the bound, a ratio above it (beyond noise)
falsifies it.  Reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import cumulative_simpson

from . import rng
from .bounds import BoundReport
from .errors import EstimationError, ParameterError, PreconditionError
from .perturbations import Perturbation, check_G
from .potentials import Potential
from .sde import (
    SdeConfig,
    SmoothFunction,
    estimate_expectation,
    estimate_fk_gradient,
    estimate_gradient_fd,
    payoff_tangent_gradient,
    payoff_terminal,
    simulate,
)

# k and c of the tolerance model described above
K_SIGMA = 3.0
C_DT = 5.0


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    lhs_stderr: np.ndarray
    rhs_stderr: np.ndarray
    tolerance_model: str
    k: float
    c_dt: float
    passed: bool
    n_paths: int
    dt: float
    seed: int
    details: dict


@dataclass(frozen=True)
class EntropyEstimate:
    entropy: float
    dirichlet: float
    ratio: float
    entropy_stderr: float
    dirichlet_stderr: float
    ratio_stderr: float
    n_samples: int
    degenerate: bool


def _within(lhs, rhs, se_l, se_r, dt):
    tol = K_SIGMA * np.sqrt(np.asarray(se_l) ** 2 + np.asarray(se_r) ** 2) + C_DT * dt
    return bool(np.all(np.abs(np.asarray(lhs) - np.asarray(rhs)) <= tol))


def representation_check(p: Potential, a: Perturbation, f: SmoothFunction,
                         cfg: SdeConfig) -> CheckReport:
    """Three estimators of grad E[f(X_T^x)] at x = x0 must agree pairwise:

    (i)   E[J grad f(X_T)] on plain paths,
    (ii)  E[R J grad f(X_T)] on perturbed paths,
    (iii) central differences in the initial condition with common
          random numbers (the model-free oracle).
    """
    g = check_G(a, dim=p.dim)
    if not g.satisfied:
        raise PreconditionError("(G)", f"perturbation violates (G): {g.detail}")
    est_plain = estimate_expectation(p, a, cfg, payoff_tangent_gradient(f), variant="plain")
    est_pert = estimate_fk_gradient(p, a, f, cfg)
    est_fd = estimate_gradient_fd(p, cfg, f)
    dt = cfg.dt_eff
    pairs = {
        "plain_vs_perturbed": (est_plain, est_pert),
        "plain_vs_fd": (est_plain, est_fd),
        "perturbed_vs_fd": (est_pert, est_fd),
    }
    verdicts = {
        name: _within(e1.mean, e2.mean, e1.std_error, e2.std_error, dt)
        for name, (e1, e2) in pairs.items()
    }
    return CheckReport(
        name="representation",
        lhs=est_plain.mean, rhs=est_pert.mean,
        lhs_stderr=est_plain.std_error, rhs_stderr=est_pert.std_error,
        tolerance_model=(f"|lhs - rhs| <= {K_SIGMA:g} * sigma_combined + {C_DT:g} * dt "
                         "componentwise"),
        k=K_SIGMA, c_dt=C_DT,
        passed=all(verdicts.values()),
        n_paths=cfg.n_paths, dt=dt, seed=cfg.seed,
        details={
            "fd_estimate": est_fd.mean,
            "fd_stderr": est_fd.std_error,
            "pairwise": verdicts,
            "f": f.name,
        },
    )


def martingale_check(p: Potential, a: Perturbation, cfg: SdeConfig,
                     checkpoints: Sequence[float]) -> CheckReport:
    """E[R_t] = 1 within K_SIGMA standard errors at every checkpoint time."""
    g = check_G(a, dim=p.dim)
    if not g.satisfied:
        raise PreconditionError("(G)", f"perturbation violates (G): {g.detail}")
    batch = simulate(p, a, cfg, variant="perturbed", checkpoint_times=checkpoints,
                     tangent=False)
    valid = ~batch.divergent
    if int(valid.sum()) < 2:
        raise EstimationError("too few valid paths")
    means, ses, ok = {}, {}, True
    for t in sorted(batch.checkpoint_log_weights):
        r = np.exp(batch.checkpoint_log_weights[t][valid])
        means[t] = float(np.mean(r))
        ses[t] = float(np.std(r, ddof=1) / math.sqrt(r.size))
        ok = ok and abs(means[t] - 1.0) <= K_SIGMA * ses[t]
    last = sorted(means)[-1]
    return CheckReport(
        name="martingale",
        lhs=np.asarray(means[last]), rhs=np.asarray(1.0),
        lhs_stderr=np.asarray(ses[last]), rhs_stderr=np.asarray(0.0),
        tolerance_model=f"|mean(R_t) - 1| <= {K_SIGMA:g} * stderr at each checkpoint",
        k=K_SIGMA, c_dt=0.0, passed=bool(ok),
        n_paths=cfg.n_paths, dt=cfg.dt_eff, seed=cfg.seed,
        details={"means": means, "stderrs": ses, "n_divergent": batch.n_divergent},
    )


def _grid_nondecreasing(fn, lo, hi):
    grid = np.linspace(lo, hi, 1000)[:, None]
    vals = np.asarray(fn(grid), dtype=float)
    return bool(np.all(np.diff(vals) >= -1e-12)), grid, vals


def monotone_comparison(p: Potential, a: Perturbation, f: SmoothFunction,
                        cfg: SdeConfig) -> CheckReport:
    """One-sided comparison E[f(X_{T,a})] <= E[f(X_T)] for non-decreasing
    positive f in dimension one."""
    if p.dim != 1 or cfg.dim != 1:
        raise PreconditionError("d=1 restriction", "monotone comparison supports d = 1 only")
    span = max(4.0, abs(cfg.x0[0]) + 4.0)
    f_ok, grid, fvals = _grid_nondecreasing(f.value, -span, span)
    if not f_ok:
        raise PreconditionError("f non-decreasing", "test function decreases on the probe grid")
    if np.any(fvals <= 0):
        raise PreconditionError("f > 0", "test function is not positive on the probe grid")
    a_note = ""
    if a.family != "identity":
        if a.nondecreasing_radial:
            # symmetric radial profile: non-decreasing in |x|, flagged rather
            # than rejected (the comparison is still checked, not assumed)
            a_note = "a is non-decreasing in |x| (radial family); pointwise monotonicity waived"
        else:
            a_ok, _, _ = _grid_nondecreasing(a.value, -span, span)
            if not a_ok:
                raise PreconditionError("a non-decreasing",
                                        "perturbation decreases on the probe grid")
    lhs = estimate_expectation(p, a, cfg, payoff_terminal(f), variant="perturbed",
                               tangent=False)
    rhs = estimate_expectation(p, a, cfg, payoff_terminal(f), variant="plain", tangent=False)
    sigma = math.sqrt(float(lhs.std_error) ** 2 + float(rhs.std_error) ** 2)
    passed = float(lhs.mean) <= float(rhs.mean) + K_SIGMA * sigma
    return CheckReport(
        name="monotone_comparison",
        lhs=lhs.mean, rhs=rhs.mean,
        lhs_stderr=lhs.std_error, rhs_stderr=rhs.std_error,
        tolerance_model=f"one-sided: lhs <= rhs + {K_SIGMA:g} * sigma_combined",
        k=K_SIGMA, c_dt=0.0, passed=bool(passed),
        n_paths=cfg.n_paths, dt=cfg.dt_eff, seed=cfg.seed,
        details={"f": f.name, "note": a_note},
    )


# --- sampling from the Gibbs measure -------------------------------------------


def sample_measure(p: Potential, n: int, method: str = "radial_exact",
                   seed: int = 0) -> np.ndarray:
    """Draw n points from the measure with density proportional to exp(-V)."""
    if n < 1:
        raise ParameterError("n must be positive")
    if method == "radial_exact":
        if not p.is_radial:
            raise PreconditionError("is_radial", "radial_exact requires a radial potential")
        return _sample_radial_exact(p, n, seed)
    if method == "mala":
        return _sample_mala(p, n, seed)
    raise ParameterError("method must be radial_exact or mala")


_RADIAL_NODES = 2**14
# MALA: parallel chains, adaptation steps before collection, steps between
# collected states, and the acceptance rate the step size adapts toward
MALA_CHAINS = 64
MALA_BURN_IN = 10_000
MALA_THINNING = 10
MALA_TARGET_ACCEPTANCE = 0.574


def _radial_log_density(p: Potential, r: np.ndarray) -> np.ndarray:
    x = np.zeros((r.size, p.dim))
    x[:, 0] = r
    v = np.asarray(p.value(x), dtype=float)
    if p.dim == 1:
        return -v
    with np.errstate(divide="ignore"):
        return (p.dim - 1) * np.log(r) - v  # -inf at r = 0: zero density there


def _sample_radial_exact(p: Potential, n: int, seed: int) -> np.ndarray:
    # locate r_max with negligible tail mass: double until the integrand has
    # fallen 60 e-folds below its peak and keeps decaying
    r_max = 4.0
    for _ in range(60):
        r = np.linspace(0.0, r_max, 1025)
        logd = _radial_log_density(p, r)
        peak = np.max(logd)
        if logd[-1] < peak - 60.0 and logd[-1] < logd[-2]:
            break
        r_max *= 2.0
    else:
        raise EstimationError("radial density tail does not decay; non-normalizable")

    r = np.linspace(0.0, r_max, _RADIAL_NODES + 1)
    logd = _radial_log_density(p, r)
    dens = np.exp(logd - np.max(logd))
    cdf = cumulative_simpson(dens, x=r, initial=0.0)
    total = cdf[-1]
    if not (np.isfinite(total) and total > 0):
        raise EstimationError("radial density is not normalizable on the grid")
    # crude tail bound: decay is at least exponential past r_max with the
    # last local rate, so mass beyond the grid is below dens[-1] / rate
    rate = max((logd[-2] - logd[-1]) / (r[-1] - r[-2]), 1e-3)
    if dens[-1] / rate > 1e-12 * total:
        raise EstimationError("tail mass beyond the radial grid exceeds 1e-12")
    cdf = cdf / total

    gen = rng.stream(seed, rng.TAG_SAMPLER)
    u = gen.random(n)
    radii = np.interp(u, cdf, r)
    if p.dim == 1:
        signs = np.where(gen.random(n) < 0.5, -1.0, 1.0)
        return (radii * signs)[:, None]
    dirs = gen.standard_normal((n, p.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


def _sample_mala(p: Potential, n: int, seed: int) -> np.ndarray:
    """Metropolis-adjusted Langevin targeting exp(-V).

    Proposal x' = x - tau grad V(x) + sqrt(2 tau) xi; the step tau adapts
    toward the target acceptance during burn-in and is frozen afterwards.
    """
    gen = rng.stream(seed, rng.TAG_MALA)
    d = p.dim
    x = gen.standard_normal((MALA_CHAINS, d)) * 0.5
    v = np.asarray(p.value(x), dtype=float)
    g = np.asarray(p.gradient(x), dtype=float)
    log_tau = math.log(0.1)
    per_chain = -(-n // MALA_CHAINS)  # ceil
    out = np.empty((per_chain * MALA_CHAINS, d))
    collected = 0
    total_steps = MALA_BURN_IN + per_chain * MALA_THINNING
    for step in range(total_steps):
        tau = math.exp(log_tau)
        xi = gen.standard_normal((MALA_CHAINS, d))
        prop = x - tau * g + math.sqrt(2.0 * tau) * xi
        v_prop = np.asarray(p.value(prop), dtype=float)
        g_prop = np.asarray(p.gradient(prop), dtype=float)
        fwd = np.sum((prop - x + tau * g) ** 2, axis=1)
        bwd = np.sum((x - prop + tau * g_prop) ** 2, axis=1)
        log_alpha = v - v_prop + (fwd - bwd) / (4.0 * tau)
        accept = np.log(gen.random(MALA_CHAINS)) < log_alpha
        x = np.where(accept[:, None], prop, x)
        v = np.where(accept, v_prop, v)
        g = np.where(accept[:, None], g_prop, g)
        if step < MALA_BURN_IN:
            rate = float(np.mean(accept))
            log_tau += (rate - MALA_TARGET_ACCEPTANCE) / math.sqrt(1.0 + step)
        elif (step - MALA_BURN_IN + 1) % MALA_THINNING == 0:
            out[collected:collected + MALA_CHAINS] = x
            collected += MALA_CHAINS
    return out[:n]


# --- entropy / energy ratios -----------------------------------------------------


def entropy_ratio(p: Potential, f: SmoothFunction, samples: np.ndarray,
                  n_bootstrap: int = 200, seed: int = 0) -> EntropyEstimate:
    """Plug-in estimate of Ent(f^2) / int |grad f|^2 over the sample cloud."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    fv = np.asarray(f.value(samples), dtype=float)
    g = fv * fv
    with np.errstate(divide="ignore", invalid="ignore"):
        glg = np.where(g > 0, g * np.log(np.where(g > 0, g, 1.0)), 0.0)
    grad = np.asarray(f.gradient(samples), dtype=float)
    energy = np.sum(grad * grad, axis=-1)

    def plug_in(idx):
        mg = float(np.mean(g[idx]))
        ent = float(np.mean(glg[idx])) - mg * math.log(mg)
        dir_ = float(np.mean(energy[idx]))
        return ent, dir_

    full_idx = np.arange(n)
    ent, dir_ = plug_in(full_idx)
    degenerate = dir_ <= 1e-14 * max(1.0, float(np.mean(g)))
    if degenerate and ent > 1e-10:
        raise EstimationError("degenerate test function: zero energy, positive entropy")
    ratio = 0.0 if degenerate else ent / dir_

    gen = rng.stream(seed, rng.TAG_BOOTSTRAP)
    ents = np.empty(n_bootstrap)
    dirs = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        idx = gen.integers(0, n, size=n)
        ents[b], dirs[b] = plug_in(idx)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dirs > 0, ents / dirs, 0.0)
    return EntropyEstimate(
        entropy=ent, dirichlet=dir_, ratio=ratio,
        entropy_stderr=float(np.std(ents, ddof=1)),
        dirichlet_stderr=float(np.std(dirs, ddof=1)),
        ratio_stderr=float(np.std(ratios, ddof=1)),
        n_samples=n, degenerate=bool(degenerate),
    )


def builtin_test_family(dim: int) -> list:
    """Deterministic family of smooth positive test functions used by the
    audit: exponential tilts (they saturate the Gaussian constant), shifted
    tanh profiles, and Gaussian bumps."""
    fns = []
    e1 = np.zeros(dim)
    e1[0] = 1.0
    diag = np.full(dim, 1.0 / math.sqrt(dim))
    for theta in (0.2, 0.4, 0.6, 0.8, 1.0):
        for u in ([e1] if dim == 1 else [e1, diag]):
            uu = u.copy()

            def val(x, th=theta, v=uu):
                return np.exp(0.5 * th * (x @ v))

            def grad(x, th=theta, v=uu):
                return 0.5 * th * np.exp(0.5 * th * (x @ v))[..., None] * v

            fns.append(SmoothFunction(f"tilt(theta={theta:g})", val, grad))
    for shift in (-1.0, 0.0, 1.0):

        def val_t(x, s=shift):
            return 1.0 + np.tanh(x[..., 0] - s)

        def grad_t(x, s=shift):
            g = np.zeros_like(x)
            g[..., 0] = 1.0 / np.cosh(x[..., 0] - s) ** 2
            return g

        fns.append(SmoothFunction(f"tanh(shift={shift:g})", val_t, grad_t))
    for width in (0.7, 1.5):

        def val_b(x, w=width):
            return 0.1 + np.exp(-np.sum(x**2, axis=-1) / (2 * w * w))

        def grad_b(x, w=width):
            return -(x / (w * w)) * np.exp(-np.sum(x**2, axis=-1) / (2 * w * w))[..., None]

        fns.append(SmoothFunction(f"bump(width={width:g})", val_b, grad_b))
    return fns


def lsi_audit(p: Potential, bound: BoundReport, samples: np.ndarray,
              seed: int = 0) -> CheckReport:
    """One-sided falsification audit of a bound report over
    :func:`builtin_test_family`.

    Fails when some test function's empirical ratio exceeds the certified
    constant beyond noise; passing certifies nothing.
    """
    if not bound.valid:
        raise PreconditionError("bound.valid", "cannot audit an invalid bound")
    samples = np.asarray(samples, dtype=float)
    worst_name, worst_ratio, worst_se = "", -math.inf, 0.0
    ratios = {}
    for f in builtin_test_family(samples.shape[1]):
        est = entropy_ratio(p, f, samples, seed=seed)
        if est.degenerate:
            continue
        ratios[f.name] = (est.ratio, est.ratio_stderr)
        if est.ratio > worst_ratio:
            worst_name, worst_ratio, worst_se = f.name, est.ratio, est.ratio_stderr
    passed = worst_ratio <= bound.constant + K_SIGMA * worst_se
    return CheckReport(
        name="lsi_audit",
        lhs=np.asarray(worst_ratio), rhs=np.asarray(bound.constant),
        lhs_stderr=np.asarray(worst_se), rhs_stderr=np.asarray(0.0),
        tolerance_model=f"one-sided: max ratio <= bound + {K_SIGMA:g} * stderr; "
                        "the audit can falsify, never certify",
        k=K_SIGMA, c_dt=0.0, passed=bool(passed),
        n_paths=samples.shape[0], dt=0.0, seed=seed,
        details={"worst_function": worst_name, "ratios": ratios,
                 "bound_method": bound.method},
    )
