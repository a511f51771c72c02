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

Every check counts as evidence only when its estimates do: it fails when
an estimate it uses carries ``flags``, and lists the reasons under
``details["flagged"]``.  An SDE estimate is flagged for too many divergent
paths, or for paths that visited a |grad a|/a above the sup the weights
assume (see :func:`logsob.sde._reduce`); an entropy ratio of the audit when
the ratio or its standard error is not finite.

The audit direction is one-sided by construction: a sampled ratio below
the bound never proves the bound, a ratio above it (beyond noise)
falsifies it.  Reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from .bounds import BoundReport, _a_nondecreasing
from .errors import EstimationError, ParameterError, PreconditionError
from .perturbations import Perturbation
from .potentials import Potential
from .sde import (
    Lane,
    SdeConfig,
    SmoothFunction,
    _fd_gradient,
    _fd_lanes,
    _g_violation,
    _reduce,
    payoff_tangent_gradient,
    payoff_terminal,
    payoff_weighted_tangent_gradient,
    simulate,
    simulate_lanes,
)
# unread here: the benchmark's tracer patches these names on this module,
# until the instrumentation of ROADMAP item 7 replaces its patches
from .sde import estimate_expectation, estimate_fk_gradient, estimate_gradient_fd  # noqa: F401

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

    @property
    def flags(self) -> tuple:
        """The reasons not to trust the ratio, as in ``EstimateResult``."""
        finite = math.isfinite(self.ratio) and math.isfinite(self.ratio_stderr)
        return () if finite else ("ratio or standard error is not finite",)


def _within(lhs, rhs, se_l, se_r, dt):
    tol = K_SIGMA * np.sqrt(np.asarray(se_l) ** 2 + np.asarray(se_r) ** 2) + C_DT * dt
    return bool(np.all(np.abs(np.asarray(lhs) - np.asarray(rhs)) <= tol))


def _report(passed: bool, estimates: dict, details: dict, **fields) -> CheckReport:
    """The report of a check.  It fails whenever one of the named
    ``estimates`` carries a flag; ``details["flagged"]`` then lists each
    reason with the names of the estimates it flags."""
    reasons = {}
    for name, est in estimates.items():
        for reason in est.flags:
            reasons.setdefault(reason, []).append(name)
    flagged = [f"{reason}: {', '.join(names)}" for reason, names in reasons.items()]
    return CheckReport(k=K_SIGMA, passed=bool(passed) and not flagged,
                       details={**details, **({"flagged": flagged} if flagged else {})},
                       **fields)


def _require_G(a: Perturbation) -> None:
    """Raise PreconditionError unless ``a`` satisfies (G), which justifies
    the path weights R."""
    reason = _g_violation(a)
    if reason:
        raise PreconditionError("(G)", reason)


def representation_check(p: Potential, a: Perturbation, f: SmoothFunction,
                         cfg: SdeConfig) -> CheckReport:
    """Three estimators of grad E[f(X_T^x)] at x = x0 must agree pairwise:

    (i)   E[J grad f(X_T)] on plain paths,
    (ii)  E[R J grad f(X_T)] on perturbed paths,
    (iii) central differences in the initial condition with common
          random numbers (the model-free oracle).

    All three run as lanes of one :func:`~logsob.sde.simulate_lanes` call,
    so every step's increments are drawn once for the 2 + 2d runs.
    """
    _require_G(a)
    plain, pert, *fd = simulate_lanes(
        p, a, cfg, (Lane(cfg.x0, "plain", True), Lane(cfg.x0, "perturbed", True),
                     *_fd_lanes(cfg)))
    est_plain = _reduce(payoff_tangent_gradient(f)(plain), plain.divergent, plain, a)
    est_pert = _reduce(payoff_weighted_tangent_gradient(f)(pert), pert.divergent, pert, a)
    est_fd = _fd_gradient(f, fd)
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
    return _report(
        all(verdicts.values()), {"plain": est_plain, "perturbed": est_pert, "fd": est_fd},
        {"fd_estimate": est_fd.mean, "fd_stderr": est_fd.std_error, "pairwise": verdicts,
         "f": f.name},
        name="representation",
        lhs=est_plain.mean, rhs=est_pert.mean,
        lhs_stderr=est_plain.std_error, rhs_stderr=est_pert.std_error,
        tolerance_model=(f"|lhs - rhs| <= {K_SIGMA:g} * sigma_combined + {C_DT:g} * dt "
                         "componentwise"),
        c_dt=C_DT, n_paths=cfg.n_paths, dt=cfg.dt_eff, seed=cfg.seed,
    )


def martingale_check(p: Potential, a: Perturbation, cfg: SdeConfig,
                     checkpoints: Sequence[float]) -> CheckReport:
    """E[R_t] = 1 within K_SIGMA standard errors at every checkpoint time."""
    if not checkpoints:
        raise ParameterError("martingale_check needs at least one checkpoint time")
    _require_G(a)
    batch = simulate(p, a, cfg, variant="perturbed", checkpoint_times=checkpoints,
                     tangent=False)
    ests = {t: _reduce(np.exp(lw), batch.divergent, batch, a)
            for t, lw in sorted(batch.checkpoint_log_weights.items())}
    means = {t: float(est.mean) for t, est in ests.items()}
    ses = {t: float(est.std_error) for t, est in ests.items()}
    last = max(ests)
    return _report(
        all(abs(means[t] - 1.0) <= K_SIGMA * ses[t] for t in ests),
        {f"R({t:g})": est for t, est in ests.items()},
        {"means": means, "stderrs": ses, "n_divergent": batch.n_divergent},
        name="martingale",
        lhs=np.asarray(means[last]), rhs=np.asarray(1.0),
        lhs_stderr=np.asarray(ses[last]), rhs_stderr=np.asarray(0.0),
        tolerance_model=f"|mean(R_t) - 1| <= {K_SIGMA:g} * stderr at each checkpoint",
        c_dt=0.0, n_paths=cfg.n_paths, dt=cfg.dt_eff, seed=cfg.seed,
    )


def monotone_comparison(p: Potential, a: Perturbation, f: SmoothFunction,
                        cfg: SdeConfig) -> CheckReport:
    """One-sided comparison E[f(X_{T,a})] <= E[f(X_T)] for non-decreasing
    positive f in dimension one."""
    if p.dim != 1 or cfg.dim != 1:
        raise PreconditionError("d=1 restriction", "monotone comparison supports d = 1 only")
    span = max(4.0, abs(cfg.x0[0]) + 4.0)
    fvals = np.asarray(f.value(np.linspace(-span, span, 1000)[:, None]), dtype=float)
    if not np.all(np.diff(fvals) >= -1e-12):
        raise PreconditionError("f non-decreasing", "test function decreases on the probe grid")
    if np.any(fvals <= 0):
        raise PreconditionError("f > 0", "test function is not positive on the probe grid")
    # the verdict the monotone bound reads: a symmetric radial profile is
    # non-decreasing in |x|, flagged rather than rejected (the comparison
    # is still checked, not assumed)
    if not _a_nondecreasing(a, p.dim, span).ok:
        raise PreconditionError("a non-decreasing", "perturbation decreases on the probe grid")
    a_note = ""
    if a.family != "identity" and a.radial is not None:
        a_note = "a is non-decreasing in |x| (radial family); pointwise monotonicity waived"
    # one call, so both runs share each step's draw
    perturbed, plain = simulate_lanes(p, a, cfg, (Lane(cfg.x0, "perturbed", False),
                                                  Lane(cfg.x0, "plain", False)))
    lhs, rhs = (_reduce(payoff_terminal(f)(batch), batch.divergent, batch, a)
                for batch in (perturbed, plain))
    sigma = math.sqrt(float(lhs.std_error) ** 2 + float(rhs.std_error) ** 2)
    return _report(
        float(lhs.mean) <= float(rhs.mean) + K_SIGMA * sigma,
        {"perturbed": lhs, "plain": rhs}, {"f": f.name, "note": a_note},
        name="monotone_comparison",
        lhs=lhs.mean, rhs=rhs.mean,
        lhs_stderr=lhs.std_error, rhs_stderr=rhs.std_error,
        tolerance_model=f"one-sided: lhs <= rhs + {K_SIGMA:g} * sigma_combined",
        c_dt=0.0, n_paths=cfg.n_paths, dt=cfg.dt_eff, seed=cfg.seed,
    )


# --- sampling from the Gibbs measure -------------------------------------------


def sample_measure(p: Potential, n: int, method: str = "radial_exact",
                   seed: int = 0) -> np.ndarray:
    """Draw n points from the measure with density proportional to exp(-V)."""
    if n < 1:
        raise ParameterError("n must be positive")
    if method == "radial_exact":
        if p.radial is None:
            raise PreconditionError("radial", "radial_exact requires a radial potential")
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
    v = np.asarray(p.radial.value(r * r), dtype=float)
    if p.dim == 1:
        return -v
    with np.errstate(divide="ignore"):
        return (p.dim - 1) * np.log(r) - v  # -inf at r = 0: zero density there


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative Simpson integral of y, 0 at the first of its n >= 3 points
    spaced exactly h apart: constant-weight Simpson on an exactly uniform
    grid, equal to scipy's ``cumulative_simpson(y, x=x, initial=0.0)`` there
    bit for bit.  Cartwright's weights on a panel's first interval are then
    exactly h/6 * (2.5, 4, -0.5), and mirrored on its second."""
    y1, y2, y3 = y[:-2], y[1:-1], y[2:]
    h1 = h / 6 * (2.5 * y1 + 4.0 * y2 + -0.5 * y3)
    h2 = h / 6 * (2.5 * y3 + 4.0 * y2 + -0.5 * y1)
    parts = np.empty(y.size - 1)
    parts[:-1:2] = h1[::2]
    parts[1::2] = h2[::2]
    parts[-1] = h2[-1]  # the last interval begins no panel
    out = np.zeros(y.size)
    np.cumsum(parts, out=out[1:])
    return out


def _sample_radial_exact(p: Potential, n: int, seed: int) -> np.ndarray:
    # locate r_max with negligible tail mass: double until the integrand has
    # fallen 60 e-folds below its peak and keeps decaying, or is 0 (V = inf)
    r_max = 4.0
    for _ in range(60):
        r = np.linspace(0.0, r_max, 1025)
        logd = _radial_log_density(p, r)
        peak = np.max(logd)
        if logd[-1] < peak - 60.0 and (logd[-1] < logd[-2] or logd[-1] == -np.inf):
            break
        r_max *= 2.0
    else:
        raise EstimationError("radial density tail does not decay; non-normalizable")

    # r_max = 4 * 2**k over 2**14 intervals: every spacing of r is exactly h
    r = np.linspace(0.0, r_max, _RADIAL_NODES + 1)
    h = r_max / _RADIAL_NODES
    logd = _radial_log_density(p, r)
    dens = np.exp(logd - np.max(logd))
    cdf = _cumulative_simpson(dens, h)
    total = cdf[-1]
    if not (np.isfinite(total) and total > 0):
        raise EstimationError("radial density is not normalizable on the grid")
    # crude tail bound: decay is at least exponential past r_max with the
    # last local rate, so mass beyond the grid is below dens[-1] / rate; a
    # density that is 0 at r_max (V = inf there) has no mass beyond it
    if logd[-1] == -np.inf:
        tail = 0.0
    else:
        tail = dens[-1] / max((logd[-2] - logd[-1]) / h, 1e-3)
    if tail > 1e-12 * total:
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


def _mala_fields(p: Potential):
    """The evaluator x -> (V, grad V) on the (chains, d) states of MALA.

    A potential with a radial profile reads its closed forms in one
    t = |x|^2, the same sum as the point evaluators' own; every other
    potential goes through its point evaluators."""
    if p.radial is None:
        return lambda x: (np.asarray(p.value(x), dtype=float),
                          np.asarray(p.gradient(x), dtype=float))
    value, grad_coeff = p.radial.value, p.radial.grad_coeff

    def closed_form(x):
        t = np.add.reduce(x**2, axis=-1)
        return np.asarray(value(t), dtype=float), grad_coeff(t)[:, None] * x

    return closed_form


def _sample_mala(p: Potential, n: int, seed: int) -> np.ndarray:
    """Metropolis-adjusted Langevin targeting exp(-V).

    Proposal x' = x - tau grad V(x) + sqrt(2 tau) xi; the step tau adapts
    toward the target acceptance during burn-in and is frozen afterwards.
    Each proposal costs one evaluation of V and grad V, which a radial
    potential reads from one squared norm |x'|^2 (``_mala_fields``); the
    chains keep their state, V and grad V in place.

    Raises EstimationError when a chain accepted no proposal from the
    middle of burn-in on: its samples would all repeat one point.
    """
    gen = rng.stream(seed, rng.TAG_MALA)
    d = p.dim
    fields = _mala_fields(p)
    x = gen.standard_normal((MALA_CHAINS, d)) * 0.5
    # copies: the chains overwrite them in place
    v, g = (np.array(f, dtype=float) for f in fields(x))
    log_tau = math.log(0.1)
    per_chain = -(-n // MALA_CHAINS)  # ceil
    out = np.empty((per_chain * MALA_CHAINS, d))
    collected = 0
    total_steps = MALA_BURN_IN + per_chain * MALA_THINNING
    moved = np.zeros(MALA_CHAINS, dtype=bool)
    for step in range(total_steps):
        tau = math.exp(log_tau)
        xi = gen.standard_normal((MALA_CHAINS, d))
        tau_g = tau * g
        prop = x - tau_g + math.sqrt(2.0 * tau) * xi
        v_prop, g_prop = fields(prop)
        # x - prop is -(prop - x) exactly, so one difference serves both ways
        dx = prop - x
        fwd = np.add.reduce((dx + tau_g) ** 2, axis=1)
        bwd = np.add.reduce((tau * g_prop - dx) ** 2, axis=1)
        log_alpha = v - v_prop + (fwd - bwd) / (4.0 * tau)
        accept = np.log(gen.random(MALA_CHAINS)) < log_alpha
        np.copyto(x, prop, where=accept[:, None])
        np.copyto(v, v_prop, where=accept)
        np.copyto(g, g_prop, where=accept[:, None])
        if step >= MALA_BURN_IN // 2:
            moved |= accept
        if step < MALA_BURN_IN:
            rate = np.count_nonzero(accept) / MALA_CHAINS
            log_tau += (rate - MALA_TARGET_ACCEPTANCE) / math.sqrt(1.0 + step)
        elif (step - MALA_BURN_IN + 1) % MALA_THINNING == 0:
            out[collected:collected + MALA_CHAINS] = x
            collected += MALA_CHAINS
    stuck = MALA_CHAINS - np.count_nonzero(moved)
    if stuck:
        raise EstimationError(
            f"{stuck} of {MALA_CHAINS} MALA chains accepted no proposal in the last "
            f"{MALA_BURN_IN - MALA_BURN_IN // 2} burn-in steps or after them; their samples "
            "would repeat one point each")
    return out[:n]


# --- entropy / energy ratios -----------------------------------------------------


@dataclass(frozen=True)
class _ProjectedFunction(SmoothFunction):
    """A test function of one projection s of x (see :func:`_project`).

    ``form(s, f, q)`` writes f into ``f`` and into ``q`` the scaled value
    with grad f = q v, where v is the unit vector u of s = <x, u>, or x for
    s = |x|^2.  The value, the gradient and |grad f|^2 = q^2 |v|^2 all come
    from it; the last squares q, as the gradient is scaled by it, so it
    overflows where the gradient's squares do.
    """

    along: str
    form: Callable


def _unit(along: str, d: int) -> np.ndarray:
    """The unit vector of the projection <x, u> along "e1" or "diag"."""
    if along == "e1":
        return np.eye(1, d)[0]
    return np.full(d, 1.0 / math.sqrt(d))


def _project(x: np.ndarray, along: str) -> tuple:
    """(s, |v|^2) of the projection a family function reads: along "e1"
    the column x_1 itself, along "diag" <x, (1, ..., 1) / sqrt d>, and for
    "norm2" s = |x|^2.  The diagonal is taken with einsum, not ``x @ u``:
    OpenBLAS gemv bits depend on its thread count."""
    if along == "norm2":
        s = np.add.reduce(np.square(x), axis=-1)
        return s, s
    if along == "e1":
        return x[..., 0], 1.0
    u = _unit(along, x.shape[-1])
    return np.einsum("...i,i->...", x, u), float(np.einsum("i,i->", u, u))


def _projected(name: str, along: str, form: Callable) -> _ProjectedFunction:
    def evaluate(x):
        s = _project(x, along)[0]
        f, q = np.empty(np.shape(s)), np.empty(np.shape(s))
        form(s, f, q)
        return f, q

    def gradient(x):
        v = x if along == "norm2" else _unit(along, x.shape[-1])
        return evaluate(x)[1][..., None] * v

    return _ProjectedFunction(name, lambda x: evaluate(x)[0], gradient, along, form)


def _fill(f: _ProjectedFunction, projection: tuple, g: np.ndarray, e: np.ndarray) -> None:
    """g = f^2 and e = |grad f|^2 = q^2 |v|^2 at the (s, |v|^2) of
    :func:`_project`, in place."""
    s, v2 = projection
    f.form(s, g, e)
    np.square(g, out=g)
    np.multiply(np.square(e, out=e), v2, out=e)


def _stderr(x: np.ndarray, out: np.ndarray) -> float:
    """np.std(x, ddof=1) / sqrt(n), operation for operation, with the
    squared deviations in ``out``, which may be x itself."""
    n = x.size
    np.square(np.subtract(x, np.add.reduce(x) / n, out=out), out=out)
    return math.sqrt(float(np.add.reduce(out)) / (n - 1)) / math.sqrt(n)


def _estimate(g: np.ndarray, e: np.ndarray, w: np.ndarray) -> EntropyEstimate:
    """The estimate of :func:`entropy_ratio` from g = f^2 and
    e = |grad f|^2 on the n samples, in the three (n,) buffers g, e and w,
    all of which it overwrites.  Each mean is np.mean's sum over n and each
    standard error :func:`_stderr`, so the bits are those of the formulas
    on fresh arrays."""
    n = g.size
    # g log g, with x log x -> 0 as x -> 0: a function that is 0 on every
    # sample has Ent = 0 and IF_Ent = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(g, np.log(g, out=w), out=w)
    positive = g > 0
    if not positive.all():
        np.copyto(w, 0.0, where=~positive)
    mg, mglg, dir_ = (float(np.add.reduce(x)) / n for x in (g, w, e))
    log_mg = math.log(mg) if mg > 0 else 0.0
    ent = mglg - mg * log_mg
    # IF_Ent = g log g - (log E g + 1) g into w; g is scratch from here on
    np.subtract(w, np.multiply(g, log_mg + 1.0, out=g), out=w)
    # an infinite energy is no zero energy: its ratio is flagged, not dropped
    degenerate = math.isfinite(dir_) and dir_ <= 1e-14 * max(1.0, mg)
    if degenerate and ent > 1e-10:
        raise EstimationError("degenerate test function: zero energy, positive entropy")
    ratio = 0.0 if degenerate else ent / dir_
    ent_se, dir_se = _stderr(w, g), _stderr(e, g)
    ratio_se = 0.0
    if not degenerate:
        # IF_R = (IF_Ent - R |grad f|^2) / E |grad f|^2
        np.true_divide(np.subtract(w, np.multiply(e, ratio, out=g), out=g), dir_, out=g)
        ratio_se = _stderr(g, g)
    return EntropyEstimate(ent, dir_, ratio, ent_se, dir_se, ratio_se, n, degenerate)


def _checked_samples(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 2:
        raise EstimationError(f"only {samples.shape[0]} samples; cannot estimate")
    return samples


def entropy_ratio(p: Potential, f: SmoothFunction, samples: np.ndarray,
                  n_bootstrap: int = 0, seed: int = 0) -> EntropyEstimate:
    """Plug-in estimate of Ent(f^2) / int |grad f|^2 over the samples, with
    delta-method standard errors from one pass over them.

    With g = f^2 and R the ratio, the influence functions are
    g log g - (log E g + 1) g for Ent, |grad f|^2 for the energy and
    (IF_Ent - R |grad f|^2) / E |grad f|^2 for R; each standard error is
    std(IF, ddof=1) / sqrt(n).  A degenerate function (finite, zero energy)
    has ratio 0 and ratio stderr 0; an infinite energy is not degenerate,
    and its ratio is flagged.

    A function of :func:`builtin_test_family` (or of :func:`tilt_function`,
    :func:`tanh_function` and :func:`bump_function`) is evaluated from its
    closed form on its one projection of the samples, as :func:`lsi_audit`
    evaluates it.  Any other f costs one call of ``f.value`` and of
    ``f.gradient``.  Either way the estimate works in three (n,) buffers.

    p, n_bootstrap and seed are unread.  The benchmark's tracer binds
    n_bootstrap and its workloads pass seed, so the two go with the tracer
    change of ROADMAP item 7.
    """
    samples = _checked_samples(samples)
    if isinstance(f, _ProjectedFunction):
        projection = _project(samples, f.along)
        g, e, w = np.empty((3, samples.shape[0]))
        _fill(f, projection, g, e)
        return _estimate(g, e, w)
    g = np.square(np.asarray(f.value(samples), dtype=float))
    e = np.add.reduce(np.square(np.asarray(f.gradient(samples), dtype=float)), axis=-1)
    return _estimate(g, e, np.empty_like(g))


def tilt_function(name: str, theta: float, along: str) -> SmoothFunction:
    """exp(theta <x, u> / 2) along u = e1 or the diagonal ("diag"), with
    grad f = (theta / 2) f u."""
    if along not in ("e1", "diag"):
        raise ParameterError(f"a tilt runs along e1 or diag, not {along!r}")
    c = 0.5 * theta

    def form(s, f, q):
        np.exp(np.multiply(s, c, out=f), out=f)
        np.multiply(f, c, out=q)

    return _projected(name, along, form)


def tanh_function(name: str, shift: float) -> SmoothFunction:
    """1 + tanh(x_1 - shift), with grad f = e1 / cosh^2(x_1 - shift)."""

    def form(s, f, q):
        np.subtract(s, shift, out=q)
        np.add(np.tanh(q, out=f), 1.0, out=f)
        np.true_divide(1.0, np.square(np.cosh(q, out=q), out=q), out=q)

    return _projected(name, "e1", form)


def bump_function(name: str, width: float) -> SmoothFunction:
    """0.1 + exp(-|x|^2 / (2 width^2)), with grad f = -x exp(...) / width^2."""

    def form(s, f, q):
        np.exp(np.true_divide(s, -2.0 * width * width, out=q), out=q)
        np.add(q, 0.1, out=f)
        np.true_divide(q, -width * width, out=q)

    return _projected(name, "norm2", form)


def builtin_test_family(dim: int) -> list:
    """Deterministic family of smooth positive test functions used by the
    audit: exponential tilts (they saturate the Gaussian constant) along
    e1 and, in d >= 2, the diagonal, shifted tanh profiles, and Gaussian
    bumps.  Each reads x through one of three projections, x_1, the
    diagonal and |x|^2.  Names are distinct; a tilt names its direction when
    d >= 2."""
    alongs = ("e1",) if dim == 1 else ("e1", "diag")
    fns = [tilt_function(f"tilt(theta={theta:g})" if dim == 1
                         else f"tilt(theta={theta:g}, u={along})", theta, along)
           for theta in (0.2, 0.4, 0.6, 0.8, 1.0) for along in alongs]
    fns += [tanh_function(f"tanh(shift={shift:g})", shift) for shift in (-1.0, 0.0, 1.0)]
    fns += [bump_function(f"bump(width={width:g})", width) for width in (0.7, 1.5)]
    return fns


def lsi_audit(p: Potential, bound: BoundReport, samples: np.ndarray,
              seed: int = 0) -> CheckReport:
    """One-sided falsification audit of a bound report over
    :func:`builtin_test_family`.

    Each of the family's three projections of the samples is taken once,
    and every function's estimate runs on one shared set of three (n,)
    buffers; each ratio equals that of :func:`entropy_ratio` on the function
    alone, bit for bit.  Fails when some test function's empirical ratio
    exceeds the certified constant beyond noise, or when a ratio or its
    standard error is not finite; the worst function is the one with the
    largest finite ratio.  Passing certifies nothing.
    """
    if not bound.valid:
        raise PreconditionError("bound.valid", "cannot audit an invalid bound")
    samples = _checked_samples(samples)
    fns = builtin_test_family(samples.shape[1])
    projections = {}
    g, e, w = np.empty((3, samples.shape[0]))
    ests = {}
    for f in fns:
        if f.along not in projections:
            projections[f.along] = _project(samples, f.along)
        _fill(f, projections[f.along], g, e)
        ests[f.name] = _estimate(g, e, w)
    ratios = {name: (est.ratio, est.ratio_stderr)
              for name, est in ests.items() if not est.degenerate}
    worst_name = max((name for name in ratios if not ests[name].flags),
                     key=lambda name: ratios[name][0], default="")
    worst_ratio, worst_se = ratios.get(worst_name, (-math.inf, 0.0))
    return _report(
        worst_ratio <= bound.constant + K_SIGMA * worst_se, ests,
        {"worst_function": worst_name, "ratios": ratios, "bound_method": bound.method},
        name="lsi_audit",
        lhs=np.asarray(worst_ratio), rhs=np.asarray(bound.constant),
        lhs_stderr=np.asarray(worst_se), rhs_stderr=np.asarray(0.0),
        tolerance_model=f"one-sided: max ratio <= bound + {K_SIGMA:g} * stderr; "
                        "the audit can falsify, never certify",
        c_dt=0.0, n_paths=samples.shape[0], dt=0.0, seed=seed,
    )
