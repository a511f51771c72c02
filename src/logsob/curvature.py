"""Curvature functionals and polynomial nonnegativity certificates.

The central quantities are global infima over R^d of

    kappa(x)       = 2 rho_-(hess V(x)) + psi_a(x)
    kappa_tilde(x) =   rho_-(hess V(x)) + psi_a(x)

where rho_- is the smallest Hessian eigenvalue and psi_a is the scalar
perturbation field of :mod:`logsob.perturbations`.  Positivity of the
infimum yields entropy decay bounds (see :mod:`logsob.bounds`).

For radial potentials and perturbations both terms depend on x only
through t = |x|^2, so the d-dimensional infimum collapses to a scan of
[0, infinity) on a logarithmic grid followed by golden-section refinement,
evaluated from the closed forms in t (``Potential.radial``,
``Perturbation.radial``).  A built-in's evaluators on x, lap a / a
included, derive from the same closed forms, so rotation invariance holds
by construction.  Three radii check, before each search, rho_- against
the Hessian split, the Gaussian's one-line evaluators and the objective's
finiteness; a disagreement raises :class:`~logsob.errors.EvaluationError`.
Non-radial inputs fall back to Nelder-Mead descents from the origin and
deterministic Halton points; such reports are never certified.

For the quartic family V = |x|^4/4 (and its double-well tilt) with the
bounded perturbation a = exp((eps/2) arctan |x|^2), the statement "the
infimum sits at t = 0" is equivalent to nonnegativity on [0, infinity) of
an explicit quartic polynomial

    g(t) = 2 t^4 - eps (d+1) t^3 + 4 t^2 - eps (d+5) t + 2 - eps^2

(with + eps beta added to the t^2 and constant coefficients in the
double-well case).  For d >= 2 the reduction is exact,
kappa(t) - kappa(0) = t g(t) / (1 + t^2)^2; in d = 1 the radial eigenvalue
3t replaces t, so g is a conservative surrogate there.
``certify_quadric`` and ``certify_double_well`` decide that nonnegativity
exactly: the float coefficients are dyadic rationals, and Sturm counts
over the integers, on g and its repeated gcds with the derivative, find
every root of odd multiplicity in (0, infinity), so the reported
curvature value is an exact evaluation rather than a grid minimum.
``kappa`` consults the certificate first for these pairs and
reports a valid one as certified (method ``polynomial_certificate``); when
the certificate fails, or for ``kappa_tilde``, the radial grid decides.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import EvaluationError, ParameterError
from .perturbations import Perturbation, psi, psi_radial
from .potentials import Potential, jacobi_eigenvalues

# radial search: a logarithmic grid on [0, T_MAX], doubled up to T_MAX_CAP
# while the minimum sits at its edge, then golden-section refinement down
# to REFINE_TOL
T_MAX = 1e4
T_MAX_CAP = 1e8
GRID_POINTS = 8192
REFINE_TOL = 1e-10
# multistart search: Nelder-Mead descents from the origin and Halton points
# in the box [-BOX_HALFWIDTH, BOX_HALFWIDTH]^d
BOX_HALFWIDTH = 8.0


@dataclass(frozen=True)
class SearchConfig:
    """The setting of the global minimization that callers vary: the
    number of multistart points.  The other settings are the module
    constants above."""

    n_starts: int = 64

    def __post_init__(self):
        if not self.n_starts >= 1:
            raise ParameterError("n_starts must be at least 1 (got %r)" % (self.n_starts,))


@dataclass(frozen=True)
class CurvatureReport:
    kind: str                 # "kappa" or "kappa_tilde"
    value: float
    argmin: object            # radial coordinate t* or a point in R^d
    method: str               # radial_closed_form | radial_grid | full_grid | polynomial_certificate
    certified: bool
    details: dict


@dataclass(frozen=True)
class Certificate:
    """Nonnegativity verdict for the degree-4 reduction polynomial."""

    family: str               # "quadric" or "double_well"
    eps: float
    dim: int
    beta: Optional[float]
    coefficients: tuple       # (c4, c3, c2, c1, c0)
    nonneg_on_halfline: bool
    kappa_if_valid: float
    valid: bool               # nonneg and, for double_well, eps > 2 beta / d
    details: dict


def _radial_objective(p: Potential, a: Perturbation, t: np.ndarray, weight: float) -> np.ndarray:
    return weight * np.asarray(p.radial.rho_minus(t), dtype=float) + psi_radial(a, p, t)


def _point_objective(p: Potential, a: Perturbation, x: np.ndarray, weight: float) -> float:
    h = np.asarray(p.hessian(x), dtype=float)
    lo = float(jacobi_eigenvalues(h)[0])
    return weight * lo + float(psi(a, p, x))


def _check_radial_reduction(p, a, weight):
    """The objective in t = r^2 against the one at (r, 0, ..., 0), at three
    radii: rho_minus against the Hessian split, the Gaussian's one-line
    evaluators and finiteness.  Both sides read the same lap a / a."""
    radii = (0.5, 1.3, 3.7)
    closed = _radial_objective(p, a, np.square(radii), weight)
    for radius, c in zip(radii, closed):
        x = np.zeros(p.dim)
        x[0] = radius
        point = _point_objective(p, a, x, weight)
        if not (math.isfinite(c) or math.isfinite(point)):
            raise EvaluationError(
                "curvature objective is not finite at radius %g: closed forms give %.12g, "
                "point evaluators %.12g" % (radius, c, point), point=x)
        if not abs(c - point) <= 1e-9 * max(1.0, abs(point)):
            raise EvaluationError(
                "radial reduction invalid: closed forms give %.12g, point evaluators %.12g "
                "at radius %g" % (c, point, radius), point=x)


def _golden_refine(f, lo, hi, tol):
    """Golden-section minimization of f on [lo, hi] down to |hi-lo| <= tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo, hi
    c = b_ - invphi * (b_ - a_)
    d_ = a_ + invphi * (b_ - a_)
    fc, fd = f(c), f(d_)
    while (b_ - a_) > tol:
        if fc <= fd:
            b_, d_, fd = d_, c, fc
            c = b_ - invphi * (b_ - a_)
            fc = f(c)
        else:
            a_, c, fc = c, d_, fd
            d_ = a_ + invphi * (b_ - a_)
            fd = f(d_)
    return (c, fc) if fc <= fd else (d_, fd)


def _radial_search(p, a, weight):
    t_max = T_MAX
    doublings = 0
    while True:
        grid = np.concatenate([[0.0], np.logspace(-8, math.log10(t_max), GRID_POINTS - 1)])
        vals = _radial_objective(p, a, grid, weight)
        idx = int(np.argmin(vals))
        best_t, best_v = float(grid[idx]), float(vals[idx])
        at_edge = idx >= grid.size - 2
        edge_decreasing = vals[-1] < vals[-2]
        near_edge_inf = vals[-1] <= best_v + 0.01 * max(1.0, abs(best_v))
        if (at_edge or (edge_decreasing and near_edge_inf)) and t_max < T_MAX_CAP:
            t_max *= 2.0
            doublings += 1
            continue
        if at_edge and edge_decreasing:
            # objective still decreasing at the expanded edge: treat as unbounded below
            return CurvatureReport(
                kind="", value=-math.inf, argmin=float(grid[-1]), method="radial_grid",
                certified=False,
                details={
                    "grid_points": GRID_POINTS,
                    "t_max": t_max,
                    "doublings": doublings,
                    "unbounded_below": True,
                },
            )
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, grid.size - 1)]
        f = lambda t: float(_radial_objective(p, a, np.asarray([t]), weight)[0])
        t_ref, v_ref = _golden_refine(f, float(lo), float(hi), REFINE_TOL)
        if v_ref < best_v:
            best_t, best_v = t_ref, v_ref
        return CurvatureReport(
            kind="", value=best_v, argmin=best_t, method="radial_grid", certified=False,
            details={"grid_points": GRID_POINTS, "t_max": t_max, "doublings": doublings},
        )


def _halton(n: int, d: int) -> np.ndarray:
    """Points 1..n of the Halton sequence in (0, 1)^d: the radical inverse
    of each index in each of the first d primes, rounded once from its
    exact fraction."""
    primes = []
    q = 2
    while len(primes) < d:
        if all(q % b for b in primes):
            primes.append(q)
        q += 1
    index = np.arange(1, n + 1)
    out = np.empty((n, d))
    for j, b in enumerate(primes):
        i, num, den = index.copy(), np.zeros(n, dtype=np.int64), 1
        while den <= n:  # every digit of n: num / den = sum digit_k b^-(k+1)
            num = num * b + i % b
            i //= b
            den *= b
        out[:, j] = num / den
    return out


def _starts(n: int, d: int) -> np.ndarray:
    """The n multistart points: the origin, then Halton points 1..n-1
    mapped to the box [-BOX_HALFWIDTH, BOX_HALFWIDTH]^d."""
    return np.vstack([np.zeros((1, d)), BOX_HALFWIDTH * (2.0 * _halton(n - 1, d) - 1.0)])


def _nelder_mead(f, x0, xatol, fatol, maxiter):
    """Nelder-Mead descent of f from x0: scipy 1.17's ``_minimize_neldermead``
    operation for operation (no bounds, not adaptive, no limit on the
    evaluations), so fun and x equal those of ``scipy.optimize.minimize(f,
    x0, method="Nelder-Mead", options={"xatol": xatol, "fatol": fatol,
    "maxiter": maxiter})`` bit for bit.  Returns (fun, x, evaluations,
    steps), where steps counts each kind of step taken and "maxiter" when
    the iterations ran out."""
    evaluations = 0
    steps = Counter()

    def call(x):
        nonlocal evaluations
        evaluations += 1
        return f(np.copy(x))  # the objective gets a copy, never a simplex row

    x0 = np.asarray(x0, dtype=float).flatten()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = call(sim[k])
    for _ in range(2):  # scipy sorts twice; a tie may reorder
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = call(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = call(xe)
            step, x, fx = ("expansion", xe, fxe) if fxe < fxr else ("reflection", xr, fxr)
        elif fxr < fsim[-2]:
            step, x, fx = "reflection", xr, fxr
        elif fxr < fsim[-1]:
            xc = 1.5 * xbar - 0.5 * sim[-1]
            fxc = call(xc)
            step, x, fx = ("outside_contraction", xc, fxc) if fxc <= fxr else ("shrink", 0, 0)
        else:
            xcc = 0.5 * xbar + 0.5 * sim[-1]
            fxcc = call(xcc)
            step, x, fx = ("inside_contraction", xcc, fxcc) if fxcc < fsim[-1] else ("shrink", 0, 0)
        if step == "shrink":
            for j in range(1, n + 1):
                sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                fsim[j] = call(sim[j])
        else:
            sim[-1], fsim[-1] = x, fx
        steps[step] += 1
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    if iterations >= maxiter:
        steps["maxiter"] += 1
    return np.min(fsim), sim[0], evaluations, steps


def _multistart_search(p, a, weight, cfg: SearchConfig):
    d = p.dim
    objective = lambda x: _point_objective(p, a, x, weight)
    best_v, best_x, evaluations, at_maxiter = math.inf, None, 0, 0
    for x0 in _starts(cfg.n_starts, d):
        v, x, calls, steps = _nelder_mead(objective, x0, 1e-9, 1e-12, 400 * d)
        evaluations += calls
        at_maxiter += steps["maxiter"]
        if best_x is None or v < best_v:
            best_v, best_x = float(v), x
    on_boundary = bool(np.any(np.abs(best_x) > 0.98 * BOX_HALFWIDTH))
    return CurvatureReport(
        kind="", value=best_v, argmin=best_x, method="full_grid", certified=False,
        details={"n_starts": cfg.n_starts, "start_design": "origin + Halton",
                 "box_halfwidth": BOX_HALFWIDTH, "evaluations": evaluations,
                 "descents_at_maxiter": at_maxiter,
                 "minimum_on_box_boundary": on_boundary},
    )


def _quartic_certificate(p: Potential, a: Perturbation) -> Optional[Certificate]:
    """The certificate that decides kappa for (p, a), or None outside its families."""
    if a.family != "arctan":
        return None
    eps = a.params["eps"]
    if p.family == "subbotin" and p.params["alpha"] == 4.0:
        return certify_quadric(eps, p.dim)
    if p.family == "double_well":
        return certify_double_well(eps, p.dim, p.params["beta"])
    return None


def _curvature(p: Potential, a: Perturbation, weight: float, kind: str,
               cfg: Optional[SearchConfig]) -> CurvatureReport:
    cfg = cfg or SearchConfig()
    if a.family == "identity" and p.hessian_lower_bound_exact:
        # the built-ins' exact eigenvalue floor, which sits at t = 0
        return CurvatureReport(
            kind=kind, value=weight * p.hessian_lower_bound, argmin=0.0,
            method="radial_closed_form", certified=True,
            details={"note": "identity perturbation, built-in eigenvalue floor at t=0"},
        )
    # the certificate needs no radial reduction, so it runs before the
    # check of the closed forms that guards the grid
    cert = _quartic_certificate(p, a) if kind == "kappa" else None
    if cert is not None and cert.valid:
        return CurvatureReport(
            kind=kind, value=cert.kappa_if_valid, argmin=0.0, method="polynomial_certificate",
            certified=True, details={})
    if p.radial is not None and a.radial is not None:
        if p.family != "custom":
            _check_radial_reduction(p, a, weight)
        rep = _radial_search(p, a, weight)
    else:
        rep = _multistart_search(p, a, weight, cfg)
    return replace(rep, kind=kind)


def kappa(p: Potential, a: Perturbation, cfg: Optional[SearchConfig] = None) -> CurvatureReport:
    """inf over x of 2 rho_-(hess V) + psi_a."""
    return _curvature(p, a, 2.0, "kappa", cfg)


def kappa_tilde(p: Potential, a: Perturbation) -> CurvatureReport:
    """inf over x of rho_-(hess V) + psi_a (monotone-scope variant)."""
    return _curvature(p, a, 1.0, "kappa_tilde", None)


# --- polynomial certificates ------------------------------------------------
# Polynomials below are lists of Python ints, lowest degree first.


def _primitive(p):
    """p without high-order zeros, divided by the gcd of its coefficients."""
    while p and p[-1] == 0:
        p = p[:-1]
    c = math.gcd(*p)
    return [x // c for x in p] if c > 1 else p


def _prem(a, b):
    """Remainder of a by b times a positive integer, so its signs are kept."""
    m, s = abs(b[-1]), 1 if b[-1] > 0 else -1
    r = list(a)
    while len(r) >= len(b):
        q, k = s * r[-1], len(r) - len(b)
        r = [m * x for x in r[:k]] + [m * x - q * y for x, y in zip(r[k:-1], b[:-1])]
        while r and r[-1] == 0:
            r.pop()
    return r


def _sturm(p):
    """(number of distinct roots of p in (0, inf), gcd(p, p')), both from
    the Sturm sequence of p: p, p', then negated pseudo-remainders."""
    while p[0] == 0:
        p = p[1:]  # the roots at t = 0 are not counted
    if len(p) == 1:
        return 0, p
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while r := _primitive(_prem(chain[-2], chain[-1])):
        chain.append([-x for x in r])

    def variations(values):
        signs = [v > 0 for v in values if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return variations([q[0] for q in chain]) - variations([q[-1] for q in chain]), chain[-1]


def _nonneg_on_halfline(coeffs) -> bool:
    """Exact decision of g(t) >= 0 for every t >= 0, with g given by its
    float coefficients, highest degree first.

    It holds if and only if g(0) >= 0, the leading coefficient is positive
    and no root of odd multiplicity lies in (0, inf).  Every double is a
    dyadic rational, so one power of two turns the coefficients into
    integers.  With u_0 = g and u_(k+1) = gcd(u_k, u_k'), Sturm's theorem
    counts the N_k roots in (0, inf) of multiplicity above k, and
    N_0 - N_1 + N_2 - ... counts those of odd multiplicity.
    """
    if not (coeffs[0] > 0 and coeffs[-1] >= 0):
        return False
    ratios = [c.as_integer_ratio() for c in reversed(coeffs)]
    scale = max(den for _, den in ratios)
    u = _primitive([num * (scale // den) for num, den in ratios])
    odd, sign = 0, 1
    while len(u) > 1:
        n, u = _sturm(u)
        odd, sign = odd + sign * n, -sign
    return odd == 0


def quartic_beta(family: str, beta: Optional[float]) -> float:
    """The beta of a quartic family: the quadric takes none and has 0, the
    double well needs one in [0, 1/2)."""
    if family == "quadric":
        if beta is not None:
            raise ParameterError("quadric takes no beta")
        return 0.0
    if family == "double_well":
        if beta is None:
            raise ParameterError("double_well requires beta")
        if not 0 <= beta < 0.5:
            raise ParameterError("beta must lie in [0, 1/2)")
        return float(beta)
    raise ParameterError("family must be quadric or double_well")


def _certify(family, eps, d, beta):
    """The certificate for g with the given parameters; the quadric is the
    double well at beta = 0, whose coefficients keep the quadric's bits."""
    if not 0 < eps < math.inf:
        raise ParameterError("eps must be positive and finite")
    if d < 1:
        raise ParameterError("d must be a positive integer")
    b = quartic_beta(family, beta)
    eps = float(eps)
    coeffs = (2.0, -eps * (d + 1), 4.0 + eps * b, -eps * (d + 5), 2.0 - eps * eps + eps * b)
    nonneg = _nonneg_on_halfline(coeffs)
    positivity_ok = eps > 2.0 * b / d
    details = {"g_at_0": coeffs[-1]}
    if not positivity_ok:
        details["note"] = "eps <= 2 beta / d: kappa at t=0 is not positive"
    return Certificate(
        family=family,
        eps=eps,
        dim=int(d),
        beta=None if beta is None else b,
        coefficients=coeffs,
        nonneg_on_halfline=nonneg,
        kappa_if_valid=eps * d - 2.0 * b,
        valid=nonneg and positivity_ok,
        details=details,
    )


def certify_quadric(eps: float, d: int) -> Certificate:
    """Certify that the quartic-potential curvature infimum sits at t = 0,
    in which case kappa = eps * d."""
    return _certify("quadric", eps, d, None)


def certify_double_well(eps: float, d: int, beta: float) -> Certificate:
    """Double-well analogue of :func:`certify_quadric`; the curvature value
    at t = 0 is eps*d - 2*beta, and positivity additionally needs
    eps > 2 beta / d."""
    return _certify("double_well", eps, d, beta)
