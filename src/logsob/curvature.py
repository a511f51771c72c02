"""Curvature functionals and polynomial nonnegativity certificates.

The central quantities are global infima over R^d of

    kappa(x)       = 2 rho_-(hess V(x)) + psi_a(x)
    kappa_tilde(x) =   rho_-(hess V(x)) + psi_a(x)

where rho_- is the smallest Hessian eigenvalue and psi_a is the scalar
perturbation field of :mod:`logsob.perturbations`.  Positivity of the
infimum yields entropy decay bounds (see :mod:`logsob.bounds`).

For radial potentials and perturbations both terms depend on x only
through t = |x|^2, so the d-dimensional infimum collapses to a scan of
[0, infinity) on a logarithmic grid followed by golden-section refinement.
The reduction is spot-checked against rotated full-dimensional evaluations
rather than assumed.  Non-radial inputs fall back to multi-start local
descent from a deterministic Sobol point set; such reports are never
certified.

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
by companion-matrix root isolation with Newton polish, so the reported
curvature value is an exact evaluation rather than a grid minimum.
``kappa`` consults the certificate first for these pairs and
reports a valid one as certified (method ``polynomial_certificate``); when
the certificate fails, or for ``kappa_tilde``, the radial grid decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import qmc

from .errors import ParameterError
from .perturbations import Perturbation, psi, psi_radial
from .potentials import Potential, jacobi_eigenvalues
from .threads import worker_count

# radial search: a logarithmic grid on [0, T_MAX], doubled while the
# minimum sits at its edge, then golden-section refinement down to REFINE_TOL
T_MAX = 1e4
GRID_POINTS = 8192
REFINE_TOL = 1e-10
# multistart search: Sobol starting points in the box [-BOX_HALFWIDTH, BOX_HALFWIDTH]^d
BOX_HALFWIDTH = 8.0


@dataclass(frozen=True)
class SearchConfig:
    """The settings of the global minimization that callers vary: the
    largest radial grid edge and the number of multistart points.  The
    other settings are the module constants above."""

    t_max_cap: float = 1e8
    n_starts: int = 64


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
    roots_found: tuple        # ((root, multiplicity), ...) real roots >= 0
    nonneg_on_halfline: bool
    kappa_if_valid: float
    valid: bool               # nonneg and, for double_well, eps > 2 beta / d
    details: dict


def _radial_objective(p: Potential, a: Perturbation, t: np.ndarray, weight: float) -> np.ndarray:
    return weight * np.asarray(p.radial_rho_minus(t), dtype=float) + psi_radial(a, p, t)


def _point_objective(p: Potential, a: Perturbation, x: np.ndarray, weight: float) -> float:
    h = np.asarray(p.hessian(x), dtype=float)
    lo = float(jacobi_eigenvalues(h)[0])
    return weight * lo + float(psi(a, p, x))


def _assert_rotation_invariance(p, a, weight):
    """Spot check that the objective really is a function of |x| alone."""
    rng = np.random.default_rng(20240817)
    for radius in (0.5, 1.3, 3.7):
        x0 = np.zeros(p.dim)
        x0[0] = radius
        base = _point_objective(p, a, x0, weight)
        for _ in range(2):
            q, _ = np.linalg.qr(rng.normal(size=(p.dim, p.dim)))
            rotated = _point_objective(p, a, q @ x0, weight)
            if abs(rotated - base) > 1e-9 * max(1.0, abs(base)):
                raise AssertionError(
                    "radial reduction invalid: objective not rotation invariant "
                    f"(deviation {abs(rotated - base):.3e} at radius {radius})"
                )


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


def _radial_search(p, a, weight, cfg: SearchConfig):
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
        if (at_edge or (edge_decreasing and near_edge_inf)) and t_max < cfg.t_max_cap:
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


def _multistart_search(p, a, weight, cfg: SearchConfig):
    from concurrent.futures import ThreadPoolExecutor

    from scipy.optimize import minimize

    d = p.dim
    sampler = qmc.Sobol(d, scramble=False)
    starts = qmc.scale(sampler.random(cfg.n_starts), -BOX_HALFWIDTH, BOX_HALFWIDTH)

    def descend(x0):
        res = minimize(
            lambda x: _point_objective(p, a, x, weight),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400 * d},
        )
        return float(res.fun), np.asarray(res.x)

    # starts are independent work units; the min-reduction over their
    # results is exact, so the outcome cannot depend on scheduling
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        results = list(pool.map(descend, starts))
    best_v, best_x = min(results, key=lambda r: r[0])
    on_boundary = bool(np.any(np.abs(best_x) > 0.98 * BOX_HALFWIDTH))
    return CurvatureReport(
        kind="", value=best_v, argmin=best_x, method="full_grid", certified=False,
        details={"n_starts": cfg.n_starts, "box_halfwidth": BOX_HALFWIDTH,
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
    if a.family == "identity" and p.family in ("gaussian", "subbotin", "double_well"):
        # the radial eigenvalue floor of the built-ins sits at t = 0
        value = weight * float(p.radial_rho_minus(0.0))
        return CurvatureReport(
            kind=kind, value=value, argmin=0.0, method="radial_closed_form", certified=True,
            details={"note": "identity perturbation, built-in eigenvalue floor at t=0"},
        )
    # the certificate needs no radial reduction, so it runs before the
    # rotation spot check that guards the grid
    cert = _quartic_certificate(p, a) if kind == "kappa" else None
    if cert is not None and cert.valid:
        return CurvatureReport(
            kind=kind, value=cert.kappa_if_valid, argmin=0.0, method="polynomial_certificate",
            certified=True,
            details={"roots": cert.roots_found, "grid_min": cert.details["grid_min"]},
        )
    if p.is_radial and a.is_radial and p.radial_grad_coeff is not None:
        if p.dim > 1 and p.family != "custom":
            _assert_rotation_invariance(p, a, weight)
        rep = _radial_search(p, a, weight, cfg)
    else:
        rep = _multistart_search(p, a, weight, cfg)
    return CurvatureReport(kind=kind, value=rep.value, argmin=rep.argmin,
                           method=rep.method, certified=rep.certified, details=rep.details)


def kappa(p: Potential, a: Perturbation, cfg: Optional[SearchConfig] = None) -> CurvatureReport:
    """inf over x of 2 rho_-(hess V) + psi_a."""
    return _curvature(p, a, 2.0, "kappa", cfg)


def kappa_tilde(p: Potential, a: Perturbation) -> CurvatureReport:
    """inf over x of rho_-(hess V) + psi_a (monotone-scope variant)."""
    return _curvature(p, a, 1.0, "kappa_tilde", None)


# --- polynomial certificates ------------------------------------------------

_IMAG_CUTOFF = 1e-12
_TANGENCY_TOL = 1e-8
_GRID_SAFETY_TOL = 1e-9


def _polish_root(coeffs, r):
    """Newton polish (at most 40 steps) of a real root candidate; falls
    back to the input."""
    poly = np.polynomial.polynomial.Polynomial(coeffs[::-1])
    dpoly = poly.deriv()
    x = float(r)
    for _ in range(40):
        fx = poly(x)
        dfx = dpoly(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


def _isolate_nonneg_roots(coeffs):
    """Real roots >= 0 of the quartic with multiplicities via companion matrix."""
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    real = []
    for z in roots:
        if abs(z.imag) <= _IMAG_CUTOFF * max(1.0, abs(z.real)):
            real.append(_polish_root(coeffs, z.real))
    real = sorted(r for r in real if r >= -_TANGENCY_TOL)
    clustered = []
    for r in real:
        if clustered and abs(r - clustered[-1][0]) <= _TANGENCY_TOL * max(1.0, abs(r)):
            prev, mult = clustered[-1]
            clustered[-1] = ((prev * mult + r) / (mult + 1), mult + 1)
        else:
            clustered.append((r, 1))
    return tuple((max(r, 0.0), m) for r, m in clustered), scale


def _grid_min(coeffs, upper):
    # Cauchy bound: every root has modulus below 1 + max |c_i| / c_4
    cauchy = 1.0 + max(abs(c) for c in coeffs[1:]) / abs(coeffs[0])
    upper = max(upper, cauchy)
    t = np.concatenate([np.linspace(0.0, 2.0, 4001), np.linspace(2.0, upper, 4001)])
    return float(np.min(np.polyval(coeffs, t)))


def _certify(coeffs, family, eps, dim, beta, kappa_if_valid, extra_ok=True, extra_note=""):
    coeffs = tuple(float(c) for c in coeffs)
    roots, scale = _isolate_nonneg_roots(coeffs)
    g0 = coeffs[-1]
    odd_positive = [r for r, m in roots if r > _TANGENCY_TOL and m % 2 == 1]
    nonneg = g0 >= 0.0 and not odd_positive
    # defensive scan: a dense evaluation must not contradict the verdict
    gmin = _grid_min(coeffs, max(10.0, 2.0 * max((r for r, _ in roots), default=1.0)))
    if nonneg and gmin < -_GRID_SAFETY_TOL * scale:
        nonneg = False
    details = {"g_at_0": g0, "grid_min": gmin, "tangency_tol": _TANGENCY_TOL}
    if extra_note:
        details["note"] = extra_note
    return Certificate(
        family=family,
        eps=eps,
        dim=dim,
        beta=beta,
        coefficients=coeffs,
        roots_found=roots,
        nonneg_on_halfline=bool(nonneg),
        kappa_if_valid=kappa_if_valid,
        valid=bool(nonneg and extra_ok),
        details=details,
    )


def certify_quadric(eps: float, d: int) -> Certificate:
    """Certify that the quartic-potential curvature infimum sits at t = 0,
    in which case kappa = eps * d."""
    if not eps > 0:
        raise ParameterError("eps must be positive")
    if d < 1:
        raise ParameterError("d must be a positive integer")
    coeffs = (2.0, -eps * (d + 1), 4.0, -eps * (d + 5), 2.0 - eps * eps)
    return _certify(coeffs, "quadric", float(eps), int(d), None, eps * d)


def certify_double_well(eps: float, d: int, beta: float) -> Certificate:
    """Double-well analogue of :func:`certify_quadric`; the curvature value
    at t = 0 is eps*d - 2*beta, and positivity additionally needs
    eps > 2 beta / d."""
    if not eps > 0:
        raise ParameterError("eps must be positive")
    if d < 1:
        raise ParameterError("d must be a positive integer")
    if not 0 <= beta < 0.5:
        raise ParameterError("beta must lie in [0, 1/2)")
    coeffs = (2.0, -eps * (d + 1), 4.0 + eps * beta, -eps * (d + 5), 2.0 - eps * eps + eps * beta)
    positivity_ok = eps > 2.0 * beta / d
    note = "" if positivity_ok else "eps <= 2 beta / d: kappa at t=0 is not positive"
    return _certify(coeffs, "double_well", float(eps), int(d), float(beta),
                    eps * d - 2.0 * beta, extra_ok=positivity_ok, extra_note=note)
