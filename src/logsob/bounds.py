"""Entropy-decay (logarithmic Sobolev) upper bounds.

Four routes to a constant c with Ent(f^2) <= c * Dirichlet(f):

    feynman_kac:           4 ||a|| ||1/a|| / kappa_a     (kappa_a > 0, a bounded
                           above and below with bounded |grad a|)
    feynman_kac_monotone:  2 / kappa_tilde_a             (d = 1, a and the test
                           functions non-decreasing; scope-restricted)
    bakry_emery:           2 / rho                       (hess V >= rho I, rho > 0)
    holley_stroock:        ||a||^4 ||1/a||^4 * 2 / rho_a (bounded tilt of a
                           uniformly convex V_a)

Every report carries named precondition verdicts and a certification flag:
``certified`` is true only when the curvature value itself is certified
(closed form or polynomial certificate) and all norms are exact.  Reports
are never silently dropped; infeasible inputs yield valid=False with the
failing precondition named and constant = +inf.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import (  # certify_* stay importable here for perfbench/tracing.py
    certify_double_well,
    certify_quadric,
    kappa,
    kappa_tilde,
)
from .errors import ParameterError
from .perturbations import Perturbation, arctan_perturbation, check_G
from .potentials import Potential, make_potential
from .threads import worker_count

SQ3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Verdict:
    name: str
    ok: bool
    heuristic: bool
    detail: str = ""


@dataclass(frozen=True)
class BoundReport:
    method: str
    constant: float
    valid: bool
    preconditions: tuple
    inputs: dict
    certified: bool
    notes: str

    def failed(self):
        return [v.name for v in self.preconditions if not v.ok]


def _inputs(p: Potential, a: Optional[Perturbation]) -> dict:
    out = {"potential": p.family, "dim": p.dim, **{f"potential_{k}": v for k, v in p.params.items()}}
    if a is not None:
        out["perturbation"] = a.family
        out.update({f"perturbation_{k}": v for k, v in a.params.items()})
    return out


def _finalize(method, valid, constant, preconds, inputs, certified, notes=""):
    if not valid:
        constant = math.inf
        certified = False
    return BoundReport(
        method=method,
        constant=float(constant),
        valid=bool(valid),
        preconditions=tuple(preconds),
        inputs=inputs,
        certified=bool(certified),
        notes=notes,
    )


def fk_bound(p: Potential, a: Perturbation) -> BoundReport:
    """Curvature bound 4 ||a|| ||1/a|| / kappa_a."""
    g = check_G(a, dim=p.dim)
    preconds = [
        Verdict("(G)", g.satisfied, g.heuristic, g.detail),
        Verdict("sup a finite", math.isfinite(a.sup_a.value), not a.sup_a.exact,
                f"sup a = {a.sup_a.value:.6g}"),
        Verdict("sup 1/a finite", math.isfinite(a.sup_a_inv.value), not a.sup_a_inv.exact,
                f"sup 1/a = {a.sup_a_inv.value:.6g}"),
        Verdict("sup |grad a| finite",
                math.isfinite(a.sup_a.value) and math.isfinite(a.sup_log_grad.value),
                not (a.sup_a.exact and a.sup_log_grad.exact)),
    ]
    if not all(v.ok for v in preconds):
        # the curvature infimum is not evaluated for inadmissible perturbations
        preconds.append(Verdict("kappa_a > 0", False, True, "not evaluated"))
        return _finalize("feynman_kac", False, math.inf, preconds, _inputs(p, a), False)
    krep = kappa(p, a)
    preconds.append(Verdict("kappa_a > 0", krep.value > 0.0, not krep.certified,
                            f"kappa = {krep.value:.12g} ({krep.method})"))
    valid = all(v.ok for v in preconds)
    constant = 4.0 * a.sup_a.value * a.sup_a_inv.value / krep.value if valid else math.inf
    certified = valid and krep.certified and a.sup_a.exact and a.sup_a_inv.exact
    return _finalize("feynman_kac", valid, constant, preconds, _inputs(p, a), certified)


def fk_mono_bound(p: Potential, a: Perturbation) -> BoundReport:
    """Monotone-scope curvature bound 2 / kappa_tilde_a, d = 1 only.

    The constant controls the entropy of non-decreasing positive test
    functions; it is not a full logarithmic Sobolev constant.
    """
    g = check_G(a, dim=p.dim)
    nondec, nondec_detail, nondec_heur = _a_nondecreasing(a)
    preconds = [
        Verdict("d=1 restriction", p.dim == 1, False, f"d = {p.dim}"),
        Verdict("a non-decreasing", nondec, nondec_heur, nondec_detail),
        Verdict("(G)", g.satisfied, g.heuristic, g.detail),
    ]
    if not all(v.ok for v in preconds):
        preconds.append(Verdict("kappa_tilde_a > 0", False, True, "not evaluated"))
        return _finalize("feynman_kac_monotone", False, math.inf, preconds, _inputs(p, a),
                         False, notes="scope: non-decreasing positive test functions only")
    krep = kappa_tilde(p, a)
    preconds.append(Verdict("kappa_tilde_a > 0", krep.value > 0.0, not krep.certified,
                            f"kappa_tilde = {krep.value:.12g} ({krep.method})"))
    valid = all(v.ok for v in preconds)
    constant = 2.0 / krep.value if valid else math.inf
    certified = valid and krep.certified
    return _finalize(
        "feynman_kac_monotone", valid, constant, preconds, _inputs(p, a), certified,
        notes="scope: non-decreasing positive test functions only",
    )


def _a_nondecreasing(a: Perturbation):
    """Monotonicity verdict for the perturbation.

    The built-in radial families are non-decreasing in |x|; that radial
    monotonicity is what the one-dimensional monotone comparison uses (the
    symmetric profile is flagged rather than rejected).  Custom
    perturbations are checked pointwise on a grid.
    """
    if a.family == "identity":
        return True, "constant", False
    if a.nondecreasing_radial:
        return True, "non-decreasing in |x| (radial family)", True
    grid = np.linspace(-30.0, 30.0, 1001)[:, None]
    vals = np.asarray(a.value(grid), dtype=float)
    ok = bool(np.all(np.diff(vals) >= -1e-12))
    return ok, "grid check on [-30, 30]", True


def bakry_emery_bound(p: Potential) -> BoundReport:
    """Uniform convexity bound 2 / rho with hess V >= rho I."""
    rho = p.hessian_lower_bound
    exact = p.hessian_lower_bound_exact
    preconds = [
        Verdict("hess V >= rho I with rho > 0", rho > 0.0, not exact,
                f"rho = {rho:.12g}" + ("" if exact else " (grid estimate)")),
    ]
    valid = rho > 0.0
    constant = 2.0 / rho if valid else math.inf
    return _finalize("bakry_emery", valid, constant, preconds, _inputs(p, None), valid and exact)


_HS_GRID_T = np.concatenate([[0.0], np.logspace(-8, 6, 8192)])


def holley_stroock_bound(p: Potential, a: Perturbation) -> BoundReport:
    """Bounded-tilt comparison through the uniform convexity of V_a.

    Forms V_a = V + log a^2 and requires inf rho_-(hess V_a) = rho_a > 0,
    in which case the tilted measure satisfies the 2/rho_a bound and
    c <= (sup a * sup 1/a)^4 * 2 / rho_a.
    """
    norm_ok = math.isfinite(a.sup_a.value) and math.isfinite(a.sup_a_inv.value)
    preconds = [
        Verdict("a and 1/a bounded", norm_ok, not (a.sup_a.exact and a.sup_a_inv.exact)),
    ]
    inputs = _inputs(p, a)
    if not norm_ok:
        preconds.append(Verdict("rho_-(hess V_a) > 0", False, True, "not evaluated"))
        return _finalize("holley_stroock", False, math.inf, preconds, inputs, False)

    if a.family == "identity" and p.hessian_lower_bound_exact:
        rho_a = p.hessian_lower_bound
        heur = False
        detail = f"rho_a = {rho_a:.12g} (exact, V_a = V)"
    elif (p.is_radial and p.radial_hess_split is not None
          and a.is_radial and a.radial_hess_log_a2_split is not None):
        ap, bp = p.radial_hess_split(_HS_GRID_T)
        aa, ba = a.radial_hess_log_a2_split(_HS_GRID_T)
        a_tot = np.asarray(ap) + np.asarray(aa)
        b_tot = np.asarray(bp) + np.asarray(ba)
        radial_eig = a_tot * _HS_GRID_T + b_tot
        rho_a = float(np.min(radial_eig)) if p.dim == 1 else float(min(np.min(radial_eig), np.min(b_tot)))
        heur = True
        detail = f"rho_a = {rho_a:.12g} (radial grid, {_HS_GRID_T.size} points)"
    else:
        raise ParameterError("holley_stroock_bound requires a radial potential/perturbation pair "
                             "or the identity perturbation")
    preconds.append(Verdict("rho_-(hess V_a) > 0", rho_a > 0.0, heur, detail))
    valid = all(v.ok for v in preconds)
    constant = (a.sup_a.value * a.sup_a_inv.value) ** 4 * 2.0 / rho_a if valid else math.inf
    certified = valid and not heur and a.sup_a.exact and a.sup_a_inv.exact
    return _finalize("holley_stroock", valid, constant, preconds, inputs, certified)


# --- epsilon optimization and sweeps -----------------------------------------

# points of the eps grid on which the quadric objective's monotonicity is confirmed
EPS_CONFIRM_GRID = 1024


def optimize_epsilon(family: str, d: int, beta: Optional[float] = None):
    """Best admissible eps for the arctan perturbation and its bound.

    quadric:      the objective 4 exp(eps pi/4) / (eps d) decreases in eps on
                  the admissible interval, so eps* = 8 / (3 sqrt3 (d+1)).
    double_well:  eps = 2/(d+1), giving kappa = 2d/(d+1) - 2 beta.

    The monotonicity claim is confirmed on an eps grid, and the returned
    bound is :func:`fk_bound` at eps*, so it is certified exactly when
    ``kappa`` proves its curvature value.  For the d = 1 double well, where
    the polynomial certificate fails, kappa comes from the radial grid and
    the bound is valid but not certified.
    """
    if d < 1:
        raise ParameterError("d must be a positive integer")
    if family == "quadric":
        eps_star = 8.0 / (3.0 * SQ3 * (d + 1))
        constant = 4.0 * math.exp(eps_star * math.pi / 4.0) / (eps_star * d)
        eps_grid = np.linspace(eps_star / EPS_CONFIRM_GRID, eps_star, EPS_CONFIRM_GRID)
        objective = 4.0 * np.exp(eps_grid * math.pi / 4.0) / (eps_grid * d)
        if float(np.min(objective)) < constant - 1e-12 * constant:
            raise AssertionError("eps objective is not minimized at the right endpoint")
        p = make_potential("subbotin", d, alpha=4.0)
    elif family == "double_well":
        if beta is None:
            raise ParameterError("double_well requires beta")
        if not 0 <= beta < 0.5:
            raise ParameterError("beta must lie in [0, 1/2)")
        eps_star = 2.0 / (d + 1)
        p = make_potential("double_well", d, beta=beta) if beta > 0 else make_potential("subbotin", d, alpha=4.0)
    else:
        raise ParameterError("family must be quadric or double_well")
    return eps_star, fk_bound(p, arctan_perturbation(eps_star))


def envelope_constant(family: str, beta: Optional[float] = None) -> float:
    """Dimension-free envelope: 3 e sqrt3 (quadric), 4 e / (1 - 2 beta) (double well)."""
    if family == "quadric":
        return 3.0 * math.e * SQ3
    if family == "double_well":
        if beta is None or not 0 <= beta < 0.5:
            raise ParameterError("double_well envelope requires beta in [0, 1/2)")
        return 4.0 * math.e / (1.0 - 2.0 * beta)
    raise ParameterError("family must be quadric or double_well")


@dataclass(frozen=True)
class SweepRow:
    d: int
    eps: float
    kappa: float
    bound: float
    envelope: float
    valid: bool
    certified: bool


def dimension_sweep(family: str, dims, beta: Optional[float] = None):
    """One optimized bound per dimension, with the envelope assertion."""
    dims = list(dims)
    if not dims:
        raise ParameterError("dimension range must be non-empty")
    env = envelope_constant(family, beta)

    def row(d):
        eps, rep = optimize_epsilon(family, d, beta)
        kappa_val = eps * d if family == "quadric" else eps * d - 2.0 * beta
        return SweepRow(d=d, eps=eps, kappa=kappa_val, bound=rep.constant,
                        envelope=env, valid=rep.valid, certified=rep.certified)

    workers = worker_count()
    if workers > 1 and len(dims) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, dims))
    else:
        rows = [row(d) for d in dims]
    for r in rows:
        if r.valid and r.bound > r.envelope * (1.0 + 1e-12):
            raise AssertionError(f"bound {r.bound} exceeds envelope {r.envelope} at d={r.d}")
    return rows
