"""Entropy-decay (logarithmic Sobolev) upper bounds.

Four routes to a constant c with Ent(f^2) <= c * Dirichlet(f):

    feynman_kac:           4 ||a|| ||1/a|| / kappa_a     (kappa_a > 0, a bounded
                           above and below with bounded |grad a|)
    feynman_kac_monotone:  2 / kappa_tilde_a             (d = 1, a and the test
                           functions non-decreasing; scope-restricted)
    bakry_emery:           2 / rho                       (hess V >= rho I, rho > 0)
    holley_stroock:        ||a||^4 ||1/a||^4 * 2 / rho_a (bounded tilt of a
                           uniformly convex V_a)

Every report carries named precondition verdicts, and one rule reads
them: a report is ``valid`` when every verdict holds, ``certified`` when
it is valid and no verdict is heuristic (each curvature value comes from a
closed form or a polynomial certificate, and each norm is exact), and its
constant is +inf unless it is valid.  Reports are never silently dropped;
infeasible inputs yield valid=False with the failing precondition named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import (  # certify_* stay importable here for perfbench/tracing.py
    certify_double_well,
    certify_quadric,
    kappa,
    kappa_tilde,
    quartic_beta,
)
from .errors import EvaluationError, ParameterError
from .perturbations import Perturbation, arctan_perturbation, check_G, tilted_hess_split
from .potentials import Potential, make_potential

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


def _finalize(method, preconds, inputs, constant, notes=""):
    """The report whose validity, certification and constant the verdicts decide."""
    valid = all(v.ok for v in preconds)
    return BoundReport(
        method=method,
        constant=float(constant) if valid else math.inf,
        valid=valid,
        preconditions=tuple(preconds),
        inputs=inputs,
        certified=valid and not any(v.heuristic for v in preconds),
        notes=notes,
    )


def _not_evaluated(name, reason=""):
    """The verdict of a hypothesis that a failed gate left unevaluated."""
    return Verdict(name, False, True, "not evaluated" + (f": {reason}" if reason else ""))


def _curvature_verdict(preconds, kind, curvature) -> float:
    """Append the verdict "<kind>_a > 0" to the gate verdicts ``preconds``
    and return the curvature value; ``curvature()`` runs only when every
    gate holds, and the value is -inf when it does not."""
    if not all(v.ok for v in preconds):
        preconds.append(_not_evaluated(f"{kind}_a > 0"))
        return -math.inf
    krep = curvature()
    preconds.append(Verdict(f"{kind}_a > 0", krep.value > 0.0, not krep.certified,
                            f"{kind} = {krep.value:.12g} ({krep.method})"))
    return krep.value


def fk_bound(p: Potential, a: Perturbation) -> BoundReport:
    """Curvature bound 4 ||a|| ||1/a|| / kappa_a."""
    g = check_G(a)
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
    # the curvature infimum is not evaluated for inadmissible perturbations
    k = _curvature_verdict(preconds, "kappa", lambda: kappa(p, a))
    return _finalize("feynman_kac", preconds, _inputs(p, a),
                     4.0 * a.sup_a.value * a.sup_a_inv.value / k if k > 0.0 else math.inf)


def fk_mono_bound(p: Potential, a: Perturbation) -> BoundReport:
    """Monotone-scope curvature bound 2 / kappa_tilde_a, d = 1 only.

    The constant controls the entropy of non-decreasing positive test
    functions; it is not a full logarithmic Sobolev constant.
    """
    g = check_G(a)
    preconds = [
        Verdict("d=1 restriction", p.dim == 1, False, f"d = {p.dim}"),
        _a_nondecreasing(a, p.dim),
        Verdict("(G)", g.satisfied, g.heuristic, g.detail),
    ]
    k = _curvature_verdict(preconds, "kappa_tilde", lambda: kappa_tilde(p, a))
    return _finalize("feynman_kac_monotone", preconds, _inputs(p, a),
                     2.0 / k if k > 0.0 else math.inf,
                     notes="scope: non-decreasing positive test functions only")


def _a_nondecreasing(a: Perturbation, dim: int, span: float = 0.0) -> Verdict:
    """Monotonicity verdict for the perturbation, read by the monotone
    bound and by ``verify.monotone_comparison``.

    The built-in radial families are non-decreasing in |x|; that radial
    monotonicity is what the one-dimensional monotone comparison uses (the
    symmetric profile is flagged rather than rejected).  Custom
    perturbations are checked pointwise on a grid of spacing at most 0.06
    over [-r, r], r = max(30, span), so a comparison whose paths start
    far out passes its probe span.  A custom perturbation in dimension
    ``dim`` > 1 is not evaluated.
    """
    name = "a non-decreasing"
    if a.family == "identity":
        return Verdict(name, True, False, "constant")
    if a.radial is not None:
        return Verdict(name, True, True, "non-decreasing in |x| (radial family)")
    if dim != 1:
        return _not_evaluated(name, f"the grid check needs d = 1, not d = {dim}")
    reach = max(30.0, span)
    grid = np.linspace(-reach, reach, 2 * math.ceil(reach * 50.0 / 3.0) + 1)[:, None]
    vals = np.asarray(a.value(grid), dtype=float)
    ok = bool(np.all(np.diff(vals) >= -1e-12))
    return Verdict(name, ok, True, f"grid check on [-{reach:g}, {reach:g}]")


def bakry_emery_bound(p: Potential) -> BoundReport:
    """Uniform convexity bound 2 / rho with hess V >= rho I."""
    rho, exact = p.hessian_lower_bound, p.hessian_lower_bound_exact
    verdict = Verdict("hess V >= rho I with rho > 0", rho > 0.0, not exact,
                      f"rho = {rho:.12g}" + ("" if exact else " (grid estimate)"))
    return _finalize("bakry_emery", [verdict], _inputs(p, None),
                     2.0 / rho if rho > 0.0 else math.inf)


_HS_GRID_T = np.concatenate([[0.0], np.logspace(-8, 6, 8192)])


def holley_stroock_bound(p: Potential, a: Perturbation) -> BoundReport:
    """Bounded-tilt comparison through the uniform convexity of V_a.

    Forms V_a = V + log a^2 and requires inf rho_-(hess V_a) = rho_a > 0,
    in which case the tilted measure satisfies the 2/rho_a bound and
    c <= (sup a * sup 1/a)^4 * 2 / rho_a.
    """
    norm_ok = math.isfinite(a.sup_a.value) and math.isfinite(a.sup_a_inv.value)
    preconds = [Verdict("a and 1/a bounded", norm_ok, not (a.sup_a.exact and a.sup_a_inv.exact))]
    name, rho_a = "rho_-(hess V_a) > 0", -math.inf
    if not norm_ok:
        preconds.append(_not_evaluated(name))
    elif a.family == "identity":
        rho_a, heur = p.hessian_lower_bound, not p.hessian_lower_bound_exact
        preconds.append(Verdict(name, rho_a > 0.0, heur, f"rho_a = {rho_a:.12g} "
                                f"({'grid estimate' if heur else 'exact'}, V_a = V)"))
    elif p.radial is not None and a.radial is not None:
        a_tot, b_tot = tilted_hess_split(p, a, _HS_GRID_T)
        radial_eig = a_tot * _HS_GRID_T + b_tot
        rho_a = float(np.min(radial_eig)) if p.dim == 1 else float(min(np.min(radial_eig), np.min(b_tot)))
        preconds.append(Verdict(name, rho_a > 0.0, True,
                                f"rho_a = {rho_a:.12g} (radial grid, {_HS_GRID_T.size} points)"))
    else:
        preconds.append(_not_evaluated(name, "needs a radial potential/perturbation pair "
                                             "or the identity perturbation"))
    constant = math.inf
    if rho_a > 0.0:
        try:
            constant = (a.sup_a.value * a.sup_a_inv.value) ** 4 * 2.0 / rho_a
        except OverflowError:  # float ** raises past the largest float; * and / give inf
            pass
    return _finalize("holley_stroock", preconds, _inputs(p, a), constant)


# --- epsilon optimization and sweeps -----------------------------------------

def optimize_epsilon(family: str, d: int, beta: Optional[float] = None):
    """Best admissible eps for the arctan perturbation and its bound.

    quadric:      eps* = 8 / (3 sqrt3 (d+1)), the right end of the admissible
                  interval.  The objective 4 exp(eps pi/4) / (eps d) has a
                  derivative of the sign of pi/4 - 1/eps, so it decreases on
                  (0, eps*] exactly when eps* < 4/pi, which is checked.
    double_well:  eps = 2/(d+1), giving kappa = 2d/(d+1) - 2 beta.

    The returned bound is :func:`fk_bound` at eps*, so it is certified
    exactly when ``kappa`` proves its curvature value.  For the d = 1
    double well, where the polynomial certificate fails, kappa comes from
    the radial grid and the bound is valid but not certified.
    """
    if d < 1:
        raise ParameterError("d must be a positive integer")
    b = quartic_beta(family, beta)
    if family == "quadric":
        eps_star = 8.0 / (3.0 * SQ3 * (d + 1))
        if not eps_star < 4.0 / math.pi:
            raise EvaluationError("eps objective is not minimized at the right endpoint",
                                  point=None)
    else:
        eps_star = 2.0 / (d + 1)
    p = make_potential("double_well", d, beta=b) if b > 0 else make_potential("subbotin", d, alpha=4.0)
    return eps_star, fk_bound(p, arctan_perturbation(eps_star))


def envelope_constant(family: str, beta: Optional[float] = None) -> float:
    """Dimension-free envelope: 3 e sqrt3 (quadric), 4 e / (1 - 2 beta) (double well)."""
    b = quartic_beta(family, beta)
    return 3.0 * math.e * SQ3 if family == "quadric" else 4.0 * math.e / (1.0 - 2.0 * b)


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
    """One optimized bound per dimension, each checked against the envelope."""
    dims = list(dims)
    if not dims:
        raise ParameterError("dimension range must be non-empty")
    env = envelope_constant(family, beta)

    def row(d):
        eps, rep = optimize_epsilon(family, d, beta)
        return SweepRow(d=d, eps=eps, kappa=eps * d - 2.0 * quartic_beta(family, beta),
                        bound=rep.constant, envelope=env, valid=rep.valid, certified=rep.certified)

    rows = [row(d) for d in dims]
    for r in rows:
        if r.valid and r.bound > r.envelope * (1.0 + 1e-12):
            raise EvaluationError(f"bound {r.bound} exceeds envelope {r.envelope} at d={r.d}",
                                  point=None)
    return rows
