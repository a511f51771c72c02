"""Positive perturbation functions a and their derived fields.

A perturbation a > 0 tilts the potential to V_a = V + log(a^2) and feeds
three derived quantities into the curvature and path-weight machinery:

    log_grad(x)   = grad a / a
    lap_over_a(x) = (Laplacian a) / a
    psi(x)        = lap_over_a - 2 |log_grad|^2 - grad V . log_grad

psi is the single scalar field shared by the curvature functionals and
the exponent of the path reweighting martingale; it vanishes identically
for a = 1.  Built-in families:

    identity:     a = 1
    arctan(eps):  a(x) = exp((eps/2) arctan(|x|^2)), bounded above and
                  below with sup a = exp(eps pi / 4) and inf a = 1.

For arctan, with t = |x|^2:

    log_grad(x)   = eps x / (1 + t^2)
    lap_over_a    = eps (d + (d-4) t^2) / (1+t^2)^2 + eps^2 t / (1+t^2)^2
    sup |log_grad| = eps 3^(3/4) / 4   (attained at t = 1/sqrt(3))

eps must lie in (0, 903.7), where sup a is a finite double.

Each built-in states its closed forms in t once, as a :class:`RadialTilt`;
its evaluators on x derive from them, and the radial curvature search and
the (BM) and Holley-Stroock checks read them directly.  Custom
perturbations supply value, gradient and Laplacian callables; their norms
fall back to grid estimates flagged non-exact, and that estimate of
sup |grad a|/a is the one (G) reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, ParameterError
from .potentials import Potential, _sqnorm, spec_fields

Array = np.ndarray

# radial probe grid for norm estimates and condition checks: t in [0, 1e6]
_NORM_GRID_T = np.concatenate([[0.0], np.logspace(-6, 6, 4096)])


@dataclass(frozen=True)
class Norm:
    value: float
    exact: bool


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a named admissibility check.

    ``heuristic`` marks grid-based verdicts that do not constitute a proof;
    bound reports propagate this into their certification flag.
    """

    name: str
    satisfied: bool
    sup: float
    exact: bool
    heuristic: bool
    detail: str


@dataclass(frozen=True)
class RadialTilt:
    """Closed forms of a radial perturbation in t = |x|^2: a = value(t),
    grad a / a = log_grad_coeff(t) x, (Laplacian a) / a = lap_over_a(t, d)
    in dimension d, and hess(log a^2) = A x x^T + B I with (A, B) =
    hess_log_a2_split(t)."""

    value: Callable[[Array], Array]
    log_grad_coeff: Callable[[Array], Array]
    lap_over_a: Callable[[Array, int], Array]
    hess_log_a2_split: Callable[[Array], tuple]


@dataclass(frozen=True)
class Perturbation:
    """Immutable perturbation with derived-field evaluators.

    Evaluators accept (..., dim)-shaped points.  ``radial`` holds the
    closed forms in t = |x|^2 of the radial built-ins, each of which is
    non-decreasing in |x|; custom perturbations have none.
    """

    family: str
    params: dict
    value: Callable[[Array], Array]
    log_grad: Callable[[Array], Array]
    lap_over_a: Callable[[Array], Array]
    sup_a: Norm
    sup_a_inv: Norm
    sup_log_grad: Norm
    radial: Optional[RadialTilt] = None


def _radial_perturbation(family: str, params: dict, tilt: RadialTilt, sup_a: float,
                         sup_log_grad: float) -> Perturbation:
    """A built-in, non-decreasing in |x| with inf a = 1, whose evaluators on
    x derive from its closed forms."""

    def log_grad(x):
        x = np.asarray(x, dtype=float)
        return tilt.log_grad_coeff(_sqnorm(x))[..., None] * x

    def lap_over_a(x):
        x = np.asarray(x, dtype=float)
        return tilt.lap_over_a(_sqnorm(x), x.shape[-1])

    return Perturbation(family, params, lambda x: tilt.value(_sqnorm(x)), log_grad, lap_over_a,
                        Norm(sup_a, True), Norm(1.0, True), Norm(sup_log_grad, True), tilt)


def identity_perturbation() -> Perturbation:
    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return _radial_perturbation("identity", {}, RadialTilt(
        lambda t: np.ones_like(np.asarray(t, dtype=float)), zero, lambda t, d: zero(t),
        lambda t: (zero(t), zero(t))), 1.0, 0.0)


# the largest eps whose sup a = exp(eps pi / 4) is a finite double
ARCTAN_EPS_MAX = 4.0 * math.log(sys.float_info.max) / math.pi


def arctan_perturbation(eps: float) -> Perturbation:
    if not 0 < eps < ARCTAN_EPS_MAX:
        raise ParameterError("arctan perturbation requires 0 < eps < %.7g, so that sup a is "
                             "finite (got %g)" % (ARCTAN_EPS_MAX, eps))

    def lam(t):
        t = np.asarray(t, dtype=float)
        return eps / (1.0 + t * t)

    def lap_over_a(t, d):
        t = np.asarray(t, dtype=float)
        denom = (1.0 + t * t) ** 2
        return eps * (d + (d - 4.0) * t * t) / denom + eps * eps * t / denom

    def hess_split(t):
        # hess(log a^2) = 2 eps [I/(1+t^2) - 4 t x x^T/(1+t^2)^2]
        t = np.asarray(t, dtype=float)
        return (-8.0 * eps * t / (1.0 + t * t) ** 2, 2.0 * eps / (1.0 + t * t))

    return _radial_perturbation("arctan", {"eps": float(eps)}, RadialTilt(
        lambda t: np.exp(0.5 * eps * np.arctan(t)), lam, lap_over_a, hess_split),
        math.exp(eps * math.pi / 4.0), eps * 3.0 ** 0.75 / 4.0)


def make_custom_perturbation(
    value: Callable,
    gradient: Callable,
    laplacian: Callable,
    dim: int,
) -> Perturbation:
    """Wrap user callables (value, gradient, Laplacian), each batched over
    (..., dim)-shaped points, as a Perturbation.

    Norms are grid estimates over a radial logarithmic grid along the
    coordinate axes and the main diagonal, flagged ``exact=False``.  A norm
    that overflows on the grid is inf, and so is the sup of |grad a|/a when
    it grows over the nested shells |x| <= 5, 15, 25: this one probe decides
    condition (G), which :func:`check_G` reads.
    """
    if dim < 1:
        raise ParameterError("dim must be a positive integer")

    def log_grad(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(gradient(x), dtype=float) / np.asarray(value(x), dtype=float)[..., None]

    def lap_over_a(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(laplacian(x), dtype=float) / np.asarray(value(x), dtype=float)

    pts = _probe_points(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(value(pts), dtype=float)
        lg = np.sqrt(np.sum(np.asarray(log_grad(pts)) ** 2, axis=-1))
    finite = np.isfinite(vals)
    if not np.any(finite) or np.any(vals[finite] <= 0):
        raise ParameterError("custom perturbation must be positive on probe points")
    # overflow on the probe grid is itself evidence of an unbounded norm
    sup_a = float(np.max(vals[finite])) if np.all(finite) else math.inf
    sup_a_inv = float(np.max(1.0 / vals[finite]))
    sup_lg = math.inf
    if np.all(np.isfinite(lg)):
        r = np.sqrt(np.sum(pts**2, axis=-1))
        shell_sups = [float(np.max(lg[r <= s])) for s in (5.0, 15.0, 25.0)]
        if not all(b > 1.1 * max(c, 1e-30) for b, c in zip(shell_sups[1:], shell_sups[:-1])):
            sup_lg = float(np.max(lg))

    return Perturbation(
        family="custom",
        params={},
        value=value,
        log_grad=log_grad,
        lap_over_a=lap_over_a,
        sup_a=Norm(sup_a, False),
        sup_a_inv=Norm(sup_a_inv, False),
        sup_log_grad=Norm(sup_lg, False),
    )


def _probe_points(dim: int) -> Array:
    """Radial probe grid mapped onto axes and the main diagonal."""
    radii = np.sqrt(_NORM_GRID_T)
    dirs = [np.eye(dim)[i] for i in range(min(dim, 4))]
    dirs.append(np.full(dim, 1.0 / math.sqrt(dim)))
    pts = np.concatenate([radii[:, None] * u[None, :] for u in dirs], axis=0)
    return pts


def psi_from_parts(a: Perturbation, x: Array, lg: Array, lg_norm2: Array, grad: Array) -> Array:
    """psi_a at x from the already evaluated ``lg`` = grad a / a, its
    squared norm ``lg_norm2`` and ``grad`` = grad V; no finiteness check."""
    return (np.asarray(a.lap_over_a(x), dtype=float)
            - 2.0 * lg_norm2
            - np.einsum("...i,...i->...", grad, lg))


def psi(a: Perturbation, p: Potential, x: Array) -> Array:
    """The scalar field lap a/a - 2|grad a/a|^2 - grad V . grad a/a."""
    x = np.asarray(x, dtype=float)
    if a.family == "identity":
        return np.zeros(x.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        lg = np.asarray(a.log_grad(x), dtype=float)
        out = psi_from_parts(a, x, lg, np.einsum("...i,...i->...", lg, lg),
                             np.asarray(p.gradient(x), dtype=float))
    if not np.all(np.isfinite(out)):
        bad = x[~np.isfinite(out)][:1] if x.ndim > 1 else x
        raise EvaluationError("psi evaluation produced a non-finite value", point=np.asarray(bad))
    return out


def psi_radial_parts(a: Perturbation, p: Potential, t: Array) -> tuple:
    """(gc, lgc, |grad a / a|^2, psi) at t = |x|^2 for a radial pair, where
    grad V = gc x and grad a / a = lgc x, so |grad a / a|^2 = lgc^2 t and
    psi = lap_over_a(t, d) - 2 |grad a / a|^2 - gc lgc t."""
    gc = p.radial.grad_coeff(t)
    lgc = a.radial.log_grad_coeff(t)
    lg_norm2 = lgc * lgc * t
    return gc, lgc, lg_norm2, a.radial.lap_over_a(t, p.dim) - 2.0 * lg_norm2 - gc * lgc * t


def psi_radial(a: Perturbation, p: Potential, t: Array) -> Array:
    """psi as a function of t = |x|^2 for a radial potential/perturbation pair."""
    if a.family == "identity":
        return np.zeros_like(np.asarray(t, dtype=float))
    if a.radial is None or p.radial is None:
        raise ParameterError("psi_radial requires a radial potential and perturbation")
    return psi_radial_parts(a, p, np.asarray(t, dtype=float))[3]


def tilted_hess_split(p: Potential, a: Perturbation, t: Array) -> tuple:
    """(A, B) with hess V_a = A x x^T + B I at |x|^2 = t, V_a = V + log a^2."""
    if a.radial is None or p.radial is None:
        raise ParameterError("the split of hess V_a requires a radial potential and perturbation")
    ap, bp = p.radial.hess_split(t)
    aa, ba = a.radial.hess_log_a2_split(t)
    return (np.asarray(ap, dtype=float) + np.asarray(aa, dtype=float),
            np.asarray(bp, dtype=float) + np.asarray(ba, dtype=float))


# --- admissibility conditions --------------------------------------------


# the detail strings of the built-ins' closed forms, which bound reports print
_G_DETAIL = {"identity": "grad a = 0",
             "arctan": "closed-form maximum of eps sqrt(t)/(1+t^2) at t = 1/sqrt(3)"}


def check_G(a: Perturbation) -> ConditionReport:
    """Boundedness of |grad a|/a, the admissibility condition for the
    path-reweighting representation: a read of ``a.sup_log_grad``, which
    holds when that sup is finite.  A custom perturbation's sup is the grid
    estimate of :func:`make_custom_perturbation`, so its verdict is
    heuristic."""
    sup = a.sup_log_grad
    bounded = math.isfinite(sup.value)
    detail = _G_DETAIL.get(a.family, "grid estimate" if bounded else
                           "warning: grid sup of |grad a|/a overflows or grows with the probe "
                           "radius; unbounded")
    return ConditionReport("(G)", bounded, sup.value, sup.exact, not sup.exact, detail)


def check_BM(a: Perturbation, p: Potential) -> ConditionReport:
    """Sign and boundedness structure of the tilted Hessian hess(V_a).

    Condition (1): off-diagonal entries of hess(V_a) nonpositive (vacuous
    in d = 1).  Condition (2): row sums of hess(V_a) bounded above; in
    d = 1 this is the second derivative of V_a.  ``sup`` is the grid sup
    of the largest row sum.  Verdicts are grid checks flagged heuristic.
    """
    d = p.dim
    t = _NORM_GRID_T
    a_tot, b_tot = tilted_hess_split(p, a, t)

    if d == 1:
        row = a_tot * t + b_tot
        detail = "condition (1) vacuous in d=1; sup of (V_a)'' over grid reported"
        off_ok = True
    else:
        # with hess(V_a) = A x x^T + B I at |x|^2 = t, the entries off the
        # diagonal are A x_i x_j, at most A t / 2, and row i sums to
        # B + A x_i sum_j x_j, where x_i sum_j x_j ranges over
        # t [(1 - sqrt d) / 2, (1 + sqrt d) / 2]
        off = a_tot * t / 2.0
        worst = float(np.max(off))
        off_ok = worst <= 1e-12
        detail = "condition (1): worst off-diagonal of hess(V_a) over grid: %.6g" % worst
        if not off_ok:
            detail += " (violated at t = %.6g)" % float(t[int(np.argmax(off))])
        half_root = math.sqrt(d) / 2.0
        row = b_tot + t * np.where(a_tot >= 0, a_tot * (0.5 + half_root),
                                   a_tot * (0.5 - half_root))
        detail += "; condition (2): sup of the largest row sum over grid reported"
    sup = float(np.max(row))
    tail_growing = row[-1] >= 0.999 * sup and row[-1] > row[t.size // 2]
    if tail_growing:
        detail += "; still increasing at the grid edge, treated as unbounded above"
    return ConditionReport("(BM)", off_ok and not tail_growing, sup, False, True, detail)


# --- text config parsing --------------------------------------------------


def parse_perturbation(text: str) -> Perturbation:
    """Parse a spec like ``perturbation=arctan eps=0.35``."""
    fields = spec_fields(text, "perturbation")
    family = fields.pop("perturbation", None)
    if family is None:
        raise ParameterError("perturbation spec must contain perturbation=...")
    if family == "identity":
        if fields:
            raise ParameterError("identity perturbation takes no parameters")
        return identity_perturbation()
    if family == "arctan":
        eps_text = fields.pop("eps", None)
        if eps_text is None:
            raise ParameterError("arctan perturbation requires eps=...")
        try:
            eps = float(eps_text)
        except ValueError:
            raise ParameterError(
                "malformed number in perturbation token %r" % f"eps={eps_text}") from None
        if fields:
            raise ParameterError("unknown parameters %r for arctan" % sorted(fields))
        return arctan_perturbation(eps)
    raise ParameterError("unknown perturbation family %r" % family)


def render_perturbation(a: Perturbation) -> str:
    if a.family == "identity":
        return "perturbation=identity"
    if a.family == "arctan":
        return "perturbation=arctan eps=%.17g" % a.params["eps"]
    raise ParameterError("custom perturbations have no text form")
