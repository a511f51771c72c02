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

Custom perturbations supply value, gradient and Laplacian callables; their
norms fall back to grid estimates flagged non-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, ParameterError
from .potentials import Potential

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
class Perturbation:
    """Immutable perturbation with derived-field evaluators.

    Evaluators accept (..., dim)-shaped points.  ``radial_log_grad_coeff``
    is lam(t) with grad a / a = lam(t) x, and ``radial_hess_log_a2_split``
    gives (A, B) with hess(log a^2) = A x x^T + B I; both exist for the
    radial built-ins.
    """

    family: str
    params: dict
    value: Callable[[Array], Array]
    log_grad: Callable[[Array], Array]
    lap_over_a: Callable[[Array], Array]
    sup_a: Norm
    sup_a_inv: Norm
    sup_log_grad: Norm
    is_radial: bool = False
    nondecreasing_radial: bool = False
    radial_log_grad_coeff: Optional[Callable[[Array], Array]] = None
    radial_lap_over_a: Optional[Callable[[Array, int], Array]] = None
    radial_hess_log_a2_split: Optional[Callable[[Array], tuple]] = None


def identity_perturbation() -> Perturbation:
    def value(x):
        return np.ones(np.shape(x)[:-1])

    def log_grad(x):
        return np.zeros(np.shape(x))

    def lap_over_a(x):
        return np.zeros(np.shape(x)[:-1])

    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return Perturbation(
        family="identity",
        params={},
        value=value,
        log_grad=log_grad,
        lap_over_a=lap_over_a,
        sup_a=Norm(1.0, True),
        sup_a_inv=Norm(1.0, True),
        sup_log_grad=Norm(0.0, True),
        is_radial=True,
        nondecreasing_radial=True,
        radial_log_grad_coeff=zero,
        radial_lap_over_a=lambda t, d: np.zeros_like(np.asarray(t, dtype=float)),
        radial_hess_log_a2_split=lambda t: (zero(t), zero(t)),
    )


def arctan_perturbation(eps: float) -> Perturbation:
    if not eps > 0:
        raise ParameterError("arctan perturbation requires eps > 0 (got %g)" % eps)

    def value(x):
        t = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
        return np.exp(0.5 * eps * np.arctan(t))

    def log_grad(x):
        x = np.asarray(x, dtype=float)
        t = np.sum(x**2, axis=-1)
        return (eps / (1.0 + t * t))[..., None] * x

    def lap_over_a(x):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        t = np.sum(x**2, axis=-1)
        return _lap_over_a_radial(t, d)

    def _lap_over_a_radial(t, d):
        t = np.asarray(t, dtype=float)
        denom = (1.0 + t * t) ** 2
        return eps * (d + (d - 4.0) * t * t) / denom + eps * eps * t / denom

    def lam(t):
        t = np.asarray(t, dtype=float)
        return eps / (1.0 + t * t)

    def hess_split(t):
        # hess(log a^2) = 2 eps [I/(1+t^2) - 4 t x x^T/(1+t^2)^2]
        t = np.asarray(t, dtype=float)
        return (-8.0 * eps * t / (1.0 + t * t) ** 2, 2.0 * eps / (1.0 + t * t))

    return Perturbation(
        family="arctan",
        params={"eps": float(eps)},
        value=value,
        log_grad=log_grad,
        lap_over_a=lap_over_a,
        sup_a=Norm(math.exp(eps * math.pi / 4.0), True),
        sup_a_inv=Norm(1.0, True),
        sup_log_grad=Norm(eps * 3.0 ** 0.75 / 4.0, True),
        is_radial=True,
        nondecreasing_radial=True,
        radial_log_grad_coeff=lam,
        radial_lap_over_a=_lap_over_a_radial,
        radial_hess_log_a2_split=hess_split,
    )


def make_custom_perturbation(
    value: Callable,
    gradient: Callable,
    laplacian: Callable,
    dim: int,
) -> Perturbation:
    """Wrap user callables (value, gradient, Laplacian), each batched over
    (..., dim)-shaped points, as a Perturbation.

    Norms are grid estimates over a radial logarithmic grid along the
    coordinate axes and diagonals, flagged ``exact=False``.
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
    lg_finite = lg[np.isfinite(lg)]
    sup_lg = float(np.max(lg_finite)) if np.all(np.isfinite(lg)) else math.inf

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


def psi_radial(a: Perturbation, p: Potential, t: Array) -> Array:
    """psi as a function of t = |x|^2 for a radial potential/perturbation pair."""
    if a.family == "identity":
        return np.zeros_like(np.asarray(t, dtype=float))
    if not (a.is_radial and p.is_radial and a.radial_log_grad_coeff is not None):
        raise ParameterError("psi_radial requires a radial potential and perturbation")
    t = np.asarray(t, dtype=float)
    lam = a.radial_log_grad_coeff(t)
    lap = a.radial_lap_over_a(t, p.dim)
    v = p.radial_grad_coeff(t)
    return lap - 2.0 * lam * lam * t - v * lam * t


# --- admissibility conditions --------------------------------------------


def check_G(a: Perturbation, dim: int = 1) -> ConditionReport:
    """Boundedness of |grad a|/a, the admissibility condition for the
    path-reweighting representation."""
    if a.family == "identity":
        return ConditionReport("(G)", True, 0.0, True, False, "grad a = 0")
    if a.family == "arctan":
        eps = a.params["eps"]
        return ConditionReport(
            "(G)", True, eps * 3.0 ** 0.75 / 4.0, True, False,
            "closed-form maximum of eps sqrt(t)/(1+t^2) at t = 1/sqrt(3)",
        )
    pts = _probe_points(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        lg = np.sqrt(np.sum(np.asarray(a.log_grad(pts)) ** 2, axis=-1))
    finite = np.isfinite(lg)
    sup = float(np.max(lg[finite])) if np.any(finite) else math.inf
    if not np.all(finite):
        return ConditionReport(
            "(G)", False, sup, False, True,
            "warning: |grad a|/a overflows at large probe radius; treated as unbounded",
        )
    # growth heuristic: compare sups on nested radius shells
    r = np.sqrt(np.sum(pts**2, axis=-1))
    shells = [5.0, 15.0, 25.0]
    shell_sups = [float(np.max(lg[r <= s])) for s in shells if np.any(r <= s)]
    growing = len(shell_sups) > 1 and all(
        b > 1.1 * max(c, 1e-30) for b, c in zip(shell_sups[1:], shell_sups[:-1])
    )
    if growing:
        return ConditionReport(
            "(G)", False, sup, False, True,
            "warning: grid sup of |grad a|/a grows with the probe radius; unbounded",
        )
    return ConditionReport("(G)", True, sup, False, True, "grid estimate")


def check_BM(a: Perturbation, p: Potential) -> ConditionReport:
    """Sign and boundedness structure of the tilted Hessian hess(V_a).

    Condition (1): off-diagonal entries of hess(V_a) nonpositive (vacuous
    in d = 1).  Condition (2): row sums of hess(V_a) bounded above; in
    d = 1 this is the second derivative of V_a.  Verdicts in d > 1 are
    grid checks flagged heuristic.
    """
    d = p.dim
    t = _NORM_GRID_T
    if not (p.is_radial and p.radial_hess_split is not None and a.is_radial
            and a.radial_hess_log_a2_split is not None):
        raise ParameterError("check_BM supports radial potential/perturbation pairs")
    ap, bp = p.radial_hess_split(t)
    aa, ba = a.radial_hess_log_a2_split(t)
    a_tot = np.asarray(ap, dtype=float) + np.asarray(aa, dtype=float)
    b_tot = np.asarray(bp, dtype=float) + np.asarray(ba, dtype=float)

    if d == 1:
        second = a_tot * t + b_tot
        sup = float(np.max(second))
        tail_growing = second[-1] >= 0.999 * sup and second[-1] > second[t.size // 2]
        ok = not tail_growing
        detail = "condition (1) vacuous in d=1; sup of (V_a)'' over grid reported"
        if tail_growing:
            detail += "; still increasing at the grid edge, treated as unbounded above"
        return ConditionReport("(BM)", ok, sup, False, True, detail)

    # off-diagonal of hess(V_a) at |x|^2 = t maximized over directions:
    # entries are A(t) x_i x_j with max x_i x_j = t/2
    off_max = np.max(a_tot * t / 2.0)
    worst = float(off_max)
    ok = off_max <= 1e-12
    detail = "worst off-diagonal of hess(V_a) over grid: %.6g" % worst
    if not ok:
        idx = int(np.argmax(a_tot * t / 2.0))
        detail += " (violated at t = %.6g)" % float(t[idx])
    return ConditionReport("(BM)", bool(ok), worst, False, True, detail)


# --- text config parsing --------------------------------------------------


def parse_perturbation(text: str) -> Perturbation:
    """Parse a spec like ``perturbation=arctan eps=0.35``."""
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ParameterError("malformed perturbation token %r" % token)
        key, _, val = token.partition("=")
        fields[key] = val
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
