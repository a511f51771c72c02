"""Smooth confinement potentials on R^d.

A potential V defines the Gibbs measure with density proportional to
exp(-V) and the overdamped dynamics driven by -grad V.  Built-in families
are radial:

    gaussian(rho):      V(x) = rho |x|^2 / 2
    subbotin(alpha):    V(x) = |x|^alpha / alpha,  alpha > 2
    double_well(beta):  V(x) = |x|^4 / 4 - beta |x|^2 / 2,  beta in (0, 1/2)

Each built-in states its closed forms in the squared radius t = |x|^2
once, as a :class:`Radial`: V, the gradient factor c with grad V = c x, the
Hessian split H(x) = A(t) x x^T + B(t) I and the smallest eigenvalue.  The
eigenvalues of the split are B(t) (tangential, multiplicity d-1, absent
when d = 1) and A(t) t + B(t) (radial).  The evaluators on x and the
eigenvalue floor derive from the profile, except that the Gaussian keeps
its own cheaper one-line evaluators.  Parameters must be finite.  Custom
potentials are supplied as plain callables; no symbolic differentiation
is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, ParameterError

Array = np.ndarray


def jacobi_eigenvalues(matrix: Array) -> Array:
    """Eigenvalues of a real symmetric matrix, ascending, by LAPACK
    ``eigvalsh`` (only the lower triangle is read).

    Raises EvaluationError when the matrix is not finite: LAPACK then
    either does not converge or returns eigenvalues that are wrong."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("jacobi_eigenvalues expects a square matrix")
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"symmetric eigensolve failed ({exc})", point=None) from None
    if not np.isfinite(a).all():
        raise EvaluationError("symmetric eigensolve of a non-finite matrix", point=None)
    return w


@dataclass(frozen=True)
class Radial:
    """Closed forms of a radial potential in t = |x|^2: V = value(t),
    grad V = grad_coeff(t) x, hess V = A x x^T + B I with (A, B) =
    hess_split(t), and the smallest Hessian eigenvalue rho_minus(t)."""

    value: Callable[[Array], Array]
    grad_coeff: Callable[[Array], Array]
    hess_split: Callable[[Array], tuple]
    rho_minus: Callable[[Array], Array]


@dataclass(frozen=True)
class Potential:
    """Immutable potential with derivative evaluators.

    Evaluators accept arrays of shape (..., dim) and broadcast over the
    leading axes; they are pure functions and safe for concurrent use.
    ``radial`` holds the closed forms in t = |x|^2 of the radial built-ins
    (and optionally of radial customs).
    """

    dim: int
    family: str
    params: dict
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array]
    radial: Optional[Radial] = None
    hessian_lower_bound: float = field(default=-math.inf)
    hessian_lower_bound_exact: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dim must be a positive integer (got %r)" % (self.dim,))


def _sqnorm(x: Array) -> Array:
    return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


def _eye(x: Array, dim: int) -> Array:
    return np.broadcast_to(np.eye(dim), np.shape(x)[:-1] + (dim, dim))


def _radial_potential(family: str, params: dict, dim: int, radial: Radial) -> Potential:
    """A built-in whose evaluators on x and exact eigenvalue floor (at
    t = 0 for every built-in) derive from its closed forms."""

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return radial.grad_coeff(_sqnorm(x))[..., None] * x

    def hessian(x):
        x = np.asarray(x, dtype=float)
        a_coef, b_coef = radial.hess_split(_sqnorm(x))
        # in place, so that at most two (..., dim, dim) arrays are alive
        h = x[..., :, None] * x[..., None, :]
        h *= a_coef[..., None, None]
        h += b_coef[..., None, None] * _eye(x, dim)
        return h

    return Potential(dim, family, params, lambda x: radial.value(_sqnorm(x)), gradient,
                     hessian, radial, float(radial.rho_minus(0.0)), True)


def _gaussian(rho: float, dim: int) -> Potential:
    if not 0 < rho < math.inf:
        raise ParameterError("gaussian requires finite rho > 0 (got %g)" % rho)

    def const(t):
        return np.full_like(np.asarray(t, dtype=float), rho)

    p = _radial_potential("gaussian", {"rho": float(rho)}, dim, Radial(
        lambda t: 0.5 * rho * np.asarray(t, dtype=float), const,
        lambda t: (np.zeros_like(np.asarray(t, dtype=float)), const(t)), const))
    # one-line evaluators of its own: the derived ones cost many times more
    # per call, and the SDE step calls them on every path block
    return replace(p, gradient=lambda x: rho * np.asarray(x, dtype=float),
                   hessian=lambda x: rho * _eye(x, dim))


def _subbotin(alpha: float, dim: int) -> Potential:
    if not 2 < alpha < math.inf:
        raise ParameterError("subbotin requires finite alpha > 2 (got %g)" % alpha)
    half = alpha / 2.0

    def power(t, k):
        # t^k with the 0^negative power masked at the origin
        return np.where(t > 0, np.where(t > 0, t, 1.0) ** k, 0.0)

    def grad_coeff(t):
        # |x|^(alpha-2): the exponent is positive, so t = 0 needs no mask
        return np.asarray(t, dtype=float) ** (half - 1.0)

    def rho_minus(t):
        # tangential eigenvalue for d >= 2; in d = 1 only V'' exists
        tang = grad_coeff(t)
        return (alpha - 1.0) * tang if dim == 1 else tang

    return _radial_potential("subbotin", {"alpha": float(alpha)}, dim, Radial(
        lambda t: np.asarray(t, dtype=float) ** half / alpha, grad_coeff,
        lambda t: ((alpha - 2.0) * power(np.asarray(t, dtype=float), half - 2.0), grad_coeff(t)),
        rho_minus))


def _double_well(beta: float, dim: int) -> Potential:
    if not 0 < beta < 0.5:
        raise ParameterError("double_well requires beta in (0, 1/2) (got %g)" % beta)

    def value(t):
        t = np.asarray(t, dtype=float)
        return 0.25 * t * t - 0.5 * beta * t

    def grad_coeff(t):
        return np.asarray(t, dtype=float) - beta

    def rho_minus(t):
        t = np.asarray(t, dtype=float)
        return 3.0 * t - beta if dim == 1 else t - beta

    return _radial_potential("double_well", {"beta": float(beta)}, dim, Radial(
        value, grad_coeff,
        lambda t: (np.full_like(np.asarray(t, dtype=float), 2.0), grad_coeff(t)), rho_minus))


_CUSTOM_PROBE_GRID = np.concatenate([[0.0], np.logspace(-4, 4, 257)])


def make_custom_potential(
    dim: int,
    value: Callable,
    gradient: Callable,
    hessian: Callable,
    radial: Optional[Radial] = None,
) -> Potential:
    """Wrap user callables (value, gradient, Hessian) as a Potential.

    The callables take points batched over (..., d).  The Hessian lower
    bound, which the Bakry-Emery and Holley-Stroock bounds read, is
    estimated on a fixed radial probe grid along the first axis and is not
    certified; a Hessian that is not symmetric on that grid is rejected.
    ``radial`` may be supplied when the callables are known to be radially
    symmetric; its closed forms are taken as given.
    """
    if dim < 1:
        raise ParameterError("dim must be a positive integer (got %r)" % (dim,))

    # grid estimate of inf rho_-(hessian); heuristic, recorded as such
    floor = math.inf
    for r2 in _CUSTOM_PROBE_GRID:
        x = np.zeros(dim)
        x[0] = math.sqrt(r2)
        h = np.asarray(hessian(x), dtype=float)
        asymmetry = _asymmetry(h)
        if asymmetry:
            raise ParameterError(f"{asymmetry} at x = {x.tolist()}")
        floor = min(floor, float(jacobi_eigenvalues(h)[0]))

    return Potential(
        dim=dim,
        family="custom",
        params={},
        value=value,
        gradient=gradient,
        hessian=hessian,
        radial=radial,
        hessian_lower_bound=floor,
        hessian_lower_bound_exact=False,
    )


# the parameter names of each built-in family
_FAMILY_PARAMS = {
    "gaussian": ("rho",),
    "subbotin": ("alpha",),
    "double_well": ("beta",),
}


def _check_family(family: str, keys) -> None:
    if family not in _FAMILY_PARAMS:
        raise ParameterError("unknown potential family %r" % family)
    for key in keys:
        if key not in _FAMILY_PARAMS[family]:
            raise ParameterError("unknown parameter %r for family %r" % (key, family))


def make_potential(family: str, dim: int, **params) -> Potential:
    """Construct a built-in potential; see the module docstring for families."""
    _check_family(family, params)
    if family == "gaussian":
        return _gaussian(params.get("rho", 1.0), dim)
    if family == "subbotin":
        if "alpha" not in params:
            raise ParameterError("subbotin requires alpha")
        return _subbotin(params["alpha"], dim)
    if "beta" not in params:
        raise ParameterError("double_well requires beta")
    return _double_well(params["beta"], dim)


def rho_minus(p: Potential, x: Array) -> float:
    """Smallest eigenvalue of the Hessian of V at a single point x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.dim,):
        raise ParameterError("x must have shape (%d,)" % p.dim)
    if not np.all(np.isfinite(x)):
        raise EvaluationError("rho_minus called with non-finite point", point=x)
    if p.radial is not None:
        return float(p.radial.rho_minus(float(np.dot(x, x))))
    h = np.asarray(p.hessian(x), dtype=float)
    if not np.all(np.isfinite(h)):
        raise EvaluationError("Hessian is non-finite", point=x)
    asymmetry = _asymmetry(h)
    if asymmetry:
        raise EvaluationError(asymmetry, point=x)
    return float(jacobi_eigenvalues(h)[0])


def _asymmetry(h: Array) -> Optional[str]:
    """Why the custom Hessian ``h`` is rejected, or None when it is
    symmetric: the eigenvalue floor reads only the lower triangle, while
    the tangent flow multiplies by the whole matrix."""
    dev = float(np.max(np.abs(h - h.T)))
    return "custom Hessian is not symmetric (max dev %.3e)" % dev if dev > 1e-10 else None


def hessian_eigenvalues(p: Potential, x: Array) -> Array:
    """All Hessian eigenvalues at x, ascending (dense LAPACK eigensolve)."""
    h = np.asarray(p.hessian(np.asarray(x, dtype=float)), dtype=float)
    return jacobi_eigenvalues(h)


# --- text config parsing -------------------------------------------------


def spec_fields(text: str, kind: str) -> dict:
    """The key=value tokens of a ``kind`` spec ("potential" or
    "perturbation") as a dict; each key may appear once."""
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ParameterError("malformed %s token %r" % (kind, token))
        key, _, val = token.partition("=")
        if key in fields:
            raise ParameterError("%s spec repeats %s=" % (kind, key))
        fields[key] = val
    return fields


def parse_potential(text: str) -> Potential:
    """Parse a spec like ``family=subbotin alpha=4 dim=8``."""
    fields = spec_fields(text, "potential")
    family = fields.pop("family", None)
    if family is None:
        raise ParameterError("potential spec must contain family=...")
    try:
        dim = int(fields.pop("dim"))
    except KeyError:
        raise ParameterError("potential spec must contain dim=...") from None
    except ValueError:
        raise ParameterError("dim must be an integer") from None
    _check_family(family, fields)
    params = {}
    for key, val in fields.items():
        try:
            params[key] = float(val)
        except ValueError:
            raise ParameterError(
                "malformed number in potential token %r" % f"{key}={val}") from None
    return make_potential(family, dim, **params)


def render_potential(p: Potential) -> str:
    """Inverse of :func:`parse_potential` for built-in families."""
    if p.family == "custom":
        raise ParameterError("custom potentials have no text form")
    parts = ["family=%s" % p.family]
    for key in _FAMILY_PARAMS[p.family]:
        parts.append("%s=%.17g" % (key, p.params[key]))
    parts.append("dim=%d" % p.dim)
    return " ".join(parts)
