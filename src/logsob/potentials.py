"""Smooth confinement potentials on R^d.

A potential V defines the Gibbs measure with density proportional to
exp(-V) and the overdamped dynamics driven by -grad V.  Built-in families
are radial:

    gaussian(rho):      V(x) = rho |x|^2 / 2
    subbotin(alpha):    V(x) = |x|^alpha / alpha,  alpha > 2
    double_well(beta):  V(x) = |x|^4 / 4 - beta |x|^2 / 2,  beta in (0, 1/2)

Built-ins carry exact gradient and Hessian evaluators plus closed-form
spectral data in the squared radius t = |x|^2.  The Hessian of a radial
family splits as H(x) = A(t) x x^T + B(t) I, so its eigenvalues are
B(t) (tangential, multiplicity d-1, absent when d = 1) and A(t) t + B(t)
(radial).  Custom potentials are supplied as plain callables; no symbolic
differentiation is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, ParameterError

Array = np.ndarray


def jacobi_eigenvalues(matrix: Array) -> Array:
    """Eigenvalues of a real symmetric matrix, ascending, by LAPACK
    ``eigvalsh`` (only the lower triangle is read)."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("jacobi_eigenvalues expects a square matrix")
    return np.linalg.eigvalsh(a)


@dataclass(frozen=True)
class Potential:
    """Immutable potential with derivative evaluators.

    Evaluators accept arrays of shape (..., dim) and broadcast over the
    leading axes; they are pure functions and safe for concurrent use.
    ``radial_*`` fields are closed forms in t = |x|^2, present for the
    radial built-ins (and optionally for radial customs).
    """

    dim: int
    family: str
    params: dict
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array]
    is_radial: bool = False
    radial_rho_minus: Optional[Callable[[Array], Array]] = None
    radial_grad_coeff: Optional[Callable[[Array], Array]] = None
    radial_hess_split: Optional[Callable[[Array], tuple]] = None
    hessian_lower_bound: float = field(default=-math.inf)
    hessian_lower_bound_exact: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dim must be a positive integer (got %r)" % (self.dim,))


def _sqnorm(x: Array) -> Array:
    return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


def _eye_like(x: Array, dim: int) -> Array:
    shape = np.shape(x)[:-1] + (dim, dim)
    return np.broadcast_to(np.eye(dim), shape).copy()


def _outer(x: Array) -> Array:
    x = np.asarray(x, dtype=float)
    return x[..., :, None] * x[..., None, :]


def _gaussian(rho: float, dim: int) -> Potential:
    if not rho > 0:
        raise ParameterError("gaussian requires rho > 0 (got %g)" % rho)

    def value(x):
        return 0.5 * rho * _sqnorm(x)

    def gradient(x):
        return rho * np.asarray(x, dtype=float)

    def hessian(x):
        return rho * _eye_like(x, dim)

    return Potential(
        dim=dim,
        family="gaussian",
        params={"rho": float(rho)},
        value=value,
        gradient=gradient,
        hessian=hessian,
        is_radial=True,
        radial_rho_minus=lambda t: np.full_like(np.asarray(t, dtype=float), rho),
        radial_grad_coeff=lambda t: np.full_like(np.asarray(t, dtype=float), rho),
        radial_hess_split=lambda t: (
            np.zeros_like(np.asarray(t, dtype=float)),
            np.full_like(np.asarray(t, dtype=float), rho),
        ),
        hessian_lower_bound=float(rho),
        hessian_lower_bound_exact=True,
    )


def _subbotin(alpha: float, dim: int) -> Potential:
    if not alpha > 2:
        raise ParameterError("subbotin requires alpha > 2 (got %g)" % alpha)
    half = alpha / 2.0

    def value(x):
        return _sqnorm(x) ** half / alpha

    def grad(x):
        # |x|^(alpha-2) x, with the 0^negative power masked at the origin
        x = np.asarray(x, dtype=float)
        t = _sqnorm(x)
        safe_t = np.where(t > 0, t, 1.0)
        coeff = np.where(t > 0, safe_t ** (half - 1.0), 0.0)
        return coeff[..., None] * x

    def hessian(x):
        # (alpha-2)|x|^(alpha-4) x x^T + |x|^(alpha-2) I, vanishing at 0
        x = np.asarray(x, dtype=float)
        t = _sqnorm(x)
        safe_t = np.where(t > 0, t, 1.0)
        a_coef = np.where(t > 0, (alpha - 2.0) * safe_t ** (half - 2.0), 0.0)
        b_coef = np.where(t > 0, safe_t ** (half - 1.0), 0.0)
        return a_coef[..., None, None] * _outer(x) + b_coef[..., None, None] * _eye_like(x, dim)

    def grad_coeff(t):
        # |x|^(alpha-2) as a function of t = |x|^2
        t = np.asarray(t, dtype=float)
        safe_t = np.where(t > 0, t, 1.0)
        return np.where(t > 0, safe_t ** (half - 1.0), 0.0)

    def rho_minus_radial(t):
        # tangential eigenvalue for d >= 2; in d = 1 only V'' exists
        tang = grad_coeff(t)
        return (alpha - 1.0) * tang if dim == 1 else tang

    def hess_split(t):
        t = np.asarray(t, dtype=float)
        safe_t = np.where(t > 0, t, 1.0)
        return (
            np.where(t > 0, (alpha - 2.0) * safe_t ** (half - 2.0), 0.0),
            np.where(t > 0, safe_t ** (half - 1.0), 0.0),
        )

    return Potential(
        dim=dim,
        family="subbotin",
        params={"alpha": float(alpha)},
        value=value,
        gradient=grad,
        hessian=hessian,
        is_radial=True,
        radial_rho_minus=rho_minus_radial,
        radial_grad_coeff=grad_coeff,
        radial_hess_split=hess_split,
        hessian_lower_bound=0.0,
        hessian_lower_bound_exact=True,
    )


def _double_well(beta: float, dim: int) -> Potential:
    if not 0 < beta < 0.5:
        raise ParameterError("double_well requires beta in (0, 1/2) (got %g)" % beta)

    def value(x):
        t = _sqnorm(x)
        return 0.25 * t * t - 0.5 * beta * t

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return (_sqnorm(x) - beta)[..., None] * x

    def hessian(x):
        x = np.asarray(x, dtype=float)
        t = _sqnorm(x)
        return 2.0 * _outer(x) + (t - beta)[..., None, None] * _eye_like(x, dim)

    def rho_minus_radial(t):
        t = np.asarray(t, dtype=float)
        return 3.0 * t - beta if dim == 1 else t - beta

    return Potential(
        dim=dim,
        family="double_well",
        params={"beta": float(beta)},
        value=value,
        gradient=gradient,
        hessian=hessian,
        is_radial=True,
        radial_rho_minus=rho_minus_radial,
        radial_grad_coeff=lambda t: np.asarray(t, dtype=float) - beta,
        radial_hess_split=lambda t: (
            np.full_like(np.asarray(t, dtype=float), 2.0),
            np.asarray(t, dtype=float) - beta,
        ),
        hessian_lower_bound=-float(beta),
        hessian_lower_bound_exact=True,
    )


def _vectorize_point_fn(fn):
    def wrapped(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.asarray(fn(x), dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        vals = [np.asarray(fn(p), dtype=float) for p in flat]
        out = np.stack(vals)
        return out.reshape(x.shape[:-1] + out.shape[1:])

    return wrapped


_CUSTOM_PROBE_GRID = np.concatenate([[0.0], np.logspace(-4, 4, 257)])


def make_custom_potential(
    dim: int,
    value: Callable,
    gradient: Callable,
    hessian: Callable,
    vectorized: bool = True,
    radial_rho_minus: Optional[Callable] = None,
) -> Potential:
    """Wrap user callables (value, gradient, Hessian) as a Potential.

    The Hessian lower bound used by the non-explosion flag is estimated on
    a fixed radial probe grid along the axes and is not certified.
    ``radial_rho_minus`` may be supplied when the callables are known to be
    radially symmetric.
    """
    if dim < 1:
        raise ParameterError("dim must be a positive integer (got %r)" % (dim,))
    if not vectorized:
        value = _vectorize_point_fn(value)
        gradient = _vectorize_point_fn(gradient)
        hessian = _vectorize_point_fn(hessian)

    # grid estimate of inf rho_-(hessian); heuristic, recorded as such
    floor = math.inf
    for r2 in _CUSTOM_PROBE_GRID:
        x = np.zeros(dim)
        x[0] = math.sqrt(r2)
        h = np.asarray(hessian(x), dtype=float)
        floor = min(floor, float(jacobi_eigenvalues(h)[0]))

    return Potential(
        dim=dim,
        family="custom",
        params={},
        value=value,
        gradient=gradient,
        hessian=hessian,
        is_radial=radial_rho_minus is not None,
        radial_rho_minus=radial_rho_minus,
        hessian_lower_bound=floor,
        hessian_lower_bound_exact=False,
    )


def make_potential(family: str, dim: int, **params) -> Potential:
    """Construct a built-in potential; see the module docstring for families."""
    if family == "gaussian":
        return _gaussian(params.pop("rho", 1.0), dim)
    if family == "subbotin":
        if "alpha" not in params:
            raise ParameterError("subbotin requires alpha")
        return _subbotin(params.pop("alpha"), dim)
    if family == "double_well":
        if "beta" not in params:
            raise ParameterError("double_well requires beta")
        return _double_well(params.pop("beta"), dim)
    raise ParameterError("unknown potential family %r" % family)


def rho_minus(p: Potential, x: Array) -> float:
    """Smallest eigenvalue of the Hessian of V at a single point x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.dim,):
        raise ParameterError("x must have shape (%d,)" % p.dim)
    if not np.all(np.isfinite(x)):
        raise EvaluationError("rho_minus called with non-finite point", point=x)
    if p.radial_rho_minus is not None:
        return float(p.radial_rho_minus(float(np.dot(x, x))))
    h = np.asarray(p.hessian(x), dtype=float)
    if not np.all(np.isfinite(h)):
        raise EvaluationError("Hessian is non-finite", point=x)
    asym = float(np.max(np.abs(h - h.T)))
    if asym > 1e-10:
        raise EvaluationError("custom Hessian is not symmetric (max dev %.3e)" % asym, point=x)
    return float(jacobi_eigenvalues(h)[0])


def hessian_eigenvalues(p: Potential, x: Array) -> Array:
    """All Hessian eigenvalues at x, ascending (dense LAPACK eigensolve)."""
    h = np.asarray(p.hessian(np.asarray(x, dtype=float)), dtype=float)
    return jacobi_eigenvalues(h)


# --- text config parsing -------------------------------------------------

_FAMILY_PARAMS = {
    "gaussian": ("rho",),
    "subbotin": ("alpha",),
    "double_well": ("beta",),
}


def parse_potential(text: str) -> Potential:
    """Parse a spec like ``family=subbotin alpha=4 dim=8``."""
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ParameterError("malformed potential token %r" % token)
        key, _, val = token.partition("=")
        fields[key] = val
    family = fields.pop("family", None)
    if family is None:
        raise ParameterError("potential spec must contain family=...")
    try:
        dim = int(fields.pop("dim"))
    except KeyError:
        raise ParameterError("potential spec must contain dim=...") from None
    except ValueError:
        raise ParameterError("dim must be an integer") from None
    if family not in _FAMILY_PARAMS:
        raise ParameterError("unknown potential family %r" % family)
    params = {}
    for key, val in fields.items():
        if key not in _FAMILY_PARAMS[family]:
            raise ParameterError("unknown parameter %r for family %r" % (key, family))
        params[key] = float(val)
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
