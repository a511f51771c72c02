import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from logsob.curvature import (
    BOX_HALFWIDTH,
    Certificate,
    SearchConfig,
    _check_radial_reduction,
    _halton,
    _nelder_mead,
    _nonneg_on_halfline,
    _point_objective,
    _radial_objective,
    _radial_search,
    _starts,
    certify_double_well,
    certify_quadric,
    kappa,
    kappa_tilde,
    quartic_beta,
)
from logsob.errors import EvaluationError, ParameterError
from logsob.perturbations import arctan_perturbation, identity_perturbation, psi_radial
from logsob.potentials import Radial, make_custom_potential, make_potential

SQ3 = math.sqrt(3.0)


def eps_quadric(d):
    return 8.0 / (3.0 * SQ3 * (d + 1))


# --- kappa -------------------------------------------------------------------

def test_kappa_gaussian_identity_closed_form():
    rep = kappa(make_potential("gaussian", 3, rho=1.5), identity_perturbation())
    assert rep.value == 3.0
    assert rep.certified and rep.method == "radial_closed_form"
    assert rep.argmin == 0.0


@pytest.mark.parametrize("d", [1, 2, 8])
def test_kappa_quadric_arctan_equals_eps_d(d):
    eps = eps_quadric(d)
    rep = kappa(make_potential("subbotin", d, alpha=4.0), arctan_perturbation(eps))
    assert rep.method == "polynomial_certificate"
    assert rep.certified
    assert rep.value == eps * d
    assert rep.argmin == 0.0


@pytest.mark.parametrize("p,eps", [
    (make_potential("subbotin", 1, alpha=4.0), 1.6),         # g(0) = 2 - eps^2 < 0
    (make_potential("double_well", 1, beta=0.25), 1.0),     # d = 1 surrogate dips
])
def test_kappa_falls_back_to_grid_when_certificate_fails(p, eps):
    a = arctan_perturbation(eps)
    rep = kappa(p, a)
    assert rep.method == "radial_grid" and not rep.certified
    assert rep.value == _radial_search(p, a, 2.0).value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 64), scale=st.floats(0.01, 1.0), beta=st.floats(0.001, 0.499),
       quadric=st.booleans())
def test_certified_kappa_matches_radial_grid(d, scale, beta, quadric):
    # the grid stays the oracle for every certificate-backed value
    eps = scale * 4.0 / (d + 1)
    a = arctan_perturbation(eps)
    if quadric:
        p, cert = make_potential("subbotin", d, alpha=4.0), certify_quadric(eps, d)
    else:
        p, cert = make_potential("double_well", d, beta=beta), certify_double_well(eps, d, beta)
    rep = kappa(p, a)
    grid = _radial_search(p, a, 2.0)
    if cert.valid:
        assert rep.method == "polynomial_certificate" and rep.certified
        assert rep.value == cert.kappa_if_valid
        assert abs(rep.value - grid.value) <= 1e-8
    else:
        assert rep.method == "radial_grid" and not rep.certified
        assert rep.value == grid.value


@pytest.mark.parametrize("d,eps,beta", [(2, 0.7, 0.3), (5, 0.4, None), (8, 0.3853, 0.48),
                                        (31, 0.1189, 0.0719)])
def test_reduction_polynomial_is_exact_for_d_ge_2(d, eps, beta):
    # kappa(t) - kappa(0) = t g(t) / (1 + t^2)^2 with g the certified quartic
    if beta is None:
        p, cert = make_potential("subbotin", d, alpha=4.0), certify_quadric(eps, d)
    else:
        p, cert = make_potential("double_well", d, beta=beta), certify_double_well(eps, d, beta)
    a = arctan_perturbation(eps)
    t = np.linspace(0.01, 5.0, 500)
    k = _radial_objective(p, a, t, 2.0)
    k0 = _radial_objective(p, a, np.asarray([0.0]), 2.0)[0]
    g = np.polyval(cert.coefficients, t)
    assert np.allclose((k - k0) * (1.0 + t * t) ** 2 / t, g, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("d,beta", [(1, 0.25), (2, 0.05), (7, 0.45)])
def test_kappa_double_well_arctan(d, beta):
    eps = 2.0 / (d + 1)
    rep = kappa(make_potential("double_well", d, beta=beta), arctan_perturbation(eps))
    assert abs(rep.value - (eps * d - 2 * beta)) <= 1e-8
    assert rep.argmin <= 1e-6


def test_kappa_subbotin_identity_is_zero():
    rep = kappa(make_potential("subbotin", 2, alpha=4.0), identity_perturbation())
    assert rep.value == 0.0 and rep.certified


def test_kappa_double_well_identity_is_minus_two_beta():
    rep = kappa(make_potential("double_well", 3, beta=0.2), identity_perturbation())
    assert rep.value == pytest.approx(-0.4, abs=0)


# --- kappa_tilde ---------------------------------------------------------------

def test_kappa_tilde_gaussian_identity():
    rep = kappa_tilde(make_potential("gaussian", 2, rho=1.0), identity_perturbation())
    assert rep.value == 1.0 and rep.certified


def test_kappa_tilde_subbotin_identity_d1():
    rep = kappa_tilde(make_potential("subbotin", 1, alpha=4.0), identity_perturbation())
    assert rep.value == 0.0


def test_kappa_tilde_relation_to_kappa():
    # kappa_tilde >= kappa - inf rho_-, with equality when both infima sit at 0
    p = make_potential("subbotin", 1, alpha=4.0)
    a = arctan_perturbation(0.5)
    k = kappa(p, a).value
    kt = kappa_tilde(p, a).value
    inf_rho = 0.0
    assert kt >= k - inf_rho - 1e-10
    assert kt == pytest.approx(0.5, abs=1e-8)


def test_identity_objectives_scale_pointwise():
    # with a = 1 the two objectives are 2 rho_- and rho_-: exact factor 2 everywhere
    p = make_potential("double_well", 2, beta=0.3)
    a = identity_perturbation()
    t = np.concatenate([[0.0], np.logspace(-6, 4, 100)])
    two = 2.0 * np.asarray(p.radial.rho_minus(t)) + psi_radial(a, p, t)
    one = np.asarray(p.radial.rho_minus(t)) + psi_radial(a, p, t)
    assert np.array_equal(two, 2.0 * one)


# --- objective value at t = 0 is linear in eps --------------------------------

@pytest.mark.parametrize("d", [1, 2, 16])
def test_value_at_origin_quadric(d):
    for eps in (0.1, 0.5, 1.0):
        a = arctan_perturbation(eps)
        p = make_potential("subbotin", d, alpha=4.0)
        val = 2.0 * p.radial.rho_minus(np.asarray([0.0]))[0] + psi_radial(a, p, np.asarray([0.0]))[0]
        assert val == eps * d


@pytest.mark.parametrize("d,beta", [(1, 0.25), (4, 0.1)])
def test_value_at_origin_double_well(d, beta):
    eps = 2.0 / (d + 1)
    a = arctan_perturbation(eps)
    p = make_potential("double_well", d, beta=beta)
    val = 2.0 * p.radial.rho_minus(np.asarray([0.0]))[0] + psi_radial(a, p, np.asarray([0.0]))[0]
    assert val == eps * d - 2 * beta


# --- quadric certificate -------------------------------------------------------

def test_certify_quadric_canonical_eps_all_dims():
    for d in range(1, 65):
        cert = certify_quadric(eps_quadric(d), d)
        assert cert.nonneg_on_halfline, f"d={d}"
        assert cert.kappa_if_valid == pytest.approx(eps_quadric(d) * d, abs=0)


def test_certify_quadric_necessary_condition():
    cert = certify_quadric(math.sqrt(2) + 0.01, 1)
    assert not cert.nonneg_on_halfline
    assert cert.details["g_at_0"] < 0


def test_certify_quadric_large_eps_large_d_fails():
    cert = certify_quadric(3.0 / math.sqrt(101), 100)
    assert not cert.nonneg_on_halfline
    # direct evaluation confirms the dip
    t = np.linspace(0, 5, 100001)
    g = np.polyval(cert.coefficients, t)
    assert g.min() < 0


def test_certify_quadric_rejects_bad_params():
    with pytest.raises(ParameterError):
        certify_quadric(-1.0, 2)
    with pytest.raises(ParameterError):
        certify_quadric(0.5, 0)


def test_certify_non_finite_and_huge_eps():
    with pytest.raises(ParameterError, match="finite"):
        certify_quadric(math.inf, 2)
    # eps^2 overflows, so g(0) = -inf: a verdict, not an error
    assert not certify_double_well(1e200, 2, 0.1).valid


def test_certificate_coefficients_pinned():
    eps, d = 0.3, 5
    cert = certify_quadric(eps, d)
    assert cert.coefficients == (2.0, -eps * 6, 4.0, -eps * 10, 2.0 - eps**2)
    eps, d, beta = 0.4, 3, 0.2
    cert = certify_double_well(eps, d, beta)
    assert cert.coefficients == (2.0, -eps * 4, 4.0 + eps * beta, -eps * 8, 2.0 - eps**2 + eps * beta)


def test_quadric_tangency_detected_as_nonnegative():
    # at d=1 and the canonical eps the polynomial touches zero at t = 1/sqrt(3)
    cert = certify_quadric(eps_quadric(1), 1)
    assert cert.nonneg_on_halfline
    t = 1.0 / SQ3
    assert abs(np.polyval(cert.coefficients, t)) < 1e-12


# --- double-well certificate ----------------------------------------------------

def test_certify_double_well_canonical_d_ge_2():
    for d in list(range(2, 17)) + [24, 32, 48, 64]:
        for beta in (0.05, 0.25, 0.45):
            cert = certify_double_well(2.0 / (d + 1), d, beta)
            assert cert.nonneg_on_halfline, f"d={d} beta={beta}"
            assert cert.valid
            assert cert.kappa_if_valid == pytest.approx(2.0 * d / (d + 1) - 2 * beta, abs=1e-15)


def test_certify_double_well_d1_polynomial_dips():
    # the printed surrogate polynomial is negative somewhere for d=1 at the
    # canonical eps; the curvature value itself is still eps*d - 2 beta
    # because the one-dimensional Hessian branch is steeper (see kappa tests)
    cert = certify_double_well(1.0, 1, 0.49)
    assert cert.kappa_if_valid == pytest.approx(0.02, abs=1e-12)
    assert not cert.nonneg_on_halfline
    t = np.linspace(0, 3, 30001)
    assert np.polyval(cert.coefficients, t).min() < 0


def test_certify_double_well_beta_zero_matches_quadric():
    d = 4
    eps = eps_quadric(d)
    cq = certify_quadric(eps, d)
    cdw = certify_double_well(eps, d, 0.0)
    assert cdw.coefficients == cq.coefficients
    assert cdw.nonneg_on_halfline == cq.nonneg_on_halfline


def test_certify_double_well_requires_eps_above_positivity_threshold():
    cert = certify_double_well(0.05, 2, 0.45)  # eps <= 2 beta / d
    assert not cert.valid
    assert cert.kappa_if_valid < 0


def test_quartic_beta():
    assert quartic_beta("quadric", None) == 0.0
    assert quartic_beta("double_well", 0.25) == 0.25
    assert quartic_beta("double_well", 0) == 0.0
    for family, beta, message in (("quadric", 0.0, "quadric takes no beta"),
                                  ("double_well", None, "double_well requires beta"),
                                  ("double_well", 0.5, r"beta must lie in \[0, 1/2\)"),
                                  ("double_well", -0.1, r"beta must lie in \[0, 1/2\)"),
                                  ("subbotin", None, "family must be quadric or double_well")):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            quartic_beta(family, beta)


def test_certify_double_well_param_errors():
    with pytest.raises(ParameterError):
        certify_double_well(0.5, 2, 0.6)
    with pytest.raises(ParameterError):
        certify_double_well(0.0, 2, 0.1)


# --- verdicts against a brute-force grid oracle ----------------------------------

def test_root_isolation_matches_grid_sign_oracle():
    rng = np.random.default_rng(123)
    t = np.linspace(0.0, 1000.0, 1_000_001)
    checked = 0
    for _ in range(500):
        d = int(rng.integers(1, 65))
        eps = float(rng.uniform(0.01, 1.6))
        beta = float(rng.uniform(0.0, 0.499))
        if rng.random() < 0.5:
            cert = certify_quadric(eps, d)
        else:
            cert = certify_double_well(eps, d, beta)
        gmin = float(np.min(np.polyval(cert.coefficients, t)))
        if abs(gmin) <= 1e-7:
            continue  # within the tangency dead band either verdict is defensible
        assert cert.nonneg_on_halfline == (gmin > 0), (d, eps, beta, gmin)
        checked += 1
    assert checked > 400


# --- the exact nonnegativity test against sympy --------------------------------

def sympy_nonneg(coeffs):
    """g >= 0 on [0, inf) for the exact rational value of the float
    coefficients (highest degree first), from sympy's real roots."""
    import sympy

    t = sympy.Symbol("t")
    g = sympy.Poly([sympy.Rational(*float(c).as_integer_ratio()) for c in coeffs], t)
    if g.LC() <= 0 or g.eval(0) < 0:
        return False
    return all(m % 2 == 0 for r, m in sympy.real_roots(g, multiple=False) if r > 0)


def from_roots(lead, roots):
    """Float coefficients, highest degree first, of lead * prod (t - r)^m."""
    c = np.asarray([lead], dtype=object)
    for r, m in roots:
        for _ in range(m):
            c = np.convolve(c, np.asarray([1, -r], dtype=object))
    return tuple(float(x) for x in c)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 64), eps=st.floats(0.01, 1.6), beta=st.floats(0.0, 0.499),
       quadric=st.booleans())
def test_certificate_verdict_matches_sympy(d, eps, beta, quadric):
    cert = certify_quadric(eps, d) if quadric else certify_double_well(eps, d, beta)
    assert cert.nonneg_on_halfline == sympy_nonneg(cert.coefficients)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lead=st.sampled_from([1, 2, 3, -1]),
       roots=st.lists(st.tuples(st.fractions(-3, 3, max_denominator=8), st.integers(1, 4)),
                      min_size=1, max_size=3, unique_by=lambda rm: rm[0]))
def test_multiple_roots_match_sympy(lead, roots):
    coeffs = from_roots(lead, roots)
    assert _nonneg_on_halfline(coeffs) == sympy_nonneg(coeffs)


@pytest.mark.parametrize("roots,expected", [
    ([(1, 2)], True),              # (t-1)^2
    ([(1, 3)], False),             # (t-1)^3
    ([(1, 4)], True),              # (t-1)^4
    ([(0, 1), (1, 3)], False),     # t (t-1)^3
    ([(-1, 1), (1, 2)], True),     # (t+1) (t-1)^2: the odd root is negative
    ([(1, 3), (2, 1)], False),     # g(0) > 0, odd roots at 1 and 2
])
def test_multiple_roots_pinned(roots, expected):
    assert _nonneg_on_halfline(from_roots(1, roots)) is expected


def test_last_ulp_cells_decided_exactly():
    # g has two roots near t = 0.81294 and dips to -8.8e-16 between them
    cert = certify_quadric(0.3502034993871258, 8)
    assert not cert.nonneg_on_halfline and not cert.valid
    # g > 0 on [0, inf) although it comes within rounding of zero
    assert certify_quadric(0.66944546440606, 2).valid


def bisect_tangency(certify, lo, hi):
    """Adjacent floats lo < hi with certify(lo) nonnegative and certify(hi) not."""
    assert certify(lo).nonneg_on_halfline and not certify(hi).nonneg_on_halfline
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        if certify(mid).nonneg_on_halfline:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("d,beta", [(1, None), (2, None), (8, None), (64, None),
                                    (2, 0.05), (8, 0.25), (31, 0.45)])
def test_cells_around_bisected_tangency_match_sympy(d, beta):
    if beta is None:
        certify = lambda e: certify_quadric(e, d)
    else:
        certify = lambda e: certify_double_well(e, d, beta)
    eps = bisect_tangency(certify, 0.5 / (d + 1), 1.5)
    cells = [eps]
    for _ in range(3):
        cells = [math.nextafter(cells[0], 0.0)] + cells + [math.nextafter(cells[-1], 2.0)]
    for e in cells:
        cert = certify(e)
        assert cert.nonneg_on_halfline == sympy_nonneg(cert.coefficients), (d, beta, e)
        assert cert.nonneg_on_halfline == (e <= eps)


# --- certificate-grid agreement ---------------------------------------------------

def test_certificate_grid_agreement_quadric():
    for d in list(range(1, 17)) + [32, 64]:
        eps = eps_quadric(d)
        cert = certify_quadric(eps, d)
        assert cert.nonneg_on_halfline
        rep = kappa(make_potential("subbotin", d, alpha=4.0), arctan_perturbation(eps))
        assert abs(rep.value - cert.kappa_if_valid) <= 1e-8
        assert rep.argmin <= 1e-6


def test_certificate_grid_agreement_double_well():
    for d in (2, 3, 8, 32):
        for beta in (0.05, 0.45):
            eps = 2.0 / (d + 1)
            cert = certify_double_well(eps, d, beta)
            assert cert.valid
            rep = kappa(make_potential("double_well", d, beta=beta), arctan_perturbation(eps))
            assert abs(rep.value - cert.kappa_if_valid) <= 1e-8
            assert rep.argmin <= 1e-6


# --- inf property and fallback paths ----------------------------------------------

def test_report_value_bounds_probed_points():
    p = make_potential("subbotin", 2, alpha=4.0)
    a = arctan_perturbation(0.4)
    rep = kappa(p, a)
    t = np.concatenate([[0.0], np.logspace(-8, 4, 2000)])
    vals = 2.0 * np.asarray(p.radial.rho_minus(t)) + psi_radial(a, p, t)
    assert np.all(rep.value <= vals + 1e-12)


def test_closed_forms_agree_with_point_evaluators():
    for d in (1, 2, 3, 8, 64):
        for p in (make_potential("gaussian", d, rho=0.7), make_potential("subbotin", d, alpha=4.0),
                  make_potential("subbotin", d, alpha=3.5),
                  make_potential("double_well", d, beta=0.2)):
            for a in (arctan_perturbation(0.05), arctan_perturbation(0.7),
                      arctan_perturbation(5.0)):
                for weight in (1.0, 2.0):
                    _check_radial_reduction(p, a, weight)


def test_wrong_closed_form_is_caught():
    # the d = 1 eigenvalue floor 3t - beta, put into a d = 3 double well
    # whose floor is t - beta
    p = make_potential("double_well", 3, beta=0.2)
    wrong = dataclasses.replace(p.radial, rho_minus=lambda t: 3.0 * np.asarray(t) - 0.2)
    with pytest.raises(EvaluationError, match="radial reduction invalid"):
        kappa_tilde(dataclasses.replace(p, radial=wrong), arctan_perturbation(0.5))


def test_overflowing_objective_is_not_reported_as_a_wrong_closed_form():
    # 2 rho overflows on both sides of the check: no closed form is wrong
    p = make_potential("gaussian", 2, rho=1e308)
    with pytest.raises(EvaluationError, match="^curvature objective is not finite at radius 0.5"):
        with np.errstate(over="ignore"):
            kappa(p, arctan_perturbation(0.3))


def test_unbounded_below_detection():
    # radial custom potential whose smallest eigenvalue decreases linearly
    p = make_custom_potential(
        2,
        value=lambda x: -np.sum(x**2, axis=-1) ** 1.5 / 3.0,
        gradient=lambda x: -np.sqrt(np.sum(x**2, axis=-1))[..., None] * x,
        hessian=lambda x: -np.sqrt(np.sum(np.asarray(x) ** 2)) * np.eye(2),
        radial=Radial(
            value=lambda t: -np.asarray(t, dtype=float) ** 1.5 / 3.0,
            grad_coeff=lambda t: -np.sqrt(np.asarray(t, dtype=float)),
            hess_split=lambda t: (np.zeros_like(t), -np.sqrt(np.asarray(t, dtype=float))),
            rho_minus=lambda t: -np.sqrt(np.asarray(t, dtype=float)),
        ),
    )
    rep = kappa(p, identity_perturbation())
    assert rep.value == -math.inf
    assert rep.details.get("unbounded_below")
    assert not rep.certified


def test_multistart_non_radial_quadratic():
    # x^T diag(1,2) x / 2: curvature infimum is 2 * 1
    p = make_custom_potential(
        2,
        value=lambda x: 0.5 * (x[..., 0] ** 2 + 2.0 * x[..., 1] ** 2),
        gradient=lambda x: np.stack([x[..., 0], 2.0 * x[..., 1]], axis=-1),
        hessian=lambda x: np.broadcast_to(np.diag([1.0, 2.0]), np.shape(x)[:-1] + (2, 2)).copy(),
    )
    rep = kappa(p, identity_perturbation())
    assert rep.method == "full_grid"
    assert not rep.certified
    assert rep.value == pytest.approx(2.0, abs=1e-6)
    assert rep.details["start_design"] == "origin + Halton"
    assert rep.details["evaluations"] > rep.details["n_starts"] == 64
    assert rep.details["descents_at_maxiter"] == 0


def _anisotropic_quartic(d):
    # x^T A x / 2 + sum x_i^4 / 4 with A = diag(linspace(1, 2, d)): kappa(0) = 2 + eps d
    diag = np.linspace(1.0, 2.0, d)
    idx = np.arange(d)

    def hessian(x):
        out = np.zeros(np.shape(x) + (d,))
        out[..., idx, idx] = diag + 3.0 * np.asarray(x) ** 2
        return out

    return make_custom_potential(
        d,
        value=lambda x: 0.5 * np.sum(diag * x * x, axis=-1) + 0.25 * np.sum(x**4, axis=-1),
        gradient=lambda x: diag * x + x**3,
        hessian=hessian,
    )


# a quadratic, Rosenbrock's function and an l1 distance
_NM_OBJECTIVES = (
    lambda x: float(np.sum(np.linspace(1, 4, x.size) * (x - 1) ** 2)),
    lambda x: float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2) + np.sum((1 - x) ** 2)),
    lambda x: float(np.sum(np.abs(x - 0.5))),
)


def test_nelder_mead_is_scipys_bit_for_bit():
    steps, n = Counter(), 0
    for d in (1, 2, 3, 5):
        p, a = _anisotropic_quartic(d), arctan_perturbation(0.3)
        curvature = lambda x: _point_objective(p, a, x, 2.0)
        starts = [np.zeros(d), np.full(d, BOX_HALFWIDTH), *_starts(4, d)[1:]]
        cases = [(f, x0, m) for f in _NM_OBJECTIVES for x0 in starts
                 for m in (400 * d, 15)]
        cases.append((curvature, starts[-1], 400 * d))
        for f, x0, maxiter in cases:
            res = minimize(f, x0, method="Nelder-Mead",
                           options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": maxiter})
            fun, x, evaluations, taken = _nelder_mead(f, x0, 1e-9, 1e-12, maxiter)
            assert np.array_equal(x, res.x) and fun == res.fun, (d, x0, maxiter)
            assert evaluations == res.nfev
            assert (taken["maxiter"] == 1) == (res.status == 2)
            steps += taken
            n += 1
    # the grid takes every kind of step, and stops both ways
    for kind in ("reflection", "expansion", "outside_contraction", "inside_contraction",
                 "shrink", "maxiter"):
        assert steps[kind] > 0, kind
    assert steps["maxiter"] < n


def test_halton_points_are_radical_inverses():
    assert np.array_equal(_halton(4, 2), [[1 / 2, 1 / 3], [1 / 4, 2 / 3], [3 / 4, 1 / 9],
                                          [1 / 8, 4 / 9]])
    assert _halton(0, 3).shape == (0, 3)
    # 1025 = 2^10 + 1 has eleven binary digits
    assert _halton(1025, 1)[-1, 0] == 0.5 + 2.0**-11


@pytest.mark.parametrize("n, d", [(1, 1), (4, 2), (64, 3), (64, 40)])
def test_start_design(n, d):
    starts = _starts(n, d)
    assert starts.shape == (n, d)
    assert np.array_equal(starts, _starts(n, d))
    assert np.array_equal(starts[0], np.zeros(d))
    assert np.all(np.abs(starts) < BOX_HALFWIDTH)
    assert len({tuple(x) for x in starts}) == n


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_starts", [1, 4])
def test_multistart_is_no_higher_than_at_the_origin(d, n_starts):
    p, a = _anisotropic_quartic(d), arctan_perturbation(0.3)
    rep = kappa(p, a, SearchConfig(n_starts=n_starts))
    at_origin = _point_objective(p, a, np.zeros(d), 2.0)
    assert at_origin == pytest.approx(2.0 + 0.3 * d, rel=1e-12)
    assert rep.method == "full_grid" and rep.value <= at_origin


@pytest.mark.parametrize("n_starts", [0, -1])
def test_search_config_needs_a_start(n_starts):
    with pytest.raises(ParameterError, match="n_starts must be at least 1"):
        SearchConfig(n_starts=n_starts)
