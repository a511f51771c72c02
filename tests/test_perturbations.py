import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsob.errors import EvaluationError, ParameterError
from logsob.perturbations import (
    ARCTAN_EPS_MAX,
    Norm,
    arctan_perturbation,
    check_BM,
    check_G,
    identity_perturbation,
    make_custom_perturbation,
    parse_perturbation,
    psi,
    psi_radial,
    render_perturbation,
)
from logsob.potentials import Radial, make_custom_potential, make_potential


def closed_form_psi_quartic(eps, d, t):
    # radial closed form of psi for arctan(eps) against the quartic |x|^4/4
    return (
        eps * (d + (d - 4) * t * t) / (1 + t * t) ** 2
        - eps * t * t / (1 + t * t)
        - eps * eps * t / (1 + t * t) ** 2
    )


def closed_form_psi_double_well(eps, d, beta, t):
    return (
        eps * (d + (d - 4) * t * t) / (1 + t * t) ** 2
        - eps * (t - beta) * t / (1 + t * t)
        - eps * eps * t / (1 + t * t) ** 2
    )


# --- identity collapses everything ------------------------------------------

def test_identity_fields_vanish():
    a = identity_perturbation()
    p = make_potential("subbotin", 3, alpha=4.0)
    xs = np.random.default_rng(0).normal(size=(10, 3))
    assert np.all(psi(a, p, xs) == 0.0)
    assert np.all(a.log_grad(xs) == 0.0)
    assert a.sup_a.value == 1.0 and a.sup_a.exact
    assert a.sup_a_inv.value == 1.0 and a.sup_a_inv.exact
    assert a.sup_log_grad.value == 0.0


# --- arctan family -----------------------------------------------------------

def test_arctan_value_and_norms():
    eps = 0.35
    a = arctan_perturbation(eps)
    assert a.value(np.zeros((1, 2)))[0] == 1.0
    assert a.sup_a.value == pytest.approx(math.exp(eps * math.pi / 4), abs=0)
    assert a.sup_a.exact and a.sup_a_inv.exact
    # range: 1 <= a < sup on probes
    xs = np.random.default_rng(1).normal(size=(200, 2)) * 3
    vals = a.value(xs)
    assert np.all(vals >= 1.0)
    assert np.all(vals < a.sup_a.value)


def test_arctan_log_grad_matches_finite_differences():
    eps = 0.6
    a = arctan_perturbation(eps)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=3)
        h = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (math.log(a.value(x + e)) - math.log(a.value(x - e))) / (2 * h)
        assert np.allclose(a.log_grad(x), fd, rtol=1e-6, atol=1e-9)


def test_arctan_lap_over_a_matches_finite_differences():
    eps = 0.4
    a = arctan_perturbation(eps)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=2)
        h = 1e-4
        lap = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            lap += (a.value(x + e) - 2 * a.value(x) + a.value(x - e)) / h**2
        assert a.lap_over_a(x) * a.value(x) == pytest.approx(lap, rel=1e-5, abs=1e-7)


def test_arctan_requires_positive_eps():
    with pytest.raises(ParameterError, match="eps"):
        arctan_perturbation(-0.1)


@pytest.mark.parametrize("eps", [math.inf, math.nan, 1000.0])
def test_arctan_requires_finite_sup_a(eps):
    with pytest.raises(ParameterError, match="eps"):
        arctan_perturbation(eps)


# --- psi: generic expansion vs radial closed form ---------------------------

def test_psi_at_origin_equals_eps_times_d():
    a = arctan_perturbation(0.3)
    p = make_potential("subbotin", 2, alpha=4.0)
    assert psi(a, p, np.zeros(2)) == pytest.approx(0.6, abs=0)


def test_psi_dual_path_quartic():
    eps, d = 0.5, 3
    a = arctan_perturbation(eps)
    p = make_potential("subbotin", d, alpha=4.0)
    x = np.array([1.0, 0.0, 0.0])  # |x|^2 = 1
    generic = psi(a, p, x)
    closed = closed_form_psi_quartic(eps, d, 1.0)
    assert generic == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_psi_generic_vs_closed_form_quartic_random(d):
    eps = 0.37
    a = arctan_perturbation(eps)
    p = make_potential("subbotin", d, alpha=4.0)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(200, d)) * rng.choice([0.3, 1.0, 4.0], size=(200, 1))
    t = np.sum(xs**2, axis=-1)
    assert np.allclose(psi(a, p, xs), closed_form_psi_quartic(eps, d, t), atol=1e-10)
    assert np.allclose(psi_radial(a, p, t), closed_form_psi_quartic(eps, d, t), atol=1e-10)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_psi_generic_vs_closed_form_double_well_random(d):
    eps, beta = 0.52, 0.2
    a = arctan_perturbation(eps)
    p = make_potential("double_well", d, beta=beta)
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(200, d)) * rng.choice([0.2, 1.0, 3.0], size=(200, 1))
    t = np.sum(xs**2, axis=-1)
    closed = closed_form_psi_double_well(eps, d, beta, t)
    assert np.allclose(psi(a, p, xs), closed, atol=1e-10)
    assert np.allclose(psi_radial(a, p, t), closed, atol=1e-10)


def test_psi_non_finite_raises_with_point():
    a = make_custom_perturbation(
        value=lambda x: np.exp(np.sum(x**2, axis=-1)),
        gradient=lambda x: 2 * x * np.exp(np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (2 * x.shape[-1] + 4 * np.sum(x**2, axis=-1))
        * np.exp(np.sum(x**2, axis=-1)),
        dim=1,
    )
    p = make_potential("gaussian", 1, rho=1.0)
    with pytest.raises(EvaluationError) as exc:
        psi(a, p, np.array([[1e6]]))
    assert exc.value.point is not None


# --- condition (G) -----------------------------------------------------------

def test_check_G_identity():
    rep = check_G(identity_perturbation())
    assert rep.satisfied and rep.sup == 0.0 and rep.exact


def test_check_G_arctan_closed_form():
    eps = 0.8
    rep = check_G(arctan_perturbation(eps))
    assert rep.satisfied and rep.exact
    assert rep.sup == pytest.approx(eps * 3 ** 0.75 / 4, abs=0)
    # the closed form dominates a brute grid scan and is attained near t=1/sqrt(3)
    t = np.linspace(0, 50, 200001)
    brute = np.max(eps * np.sqrt(t) / (1 + t * t))
    assert brute <= rep.sup + 1e-12
    assert brute == pytest.approx(rep.sup, rel=1e-6)


def _exp_sq(c):
    """a = exp(c |x|^2) in d = 1, whose |grad a|/a = 2 c |x| grows with |x|."""
    return make_custom_perturbation(
        value=lambda x: np.exp(c * np.sum(x**2, axis=-1)),
        gradient=lambda x: 2 * c * x * np.exp(c * np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (2 * c + 4 * c * c * np.sum(x**2, axis=-1))
        * np.exp(c * np.sum(x**2, axis=-1)),
        dim=1,
    )


@pytest.mark.parametrize("make", [
    identity_perturbation,
    lambda: arctan_perturbation(0.8),
    lambda: make_custom_perturbation(
        value=lambda x: 2 + np.exp(-np.sum(x**2, axis=-1)),
        gradient=lambda x: -2 * x * np.exp(-np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (4 * np.sum(x**2, axis=-1) - 2) * np.exp(-np.sum(x**2, axis=-1)),
        dim=1),
    lambda: _exp_sq(1.0),
    lambda: _exp_sq(1e-7),
], ids=["identity", "arctan", "bounded custom", "overflowing custom", "growing custom"])
def test_check_G_reads_the_sup_of_the_perturbation(make):
    a = make()
    rep = check_G(a)
    assert rep.sup == a.sup_log_grad.value
    assert rep.satisfied == math.isfinite(a.sup_log_grad.value)


@pytest.mark.parametrize("c", [1.0, 1e-7], ids=["overflowing", "growing"])
def test_check_G_unbounded_custom_flagged(c):
    # exp(|x|^2) overflows on the probe grid; at c = 1e-7 |grad a|/a = 2e-7 |x|
    # stays finite and below 2e-4 there, but grows over the nested shells
    a = _exp_sq(c)
    assert a.sup_log_grad == Norm(math.inf, False)
    rep = check_G(a)
    assert not rep.satisfied
    assert rep.heuristic and not rep.exact
    assert "warning" in rep.detail


# --- condition (BM) ----------------------------------------------------------

def test_check_BM_d1_gaussian_identity():
    rep = check_BM(identity_perturbation(), make_potential("gaussian", 1, rho=1.0))
    assert rep.satisfied
    assert rep.sup == pytest.approx(1.0, abs=1e-12)


def test_check_BM_d2_subbotin_violated():
    p = make_potential("subbotin", 2, alpha=4.0)
    rep = check_BM(identity_perturbation(), p)
    assert not rep.satisfied
    # off-diagonal at x = (1,1) is (alpha-2)|x|^{alpha-4} x1 x2 = 2
    h = p.hessian(np.array([1.0, 1.0]))
    assert h[0, 1] == pytest.approx(2.0, abs=0)


def test_check_BM_row_sums_in_d8():
    # V = -|x|^4/4: hess V = -2 x x^T - |x|^2 I has nonpositive off-diagonal
    # entries, but its largest row sum grows like (sqrt 8 - 2) |x|^2
    d = 8
    p = make_custom_potential(
        d,
        value=lambda x: -np.sum(x**2, axis=-1) ** 2 / 4.0,
        gradient=lambda x: -np.sum(x**2, axis=-1)[..., None] * x,
        hessian=lambda x: -2.0 * np.outer(x, x) - np.dot(x, x) * np.eye(d),
        radial=Radial(
            value=lambda t: -np.asarray(t) ** 2 / 4.0,
            grad_coeff=lambda t: -np.asarray(t),
            hess_split=lambda t: (np.full_like(np.asarray(t), -2.0), -np.asarray(t)),
            rho_minus=lambda t: -3.0 * np.asarray(t),
        ),
    )
    rep = check_BM(identity_perturbation(), p)
    assert not rep.satisfied
    assert "condition (1)" in rep.detail and "condition (2)" in rep.detail
    # row 0 sums to B + A x_0 sum_j x_j; with A < 0 it is largest where
    # x_0 sum_j x_j is smallest: along the bottom eigenvector of (e_0 1^T + 1 e_0^T) / 2
    m = np.zeros((d, d))
    m[0, :] += 0.5
    m[:, 0] += 0.5
    x = np.linalg.eigh(m)[1][:, 0]
    assert np.sum(p.hessian(x)[0]) == pytest.approx(math.sqrt(d) - 2.0, rel=1e-12)


def test_check_BM_d3_gaussian_identity_satisfied():
    rep = check_BM(identity_perturbation(), make_potential("gaussian", 3, rho=2.0))
    assert rep.satisfied
    assert rep.sup == pytest.approx(2.0, abs=1e-12)


def test_check_BM_d1_arctan_subbotin_reports_grid_sup():
    rep = check_BM(arctan_perturbation(0.2), make_potential("subbotin", 1, alpha=4.0))
    assert rep.heuristic
    assert rep.sup > 0
    # (V_a)'' = 3 r^2 + ... is unbounded above, so condition (2) fails
    assert not rep.satisfied


# --- parsing -----------------------------------------------------------------

@pytest.mark.parametrize("text", ["perturbation=arctan eps=0.35", "perturbation=identity"])
def test_parse_render_round_trip(text):
    a = parse_perturbation(text)
    b = parse_perturbation(render_perturbation(a))
    assert a.family == b.family and a.params == b.params


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, ARCTAN_EPS_MAX, exclude_min=True, exclude_max=True))
def test_arctan_parse_render_round_trip_property(eps):
    text = render_perturbation(arctan_perturbation(eps))
    b = parse_perturbation(text)
    assert (b.family, b.params) == ("arctan", {"eps": eps})
    assert render_perturbation(b) == text


@pytest.mark.parametrize(
    "text",
    ["perturbation=arctan", "perturbation=nosuch", "eps=1", "perturbation=identity eps=2"],
)
def test_parse_errors(text):
    with pytest.raises(ParameterError):
        parse_perturbation(text)


@pytest.mark.parametrize("text, key", [
    ("perturbation=arctan eps=0.3 eps=0.4", "eps"),
    ("perturbation=arctan perturbation=identity eps=0.3", "perturbation"),
])
def test_parse_rejects_a_repeated_key(text, key):
    with pytest.raises(ParameterError, match=f"^perturbation spec repeats {key}=$"):
        parse_perturbation(text)
