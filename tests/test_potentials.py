import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsob.errors import EvaluationError, ParameterError
from logsob.potentials import (
    hessian_eigenvalues,
    jacobi_eigenvalues,
    make_custom_potential,
    make_potential,
    parse_potential,
    render_potential,
    rho_minus,
)


def fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(g, x, h=1e-5):
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((g(x + e) - g(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


# --- hand-evaluated values -------------------------------------------------

def test_gaussian_at_origin():
    p = make_potential("gaussian", 3, rho=1.0)
    x = np.zeros(3)
    assert p.value(x) == 0.0
    assert np.all(p.gradient(x) == 0.0)
    assert np.array_equal(p.hessian(x), np.eye(3))


def test_subbotin_quartic_hand_values():
    # V = |x|^4/4 at (1,0): value 1/4, gradient (1,0), Hessian [[3,0],[0,1]]
    p = make_potential("subbotin", 2, alpha=4.0)
    x = np.array([1.0, 0.0])
    assert p.value(x) == pytest.approx(0.25, abs=0)
    assert np.allclose(p.gradient(x), [1.0, 0.0], atol=0)
    assert np.allclose(p.hessian(x), [[3.0, 0.0], [0.0, 1.0]], atol=0)


def test_double_well_hand_values():
    p = make_potential("double_well", 1, beta=0.25)
    x = np.array([1.0])
    assert p.value(x) == pytest.approx(0.25 - 0.125, abs=0)
    assert p.gradient(x)[0] == pytest.approx(0.75, abs=0)


@pytest.mark.parametrize(
    "family,kwargs,msg",
    [
        ("subbotin", {"alpha": 2.0}, "alpha"),
        ("subbotin", {"alpha": 1.5}, "alpha"),
        ("double_well", {"beta": 0.5}, "beta"),
        ("double_well", {"beta": -0.1}, "beta"),
        ("gaussian", {"rho": 0.0}, "rho"),
        ("nosuch", {}, "family"),
        ("gaussian", {"rho": float("inf")}, "rho"),
        ("subbotin", {"alpha": float("inf")}, "alpha"),
    ],
)
def test_parameter_errors_name_the_constraint(family, kwargs, msg):
    with pytest.raises(ParameterError, match=msg):
        make_potential(family, 2, **kwargs)


@pytest.mark.parametrize(
    "family,kwargs,key",
    [
        ("gaussian", {"rhoo": 3.0}, "rhoo"),
        ("subbotin", {"alpha": 4.0, "beta": 0.1}, "beta"),
        ("double_well", {"beta": 0.25, "rho": 1.0}, "rho"),
    ],
)
def test_unknown_keyword_is_rejected(family, kwargs, key):
    with pytest.raises(ParameterError, match=f"unknown parameter '{key}' for family '{family}'"):
        make_potential(family, 2, **kwargs)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_eigenvalue_floor_derives_from_profile(d):
    assert make_potential("gaussian", d, rho=0.7).hessian_lower_bound == 0.7
    assert make_potential("subbotin", d, alpha=3.5).hessian_lower_bound == 0.0
    assert make_potential("double_well", d, beta=0.3).hessian_lower_bound == -0.3


def test_dimension_must_be_positive():
    with pytest.raises(ParameterError, match="dim"):
        make_potential("gaussian", 0, rho=1.0)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 8.0, 1000.0])
def test_subbotin_grad_coeff_needs_no_mask_at_the_origin(alpha):
    """alpha/2 - 1 > 0, so t ** (alpha/2 - 1) is the origin-masked power
    bit for bit on every t >= 0, 0 and inf included."""
    t = np.array([0.0, 5e-324, 1e-300, 1.0, 1e300, np.inf])
    k = alpha / 2.0 - 1.0
    with np.errstate(over="ignore", under="ignore"):
        masked = np.where(t > 0, np.where(t > 0, t, 1.0) ** k, 0.0)
        got = make_potential("subbotin", 1, alpha=alpha).radial.grad_coeff(t)
    assert got.tobytes() == masked.tobytes()


# --- smallest Hessian eigenvalue -------------------------------------------

def test_rho_minus_subbotin_examples():
    p = make_potential("subbotin", 2, alpha=4.0)
    x = np.array([1.0, 1.0])  # |x|^2 = 2
    assert rho_minus(p, x) == pytest.approx(2.0, abs=1e-14)
    assert rho_minus(p, np.zeros(2)) == 0.0


def test_rho_minus_double_well_at_origin():
    p = make_potential("double_well", 3, beta=0.3)
    assert rho_minus(p, np.zeros(3)) == pytest.approx(-0.3, abs=0)
    evals = hessian_eigenvalues(p, np.zeros(3))
    assert evals[0] == pytest.approx(-0.3, abs=1e-12)


def test_rho_minus_d1_uses_scalar_second_derivative():
    # in d=1 the only eigenvalue is V''; for the quartic that is 3 x^2
    p = make_potential("subbotin", 1, alpha=4.0)
    x = np.array([1.2])
    assert rho_minus(p, x) == pytest.approx(3 * 1.2**2, rel=1e-14)
    assert rho_minus(p, x) == pytest.approx(hessian_eigenvalues(p, x)[0], abs=1e-12)


def test_rho_minus_rejects_non_finite():
    p = make_potential("gaussian", 2, rho=1.0)
    with pytest.raises(EvaluationError):
        rho_minus(p, np.array([np.nan, 0.0]))


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("gaussian", {"rho": 1.7}),
        ("subbotin", {"alpha": 4.0}),
        ("subbotin", {"alpha": 3.0}),
        ("subbotin", {"alpha": 6.5}),
        ("double_well", {"beta": 0.25}),
    ],
)
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_closed_form_matches_dense_eigensolve(family, kwargs, dim):
    p = make_potential(family, dim, **kwargs)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        x = rng.normal(size=dim) * rng.choice([0.1, 1.0, 3.0])
        closed = rho_minus(p, x)
        dense = hessian_eigenvalues(p, x)[0]
        assert abs(closed - dense) <= 1e-10 * max(1.0, abs(dense))


def test_jacobi_against_lapack():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 6, 12):
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2
        assert np.allclose(jacobi_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-10)


def test_jacobi_failure_is_an_evaluation_error():
    # LAPACK does not converge on this matrix and raises LinAlgError
    with pytest.raises(EvaluationError, match="did not converge"):
        jacobi_eigenvalues(np.diag([1.0, np.nan, 2.0]))
    # on these LAPACK converges, to [0, -0] and [nan, nan]
    for m in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(EvaluationError, match="non-finite"):
            jacobi_eigenvalues(np.array(m))


def test_radial_symmetry_under_rotations():
    rng = np.random.default_rng(11)
    for family, kwargs in [("gaussian", {"rho": 2.0}), ("subbotin", {"alpha": 4.0}),
                           ("double_well", {"beta": 0.4})]:
        p = make_potential(family, 3, **kwargs)
        for _ in range(20):
            x = rng.normal(size=3)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            assert p.value(q @ x) == pytest.approx(p.value(x), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("gaussian", {"rho": 0.8}),
        ("subbotin", {"alpha": 4.0}),
        ("subbotin", {"alpha": 3.5}),
        ("double_well", {"beta": 0.25}),
    ],
)
def test_finite_difference_consistency(family, kwargs):
    p = make_potential(family, 3, **kwargs)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=3) * 1.5
        if np.linalg.norm(x) < 0.2:
            continue
        g = p.gradient(x)
        g_fd = fd_gradient(p.value, x)
        assert np.allclose(g, g_fd, rtol=1e-6, atol=1e-8)
        h = p.hessian(x)
        h_fd = fd_jacobian(p.gradient, x)
        assert np.allclose(h, h_fd, rtol=1e-6, atol=1e-7)


def test_hessian_symmetry_builtin_exact():
    p = make_potential("double_well", 4, beta=0.1)
    rng = np.random.default_rng(3)
    x = rng.normal(size=4)
    h = p.hessian(x)
    assert np.max(np.abs(h - np.swapaxes(h, -1, -2))) == 0.0


def test_batched_evaluators_match_pointwise():
    p = make_potential("subbotin", 2, alpha=4.0)
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(40, 2))
    vals = p.value(xs)
    grads = p.gradient(xs)
    hs = p.hessian(xs)
    for i, x in enumerate(xs):
        assert vals[i] == pytest.approx(p.value(x), rel=1e-15)
        assert np.allclose(grads[i], p.gradient(x), rtol=1e-15)
        assert np.allclose(hs[i], p.hessian(x), rtol=1e-15)


# --- custom potentials -----------------------------------------------------

def test_custom_potential_wraps_callables():
    # anisotropic quadratic, x^T diag(1,2) x / 2
    d = np.array([1.0, 2.0])
    p = make_custom_potential(
        2,
        value=lambda x: 0.5 * float(np.sum(d * x**2)),
        gradient=lambda x: d * x,
        hessian=lambda x: np.diag(d),
    )
    x = np.array([1.0, 1.0])
    assert p.value(x) == pytest.approx(1.5)
    assert rho_minus(p, x) == pytest.approx(1.0, abs=1e-12)
    assert not p.hessian_lower_bound_exact
    assert p.hessian_lower_bound == pytest.approx(1.0, abs=1e-12)


def test_custom_asymmetric_hessian_rejected():
    with pytest.raises(ParameterError, match="symmetric"):
        make_custom_potential(
            2,
            value=lambda x: float(np.sum(x**2)),
            gradient=lambda x: 2 * x,
            hessian=lambda x: np.array([[2.0, 1e-6], [0.0, 2.0]]),
        )
    # symmetric on the first axis, where the construction probes, but not
    # at (1, 1)
    p = make_custom_potential(
        2,
        value=lambda x: float(np.sum(x**2)),
        gradient=lambda x: 2 * x,
        hessian=lambda x: np.array([[2.0, 1e-6 * x[1]], [0.0, 2.0]]),
    )
    with pytest.raises(EvaluationError, match="symmetric"):
        rho_minus(p, np.ones(2))


# --- config text round trip ------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "family=subbotin alpha=4 dim=8",
        "family=double_well beta=0.25 dim=3",
        "family=gaussian rho=1 dim=2",
    ],
)
def test_parse_render_round_trip(text):
    p = parse_potential(text)
    q = parse_potential(render_potential(p))
    assert q.family == p.family
    assert q.dim == p.dim
    assert q.params == p.params


def _open(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


# each built-in family with the open range its parameter accepts
_FAMILIES = st.one_of(
    st.tuples(st.just("gaussian"), st.just("rho"), _open(0.0, 1e300)),
    st.tuples(st.just("subbotin"), st.just("alpha"), _open(2.0, 1e300)),
    st.tuples(st.just("double_well"), st.just("beta"), _open(0.0, 0.5)),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_FAMILIES, st.integers(1, 64))
def test_parse_render_round_trip_property(family_param, dim):
    family, name, value = family_param
    text = render_potential(make_potential(family, dim, **{name: value}))
    q = parse_potential(text)
    assert (q.family, q.dim, q.params) == (family, dim, {name: value})
    assert render_potential(q) == text


@pytest.mark.parametrize(
    "text",
    [
        "family=subbotin dim=2",          # missing alpha
        "alpha=4 dim=2",                  # missing family
        "family=subbotin alpha=4",        # missing dim
        "family=subbotin alpha=4 dim=x",  # bad dim
        "family=gaussian rho=1 dim=2 junk",
        "family=gaussian beta=1 dim=2",   # wrong parameter
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParameterError):
        parse_potential(text)


@pytest.mark.parametrize("text, key", [
    ("family=gaussian rho=1 dim=2 dim=3", "dim"),
    ("family=gaussian rho=1 rho=2 dim=2", "rho"),
    ("family=gaussian family=subbotin alpha=4 dim=2", "family"),
])
def test_parse_rejects_a_repeated_key(text, key):
    with pytest.raises(ParameterError, match=f"^potential spec repeats {key}=$"):
        parse_potential(text)


def test_parse_keeps_the_malformed_number_message():
    with pytest.raises(ParameterError, match="malformed number in potential token 'rho=abc'"):
        parse_potential("family=gaussian rho=abc dim=1")
