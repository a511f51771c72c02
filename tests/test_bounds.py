import math

import numpy as np
import pytest

from logsob.bounds import (
    bakry_emery_bound,
    dimension_sweep,
    envelope_constant,
    fk_bound,
    fk_mono_bound,
    holley_stroock_bound,
    optimize_epsilon,
)
from logsob.curvature import certify_double_well
from logsob.errors import ParameterError
from logsob.perturbations import (
    arctan_perturbation,
    identity_perturbation,
    make_custom_perturbation,
)
from logsob.potentials import Radial, make_custom_potential, make_potential

SQ3 = math.sqrt(3.0)


# --- Feynman-Kac bound --------------------------------------------------------

def test_fk_gaussian_identity_is_exactly_two():
    rep = fk_bound(make_potential("gaussian", 2, rho=1.0), identity_perturbation())
    assert rep.valid and rep.certified
    assert rep.constant == 2.0


def test_fk_reduces_to_bakry_emery_for_identity():
    for rho in (0.25, 1.0, 3.0):
        p = make_potential("gaussian", 3, rho=rho)
        fk = fk_bound(p, identity_perturbation())
        be = bakry_emery_bound(p)
        assert be.valid
        assert fk.constant == be.constant


def test_fk_quadric_arctan_closed_form_constant():
    for d in (1, 2, 8):
        eps = 8.0 / (3 * SQ3 * (d + 1))
        rep = fk_bound(make_potential("subbotin", d, alpha=4.0), arctan_perturbation(eps))
        assert rep.valid
        expected = 4.0 * math.exp(eps * math.pi / 4) / (eps * d)
        assert rep.constant == pytest.approx(expected, rel=1e-8)


def test_fk_subbotin_identity_invalid_kappa_zero():
    rep = fk_bound(make_potential("subbotin", 2, alpha=4.0), identity_perturbation())
    assert not rep.valid
    assert rep.constant == math.inf
    assert "kappa_a > 0" in rep.failed()
    kappa_verdict = [v for v in rep.preconditions if v.name == "kappa_a > 0"][0]
    assert "kappa = 0" in kappa_verdict.detail


@pytest.mark.parametrize("c", [1.0, 1e-7], ids=["overflowing", "growing"])
def test_fk_unbounded_custom_perturbation_invalid(c):
    # a = exp(c |x|^2): |grad a|/a = 2 c |x| is unbounded, and the report
    # says so in both verdicts that read it
    a = make_custom_perturbation(
        value=lambda x: np.exp(c * np.sum(x**2, axis=-1)),
        gradient=lambda x: 2 * c * x * np.exp(c * np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (2 * c + 4 * c * c * np.sum(x**2, axis=-1))
        * np.exp(c * np.sum(x**2, axis=-1)),
        dim=1,
    )
    rep = fk_bound(make_potential("gaussian", 1, rho=1.0), a)
    assert not rep.valid
    assert {"(G)", "sup |grad a| finite"} <= set(rep.failed())


# --- monotone-scope bound -------------------------------------------------------

def test_fk_mono_gaussian_d1():
    rep = fk_mono_bound(make_potential("gaussian", 1, rho=1.0), identity_perturbation())
    assert rep.valid
    assert rep.constant == 2.0
    assert "non-decreasing" in rep.notes or "scope" in rep.notes


def test_fk_mono_d2_rejected():
    rep = fk_mono_bound(make_potential("gaussian", 2, rho=1.0), identity_perturbation())
    assert not rep.valid
    assert "d=1 restriction" in rep.failed()
    # a custom perturbation that reads x_2 is not probed on one-dimensional points
    tanh2 = make_custom_perturbation(
        value=lambda x: 2 + np.tanh(x[..., 1]),
        gradient=lambda x: np.stack([np.zeros(np.shape(x)[:-1]),
                                     1 - np.tanh(x[..., 1]) ** 2], axis=-1),
        laplacian=lambda x: -2 * np.tanh(x[..., 1]) * (1 - np.tanh(x[..., 1]) ** 2),
        dim=2,
    )
    rep = fk_mono_bound(make_potential("gaussian", 2, rho=1.0), tanh2)
    assert not rep.valid and rep.constant == math.inf
    assert rep.failed()[:2] == ["d=1 restriction", "a non-decreasing"]
    assert rep.preconditions[1].detail.startswith("not evaluated")


def test_fk_mono_subbotin_arctan_d1():
    eps = 0.5
    rep = fk_mono_bound(make_potential("subbotin", 1, alpha=4.0), arctan_perturbation(eps))
    assert rep.valid
    # the tilde curvature infimum sits at t=0 where it equals eps*d
    assert rep.constant == pytest.approx(2.0 / eps, rel=1e-8)


# --- Bakry-Emery ------------------------------------------------------------------

def test_bakry_emery_gaussian():
    rep = bakry_emery_bound(make_potential("gaussian", 5, rho=2.0))
    assert rep.valid and rep.certified
    assert rep.constant == 1.0


def test_bakry_emery_fails_for_non_convex_families():
    assert not bakry_emery_bound(make_potential("subbotin", 3, alpha=4.0)).valid
    assert not bakry_emery_bound(make_potential("double_well", 3, beta=0.25)).valid


# --- Holley-Stroock ------------------------------------------------------------------

def test_hs_gaussian_identity_reduces_to_be():
    rep = holley_stroock_bound(make_potential("gaussian", 2, rho=1.0), identity_perturbation())
    assert rep.valid and rep.certified
    assert rep.constant == 2.0


def test_hs_subbotin_arctan_d1_matches_manual_grid():
    eps = 0.3
    p = make_potential("subbotin", 1, alpha=4.0)
    a = arctan_perturbation(eps)
    rep = holley_stroock_bound(p, a)
    # manual evaluation of (V_a)'' = 3 r^2 + 2 eps (1 - 3 t^2) / (1 + t^2)^2, t = r^2
    t = np.concatenate([[0.0], np.logspace(-8, 6, 8192)])
    second = 3.0 * t + 2 * eps * (1 - 3 * t * t) / (1 + t * t) ** 2
    rho_a = second.min()
    assert rep.valid == (rho_a > 0)
    if rep.valid:
        assert rep.constant == pytest.approx(math.exp(eps * math.pi) * 2.0 / rho_a, rel=1e-10)
        assert not rep.certified  # grid verdict stays heuristic


def test_hs_identity_on_custom_potential_reads_the_hessian_floor():
    # x^T diag(1, 2) x / 2: V_a = V, so the bound is Bakry-Emery's, from a grid estimate
    p = make_custom_potential(
        2,
        value=lambda x: 0.5 * (x[..., 0] ** 2 + 2.0 * x[..., 1] ** 2),
        gradient=lambda x: np.stack([x[..., 0], 2.0 * x[..., 1]], axis=-1),
        hessian=lambda x: np.broadcast_to(np.diag([1.0, 2.0]), np.shape(x)[:-1] + (2, 2)).copy(),
    )
    rep = holley_stroock_bound(p, identity_perturbation())
    assert rep.valid and not rep.certified
    assert rep.constant == bakry_emery_bound(p).constant == 2.0
    assert rep.preconditions[-1].heuristic
    assert "grid estimate" in rep.preconditions[-1].detail


def _cos_potential(d):
    # |x|^2/2 + 0.2 sum cos x_i: uniformly convex (rho = 0.8), not radial
    return make_custom_potential(
        d,
        value=lambda x: np.sum(x**2 / 2 + 0.2 * np.cos(x), axis=-1),
        gradient=lambda x: x - 0.2 * np.sin(x),
        hessian=lambda x: (1 - 0.2 * np.cos(x))[..., :, None] * np.eye(d),
    )


def _tanh_perturbation(d):
    # a = 2 + tanh(x_1): bounded above and below, not radial
    def gradient(x):
        g = np.zeros(np.shape(x))
        g[..., 0] = 1 - np.tanh(x[..., 0]) ** 2
        return g

    return make_custom_perturbation(
        value=lambda x: 2 + np.tanh(x[..., 0]),
        gradient=gradient,
        laplacian=lambda x: -2 * np.tanh(x[..., 0]) * (1 - np.tanh(x[..., 0]) ** 2),
        dim=d,
    )


@pytest.mark.parametrize("pair", ["custom potential", "custom perturbation"])
def test_hs_non_radial_pair_is_an_invalid_report(pair):
    p, a = ((_cos_potential(2), arctan_perturbation(0.3)) if pair == "custom potential"
            else (make_potential("gaussian", 2, rho=1.0), _tanh_perturbation(2)))
    rep = holley_stroock_bound(p, a)
    assert not rep.valid and not rep.certified and rep.constant == math.inf
    assert rep.failed() == ["rho_-(hess V_a) > 0"]
    verdict = rep.preconditions[-1]
    assert verdict.heuristic
    assert verdict.detail.startswith("not evaluated: needs a radial potential/perturbation pair")


def test_hs_unbounded_perturbation_invalid():
    a = make_custom_perturbation(
        value=lambda x: np.exp(np.sum(x**2, axis=-1)),
        gradient=lambda x: 2 * x * np.exp(np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (2 + 4 * np.sum(x**2, axis=-1)) * np.exp(np.sum(x**2, axis=-1)),
        dim=1,
    )
    rep = holley_stroock_bound(make_potential("gaussian", 1, rho=1.0), a)
    assert not rep.valid
    assert "a and 1/a bounded" in rep.failed()


# --- eps optimization ------------------------------------------------------------------

def test_optimize_epsilon_quadric_d1():
    eps, rep = optimize_epsilon("quadric", 1)
    assert eps == pytest.approx(4.0 / (3 * SQ3), abs=0)
    assert rep.valid and rep.certified
    assert rep.constant == pytest.approx(3 * SQ3 * math.exp(math.pi / (3 * SQ3)), rel=1e-12)
    assert rep.constant == pytest.approx(9.512, abs=5e-4)


def test_optimize_epsilon_quadric_matches_closed_form():
    for d in range(1, 65):
        eps, rep = optimize_epsilon("quadric", d)
        closed = (3 * SQ3 * (d + 1) / (2 * d)) * math.exp(2 * math.pi / (3 * SQ3 * (d + 1)))
        assert abs(rep.constant - closed) <= 1e-12 * closed
        assert rep.constant <= 3 * math.e * SQ3


def test_optimize_epsilon_double_well_formula():
    for d in (1, 2, 8):
        for beta in (0.1, 0.45):
            eps, rep = optimize_epsilon("double_well", d, beta)
            assert eps == pytest.approx(2.0 / (d + 1), abs=0)
            expected = 4 * (d + 1) / (2 * d * (1 - beta) - 2 * beta) * math.exp(math.pi / (2 * (d + 1)))
            assert rep.constant == pytest.approx(expected, rel=1e-12)
            assert rep.valid
            assert rep.constant <= 4 * math.e / (1 - 2 * beta)


def test_optimize_epsilon_double_well_d1_uncertified_but_valid():
    # the printed surrogate polynomial fails in d=1; kappa falls back to the grid
    eps, rep = optimize_epsilon("double_well", 1, 0.25)
    assert rep.valid and not rep.certified
    kappa_verdict = [v for v in rep.preconditions if v.name == "kappa_a > 0"][0]
    assert kappa_verdict.ok and kappa_verdict.heuristic
    assert "radial_grid" in kappa_verdict.detail


def test_optimize_epsilon_rejects_bad_beta():
    with pytest.raises(ParameterError):
        optimize_epsilon("double_well", 3, 0.5)
    with pytest.raises(ParameterError):
        optimize_epsilon("double_well", 3, None)


# the beta rule of the command line holds in the library too
@pytest.mark.parametrize("call, message", [
    (lambda: optimize_epsilon("quadric", 3, 0.3), "quadric takes no beta"),
    (lambda: envelope_constant("quadric", 0.3), "quadric takes no beta"),
    (lambda: dimension_sweep("quadric", [2], beta=0.3), "quadric takes no beta"),
    (lambda: certify_double_well(0.5, 2, None), "double_well requires beta"),
], ids=["optimize_epsilon", "envelope_constant", "dimension_sweep", "certify_double_well"])
def test_quartic_beta_rule_holds_in_the_library(call, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


# --- sweeps ------------------------------------------------------------------

def test_sweep_quadric_rows_below_envelope():
    rows = dimension_sweep("quadric", range(1, 33))
    assert len(rows) == 32
    bounds = [r.bound for r in rows]
    assert all(b <= 3 * math.e * SQ3 for b in bounds)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))  # decreasing in d
    assert bounds[-1] > 1.5 * SQ3  # approaching 3 sqrt3 / 2 e^0 ~ 2.598 from above
    assert all(r.valid for r in rows)


def test_sweep_double_well_envelope():
    rows = dimension_sweep("double_well", range(1, 33), beta=0.25)
    assert all(r.bound <= 8 * math.e for r in rows)
    assert all(abs(r.kappa - (2 * r.d / (r.d + 1) - 0.5)) < 1e-12 for r in rows)


def test_sweep_empty_range_errors():
    with pytest.raises(ParameterError):
        dimension_sweep("quadric", [])


def test_envelope_constants():
    assert envelope_constant("quadric") == pytest.approx(14.1246, abs=1e-3)
    assert envelope_constant("double_well", 0.25) == pytest.approx(8 * math.e, rel=1e-15)
    with pytest.raises(ParameterError):
        envelope_constant("double_well", 0.7)


# --- report hygiene ------------------------------------------------------------------

def test_uncertified_reports_list_a_heuristic_precondition():
    reports = [
        fk_bound(make_potential("subbotin", 2, alpha=4.0), arctan_perturbation(0.3)),
        holley_stroock_bound(make_potential("subbotin", 1, alpha=4.0), arctan_perturbation(0.2)),
        optimize_epsilon("double_well", 1, 0.25)[1],
    ]
    for rep in reports:
        if not rep.certified:
            assert any(v.heuristic for v in rep.preconditions), rep.method


def test_invalid_reports_have_infinite_constant():
    rep = bakry_emery_bound(make_potential("double_well", 2, beta=0.3))
    assert not rep.valid and rep.constant == math.inf


# --- one report rule --------------------------------------------------------------


def _parent_certified(rep, p, a):
    """Each bound's own certified expression before one rule decided them
    all.  The last verdict is the curvature one, heuristic exactly when its
    value (kappa, kappa_tilde, rho_a) is not certified."""
    curvature_certified = not rep.preconditions[-1].heuristic
    if rep.method == "feynman_kac":
        return rep.valid and curvature_certified and a.sup_a.exact and a.sup_a_inv.exact
    if rep.method == "feynman_kac_monotone":
        return rep.valid and curvature_certified
    if rep.method == "bakry_emery":
        return rep.valid and p.hessian_lower_bound_exact
    assert rep.method == "holley_stroock"
    return rep.valid and curvature_certified and a.sup_a.exact and a.sup_a_inv.exact


def _report_grid():
    """(p, a, report) of every bound over built-in and custom inputs; the
    custom ones, whose curvature takes the multistart search, in d = 1."""
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    radial = [identity_perturbation(), arctan_perturbation(0.3), arctan_perturbation(5.0)]
    custom = [_tanh_perturbation(1), make_custom_perturbation(
        value=lambda x: np.exp(np.sum(x**2, axis=-1)),
        gradient=lambda x: 2 * x * np.exp(np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (2 + 4 * np.sum(x**2, axis=-1)) * np.exp(np.sum(x**2, axis=-1)),
        dim=1)]
    pairs = [(make_potential(family, d, **{name: value}), radial)
             for d in (1, 2, 8)
             for family, name, value in (("gaussian", "rho", 1.0), ("gaussian", "rho", 0.5),
                                         ("subbotin", "alpha", 3.0), ("subbotin", "alpha", 4.0),
                                         ("double_well", "beta", 0.2))]
    # the custom perturbations on a built-in, a radial quadratic that states
    # its closed forms, and a non-radial potential
    pairs.append((make_potential("gaussian", 1, rho=1.0), custom))
    quadratic = make_custom_potential(
        1, lambda x: 0.5 * np.sum(x**2, axis=-1), lambda x: np.asarray(x, dtype=float),
        lambda x: np.ones(np.shape(x) + (1,)),
        radial=Radial(lambda t: 0.5 * np.asarray(t, dtype=float), one,
                      lambda t: (zero(t), one(t)), one))
    pairs += [(quadratic, radial + custom), (_cos_potential(1), radial + custom)]
    for p, perts in pairs:
        yield p, None, bakry_emery_bound(p)
        for a in perts:
            for bound in (fk_bound, fk_mono_bound, holley_stroock_bound):
                yield p, a, bound(p, a)


def test_one_rule_matches_each_bounds_own_certified_expression():
    n = n_valid = n_certified = 0
    with np.errstate(all="ignore"):
        for p, a, rep in _report_grid():
            assert rep.valid == all(v.ok for v in rep.preconditions)
            assert rep.certified == _parent_certified(rep, p, a), (rep.method, rep.inputs)
            assert (rep.constant == math.inf) == (not rep.valid), (rep.method, rep.inputs)
            n, n_valid, n_certified = n + 1, n_valid + rep.valid, n_certified + rep.certified
    # the grid reaches every outcome: invalid, valid but heuristic, certified
    assert n > n_valid > n_certified > 0
