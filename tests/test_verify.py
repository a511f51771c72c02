import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad

from logsob.bounds import bakry_emery_bound, fk_bound, fk_mono_bound, optimize_epsilon
from logsob.errors import EstimationError, ParameterError, PreconditionError
from logsob.perturbations import (
    arctan_perturbation,
    identity_perturbation,
    make_custom_perturbation,
)
from logsob import rng, verify
from logsob.potentials import make_custom_potential, make_potential
from logsob.sde import SdeConfig, SmoothFunction
from logsob.verify import (
    MALA_BURN_IN,
    MALA_CHAINS,
    MALA_TARGET_ACCEPTANCE,
    MALA_THINNING,
    builtin_test_family,
    entropy_ratio,
    lsi_audit,
    martingale_check,
    monotone_comparison,
    representation_check,
    sample_measure,
)

LINEAR2 = SmoothFunction(
    "linear",
    value=lambda x: 0.8 * x[..., 0] - 0.6 * x[..., 1],
    gradient=lambda x: np.broadcast_to(np.array([0.8, -0.6]), x.shape).copy(),
)

TANH = SmoothFunction(
    "tanh",
    value=lambda x: np.tanh(x[..., 0]),
    gradient=lambda x: (1.0 / np.cosh(x[..., 0]) ** 2)[..., None]
    * np.eye(1)[0] if x.shape[-1] == 1 else None,
)

ONE_PLUS_TANH = SmoothFunction(
    "one_plus_tanh",
    value=lambda x: 1.0 + np.tanh(x[..., 0]),
    gradient=lambda x: (1.0 / np.cosh(x[..., 0]) ** 2)[..., None],
)

CONST2 = SmoothFunction("const", value=lambda x: 2.0 * np.ones(x.shape[:-1]),
                        gradient=lambda x: np.zeros(x.shape))


# --- representation check ---------------------------------------------------

def test_representation_gaussian_linear():
    p = make_potential("gaussian", 2, rho=1.0)
    a = arctan_perturbation(0.3)
    cfg = SdeConfig(dt=1e-3, horizon=1.0, n_paths=20_000, seed=101, x0=(0.0, 0.0))
    rep = representation_check(p, a, LINEAR2, cfg)
    assert rep.passed
    target = math.exp(-1.0) * np.array([0.8, -0.6])
    assert np.all(np.abs(rep.lhs - target) <= 3 * rep.lhs_stderr + 5 * rep.dt)
    assert np.all(np.abs(rep.rhs - target) <= 3 * rep.rhs_stderr + 5 * rep.dt)


def test_representation_subbotin_tanh_d1():
    p = make_potential("subbotin", 1, alpha=4.0)
    a = arctan_perturbation(0.5)
    cfg = SdeConfig(dt=1e-3, horizon=0.5, n_paths=20_000, seed=103, x0=(0.3,))
    rep = representation_check(p, a, ONE_PLUS_TANH, cfg)
    assert rep.passed
    assert rep.details["pairwise"]["perturbed_vs_fd"]


def test_representation_constant_function():
    p = make_potential("gaussian", 2, rho=1.0)
    a = arctan_perturbation(0.3)
    cfg = SdeConfig(dt=0.01, horizon=0.2, n_paths=500, seed=105, x0=(0.0, 0.0))
    rep = representation_check(p, a, CONST2, cfg)
    assert rep.passed
    assert np.all(rep.lhs == 0.0) and np.all(rep.rhs == 0.0)


def test_representation_refuses_unbounded_perturbation():
    a = make_custom_perturbation(
        value=lambda x: np.exp(np.sum(x**2, axis=-1)),
        gradient=lambda x: 2 * x * np.exp(np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (2 + 4 * np.sum(x**2, axis=-1)) * np.exp(np.sum(x**2, axis=-1)),
        dim=1,
    )
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=0.01, horizon=0.1, n_paths=100, seed=1, x0=(0.0,))
    with pytest.raises(PreconditionError) as err:
        representation_check(p, a, ONE_PLUS_TANH, cfg)
    assert err.value.condition == "(G)"


@pytest.mark.parametrize("family,kwargs,dims", [
    ("gaussian", {"rho": 1.0}, (1, 2)),
    ("subbotin", {"alpha": 4.0}, (1, 2)),
    ("double_well", {"beta": 0.25}, (1, 2)),
])
def test_representation_matrix_over_seeds(family, kwargs, dims):
    for d in dims:
        p = make_potential(family, d, **kwargs)
        a = arctan_perturbation(0.4)
        f = ONE_PLUS_TANH if d == 1 else SmoothFunction(
            "one_plus_tanh_x1",
            value=lambda x: 1.0 + np.tanh(x[..., 0]),
            gradient=lambda x: np.concatenate(
                [(1.0 / np.cosh(x[..., 0]) ** 2)[..., None],
                 np.zeros(x.shape[:-1] + (x.shape[-1] - 1,))], axis=-1),
        )
        for seed in range(5):
            cfg = SdeConfig(dt=1e-3, horizon=0.5, n_paths=4_000, seed=seed,
                            x0=tuple([0.2] * d))
            rep = representation_check(p, a, f, cfg)
            assert rep.passed, (family, d, seed, rep.details)


# --- martingale check ---------------------------------------------------------

def test_martingale_identity_exact():
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=0.01, horizon=1.0, n_paths=500, seed=107, x0=(0.0,))
    rep = martingale_check(p, identity_perturbation(), cfg, checkpoints=(0.5, 1.0))
    assert rep.passed
    assert all(m == 1.0 for m in rep.details["means"].values())
    with pytest.raises(ParameterError, match="at least one checkpoint"):
        martingale_check(p, identity_perturbation(), cfg, checkpoints=())


def test_martingale_subbotin_multi_checkpoint():
    p = make_potential("subbotin", 2, alpha=4.0)
    a = arctan_perturbation(0.4)
    cfg = SdeConfig(dt=2e-3, horizon=2.0, n_paths=20_000, seed=109, x0=(0.0, 0.0))
    rep = martingale_check(p, a, cfg, checkpoints=(0.25, 0.5, 1.0, 2.0))
    assert rep.passed, rep.details


def test_martingale_refuses_violating_perturbation():
    a = make_custom_perturbation(
        value=lambda x: np.exp(np.sum(x**2, axis=-1)),
        gradient=lambda x: 2 * x * np.exp(np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (2 + 4 * np.sum(x**2, axis=-1)) * np.exp(np.sum(x**2, axis=-1)),
        dim=2,
    )
    p = make_potential("subbotin", 2, alpha=4.0)
    cfg = SdeConfig(dt=0.01, horizon=0.5, n_paths=100, seed=1, x0=(0.0, 0.0))
    with pytest.raises(PreconditionError):
        martingale_check(p, a, cfg, checkpoints=(0.5,))


def _bump_perturbation():
    """A perturbation whose probed sup |grad a|/a (~0) misses what paths
    started at the returned point visit.

    log a is a narrow bump centred at c, off the axes and the diagonal that
    the norm of a custom perturbation is probed on, so paths started at c
    meet values of order 1 / s."""
    c, s = np.array([2.0, -2.0]), 0.1

    def phi(x):
        return np.exp(-np.sum((x - c) ** 2, axis=-1) / (2 * s**2))

    a = make_custom_perturbation(
        value=lambda x: np.exp(phi(x)),
        gradient=lambda x: (np.exp(phi(x)) * -phi(x) / s**2)[..., None] * (x - c),
        laplacian=lambda x: np.exp(phi(x)) * phi(x) * (
            np.sum((x - c) ** 2, axis=-1) * (1 + phi(x)) / s**4 - 2 / s**2),
        dim=2,
    )
    assert a.sup_log_grad.value < 1e-30
    return a, tuple(c)


def test_martingale_fails_when_paths_exceed_the_assumed_log_gradient():
    # the steps resolve the bump, so E[R_t] = 1 holds within the noise and
    # only the observed norm fails the check
    a, x0 = _bump_perturbation()
    p = make_potential("gaussian", 2, rho=1.0)
    cfg = SdeConfig(dt=1e-4, horizon=0.02, n_paths=2000, seed=3, x0=x0)
    rep = martingale_check(p, a, cfg, checkpoints=(0.01, 0.02))
    assert all(abs(m - 1.0) <= 3.0 * rep.details["stderrs"][t]
               for t, m in rep.details["means"].items())
    assert rep.details["n_divergent"] == 0
    assert not rep.passed
    [reason] = rep.details["flagged"]
    assert "|grad a|/a" in reason


def test_representation_fails_when_paths_exceed_the_assumed_log_gradient():
    # the perturbed estimate's paths break the assumed norm; the plain and
    # finite-difference estimates are not flagged
    a, x0 = _bump_perturbation()
    p = make_potential("gaussian", 2, rho=1.0)
    cfg = SdeConfig(dt=1e-4, horizon=0.02, n_paths=2000, seed=3, x0=x0)
    rep = representation_check(p, a, LINEAR2, cfg)
    assert not rep.passed
    [reason] = rep.details["flagged"]
    assert "|grad a|/a" in reason
    assert reason.endswith(": perturbed")


# --- monotone comparison --------------------------------------------------------

def test_monotone_identity_trivial():
    p = make_potential("subbotin", 1, alpha=4.0)
    cfg = SdeConfig(dt=2e-3, horizon=1.0, n_paths=5_000, seed=111, x0=(0.0,))
    rep = monotone_comparison(p, identity_perturbation(), ONE_PLUS_TANH, cfg)
    assert rep.passed


def test_monotone_subbotin_arctan():
    p = make_potential("subbotin", 1, alpha=4.0)
    a = arctan_perturbation(0.5)
    cfg = SdeConfig(dt=1e-3, horizon=1.0, n_paths=20_000, seed=113, x0=(0.0,))
    rep = monotone_comparison(p, a, ONE_PLUS_TANH, cfg)
    assert rep.passed
    assert "radial" in rep.details["note"]


def test_monotone_rejects_decreasing_f():
    p = make_potential("subbotin", 1, alpha=4.0)
    cfg = SdeConfig(dt=0.01, horizon=0.5, n_paths=100, seed=1, x0=(0.0,))
    decreasing = SmoothFunction("neg_tanh", value=lambda x: 1.0 - np.tanh(x[..., 0]),
                                gradient=lambda x: -(1.0 / np.cosh(x[..., 0]) ** 2)[..., None])
    with pytest.raises(PreconditionError, match="non-decreasing"):
        monotone_comparison(p, identity_perturbation(), decreasing, cfg)


def test_monotone_rejects_d2():
    p = make_potential("subbotin", 2, alpha=4.0)
    cfg = SdeConfig(dt=0.01, horizon=0.5, n_paths=100, seed=1, x0=(0.0, 0.0))
    with pytest.raises(PreconditionError, match="d=1"):
        monotone_comparison(p, identity_perturbation(), ONE_PLUS_TANH, cfg)


def test_monotone_rejects_non_positive_f():
    p = make_potential("subbotin", 1, alpha=4.0)
    cfg = SdeConfig(dt=0.01, horizon=0.5, n_paths=100, seed=1, x0=(0.0,))
    with pytest.raises(PreconditionError, match="positive"):
        monotone_comparison(p, identity_perturbation(), TANH, cfg)


@pytest.mark.parametrize("dip,x0", [(10.0, 0.0), (80.0, 90.0)])
def test_monotone_reads_the_bound_s_verdict_on_a(dip, x0):
    # a = 2 + tanh x - sigmoid(x - dip) / 2 rises on [-4, 4] and dips near
    # x = dip: at 10 outside the comparison's own probe span from x0 = 0,
    # at 80 outside the bound's [-30, 30] but inside the span from x0 = 90
    def sig(x):
        return 1.0 / (1.0 + np.exp(-(x[..., 0] - dip)))

    def value(x):
        return 2.0 + np.tanh(x[..., 0]) - 0.5 * sig(x)

    def gradient(x):
        s = sig(x)
        return (1.0 / np.cosh(x[..., 0]) ** 2 - 0.5 * s * (1.0 - s))[..., None]

    def laplacian(x):
        s, th = sig(x), np.tanh(x[..., 0])
        return -2.0 * th / np.cosh(x[..., 0]) ** 2 - 0.5 * s * (1.0 - s) * (1.0 - 2.0 * s)

    a = make_custom_perturbation(value, gradient, laplacian, dim=1)
    p = make_potential("subbotin", 1, alpha=4.0)
    if x0 == 0.0:
        assert "a non-decreasing" in fk_mono_bound(p, a).failed()
    cfg = SdeConfig(dt=0.01, horizon=0.5, n_paths=100, seed=1, x0=(x0,))
    with pytest.raises(PreconditionError, match="a non-decreasing"):
        monotone_comparison(p, a, CONST2, cfg)


# --- sampling ----------------------------------------------------------------

def test_radial_exact_gaussian_chi_square_mean():
    p = make_potential("gaussian", 3, rho=1.0)
    s = sample_measure(p, 100_000, method="radial_exact", seed=7)
    m = np.mean(np.sum(s**2, axis=1))
    se = np.std(np.sum(s**2, axis=1), ddof=1) / math.sqrt(s.shape[0])
    assert abs(m - 3.0) <= 3 * se


def test_radial_exact_subbotin_fourth_moment_quadrature_oracle():
    p = make_potential("subbotin", 1, alpha=4.0)
    z = quad(lambda x: np.exp(-x**4 / 4), -np.inf, np.inf)[0]
    m4 = quad(lambda x: x**4 * np.exp(-x**4 / 4), -np.inf, np.inf)[0] / z
    s = sample_measure(p, 200_000, method="radial_exact", seed=11)
    emp = np.mean(s[:, 0] ** 4)
    se = np.std(s[:, 0] ** 4, ddof=1) / math.sqrt(s.shape[0])
    assert abs(emp - m4) <= 3.5 * se


def test_radial_exact_double_well_symmetric_bimodal():
    p = make_potential("double_well", 1, beta=0.25)
    s = sample_measure(p, 100_000, method="radial_exact", seed=13)[:, 0]
    se = np.std(s, ddof=1) / math.sqrt(s.size)
    assert abs(np.mean(s)) <= 3 * se
    # symmetric quantiles
    q = np.quantile(s, [0.25, 0.75])
    assert abs(q[0] + q[1]) < 0.02


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_radial_exact_subbotin_where_v_overflows(d):
    # |x|^1000 overflows past r ~ 2: the density is 0 at the end of the grid
    p = make_potential("subbotin", d, alpha=1000.0)
    with np.errstate(over="ignore"):
        r = np.linalg.norm(sample_measure(p, 2000, method="radial_exact", seed=7), axis=1)
    assert r.max() <= 1.02
    dens = lambda s: s ** (d - 1) * np.exp(-s**1000 / 1000)
    inside = quad(dens, 0, 1)[0]
    inside /= inside + quad(dens, 1, 1.1, points=[1.005, 1.01])[0]
    se = math.sqrt(inside * (1 - inside) / r.size)
    assert abs(np.mean(r <= 1) - inside) <= 4 * se


@pytest.mark.parametrize("family, params", [
    ("gaussian", {"rho": 1.0}), ("gaussian", {"rho": 0.5}),
    ("subbotin", {"alpha": 3.0}), ("subbotin", {"alpha": 4.0}),
    ("double_well", {"beta": 0.25}), ("double_well", {"beta": 0.45}),
])
@pytest.mark.parametrize("d", [1, 2, 8, 64])
def test_cumulative_simpson_is_scipys_bit_for_bit_on_the_radial_grids(monkeypatch, family,
                                                                      params, d):
    calls, simpson = [], verify._cumulative_simpson

    def spy(y, h):
        calls.append((y, h, simpson(y, h)))
        return calls[-1][2]

    monkeypatch.setattr(verify, "_cumulative_simpson", spy)
    sample_measure(make_potential(family, d, **params), 10, method="radial_exact", seed=0)
    (y, h, cdf), = calls
    r = np.linspace(0.0, h * (y.size - 1), y.size)
    assert np.array_equal(cdf, cumulative_simpson(y, x=r, initial=0.0))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 17, 64, 1001])
@pytest.mark.parametrize("log2_h", [-14, -3, 0, 5])
def test_cumulative_simpson_is_scipys_bit_for_bit_on_uniform_grids(n, log2_h):
    gen = np.random.default_rng([n, log2_h + 20])
    h = 2.0**log2_h
    x = h * np.arange(n)
    y = gen.standard_normal(n)
    assert np.array_equal(verify._cumulative_simpson(y, h), cumulative_simpson(y, x=x, initial=0.0))


def test_radial_grid_spacing_is_exactly_constant():
    # the constant Simpson weights need it at every r_max = 4 * 2**k the
    # sampler's doubling loop can reach, on its 2**14 + 1 nodes
    for k in range(60):
        r_max = 4.0 * 2.0**k
        r = np.linspace(0.0, r_max, verify._RADIAL_NODES + 1)
        assert np.all(np.diff(r) == r_max / verify._RADIAL_NODES), k


def _anisotropic_quadratic():
    return make_custom_potential(
        2,
        value=lambda x: 0.5 * (x[..., 0] ** 2 + 2 * x[..., 1] ** 2),
        gradient=lambda x: np.stack([x[..., 0], 2 * x[..., 1]], axis=-1),
        hessian=lambda x: np.broadcast_to(np.diag([1.0, 2.0]), np.shape(x)[:-1] + (2, 2)).copy(),
    )


def test_radial_exact_requires_radial_potential():
    with pytest.raises(PreconditionError):
        sample_measure(_anisotropic_quadratic(), 100, method="radial_exact", seed=0)


def test_mala_matches_exact_sampler_moments():
    p = make_potential("subbotin", 2, alpha=4.0)
    n, n_chains = 100_000, 64
    s_exact = sample_measure(p, n, method="radial_exact", seed=17)
    s_mala = sample_measure(p, n, method="mala", seed=19)
    r_exact = np.linalg.norm(s_exact, axis=1)
    r_mala = np.linalg.norm(s_mala, axis=1)
    # MALA samples interleave 64 independent chains round-robin; the honest
    # standard error of a chain-averaged moment is the between-chain spread
    usable = (r_mala.size // n_chains) * n_chains
    chains = r_mala[:usable].reshape(-1, n_chains)
    for k in (1, 2, 3, 4):
        me = np.mean(r_exact**k)
        chain_means = np.mean(chains**k, axis=0)
        mm = float(np.mean(chain_means))
        se_mala = float(np.std(chain_means, ddof=1) / math.sqrt(n_chains))
        se = math.sqrt(np.var(r_exact**k, ddof=1) / n + se_mala**2)
        assert abs(me - mm) <= 3 * se, (k, me, mm, se)


def _reference_mala(p, n, seed):
    """The MALA loop written plainly, with a fresh array for every state:
    the sampler's in-place loop must reproduce it bit for bit."""
    gen = rng.stream(seed, rng.TAG_MALA)
    d = p.dim
    x = gen.standard_normal((MALA_CHAINS, d)) * 0.5
    v = np.asarray(p.value(x), dtype=float)
    g = np.asarray(p.gradient(x), dtype=float)
    log_tau = math.log(0.1)
    per_chain = -(-n // MALA_CHAINS)
    out = np.empty((per_chain * MALA_CHAINS, d))
    collected = 0
    for step in range(MALA_BURN_IN + per_chain * MALA_THINNING):
        tau = math.exp(log_tau)
        xi = gen.standard_normal((MALA_CHAINS, d))
        prop = x - tau * g + math.sqrt(2.0 * tau) * xi
        v_prop = np.asarray(p.value(prop), dtype=float)
        g_prop = np.asarray(p.gradient(prop), dtype=float)
        fwd = np.sum((prop - x + tau * g) ** 2, axis=1)
        bwd = np.sum((x - prop + tau * g_prop) ** 2, axis=1)
        log_alpha = v - v_prop + (fwd - bwd) / (4.0 * tau)
        accept = np.log(gen.random(MALA_CHAINS)) < log_alpha
        x = np.where(accept[:, None], prop, x)
        v = np.where(accept, v_prop, v)
        g = np.where(accept[:, None], g_prop, g)
        if step < MALA_BURN_IN:
            rate = float(np.mean(accept))
            log_tau += (rate - MALA_TARGET_ACCEPTANCE) / math.sqrt(1.0 + step)
        elif (step - MALA_BURN_IN + 1) % MALA_THINNING == 0:
            out[collected:collected + MALA_CHAINS] = x
            collected += MALA_CHAINS
    return out[:n]


@pytest.mark.parametrize("make, n", [
    (lambda: make_potential("gaussian", 1, rho=1.0), 1),
    (lambda: make_potential("gaussian", 3, rho=0.5), 100),
    (lambda: make_potential("subbotin", 2, alpha=3.0), 3001),
    (lambda: make_potential("subbotin", 3, alpha=3.0), 1),
    (lambda: make_potential("subbotin", 8, alpha=3.0), 100),
    (lambda: make_potential("subbotin", 2, alpha=4.0), 1),
    (lambda: make_potential("subbotin", 3, alpha=4.0), 3001),
    (lambda: make_potential("subbotin", 8, alpha=4.0), 65),
    (lambda: make_potential("double_well", 1, beta=0.25), 100),
    (lambda: make_potential("double_well", 2, beta=0.25), 1),
    (lambda: make_potential("double_well", 16, beta=0.25), 3001),
    (_anisotropic_quadratic, 100),
], ids=["gaussian-d1", "gaussian-d3", "subbotin3-d2", "subbotin3-d3", "subbotin3-d8",
        "subbotin4-d2", "subbotin4-d3", "subbotin4-d8", "double_well-d1", "double_well-d2",
        "double_well-d16", "custom"])
def test_mala_is_the_reference_loop_bit_for_bit(make, n):
    p = make()
    got = sample_measure(p, n, method="mala", seed=29)
    want = _reference_mala(p, n, 29)
    assert got.shape == want.shape == (n, p.dim)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha, dim, n, stuck", [(8.0, 8, 640, 6), (60.0, 2, 64, 6)])
def test_mala_chains_that_never_move_are_an_error(alpha, dim, n, stuck):
    # these chains start where the gradient step overshoots so far that no
    # proposal is ever accepted
    p = make_potential("subbotin", dim, alpha=alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EstimationError, match=f"^{stuck} of 64 MALA chains accepted no "):
            sample_measure(p, n, method="mala", seed=1)


def test_sampler_rejects_non_normalizable():
    from logsob.potentials import Radial, make_custom_potential

    p = make_custom_potential(
        1,
        value=lambda x: np.log1p(np.abs(x[..., 0])),  # density ~ 1/(1+|x|), not integrable
        gradient=lambda x: np.sign(x) / (1.0 + np.abs(x)),
        hessian=lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)),
        radial=Radial(
            value=lambda t: np.log1p(np.sqrt(t)),
            grad_coeff=lambda t: 1.0 / (np.sqrt(t) * (1.0 + np.sqrt(t))),
            hess_split=lambda t: (np.zeros_like(t), np.zeros_like(t)),
            rho_minus=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        ),
    )
    with pytest.raises(EstimationError):
        sample_measure(p, 100, method="radial_exact", seed=0)


def test_sample_measure_param_errors():
    p = make_potential("gaussian", 1, rho=1.0)
    with pytest.raises(ParameterError):
        sample_measure(p, 0, seed=0)
    with pytest.raises(ParameterError):
        sample_measure(p, 10, method="nosuch", seed=0)


# --- entropy ratio ---------------------------------------------------------------

def test_entropy_ratio_constant_function_flagged():
    p = make_potential("gaussian", 1, rho=1.0)
    s = sample_measure(p, 10_000, seed=23)
    est = entropy_ratio(p, CONST2, s)
    assert est.degenerate and est.ratio == 0.0
    assert est.entropy == pytest.approx(0.0, abs=1e-12)


def test_entropy_ratio_zero_function_is_degenerate():
    p = make_potential("gaussian", 1, rho=1.0)
    s = sample_measure(p, 1_000, seed=23)
    zero = SmoothFunction("zero", value=lambda x: np.zeros(x.shape[:-1]),
                          gradient=lambda x: np.zeros(x.shape))
    est = entropy_ratio(p, zero, s)
    assert est.degenerate
    assert (est.entropy, est.dirichlet, est.ratio) == (0.0, 0.0, 0.0)
    assert (est.entropy_stderr, est.dirichlet_stderr, est.ratio_stderr) == (0.0, 0.0, 0.0)


def test_entropy_ratio_gaussian_tilt_saturates_two():
    theta = 0.8
    p = make_potential("gaussian", 1, rho=1.0)
    f = SmoothFunction("tilt", value=lambda x: np.exp(0.5 * theta * x[..., 0]),
                       gradient=lambda x: 0.5 * theta * np.exp(0.5 * theta * x[..., 0])[..., None])
    s = sample_measure(p, 200_000, seed=29)
    est = entropy_ratio(p, f, s)
    assert est.ratio == pytest.approx(2.0, abs=0.1)
    # closed forms: Ent = (theta^2/2) e^{theta^2/2}, energy = (theta^2/4) e^{theta^2/2}
    assert est.entropy == pytest.approx(theta**2 / 2 * math.exp(theta**2 / 2), rel=0.05)
    assert est.dirichlet == pytest.approx(theta**2 / 4 * math.exp(theta**2 / 2), rel=0.05)


def test_entropy_ratio_degenerate_error():
    p = make_potential("gaussian", 1, rho=1.0)
    s = sample_measure(p, 1_000, seed=31)
    broken = SmoothFunction("broken", value=lambda x: 1.0 + (x[..., 0] > 0),
                            gradient=lambda x: np.zeros(x.shape))
    with pytest.raises(EstimationError, match="degenerate"):
        entropy_ratio(p, broken, s)


def test_entropy_nonnegative_across_family():
    p = make_potential("double_well", 1, beta=0.25)
    s = sample_measure(p, 20_000, seed=37)
    for f in builtin_test_family(1):
        est = entropy_ratio(p, f, s)
        assert est.entropy >= -1e-12


def test_entropy_ratio_needs_two_samples():
    p = make_potential("gaussian", 1, rho=1.0)
    f = builtin_test_family(1)[0]
    for n in (0, 1):
        with pytest.raises(EstimationError, match=f"only {n} samples"):
            entropy_ratio(p, f, sample_measure(p, 2, seed=3)[:n])


def _bootstrap_stderrs(f, samples, gen, n_resamples=2000):
    """Bootstrap standard errors of Ent(f^2), the energy and their ratio, each
    resample gathered from the samples: the reference for the delta method."""
    g = f.value(samples) ** 2
    glg = g * np.log(g)
    energy = np.sum(f.gradient(samples) ** 2, axis=-1)
    idx = gen.integers(0, len(samples), size=(n_resamples, len(samples)))
    mg = g[idx].mean(axis=1)
    ents, dirs = glg[idx].mean(axis=1) - mg * np.log(mg), energy[idx].mean(axis=1)
    return [float(np.std(x, ddof=1)) for x in (ents, dirs, ents / dirs)]


@pytest.mark.parametrize("dim", [1, 2])
def test_delta_method_stderrs_match_a_bootstrap(dim):
    # 2000 resamples carry about 1.6% noise of their own (1/sqrt(2 B)), and
    # at n = 3000 the two methods differ by O(1/n) beyond that: a 10% band.
    # Dropping the "+ 1" of IF_Ent moves every Ent stderr 2-12x, and dropping
    # the R |grad f|^2 term of IF_R moves some ratio stderr by 20-50%.
    p = make_potential("subbotin", dim, alpha=4.0)
    s = sample_measure(p, 3_000, seed=59)
    gen = np.random.default_rng(61)
    for f in builtin_test_family(dim):
        est = entropy_ratio(p, f, s)
        got = [est.entropy_stderr, est.dirichlet_stderr, est.ratio_stderr]
        assert got == pytest.approx(_bootstrap_stderrs(f, s, gen), rel=0.1), f.name


def test_delta_method_stderrs_are_calibrated():
    # the Gaussian tilt's Ent(f^2), energy and ratio 2 have closed forms; over
    # 300 independent sample sets the +-1.96 stderr intervals must cover them
    # at a rate inside the binomial 3-sigma band around 0.95
    theta, n_sets = 0.8, 300
    p = make_potential("gaussian", 1, rho=1.0)
    f = SmoothFunction("tilt", value=lambda x: np.exp(0.5 * theta * x[..., 0]),
                       gradient=lambda x: 0.5 * theta * np.exp(0.5 * theta * x[..., 0])[..., None])
    scale = math.exp(theta**2 / 2)
    truth = np.array([theta**2 / 2 * scale, theta**2 / 4 * scale, 2.0])
    covered = np.zeros(3)
    for seed in range(n_sets):
        est = entropy_ratio(p, f, sample_measure(p, 2_000, seed=seed))
        points = np.array([est.entropy, est.dirichlet, est.ratio])
        stderrs = np.array([est.entropy_stderr, est.dirichlet_stderr, est.ratio_stderr])
        covered += np.abs(points - truth) <= 1.96 * stderrs
    half_width = 3.0 * math.sqrt(0.95 * 0.05 / n_sets)
    assert np.all(np.abs(covered / n_sets - 0.95) <= half_width), covered / n_sets


# --- audit ------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_audit_ratios_equal_each_function_alone(dim):
    p = make_potential("gaussian", dim, rho=1.0)
    s = sample_measure(p, 5_000, seed=67)
    rep = lsi_audit(p, bakry_emery_bound(p), s, seed=71)
    alone = {f.name: entropy_ratio(p, f, s, seed=71) for f in builtin_test_family(dim)}
    assert rep.details["ratios"] == {name: (est.ratio, est.ratio_stderr)
                                     for name, est in alone.items()}
    worst = rep.details["worst_function"]
    assert float(rep.lhs) == alone[worst].ratio == max(e.ratio for e in alone.values())


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_audit_reports_one_ratio_per_test_function(dim):
    names = [f.name for f in builtin_test_family(dim)]
    assert len(set(names)) == len(names) == (10 if dim == 1 else 15)
    if dim == 1:
        assert "tilt(theta=0.8)" in names
    p = make_potential("gaussian", dim, rho=1.0)
    rep = lsi_audit(p, bakry_emery_bound(p), sample_measure(p, 2_000, seed=5))
    assert list(rep.details["ratios"]) == names
    assert rep.details["worst_function"] in names


def test_audit_gaussian_bound_two_saturating():
    p = make_potential("gaussian", 1, rho=1.0)
    bound = bakry_emery_bound(p)
    s = sample_measure(p, 100_000, seed=41)
    rep = lsi_audit(p, bound, s)
    assert rep.passed and "flagged" not in rep.details
    # the exponential tilts approach the constant: the audit is not vacuous
    assert float(rep.lhs) > 1.5


def test_audit_fails_on_a_ratio_that_is_not_finite():
    """On samples of spread about 450, f^2 of the steepest tilt overflows
    and its ratio is NaN: the audit fails and names it, and the worst
    function is the largest finite ratio, which alone would pass."""
    p = make_potential("gaussian", 2, rho=5e-6)
    with np.errstate(all="ignore"):
        rep = lsi_audit(p, bakry_emery_bound(p), sample_measure(p, 2_000, seed=3), seed=3)
    assert all(math.isnan(v) for v in rep.details["ratios"]["tilt(theta=1, u=e1)"])
    assert rep.details["flagged"] == ["ratio or standard error is not finite: "
                                      "tilt(theta=1, u=e1)"]
    assert not rep.passed
    assert math.isfinite(float(rep.lhs))
    assert float(rep.lhs) == rep.details["ratios"][rep.details["worst_function"]][0]
    assert float(rep.lhs) + 3.0 * float(rep.lhs_stderr) <= float(rep.rhs)


def test_audit_refuses_invalid_bound():
    p = make_potential("subbotin", 2, alpha=4.0)
    bound = bakry_emery_bound(p)  # invalid for the quartic
    s = sample_measure(p, 1_000, seed=43)
    with pytest.raises(PreconditionError):
        lsi_audit(p, bound, s)


def test_audit_is_one_sided_in_wording():
    p = make_potential("gaussian", 1, rho=1.0)
    s = sample_measure(p, 10_000, seed=47)
    rep = lsi_audit(p, bakry_emery_bound(p), s)
    assert "falsify" in rep.tolerance_model


def test_audit_subbotin_fk_bound_d1():
    p = make_potential("subbotin", 1, alpha=4.0)
    _, bound = optimize_epsilon("quadric", 1)
    s = sample_measure(p, 50_000, seed=53)
    rep = lsi_audit(p, bound, s)
    assert rep.passed
    assert float(rep.lhs) < bound.constant
