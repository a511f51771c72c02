import math

import numpy as np
import pytest

from logsob.errors import EstimationError, ParameterError
from logsob.perturbations import arctan_perturbation, identity_perturbation
from logsob.potentials import make_potential
from logsob.rng import BLOCK_PATHS
from logsob.sde import (
    SdeConfig,
    SmoothFunction,
    estimate_expectation,
    estimate_fk_gradient,
    estimate_gradient_fd,
    payoff_tangent_gradient,
    payoff_terminal,
    payoff_weight,
    payoff_weighted_terminal,
    simulate,
)

LINEAR = SmoothFunction(
    "linear",
    value=lambda x: 0.8 * x[..., 0] + (-0.6) * x[..., 1] if x.shape[-1] > 1 else x[..., 0],
    gradient=lambda x: np.broadcast_to(
        np.array([0.8, -0.6]) if x.shape[-1] > 1 else np.array([1.0]), x.shape
    ).copy(),
)

CONST = SmoothFunction("const", value=lambda x: np.ones(x.shape[:-1]),
                     gradient=lambda x: np.zeros(x.shape))


def test_config_rounds_dt_downward():
    cfg = SdeConfig(dt=0.3, horizon=1.0, n_paths=10, seed=0, x0=(0.0,))
    assert cfg.n_steps == 4
    assert cfg.dt_eff == pytest.approx(0.25)
    assert cfg.dt_eff <= 0.3
    cfg2 = SdeConfig(dt=1e-3, horizon=1.0, n_paths=1, seed=0, x0=(0.0,))
    assert cfg2.n_steps == 1000 and cfg2.dt_eff == pytest.approx(1e-3, abs=0)


def test_config_validation():
    with pytest.raises(ParameterError):
        SdeConfig(dt=-0.1, horizon=1.0, n_paths=1, seed=0, x0=(0.0,))
    with pytest.raises(ParameterError):
        SdeConfig(dt=0.5, horizon=0.2, n_paths=1, seed=0, x0=(0.0,))
    with pytest.raises(ParameterError):
        SdeConfig(dt=0.1, horizon=1.0, n_paths=0, seed=0, x0=(0.0,))


def _assert_same_paths(b1, b2):
    assert np.array_equal(b1.x_t, b2.x_t)
    assert np.array_equal(b1.girsanov_log_weight, b2.girsanov_log_weight)
    assert np.array_equal(b1.psi_integral, b2.psi_integral)
    assert np.array_equal(b1.divergent, b2.divergent)
    assert np.array_equal(b1.log_weight_stochastic, b2.log_weight_stochastic)
    assert b1.checkpoint_log_weights.keys() == b2.checkpoint_log_weights.keys()
    for t, lw in b1.checkpoint_log_weights.items():
        assert np.array_equal(lw, b2.checkpoint_log_weights[t])
    assert b1.observed_sup_log_grad == b2.observed_sup_log_grad


def test_determinism_across_worker_counts():
    p = make_potential("subbotin", 2, alpha=4.0)
    a = arctan_perturbation(0.4)
    # more paths than one block so that several blocks exist
    cfg = SdeConfig(dt=0.01, horizon=0.1, n_paths=BLOCK_PATHS + 500, seed=42, x0=(0.5, -0.5))
    for variant in ("plain", "perturbed"):
        def run(workers, tangent):
            return simulate(p, a, cfg, variant=variant, track_stochastic_weight=True,
                            checkpoint_times=(0.05, 0.1), max_workers=workers, tangent=tangent)

        b1 = run(1, True)
        b4 = run(4, True)
        lean = [run(1, False), run(2, False)]
        assert np.array_equal(b1.j_t, b4.j_t)
        assert all(b.j_t is None for b in lean)
        # skipping the tangent flow leaves every other output bit-identical
        for other in [b4] + lean:
            _assert_same_paths(b1, other)


def test_tangent_payoff_needs_tangent_flow():
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=0.05, horizon=0.2, n_paths=8, seed=3, x0=(1.0,))
    batch = simulate(p, identity_perturbation(), cfg, tangent=False)
    assert batch.j_t is None
    with pytest.raises(ParameterError, match="tangent"):
        payoff_tangent_gradient(LINEAR)(batch)
    with pytest.raises(ParameterError, match="tangent"):
        estimate_expectation(p, identity_perturbation(), cfg, payoff_tangent_gradient(LINEAR),
                             tangent=False)


def test_seed_changes_draws():
    p = make_potential("gaussian", 1, rho=1.0)
    a = identity_perturbation()
    cfg1 = SdeConfig(dt=0.01, horizon=0.1, n_paths=100, seed=1, x0=(0.0,))
    cfg2 = SdeConfig(dt=0.01, horizon=0.1, n_paths=100, seed=2, x0=(0.0,))
    assert not np.array_equal(simulate(p, a, cfg1).x_t, simulate(p, a, cfg2).x_t)


# --- Ornstein-Uhlenbeck exactness ----------------------------------------------

def test_gaussian_tangent_flow_is_exact_scalar_recursion():
    rho, dt, horizon = 1.3, 1e-2, 0.5
    p = make_potential("gaussian", 2, rho=rho)
    cfg = SdeConfig(dt=dt, horizon=horizon, n_paths=50, seed=7, x0=(2.0, 0.0))
    batch = simulate(p, identity_perturbation(), cfg)
    expected = 1.0
    for _ in range(cfg.n_steps):
        expected = expected - cfg.dt_eff * (expected * rho)
    assert np.all(batch.j_t[:, 0, 0] == expected)
    assert np.all(batch.j_t[:, 1, 1] == expected)
    assert np.all(batch.j_t[:, 0, 1] == 0.0)
    assert np.all(batch.j_t[:, 1, 0] == 0.0)
    # spectral norm identity for the OU tangent flow
    assert abs(abs(expected) - (1 - rho * cfg.dt_eff) ** cfg.n_steps) < 1e-13


def test_gaussian_identity_weight_is_one():
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=1e-2, horizon=1.0, n_paths=200, seed=3, x0=(2.0,))
    batch = simulate(p, identity_perturbation(), cfg, variant="perturbed")
    assert np.all(batch.girsanov_log_weight == 0.0)
    assert np.all(batch.weights() == 1.0)


def test_ou_mean_matches_closed_form():
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=1e-3, horizon=1.0, n_paths=40_000, seed=11, x0=(2.0,))
    f = SmoothFunction("x", value=lambda x: x[..., 0], gradient=lambda x: np.ones_like(x))
    est = estimate_expectation(p, identity_perturbation(), cfg, payoff_terminal(f))
    target = 2.0 * math.exp(-1.0)
    assert abs(est.mean - target) <= 3 * est.std_error + 5 * cfg.dt_eff


def test_tangent_contraction_bound():
    # |J_T|_2 <= prod(1 + dt |m|) with m the grid floor of rho_-
    p = make_potential("double_well", 2, beta=0.25)
    cfg = SdeConfig(dt=1e-2, horizon=1.0, n_paths=500, seed=5, x0=(0.3, 0.1))
    batch = simulate(p, identity_perturbation(), cfg)
    m = abs(p.hessian_lower_bound)
    cap = (1.0 + cfg.dt_eff * m) ** cfg.n_steps
    norms = np.linalg.norm(batch.j_t, ord=2, axis=(1, 2))
    assert np.all(norms <= cap + 1e-12)


# --- estimators ------------------------------------------------------------------

def test_payoff_constant_one():
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=0.01, horizon=0.1, n_paths=100, seed=0, x0=(0.0,))
    est = estimate_expectation(p, identity_perturbation(), cfg,
                               lambda b: np.ones(len(b)))
    assert est.mean == 1.0 and est.std_error == 0.0


def test_weight_mean_is_one_martingale():
    p = make_potential("subbotin", 2, alpha=4.0)
    a = arctan_perturbation(0.4)
    cfg = SdeConfig(dt=2e-3, horizon=1.0, n_paths=20_000, seed=9, x0=(0.0, 0.0))
    est = estimate_expectation(p, a, cfg, payoff_weight(), variant="perturbed")
    assert abs(est.mean - 1.0) <= 3 * est.std_error + 5 * cfg.dt_eff


def test_weighted_terminal_reproduces_plain_semigroup():
    # E[R f(X_{T,a})] on perturbed paths equals E[f(X_T)] on plain paths
    p = make_potential("subbotin", 1, alpha=4.0)
    a = arctan_perturbation(0.5)
    f = SmoothFunction("shifted_tanh", value=lambda x: 1.0 + np.tanh(x[..., 0]),
                       gradient=lambda x: (1.0 / np.cosh(x[..., 0]) ** 2)[..., None])
    cfg = SdeConfig(dt=1e-3, horizon=0.5, n_paths=30_000, seed=71, x0=(0.4,))
    weighted = estimate_expectation(p, a, cfg, payoff_weighted_terminal(f), variant="perturbed")
    plain = estimate_expectation(p, a, cfg, payoff_terminal(f), variant="plain")
    comb = math.sqrt(float(weighted.std_error) ** 2 + float(plain.std_error) ** 2)
    assert abs(float(weighted.mean) - float(plain.mean)) <= 3 * comb + 5 * cfg.dt_eff


def test_stationary_lognormal_mean():
    # at large T the chain is near its invariant normal law; E exp(theta X)
    # approaches exp(theta^2/2) up to O(dt)
    theta = 0.7
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=2e-3, horizon=6.0, n_paths=30_000, seed=13, x0=(0.0,))
    f = SmoothFunction("exp", value=lambda x: np.exp(theta * x[..., 0]),
                     gradient=lambda x: theta * np.exp(theta * x))
    est = estimate_expectation(p, identity_perturbation(), cfg, payoff_terminal(f))
    assert abs(est.mean - math.exp(theta**2 / 2)) <= 3 * est.std_error + 5 * cfg.dt_eff


def test_fk_gradient_gaussian_linear():
    p = make_potential("gaussian", 2, rho=1.0)
    cfg = SdeConfig(dt=1e-3, horizon=1.0, n_paths=5_000, seed=17, x0=(0.0, 0.0))
    est = estimate_fk_gradient(p, identity_perturbation(), LINEAR, cfg)
    target = math.exp(-1.0) * np.array([0.8, -0.6])
    assert np.all(np.abs(est.mean - target) <= 3 * est.std_error + 5 * cfg.dt_eff)


def test_fk_gradient_same_for_identity_and_arctan():
    p = make_potential("gaussian", 2, rho=1.0)
    cfg = SdeConfig(dt=2e-3, horizon=0.5, n_paths=30_000, seed=19, x0=(0.2, 0.1))
    e1 = estimate_fk_gradient(p, identity_perturbation(), LINEAR, cfg)
    e2 = estimate_fk_gradient(p, arctan_perturbation(0.5), LINEAR, cfg)
    comb = np.sqrt(e1.std_error**2 + e2.std_error**2)
    assert np.all(np.abs(e1.mean - e2.mean) <= 3 * comb + 5 * cfg.dt_eff)


def test_constant_function_gradient_is_zero_vector():
    p = make_potential("subbotin", 2, alpha=4.0)
    cfg = SdeConfig(dt=0.01, horizon=0.2, n_paths=200, seed=23, x0=(0.1, 0.0))
    est = estimate_fk_gradient(p, arctan_perturbation(0.3), CONST, cfg)
    assert np.all(est.mean == 0.0)
    fd = estimate_gradient_fd(p, cfg, CONST)
    assert np.all(fd.mean == 0.0)


def test_gradient_fd_gaussian_linear():
    p = make_potential("gaussian", 2, rho=1.0)
    cfg = SdeConfig(dt=1e-3, horizon=1.0, n_paths=2_000, seed=29, x0=(0.0, 0.0))
    est = estimate_gradient_fd(p, cfg, LINEAR)
    target = math.exp(-1.0) * np.array([0.8, -0.6])
    # common random numbers make this estimator nearly deterministic for OU
    assert np.all(np.abs(est.mean - target) <= 3 * est.std_error + 5 * cfg.dt_eff)
    assert np.all(est.std_error < 1e-10)


# --- dual-form reweighting exponent ------------------------------------------------

@pytest.mark.parametrize("dt", [2e-3, 1e-3])
def test_girsanov_dual_form_agreement(dt):
    p = make_potential("subbotin", 2, alpha=4.0)
    a = arctan_perturbation(0.4)
    cfg = SdeConfig(dt=dt, horizon=1.0, n_paths=1000, seed=31, x0=(0.0, 0.0))
    batch = simulate(p, a, cfg, variant="perturbed", track_stochastic_weight=True)
    diff = np.abs(batch.girsanov_log_weight - batch.log_weight_stochastic)
    # both accumulations discretize the same Ito identity to O(dt) per path
    assert np.max(diff) <= 100.0 * dt
    assert np.mean(diff) <= 20.0 * dt


def test_girsanov_dual_form_error_shrinks_with_dt():
    p = make_potential("subbotin", 1, alpha=4.0)
    a = arctan_perturbation(0.5)
    errs = []
    for dt in (4e-3, 1e-3):
        cfg = SdeConfig(dt=dt, horizon=1.0, n_paths=1000, seed=37, x0=(0.0,))
        batch = simulate(p, a, cfg, variant="perturbed", track_stochastic_weight=True)
        errs.append(np.mean(np.abs(batch.girsanov_log_weight - batch.log_weight_stochastic)))
    assert errs[1] < 0.6 * errs[0]


# --- weak order (small version; the full n=1e6 run lives in the acceptance suite) --

def test_ou_weak_error_halves_with_dt():
    p = make_potential("gaussian", 1, rho=1.0)
    x0, horizon = 500.0, 1.0
    target = x0 * math.exp(-1.0)
    errs = []
    for dt in (4e-3, 2e-3):
        cfg = SdeConfig(dt=dt, horizon=horizon, n_paths=100_000, seed=41, x0=(x0,))
        batch = simulate(p, identity_perturbation(), cfg)
        errs.append(np.mean(batch.x_t[:, 0]) - target)
    ratio = errs[0] / errs[1]
    assert 1.4 <= ratio <= 2.6


# --- divergence handling ---------------------------------------------------------

def test_divergent_paths_flagged_and_excluded():
    # quartic drift with a huge step explodes immediately
    p = make_potential("subbotin", 1, alpha=4.0)
    cfg = SdeConfig(dt=0.9, horizon=1.8, n_paths=300, seed=43, x0=(50.0,))
    batch = simulate(p, identity_perturbation(), cfg)
    assert batch.n_divergent == 300
    with pytest.raises(EstimationError):
        estimate_expectation(p, identity_perturbation(), cfg, lambda b: np.ones(len(b)))


def test_unreliable_flag_when_divergence_exceeds_threshold():
    # at this coarse dt a small fraction of quartic paths explodes
    p = make_potential("subbotin", 1, alpha=4.0)
    cfg = SdeConfig(dt=0.3, horizon=3.0, n_paths=2000, seed=47, x0=(0.0,))
    batch = simulate(p, identity_perturbation(), cfg)
    assert 0 < batch.n_divergent < 2000
    assert batch.n_divergent / 2000 > 1e-3
    est = estimate_expectation(p, identity_perturbation(), cfg, lambda b: np.ones(len(b)))
    assert not est.reliable
    assert est.n_valid == 2000 - batch.n_divergent


def test_checkpoint_weights_recorded():
    p = make_potential("subbotin", 2, alpha=4.0)
    a = arctan_perturbation(0.3)
    cfg = SdeConfig(dt=0.01, horizon=1.0, n_paths=500, seed=53, x0=(0.0, 0.0))
    batch = simulate(p, a, cfg, variant="perturbed", checkpoint_times=(0.25, 0.5, 1.0))
    assert set(batch.checkpoint_log_weights) == {0.25, 0.5, 1.0}
    final = batch.checkpoint_log_weights[1.0]
    assert np.allclose(final, batch.girsanov_log_weight)
    # weights are strictly positive with finite logs on non-divergent paths
    assert np.all(np.isfinite(batch.girsanov_log_weight[~batch.divergent]))
    assert np.all(batch.weights() > 0)


def test_post_hoc_g_condition_observation():
    p = make_potential("subbotin", 2, alpha=4.0)
    a = arctan_perturbation(0.4)
    cfg = SdeConfig(dt=0.01, horizon=1.0, n_paths=2000, seed=61, x0=(0.0, 0.0))
    batch = simulate(p, a, cfg, variant="perturbed")
    # the exact closed-form norm dominates everything seen along the paths
    assert batch.observed_sup_log_grad <= a.sup_log_grad.value + 1e-12
    assert not batch.g_condition_exceeded

