"""Euler-Maruyama simulation of the overdamped dynamics and its estimators.

The plain process solves dX = sqrt(2) dB - grad V(X) dt.  The perturbed
process replaces the drift by grad V + 2 grad a / a (the gradient of the
tilted potential V_a = V + log a^2).  Alongside the state we integrate

  * the tangent flow J, dJ = -J hess V(X) dt, J_0 = I, only when the
    caller asks for it (``tangent=True``, the default): it is read only by
    the gradient representation E[R J grad f(X_T)], and its Hessian build
    and matrix update dominate the cost of a step.  The Hessian of the
    *unperturbed* potential enters in both variants.
  * the reweighting martingale R on perturbed paths, accumulated through
    its pathwise exponent

        log R_T = log a(X_T) - log a(X_0) - int_0^T psi_a(X_s) ds,

    with the time integral discretized by the trapezoid rule on the step
    values.  The equivalent stochastic-integral form

        log R_T = sqrt(2) int (grad a / a) . dB - int |grad a / a|^2 ds

    (left-endpoint Ito sums) can be accumulated in parallel as a
    discretization cross-check.

Determinism: the Gaussian increment for (path, step) is a fixed function
of (seed, path block, step) through the Philox streams of
:mod:`logsob.rng`, so path records are bit-identical for a given
``SdeConfig`` no matter how many workers run, and runs sharing a config
share their Brownian increments (common random numbers).

Paths whose state leaves |x| <= 1e8 or turns non-finite are frozen,
flagged divergent, and excluded from estimates; estimates with more than
0.1% divergent paths are marked unreliable instead of being silently
averaged.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng
from .errors import EstimationError, ParameterError
from .perturbations import Perturbation, identity_perturbation, psi_from_parts
from .potentials import Potential
from .threads import worker_count

DIVERGENCE_RADIUS = 1e8
MAX_DIVERGENT_FRACTION = 1e-3
# shift of the initial condition in the central-difference gradient oracle
FD_STEP = 1e-3


@dataclass(frozen=True)
class SdeConfig:
    dt: float
    horizon: float
    n_paths: int
    seed: int
    x0: tuple

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt must be positive")
        if not self.horizon >= self.dt:
            raise ParameterError("horizon must be at least dt")
        if self.n_paths < 1:
            raise ParameterError("n_paths must be positive")
        x0 = tuple(float(v) for v in np.atleast_1d(self.x0))
        if not all(math.isfinite(v) for v in x0):
            raise ParameterError("x0 must be finite")
        object.__setattr__(self, "x0", x0)

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.dt - 1e-12))

    @property
    def dt_eff(self) -> float:
        """Step actually used: dt shrunk so that n_steps * dt_eff = horizon."""
        return self.horizon / self.n_steps

    @property
    def dim(self) -> int:
        return len(self.x0)


@dataclass(frozen=True)
class SmoothFunction:
    """A scalar test function with its gradient (both batched over (..., d))."""

    name: str
    value: Callable
    gradient: Callable


class PathBatch:
    """Terminal data of a family of paths, stored columnwise.

    ``checkpoint_log_weights`` maps requested times to the log-weight
    arrays recorded there.  ``j_t`` is None when the batch was simulated
    without the tangent flow.
    """

    def __init__(self, x_t, j_t, log_weight, psi_integral, divergent, cfg, variant,
                 checkpoint_log_weights, log_weight_stochastic, observed_sup_log_grad,
                 g_condition_exceeded):
        self.x_t = x_t
        self.j_t = j_t
        self.girsanov_log_weight = log_weight
        self.psi_integral = psi_integral
        self.divergent = divergent
        self.cfg = cfg
        self.variant = variant
        self.checkpoint_log_weights = checkpoint_log_weights
        self.log_weight_stochastic = log_weight_stochastic
        self.observed_sup_log_grad = observed_sup_log_grad
        self.g_condition_exceeded = g_condition_exceeded

    def __len__(self):
        return self.x_t.shape[0]

    @property
    def n_divergent(self) -> int:
        return int(np.sum(self.divergent))

    def weights(self) -> np.ndarray:
        return np.exp(self.girsanov_log_weight)


def simulate(p: Potential, a: Perturbation, cfg: SdeConfig, variant: str = "plain",
             track_stochastic_weight: bool = False,
             checkpoint_times: Sequence[float] = (),
             max_workers: Optional[int] = None, tangent: bool = True) -> PathBatch:
    """Run all paths of ``cfg`` and return their terminal records.

    With ``tangent=False`` the tangent flow is not integrated and the
    batch's ``j_t`` is None; every other output is bit-identical.
    """
    if variant not in ("plain", "perturbed"):
        raise ParameterError("variant must be 'plain' or 'perturbed'")
    if cfg.dim != p.dim:
        raise ParameterError(f"x0 has dimension {cfg.dim}, potential has {p.dim}")
    n, d, n_steps = cfg.n_paths, cfg.dim, cfg.n_steps
    checkpoint_steps = {}
    for t in checkpoint_times:
        k = int(round(t / cfg.dt_eff))
        if not 0 < k <= n_steps:
            raise ParameterError(f"checkpoint time {t} outside (0, horizon]")
        checkpoint_steps[float(t)] = k

    # unweighted paths (plain, or a = 1) keep these zero: R = 1 exactly
    weighted = variant == "perturbed" and a.family != "identity"
    x_t = np.empty((n, d))
    j_t = np.empty((n, d, d)) if tangent else None
    log_w = np.zeros(n)
    psi_int = np.zeros(n)
    divergent = np.zeros(n, dtype=bool)
    cp_logs = {t: np.zeros(n) for t in checkpoint_steps}
    stoch = np.zeros(n) if track_stochastic_weight else None

    blocks = rng.block_ranges(n)
    observed_lg = [0.0] * len(blocks)

    def run_and_store(idx_block):
        idx, (b, lo, hi) = idx_block
        out = _run_block(p, a, cfg, weighted, b, lo, hi, checkpoint_steps,
                         track_stochastic_weight, tangent)
        x_t[lo:hi] = out["x_t"]
        if tangent:
            j_t[lo:hi] = out["j_t"]
        divergent[lo:hi] = out["divergent"]
        if weighted:
            log_w[lo:hi] = out["log_w"]
            psi_int[lo:hi] = out["psi_int"]
            for t, arr in out["checkpoints"].items():
                cp_logs[t][lo:hi] = arr
            if stoch is not None:
                stoch[lo:hi] = out["stoch"]
            observed_lg[idx] = out["observed_lg"]

    workers = max_workers if max_workers is not None else worker_count()
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_and_store, enumerate(blocks)))
    else:
        for idx_block in enumerate(blocks):
            run_and_store(idx_block)

    observed = max(observed_lg)
    # post hoc admissibility: the visited states must not reveal a larger
    # |grad a|/a than the norm the weights were justified with
    exceeded = observed > a.sup_log_grad.value * (1.0 + 1e-9) + 1e-12
    return PathBatch(x_t, j_t, log_w, psi_int, divergent, cfg, variant,
                     checkpoint_log_weights=cp_logs, log_weight_stochastic=stoch,
                     observed_sup_log_grad=observed, g_condition_exceeded=exceeded)


def _run_block(p, a, cfg, weighted, block, lo, hi, checkpoint_steps, track_stoch, tangent):
    """One block of paths.  Unweighted blocks return only ``x_t``, ``j_t``
    and ``divergent``; the caller's zero-initialised weight arrays stand."""
    n = hi - lo
    d = cfg.dim
    dt = cfg.dt_eff
    sqrt_2dt = math.sqrt(2.0 * dt)
    sqrt_dt = math.sqrt(dt)
    n_steps = cfg.n_steps

    x = np.tile(np.asarray(cfg.x0, dtype=float), (n, 1))
    j = np.tile(np.eye(d), (n, 1, 1)) if tangent else None
    alive = np.ones(n, dtype=bool)
    grad = np.asarray(p.gradient(x), dtype=float)
    # running trapezoid sum: half weight on the initial state, full weights
    # after each step; the half weight of the current endpoint is removed
    # whenever the integral is materialized
    if weighted:
        lg = np.asarray(a.log_grad(x), dtype=float)
        lg_norm2 = np.einsum("ni,ni->n", lg, lg)
        psi_x = psi_from_parts(a, x, lg, lg_norm2, grad)
        psi_sum = 0.5 * psi_x
        psi_last = psi_x
        log_a0 = np.log(np.asarray(a.value(x), dtype=float))
        observed_lg = float(np.max(lg_norm2)) ** 0.5
    track_stoch = track_stoch and weighted
    stoch = np.zeros(n) if track_stoch else None

    def log_weight():
        """(log R, int psi ds) at the current state."""
        integral = dt * (psi_sum - 0.5 * psi_last)
        return np.log(np.asarray(a.value(x), dtype=float)) - log_a0 - integral, integral

    checkpoints = {}
    step_of = {}
    if weighted:
        for t, k in checkpoint_steps.items():
            step_of.setdefault(k, []).append(t)

    for k in range(n_steps):
        xi = rng.step_normals(cfg.seed, block, k, n, d)
        drift = grad + 2.0 * lg if weighted else grad
        if track_stoch:
            stoch_inc = (math.sqrt(2.0) * sqrt_dt * np.einsum("ni,ni->n", lg, xi)
                         - dt * lg_norm2)
            stoch = stoch + np.where(alive, stoch_inc, 0.0)
        x_new = x + sqrt_2dt * xi - dt * drift

        with np.errstate(invalid="ignore", over="ignore"):
            bad = ~np.all(np.isfinite(x_new), axis=1)
            bad |= np.einsum("ni,ni->n", x_new, x_new) > DIVERGENCE_RADIUS**2
        alive = alive & ~bad
        keep = alive[:, None]
        if tangent:
            hess = np.asarray(p.hessian(x), dtype=float)
            j = np.where(keep[:, :, None], j - dt * (j @ hess), j)
        x = np.where(keep, x_new, x)
        grad = np.asarray(p.gradient(x), dtype=float)
        if weighted:
            lg = np.asarray(a.log_grad(x), dtype=float)
            lg_norm2 = np.einsum("ni,ni->n", lg, lg)
            observed_lg = max(observed_lg, float(np.max(lg_norm2[alive], initial=0.0)) ** 0.5)
            psi_x = psi_from_parts(a, x, lg, lg_norm2, grad)
            alive = alive & np.isfinite(psi_x)
            psi_sum = psi_sum + np.where(alive, psi_x, 0.0)
            psi_last = np.where(alive, psi_x, psi_last)
        for t in step_of.get(k + 1, ()):
            checkpoints[t] = log_weight()[0]

    out = {"x_t": x, "j_t": j, "divergent": ~alive}
    if weighted:
        log_w, psi_int = log_weight()
        out.update(log_w=log_w, psi_int=psi_int, checkpoints=checkpoints, stoch=stoch,
                   observed_lg=observed_lg)
    return out


# --- estimators ---------------------------------------------------------------


@dataclass(frozen=True)
class EstimateResult:
    mean: np.ndarray
    std_error: np.ndarray
    n_valid: int
    n_divergent: int
    reliable: bool


def _reduce(values: np.ndarray, divergent: np.ndarray) -> EstimateResult:
    valid = ~divergent
    n_valid = int(np.sum(valid))
    if n_valid < 2:
        raise EstimationError(f"only {n_valid} valid paths; cannot estimate")
    vals = np.asarray(values)[valid]
    mean = np.mean(vals, axis=0)
    se = np.std(vals, axis=0, ddof=1) / math.sqrt(n_valid)
    n_divergent = divergent.size - n_valid
    return EstimateResult(mean=mean, std_error=se, n_valid=n_valid, n_divergent=n_divergent,
                          reliable=n_divergent / divergent.size <= MAX_DIVERGENT_FRACTION)


def estimate_expectation(p: Potential, a: Perturbation, cfg: SdeConfig,
                         payoff: Callable[[PathBatch], np.ndarray],
                         variant: str = "plain", tangent: bool = True) -> EstimateResult:
    """Sample mean and standard error of a path functional.

    Pass ``tangent=False`` when ``payoff`` does not read ``batch.j_t``.
    """
    batch = simulate(p, a, cfg, variant=variant, tangent=tangent)
    return _reduce(payoff(batch), batch.divergent)


def payoff_terminal(f: SmoothFunction):
    return lambda batch: np.asarray(f.value(batch.x_t), dtype=float)


def payoff_weight():
    return lambda batch: batch.weights()


def payoff_weighted_terminal(f: SmoothFunction):
    return lambda batch: batch.weights() * np.asarray(f.value(batch.x_t), dtype=float)


def _tangent_gradient(f: SmoothFunction, batch: PathBatch) -> np.ndarray:
    if batch.j_t is None:
        raise ParameterError("batch was simulated without the tangent flow (tangent=False)")
    return np.einsum("nij,nj->ni", batch.j_t, np.asarray(f.gradient(batch.x_t), dtype=float))


def payoff_tangent_gradient(f: SmoothFunction):
    return lambda batch: _tangent_gradient(f, batch)


def payoff_weighted_tangent_gradient(f: SmoothFunction):
    return lambda batch: batch.weights()[:, None] * _tangent_gradient(f, batch)


def estimate_fk_gradient(p: Potential, a: Perturbation, f: SmoothFunction,
                         cfg: SdeConfig) -> EstimateResult:
    """Monte Carlo estimate of E[R J grad f(X_T)] on perturbed paths."""
    batch = simulate(p, a, cfg, variant="perturbed")
    return _reduce(payoff_weighted_tangent_gradient(f)(batch), batch.divergent)


def estimate_gradient_fd(p: Potential, cfg: SdeConfig, f: SmoothFunction) -> EstimateResult:
    """Central differences of x0 -> E[f(X_T^x0)] with step FD_STEP and
    common random numbers.

    Both shifted runs reuse the Brownian increments of ``cfg.seed``, so the
    difference is computed pathwise and its variance stays O(1) in the step.
    """
    d = cfg.dim
    x0 = np.asarray(cfg.x0, dtype=float)
    a_id = identity_perturbation()
    diffs = []
    divergent = np.zeros(cfg.n_paths, dtype=bool)
    for i in range(d):
        shift = np.zeros(d)
        shift[i] = FD_STEP
        cfg_p = SdeConfig(cfg.dt, cfg.horizon, cfg.n_paths, cfg.seed, tuple(x0 + shift))
        cfg_m = SdeConfig(cfg.dt, cfg.horizon, cfg.n_paths, cfg.seed, tuple(x0 - shift))
        bp = simulate(p, a_id, cfg_p, tangent=False)
        bm = simulate(p, a_id, cfg_m, tangent=False)
        fp = np.asarray(f.value(bp.x_t), dtype=float)
        fm = np.asarray(f.value(bm.x_t), dtype=float)
        diffs.append((fp - fm) / (2.0 * FD_STEP))
        divergent |= bp.divergent | bm.divergent
    return _reduce(np.stack(diffs, axis=1), divergent)
