"""Euler-Maruyama simulation of the overdamped dynamics and its estimators.

The plain process solves dX = sqrt(2) dB - grad V(X) dt.  The perturbed
process replaces the drift by grad V + 2 grad a / a (the gradient of the
tilted potential V_a = V + log a^2).  Alongside the state we integrate

  * the tangent flow J, dJ = -J hess V(X) dt, J_0 = I, only when the
    caller asks for it (``tangent=True``, the default): it is read only by
    the gradient representation E[R J grad f(X_T)].  The Hessian of the
    *unperturbed* potential enters in both variants.  For a radial
    potential, hess V = A x x^T + B I, so the step applies
    J hess V = B J + A (J x) x^T in place without building the Hessian; a
    potential without a radial profile multiplies by its built Hessian.
  * the reweighting martingale R on perturbed paths, accumulated through
    its pathwise exponent

        log R_T = log a(X_T) - log a(X_0) - int_0^T psi_a(X_s) ds,

    with the time integral discretized by the trapezoid rule on the step
    values.  The equivalent stochastic-integral form

        log R_T = sqrt(2) int (grad a / a) . dB - int |grad a / a|^2 ds

    (left-endpoint Ito sums) can be accumulated in parallel as a
    discretization cross-check.

Each step computes the squared norm t = |x|^2 of the new state once, and
every per-step quantity reads it: the divergence test, the drift, psi_a
and |grad a / a|^2, and the tangent step's Hessian split.  A radial
potential, paired on weighted paths with a radial perturbation, evaluates
these from its closed forms in t (:func:`_step_fields`); every other pair
goes through its point evaluators on x.  Both run in the one loop body.

Determinism: the Gaussian increment for (path, step) is a fixed function
of (seed, path block, step) through the Philox streams of
:mod:`logsob.rng`, so path records are bit-identical for a given
``SdeConfig`` no matter how many workers run, and runs sharing a config
share their Brownian increments (common random numbers).  Every block
integrates in place on its own rows of the one :class:`PathBatch`.

A path whose next state fails |x|^2 <= 1e16 (as a NaN or an infinite
coordinate does), or whose psi_a turns non-finite on a weighted path, is
frozen, flagged divergent, and excluded from estimates.  :func:`_reduce`
is the one place that turns path values into an :class:`EstimateResult`:
mean, standard error and ``flags``, the reasons its evidence is not to be
trusted.  An estimate is flagged when more than 0.1% of its paths
diverged, or when its perturbed paths visited a |grad a|/a above the sup
``a.sup_log_grad`` that the weights assume; the checks of
:mod:`logsob.verify` fail on any flag.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng
from .errors import EstimationError, ParameterError
from .perturbations import Perturbation, identity_perturbation, psi_from_parts, psi_radial_parts
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
        if not (math.isfinite(self.horizon / self.dt) and self.n_steps < 1 << 32):
            raise ParameterError("horizon / dt must be finite and below 2**32, the step key range")
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


@dataclass(eq=False)
class PathBatch:
    """Terminal data of a family of paths, stored columnwise.

    ``checkpoint_log_weights`` maps requested times to the log-weight
    arrays recorded there.  ``j_t`` is None when the batch was simulated
    without the tangent flow, ``log_weight_stochastic`` when the Ito form
    was not tracked.  Unweighted paths (plain, or a = 1) keep every weight
    array at zero: R = 1 exactly.
    """

    cfg: SdeConfig
    x_t: np.ndarray
    j_t: Optional[np.ndarray]
    girsanov_log_weight: np.ndarray
    psi_integral: np.ndarray
    divergent: np.ndarray
    checkpoint_log_weights: dict
    log_weight_stochastic: Optional[np.ndarray]
    observed_sup_log_grad: float = 0.0
    g_condition_exceeded: bool = False

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

    The path blocks run on ``max_workers`` threads (default
    :func:`~logsob.threads.worker_count`).  With ``tangent=False`` the
    tangent flow is not integrated and the batch's ``j_t`` is None; every
    other output is bit-identical.
    """
    if variant not in ("plain", "perturbed"):
        raise ParameterError("variant must be 'plain' or 'perturbed'")
    if cfg.dim != p.dim:
        raise ParameterError(f"x0 has dimension {cfg.dim}, potential has {p.dim}")
    workers = worker_count() if max_workers is None else max_workers
    if workers < 1:
        raise ParameterError("max_workers must be at least 1")
    n, d = cfg.n_paths, cfg.dim
    checkpoint_steps = {}
    for t in checkpoint_times:
        k = int(round(t / cfg.dt_eff))
        if not 0 < k <= cfg.n_steps:
            raise ParameterError(f"checkpoint time {t} rounds to step {k}, outside the "
                                 f"steps 1..{cfg.n_steps}")
        checkpoint_steps[float(t)] = k

    weighted = variant == "perturbed" and a.family != "identity"
    batch = PathBatch(
        cfg=cfg,
        x_t=np.tile(np.asarray(cfg.x0, dtype=float), (n, 1)),
        j_t=np.tile(np.eye(d), (n, 1, 1)) if tangent else None,
        girsanov_log_weight=np.zeros(n),
        psi_integral=np.zeros(n),
        divergent=np.zeros(n, dtype=bool),
        checkpoint_log_weights={t: np.zeros(n) for t in checkpoint_steps},
        log_weight_stochastic=np.zeros(n) if track_stochastic_weight else None,
    )
    with ThreadPoolExecutor(max_workers=workers) as pool:
        observed = max(pool.map(
            lambda block: _run_block(p, a, cfg, weighted, block, checkpoint_steps, batch),
            rng.block_ranges(n)))
    batch.observed_sup_log_grad = observed
    # post hoc admissibility: the visited states must not reveal a larger
    # |grad a|/a than the norm the weights were justified with
    batch.g_condition_exceeded = observed > a.sup_log_grad.value * (1.0 + 1e-9) + 1e-12
    return batch


def _run_block(p, a, cfg, weighted, block, checkpoint_steps, batch) -> float:
    """Integrate the paths of ``block`` = (b, lo, hi) in place on rows
    lo:hi of ``batch``, which hold the initial state, and return the sup of
    |grad a|/a they visited (0 on unweighted paths, whose zero weight rows
    stand)."""
    b, lo, hi = block
    n = hi - lo
    dt = cfg.dt_eff
    sqrt_2dt = math.sqrt(2.0 * dt)

    x = batch.x_t[lo:hi]
    t = np.einsum("ni,ni->n", x, x)
    j = None if batch.j_t is None else batch.j_t[lo:hi]
    # scratch of the tangent update, reused on every step
    work = None if j is None else (np.empty_like(j), np.empty_like(j))
    alive = np.ones(n, dtype=bool)
    fields = _step_fields(p, a, weighted)
    drift, lg_norm2, psi_x = fields(x, t)
    observed_lg = 0.0
    step_of = {}
    # running trapezoid sum: half weight on the initial state, full weights
    # after each step; the half weight of the current endpoint is removed
    # whenever the integral is materialized
    if weighted:
        observed_lg = float(np.max(lg_norm2)) ** 0.5
        # the initial state meets the same finiteness rule as every step
        alive &= np.isfinite(psi_x)
        psi_last = np.where(alive, psi_x, 0.0)
        psi_sum = 0.5 * psi_last
        log_a0 = np.log(np.asarray(a.value(x), dtype=float))
        for tc, k in checkpoint_steps.items():
            step_of.setdefault(k, []).append(tc)
    track_stoch = weighted and batch.log_weight_stochastic is not None

    def log_weight():
        """(log R, int psi ds) at the current state."""
        integral = dt * (psi_sum - 0.5 * psi_last)
        return np.log(np.asarray(a.value(x), dtype=float)) - log_a0 - integral, integral

    for k in range(cfg.n_steps):
        xi = rng.step_normals(cfg.seed, b, k, n, cfg.dim)
        if track_stoch:
            lg = np.asarray(a.log_grad(x), dtype=float)
            stoch_inc = (math.sqrt(2.0) * math.sqrt(dt) * np.einsum("ni,ni->n", lg, xi)
                         - dt * lg_norm2)
            batch.log_weight_stochastic[lo:hi] += np.where(alive, stoch_inc, 0.0)
        x_new = x + sqrt_2dt * xi - dt * drift

        # the squared norm is the whole divergence test: a NaN or an
        # infinity in any coordinate makes it fail the comparison
        with np.errstate(invalid="ignore", over="ignore"):
            t_new = np.einsum("ni,ni->n", x_new, x_new)
        alive = alive & (t_new <= DIVERGENCE_RADIUS**2)
        # where=True while every path is alive: numpy's masked loops cost
        # several times the plain ones
        everyone = bool(alive.all())
        if j is not None:
            _tangent_step(p, j, x, t, dt, True if everyone else alive[:, None, None], work)
        np.copyto(x, x_new, where=True if everyone else alive[:, None])
        np.copyto(t, t_new, where=True if everyone else alive)
        drift, lg_norm2, psi_x = fields(x, t)
        if weighted:
            observed_lg = max(observed_lg, float(np.max(lg_norm2[alive], initial=0.0)) ** 0.5)
            alive = alive & np.isfinite(psi_x)
            psi_sum = psi_sum + np.where(alive, psi_x, 0.0)
            psi_last = np.where(alive, psi_x, psi_last)
        for tc in step_of.get(k + 1, ()):
            batch.checkpoint_log_weights[tc][lo:hi] = log_weight()[0]

    batch.divergent[lo:hi] = ~alive
    if weighted:
        batch.girsanov_log_weight[lo:hi], batch.psi_integral[lo:hi] = log_weight()
    return observed_lg


def _step_fields(p, a, weighted):
    """The per-step evaluator (x, t) -> (drift, |lg|^2, psi) at the states
    x, whose squared norms t = |x|^2 the step has already computed, with
    lg = grad a / a; |lg|^2 and psi are None on unweighted paths.

    A radial potential, with a radial perturbation on weighted paths,
    reads its closed forms in t, so nothing recomputes |x|^2: with
    grad V = gc x and lg = lgc x from psi_radial_parts, the drift is
    (gc + 2 lgc) x.  Every other pair goes through its point evaluators
    and psi_from_parts."""
    if p.radial is not None and (not weighted or a.radial is not None):
        if not weighted:
            grad_coeff = p.radial.grad_coeff
            return lambda x, t: (grad_coeff(t)[:, None] * x, None, None)

        def closed_form(x, t):
            gc, lgc, lg_norm2, psi_x = psi_radial_parts(a, p, t)
            return (gc + 2.0 * lgc)[:, None] * x, lg_norm2, psi_x

        return closed_form

    def point(x, t):
        grad = np.asarray(p.gradient(x), dtype=float)
        if not weighted:
            return grad, None, None
        lg = np.asarray(a.log_grad(x), dtype=float)
        lg_norm2 = np.einsum("ni,ni->n", lg, lg)
        return grad + 2.0 * lg, lg_norm2, psi_from_parts(a, x, lg, lg_norm2, grad)

    return point


def _tangent_step(p, j, x, t, dt, keep, work):
    """One Euler step of the tangent flow in place: J <- J - dt J hess V(x)
    on the paths where ``keep`` (a mask over J, or True) holds; t = |x|^2.

    For a radial potential, hess V = A x x^T + B I with (A, B) from
    ``p.radial.hess_split(t)``, so J hess V = B J + A (J x) x^T and no
    Hessian is built.  When A vanishes on the whole block (the Gaussian)
    the update is the scalar recursion J - dt (B J), bit for bit.
    Potentials without a radial profile multiply by their built Hessian."""
    upd, outer = work
    if p.radial is None:
        np.matmul(j, np.asarray(p.hessian(x), dtype=float), out=upd)
    else:
        a_coef, b_coef = p.radial.hess_split(t)
        np.multiply(j, b_coef[:, None, None], out=upd)
        if np.any(a_coef):
            jx = np.einsum("nij,nj->ni", j, x)
            jx *= a_coef[:, None]
            np.multiply(jx[:, :, None], x[:, None, :], out=outer)
            upd += outer
    upd *= dt
    np.subtract(j, upd, out=j, where=keep)


# --- estimators ---------------------------------------------------------------


@dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo estimate; ``flags`` holds the reasons not to trust it
    (empty when there are none)."""

    mean: np.ndarray
    std_error: np.ndarray
    n_valid: int
    n_divergent: int
    flags: tuple


def _reduce(values: np.ndarray, divergent: np.ndarray, batch: Optional[PathBatch] = None,
            a: Optional[Perturbation] = None) -> EstimateResult:
    """Mean and standard error of the per-path ``values`` over the paths
    that did not diverge, with the reasons to distrust them: more than
    MAX_DIVERGENT_FRACTION of the paths diverged, or the paths of ``batch``,
    simulated with ``a``, visited a |grad a|/a above the sup the weights
    assume."""
    valid = ~divergent
    n_valid = int(np.sum(valid))
    if n_valid < 2:
        raise EstimationError(f"only {n_valid} valid paths; cannot estimate")
    vals = np.asarray(values)[valid]
    mean = np.mean(vals, axis=0)
    se = np.std(vals, axis=0, ddof=1) / math.sqrt(n_valid)
    flags = []
    if (divergent.size - n_valid) / divergent.size > MAX_DIVERGENT_FRACTION:
        flags.append(f"more than {MAX_DIVERGENT_FRACTION:.1%} of the paths diverged")
    if batch is not None and batch.g_condition_exceeded:
        flags.append(f"paths visited |grad a|/a = {batch.observed_sup_log_grad:.6g}, above the "
                     f"sup {a.sup_log_grad.value:.6g} the weights assume")
    return EstimateResult(mean=mean, std_error=se, n_valid=n_valid,
                          n_divergent=divergent.size - n_valid, flags=tuple(flags))


def estimate_expectation(p: Potential, a: Perturbation, cfg: SdeConfig,
                         payoff: Callable[[PathBatch], np.ndarray],
                         variant: str = "plain", tangent: bool = True) -> EstimateResult:
    """Sample mean and standard error of a path functional.

    Pass ``tangent=False`` when ``payoff`` does not read ``batch.j_t``.
    """
    batch = simulate(p, a, cfg, variant=variant, tangent=tangent)
    return _reduce(payoff(batch), batch.divergent, batch, a)


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
    return estimate_expectation(p, a, cfg, payoff_weighted_tangent_gradient(f),
                               variant="perturbed")


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
