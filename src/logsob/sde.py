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
share their Brownian increments (common random numbers).

Lanes: :func:`simulate_lanes` integrates several runs on one config, each
a :class:`Lane` with its own x0, variant and tangent mode.  Every tile
draws each step's increments once and steps every lane with them through
the same step body, so each lane is bit-identical to a separate
:func:`simulate` of it; :func:`simulate` is the one-lane call.  Each lane
integrates in place on its own rows of its own :class:`PathBatch`.  Each
state is observed once, in one place: a lane evaluates its fields at the
start of each step, and a weighted lane observes its final state once
more, for its weight.  Between steps a lane holds only its state (x, |x|^2,
J, and on weighted lanes the running weight), never a step's temporaries.

Tiles: a block runs tile-major, in row tiles of :func:`step_rows` rows
(``STEP_TILE`` entries, 512 kB, per (rows, d) array): each tile runs every
step of every lane before the next tile starts, so the block holds one
tile of normals, one tile of lane state and one tile of a step's
temporaries (the drift, psi_a, the new state), none of which grows with
the block.  A tile's step-k increments are the next rows of the (seed,
block, k) stream: the block keeps, per step, the stream position where
the previous tile's draw stopped (72 B, see
:func:`logsob.rng.stream_positions`), and every draw is that of one
block-wide draw, bit for bit.  A lane with ``tangent="norm"`` integrates
J in an array of the tile's own and, after the tile's last step, keeps
only its spectral norm in ``PathBatch.j_norm``, so no (n, d, d) array
exists.  Within a tile the tangent update runs on sub-tiles of
:func:`tile_rows` rows (1 MB of J, ``TANGENT_TILE`` entries) through two
scratch arrays that the lanes share, and a potential without a radial
profile builds its Hessian one sub-tile at a time.  The operations on each
row are those of a block-wide pass, bit for bit; the shortcuts taken when
every path is alive or when the Hessian's A term vanishes are decided per
tile, and move no bit.  Each tile answers its lanes' sup of |grad a|/a,
and :func:`simulate_lanes` folds them once over every tile of every block,
in any order, since the sup is taken over finite values only.

A path whose next state fails |x|^2 <= 1e16 (as a NaN or an infinite
coordinate does), or whose psi_a turns non-finite on a weighted path, is
frozen, flagged divergent, and excluded from estimates.  :func:`_reduce`
is the one place that turns path values into an :class:`EstimateResult`:
mean, standard error and ``flags``, the reasons its evidence is not to be
trusted.  An estimate is flagged when more than 0.1% of its paths
diverged, or when its perturbed live paths visited a |grad a|/a above the
sup ``a.sup_log_grad`` that the weights assume, or a NaN or infinite one.
The sup is taken over the finite values only, so a non-finite value, which
is its own flag, hides none of them; the checks of :mod:`logsob.verify`
fail on any flag.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import rng
from .errors import EstimationError, ParameterError
from .perturbations import Perturbation, identity_perturbation, psi_from_parts, psi_radial_parts
from .potentials import Potential

DIVERGENCE_RADIUS = 1e8
MAX_DIVERGENT_FRACTION = 1e-3
# shift of the initial condition in the central-difference gradient oracle
FD_STEP = 1e-3
# entries of one scratch tile of the tangent update: 2**17 doubles, 1 MB
TANGENT_TILE = 1 << 17
# entries of one (rows, d) array of a step tile: 2**16 doubles, 512 kB
STEP_TILE = 1 << 16
DEFAULT_MAX_WORKERS = 4


def worker_count() -> int:
    """Threads that run the path blocks: ``LOGSOB_THREADS`` when it is a
    positive integer, otherwise ``min(4, cpu_count)``.

    A value that is not a positive integer is ignored rather than clamped,
    so a typo falls back on the default instead of running single-threaded.
    """
    try:
        n = int(os.environ.get("LOGSOB_THREADS", ""))
    except ValueError:
        n = 0
    return n if n >= 1 else min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1)


def tile_rows(d: int) -> int:
    """Rows of J that one tangent-update tile holds in dimension d."""
    return max(1, TANGENT_TILE // (d * d))


def step_rows(d: int) -> int:
    """Rows of one step tile in dimension d."""
    return max(1, STEP_TILE // d)


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
        if not 1 <= self.n_paths <= rng.BLOCK_PATHS << 32:
            raise ParameterError("n_paths must be between 1 and 2**48, the block key range")
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
    without the tangent flow or with ``tangent="norm"``, ``j_norm`` (the
    spectral norm of each path's J_T) unless it was simulated with
    ``tangent="norm"``, and ``log_weight_stochastic`` when the Ito form was
    not tracked.  Unweighted paths (plain, or a = 1) keep every weight
    array at zero: R = 1 exactly.  ``observed_sup_log_grad`` is the sup of
    the finite values of |grad a|/a that live weighted paths visited, and
    ``nonfinite_log_grad`` tells whether they visited a NaN or infinite one.
    """

    cfg: SdeConfig
    x_t: np.ndarray
    j_t: Optional[np.ndarray]
    j_norm: Optional[np.ndarray]
    girsanov_log_weight: np.ndarray
    psi_integral: np.ndarray
    divergent: np.ndarray
    checkpoint_log_weights: dict
    log_weight_stochastic: Optional[np.ndarray]
    observed_sup_log_grad: float = 0.0
    g_condition_exceeded: bool = False
    nonfinite_log_grad: bool = False

    def __len__(self):
        return self.x_t.shape[0]

    @property
    def n_divergent(self) -> int:
        return int(np.sum(self.divergent))

    def weights(self) -> np.ndarray:
        return np.exp(self.girsanov_log_weight)


class Lane(NamedTuple):
    """One run of :func:`simulate_lanes`: its initial state, its variant
    ("plain" or "perturbed") and its tangent mode, True, False or "norm":
    True keeps J_T, "norm" only its spectral norm, False neither."""

    x0: tuple
    variant: str
    tangent: Union[bool, str]


def simulate(p: Potential, a: Perturbation, cfg: SdeConfig, variant: str = "plain",
             track_stochastic_weight: bool = False,
             checkpoint_times: Sequence[float] = (),
             max_workers: Optional[int] = None,
             tangent: Union[bool, str] = True) -> PathBatch:
    """Run all paths of ``cfg`` and return their terminal records: the
    one-lane call of :func:`simulate_lanes`.

    The path blocks run on ``max_workers`` threads (default
    :func:`worker_count`).  With ``tangent=False`` the tangent flow is not
    integrated and the batch's ``j_t`` is None; with ``tangent="norm"``
    each tile integrates J in an array of its own and keeps only
    ``j_norm``, the spectral norm of each path's J_T, bit-equal to the norm
    of ``j_t``.  Every other output is bit-identical.
    """
    (batch,) = simulate_lanes(p, a, cfg, (Lane(cfg.x0, variant, tangent),),
                              track_stochastic_weight, checkpoint_times, max_workers)
    return batch


def simulate_lanes(p: Potential, a: Perturbation, cfg: SdeConfig, lanes: Sequence[Lane],
                   track_stochastic_weight: bool = False,
                   checkpoint_times: Sequence[float] = (),
                   max_workers: Optional[int] = None) -> tuple:
    """Run every lane on the paths of ``cfg`` with one set of Brownian
    increments, and return one :class:`PathBatch` per lane.

    Each block draws its increments once per step and steps every lane
    with them, so each lane's batch is bit-identical to a :func:`simulate`
    of ``cfg`` with the lane's x0, variant and tangent mode (True, False
    or "norm"); its ``cfg`` carries the lane's x0.  Stochastic weights and
    checkpoints are recorded on every weighted lane.
    """
    if not lanes:
        raise ParameterError("simulate_lanes needs at least one lane")
    for lane in lanes:
        if lane.variant not in ("plain", "perturbed"):
            raise ParameterError("variant must be 'plain' or 'perturbed'")
        if lane.tangent not in (True, False, "norm"):
            raise ParameterError("tangent must be True, False or 'norm'")
    lane_cfgs = [dataclasses.replace(cfg, x0=lane.x0) for lane in lanes]
    for lane_cfg in (cfg, *lane_cfgs):
        if lane_cfg.dim != p.dim:
            raise ParameterError(f"x0 has dimension {lane_cfg.dim}, potential has {p.dim}")
    workers = worker_count() if max_workers is None else max_workers
    if workers < 1:
        raise ParameterError("max_workers must be at least 1")
    n, d = cfg.n_paths, cfg.dim
    step_of = {}
    for t in checkpoint_times:
        k = int(round(t / cfg.dt_eff))
        if not 0 < k <= cfg.n_steps:
            raise ParameterError(f"checkpoint time {t} rounds to step {k}, outside the "
                                 f"steps 1..{cfg.n_steps}")
        step_of.setdefault(k, set()).add(float(t))

    batches = tuple(PathBatch(
        cfg=lane_cfg,
        x_t=np.tile(np.asarray(lane_cfg.x0, dtype=float), (n, 1)),
        j_t=np.tile(np.eye(d), (n, 1, 1)) if lane.tangent and lane.tangent != "norm" else None,
        j_norm=np.empty(n) if lane.tangent == "norm" else None,
        girsanov_log_weight=np.zeros(n),
        psi_integral=np.zeros(n),
        divergent=np.zeros(n, dtype=bool),
        checkpoint_log_weights={float(t): np.zeros(n) for t in checkpoint_times},
        log_weight_stochastic=np.zeros(n) if track_stochastic_weight else None,
    ) for lane, lane_cfg in zip(lanes, lane_cfgs))
    weighted = [lane.variant == "perturbed" and a.family != "identity" for lane in lanes]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tiles = [tile for block in pool.map(
            lambda block: _run_block(p, a, cfg, block, step_of, batches, weighted),
            rng.block_ranges(n)) for tile in block]
    # each lane's (sup, nonfinite) over every tile of every block
    for batch, lane_observed in zip(batches, zip(*tiles)):
        sups, nonfinite = zip(*lane_observed)
        batch.observed_sup_log_grad, batch.nonfinite_log_grad = max(sups), any(nonfinite)
        # post hoc admissibility: the visited states must not reveal a larger
        # |grad a|/a than the norm the weights were justified with
        batch.g_condition_exceeded = (batch.observed_sup_log_grad
                                      > a.sup_log_grad.value * (1.0 + 1e-9) + 1e-12)
    return batches


def _run_block(p, a, cfg, block, step_of, batches, weighted) -> list:
    """Integrate the paths of ``block`` = (b, lo, hi) of every lane in place
    on rows lo:hi of its batch, which hold the initial state, and return
    per tile and lane the (sup, nonfinite) of the |grad a|/a they visited,
    as :func:`_lane_steps` answers them.  The block runs in row tiles of
    :func:`step_rows` rows, every step of a tile before the next tile;
    each step's increments for the tile are drawn once, into the one buffer
    every lane of the tile was created with, and every lane then takes
    that step."""
    b, lo, hi = block
    d = cfg.dim
    n_rows = min(hi - lo, step_rows(d))
    positions = rng.stream_positions(cfg.n_steps)
    # scratch of the tangent update, one sub-tile each, shared by the lanes
    # and reused on every step of every tile
    work = None
    if any(batch.j_t is not None or batch.j_norm is not None for batch in batches):
        rows = min(n_rows, tile_rows(d))
        work = (np.empty((rows, d, d)), np.empty((rows, d, d)))
    buffer = np.empty((n_rows, d))
    observed = []
    for s in range(lo, hi, n_rows):
        e = min(s + n_rows, hi)
        xi = buffer[:e - s]
        lanes = [_lane_steps(p, a, cfg, w, batch, s, e, step_of, work, xi)
                 for batch, w in zip(batches, weighted)]
        for k in range(cfg.n_steps):
            rng.step_normals(cfg.seed, b, k, xi, positions[k])
            for lane in lanes:
                next(lane)
        # after the last step each lane observes its final state
        observed.append([next(lane) for lane in lanes])
    return observed


def _lane_steps(p, a, cfg, weighted, batch, lo, hi, step_of, work, xi):
    """The paths of one lane on rows lo:hi of ``batch``, as a generator.
    Each ``next`` takes one step on the increments that ``xi``, the tile's
    buffer, holds by then; the ``next`` after the last step observes the
    final state, records the lane's outputs and answers with (sup,
    nonfinite): the sup of the finite values of |grad a|/a over the states
    its live paths visited (0 on unweighted paths), and whether they
    visited a NaN or infinite one.  Between steps it holds only its state.

    Pass k of the loop observes the state after k steps, then takes step
    k + 1.  The observation evaluates the fields (drift, lg, |lg|^2, psi),
    lg as in ``_step_fields``.  A weighted lane also folds the finite
    values of |grad a|/a on its live paths into ``sup`` and any other into
    ``nonfinite``, freezes the paths whose psi is not finite, adds psi to
    the trapezoid sum (half weight at k = 0, and the last term is halved
    where the sum is read) and, at a checkpoint step or the last one,
    writes log R and int psi ds into the lane's rows of the batch, and the
    checkpoints of step k from them."""
    dt = cfg.dt_eff
    sqrt_2dt = math.sqrt(2.0 * dt)

    x = batch.x_t[lo:hi]
    t = np.einsum("ni,ni->n", x, x)
    j = None if batch.j_t is None else batch.j_t[lo:hi]
    if batch.j_norm is not None:
        # J of a lane that keeps only its norm lives as long as the tile
        j = np.tile(np.eye(cfg.dim), (hi - lo, 1, 1))
    alive = np.ones(hi - lo, dtype=bool)
    fields = _step_fields(p, a, weighted)
    if weighted:
        log_a0 = np.log(np.asarray(a.value(x), dtype=float))
        psi_last = np.zeros(hi - lo)
        log_r, integral = batch.girsanov_log_weight[lo:hi], batch.psi_integral[lo:hi]
    track_stoch = weighted and batch.log_weight_stochastic is not None
    sup, nonfinite = 0.0, False
    # an unweighted lane does not observe its final state
    for k in range(cfg.n_steps + 1 if weighted else cfg.n_steps):
        drift, lg, lg_norm2, psi_x = fields(x, t)
        if weighted:
            top = float(np.max(lg_norm2, where=alive, initial=0.0))
            if not math.isfinite(top):
                # a NaN or an infinity must not hide the finite values
                nonfinite = True
                top = float(np.max(lg_norm2, where=alive & np.isfinite(lg_norm2), initial=0.0))
            sup = max(sup, top ** 0.5)
            alive = alive & np.isfinite(psi_x)
            if alive.all():
                psi_last = psi_x
            else:
                psi_x = np.where(alive, psi_x, 0.0)
                psi_last = np.where(alive, psi_x, psi_last)
            psi_sum = 0.5 * psi_x if k == 0 else psi_sum + psi_x
            if k in step_of or k == cfg.n_steps:
                # the last write leaves the lane's terminal weight
                integral[:] = dt * (psi_sum - 0.5 * psi_last)
                log_r[:] = np.log(np.asarray(a.value(x), dtype=float)) - log_a0 - integral
            for tc in step_of.get(k, ()):
                batch.checkpoint_log_weights[tc][lo:hi] = log_r
        if k == cfg.n_steps:
            break
        if track_stoch:
            if lg is None:
                lg = np.asarray(a.log_grad(x), dtype=float)
            lg_xi = np.einsum("ni,ni->n", lg, xi)
            stoch_inc = math.sqrt(2.0) * math.sqrt(dt) * lg_xi - dt * lg_norm2
            batch.log_weight_stochastic[lo:hi] += np.where(alive, stoch_inc, 0.0)
            del lg_xi, stoch_inc
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
        # a lane waiting for the next step holds only its state
        del drift, lg, lg_norm2, psi_x, x_new, t_new
        yield
    batch.divergent[lo:hi] = ~alive
    if batch.j_norm is not None:
        batch.j_norm[lo:hi] = np.linalg.norm(j, 2, axis=(1, 2))
    yield sup, nonfinite


def _step_fields(p, a, weighted):
    """The per-step evaluator (x, t) -> (drift, lg, |lg|^2, psi) at the
    states x, whose squared norms t = |x|^2 the step has already computed,
    with lg = grad a / a; lg, |lg|^2 and psi are None on unweighted paths,
    and lg is None also where the closed forms never build it.

    A radial potential, with a radial perturbation on weighted paths,
    reads its closed forms in t, so nothing recomputes |x|^2: with
    grad V = gc x and lg = lgc x from psi_radial_parts, the drift is
    (gc + 2 lgc) x.  Every other pair goes through its point evaluators
    and psi_from_parts."""
    if p.radial is not None and (not weighted or a.radial is not None):
        if not weighted:
            grad_coeff = p.radial.grad_coeff
            return lambda x, t: (grad_coeff(t)[:, None] * x, None, None, None)

        def closed_form(x, t):
            gc, lgc, lg_norm2, psi_x = psi_radial_parts(a, p, t)
            return (gc + 2.0 * lgc)[:, None] * x, None, lg_norm2, psi_x

        return closed_form

    def point(x, t):
        grad = np.asarray(p.gradient(x), dtype=float)
        if not weighted:
            return grad, None, None, None
        lg = np.asarray(a.log_grad(x), dtype=float)
        lg_norm2 = np.einsum("ni,ni->n", lg, lg)
        return grad + 2.0 * lg, lg, lg_norm2, psi_from_parts(a, x, lg, lg_norm2, grad)

    return point


def _tangent_step(p, j, x, t, dt, keep, work):
    """One Euler step of the tangent flow in place: J <- J - dt J hess V(x)
    on the paths where ``keep`` (a mask over J, or True) holds; t = |x|^2.

    The update runs on tiles of as many rows as the scratch pair ``work``
    holds, so its memory does not grow with the block; every row goes
    through the same operations as in one block-wide pass, bit for bit.
    For a radial potential, hess V = A x x^T + B I with (A, B) from
    ``p.radial.hess_split(t)``, so J hess V = B J + A (J x) x^T and no
    Hessian is built.  When A vanishes on the whole block (the Gaussian)
    the update is the scalar recursion J - dt (B J), bit for bit.
    Potentials without a radial profile multiply by their built Hessian,
    evaluated one tile at a time."""
    upd, outer = work
    if p.radial is not None:
        a_coef, b_coef = p.radial.hess_split(t)
        use_a = bool(np.any(a_coef))
    for lo in range(0, len(j), len(upd)):
        hi = min(lo + len(upd), len(j))
        jt, u = j[lo:hi], upd[:hi - lo]
        if p.radial is None:
            np.matmul(jt, np.asarray(p.hessian(x[lo:hi]), dtype=float), out=u)
        else:
            np.multiply(jt, b_coef[lo:hi, None, None], out=u)
            if use_a:
                jx = np.einsum("nij,nj->ni", jt, x[lo:hi])
                jx *= a_coef[lo:hi, None]
                o = outer[:hi - lo]
                np.multiply(jx[:, :, None], x[lo:hi, None, :], out=o)
                u += o
        u *= dt
        np.subtract(jt, u, out=jt, where=keep if keep is True else keep[lo:hi])


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
    assume, or one that is not finite."""
    valid = ~divergent
    n_valid = int(np.sum(valid))
    if n_valid < 2:
        raise EstimationError(f"only {n_valid} valid paths; cannot estimate")
    vals = np.asarray(values)
    if n_valid < divergent.size:
        vals = vals[valid]
    mean = np.mean(vals, axis=0)
    se = np.std(vals, axis=0, ddof=1) / math.sqrt(n_valid)
    flags = []
    if (divergent.size - n_valid) / divergent.size > MAX_DIVERGENT_FRACTION:
        flags.append(f"more than {MAX_DIVERGENT_FRACTION:.1%} of the paths diverged")
    if batch is not None and batch.g_condition_exceeded:
        flags.append(f"paths visited |grad a|/a = {batch.observed_sup_log_grad:.6g}, above the "
                     f"sup {a.sup_log_grad.value:.6g} the weights assume")
    if batch is not None and batch.nonfinite_log_grad:
        flags.append("paths visited a state where |grad a|/a is not finite")
    return EstimateResult(mean=mean, std_error=se, n_valid=n_valid,
                          n_divergent=divergent.size - n_valid, flags=tuple(flags))


def estimate_expectation(p: Potential, a: Perturbation, cfg: SdeConfig,
                         payoff: Callable[[PathBatch], np.ndarray],
                         variant: str = "plain",
                         tangent: Union[bool, str] = True) -> EstimateResult:
    """Sample mean and standard error of a path functional.

    ``tangent`` is the tangent mode of :func:`simulate`, True, False or
    "norm": pass False when ``payoff`` reads neither ``batch.j_t`` nor
    ``batch.j_norm``, and "norm" when it reads only ``batch.j_norm``.
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
        raise ParameterError("batch holds no tangent flow (simulated with tangent=False or "
                             "'norm')")
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

    The 2d shifted runs are the lanes of :func:`_fd_lanes`, integrated in
    one :func:`simulate_lanes` call on the Brownian increments of
    ``cfg.seed``, so each difference is computed pathwise and its variance
    stays O(1) in the step.
    """
    return _fd_gradient(f, simulate_lanes(p, identity_perturbation(), cfg, _fd_lanes(cfg)))


def _fd_lanes(cfg: SdeConfig) -> tuple:
    """Plain lanes without the tangent flow from x0 + FD_STEP e_i and
    x0 - FD_STEP e_i, in that order for each coordinate i."""
    d = cfg.dim
    x0 = np.asarray(cfg.x0, dtype=float)
    lanes = []
    for i in range(d):
        shift = np.zeros(d)
        shift[i] = FD_STEP
        lanes += [Lane(tuple(x0 + shift), "plain", False), Lane(tuple(x0 - shift), "plain", False)]
    return tuple(lanes)


def _fd_gradient(f: SmoothFunction, batches: Sequence[PathBatch]) -> EstimateResult:
    """The central-difference estimate over the batches of the
    :func:`_fd_lanes` lanes; a path counts as divergent when it diverged
    in any of them."""
    diffs = []
    divergent = np.zeros(len(batches[0]), dtype=bool)
    for bp, bm in zip(batches[::2], batches[1::2]):
        fp = np.asarray(f.value(bp.x_t), dtype=float)
        fm = np.asarray(f.value(bm.x_t), dtype=float)
        diffs.append((fp - fm) / (2.0 * FD_STEP))
        divergent |= bp.divergent | bm.divergent
    return _reduce(np.stack(diffs, axis=1), divergent)
