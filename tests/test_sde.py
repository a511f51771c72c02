import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logsob.errors import EstimationError, ParameterError
from logsob.perturbations import (
    arctan_perturbation,
    identity_perturbation,
    make_custom_perturbation,
    psi_from_parts,
)
from logsob.potentials import make_custom_potential, make_potential
from logsob import rng, sde
from logsob.rng import BLOCK_PATHS, step_normals, stream_positions
from logsob.sde import (
    DIVERGENCE_RADIUS,
    Lane,
    SdeConfig,
    SmoothFunction,
    _fd_lanes,
    _step_fields,
    _tangent_step,
    estimate_expectation,
    estimate_fk_gradient,
    estimate_gradient_fd,
    payoff_tangent_gradient,
    payoff_terminal,
    payoff_weight,
    payoff_weighted_terminal,
    simulate,
    simulate_lanes,
    step_rows,
    tile_rows,
)

LINEAR = SmoothFunction(
    "linear",
    value=lambda x: 0.8 * x[..., 0] + (-0.6) * x[..., 1] if x.shape[-1] > 1 else x[..., 0],
    gradient=lambda x: np.broadcast_to(
        np.array([0.8, -0.6]) if x.shape[-1] > 1 else np.array([1.0]), x.shape
    ).copy(),
)

EPS = np.finfo(float).eps

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
    # path counts whose last block index leaves the 32-bit block key range;
    # the configs are only built, never simulated
    with pytest.raises(ParameterError, match="n_paths"):
        SdeConfig(dt=0.1, horizon=1.0, n_paths=2**48 + 1, seed=0, x0=(0.0,))
    assert SdeConfig(dt=0.1, horizon=1.0, n_paths=2**48, seed=0, x0=(0.0,)).n_paths == 2**48
    # a non-finite horizon, and step counts outside the 32-bit step key range
    for dt, horizon in ((0.1, math.inf), (math.inf, math.inf), (1e-300, 1e300),
                        (1.0, 2.0**32), (0.5, 2.0**31)):
        with pytest.raises(ParameterError, match="horizon"):
            SdeConfig(dt=dt, horizon=horizon, n_paths=1, seed=0, x0=(0.0,))
    assert SdeConfig(dt=1.0, horizon=2.0**32 - 1, n_paths=1, seed=0, x0=(0.0,)).n_steps == 2**32 - 1


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
        threaded = [run(2, True), run(4, True)]
        lean = [run(1, False), run(2, False)]
        assert all(np.array_equal(b1.j_t, b.j_t) for b in threaded)
        assert all(b.j_t is None for b in lean)
        # skipping the tangent flow leaves every other output bit-identical
        for other in threaded + lean:
            _assert_same_paths(b1, other)


def _same_bits(u, v):
    if isinstance(u, dict):
        return u.keys() == v.keys() and all(_same_bits(u[k], v[k]) for k in u)
    if isinstance(u, np.ndarray):
        return (isinstance(v, np.ndarray) and u.dtype == v.dtype and u.shape == v.shape
                and u.tobytes() == v.tobytes())
    return type(u) is type(v) and u == v


def _point_path_quartic(d):
    """The subbotin alpha=4 callables without their radial profile, so the
    step takes the point evaluators."""
    q = make_potential("subbotin", d, alpha=4.0)
    return make_custom_potential(d, q.value, q.gradient, q.hessian)


# a lane is (x0, variant, tangent); x0 index 0 is the config's own x0 and
# 1..4 are the central-difference shifts of _fd_lanes
_LANES = st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["plain", "perturbed"]),
                            st.sampled_from([True, False, "norm"])), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_paths=st.integers(1, 2 * BLOCK_PATHS + 1000).filter(lambda n: n % BLOCK_PATHS),
       workers=st.integers(1, 3), lanes=_LANES,
       evaluator=st.sampled_from(["closed_form", "point"]))
@example(n_paths=2 * BLOCK_PATHS + 1, workers=2, lanes=[(0, "perturbed", False)],
         evaluator="closed_form")
@example(n_paths=2 * BLOCK_PATHS + 1, workers=3, lanes=[(0, "perturbed", True)],
         evaluator="point")
@example(n_paths=BLOCK_PATHS + 7, workers=3, evaluator="point",
         lanes=[(0, "plain", True), (0, "perturbed", True), (1, "plain", False), (4, "plain", False)])
@example(n_paths=BLOCK_PATHS + 7, workers=2, evaluator="closed_form",
         lanes=[(0, "plain", True), (0, "perturbed", True), (2, "plain", False), (3, "plain", False)])
def test_every_batch_field_is_independent_of_the_worker_count(n_paths, workers, lanes,
                                                             evaluator):
    """Every field of every lane of a simulate_lanes call on any worker count
    is bit-identical to a separate one-worker simulate of that lane."""
    if evaluator == "point":
        p = _point_path_quartic(2)
    else:
        p = make_potential("subbotin", 2, alpha=4.0)
    a = arctan_perturbation(0.4)
    cfg = SdeConfig(dt=0.01, horizon=0.02, n_paths=n_paths, seed=17, x0=(0.5, -0.5))
    x0s = (cfg.x0,) + tuple(lane.x0 for lane in _fd_lanes(cfg))
    lanes = tuple(Lane(x0s[i], variant, tangent) for i, variant, tangent in lanes)
    options = dict(track_stochastic_weight=True, checkpoint_times=(0.01, 0.02))
    together = simulate_lanes(p, a, cfg, lanes, max_workers=workers, **options)
    assert len(together) == len(lanes)
    for lane, batch in zip(lanes, together):
        ref = simulate(p, a, dataclasses.replace(cfg, x0=lane.x0), variant=lane.variant,
                       max_workers=1, tangent=lane.tangent, **options)
        for field in dataclasses.fields(ref):
            assert _same_bits(getattr(ref, field.name), getattr(batch, field.name)), field.name


def _nan_beyond(edge):
    """a = 2 + exp(-x^2) in d = 1, with its gradient and Laplacian NaN
    wherever x > edge: paths reach it at different steps."""
    def value(x):
        return 2.0 + np.exp(-x[..., 0] ** 2)

    def gradient(x):
        return np.where(x > edge, np.nan, -2.0 * x * np.exp(-x ** 2))

    def laplacian(x):
        x1 = x[..., 0]
        return np.where(x1 > edge, np.nan, (4.0 * x1 ** 2 - 2.0) * np.exp(-x1 ** 2))

    return make_custom_perturbation(value, gradient, laplacian, dim=1)


@pytest.mark.parametrize("x0, n_steps", [(0.3, 1), (0.3, 3), (0.3, 7), (0.5, 4)])
def test_a_non_finite_log_grad_hides_no_finite_one_and_is_flagged(x0, n_steps):
    """The sup of |grad a|/a is the largest finite value that live paths
    visited, at any step, and a NaN is reported apart.  A frozen path keeps
    a state it reached while live, so that sup is the largest finite value
    over every state the lane evaluated.  From x0 = 0.5 every path meets a
    NaN at step 0 and is frozen there."""
    p = make_potential("subbotin", 1, alpha=4.0)
    nan_a = _nan_beyond(0.4)
    seen = []

    def log_grad(x):
        lg = nan_a.log_grad(x)
        seen.append(np.abs(lg[:, 0]))
        return lg

    a = dataclasses.replace(nan_a, log_grad=log_grad)
    cfg = SdeConfig(dt=0.01, horizon=0.01 * n_steps, n_paths=250, seed=23, x0=(x0,))
    batch = simulate(p, a, cfg, variant="perturbed", tangent=False)
    values = np.concatenate(seen)
    finite = np.isfinite(values)
    assert batch.observed_sup_log_grad == np.max(values[finite], initial=0.0)
    assert batch.nonfinite_log_grad == (not finite.all())
    if x0 == 0.5:
        assert batch.divergent.all() and batch.observed_sup_log_grad == 0.0
    elif n_steps == 7:
        # live paths went past x = 0.4 and the sup still moved past its x0 value
        assert batch.nonfinite_log_grad and batch.observed_sup_log_grad > values[0]
        flags = sde._reduce(batch.weights(), batch.divergent, batch, a).flags
        assert "paths visited a state where |grad a|/a is not finite" in flags


@pytest.mark.parametrize("case", ["lanes closed_form", "lanes point", "alpha=1000",
                                  "nan later", "divergent"])
def test_every_batch_field_is_independent_of_the_step_tile(case, monkeypatch):
    """Stepping each block in tiles of 7 rows gives the bits of one tile per
    block: every row goes through the same operations, the sup of
    |grad a|/a included, and the per-tile shortcuts (every path alive, the
    Hessian's A term vanishing, psi finite everywhere) move no bit."""
    options = dict(track_stochastic_weight=True, checkpoint_times=(0.02, 0.05))
    cfg = SdeConfig(dt=0.01, horizon=0.05, n_paths=250, seed=23, x0=(0.5, -0.5))
    a = arctan_perturbation(0.4)
    if case.startswith("lanes"):
        p = _point_path_quartic(2) if case == "lanes point" else make_potential("double_well", 2,
                                                                                 beta=0.2)
        lanes = (Lane(cfg.x0, "plain", True), Lane(cfg.x0, "perturbed", True)) + _fd_lanes(cfg)
    else:
        # A = 998 t^498 underflows to 0 on the paths nearest the origin only
        p = make_potential("subbotin", 2, alpha=1000.0)
        if case == "nan later":
            p, a = make_potential("subbotin", 1, alpha=4.0), _nan_beyond(0.4)
            cfg = dataclasses.replace(cfg, x0=(0.3,))
        elif case == "divergent":
            p, a = make_potential("subbotin", 8, alpha=4.0), arctan_perturbation(0.5)
            cfg = SdeConfig(dt=0.3, horizon=3.0, n_paths=250, seed=47, x0=(0.0,) * 8)
            options["checkpoint_times"] = (1.5, 3.0)
        lanes = (Lane(cfg.x0, "plain", True), Lane(cfg.x0, "perturbed", True))
    lanes += (Lane(cfg.x0, "perturbed", "norm"),)

    def run(step_tile):
        monkeypatch.setattr(sde, "STEP_TILE", step_tile)
        return simulate_lanes(p, a, cfg, lanes, max_workers=1, **options)

    tiled, whole = run(7 * cfg.dim), run(cfg.n_paths * cfg.dim)
    assert step_rows(cfg.dim) == cfg.n_paths
    for lane, ref, batch in zip(lanes, whole, tiled):
        for field in dataclasses.fields(ref):
            u, v = getattr(ref, field.name), getattr(batch, field.name)
            # a NaN sup compares by its repr
            assert _same_bits(u, v) or (isinstance(u, float) and repr(u) == repr(v)), \
                (lane, field.name)
    if case in ("nan later", "divergent"):
        assert 0 < whole[1].n_divergent < cfg.n_paths


@pytest.mark.parametrize("variant", ["plain", "perturbed"])
def test_step_memory_does_not_grow_with_the_block(variant):
    """At d = 32 on one worker, what a step allocates beside the batch and
    one tile of normals is tile-sized: a few MiB, where block-wide
    temporaries took about 50 MiB and block-wide normals 16 MiB."""
    d = 32
    p = make_potential("subbotin", d, alpha=4.0)
    cfg = SdeConfig(dt=0.01, horizon=0.03, n_paths=BLOCK_PATHS + 1000, seed=3, x0=(0.1,) * d)
    tracemalloc.start()
    try:
        batch = simulate(p, arctan_perturbation(0.4), cfg, variant=variant, max_workers=1,
                         tangent=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(v.nbytes for v in (batch.x_t, batch.girsanov_log_weight, batch.psi_integral,
                                    batch.divergent))
    normals = step_rows(d) * d * 8
    # measured: 2.2 MiB plain, 1.6 MiB perturbed (numpy 2.4, d = 32)
    assert peak - arrays - normals < 8 * 2**20


def test_a_norm_lane_never_holds_the_tangent_flow_of_the_batch():
    """Two blocks at d = 8 on one worker with tangent="norm": beside the
    batch's arrays the run holds one tile's J and its scratch, far below
    the n d^2 doubles of J_T."""
    d = 8
    p = make_potential("subbotin", d, alpha=4.0)
    cfg = SdeConfig(dt=0.01, horizon=0.03, n_paths=BLOCK_PATHS + 1000, seed=3, x0=(0.1,) * d)
    tracemalloc.start()
    try:
        batch = simulate(p, arctan_perturbation(0.4), cfg, variant="perturbed", max_workers=1,
                         tangent="norm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.j_t is None and batch.j_norm.shape == (cfg.n_paths,)
    arrays = sum(v.nbytes for v in (batch.x_t, batch.j_norm, batch.girsanov_log_weight,
                                    batch.psi_integral, batch.divergent))
    # measured 8.3 MiB (numpy 2.4): one tile's J (4 MiB), the scratch of its
    # update (2 MiB) and the step's temporaries; J_T would be 32.5 MiB
    assert peak - arrays < 12 * 2**20 < cfg.n_paths * d * d * 8 // 2


@pytest.mark.parametrize("case", ["tiles", "divergent"])
def test_a_norm_lane_keeps_the_norm_of_the_tangent_flow_bit_for_bit(case):
    """tangent="norm" gives the spectral norm of the J_T that tangent=True
    keeps, bit for bit, and every other field of the batch unchanged; the
    d = 8 blocks span three step tiles, and at dt = 0.3 about 90% of the
    paths diverge and keep the J of their last step."""
    p = make_potential("subbotin", 8, alpha=4.0)
    if case == "tiles":
        cfg = SdeConfig(dt=0.01, horizon=0.05, n_paths=20000, seed=13,
                        x0=tuple(0.3 * (-1.0) ** i for i in range(8)))
    else:
        cfg = SdeConfig(dt=0.3, horizon=3.0, n_paths=20000, seed=47, x0=(0.0,) * 8)
    assert cfg.n_paths > 2 * step_rows(8)
    lanes = tuple(Lane(cfg.x0, variant, tangent) for variant in ("plain", "perturbed")
                  for tangent in (True, "norm"))
    batches = simulate_lanes(p, arctan_perturbation(0.5), cfg, lanes,
                             track_stochastic_weight=True, checkpoint_times=(cfg.horizon,))
    for full, norm in (batches[:2], batches[2:]):
        assert norm.j_t is None and full.j_norm is None
        assert _same_bits(norm.j_norm, np.linalg.norm(full.j_t, 2, axis=(1, 2)))
        for field in dataclasses.fields(full):
            if field.name not in ("j_t", "j_norm"):
                assert _same_bits(getattr(full, field.name), getattr(norm, field.name)), field.name
    if case == "divergent":
        assert 0.5 < batches[3].n_divergent / cfg.n_paths < 1


def _philox_normals(seed, block, step, n, d):
    """The first n x d standard normals of the (seed, block, step) stream,
    drawn from Philox directly."""
    key = np.array([seed, (block << 32) | step], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((n, d))


def test_step_normals_fill_the_buffer_they_are_given():
    out = np.empty((300, 3))
    assert step_normals(5, 2, 7, out, stream_positions(1)[0]) is out
    assert out.tobytes() == _philox_normals(5, 2, 7, 300, 3).tobytes()


def test_sampler_tags_lie_outside_every_admitted_path_stream_key():
    """A path stream's key word is block << 32 | step.  The step half of
    each tag is past the last step of the largest config SdeConfig admits,
    so no sampler draws from a path stream."""
    largest = SdeConfig(dt=1.0, horizon=2.0**32 - 1, n_paths=2**48, seed=0, x0=(0.0,))
    assert (largest.n_paths - 1) // BLOCK_PATHS == 2**32 - 1
    for tag in (rng.TAG_SAMPLER, rng.TAG_MALA):
        assert 0 <= tag < 2**64 and tag & (2**32 - 1) > largest.n_steps - 1
    assert rng.TAG_SAMPLER != rng.TAG_MALA
    # a tag of 1 << 33 would be the key word of path block 2, step 0
    out = np.empty((3, 1))
    step_normals(7, 2, 0, out, stream_positions(1)[0])
    assert rng.stream(7, rng.TAG_SAMPLER).standard_normal(3).tobytes() != out.tobytes()


@pytest.mark.parametrize("d, tiles", [(1, (65536,)), (1, (1, 40000, 25535)), (3, (7, 30000, 35000)),
                                      (8, (8192,) * 8), (8, (5000, 1, 8192, 3000))])
def test_resumed_tile_draws_are_the_block_draw(d, tiles):
    """A block's rows drawn one tile at a time, every step of a tile before
    the next tile, each draw resuming its step's stream from the position
    the previous tile saved, are the rows of one block-wide draw per step."""
    steps = 3
    positions = stream_positions(steps)
    drawn = [[] for _ in range(steps)]
    for rows in tiles:
        out = np.empty((rows, d))
        for k in range(steps):
            step_normals(29, 1, k, out, positions[k])
            drawn[k].append(out.copy())
    for k in range(steps):
        assert np.concatenate(drawn[k]).tobytes() == _philox_normals(29, 1, k, sum(tiles), d).tobytes()


def test_empty_lane_tuple_is_rejected():
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=0.1, horizon=0.2, n_paths=4, seed=0, x0=(0.0,))
    with pytest.raises(ParameterError, match="at least one lane"):
        simulate_lanes(p, identity_perturbation(), cfg, ())
    with pytest.raises(ParameterError, match="tangent must be"):
        simulate(p, identity_perturbation(), cfg, tangent="spectral")
    # the config's x0 sets how many normals each path draws, so it must
    # match the potential as each lane's does
    p2 = make_potential("gaussian", 2, rho=1.0)
    for x0 in ((0.0,), (0.0, 0.0, 0.0)):
        with pytest.raises(ParameterError, match=f"dimension {len(x0)}, potential has 2"):
            simulate_lanes(p2, identity_perturbation(), dataclasses.replace(cfg, x0=x0),
                           (Lane((0.0, 0.0), "plain", False),))


@pytest.mark.parametrize("variant, a, observations", [
    ("plain", arctan_perturbation(0.4), 0),
    ("perturbed", identity_perturbation(), 0),
    ("perturbed", arctan_perturbation(0.4), 1),
], ids=["plain", "identity", "weighted"])
def test_each_state_is_observed_once(variant, a, observations):
    """The drift is evaluated at the start of each step; only a weighted
    lane observes the state after its last step, for its weight.  The Ito
    increment reuses the step's grad a / a, and a checkpoint at the horizon
    shares the final weight's log a(X_T)."""
    quartic = make_potential("subbotin", 2, alpha=4.0)
    calls = {"gradient": [], "log_grad": [], "value": []}

    def counted(name, f):
        def wrapped(x):
            calls[name].append(len(x))
            return f(x)
        return wrapped

    p = make_custom_potential(2, quartic.value, counted("gradient", quartic.gradient),
                              quartic.hessian)
    a = dataclasses.replace(a, log_grad=counted("log_grad", a.log_grad),
                            value=counted("value", a.value))
    cfg = SdeConfig(dt=0.01, horizon=0.03, n_paths=BLOCK_PATHS + 7, seed=5, x0=(0.4, -0.2))
    simulate(p, a, cfg, variant=variant, max_workers=1, tangent=False,
             track_stochastic_weight=True, checkpoint_times=(cfg.horizon,))

    # the first block steps in tiles of step_rows(2) rows, the second in one
    tiles = [step_rows(2)] * (BLOCK_PATHS // step_rows(2))

    def per_block(count):
        return tiles * count + [7] * count

    assert calls["gradient"] == per_block(cfg.n_steps + observations)
    assert calls["log_grad"] == per_block((cfg.n_steps + 1) * observations)
    # log a at x0 and at X_T
    assert calls["value"] == per_block(2 * observations)


@pytest.fixture
def cpus(monkeypatch):
    monkeypatch.setattr(sde.os, "cpu_count", lambda: 16)


def test_env_value_wins(monkeypatch, cpus):
    monkeypatch.setenv("LOGSOB_THREADS", "3")
    assert sde.worker_count() == 3
    monkeypatch.setenv("LOGSOB_THREADS", "32")
    assert sde.worker_count() == 32


def test_default_caps_cpu_count(monkeypatch, cpus):
    monkeypatch.delenv("LOGSOB_THREADS", raising=False)
    assert sde.worker_count() == 4
    monkeypatch.setattr(sde.os, "cpu_count", lambda: 2)
    assert sde.worker_count() == 2
    monkeypatch.setattr(sde.os, "cpu_count", lambda: None)
    assert sde.worker_count() == 1


@pytest.mark.parametrize("bad", ["", "four", "2.5", "0", "-3"])
def test_bad_env_value_falls_back_on_default(monkeypatch, cpus, bad):
    monkeypatch.setenv("LOGSOB_THREADS", bad)
    assert sde.worker_count() == 4


def test_worker_count_below_one_is_rejected():
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=0.1, horizon=0.2, n_paths=4, seed=0, x0=(0.0,))
    with pytest.raises(ParameterError, match="max_workers"):
        simulate(p, identity_perturbation(), cfg, max_workers=0)


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


# --- tangent update ------------------------------------------------------------

def _one_tangent_step(p, j, x, dt, keep):
    j = j.copy()
    _tangent_step(p, j, x, np.einsum("ni,ni->n", x, x), dt, keep[:, None, None],
                  (np.empty_like(j), np.empty_like(j)))
    return j


def _random_state(d, n=2000, seed=0):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, d)) * 1.5
    j = np.eye(d) + 0.3 * gen.normal(size=(n, d, d))
    return j, x


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("family,params", [("subbotin", {"alpha": 4.0}),
                                           ("double_well", {"beta": 0.2})])
def test_radial_tangent_step_matches_hessian_product(family, params, d):
    p = make_potential(family, d, **params)
    j, x = _random_state(d)
    dt = 0.01
    reference = j - dt * (j @ p.hessian(x))
    lean = _one_tangent_step(p, j, x, dt, np.ones(len(x), dtype=bool))
    # B J + A (J x) x^T rounds differently from the product with the built
    # Hessian: a few ulps of each matrix's largest entry
    scale = np.max(np.abs(reference), axis=(1, 2), keepdims=True)
    assert np.max(np.abs(lean - reference) / scale) <= 4e-15


@pytest.mark.parametrize("d", [1, 2, 8])
def test_gaussian_tangent_step_is_bit_identical(d):
    p = make_potential("gaussian", d, rho=1.7)
    j, x = _random_state(d)
    dt = 0.01
    lean = _one_tangent_step(p, j, x, dt, np.ones(len(x), dtype=bool))
    assert np.array_equal(lean, j - dt * (j @ p.hessian(x)))


def test_tangent_step_freezes_dropped_paths():
    p = make_potential("subbotin", 3, alpha=4.0)
    j, x = _random_state(3)
    keep = np.arange(len(x)) % 3 != 0
    stepped = _one_tangent_step(p, j, x, 0.01, keep)
    assert np.array_equal(stepped[~keep], j[~keep])
    assert not np.any(np.all(stepped[keep] == j[keep], axis=(1, 2)))


def _block_tangent_step(p, j, x, t, dt, keep):
    """The tangent update in one block-wide pass over two block-sized
    buffers: the reference the tiled update must reproduce bit for bit."""
    upd, outer = np.empty_like(j), np.empty_like(j)
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


def _hessian_recorder(d, calls):
    """The subbotin alpha=4 potential without its radial profile, recording
    the shape of every Hessian batch."""
    q = make_potential("subbotin", d, alpha=4.0)

    def hessian(x):
        calls.append(x.shape)
        return q.hessian(x)

    return make_custom_potential(d, q.value, q.gradient, hessian)


@pytest.mark.parametrize("kind", ["subbotin", "gaussian", "custom"])
def test_tiled_tangent_step_is_the_block_update_bit_for_bit(kind):
    d = 8
    rows = tile_rows(d)
    assert rows * d * d * 8 == 1 << 20
    n = 3 * rows + 37
    calls = []
    p = {"subbotin": lambda: make_potential("subbotin", d, alpha=4.0),
         "gaussian": lambda: make_potential("gaussian", d, rho=1.7),
         "custom": lambda: _hessian_recorder(d, calls)}[kind]()
    j, x = _random_state(d, n)
    t = np.einsum("ni,ni->n", x, x)
    # a dropped path in the last, partial tile
    keep = np.ones(n, dtype=bool)
    keep[n - 5] = False
    ref = j.copy()
    _block_tangent_step(p, ref, x, t, 0.01, keep[:, None, None])
    calls.clear()
    tiled = j.copy()
    _tangent_step(p, tiled, x, t, 0.01, keep[:, None, None],
                  (np.empty((rows, d, d)), np.empty((rows, d, d))))
    assert tiled.tobytes() == ref.tobytes()
    assert np.array_equal(tiled[n - 5], j[n - 5])
    if kind == "custom":
        assert calls == [(rows, d)] * 3 + [(37, d)]


def test_simulate_hands_the_hessian_one_tile_at_a_time():
    d = 8
    rows = tile_rows(d)
    calls = []
    p = _hessian_recorder(d, calls)
    cfg = SdeConfig(dt=0.01, horizon=0.03, n_paths=3 * rows + 37, seed=2, x0=(0.3,) * d)
    calls.clear()
    batch = simulate(p, identity_perturbation(), cfg, max_workers=1)
    assert calls == ([(rows, d)] * 3 + [(37, d)]) * cfg.n_steps
    ref = simulate(make_potential("subbotin", d, alpha=4.0), identity_perturbation(), cfg)
    assert np.max(np.abs(batch.j_t - ref.j_t)) <= 1e-12


def test_divergent_paths_keep_their_tangent_flow():
    # every path survives the first step and leaves the divergence radius on
    # the second, so J keeps its one-step value I - dt hess V(x0)
    p = make_potential("subbotin", 2, alpha=4.0)
    x0 = np.array([50.0, -50.0])
    cfg = SdeConfig(dt=0.9, horizon=1.8, n_paths=50, seed=43, x0=tuple(x0))
    batch = simulate(p, identity_perturbation(), cfg)
    assert batch.n_divergent == 50
    # the state is frozen too, at its last value inside the radius
    assert np.all(np.sum(batch.x_t**2, axis=1) <= DIVERGENCE_RADIUS**2)
    one_step = np.eye(2) - cfg.dt_eff * p.hessian(x0)
    assert np.all(batch.j_t == batch.j_t[0])
    assert np.max(np.abs(batch.j_t[0] - one_step)) <= 4e-15 * np.max(np.abs(one_step))


def test_custom_potential_takes_the_hessian_path():
    rho = 1.3
    calls = []

    def hessian(x):
        calls.append(x.shape)
        return rho * np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))

    custom = make_custom_potential(2, lambda x: 0.5 * rho * np.sum(x * x, axis=-1),
                                   lambda x: rho * x, hessian)
    assert custom.radial is None
    calls.clear()
    cfg = SdeConfig(dt=0.01, horizon=0.05, n_paths=300, seed=5, x0=(0.4, -0.2))
    batch = simulate(custom, identity_perturbation(), cfg)
    assert calls == [(300, 2)] * cfg.n_steps
    gauss = simulate(make_potential("gaussian", 2, rho=rho), identity_perturbation(), cfg)
    assert np.array_equal(batch.j_t, gauss.j_t)


# --- per-step fields ---------------------------------------------------------------

def _points(d, n=2000, seed=0):
    """Random directions at radii from 1e-4 to 1e3 (t up to 1e6), with the
    origin and the largest radius included."""
    gen = np.random.default_rng(seed)
    u = gen.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = 10.0 ** gen.uniform(-4.0, 3.0, size=n)
    r[0], r[1] = 0.0, 1e3
    return u * r[:, None]


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("a", [identity_perturbation(), arctan_perturbation(0.4)],
                         ids=["identity", "arctan"])
@pytest.mark.parametrize("family,params", [("gaussian", {"rho": 1.3}),
                                           ("subbotin", {"alpha": 3.0}),
                                           ("subbotin", {"alpha": 4.0}),
                                           ("double_well", {"beta": 0.2})])
def test_closed_form_fields_match_the_point_evaluators(family, params, a, d):
    p = make_potential(family, d, **params)
    weighted = a.family != "identity"
    x = _points(d)
    t = np.einsum("ni,ni->n", x, x)

    def closed(tt):
        return [f for f in _step_fields(p, a, weighted)(x, tt) if f is not None]

    got = closed(t)
    assert len(got) == (3 if weighted else 1)
    grad = p.gradient(x)
    lg = a.log_grad(x) if weighted else np.zeros_like(x)
    lg_norm2 = np.einsum("ni,ni->n", lg, lg)
    want = [grad + 2.0 * lg, lg_norm2, psi_from_parts(a, x, lg, lg_norm2, grad)]
    magnitudes = [np.abs(grad) + 2.0 * np.abs(lg), lg_norm2,
                  np.abs(a.lap_over_a(x)) + 2.0 * lg_norm2
                  + np.abs(np.einsum("ni,ni->n", grad, lg))]
    # the point evaluators sum |x|^2 in another order, so their t differs by
    # up to about d ulps: allow each field's own change under a 2d-ulp move
    # of t, plus a few roundings of its terms' magnitudes on each side
    spreads = [np.maximum(np.abs(lo - g), np.abs(hi - g)) for g, lo, hi in
               zip(got, closed(t * (1.0 - 2 * d * EPS)), closed(t * (1.0 + 2 * d * EPS)))]
    for g, w, size, spread in zip(got, want, magnitudes, spreads):
        assert np.all(np.abs(g - w) <= 4 * (d + 2) * EPS * size + spread)


def test_custom_potential_stays_on_the_point_path():
    builtin = make_potential("subbotin", 2, alpha=4.0)
    calls = []

    def gradient(x):
        calls.append(x.shape)
        return builtin.gradient(x)

    custom = make_custom_potential(2, builtin.value, gradient, builtin.hessian)
    assert custom.radial is None
    a = arctan_perturbation(0.4)
    cfg = SdeConfig(dt=0.01, horizon=0.2, n_paths=3000, seed=5, x0=(0.4, -0.2))
    calls.clear()
    batch = simulate(custom, a, cfg, variant="perturbed", max_workers=1)
    # once at the initial state and once after each step
    assert calls == [(3000, 2)] * (cfg.n_steps + 1)
    ref = simulate(builtin, a, cfg, variant="perturbed", max_workers=1)
    for name in ("x_t", "j_t", "girsanov_log_weight", "psi_integral"):
        got, want = getattr(batch, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
    assert not batch.divergent.any() and not ref.divergent.any()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300],
                         ids=["nan", "inf", "-inf", "overflow"])
def test_divergence_test_is_the_squared_norm(bad):
    # the gradient turns bad in its second coordinate only where the first
    # coordinate passes 0.5: the next state then has a NaN or infinite
    # coordinate, or a squared norm that overflows
    quartic = make_potential("subbotin", 2, alpha=4.0)

    def potential(inject):
        def gradient(x):
            g = quartic.gradient(x)
            if inject:
                g[..., 1] = np.where(x[..., 0] > 0.5, bad, g[..., 1])
            return g
        return make_custom_potential(2, quartic.value, gradient, quartic.hessian)

    dt, n_steps = 2.0**-7, 24
    cfg = SdeConfig(dt=dt, horizon=n_steps * dt, n_paths=400, seed=3, x0=(0.0, 0.0))
    batch = simulate(potential(True), identity_perturbation(), cfg)
    # the clean paths through step k share their increments with the full run
    clean = potential(False)
    x_k, j_k = [np.zeros((400, 2))], [np.tile(np.eye(2), (400, 1, 1))]
    for k in range(1, n_steps):
        prefix = simulate(clean, identity_perturbation(),
                          dataclasses.replace(cfg, horizon=k * dt))
        x_k.append(prefix.x_t)
        j_k.append(prefix.j_t)
    hit = np.array([x[:, 0] > 0.5 for x in x_k])
    first = np.argmax(hit, axis=0)
    expected = hit.any(axis=0)
    assert 0 < expected.sum() < 400
    assert np.array_equal(batch.divergent, expected)
    # a path freezes at the state where its gradient turned bad
    rows = np.flatnonzero(expected)
    assert np.array_equal(batch.x_t[rows], np.array(x_k)[first[rows], rows])
    assert np.array_equal(batch.j_t[rows], np.array(j_k)[first[rows], rows])
    assert np.all(np.isfinite(batch.x_t)) and np.all(np.isfinite(batch.j_t))


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


def test_non_finite_psi_at_the_initial_state_freezes_the_path():
    # the Laplacian of a = 2 + exp(-x^2) is NaN exactly at x = 2, where the
    # paths start: they are divergent rather than carrying NaN weights
    def value(x):
        return 2.0 + np.exp(-x[..., 0] ** 2)

    def gradient(x):
        return -2.0 * x * np.exp(-x ** 2)

    def laplacian(x):
        x1 = x[..., 0]
        return np.where(x1 == 2.0, np.nan, (4.0 * x1 ** 2 - 2.0) * np.exp(-x1 ** 2))

    a = make_custom_perturbation(value, gradient, laplacian, dim=1)
    p = make_potential("subbotin", 1, alpha=4.0)
    cfg = SdeConfig(dt=0.01, horizon=0.05, n_paths=100, seed=1, x0=(2.0,))
    batch = simulate(p, a, cfg, variant="perturbed")
    assert batch.divergent.all()
    assert np.all(batch.girsanov_log_weight == 0.0) and np.all(batch.psi_integral == 0.0)
    with pytest.raises(EstimationError, match="only 0 valid paths"):
        estimate_expectation(p, a, cfg, payoff_weight(), variant="perturbed", tangent=False)


def test_unreliable_flag_when_divergence_exceeds_threshold():
    # at this coarse dt a small fraction of quartic paths explodes
    p = make_potential("subbotin", 1, alpha=4.0)
    cfg = SdeConfig(dt=0.3, horizon=3.0, n_paths=2000, seed=47, x0=(0.0,))
    batch = simulate(p, identity_perturbation(), cfg)
    assert 0 < batch.n_divergent < 2000
    assert batch.n_divergent / 2000 > 1e-3
    est = estimate_expectation(p, identity_perturbation(), cfg, lambda b: np.ones(len(b)))
    assert est.flags == ("more than 0.1% of the paths diverged",)
    assert est.n_valid == 2000 - batch.n_divergent


def test_checkpoint_rounding_to_step_zero_names_the_step():
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=1.0, horizon=1.0, n_paths=10, seed=1, x0=(0.0,))
    with pytest.raises(ParameterError, match="rounds to step 0"):
        simulate(p, arctan_perturbation(0.3), cfg, variant="perturbed", checkpoint_times=(0.5,))


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


def test_weights_under_a_perturbation_that_violates_G_are_flagged():
    # a = exp(1e-7 |x|^2): |grad a|/a = 2e-7 |x| stays tiny on these paths,
    # but grows without bound, so a.sup_log_grad is inf and no visited state
    # can exceed it; the weighted estimate is flagged in the words of
    # verify's (G) check, the plain one is not
    c = 1e-7
    a = make_custom_perturbation(
        value=lambda x: np.exp(c * np.sum(x**2, axis=-1)),
        gradient=lambda x: 2 * c * x * np.exp(c * np.sum(x**2, axis=-1))[..., None],
        laplacian=lambda x: (2 * c + 4 * c * c * np.sum(x**2, axis=-1))
        * np.exp(c * np.sum(x**2, axis=-1)),
        dim=1)
    assert a.sup_log_grad.value == math.inf
    p = make_potential("gaussian", 1, rho=1.0)
    cfg = SdeConfig(dt=0.01, horizon=0.5, n_paths=2000, seed=5, x0=(0.0,))
    weighted = estimate_expectation(p, a, cfg, payoff_weight(), variant="perturbed",
                                    tangent=False)
    assert weighted.flags == ("perturbation violates (G): warning: grid sup of |grad a|/a "
                              "overflows or grows with the probe radius; unbounded",)
    plain = estimate_expectation(p, a, cfg, payoff_weight(), variant="plain", tangent=False)
    assert plain.flags == ()

