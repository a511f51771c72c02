"""Digest of every field of the SDE path batches over a fixed case grid.

    python3 tools/sde_digest.py

Imports ``logsob`` from the ``src/`` of the checkout this file sits in and
simulates every case of :data:`CASES` through ``logsob.sde.simulate`` or
``logsob.sde.simulate_lanes``.  It prints one sha256 per batch and one over
all of them.  A batch's digest covers every field of its ``PathBatch``:
the config, each array's dtype, shape and bytes, the checkpoint arrays
by time, ``observed_sup_log_grad`` (by its repr, so a NaN shows),
``g_condition_exceeded``, and ``j_norm`` and ``nonfinite_log_grad`` when
they are set.  Run it on two checkouts and compare the lines
to see which batches changed a bit.  The first line names the Python and
numpy versions.  ``tools/sde_digest.txt`` holds the committed output,
which ``tests/test_digests.py`` compares line by line:

    python3 tools/sde_digest.py > tools/sde_digest.txt

The grid crosses five potentials (four radial built-ins and the quartic
without its radial profile, which takes the point evaluators) with
d = 1, 2, 8 and the identity, arctan 0.4 and arctan 5 perturbations; each
cell runs a plain path with the tangent flow, a perturbed one with the
tangent flow, stochastic weights and two checkpoints, and a perturbed
one without the tangent flow.  Then come a divergent config (dt 0.3,
about 1% of the paths diverge), a custom perturbation whose psi and
|grad a|/a are NaN at x0, a run of more than one path block, and
representation-style lane sets: plain and perturbed lanes with the
tangent flow beside the central-difference lanes.  Last come runs whose
blocks span several step tiles: d = 8 with 20,000 paths, plain with the
tangent flow and perturbed with checkpoints and stochastic weights; d = 3
perturbed on 70,000 paths, two blocks; and a divergent d = 8 run at dt 0.3.
Lanes that keep only the norm of J_T (``tangent="norm"``) follow: d = 8
plain and perturbed over several tiles, d = 3 on two blocks, and divergent
runs at d = 1 and d = 8.
"""

from __future__ import annotations

import dataclasses
import hashlib
import platform
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from logsob.perturbations import (  # noqa: E402
    arctan_perturbation,
    identity_perturbation,
    make_custom_perturbation,
)
from logsob.potentials import make_custom_potential, make_potential  # noqa: E402
from logsob.rng import BLOCK_PATHS  # noqa: E402
from logsob.sde import Lane, SdeConfig, _fd_lanes, simulate, simulate_lanes  # noqa: E402

POTENTIALS = (("gaussian rho=1.3", lambda d: make_potential("gaussian", d, rho=1.3)),
              ("subbotin alpha=3", lambda d: make_potential("subbotin", d, alpha=3.0)),
              ("subbotin alpha=4", lambda d: make_potential("subbotin", d, alpha=4.0)),
              ("double_well beta=0.2", lambda d: make_potential("double_well", d, beta=0.2)),
              ("custom quartic", lambda d: _point_quartic(d)))
PERTURBATIONS = (("identity", identity_perturbation()), ("arctan 0.4", arctan_perturbation(0.4)),
                 ("arctan 5", arctan_perturbation(5.0)))
# (variant, tangent, options) of the three runs of each grid cell
RUNS = (("plain", True, {}),
        ("perturbed", True, dict(track_stochastic_weight=True, checkpoint_times=(0.05, 0.1))),
        ("perturbed", False, {}))


def _point_quartic(d):
    """The subbotin alpha=4 callables without their radial profile."""
    q = make_potential("subbotin", d, alpha=4.0)
    return make_custom_potential(d, q.value, q.gradient, q.hessian)


def _nan_at_x0():
    """a = 2 + exp(-x^2) in d = 1, with its gradient and Laplacian NaN at x = 2."""
    def value(x):
        return 2.0 + np.exp(-x[..., 0] ** 2)

    def gradient(x):
        return np.where(x == 2.0, np.nan, -2.0 * x * np.exp(-x ** 2))

    def laplacian(x):
        x1 = x[..., 0]
        return np.where(x1 == 2.0, np.nan, (4.0 * x1 ** 2 - 2.0) * np.exp(-x1 ** 2))

    return make_custom_perturbation(value, gradient, laplacian, dim=1)


def _one(p, a, cfg, variant, tangent=True, **options):
    return (simulate(p, a, cfg, variant=variant, tangent=tangent, **options),)


def _cases() -> list:
    """(label, thunk returning a tuple of batches)."""
    cases = []
    for pname, potential in POTENTIALS:
        for d in (1, 2, 8):
            p = potential(d)
            x0 = tuple(0.3 * (-1.0) ** i for i in range(d))
            cfg = SdeConfig(dt=0.01, horizon=0.1, n_paths=3000, seed=11, x0=x0)
            for aname, a in PERTURBATIONS:
                for variant, tangent, options in RUNS:
                    cases.append((f"{pname} d={d} {aname} {variant} tangent={tangent} "
                                  f"{sorted(options)}",
                                  partial(_one, p, a, cfg, variant, tangent, **options)))
    quartic1 = make_potential("subbotin", 1, alpha=4.0)
    full = dict(track_stochastic_weight=True)
    divergent = SdeConfig(dt=0.3, horizon=3.0, n_paths=2000, seed=47, x0=(0.0,))
    for variant in ("plain", "perturbed"):
        cases.append((f"divergent subbotin alpha=4 d=1 arctan 0.5 dt=0.3 {variant}",
                      partial(_one, quartic1, arctan_perturbation(0.5), divergent, variant,
                              checkpoint_times=(1.5, 3.0), **full)))
    nan_cfg = SdeConfig(dt=0.01, horizon=0.05, n_paths=100, seed=1, x0=(2.0,))
    cases.append(("custom perturbation NaN at x0",
                  partial(_one, quartic1, _nan_at_x0(), nan_cfg, "perturbed",
                          checkpoint_times=(0.05,), **full)))
    blocks = SdeConfig(dt=0.01, horizon=0.03, n_paths=BLOCK_PATHS + 7, seed=3, x0=(0.2,))
    cases.append(("two blocks subbotin alpha=4 d=1 arctan 0.4 perturbed",
                  partial(_one, quartic1, arctan_perturbation(0.4), blocks, "perturbed",
                          checkpoint_times=(0.01,), **full)))
    for pname, p, a, x0 in (("gaussian rho=1 d=2 arctan 0.3",
                             make_potential("gaussian", 2, rho=1.0),
                             arctan_perturbation(0.3), (0.8, -0.6)),
                            ("subbotin alpha=4 d=1 arctan 0.5", quartic1,
                             arctan_perturbation(0.5), (0.3,)),
                            ("custom quartic d=8 arctan 0.4", _point_quartic(8),
                             arctan_perturbation(0.4), (0.1,) * 8)):
        cfg = SdeConfig(dt=0.01, horizon=0.1, n_paths=2000, seed=7, x0=x0)
        lanes = (Lane(cfg.x0, "plain", True), Lane(cfg.x0, "perturbed", True)) + _fd_lanes(cfg)
        cases.append((f"lanes {pname} plain+J perturbed+J fd",
                      partial(simulate_lanes, p, a, cfg, lanes, checkpoint_times=(0.05, 0.1),
                              **full)))
    # runs whose blocks span several step tiles
    quartic8 = make_potential("subbotin", 8, alpha=4.0)
    x08 = tuple(0.3 * (-1.0) ** i for i in range(8))
    wide = SdeConfig(dt=0.01, horizon=0.1, n_paths=20000, seed=13, x0=x08)
    for variant, options in (("plain", {}),
                             ("perturbed", dict(checkpoint_times=(0.05, 0.1), **full))):
        cases.append((f"tiles subbotin alpha=4 d=8 arctan 0.4 {variant} tangent=True "
                      f"{sorted(options)}",
                      partial(_one, quartic8, arctan_perturbation(0.4), wide, variant,
                              **options)))
    long3 = SdeConfig(dt=0.01, horizon=0.05, n_paths=70000, seed=19, x0=(0.2, -0.1, 0.4))
    cases.append(("tiles double_well beta=0.2 d=3 arctan 5 perturbed, two blocks",
                  partial(_one, make_potential("double_well", 3, beta=0.2),
                          arctan_perturbation(5.0), long3, "perturbed", tangent=False,
                          checkpoint_times=(0.02,), **full)))
    divergent8 = SdeConfig(dt=0.3, horizon=3.0, n_paths=20000, seed=47, x0=(0.0,) * 8)
    cases.append(("tiles divergent subbotin alpha=4 d=8 arctan 0.5 dt=0.3 perturbed",
                  partial(_one, quartic8, arctan_perturbation(0.5), divergent8, "perturbed",
                          tangent=False, checkpoint_times=(1.5, 3.0), **full)))
    # lanes that keep only the norm of J_T: multi-tile d = 8, d = 3 on two
    # blocks, and divergent runs at d = 1 and d = 8
    for variant, options in (("plain", {}),
                             ("perturbed", dict(checkpoint_times=(0.05, 0.1), **full))):
        cases.append((f"norm subbotin alpha=4 d=8 arctan 0.4 {variant} {sorted(options)}",
                      partial(_one, quartic8, arctan_perturbation(0.4), wide, variant,
                              tangent="norm", **options)))
    cases.append(("norm double_well beta=0.2 d=3 arctan 5 perturbed, two blocks",
                  partial(_one, make_potential("double_well", 3, beta=0.2),
                          arctan_perturbation(5.0), long3, "perturbed", tangent="norm",
                          checkpoint_times=(0.02,), **full)))
    for label, p, cfg in (("d=1", quartic1, divergent), ("d=8", quartic8, divergent8)):
        cases.append((f"norm divergent subbotin alpha=4 {label} arctan 0.5 dt=0.3 perturbed",
                      partial(_one, p, arctan_perturbation(0.5), cfg, "perturbed",
                              tangent="norm", checkpoint_times=(1.5, 3.0), **full)))
    return cases


CASES = _cases()


# fields added to PathBatch after these digests were first pinned count
# only where they differ from their default, so the batches that leave
# them there keep their lines
LATER_FIELDS = {"j_norm": None, "nonfinite_log_grad": False}


def batch_digest(batch) -> str:
    h = hashlib.sha256()
    for field in dataclasses.fields(batch):
        value = getattr(batch, field.name)
        if field.name in LATER_FIELDS and value is LATER_FIELDS[field.name]:
            continue
        h.update(field.name.encode())
        items = sorted(value.items()) if isinstance(value, dict) else [(None, value)]
        for key, v in items:
            h.update(repr(key).encode())
            if isinstance(v, np.ndarray):
                h.update(f"{v.dtype}{v.shape}".encode() + v.tobytes())
            else:
                h.update(repr(v).encode())
    return h.hexdigest()


def main_digest() -> int:
    # the digests are pinned per Python and numpy version
    print(f"# python {platform.python_version()} numpy {np.__version__}")
    total = hashlib.sha256()
    n = 0
    for label, run in CASES:
        for lane, batch in enumerate(run()):
            digest = batch_digest(batch)
            total.update(digest.encode())
            print(f"{digest}  {n:3d} {label} lane {lane}", flush=True)
            n += 1
    print(f"{total.hexdigest()}  total ({n} batches)")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
