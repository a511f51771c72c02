"""Command-line front end.

Subcommands: bound, certify, sweep, simulate, verify, sample.  Reports go
to stdout (JSON or CSV per subcommand), a run manifest goes to stderr as a
single JSON line (numpy warnings are listed in it, not printed), files are
written only through --out / --emit-paths.

Exit codes: 0 on success with all checks passing, 1 on precondition or
validation failure (including a failed statistical check) and on an
output file that cannot be written, 2 on usage errors.  All numbers are
serialized with 17 significant digits; non-finite values appear as the
strings "inf", "-inf", "nan" so the output stays valid JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
import warnings
from typing import Optional

import numpy as np

from . import __version__
from .bounds import (
    SweepRow,
    bakry_emery_bound,
    dimension_sweep,
    fk_bound,
    fk_mono_bound,
    holley_stroock_bound,
    optimize_epsilon,
)
from .curvature import certify_double_well, certify_quadric, quartic_beta
from .errors import EstimationError, EvaluationError, ParameterError, PreconditionError
from .perturbations import parse_perturbation
from .potentials import parse_potential
from .sde import SdeConfig, SmoothFunction, _reduce, simulate
from .verify import (
    lsi_audit,
    martingale_check,
    monotone_comparison,
    representation_check,
    sample_measure,
    tanh_function,
    tilt_function,
)

# rows per chunk of --emit-paths, so that the formatted text held at once
# does not grow with the path count
EMIT_ROWS = 8192


def _fmt(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def dumps(obj, one_line: bool = False) -> str:
    """JSON text with 17-significant-digit floats, on one line if asked.
    Dataclasses are written field by field, tuples as lists, numpy arrays
    and scalars as the Python values they hold, and dict keys as strings."""
    nl = "" if one_line else "\n"
    sep = ", " if one_line else ",\n"

    def render(o, depth):
        if isinstance(o, (np.ndarray, np.generic)):
            o = o.tolist()
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            o = {f.name: getattr(o, f.name) for f in dataclasses.fields(o)}
        sp = "" if one_line else "  " * depth
        spn = "" if one_line else "  " * (depth + 1)
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return _fmt(o)
        if isinstance(o, str):
            # escapes every control character, so user text cannot break the line
            return json.dumps(o)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f"{spn}{json.dumps(str(k))}: {render(v, depth + 1)}" for k, v in o.items()]
            return "{" + nl + sep.join(items) + f"{nl}{sp}}}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{spn}{render(v, depth + 1)}" for v in o]
            return "[" + nl + sep.join(items) + f"{nl}{sp}]"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return render(obj, 0)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    # "%.17g" writes nan, inf and -inf itself
    return "%.17g" % v if isinstance(v, float) else str(v)


def _sde_config(args, dim: int) -> SdeConfig:
    """The paths of a simulate or verify run: without --x0 they start at
    the origin of the potential's dimension ``dim``."""
    try:
        x0 = tuple(float(v) for v in args.x0.split(",")) if args.x0 else (0.0,) * dim
    except ValueError:
        raise ParameterError(f"bad --x0 {args.x0!r}: expected comma-separated numbers") from None
    return SdeConfig(dt=args.dt, horizon=args.t, n_paths=args.paths, seed=args.seed, x0=x0)


# --- named test functions ----------------------------------------------------


def _named_function(name: str, dim: int) -> SmoothFunction:
    e1 = np.zeros(dim)
    e1[0] = 1.0
    if name == "linear":
        return SmoothFunction(
            "linear",
            value=lambda x: x @ e1,
            gradient=lambda x: np.broadcast_to(e1, x.shape).copy(),
        )
    # one-plus-tanh and exp-tilt are the audit family's tanh(shift=0) and
    # e1 tilt at theta = 0.8; tanh differs from the first by a constant
    if name == "tanh":
        return SmoothFunction("tanh", value=lambda x: np.tanh(x[..., 0]),
                              gradient=tanh_function("tanh", 0.0).gradient)
    if name == "one-plus-tanh":
        return tanh_function("one-plus-tanh", 0.0)
    if name == "exp-tilt":
        return tilt_function("exp-tilt", 0.8, e1)
    raise ParameterError(f"unknown test function {name!r}; "
                         "choose linear, tanh, one-plus-tanh or exp-tilt")


# --- subcommand implementations ------------------------------------------------


def _cmd_bound(args) -> tuple:
    p = parse_potential(args.potential)
    a = parse_perturbation(args.perturbation)
    methods = {
        "fk": lambda: fk_bound(p, a),
        "be": lambda: bakry_emery_bound(p),
        "hs": lambda: holley_stroock_bound(p, a),
        "fk-mono": lambda: fk_mono_bound(p, a),
    }
    chosen = list(methods) if args.method == "all" else [args.method]
    reports = [methods[m]() for m in chosen]
    return dumps(reports), True


def _check_beta(args) -> None:
    # only the double well has a beta; the manifest must not record an unread input
    if args.family == "quadric" and args.beta is not None:
        raise ParameterError("--beta applies only to double_well")


def _cmd_certify(args) -> tuple:
    _check_beta(args)
    beta = quartic_beta(args.family, args.beta)
    cert = (certify_quadric(args.eps, args.dim) if args.family == "quadric"
            else certify_double_well(args.eps, args.dim, beta))
    payload = {
        "family": cert.family,
        "eps": cert.eps,
        "dim": cert.dim,
        **({"beta": cert.beta} if cert.beta is not None else {}),
        "coefficients": list(cert.coefficients),
        "verdict": cert.valid,
        "kappa": cert.kappa_if_valid,
    }
    return dumps(payload), True


def _parse_dims(spec: str):
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ParameterError(f"bad dimension range {spec!r}") from None
        if lo_i < 1 or hi_i < lo_i:
            raise ParameterError(f"bad dimension range {spec!r}")
        return range(lo_i, hi_i + 1)
    try:
        return [int(spec)]
    except ValueError:
        raise ParameterError(f"bad dimension spec {spec!r}") from None


def _cmd_sweep(args) -> tuple:
    _check_beta(args)
    rows = dimension_sweep(args.family, _parse_dims(args.dims), beta=args.beta)
    names = [f.name for f in dataclasses.fields(SweepRow)]
    lines = [",".join(names)]
    lines += [",".join(_csv_cell(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines), True


def _cmd_simulate(args) -> tuple:
    p = parse_potential(args.potential)
    a = parse_perturbation(args.perturbation)
    cfg = _sde_config(args, p.dim)
    variant = "perturbed" if a.family != "identity" else "plain"
    # the tangent flow feeds only the j_norm column of --emit-paths, which
    # reads its norm and never J itself
    batch = simulate(p, a, cfg, variant=variant, tangent="norm" if args.emit_paths else False)
    # fewer than two valid paths have no mean and standard error: _reduce
    # raises EstimationError, and the run exits 1.  Only the weight's
    # standard error is printed; the other means are those of _reduce.
    weight = _reduce(batch.weights(), batch.divergent)
    x_t, psi_integral = batch.x_t, batch.psi_integral
    if weight.n_divergent:
        x_t, psi_integral = x_t[~batch.divergent], psi_integral[~batch.divergent]
    summary = {
        "variant": variant,
        "n_paths": cfg.n_paths,
        "n_steps": cfg.n_steps,
        "dt": cfg.dt_eff,
        "n_divergent": weight.n_divergent,
        "mean_x_t": [float(v) for v in np.mean(x_t, axis=0)],
        "mean_weight": float(weight.mean),
        "stderr_weight": float(weight.std_error),
        "mean_psi_integral": float(np.mean(psi_integral, axis=0)),
    }
    if args.emit_paths:
        _write_paths(args.emit_paths, batch)
    return dumps(summary), True


def _write_paths(path: str, batch) -> None:
    """Per-path CSV (id, X_T, log R, spectral norm of J_T), EMIT_ROWS rows
    at a time.  The norms are those of ``batch.j_norm``, which the path
    tiles took as they finished, so the batch never holds J itself."""
    n, d = batch.x_t.shape
    header = ["path_id"] + [f"x_t_{i}" for i in range(d)] + ["log_r", "j_norm"]
    row = "%d" + ",%.17g" * (d + 2) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, EMIT_ROWS):
            hi = min(lo + EMIT_ROWS, n)
            cols = np.column_stack([np.arange(lo, hi), batch.x_t[lo:hi],
                                    batch.girsanov_log_weight[lo:hi], batch.j_norm[lo:hi]])
            fh.write(row * (hi - lo) % tuple(cols.ravel().tolist()))


def _cmd_verify(args) -> tuple:
    p = parse_potential(args.potential)
    a = parse_perturbation(args.perturbation)
    # each check builds only what it reads: the audit samples the measure
    # and never simulates, and the martingale check has no test function
    if args.check == "audit":
        bound = _audit_bound(p, a)
        samples = sample_measure(p, args.paths, method="radial_exact", seed=args.seed)
        rep = lsi_audit(p, bound, samples, seed=args.seed)
        return dumps(rep), bool(rep.passed)
    cfg = _sde_config(args, p.dim)
    if args.check == "martingale":
        # with one step the mid checkpoint would round to step 0
        checkpoints = (args.t,) if cfg.n_steps == 1 else (args.t / 2, args.t)
        rep = martingale_check(p, a, cfg, checkpoints)
    else:
        check = representation_check if args.check == "representation" else monotone_comparison
        rep = check(p, a, _named_function(args.f, p.dim), cfg)
    return dumps(rep), bool(rep.passed)


def _audit_bound(p, a):
    if p.family == "subbotin" and p.params.get("alpha") == 4.0:
        return optimize_epsilon("quadric", p.dim)[1]
    if p.family == "double_well":
        return optimize_epsilon("double_well", p.dim, p.params["beta"])[1]
    rep = fk_bound(p, a)
    return rep if rep.valid else bakry_emery_bound(p)


def _cmd_sample(args) -> tuple:
    p = parse_potential(args.potential)
    method = {"radial": "radial_exact", "mala": "mala"}.get(args.method)
    if method is None:
        raise ParameterError("method must be radial or mala")
    points = sample_measure(p, args.n, method=method, seed=args.seed)
    row = ",".join(["%.17g"] * p.dim)
    lines = [",".join(f"x_{i}" for i in range(p.dim))]
    lines += [row % tuple(r) for r in points.tolist()]
    return "\n".join(lines), True


# --- parser / dispatch -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="logsob",
        description="Certified log-Sobolev constant bounds with Monte Carlo verification",
    )
    ap.add_argument("--version", action="version", version=f"logsob {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="write the report to this file instead of stdout")

    sp = sub.add_parser("bound", help="compute a named bound")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--perturbation", required=True)
    sp.add_argument("--method", default="all", choices=["fk", "be", "hs", "fk-mono", "all"])
    add_out(sp)

    sp = sub.add_parser("certify", help="polynomial nonnegativity certificate")
    sp.add_argument("--family", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--beta", type=float)
    add_out(sp)

    sp = sub.add_parser("sweep", help="optimized bound across dimensions (CSV)")
    sp.add_argument("--family", required=True)
    sp.add_argument("--dims", required=True, help="range like 1:64 or a single integer")
    sp.add_argument("--beta", type=float)
    add_out(sp)

    sp = sub.add_parser("simulate", help="path simulation summary")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--perturbation", required=True)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--x0", help="initial state, comma-separated (default: the origin)")
    sp.add_argument("--emit-paths", help="write per-path CSV here")
    add_out(sp)

    sp = sub.add_parser("verify", help="statistical checks")
    sp.add_argument("--check", required=True,
                    choices=["representation", "martingale", "monotone", "audit"])
    sp.add_argument("--potential", required=True)
    sp.add_argument("--perturbation", required=True)
    sp.add_argument("--f", default="linear")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--x0", help="initial state, comma-separated (default: the origin)")
    add_out(sp)

    sp = sub.add_parser("sample", help="draw points from the Gibbs measure (CSV)")
    sp.add_argument("--potential", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--method", default="radial")
    sp.add_argument("--seed", type=int, default=42)
    add_out(sp)

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: building it takes
    longer than most commands, and parsing leaves it unchanged."""
    return build_parser()


_COMMANDS = {
    "bound": _cmd_bound,
    "certify": _cmd_certify,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def main(argv: Optional[list] = None) -> int:
    started = time.time()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    manifest = {
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k != "command" and v is not None},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "started": started,
    }
    outputs = []
    error = None
    # numpy's warnings go into the manifest, so stderr stays one line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            text, passed = _COMMANDS[args.command](args)
            if getattr(args, "emit_paths", None):
                outputs.append(args.emit_paths)
            # an unwritable --out or --emit-paths is an OSError, reported like the rest
            out_path = getattr(args, "out", None)
            if out_path:
                with open(out_path, "w") as fh:
                    fh.write(text + "\n")
                outputs.append(out_path)
            else:
                print(text)
        except (ParameterError, PreconditionError, EstimationError, EvaluationError,
                OSError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    manifest["warnings"] = list(dict.fromkeys(f"{w.category.__name__}: {w.message}"
                                              for w in caught))
    manifest["finished"] = time.time()
    if error is not None:
        manifest["error"] = error
    manifest["outputs"] = outputs
    print(dumps(manifest, one_line=True), file=sys.stderr)
    return 0 if error is None and passed else 1


if __name__ == "__main__":
    sys.exit(main())
