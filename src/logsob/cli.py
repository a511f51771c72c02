"""Command-line front end.

Subcommands: bound, certify, sweep, simulate, verify, sample.  Reports go
to stdout (JSON or CSV per subcommand), a run manifest goes to stderr as a
single JSON line, files are written only through --out / --emit-paths.

Exit codes: 0 on success with all checks passing, 1 on precondition or
validation failure (including a failed statistical check), 2 on usage
errors.  All numbers are serialized with 17 significant digits; non-finite
values appear as the strings "inf", "-inf", "nan" so the output stays
valid JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .bounds import (
    bakry_emery_bound,
    dimension_sweep,
    fk_bound,
    fk_mono_bound,
    holley_stroock_bound,
    optimize_epsilon,
)
from .curvature import certify_double_well, certify_quadric
from .errors import EstimationError, ParameterError, PreconditionError
from .perturbations import parse_perturbation
from .potentials import parse_potential
from .sde import SdeConfig, SmoothFunction, simulate
from .verify import (
    lsi_audit,
    martingale_check,
    monotone_comparison,
    representation_check,
    sample_measure,
)


def _fmt(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()] if obj.ndim else _jsonable(obj.item())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps(obj, one_line: bool = False) -> str:
    """JSON text with 17-significant-digit floats, on one line if asked."""
    obj = _jsonable(obj)
    nl = "" if one_line else "\n"
    sep = ", " if one_line else ",\n"

    def render(o, depth):
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
            items = [f"{spn}{render(k, depth)}: {render(v, depth + 1)}" for k, v in o.items()]
            return "{" + nl + sep.join(items) + f"{nl}{sp}}}"
        if isinstance(o, list):
            if not o:
                return "[]"
            items = [f"{spn}{render(v, depth + 1)}" for v in o]
            return "[" + nl + sep.join(items) + f"{nl}{sp}]"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return render(obj, 0)


def _csv_cell(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "%.17g" % v
    return str(v)


def _parse_x0(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"bad --x0 {text!r}: expected comma-separated numbers") from None


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
    if name == "tanh":
        return SmoothFunction(
            "tanh",
            value=lambda x: np.tanh(x[..., 0]),
            gradient=lambda x: np.concatenate(
                [(1.0 / np.cosh(x[..., 0]) ** 2)[..., None],
                 np.zeros(x.shape[:-1] + (dim - 1,))], axis=-1),
        )
    if name == "one-plus-tanh":
        base = _named_function("tanh", dim)
        return SmoothFunction(
            "one-plus-tanh",
            value=lambda x: 1.0 + base.value(x),
            gradient=base.gradient,
        )
    if name == "exp-tilt":
        return SmoothFunction(
            "exp-tilt",
            value=lambda x: np.exp(0.4 * (x @ e1)),
            gradient=lambda x: 0.4 * np.exp(0.4 * (x @ e1))[..., None] * e1,
        )
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
    return dumps([_jsonable(r) for r in reports]), True


def _cmd_certify(args) -> tuple:
    if args.family == "quadric":
        cert = certify_quadric(args.eps, args.dim)
    elif args.family == "double_well":
        if args.beta is None:
            raise ParameterError("double_well certification requires --beta")
        cert = certify_double_well(args.eps, args.dim, args.beta)
    else:
        raise ParameterError("family must be quadric or double_well")
    payload = {
        "family": cert.family,
        "eps": cert.eps,
        "dim": cert.dim,
        **({"beta": cert.beta} if cert.beta is not None else {}),
        "coefficients": list(cert.coefficients),
        "roots": [{"root": r, "multiplicity": m} for r, m in cert.roots_found],
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
    rows = dimension_sweep(args.family, _parse_dims(args.dims), beta=args.beta)
    lines = ["d,eps,kappa,bound,envelope,valid,certified"]
    for r in rows:
        lines.append(",".join([
            str(r.d), _csv_cell(r.eps), _csv_cell(r.kappa), _csv_cell(r.bound),
            _csv_cell(r.envelope), str(r.valid).lower(), str(r.certified).lower(),
        ]))
    return "\n".join(lines), True


def _cmd_simulate(args) -> tuple:
    p = parse_potential(args.potential)
    a = parse_perturbation(args.perturbation)
    x0 = _parse_x0(args.x0)
    cfg = SdeConfig(dt=args.dt, horizon=args.t, n_paths=args.paths, seed=args.seed, x0=x0)
    variant = "perturbed" if a.family != "identity" else "plain"
    # the tangent flow feeds only the j_norm column of --emit-paths
    batch = simulate(p, a, cfg, variant=variant, tangent=bool(args.emit_paths))
    valid = ~batch.divergent
    weights = batch.weights()
    summary = {
        "variant": variant,
        "n_paths": cfg.n_paths,
        "n_steps": cfg.n_steps,
        "dt": cfg.dt_eff,
        "n_divergent": batch.n_divergent,
        "mean_x_t": [float(v) for v in np.mean(batch.x_t[valid], axis=0)],
        "mean_weight": float(np.mean(weights[valid])),
        "stderr_weight": float(np.std(weights[valid], ddof=1)
                               / math.sqrt(max(int(valid.sum()), 2))),
        "mean_psi_integral": float(np.mean(batch.psi_integral[valid])),
    }
    if args.emit_paths:
        j_norms = np.linalg.norm(batch.j_t, ord=2, axis=(1, 2))
        header = ["path_id"] + [f"x_t_{i}" for i in range(cfg.dim)] + ["log_r", "j_norm"]
        with open(args.emit_paths, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(len(batch)):
                row = [str(i)] + [_csv_cell(float(v)) for v in batch.x_t[i]]
                row += [_csv_cell(float(batch.girsanov_log_weight[i])),
                        _csv_cell(float(j_norms[i]))]
                fh.write(",".join(row) + "\n")
    return dumps(summary), True


def _cmd_verify(args) -> tuple:
    p = parse_potential(args.potential)
    a = parse_perturbation(args.perturbation)
    x0 = _parse_x0(args.x0) if args.x0 else (0.0,) * p.dim
    cfg = SdeConfig(dt=args.dt, horizon=args.t, n_paths=args.paths, seed=args.seed, x0=x0)
    f = _named_function(args.f, p.dim)
    if args.check == "representation":
        rep = representation_check(p, a, f, cfg)
    elif args.check == "martingale":
        rep = martingale_check(p, a, cfg, checkpoints=(args.t / 2, args.t))
    elif args.check == "monotone":
        rep = monotone_comparison(p, a, f, cfg)
    elif args.check == "audit":
        _, bound = _audit_bound(p, a)
        samples = sample_measure(p, args.paths, method="radial_exact", seed=args.seed)
        rep = lsi_audit(p, bound, samples, seed=args.seed)
    else:
        raise ParameterError("check must be representation, martingale, monotone or audit")
    return dumps(_jsonable(rep)), bool(rep.passed)


def _audit_bound(p, a):
    if p.family == "subbotin" and p.params.get("alpha") == 4.0:
        return optimize_epsilon("quadric", p.dim)
    if p.family == "double_well":
        return optimize_epsilon("double_well", p.dim, p.params["beta"])
    rep = fk_bound(p, a)
    if not rep.valid:
        rep = bakry_emery_bound(p)
    return None, rep


def _cmd_sample(args) -> tuple:
    p = parse_potential(args.potential)
    method = {"radial": "radial_exact", "mala": "mala"}.get(args.method)
    if method is None:
        raise ParameterError("method must be radial or mala")
    points = sample_measure(p, args.n, method=method, seed=args.seed)
    lines = [",".join(f"x_{i}" for i in range(p.dim))]
    for row in points:
        lines.append(",".join(_csv_cell(float(v)) for v in row))
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
    sp.add_argument("--x0", default="0")
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
    sp.add_argument("--x0")
    add_out(sp)

    sp = sub.add_parser("sample", help="draw points from the Gibbs measure (CSV)")
    sp.add_argument("--potential", required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--method", default="radial")
    sp.add_argument("--seed", type=int, default=42)
    add_out(sp)

    return ap


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
        args = build_parser().parse_args(argv)
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
    try:
        text, passed = _COMMANDS[args.command](args)
    except (ParameterError, PreconditionError, EstimationError) as exc:
        manifest["finished"] = time.time()
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["outputs"] = outputs
        print(dumps(manifest, one_line=True), file=sys.stderr)
        return 1

    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        outputs.append(out_path)
    else:
        print(text)
    if getattr(args, "emit_paths", None):
        outputs.append(args.emit_paths)
    manifest["finished"] = time.time()
    manifest["outputs"] = outputs
    print(dumps(manifest, one_line=True), file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
