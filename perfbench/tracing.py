"""Outside-in tracing of logsob's modules.

The traced run wraps library functions where their callers look them up
(``logsob.cli.simulate``, ``logsob.bounds.kappa``, ...) and the evaluators
of the Potential and Perturbation objects that reach the library.  Nothing
under ``src/`` changes: :meth:`Tracer.install` replaces module attributes
and :meth:`Tracer.uninstall` puts every original back.

A span records its name, start, end, the benchmark operation it ran under,
its thread and its parent.  A span opened in a worker thread with nothing
open in that thread takes as parent the innermost span open in the thread
that issues operations, so the blocks of a threaded ``simulate`` are
children of that ``simulate``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    op: Optional[int]
    thread: int
    attrs: Optional[dict]


# Module attributes patched by the traced run: each is a name that some
# caller inside the library (or the benchmark's own library operations)
# looks up at call time.
PATCHES = {
    "rng": ("step_normals",),
    "sde": ("simulate",),
    "potentials": ("jacobi_eigenvalues",),
    "curvature": ("jacobi_eigenvalues", "psi", "psi_radial", "kappa"),
    "bounds": ("kappa", "kappa_tilde", "certify_quadric", "certify_double_well",
               "optimize_epsilon", "make_potential", "arctan_perturbation"),
    "verify": ("simulate", "estimate_expectation", "estimate_fk_gradient",
               "estimate_gradient_fd", "representation_check", "entropy_ratio"),
    "cli": ("main", "dumps", "parse_potential", "parse_perturbation", "simulate",
            "certify_quadric", "certify_double_well", "optimize_epsilon", "fk_bound",
            "bakry_emery_bound", "holley_stroock_bound", "fk_mono_bound",
            "dimension_sweep", "representation_check", "martingale_check",
            "monotone_comparison", "lsi_audit", "sample_measure"),
}

_POTENTIAL_EVALUATORS = ("value", "gradient", "hessian")
_PERTURBATION_EVALUATORS = ("value", "log_grad", "lap_over_a")


def span_name(fn) -> str:
    """``<defining module>.<function>``, e.g. ``sde.simulate``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict = defaultdict(float)
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._issuer = threading.get_ident()
        self._issuer_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._observed_batch: dict = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._issuer:
            return self._issuer_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, probe: Optional[Callable] = None,
             transform: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call.

        ``probe(args, kwargs, result)`` returns the span's attributes;
        ``transform(result)`` replaces the result (used to hand out traced
        Potential and Perturbation objects).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                issuer = tracer._issuer_stack
                parent = issuer[-1] if issuer else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, start, end, tracer.op,
                                         threading.get_ident(), {"error": True}))
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = probe(args, kwargs, result) if probe is not None else None
            tracer.spans.append(Span(sid, parent, name, start, end, tracer.op,
                                     threading.get_ident(), attrs))
            return transform(result) if transform is not None else result

        traced.__traced__ = True
        return traced

    # -- traced objects ------------------------------------------------------

    def _wrap_fields(self, obj, prefix, fields, probes=None):
        changes = {}
        for f in fields:
            fn = getattr(obj, f)
            if getattr(fn, "__traced__", False):
                continue
            changes[f] = self.wrap(f"{prefix}.{f}", fn, (probes or {}).get(f))
        return dataclasses.replace(obj, **changes) if changes else obj

    def observe_potential(self, p):
        return self._wrap_fields(p, "potentials", _POTENTIAL_EVALUATORS,
                                 {"hessian": _probe_nbytes})

    def observe_perturbation(self, a):
        return self._wrap_fields(a, "perturbations", _PERTURBATION_EVALUATORS)

    def _probe_simulate(self, args, kwargs, batch):
        """Path counts of one simulate call, and a marker set when its caller
        reads the tangent flow ``J``."""
        rec = {"paths": len(batch), "steps": batch.cfg.n_steps, "dim": batch.cfg.dim,
               "divergent": batch.n_divergent, "j_read": False}
        cls = type(batch)
        observed = self._observed_batch.get(cls)
        if observed is None:
            observed = self._observed_batch[cls] = _j_observing_subclass(cls)
        batch.__dict__["_j_probe"] = rec
        batch.__class__ = observed
        return rec

    # -- installation --------------------------------------------------------

    def install(self, logsob) -> None:
        """Wrap every attribute named in :data:`PATCHES`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        probes = {
            "rng.step_normals": lambda a, k, r: {"normals": r.size},
            "sde.simulate": self._probe_simulate,
            "curvature.kappa": _probe_kappa,
            "curvature.kappa_tilde": _probe_kappa,
            "curvature.certify_quadric": lambda a, k, r: {"valid": bool(r.valid)},
            "curvature.certify_double_well": lambda a, k, r: {"valid": bool(r.valid)},
            "bounds.optimize_epsilon": lambda a, k, r: {"certified": bool(r[1].certified)},
            "bounds.fk_bound": _probe_certified,
            "bounds.bakry_emery_bound": _probe_certified,
            "bounds.holley_stroock_bound": _probe_certified,
            "bounds.fk_mono_bound": _probe_certified,
        }
        transforms = {
            "potentials.parse_potential": self.observe_potential,
            "potentials.make_potential": self.observe_potential,
            "perturbations.parse_perturbation": self.observe_perturbation,
            "perturbations.arctan_perturbation": self.observe_perturbation,
        }
        for module_name, attrs in PATCHES.items():
            module = getattr(logsob, module_name)
            for attr in attrs:
                original = getattr(module, attr)
                name = span_name(original)
                probe = probes.get(name) or _argument_probe(name, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, probe, transforms.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _j_observing_subclass(cls):
    def get(self):
        self.__dict__["_j_probe"]["j_read"] = True
        return self.__dict__["j_t"]

    def put(self, value):
        self.__dict__["j_t"] = value

    return type(cls.__name__, (cls,), {"j_t": property(get, put), "__module__": __name__})


def _probe_nbytes(args, kwargs, result):
    return {"bytes": int(getattr(result, "nbytes", 0))}


def _probe_kappa(args, kwargs, rep):
    return {"method": rep.method, "certified": bool(rep.certified),
            "doublings": int(rep.details.get("doublings", 0))}


def _probe_certified(args, kwargs, rep):
    return {"certified": bool(rep.certified)}


def _argument_probe(name, fn):
    """Probes that need a call argument rather than the result."""
    wanted = {"verify.sample_measure": "method", "verify.entropy_ratio": "n_bootstrap"}.get(name)
    if wanted is None:
        return None
    sig = inspect.signature(fn)

    def probe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {wanted: bound.arguments[wanted]}

    return probe


# --- aggregation ----------------------------------------------------------------


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of its interval
    covered by at least one child span, in any thread."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.sid] = (s.end - s.start) - covered
    return out


class SpanTable:
    """Per-pass totals over the spans of the traced passes."""

    def __init__(self, spans, passes: int):
        self.passes = max(passes, 1)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        self.self_s = self_times(spans)

    def select(self, *names, **attrs):
        out = []
        for n in names:
            out.extend(s for s in self.by_name.get(n, ())
                       if all((s.attrs or {}).get(k) == v for k, v in attrs.items()))
        return out

    def calls(self, *names, **attrs) -> float:
        return len(self.select(*names, **attrs)) / self.passes

    def busy(self, *names, **attrs) -> float:
        return sum(s.end - s.start for s in self.select(*names, **attrs)) / self.passes

    def self_time(self, *names) -> float:
        return sum(self.self_s[s.sid] for s in self.select(*names)) / self.passes

    def attr_sum(self, name, key) -> float:
        return sum((s.attrs or {}).get(key, 0) for s in self.by_name.get(name, ())) / self.passes

    def frac(self, names, key) -> float:
        spans = self.select(*names)
        return sum(bool((s.attrs or {}).get(key)) for s in spans) / len(spans) if spans else 0.0

    def names_with_prefix(self, prefix):
        return [n for n in self.by_name if n.startswith(prefix)]


_CERTIFY = ("curvature.certify_quadric", "curvature.certify_double_well")
_KAPPA = ("curvature.kappa", "curvature.kappa_tilde")
_BOUNDS = ("bounds.fk_bound", "bounds.bakry_emery_bound", "bounds.holley_stroock_bound",
           "bounds.fk_mono_bound", "bounds.optimize_epsilon")
_ESTIMATORS = ("sde.estimate_expectation", "sde.estimate_fk_gradient", "sde.estimate_gradient_fd")


def _path_steps(t: SpanTable, **attrs) -> float:
    return sum(s.attrs["paths"] * s.attrs["steps"]
               for s in t.select("sde.simulate", **attrs) if s.attrs) / t.passes


def _ns_per_path_step(t: SpanTable, dim: int) -> float:
    steps = _path_steps(t, dim=dim)
    return t.busy("sde.simulate", dim=dim) * 1e9 / steps if steps else 0.0


def _j_unread_frac(t: SpanTable) -> float:
    total = _path_steps(t)
    return _path_steps(t, j_read=False) / total if total else 0.0


def _divergent_frac(t: SpanTable) -> float:
    paths = t.attr_sum("sde.simulate", "paths")
    return t.attr_sum("sde.simulate", "divergent") / paths if paths else 0.0


# (name, unit, better, how it is computed from the span table and the
# run's extra figures).  The end-to-end metric each one should move is
# documented in perfbench/README.md.
LAYER_METRICS = [
    ("rng.step_normals.calls", "count", "lower", lambda t, x: t.calls("rng.step_normals")),
    ("rng.step_normals.busy_s", "s", "lower", lambda t, x: t.busy("rng.step_normals")),
    ("rng.normals_drawn", "count", "lower", lambda t, x: t.attr_sum("rng.step_normals", "normals")),
    ("potentials.gradient.calls", "count", "lower", lambda t, x: t.calls("potentials.gradient")),
    ("potentials.gradient.busy_s", "s", "lower", lambda t, x: t.busy("potentials.gradient")),
    ("potentials.hessian.calls", "count", "lower", lambda t, x: t.calls("potentials.hessian")),
    ("potentials.hessian.busy_s", "s", "lower", lambda t, x: t.busy("potentials.hessian")),
    ("potentials.hessian.bytes_computed", "B", "lower",
     lambda t, x: t.attr_sum("potentials.hessian", "bytes")),
    ("potentials.value.busy_s", "s", "lower", lambda t, x: t.busy("potentials.value")),
    ("potentials.jacobi_eigenvalues.calls", "count", "lower",
     lambda t, x: t.calls("potentials.jacobi_eigenvalues")),
    ("potentials.jacobi_eigenvalues.busy_s", "s", "lower",
     lambda t, x: t.busy("potentials.jacobi_eigenvalues")),
    ("perturbations.log_grad.busy_s", "s", "lower", lambda t, x: t.busy("perturbations.log_grad")),
    ("perturbations.lap_over_a.busy_s", "s", "lower",
     lambda t, x: t.busy("perturbations.lap_over_a")),
    ("perturbations.value.busy_s", "s", "lower", lambda t, x: t.busy("perturbations.value")),
    ("perturbations.psi.calls", "count", "lower", lambda t, x: t.calls("perturbations.psi")),
    ("perturbations.psi.busy_s", "s", "lower", lambda t, x: t.busy("perturbations.psi")),
    ("perturbations.psi_radial.calls", "count", "lower",
     lambda t, x: t.calls("perturbations.psi_radial")),
    ("perturbations.psi_radial.busy_s", "s", "lower",
     lambda t, x: t.busy("perturbations.psi_radial")),
    ("sde.simulate.calls", "count", "lower", lambda t, x: t.calls("sde.simulate")),
    ("sde.simulate.wall_s", "s", "lower", lambda t, x: t.busy("sde.simulate")),
    ("sde.simulate.self_s", "s", "lower", lambda t, x: t.self_time("sde.simulate")),
    ("sde.path_steps", "count", "lower", lambda t, x: _path_steps(t)),
    ("sde.busy_ns_per_path_step.d1", "ns", "lower", lambda t, x: _ns_per_path_step(t, 1)),
    ("sde.busy_ns_per_path_step.d2", "ns", "lower", lambda t, x: _ns_per_path_step(t, 2)),
    ("sde.busy_ns_per_path_step.d8", "ns", "lower", lambda t, x: _ns_per_path_step(t, 8)),
    ("sde.j_unread_frac", "frac", "lower", lambda t, x: _j_unread_frac(t)),
    ("sde.divergent_frac", "frac", "lower", lambda t, x: _divergent_frac(t)),
    ("sde.reduce.busy_s", "s", "lower", lambda t, x: t.self_time(*_ESTIMATORS)),
    ("sde.thread_speedup", "x", "higher", lambda t, x: x.get("thread_speedup", 0.0)),
    ("curvature.kappa.calls", "count", "lower", lambda t, x: t.calls(*_KAPPA)),
    ("curvature.kappa.radial_grid.busy_s", "s", "lower",
     lambda t, x: t.busy(*_KAPPA, method="radial_grid")),
    ("curvature.kappa.full_grid.busy_s", "s", "lower",
     lambda t, x: t.busy(*_KAPPA, method="full_grid")),
    ("curvature.kappa.closed_form.calls", "count", "lower",
     lambda t, x: t.calls(*_KAPPA, method="radial_closed_form")),
    ("curvature.kappa.certified_frac", "frac", "higher", lambda t, x: t.frac(_KAPPA, "certified")),
    ("curvature.grid_doublings", "count", "lower",
     lambda t, x: sum(t.attr_sum(n, "doublings") for n in _KAPPA)),
    ("curvature.certify.calls", "count", "lower", lambda t, x: t.calls(*_CERTIFY)),
    ("curvature.certify.busy_s", "s", "lower", lambda t, x: t.busy(*_CERTIFY)),
    ("curvature.certify.valid_frac", "frac", "higher", lambda t, x: t.frac(_CERTIFY, "valid")),
    ("bounds.fk_bound.busy_s", "s", "lower", lambda t, x: t.busy("bounds.fk_bound")),
    ("bounds.holley_stroock_bound.busy_s", "s", "lower",
     lambda t, x: t.busy("bounds.holley_stroock_bound")),
    ("bounds.optimize_epsilon.calls", "count", "lower", lambda t, x: t.calls("bounds.optimize_epsilon")),
    ("bounds.optimize_epsilon.busy_s", "s", "lower", lambda t, x: t.busy("bounds.optimize_epsilon")),
    ("bounds.dimension_sweep.busy_s", "s", "lower", lambda t, x: t.busy("bounds.dimension_sweep")),
    ("bounds.certified_frac", "frac", "higher", lambda t, x: t.frac(_BOUNDS, "certified")),
    ("verify.representation_check.busy_s", "s", "lower",
     lambda t, x: t.busy("verify.representation_check")),
    ("verify.martingale_check.busy_s", "s", "lower", lambda t, x: t.busy("verify.martingale_check")),
    ("verify.monotone_comparison.busy_s", "s", "lower",
     lambda t, x: t.busy("verify.monotone_comparison")),
    ("verify.self_s", "s", "lower", lambda t, x: t.self_time(*t.names_with_prefix("verify."))),
    ("verify.sample_measure.radial_exact.busy_s", "s", "lower",
     lambda t, x: t.busy("verify.sample_measure", method="radial_exact")),
    ("verify.sample_measure.mala.busy_s", "s", "lower",
     lambda t, x: t.busy("verify.sample_measure", method="mala")),
    ("verify.entropy_ratio.calls", "count", "lower", lambda t, x: t.calls("verify.entropy_ratio")),
    ("verify.entropy_ratio.busy_s", "s", "lower", lambda t, x: t.busy("verify.entropy_ratio")),
    ("verify.entropy_ratio.self_s", "s", "lower", lambda t, x: t.self_time("verify.entropy_ratio")),
    ("verify.bootstrap_resamples", "count", "lower",
     lambda t, x: t.attr_sum("verify.entropy_ratio", "n_bootstrap")),
    ("verify.lsi_audit.busy_s", "s", "lower", lambda t, x: t.busy("verify.lsi_audit")),
    ("cli.main.calls", "count", "lower", lambda t, x: t.calls("cli.main")),
    ("cli.main.self_s", "s", "lower", lambda t, x: t.self_time("cli.main")),
    ("cli.dumps.busy_s", "s", "lower", lambda t, x: t.busy("cli.dumps")),
    ("cli.output_bytes", "B", "lower", lambda t, x: x.get("cli.output_bytes", 0.0)),
    ("trace.spans", "count", "lower", lambda t, x: sum(len(v) for v in t.by_name.values()) / t.passes),
    ("trace.overhead_s", "s", "lower", lambda t, x: x.get("trace.overhead_s", 0.0)),
]


def layer_metrics(spans, passes: int, extra: dict) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``, per traced pass."""
    table = SpanTable(spans, passes)
    out = {}
    for name, unit, _, fn in LAYER_METRICS:
        value = float(fn(table, extra))
        out[name] = (value if math.isfinite(value) else 0.0, unit)
    return out
