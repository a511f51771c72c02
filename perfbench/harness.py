"""Closed-loop runner, output checks and statistics.

One client issues one operation at a time; the next starts when the
previous one has returned.  A pass runs every operation of the workload
once; passes repeat until the measuring time is spent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND_TAIL = 10


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(condition, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


@dataclass
class Op:
    """One operation of a workload.

    ``run(ctx)`` performs it and is timed.  ``check(output)`` runs outside
    the timed region: it raises :class:`CheckFailed` when the output is
    wrong and returns bytes that must be identical on every repeat.
    ``metric`` names the end-to-end latency its time is reported under;
    ``path_steps`` counts the simulated path-steps of one instance.
    """

    metric: str
    run: Callable[["Context"], object]
    check: Callable[[object], bytes]
    path_steps: int = 0


class Context:
    """What an operation may use: the library, the tracer of a traced pass
    (``None`` otherwise) and a scratch directory inside the checkout."""

    def __init__(self, logsob, scratch: Path, tracer=None):
        self.logsob = logsob
        self.scratch = scratch
        self.tracer = tracer

    def cli(self, argv, files=()):
        """Run ``logsob.cli.main(argv)`` in-process with stdout and stderr
        captured; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.logsob.cli.main([str(a) for a in argv])
        if self.tracer is not None:
            written = len(out.getvalue().encode()) + len(err.getvalue().encode())
            written += sum(os.path.getsize(f) for f in files if os.path.exists(f))
            self.tracer.counters["cli.output_bytes"] += written
        return code, out.getvalue(), err.getvalue()

    def potential(self, p):
        return p if self.tracer is None else self.tracer.observe_potential(p)

    def perturbation(self, a):
        return a if self.tracer is None else self.tracer.observe_perturbation(a)


@dataclass
class Instance:
    metric: str
    seconds: float
    ok: bool
    reason: Optional[str] = None


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    path_steps: int = 0
    sde_s: float = 0.0
    instances: list = field(default_factory=list)


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(ops, ctx: Context, digests: dict, first_op_id: int = 0) -> Pass:
    """Run every operation once, checking outputs and reproducibility.

    The pass's wall and CPU time cover the operations, not their checks.

    ``digests`` maps an operation's index to the digest of its first
    repeat; a later repeat that differs bit for bit is a failure.
    """
    traced = ctx.tracer is not None
    result = Pass(traced=traced)
    for i, op in enumerate(ops):
        if traced:
            ctx.tracer.op = first_op_id + i
        reason = None
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            output = op.run(ctx)
        except Exception as exc:  # an operation that raises is a failed operation
            reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        seconds = time.perf_counter() - t0
        result.wall_s += seconds
        result.cpu_s += _cpu_seconds() - cpu0
        if traced:
            ctx.tracer.op = None
        if reason is None:
            try:
                digest = hashlib.sha256(op.check(output)).hexdigest()
                if digests.setdefault(i, digest) != digest:
                    reason = "output differs from the first repeat of this operation"
            except CheckFailed as exc:
                reason = f"check failed: {exc}"
            except Exception as exc:  # a malformed output fails its check
                reason = "check failed: " + "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
        result.instances.append(Instance(op.metric, seconds, reason is None, reason))
        if op.path_steps:
            result.path_steps += op.path_steps
            result.sde_s += seconds
    return result


def run_passes(ops, make_context: Callable[[bool], Context], seconds: float,
               traced: bool = False) -> list:
    """Repeat passes until ``seconds`` are spent.

    In a traced run passes alternate between traced and untraced, starting
    traced, and at least one of each is made.
    """
    passes, digests = [], {}
    start = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 0
        ctx = make_context(trace_this)
        if trace_this:
            ctx.tracer.install(ctx.logsob)
        try:
            p = run_pass(ops, ctx, digests, first_op_id=len(passes) * len(ops))
        finally:
            if trace_this:
                ctx.tracer.uninstall()
        passes.append(p)
        enough = not traced or len(passes) >= 2
        if enough and time.perf_counter() - start >= seconds:
            return passes


# --- statistics -------------------------------------------------------------------


def tail_percentile(samples):
    """Highest level of :data:`TAIL_LEVELS` with at least ten samples beyond
    it, as (level, value) by nearest rank; ``None`` when no level has."""
    n = len(samples)
    ordered = sorted(samples)
    for level in TAIL_LEVELS:
        rank = math.ceil(n * level / 100.0)
        if rank >= 1 and n - rank >= MIN_BEYOND_TAIL:
            return level, ordered[rank - 1]
    return None


@dataclass
class Figure:
    """One reported metric: value, unit and the samples it came from."""

    value: float
    unit: str
    n: int = 1
    tail: Optional[tuple] = None


def latency(samples, unit="s") -> Figure:
    return Figure(statistics.median(samples), unit, len(samples), tail_percentile(samples))


def mean(samples, unit="s") -> Figure:
    return Figure(statistics.fmean(samples), unit, len(samples), tail_percentile(samples))


def end_to_end(passes, setup_s: Figure) -> dict:
    """End-to-end figures from the untraced passes of a run.

    An operation's latency is the median over its instances.  The pass
    figures that BENCHMARK.json gates (wall, CPU, the geometric mean over
    operations) use means instead: the machine's speed drifts over seconds,
    and a mean over every pass averages that drift better than a median.
    """
    use = [p for p in passes if not p.traced]
    figs = {"wall_s": mean([p.wall_s for p in use]), "cpu_s": mean([p.cpu_s for p in use])}
    per_op = {}
    for p in use:
        for inst in p.instances:
            per_op.setdefault(inst.metric, []).append(inst.seconds)
    for metric, samples in per_op.items():
        figs[metric] = latency(samples)
    figs["op_latency_gmean_s"] = Figure(
        math.exp(statistics.fmean(math.log(statistics.fmean(s)) for s in per_op.values())),
        "s", len(use))
    rates = [p.path_steps / p.sde_s for p in use if p.sde_s > 0]
    if rates:
        figs["path_steps_per_s"] = Figure(statistics.median(rates), "1/s", len(rates))
    instances = [i for p in passes for i in p.instances]
    figs["failed_frac"] = Figure(sum(not i.ok for i in instances) / len(instances), "frac",
                                 len(instances))
    figs["setup_s"] = setup_s
    figs["peak_rss_mb"] = Figure(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return figs


def failures(passes):
    """(attempted, failed, reasons) over every pass of a run."""
    instances = [i for p in passes for i in p.instances]
    reasons = sorted({f"{i.metric}: {i.reason}" for i in instances if not i.ok})
    return len(instances), sum(not i.ok for i in instances), reasons
