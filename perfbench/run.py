"""logsob benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mc-weights --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the library from its
``src/``.  Operations run in-process as a closed loop (one client, one
operation at a time): CLI operations through ``logsob.cli.main(argv)``
with stdout and stderr captured, library operations by calling the public
functions.  Every output is checked.

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics, including the tracing overhead.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print every metric by name and unit.  Reports
and spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

END_TO_END = (("wall_s", "s"), ("op_latency_gmean_s", "s"), ("cpu_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
# printed in this order; the per-operation latencies follow the workload
REPORT_ORDER = ("setup_s", "wall_s", "cpu_s", "op_latency_gmean_s", "failed_frac",
                "peak_rss_mb", "path_steps_per_s")
SETUP_PROBES = 2


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def probe_setup(args) -> list:
    """Set-up seconds of fresh processes that import logsob, build the same
    inputs and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise env.SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _fmt_row(name, fig):
    tail = f"p{fig.tail[0]:g}={fig.tail[1]:.6g}" if fig.tail else "-"
    return f"{name:<44} {fig.value:>16.6f} {fig.unit:<6} {fig.n:>6} {tail}"


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin_threads()
    try:
        logsob = env.import_logsob()
    except env.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import harness
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = env.OUT / f"tmp-{args.workload}-{args.seed}"
    ops = workload.build(logsob, args.seed, scratch)
    setup_times = [env.seconds_since_start()]
    if args.setup_probe:
        print(setup_times[0])
        return 0

    try:
        setup_times += probe_setup(args)
    except (env.SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        extra = {}
        if args.trace and workload.thread_speedup is not None:
            extra["thread_speedup"] = workload.thread_speedup(logsob, args.seed)
        tracer = tracing.Tracer() if args.trace else None

        def make_context(traced):
            return harness.Context(logsob, scratch, tracer if traced else None)

        passes = harness.run_passes(ops, make_context, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    setup = harness.Figure(statistics.median(setup_times), "s", len(setup_times))
    figs = harness.end_to_end(passes, setup)
    attempted, failed, reasons = harness.failures(passes)
    info = env.describe()

    print(f"# logsob benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={len(passes)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# {'end-to-end metric':<42} {'value':>16} {'unit':<6} {'n':>6} tail")
    op_metrics = [m for m in figs if m not in REPORT_ORDER]
    for name in [m for m in REPORT_ORDER if m in figs] + op_metrics:
        print(_fmt_row(name, figs[name]))
    for reason in reasons:
        print(f"# FAILED {reason}")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": info, "attempted": attempted, "failed": failed,
              "failures": reasons, "setup_samples_s": setup_times,
              "end_to_end": {k: vars(v) for k, v in figs.items()},
              "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                          "ops": {i.metric: i.seconds for i in p.instances}} for p in passes]}

    if args.trace:
        traced = [p for p in passes if p.traced]
        untraced = [p for p in passes if not p.traced]
        extra["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                     - statistics.median(p.wall_s for p in untraced))
        extra["cli.output_bytes"] = tracer.counters["cli.output_bytes"] / len(traced)
        layers = tracing.layer_metrics(tracer.spans, len(traced), extra)
        print(f"# {'per-layer metric (per traced pass)':<42} {'value':>16} unit")
        for name, (value, unit) in layers.items():
            print(f"{name:<44} {value:>16.6f} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["per_layer"] = metrics
        env.OUT.mkdir(exist_ok=True)
        tracer.write(env.OUT / f"spans-{args.workload}.jsonl")
    else:
        metrics = {k: {"value": figs[k].value, "unit": u} for k, u in END_TO_END}

    env.OUT.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (env.OUT / name).write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
