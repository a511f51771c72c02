"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads certify-audit,mc-weights --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/trajectory/<commit>.json

For every workload and metric it prints the median over the runs and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound that BENCHMARK.json sets.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env

ROOT = env.ROOT
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(spec: str):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    env.pin_threads()
    summary = {"env": env.describe(), "seconds": args.seconds, "trace": args.trace,
               "seeds": seed_list(args.seeds), "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            res = run_once(workload, seed, args.seconds, args.trace)
            all_correct &= bool(res["correct"])
            results.append(res)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        summary["workloads"][workload] = {"correct": all(r["correct"] for r in results),
                                          "metrics": metrics}
        print(f"# {workload}: {'metric':<40} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or m["spread"] < bound / 3 else "  <- above bound/3"
            print(f"  {name:<50} {m['median']:>14.6g} {m['spread']:>8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
