"""Print every metric of every workload by name, with its unit and sample count.

    python3 perfbench/report.py [--seed 3] [--seconds 40] [--trace] [--workload NAME ...]

Runs perfbench/run.py once per workload, one run after another, and prints
one row per workload and metric.  With --trace each workload also gets a
traced run, and the report adds its per-layer metrics and the tracing
overhead: traced pipeline_s minus the untraced run's pipeline_s.  Exits 1 if
any run failed or was not correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        return None
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        details = json.load(fh)
    return summary, details["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    row = "{:<24} {:<42} {:>16} {:<10} {:>7}"
    print(row.format("workload", "metric", "value", "unit", "samples"))
    all_ok = True
    for name in args.workload or list(WORKLOADS):
        runs = {}
        for trace in (0, 1) if args.trace else (0,):
            got = run_once(name, args.seed, args.seconds, trace)
            if got is None or not got[0]["correct"]:
                all_ok = False
                print(f"{name}: trace {trace} run failed or was not correct", file=sys.stderr)
                continue
            summary, metrics = runs[trace] = got
            print(row.format(name, f"(trace {trace}) attempted / failed", "",
                             f"{summary['attempted']} / {summary['failed']}", ""))
            for metric, m in metrics.items():
                print(row.format(name, metric, f"{m['value']:.6g}", m["unit"], m["samples"]))
        if len(runs) == 2:
            overhead = runs[1][1]["trace.pipeline_s"]["value"] - runs[0][1]["pipeline_s"]["value"]
            print(row.format(name, "tracing overhead vs untraced run", f"{overhead:.6g}", "s", 1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
