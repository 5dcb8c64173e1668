"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --workloads term-corpus presheaf --seeds 1-5
    python3 perfbench/spread.py --seeds 0-9 --baseline perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one after another, and prints for
each metric the median over runs and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the bound in ``BENCHMARK.json``, and the largest spread as a share
of its bound, over every metric and over every metric but ``setup_s`` (the
steadiness rule exempts set-up time from the spread test).  It fails when a
run is incorrect.  With ``--baseline`` it also writes those figures, the
per-run values and the environment to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS, environment


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=list(WORKLOADS))
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    worst = {"all": (0.0, ""), "setup_s excluded": (0.0, "")}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        summary[name] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            for scope in worst:
                if metric != "setup_s" or scope == "all":
                    worst[scope] = max(worst[scope], (share / bound, f"{name} {metric}"))
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": share, "values": values}
            print(f"{name:12s} {metric:13s} median {median:11.4f}  "
                  f"spread {100 * share:5.2f}%  bound {100 * bound:4.1f}%")
    for scope, (share, where) in worst.items():
        print(f"largest spread as a share of its bound ({scope}): {share:.2f}, {where}")
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump({"seeds": args.seeds, "env": environment(),
                       "workloads": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
