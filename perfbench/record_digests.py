"""Record the report digest of every input the benchmark can measure.

    python3 perfbench/record_digests.py [--workloads term-corpus presheaf]

Runs one untraced pass per workload and input (the ``POOL`` inputs of
``run.py`` and the held-out seed's) and writes each pass's SHA-256 report
digest to ``digests.json``, keyed by the workload's size.  A pass with a
failing check or a raising unit stops it, and so does a digest that differs
from one already recorded for the same size and input; nothing is written
then.  Run it after changing a workload's size, on a commit whose verdicts
are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, WORKLOADS, load_digests, recorded_inputs, run_pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=list(WORKLOADS))
    args = ap.parse_args(argv)
    recorded = load_digests()
    for name in args.workloads:
        workload = WORKLOADS[name]
        entry = recorded.get(name)
        if entry is None or entry["size"] != workload.size:
            entry = recorded[name] = {"size": workload.size, "inputs": {}}
        for inp in recorded_inputs():
            p = run_pass(name, inp)
            if p["raised"] or p["failed_records"] or \
                    p["records"] != workload.records_per_pass:
                print(f"{name} input {inp}: {p['failed_records']} failing checks, "
                      f"raised {p['raised']}, {p['records']} records", file=sys.stderr)
                return 1
            have = entry["inputs"].setdefault(str(inp), p["digest"])
            if have != p["digest"]:
                print(f"{name} input {inp}: digest {p['digest']} differs from "
                      f"the recorded {have}", file=sys.stderr)
                return 1
            print(f"{name} input {inp}: {p['digest']} ({p['wall_s']:.2f} s)",
                  file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
