"""substkit benchmark: time to verdict of four seeded law-checking workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload term-corpus --seed 0 --seconds 30 --trace 0

``--workload all`` runs the four workloads one after another.  A run is a
series of passes, each in a fresh process (``one_pass.py``), so every pass
pays import and set-up like a user's ``substkit check`` does and no cache
outlives it.  An untraced run makes the workload's ``passes`` passes and a
traced run ``TRACED_PAIRS`` pairs of passes, whatever the program's speed;
only a run whose next pass would overrun ``--seconds`` stops early (after at
least two passes, or two traced pairs).

Pass ``k`` of a run with seed ``s`` checks input seed
``ACCEPTANCE_SEED + 1000 * ((s + POOL_STRIDE * k) % POOL)`` (seed 0 starts
with exactly the acceptance tests' seed) under ``PYTHONHASHSEED`` =
``k + 1``; the held-out seed has inputs of its own.  So two programs
run with one seed are timed on the same inputs, and every run on the same
hash seeds.  Untraced runs (``--trace 0``) report the end-to-end metrics:

- ``wall_s``: time to verdict of one pass over the workload, the mean over
  the run's passes;
- ``unit_p50_ms``: a pass's median unit time, the mean over the passes;
- ``setup_s``: median, over the passes and ``SETUP_ONLY`` further launches
  that only set up, of the time from starting the process (before ``import
  substkit``) to the first unit's start;
- ``peak_rss_mb``: median over passes of the pass process's ``ru_maxrss``.

Every time is scaled to the reference speed (``REF_S``): each pass times a
fixed reference loop every ``one_pass.REF_EVERY_S`` seconds, from a timer
signal and outside the unit times, and its times are multiplied by
``REF_S`` over the trimmed mean of those samples, raised to
``REF_ELASTICITY``.  The detail line holds the raw pass times and the scale
factors; the file in ``perfbench/out/`` also holds the reference samples.

The detail line also holds ``unit_tail``: the highest percentile of the unit
times with at least ten units beyond it, with the percentile and the unit
count (a workload with fewer than 22 units has no such percentile above the
median and gives its slowest unit).  It is not an end-to-end metric: it is
the time of a single unit, and its spread over ten seeds reached 57% of its
median on the shared host, beyond the largest bound a metric may have.

Failing check records and units that raised are counted in ``failed``
against ``attempted`` (checks recorded plus units that raised).

Traced runs (``--trace 1``) alternate untraced and traced passes on the run's
first input and hash seed, report every per-layer metric of ``tracer.py``
(self times as medians over traced passes; counts, which must repeat
exactly), and ``trace.overhead_s``, the traced minus the untraced median
wall time.

A run is correct when no check fails and no unit raises, every pass recorded
the expected number of checks, and every pass's report digest (SHA-256 of
``Report.to_json_lines()``) equals the one ``digests.json`` records for the
workload's size and the pass's input; an input without a recorded digest
makes the run incorrect.  Traced runs also require their traced counts to
repeat exactly.  ``record_digests.py`` records the digests of every input of
the pool and of the held-out seed.

The last stdout line is the result object; the line before it holds the
details and the environment, which are also written to ``perfbench/out/``
with every unit time of every pass.

Seed 7919 is held out: use it only to confirm a claim, never while developing
one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import ACCEPTANCE_SEED, SIZING, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
POOL = 16
POOL_STRIDE = 7  # coprime to POOL, so the passes of a run take distinct inputs
MIN_PASSES = 2
SETUP_ONLY = 6  # set-up-only launches per untraced run, besides its passes
TRACED_PAIRS = 3
PASS_TIMEOUT_S = 150
# Pass k of an untraced run sets PYTHONHASHSEED to k + 1; traced passes all
# use 1.  Set and dict layouts follow the hash seed, and
# on term-corpus a pass's time moved by about 20% between two hash seeds,
# more than between two inputs; every run timing the same hash seeds keeps
# that out of the run-to-run spread.  Reports do not depend on the hash seed, and call
# counts repeat exactly under a fixed one.
# Every time a pass reports is scaled by (REF_S / r) ** REF_ELASTICITY, where
# r is the trimmed mean of the pass's reference-loop samples
# (``one_pass.reference_loop``): the time the pass would take on a host on
# which that loop takes REF_S.  The shared host's speed drifts by up to a
# factor of 1.7 over seconds.  Over 22-30 passes of one input on one hash
# seed, log pass time against log reference time had slopes of 0.78-0.89
# (term-corpus) and 0.85 (presheaf), with correlations of 0.84-0.94; scaling
# with slope 0.85 cut the pass-to-pass deviation from 9-14% to 4-5%.
REF_S = 0.0025
REF_ELASTICITY = 0.85


class PassFailed(Exception):
    pass


def input_seed(seed: int, k: int = 0) -> int:
    """The input seed of pass ``k`` of a run with this seed."""
    if seed == HELD_OUT_SEED:
        return ACCEPTANCE_SEED + 1000 * (HELD_OUT_SEED + k)
    return ACCEPTANCE_SEED + 1000 * ((seed + POOL_STRIDE * k) % POOL)


def recorded_inputs() -> list:
    """The input seeds whose digests ``digests.json`` must hold."""
    most = max(w.passes for w in WORKLOADS.values())
    return [input_seed(s) for s in range(POOL)] + \
        [input_seed(HELD_OUT_SEED, k) for k in range(most)]


def repeat_for(seconds: int, minimum: int, maximum: int, step) -> list:
    """Call ``step(k)`` for k = 0, 1, ... ``maximum`` times, or fewer when
    another call as long as the last would end after ``seconds``; at least
    ``minimum`` calls."""
    started = time.perf_counter()
    out = []
    while len(out) < maximum:
        t0 = time.perf_counter()
        out.append(step(len(out)))
        now = time.perf_counter()
        if len(out) >= minimum and now + (now - t0) - started > seconds:
            break
    return out


def trimmed_mean(values: list) -> float:
    """Mean of the values without the lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def run_pass(name: str, input_seed: int, mode: str = "run", spans_path: str = "-",
             hash_seed: int = 1) -> dict:
    """Run one pass (mode ``run``, ``trace`` or ``setup``) in a fresh process
    and return its JSON summary, with every time scaled by the reference."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), name,
           str(input_seed), mode, spans_path]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{name} pass (seed {input_seed}) exceeded "
                         f"{PASS_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise PassFailed(f"{name} pass (seed {input_seed}) exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # one_pass reads the same monotonic clock, so this spans process start-up
    out["raw_setup_s"], out["raw_wall_s"] = out["ready"] - t0, out["wall_s"]
    scale = out["scale"] = (REF_S / trimmed_mean(out["ref_s"])) ** REF_ELASTICITY
    out["setup_s"] = out["raw_setup_s"] * scale
    out["wall_s"] = out["raw_wall_s"] * scale
    out["raw_units"] = out["units"]
    out["units"] = [[n, start * scale, end * scale] for n, start, end in out["units"]]
    for key in out.get("layers", {}):
        if key.endswith(".self_s"):
            out["layers"][key] *= scale
    return out


def tail(values: list) -> tuple:
    """The highest percentile with >= 10 values beyond it, or the maximum when
    that percentile would not lie above the median: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 22:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": commit}


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def expected_digest(recorded: dict, workload, inp: int):
    entry = recorded.get(workload.name)
    if not entry or entry["size"] != workload.size:
        return None
    return entry["inputs"].get(str(inp))


def check_passes(workload, passes: list, inputs: list, recorded: dict) -> list:
    """Problems that make the run incorrect; empty when it is correct."""
    problems = []
    for k, (p, inp) in enumerate(zip(passes, inputs)):
        want = expected_digest(recorded, workload, inp)
        if not want:
            problems.append(f"pass {k}: no digest recorded for input {inp} at "
                            f"size {workload.size!r}")
        if p["raised"]:
            problems.append(f"pass {k}: units raised: {p['raised']}")
        if p["failed_records"]:
            problems.append(f"pass {k}: {p['failed_records']} failing checks, "
                            f"first {p['first_failure']}")
        if not p["raised"] and p["records"] != workload.records_per_pass:
            problems.append(f"pass {k}: {p['records']} checks recorded, "
                            f"expected {workload.records_per_pass}")
        if want and p["digest"] != want:
            problems.append(f"pass {k}: report digest {p['digest']} differs "
                            f"from the recorded {want}")
    return problems


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Returns (result object, detail object)."""
    workload = WORKLOADS[name]
    recorded = load_digests()
    os.makedirs(OUT_DIR, exist_ok=True)
    load_before = os.getloadavg()
    started = time.perf_counter()
    detail = {"workload": name, "seed": seed, "held_out": seed == HELD_OUT_SEED,
              "trace": int(trace), "seconds": seconds, "size": workload.size,
              "sizing": SIZING, "why": workload.why}
    if not trace:
        passes = repeat_for(seconds, MIN_PASSES, workload.passes,
                            lambda k: run_pass(name, input_seed(seed, k),
                                               hash_seed=k + 1))
        inputs = [input_seed(seed, k) for k in range(len(passes))]
        problems = check_passes(workload, passes, inputs, recorded)
        setups = [p["setup_s"] for p in passes] + [
            run_pass(name, inputs[k % len(inputs)], "setup",
                     hash_seed=k % len(inputs) + 1)["setup_s"]
            for k in range(SETUP_ONLY)]
        units_ms = [1000 * statistics.fmean(times) for times in
                    zip(*([end - start for _, start, end in p["units"]] for p in passes))]
        tail_ms, pct = tail(units_ms)
        metrics = {
            "wall_s": (statistics.fmean(p["wall_s"] for p in passes), "s"),
            "unit_p50_ms": (statistics.fmean(
                1000 * statistics.median(end - start for _, start, end in p["units"])
                for p in passes), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        }
        detail["unit_tail"] = {"ms": tail_ms, "percentile": round(pct, 2),
                               "units": len(units_ms),
                               "beyond": 10 if pct < 100 else 0}
        all_passes = passes
    else:
        from tracer import LAYER_METRICS
        spans_path = os.path.join(OUT_DIR, f"spans-{name}.jsonl")
        inp = input_seed(seed)
        pairs = repeat_for(seconds, 2, TRACED_PAIRS, lambda k: (
            run_pass(name, inp),
            run_pass(name, inp, "trace", spans_path)))
        plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
        all_passes = plain + traced
        inputs = [inp] * len(all_passes)
        setups = [p["setup_s"] for p in all_passes]
        problems = check_passes(workload, all_passes, inputs, recorded)
        layers = [p["layers"] for p in traced]
        metrics = {}
        for key, unit in LAYER_METRICS.items():
            values = [layer[key] for layer in layers]
            if unit == "s":
                metrics[key] = (statistics.median(values), unit)
            else:
                if len(set(values)) != 1:
                    problems.append(f"{key} differs between traced passes: {values}")
                metrics[key] = (values[0], unit)
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in plain), "s")
        detail["spans"] = [p["spans"] for p in traced]
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    attempted = sum(p["records"] + len(p["raised"]) for p in all_passes)
    failed = sum(p["failed_records"] + len(p["raised"]) for p in all_passes)
    detail.update({
        "passes": len(all_passes),
        "input_seeds": inputs,
        "pass_wall_s": [p["wall_s"] for p in all_passes],
        "pass_units_ms": [[1000 * (end - start) for _, start, end in p["units"]]
                          for p in all_passes],
        "setup_s": setups,
        "pass_raw_wall_s": [p["raw_wall_s"] for p in all_passes],
        "pass_scale": [p["scale"] for p in all_passes],
        "pass_ref": [[p.get("ref_at", []), p["ref_s"],
                      [[s, e] for _, s, e in p["raw_units"]]] for p in all_passes],
        "digests": [p["digest"] for p in all_passes],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "problems": problems,
        "run_s": time.perf_counter() - started,
        "env": {**environment(), "loadavg_before": load_before,
                "loadavg_after": os.getloadavg()},
    })
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # pass it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "substkit", "__init__.py")):
        print(f"benchmark failed: no substkit sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], detail = run_workload(name, args.seed, args.seconds,
                                                 bool(args.trace))
            print(json.dumps({k: v for k, v in detail.items()
                              if k not in ("pass_units_ms", "pass_ref")}))
            if len(names) > 1:
                print(json.dumps(results[name]))
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": m for n, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
