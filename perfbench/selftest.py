"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

For each workload, shrunk to a few units, it runs one untraced and two traced
passes, each in a fresh process, and fails unless:

- the three report digests are identical (tracing changes no result);
- the two traced passes give identical counts and ratios;
- every layer the workload exercises reports a non-zero count, and every
  per-layer metric is present;
- after installation, every namespace that bound a wrapped function holds
  the wrapper (checked on ``substitute``, bound in three modules);
- ``BENCHMARK.json`` declares exactly the per-layer metrics a traced run
  reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

TINY = {"TERM_COUNT": 1, "LEMMA_RANDOM_COUNT": 1,
        "LEMMA_EXHAUSTIVE": [((), 2), (("functions",), 2)],
        "MONAD_F_CAP": 16, "MONAD_PAIR_BUDGET": 50,
        "PRESHEAF_STRUCTURES": 2, "COEND_PAIRS": 10}

# counts that must be non-zero on each workload, because its layers run there
EXERCISED = {
    "term-corpus": ["cbv.gen.inhabited.calls", "cbv.gen.sample.nodes",
                    "cbv.ops.table.calls", "terms.substitute.calls",
                    "terms.substitute.nodes_out", "terms.meta_substitute.calls"],
    "subst-lemma": ["cbv.gen.inhabited.calls", "terms.substitute.calls",
                    "semantics.denote.calls", "semantics.model.compare.points",
                    "semantics.model.context_space.calls",
                    "semantics.model.interpret_type.calls",
                    "semantics.monads.bind.option.calls",
                    "semantics.monads.bind.identity.calls"],
    "monad-laws": [f"semantics.monads.bind.{m}.calls" for m in workloads.MONADS],
    "presheaf": ["finpresheaf.structures.tensor.calls",
                 "finpresheaf.structures.tensor.generators",
                 "finpresheaf.structures.tensor.classes"],
}


def child(name: str, trace: bool) -> dict:
    """Run a tiny pass in this process and return digest and layer metrics."""
    import hashlib
    from substkit.report import Report
    for key, value in TINY.items():
        setattr(workloads, key, value)
    units = workloads.WORKLOADS[name].prepare(workloads.ACCEPTANCE_SEED)
    out = {}
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        mods = [sys.modules[m] for m in ("substkit.terms", "substkit.suites",
                                         "substkit.semantics.checks")]
        out["rebound"] = len({id(m.substitute) for m in mods}) == 1 and \
            hasattr(mods[0].substitute, "__wrapped__")
    rep = Report()
    for _, run in units:
        run(rep)
    out["digest"] = hashlib.sha256(rep.to_json_lines().encode()).hexdigest()
    out["ok"] = rep.ok
    if trace:
        out["layers"] = tracer.metrics()
    return out


def spawn(name: str, trace: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(workloads.ACCEPTANCE_SEED))
    proc = subprocess.run([sys.executable, __file__, "--child", name, str(int(trace))],
                          env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: child failed\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    if declared != set(LAYER_METRICS) | {"trace.overhead_s"}:
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    for name in workloads.WORKLOADS:
        plain, t1, t2 = spawn(name, False), spawn(name, True), spawn(name, True)
        if not (plain["ok"] and t1["ok"] and t2["ok"]):
            problems.append(f"{name}: a law check failed")
        if len({plain["digest"], t1["digest"], t2["digest"]}) != 1:
            problems.append(f"{name}: report digests differ under tracing")
        if not t1["rebound"]:
            problems.append(f"{name}: substitute not rebound in every namespace")
        missing = set(LAYER_METRICS) - set(t1["layers"])
        if missing:
            problems.append(f"{name}: metrics missing: {sorted(missing)}")
        for key, unit in LAYER_METRICS.items():
            if unit != "s" and t1["layers"][key] != t2["layers"][key]:
                problems.append(f"{name}: {key} differs: {t1['layers'][key]} "
                                f"vs {t2['layers'][key]}")
        for key in EXERCISED[name]:
            if not t1["layers"][key]:
                problems.append(f"{name}: {key} is 0")
        print(f"{name}: checked", file=sys.stderr)
    for p in problems:
        print(p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(child(sys.argv[2], sys.argv[3] == "1")))
        sys.exit(0)
    sys.exit(main())
