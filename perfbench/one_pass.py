"""One pass of one workload, in a fresh process: set up, run every unit, report.

Usage: python3 perfbench/one_pass.py <workload> <input_seed> <run|trace|setup> <spans_path>

Prints one JSON line.  ``ready`` is the ``time.perf_counter()`` reading at the
first unit's start; the parent reads the same clock before it starts this
process, so the difference is set-up time including interpreter start-up.
In mode ``trace`` the tracer is installed after set-up and its spans are
written to ``spans_path``; in mode ``setup`` the pass runs no unit.

Every ``REF_EVERY_S`` seconds, from a timer signal, the pass times a fixed
reference loop (``ref_s``), also inside long units; the parent scales the
pass's times by it.  Unit times and span times leave those samples out.
"""

import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

REF_EVERY_S = 0.1
SETUP_REF = 10  # reference samples of a set-up-only pass


def reference_loop() -> float:
    """Time a fixed pure-Python loop of calls, int arithmetic and dict
    updates.  It allocates nothing the garbage collector tracks, so its time
    does not depend on what the workload left on the heap."""
    t0 = time.perf_counter()
    table = dict.fromkeys(range(64), 0)
    for i in range(12000):
        k = (i * 7) & 63
        table[k] = _mix(table[k], i)
    return time.perf_counter() - t0


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFFF


class RefSampler:
    """Times the reference loop every ``REF_EVERY_S`` seconds of wall time.

    ``now()`` is a clock that stops while a sample runs, so units timed on it
    leave the samples out; the tracer's clock is advanced past them too."""

    def __init__(self, ready: float, tracer=None):
        self.ready, self.tracer = ready, tracer
        self.at, self.took, self.spent = [], [], 0.0

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.at.append(t0 - self.ready)
        self.took.append(reference_loop())
        dt = time.perf_counter() - t0
        self.spent += dt
        if self.tracer is not None:
            self.tracer.excluded += dt

    def now(self) -> float:
        while True:  # a sample between the two reads would be counted in t
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv) -> int:
    name, input_seed, mode, spans_path = argv[0], int(argv[1]), argv[2], argv[3]
    from workloads import WORKLOADS
    from substkit.report import Report

    units = WORKLOADS[name].prepare(input_seed)
    if mode == "setup":
        ready = time.perf_counter()
        print(json.dumps({"ready": ready, "wall_s": 0.0, "units": [],
                          "ref_s": [reference_loop() for _ in range(SETUP_REF)]}))
        return 0
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rep = Report()
    timings, raised = [], []
    ready = time.perf_counter()
    ref = RefSampler(ready, tracer)
    ref.sample()
    ref.start()
    for unit_name, run in units:
        t0 = ref.now()
        try:
            run(rep)
        except Exception:  # a unit that raises is a failed check, not a crash
            raised.append(unit_name)
            traceback.print_exc(file=sys.stderr)
        timings.append([unit_name, t0 - ready, ref.now() - ready])
    ref.stop()
    ref.sample()
    out = {
        "ready": ready,
        "wall_s": sum(end - start for _, start, end in timings),
        "units": timings,
        "ref_s": ref.took,
        "ref_at": ref.at,
        "records": len(rep.records),
        "failed_records": len(rep.failures),
        "first_failure": repr(rep.first_failure()) if rep.failures else None,
        "raised": raised,
        "digest": hashlib.sha256(rep.to_json_lines().encode()).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.names)
        tracer.write_spans(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
