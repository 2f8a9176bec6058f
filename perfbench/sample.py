"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py <workload> <seed> <plain|traced|setup>

Imports loopcheck from the checkout's ``src``, builds the workload's inputs
from the seed, runs its calls and checks every verdict against the answer
key.  ``setup`` stops after building the inputs; ``traced`` installs the
timing spans before building them.  Prints one JSON object on stdout.

A fresh process per sample keeps loopcheck's process-wide caches cold, as
they are for a user running the CLI.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"


def import_loopcheck():
    sys.path.insert(0, str(SRC))
    import loopcheck
    import loopcheck.cli  # also imports loopcheck.papercheck

    if Path(loopcheck.__file__).resolve().parent != SRC / "loopcheck":
        raise SystemExit(f"loopcheck imported from {loopcheck.__file__}, not {SRC}")
    return loopcheck


def main(workload: str, seed: int, mode: str) -> dict:
    build, run = workloads.WORKLOADS[workload]
    expected = workloads.EXPECTED[workload]
    start = time.perf_counter()
    lc = import_loopcheck()
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        spans.install(tracer)
    inputs = build(lc, seed)
    setup_s = time.perf_counter() - start
    if mode == "setup":
        return {"setup_s": setup_s}

    start = time.perf_counter()
    try:
        observed = run(lc, inputs)
        error = None
    except Exception as err:  # every exception counts as failed checks
        observed, error = {}, repr(err)
    verdict_s = time.perf_counter() - start
    out = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(expected),
        "failed": workloads.check(observed, expected),
        "observed": observed,
        "error": error,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"{workload}.jsonl")
    return out


if __name__ == "__main__":
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(json.dumps(main(workload, seed, mode)))
