"""loopcheck benchmark: exact verdicts on seeded inputs, from cold processes.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds T --trace 0|1

Load model: a closed loop with one client.  Samples run one after another,
each in a fresh single-threaded interpreter (see sample.py), until the next
one would end after ``--seconds``; at least MIN_SAMPLES run.  Sample k uses
the inputs of sub-seed ``seed * 1000 + k``, so one run averages over several
relabelings of the same loops.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the samples.  ``--trace 1`` alternates untraced and traced samples on
the same inputs, checks that their verdicts agree, and reports the per-layer
metrics (medians over the traced samples) with ``trace.overhead_s``, the
traced minus the untraced median ``verdict_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

MIN_SAMPLES = 3
MIN_SETUPS = 9       # setup_s is a median over at least this many processes
RUN_LIMIT_S = 170    # no run may take longer than this


class SampleError(RuntimeError):
    pass


def sample(workload: str, seed: int, mode: str, deadline: float) -> dict:
    # -E: no PYTHON* variable of the caller (such as PYTHONDONTWRITEBYTECODE)
    # changes what a sample measures.
    try:
        proc = subprocess.run(
            [sys.executable, "-E", str(HERE / "sample.py"), workload, str(seed), mode],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"{workload} sample {seed} ({mode}) timed out") from None
    if proc.returncode != 0:
        raise SampleError(
            f"{workload} sample {seed} ({mode}) exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run samples for about `seconds`; return metrics and check counts."""
    limit = time.monotonic() + RUN_LIMIT_S
    # Untimed first process: fails fast without a loopcheck to import, and
    # leaves the bytecode cache warm for the timed ones.
    sample(workload, seed, "setup", limit)
    deadline = time.monotonic() + seconds
    plain, traced, setups = [], [], []
    mismatched = 0
    last = 0.0
    while len(plain) < (1 if trace else MIN_SAMPLES) or time.monotonic() + last <= deadline:
        t = time.monotonic()
        sub = seed * 1000 + len(plain)
        s = sample(workload, sub, "plain", limit)
        plain.append(s)
        setups.append(s["setup_s"])
        if trace:
            traced.append(sample(workload, sub, "traced", limit))
            mismatched += workloads.check(traced[-1]["observed"], s["observed"])
        elif len(setups) < MIN_SETUPS:
            # spread the extra set-ups over the run, not all at its end
            setups.append(sample(workload, sub, "setup", limit)["setup_s"])
        last = time.monotonic() - t
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(sample(workload, seed * 1000 + len(setups), "setup", limit)["setup_s"])

    runs = plain + traced
    attempted = sum(s["attempted"] for s in runs)
    failed = sum(s["failed"] for s in runs) + mismatched
    errors = sorted({s["error"] for s in runs if s["error"]})
    verdict = statistics.median(s["verdict_s"] for s in plain)
    if trace:
        names = traced[0]["layers"].keys()
        metrics = {m: statistics.median(s["layers"][m] for s in traced) for m in names}
        metrics["trace.overhead_s"] = (
            statistics.median(s["verdict_s"] for s in traced) - verdict
        )
    else:
        metrics = {
            "verdict_s": verdict,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }
    return {
        "verdicts": [s["verdict_s"] for s in plain],
        "setups": len(setups),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        try:
            r = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except SampleError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        ratio = r["failed"] / r["attempted"]
        print(
            f"{workload}: seed {args.seed}, {len(r['verdicts'])} samples, "
            f"{r['setups']} set-ups, {r['attempted']} checks"
        )
        print("  verdict_s of each untraced sample: " + " ".join(f"{v:.4g}" for v in r["verdicts"]))
        print(f"  failed_ratio {ratio:.6g} fraction ({r['failed']} of {r['attempted']})")
        for error in r["errors"]:
            print(f"  error: {error}")
        prefix = f"{workload}." if args.workload == "all" else ""
        for m in wanted:
            value = r["metrics"][m["name"]]
            print(f"  {m['name']} {value:.6g} {m['unit']}")
            result["metrics"][prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
