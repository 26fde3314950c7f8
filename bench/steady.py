#!/usr/bin/env python3
"""Steadiness check and baseline recorder for the handlecalc benchmark.

    python3 bench/steady.py
    python3 bench/steady.py --trace-check --baseline bench/baseline.json

Runs `bench/run.py` once per workload of BENCHMARK.json and seed 1..10,
one run at a time, with `run_seconds` from BENCHMARK.json.  For each end-to-end metric it prints
the median and the spread, (Q3 - Q1) / median over the seeds, with the
quartiles of `statistics.quantiles(values, n=4)`.  A spread above the
metric's bound fails the check, and one above a third of it is flagged
(the target for a steady benchmark).
`--trace-check` runs the traced run twice with seed 1 and
requires every count and ratio, the output bytes and the output digest
to repeat exactly.
`--baseline` writes the medians, quartiles and traced values to a file.
Exits 1 if a run fails or is incorrect, a spread exceeds its bound, or a
count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXACT_UNITS = ("count", "ratio", "bytes")
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line, plus its details (output digest, run counts) and stdout."""
    OUT.mkdir(exist_ok=True)
    details = OUT / f"steady-{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--details", str(details)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["details"] = json.loads(details.read_text(encoding="utf-8"))
    result["stdout"] = proc.stdout
    return result


def commit() -> str:
    """The checkout's git commit, if it is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-check", action="store_true")
    parser.add_argument("--baseline", help="write medians, quartiles and traced values to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    ok = True
    baseline = {
        "commit": commit(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {cpu_model()}, {len(os.sched_getaffinity(0))} cpus",
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result = run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(result["stdout"])
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                ok = False
            runs.append(result)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = baseline["workloads"].setdefault(workload, {"end_to_end": {}})
        print(f"{workload}: {'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            ok = ok and sp <= bound
            flag = "" if sp <= bound / 3 else "  ABOVE BOUND" if sp > bound else "  above bound/3"
            print(f"{workload}: {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.4f} {bound:>6.3f}{flag}")
            entry["end_to_end"][name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                                         "q1": q1, "q3": q3, "spread": sp, "values": values}
        entry["output_digests"] = {r["details"]["seed"]: r["details"]["output_digest"] for r in runs}
        if args.trace_check:
            first, second = (run(workload, SEEDS[0], seconds, 1) for _ in range(2))
            differ = [name for name, m in first["metrics"].items()
                      if m["unit"] in EXACT_UNITS and m["value"] != second["metrics"][name]["value"]]
            differ += [key for key in ("output_bytes", "output_digest")
                       if first["details"][key] != second["details"][key]]
            for r in (first, second):
                if not r["correct"] or r["failed"]:
                    differ.append(f"correct={r['correct']} failed={r['failed']}")
            ok = ok and not differ
            print(f"{workload}: traced counts differ: {differ}" if differ
                  else f"{workload}: traced counts, output bytes and digest repeat exactly")
            entry["per_layer"] = {"seed": SEEDS[0],
                                  "traced_items": first["details"]["traced_items"],
                                  **{k: v["value"] for k, v in first["metrics"].items()}}
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
