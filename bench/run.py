#!/usr/bin/env python3
"""handlecalc benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Runs from the root of a checkout and imports handlecalc from its `src/`
(nothing is installed).  Set-up imports handlecalc in a fresh
interpreter and builds the workload's items from the seed.  Then the run
cycles through the items, each item after the previous one completes,
until `--seconds` are up and every item has run at least once.  Between
items, every CLI_GAP_S seconds, the workload's `handlecalc` command runs
once as a subprocess and the set-up is repeated.  Every output is
checked against the paper's counts right after it is timed; a failure is
counted and the run goes on.

The host's speed drifts by tens of percent over tens of seconds, so all
timed work is spread over the whole run, and between items, every
REF_GAP_S seconds, a fixed kernel of the benchmark's own (reference.py)
gauges the host's speed.  Item and command times are medians over their
repeats, scaled to the reference speed: multiplied by REF_NOMINAL_S over
the kernel's median time in the run.  The set-up's time is the median
of its repeats, unscaled.

`--trace 0` reports the end-to-end metrics.  `--trace 1` cycles through
a fixed sample of the items for `--seconds` untraced, then makes one pass
over it with every layer's public functions traced (see tracer.py), and
reports the per-layer metrics and the tracing overhead (traced time minus
untraced time of the same items); its spans go to `bench/out/`.  `--smoke` runs a
handful of items once, with every check on, and gates only on
correctness.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import reference
from tracer import Tracer, no_span

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

IMPORT_REPEATS = 3
CLI_GAP_S = 5.0
CLI_TIMEOUT_S = 120
CLI_MAIN = "import sys; from handlecalc.cli import main; sys.exit(main())"
TRACED_ITEMS = 100
WARMUP_SHARE = 0.15
REF_GAP_S = 0.25
REF_NOMINAL_S = 0.0145  # the kernel's median time within runs on a 2-vCPU Intel Xeon VM, Python 3.11


def load_package():
    """Import handlecalc from this checkout's src/, and from nowhere else."""
    init = SRC / "handlecalc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: handlecalc sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import handlecalc

    if Path(handlecalc.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported handlecalc from {handlecalc.__file__}, not {init}")
    return handlecalc


def subprocess_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_import(module: str) -> tuple[float, float]:
    """(process wall time, in-process import time) of importing `module` in a new interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
    return perf_counter() - t0, float(proc.stdout.strip())


class Outputs:
    """Output checks of every run of every item, and the bytes of each item's first run."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.first: dict[int, bytes] = {}
        self.failures: list[str] = []
        self.runs = 0

    def check(self, k: int, out) -> None:
        self.runs += 1
        item = self.items[k]
        where = f"{item.spec} n={item.n}"
        if isinstance(out, Exception):
            self.failures.append(f"{where}: {type(out).__name__}: {out}")
            return
        try:
            problems, data = self.workload.check(item, out)
        except Exception as exc:
            problems, data = [f"output check raised {type(exc).__name__}: {exc}"], b""
        if problems:
            self.failures.append(f"{where}: " + "; ".join(problems))
        if self.first.setdefault(k, data) != data:
            self.failures.append(f"{where}: output bytes differ from the item's first run")

    def nbytes(self) -> int:
        return sum(len(d) for d in self.first.values())

    def digest(self) -> str:
        h = hashlib.sha256()
        for k in sorted(self.first):
            h.update(len(self.first[k]).to_bytes(8, "little"))
            h.update(self.first[k])
        return "sha256:" + h.hexdigest()


def run_item(workload, item, span) -> tuple[float, object]:
    """(seconds, output) of one item; a raised error is the output."""
    t0 = perf_counter()
    try:
        with span("bench.item"):
            out = workload.run(item, span)
    except Exception as exc:  # a failed item is counted, the run goes on
        out = exc
    return perf_counter() - t0, out


def run_command(workload, items, smoke: bool, trace_path: Path) -> tuple[float, list[str]]:
    """Wall time of one run of the workload's `handlecalc` command, and the problems its checks found."""
    argv = [a.replace("{trace}", str(trace_path)) for a in workload.cli_args(items, smoke)]
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], env=subprocess_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    wall = perf_counter() - t0
    found = workload.check_cli(items, smoke, proc, trace_path)
    return wall, [f"handlecalc {' '.join(argv)}: {p}" for p in found]


def set_up(workload, seed: int, smoke: bool) -> tuple[float, list]:
    """(seconds, items) of one set-up: a fresh interpreter importing handlecalc, then the inputs."""
    wall, _ = fresh_import("handlecalc")
    t0 = perf_counter()
    items = workload.build(seed, smoke)
    return wall + perf_counter() - t0, items


def cycle(workload, items, seconds: float, side=None, span=no_span):
    """Cycle through the items until `seconds` are up and each has a timed run.

    The first WARMUP_SHARE of the seconds is a warm-up: its runs are
    checked but not timed, because on `cancel` the first two or three
    passes ran up to 1.6 times slower than the rest.  After it, the reference
    kernel runs between items every REF_GAP_S seconds.  Returns each
    item's times, the kernel's times and the checked outputs.  `side(k)`
    runs before the first item and then between items every CLI_GAP_S
    seconds.
    """
    outputs = Outputs(workload, items)
    samples: list[list[float]] = [[] for _ in items]
    refs: list[float] = []
    t_timed = perf_counter() + WARMUP_SHARE * seconds
    t_end = perf_counter() + seconds
    next_side = next_ref = 0.0
    k, timed_from = 0, None
    while timed_from is None or k < timed_from + len(items) or perf_counter() < t_end:
        if timed_from is None and perf_counter() >= t_timed:
            timed_from = k
        if side and perf_counter() >= next_side:
            side(k)
            next_side = perf_counter() + CLI_GAP_S
        if timed_from is not None and perf_counter() >= next_ref:
            dt, ok = reference.timed()
            refs.append(dt)
            if not ok:
                outputs.failures.append("the reference kernel gave a wrong result")
            next_ref = perf_counter() + REF_GAP_S
        dt, out = run_item(workload, items[k % len(items)], span)
        if timed_from is not None:
            samples[k % len(items)].append(dt)
        outputs.check(k % len(items), out)
        k += 1
    return samples, refs, outputs


def end_to_end(workload, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    setup_s, items = set_up(workload, seed, smoke)
    setups, cli_walls, failures = [setup_s], [], []
    inputs = [(i.spec, i.n, i.data) for i in items]

    with tempfile.TemporaryDirectory(prefix=".bench-cli-", dir=ROOT) as tmp:
        def side(k: int) -> None:
            """The command once and, after the first item, the set-up again, spread over the run."""
            if smoke and cli_walls:
                return
            wall, problems = run_command(workload, items, smoke, Path(tmp) / "trace.json")
            cli_walls.append(wall)
            failures.extend(problems)
            if k:
                setup_s, again = set_up(workload, seed, smoke)
                setups.append(setup_s)
                if [(i.spec, i.n, i.data) for i in again] != inputs:
                    failures.append("set-up built different inputs from the same seed")

        samples, refs, outputs = cycle(workload, items, 0 if smoke else seconds, side)
    failures += outputs.failures

    scale = REF_NOMINAL_S / statistics.median(refs)
    medians = [statistics.median(s) for s in samples]
    times = [m * scale for m in medians]
    runs = sum(map(len, samples))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "largest_item_s": (statistics.fmean(t for t, i in zip(times, items) if i.largest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "output_bytes": (outputs.nbytes(), "bytes"),
        "cli_s": (statistics.median(cli_walls) * scale, "s"),
    }
    attempted = outputs.runs + len(cli_walls)
    extra = {
        "failed_ratio": min(len(failures), attempted) / attempted,
        "reference_median_ms": statistics.median(refs) * 1e3,
        "reference_runs": len(refs),
        "unscaled_wall_s": sum(medians),
        "unscaled_cli_s": statistics.median(cli_walls),
        "item_runs": f"{runs} ({runs / len(items):.1f} per item, {len(items)} items)",
        "cli_runs": len(cli_walls),
        "setups": len(setups),
        "output_digest": outputs.digest(),
        "failures": failures,
        "attempted": attempted,
    }
    return metrics, extra


def per_layer(package, workload, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    items = workload.build(seed, smoke)
    # Every stride-th item, so that a traced sweep keeps about a million
    # spans in memory; the sample is fixed by the seed, so counts repeat.
    stride = max(1, len(items) // TRACED_ITEMS)
    sample = items[::stride]
    plain_samples, _, plain = cycle(workload, sample, 0 if smoke else seconds)
    untraced_s = sum(statistics.median(s) for s in plain_samples)
    tracer = Tracer(package)
    tracer.install()
    try:
        traced_samples, _, traced = cycle(workload, sample, 0, span=tracer.span)
    finally:
        tracer.uninstall()
    traced_s = sum(s[0] for s in traced_samples)
    failures = plain.failures + traced.failures
    if traced.first != plain.first:
        failures.append("the traced pass gave other output bytes than the untraced one")
    attempted = plain.runs + traced.runs

    values = tracer.layer_metrics()
    values["cli.import_s"] = statistics.median(fresh_import("handlecalc.cli")[1] for _ in range(IMPORT_REPEATS))
    values["tracing.overhead_s"] = traced_s - untraced_s
    metrics = {name: (v, unit_of(name)) for name, v in values.items()}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.bin.gz"
    tracer.write_spans(spans_path)
    extra = {
        "failed_ratio": min(len(failures), attempted) / attempted,
        "traced_items": f"{len(sample)} of {len(items)} (every {stride})",
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
        "output_bytes": plain.nbytes(),
        "output_digest": plain.digest(),
        "failures": failures,
        "attempted": attempted,
    }
    return metrics, extra


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_report"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a handful of items, one pass, checks only")
    parser.add_argument("--details", help="also write metrics and run details to this JSON file")
    args = parser.parse_args(argv)

    package = load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, extra = per_layer(package, workload, args.seed, args.seconds, args.smoke)
    else:
        metrics, extra = end_to_end(workload, args.seed, args.seconds, args.smoke)

    failures = extra.pop("failures")
    attempted = extra.pop("attempted")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"workload={workload.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:<36} {value}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.details:
        details = dict(result, workload=workload.name, seed=args.seed, trace=args.trace, **extra)
        Path(args.details).write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
