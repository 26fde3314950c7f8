"""Smoke tests of the benchmark: a handful of items per workload, every check on.

    python3 -m pytest -q bench/test_smoke.py

They gate on completion and correctness only, never on timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import handlecalc  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_wrong_count(workload):
    wl = workloads.WORKLOADS[workload]
    item = wl.build(3, smoke=True)[0]
    output = wl.run(item)
    assert wl.check(item, output)[0] == []
    item.n += 1  # the same output no longer matches the paper's counts for this n
    assert wl.check(item, output)[0]


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    original = handlecalc.words.concat
    tracer = Tracer(handlecalc)
    tracer.install()
    try:
        for mod in (handlecalc, handlecalc.words, handlecalc.complexes, handlecalc.twists, handlecalc.surfaces):
            assert mod.concat.__wrapped__ is original
        handlecalc.run_both("twobridge:+,-", 1)
    finally:
        tracer.uninstall()
    assert handlecalc.complexes.concat is original and handlecalc.twists.concat is original
    metrics = tracer.layer_metrics()
    assert metrics["schedules.run_schedule_calls"] == 2
    assert metrics["factorization.build_useful_ratio"] == 0.5
    assert metrics["words.letters_in"] > 0 and metrics["complexes.moves"] > 0
    path = tmp_path / "spans.bin.gz"
    tracer.write_spans(path)
    names, columns = read_spans(path)
    assert names == tracer.names and list(columns["start"]) == list(tracer.span_start)
