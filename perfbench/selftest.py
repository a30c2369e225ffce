#!/usr/bin/env python3
"""Fast self-test of the benchmark at toy sizes (about 30 seconds).

Run from the repository root::

    python3 perfbench/selftest.py

Runs every workload with ``--toy`` (3^3 grid, 3 epochs, a 6-request mix)
untraced and traced, and asserts that each run prints exactly the result
keys, names every metric of ``BENCHMARK.json`` with its unit, passes its
own output checks, and, when traced, records spans that nest inside their
parents with ``trace.coverage`` at most 1.  Finally it checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def _run(cwd, workload, trace, toy=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--toy"] if toy else []), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_result(proc, wanted: dict, what: str) -> dict:
    assert proc.returncode == 0, \
        f"{what}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True and result["failed"] == 0, \
        f"{what}: checks failed\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(wanted), f"{what}: {set(metrics) ^ set(wanted)}"
    for name, unit in wanted.items():
        entry = metrics[name]
        assert entry["unit"] == unit, f"{what}: {name} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{what}: {name}"
        assert math.isfinite(entry["value"]), f"{what}: {name} not finite"
    return metrics


def check_spans(path: Path, metrics: dict, what: str) -> None:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, f"{what}: no spans recorded"
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"], f"{what}: span {s['name']} ends early"
        parent = by_id.get(s["parent"])
        if s["parent"] is not None:
            assert parent is not None, f"{what}: dangling parent"
            inside = parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert inside, f"{what}: {s['name']} escapes {parent['name']}"
    coverage = metrics["trace.coverage"]["value"]
    assert 0.0 < coverage <= 1.0, f"{what}: trace.coverage {coverage}"


def check_refuses_without_program() -> None:
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "qpinn-serve", 0, toy=False)
        assert proc.returncode != 0, "ran without the program source"
        assert not proc.stdout.strip(), "printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        what = f"{workload} untraced"
        metrics = check_result(_run(ROOT, workload, 0), end_to_end, what)
        for name, entry in metrics.items():
            assert entry["value"] > 0, f"{what}: {name} is not positive"
        print(f"ok  {what}")
        what = f"{workload} traced"
        metrics = check_result(_run(ROOT, workload, 1), per_layer, what)
        check_spans(OUT / f"{workload}-seed7.spans.jsonl", metrics, what)
        print(f"ok  {what}")
    check_refuses_without_program()
    print("ok  refuses to run without the program source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
