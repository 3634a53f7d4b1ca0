"""Smoke check of the benchmark itself, at tiny sizes.

    python3 bench/test_smoke.py        # or: python3 -m pytest bench/test_smoke.py

Runs every workload once untraced and once traced with ``--size tiny``
and asserts that the last line names every metric of BENCHMARK.json with
its unit, that the results file carries the request percentiles,
``ops``, ``fail_ratio`` and the run's provenance, and that no request
failed.  It also checks that the benchmark refuses to run, without
printing a result, in a checkout that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROVENANCE = ("seed", "git_sha", "source_sha256", "python", "nproc", "cpu_model")


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def test_every_workload_emits_every_metric():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] is True and last["failed"] == 0, proc.stdout
            assert last["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            assert set(last["metrics"]) == set(want), (workload, trace)
            for name, unit in want.items():
                assert last["metrics"][name]["unit"] == unit, name
            results = json.loads((BENCH / "results" /
                                  f"{workload}-seed7-trace{trace}-tiny.json").read_text())
            summary = results["summary"]
            assert {"query_p50_ms", "query_p99_ms", "ops", "fail_ratio"} <= set(summary)
            assert summary["fail_ratio"]["value"] == 0
            assert summary["ops"]["value"] == last["attempted"]
            assert all(results[k] is not None for k in PROVENANCE)


def test_refuses_a_checkout_without_the_library():
    bare = BENCH / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("query", 0, bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    test_every_workload_emits_every_metric()
    test_refuses_a_checkout_without_the_library()
    print("smoke check passed")
