"""Record the byte-identity digests that ``run.py`` checks outputs against.

    python3 bench/golden.py SEED [SEED ...]

For each seed, runs the first pass of ``query`` and ``batch`` at full
size, checks every answer, and stores the first 8 hex digits of the
SHA-256 of each request's output (CLI stdout, trace JSON) in
``bench/golden.json``.  A later run with one of these seeds counts any
request whose bytes differ as failed, which is the byte-identity gate
for refactors.  Record from a commit whose outputs are known good, and
re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys

import run
import ready
import workloads

RECORDED = ("query", "batch")


def record(seeds: list[int]) -> dict:
    mods, _ = ready.get_ready(run.SRC)
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {}
    for workload in RECORDED:
        for seed in seeds:
            ops = workloads.build_ops(mods, workload, seed, 0, "full")
            outputs, _ = run.run_pass(ops, workload, None, run.PacedClock())
            records = run.check_pass(ops, outputs, None)
            failed = sum(r["error"] is not None for r in records)
            if failed:
                raise SystemExit(f"{workload} seed {seed}: {failed} requests failed; "
                                 "not recording")
            golden.setdefault(workload, {})[str(seed)] = "".join(
                (r["sha256"] or "-" * run.GOLDEN_HEX)[:run.GOLDEN_HEX] for r in records)
            print(f"{workload} seed {seed}: {len(records)} digests", flush=True)
    return golden


if __name__ == "__main__":
    result = record([int(s) for s in sys.argv[1:]])
    run.GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
