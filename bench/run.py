"""weylcalc benchmark: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload {query,batch,rewrite,certify} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

A run starts in a fresh interpreter with one process and one thread.
It sets up (import, every root system, the catalog) in this process and
once more in a fresh child interpreter, one after the other, then runs
passes of the workload as a closed loop with one client: each request
starts when the previous one has returned.  A pass is a fixed, seeded
list of requests and ``--seconds`` fixes how many passes a run makes.
Answers are checked after the timed section against references the
benchmark holds itself.  ``setup_s`` and ``run_s`` are paced: each
stretch of timed work counts at the host's reference speed, which a
fixed kernel run between requests measures (pace.py); the wall-clock
times are reported next to them.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans recorded around
the public functions of each module, plus the tracing overhead: the
traced run_s minus the run_s of an untraced run in a child interpreter.
Details, spans and per-request digests go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))

import ready  # noqa: E402
import workloads  # noqa: E402
from pace import PacedClock  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

#: Set-ups per untraced run: this process, then a fresh interpreter.
SETUP_SAMPLES = 2
#: Paced seconds one full pass takes at the baseline commit (2-core Xeon host).
NOMINAL_PASS_S = {"query": 7.5, "batch": 20.0, "rewrite": 12.0, "certify": 8.0}
#: Digest prefix length kept in golden.json (the results files keep all 64).
GOLDEN_HEX = 8


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: p99 of 1000 samples leaves 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def child_setup() -> dict:
    """Set-up timings measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "ready.py"), str(SRC)],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_run_s(args) -> float:
    """run_s of the same passes, untraced, in a fresh interpreter.

    The traced run's own passes start cold, like an untraced run's, so the
    comparison has to come from another process to start cold too.
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--size", args.size, "--setup-samples", "1"],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["run_s"]["value"]


def run_pass(ops, workload: str, tracer: Tracer | None, clock: PacedClock):
    """The timed section: every request in order, one at a time.

    Each request's latency is added to ``clock``, which runs its pacing
    kernel between requests, outside the timed intervals.
    """
    outputs, latencies = [], []
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.request(f"op.{workload}.{op.kind}", i):
                    out = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed request is a counted result
            out = exc
        latencies.append(perf_counter() - t0)
        clock.add(latencies[-1])
        outputs.append(out)
    return outputs, latencies


def check_pass(ops, outputs, golden: str | None) -> list[dict]:
    """Check every answer; one record per request, with its error or None."""
    records = []
    digests: list[str | None] = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        digest, why = None, None
        if isinstance(out, Exception):
            why = "".join(traceback.format_exception_only(type(out), out)).strip()
        else:
            try:
                why = op.check(out)
                digest = op.digest(out)
            except Exception as exc:  # noqa: BLE001 - a malformed answer fails the check
                why = f"check raised {type(exc).__name__}: {exc}"
        if why is None and op.same_as is not None and digest != digests[op.same_as]:
            why = "repeated request gave different bytes"
        if why is None and golden is not None and digest is not None:
            want = golden[GOLDEN_HEX * i:GOLDEN_HEX * (i + 1)]
            if digest[:GOLDEN_HEX] != want:
                why = "output bytes differ from the recorded golden digest"
        digests.append(digest)
        records.append({"label": op.label, "kind": op.kind, "sha256": digest,
                        "error": why})
    return records


def pass_count(workload: str, seconds: float, size: str) -> int:
    """Passes per run: ``--seconds`` fixes the work, not a deadline.

    Every commit measures the same requests, so run_s compares like with
    like; at the baseline commit the run measures about ``--seconds``.
    """
    if size != "full":
        return 1
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def measure(mods, args, pass_indexes, tracer, golden):
    """Run and check the given passes; returns (clock, records, latencies)."""
    clock, records, latencies = PacedClock(), [], []
    for p in pass_indexes:
        ops = workloads.build_ops(mods, args.workload, args.seed, p, args.size)
        if tracer:
            with tracer:
                outputs, lat = run_pass(ops, args.workload, tracer, clock)
        else:
            outputs, lat = run_pass(ops, args.workload, None, clock)
        clock.close()
        recs = check_pass(ops, outputs, golden if p == 0 else None)
        for rec, t in zip(recs, lat):
            rec.update(pass_index=p, latency_ms=1e3 * t, traced=tracer is not None)
        records += recs
        latencies += lat
    return clock, records, latencies


def golden_for(workload: str, seed: int, size: str) -> str | None:
    if size != "full" or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def source_sha256() -> str:
    """Digest of the library sources, which identifies the code outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "weylcalc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: a few requests per workload, for the smoke check")
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                        help="set-ups per untraced run; the traced run's untraced "
                             "comparison needs only its own one")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    try:
        mods, timings = ready.get_ready(
            SRC, before_build=tracer.install if tracer else None)
    except ready.MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tracer:
        tracer.uninstall()
    setup_samples = [timings]
    if not args.trace:
        setup_samples += [child_setup() for _ in range(args.setup_samples - 1)]
    setup_s = statistics.median(t["setup_s"] for t in setup_samples)

    golden = golden_for(args.workload, args.seed, args.size)
    passes = pass_count(args.workload, args.seconds, args.size)
    clock, records, latencies = measure(mods, args, range(passes), tracer, golden)
    run_s = clock.paced_s
    attempted = len(records)
    failed = sum(r["error"] is not None for r in records)

    first_diagram_ms = next((r["latency_ms"] for r in records if r["kind"] == "diagram"),
                            None)
    summary = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "setup_wall_s": (statistics.median(t["setup_wall_s"] for t in setup_samples), "s"),
        "run_wall_s": (clock.wall_s, "s"),
        "kernel_ms": (1e3 * statistics.median(clock.kernels), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "query_p50_ms": (1e3 * percentile(latencies, 0.50), "ms"),
        "query_p99_ms": (1e3 * percentile(latencies, 0.99), "ms"),
        "ops": (attempted, "count"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    if args.trace:
        metrics = layer_metrics(tracer.spans, run_s, untraced_run_s(args))
    else:
        metrics = {k: summary[k] for k in ("setup_s", "run_s", "peak_rss_mb")}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        stem += f"-{args.size}"
    result = {
        **environment(args.seed),
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "argv": sys.argv[1:],
        "size": args.size,
        "passes": passes,
        "setup_samples": setup_samples,
        "run_kernel_samples_s": clock.kernels,
        "latency_samples": len(latencies),
        "cold_diagram_s": (None if first_diagram_ms is None
                           else setup_s + first_diagram_ms / 1e3),
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "golden_checked": golden is not None,
        "requests": records,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps([s.to_json(i) for i, s in enumerate(tracer.spans)]))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{passes} pass(es), {len(latencies)} requests timed")
    for name, (value, unit) in {**summary, **(metrics if args.trace else {})}.items():
        print(f"  {name:26s} {value:14.6f} {unit}")
    for rec in records:
        if rec["error"]:
            print(f"  FAILED {rec['label']}: {rec['error']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
