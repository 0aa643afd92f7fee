#!/usr/bin/env python3
"""The repairalloc benchmark: one workload, one run.

    python3 perfbench/run.py --workload oracle-uniform --seed 1 --seconds 20 --trace 0

Builds the workload's pinned instance pool, times the program's set-up in
several fresh processes, then serves the pool in a fresh worker process as
a closed loop with one client (see ``worker.py``).  Every answer is checked
against ``reference.json`` and the paper's bounds.  Prints every metric
with its unit, records the run in ``.bench_out/``, and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The metrics
are the ``end_to_end`` ones of ``BENCHMARK.json`` with ``--trace 0`` and
the ``per_layer`` ones with ``--trace 1``.

Exit codes: 0 all answers correct; 1 some answer failed; 2 the program or
the benchmark's own files are missing or broken (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pools

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 10  # plus the measuring worker's own start: the median of 11 set-ups
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(pools.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="orders the requests of every pass")
    parser.add_argument("--seconds", type=float, required=True, help="serve passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True, help="1: per-layer run")
    parser.add_argument("--limit", type=int, default=None, help="smoke test: serve only the first LIMIT instances, in one pass")
    return parser


def _start(worker_args: list[str], payload: bytes, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker, feed it the pool and wait for ``ready``; return it and its set-up time."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *worker_args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        proc.stdin.write(payload + b"\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        setup = time.perf_counter() - started
        if line.strip() != b"ready":
            raise BenchError(f"worker did not get ready (exit {proc.wait(timeout=_left(deadline))})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def _left(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a started worker and return its stdout after ``ready``.

    The rest of the output is read through the buffered pipe object that
    read ``ready``, since that object may already hold part of it.  It is
    read before waiting, so a result line larger than the pipe cannot
    stall the worker.  A timer kills a worker that outlives the deadline.
    """
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        proc.kill()

    proc.stdin.close()
    timer = threading.Timer(_left(deadline), expire)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if expired.is_set():
        raise BenchError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out.decode("utf-8")


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _declared_metrics(section: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[section]


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run one workload; return (the final JSON object, the full run record)."""
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "repairalloc").is_dir():
        raise BenchError(f"the program is missing: no {ROOT / 'src' / 'repairalloc'}")
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    pool = pools.make_pool(args.workload)
    pool_digest = pools.digest(pool)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[args.workload]
    if reference["digest"] != pool_digest:
        raise BenchError(f"{args.workload}: the pool no longer matches reference.json; the family changed")
    payload = json.dumps(pool).encode("utf-8")
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.limit is not None:
        worker_args += ["--limit", str(args.limit)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, setup = _start([*worker_args, "--setup-probe"], payload, deadline)
            _finish(probe, deadline)
            setups.append(setup)
    proc, setup = _start([*worker_args, "--trace", str(args.trace)], payload, deadline)
    setups.append(setup)
    out = _finish(proc, deadline)
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        measured = result["layers"]
    else:
        measured = {key: result[key] for key in ("throughput_inst_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb")}
        measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"the run did not measure {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limit": args.limit,
        "pool": {
            "family": reference["family"],
            "pool_seed": reference["pool_seed"],
            "size": len(pool),
            "sha256": pool_digest,
        },
        "python": result["python"],
        "platform": platform.platform(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "kernel_backend": result["backend"],
        "passes": result["passes"],
        "samples": result["samples"],
        "repeated": result["repeated"],
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "setup_samples_s": setups,
        "raw": result["raw"],
        "chunk_median_s": result["chunk_median_s"],
        "instance_latencies_ms": result["latencies_ms"],
        "absent_layers": result.get("absent_layers", []),
        "spans_file": result.get("spans_file"),
        **final,
    }
    return final, record


def _print_report(final: dict, record: dict) -> None:
    pool = record["pool"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(
        f"pool     {pool['family']} at seed {pool['pool_seed']}: {pool['size']} instances, sha256 {pool['sha256']}"
    )
    print(
        f"host     python {record['python']}  commit {record['commit']}  nproc {record['nproc']}"
        f"  kernel backend {record['kernel_backend']}"
    )
    print(f"served   {record['attempted']} requests in {record['passes']} passes, one client, closed loop")
    for name, metric in final["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':32s} {record['failed_frac']:>14.6g} ({record['failed']}/{record['attempted']})")
    if not record["trace"]:
        print(
            f"  latency percentiles over {record['samples']} instances, {record['repeated']} of them timed more"
            f" than once (an instance's latency is the median of its requests); setup_s is the median of"
            f" {len(record['setup_samples_s'])} process starts"
        )
        raw = record["raw"]
        print(
            f"  uncorrected for host speed: throughput {raw['throughput_inst_per_s']:.6g} 1/s, p50"
            f" {raw['latency_p50_ms']:.6g} ms, p90 {raw['latency_p90_ms']:.6g} ms; calibration chunk median"
            f" {record['chunk_median_s'] * 1000:.4g} ms"
        )
    for layer in record["absent_layers"]:
        print(f"  layer {layer} is absent: its wrapped names no longer exist, its metrics read 0")
    for failure in record["failures"]:
        print(f"FAILED instance {failure['instance']}: {'; '.join(failure['problems'])}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        final, record = run(args)
    except (BenchError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_report(final, record)
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
