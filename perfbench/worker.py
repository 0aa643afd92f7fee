"""One workload in one fresh process: a closed loop with a single client.

Reads the workload's instance pool as one line of JSON on stdin, imports the program
from ``src/`` and parses every instance with ``scenario_from_dict``, then
prints ``ready``: the benchmark's set-up time ends there.  With
``--setup-probe`` it exits at that point.  Otherwise it serves requests in
passes over the pool, each pass in an order drawn from the run seed, and
checks every answer outside the timed region.  The first pass serves every
instance; later passes serve again only the instances whose first request
took at most REPEAT_MAX_S, until ``--seconds`` have passed and at least
MIN_PASSES passes were made.  An instance's latency is the median of its
requests, so a request that the shared host slowed down does not set it.
Each request's time is corrected for the host's speed by the calibration
chunks run between requests (see ``calibration.py``); the raw figures are
reported beside the corrected ones.  The latency percentiles are over the
instances, and throughput is the pool size over the summed instance
latencies: one pass at typical speed.  The worker prints one JSON line
with the results.

With ``--trace 1`` every pass serves the whole pool, the layer figures are
per pass, and every other request also runs plain (alternating which goes
first), so the tracing overhead is measured on the same work.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
FAILURES_KEPT = 5
MIN_PASSES = 3  # an untraced run times every quick instance at least this often
REPEAT_MAX_S = 0.3  # an instance slower than this on its first request is served once
CHUNK_EVERY_S = 0.05  # a calibration chunk runs after this much request time


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None, help="serve only the first LIMIT instances, one pass")
    parser.add_argument("--setup-probe", action="store_true")
    return parser


def percentile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repairalloc.scenario_io import scenario_from_dict

        import work
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    pool = json.loads(sys.stdin.readline())
    started = time.perf_counter()
    scenarios = [scenario_from_dict(item["scenario"]) for item in pool]
    parse_s = time.perf_counter() - started
    print("ready", flush=True)
    if args.setup_probe:
        return 0
    # The pool lives for the whole run: keep the collector from walking it.
    gc.collect()
    gc.freeze()

    import calibration
    import pools
    import tracing

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    expected = reference[args.workload]["instances"]
    served = len(pool) if args.limit is None else min(args.limit, len(pool))
    request = work.REQUESTS[args.workload]
    policy = work.make_policy()
    tracer = tracing.Tracer() if args.trace else None
    traced_policy = tracer.policy(policy) if tracer else None

    def serve(i: int, traced: bool) -> tuple[float, list[str]]:
        """Run request i once; return its latency and what its checks found."""
        scenario, assumption = scenarios[i], pool[i]["assumption"]
        answer = None
        if traced:
            tracer.install()
            span = tracer.begin("request")
        t0 = time.perf_counter()
        try:
            answer = request(scenario, assumption, traced_policy if traced else policy)
        except Exception as exc:  # a failed request is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end(span)
            tracer.uninstall()
        if answer is None:
            return elapsed, [error]
        return elapsed, work.check(scenario, assumption, answer, expected[i])

    # Per instance: (request seconds, when the request started).
    samples: list[list[tuple[float, float]]] = [[] for _ in range(served)]
    calibrator = calibration.Calibrator()
    calibrator.run(calibration.WINDOW)
    since_chunk = 0.0
    twins: list[tuple[float, float]] = []  # (traced, plain) seconds of one request
    failures: list[dict] = []
    attempted = failed = passes = 0
    # Untraced runs time each quick instance at least MIN_PASSES times;
    # traced runs and smoke tests make whole passes, so that per-pass
    # layer figures compare.
    min_passes = MIN_PASSES if args.limit is None and tracer is None else 1
    loop_start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - loop_start < args.seconds:
        order = pools.pass_order(served, args.seed, passes)
        if passes and tracer is None:
            order = [i for i in order if samples[i][0][0] <= REPEAT_MAX_S]
            if not order:
                break
        for i in order:
            started = time.perf_counter()
            if tracer is None:
                elapsed, problems = serve(i, False)
            else:
                # Every other request also runs plain, alternately before and
                # after its traced run: that pair measures the overhead.
                tracer.request = attempted
                twin = {0: [False, True], 1: [True], 2: [True, False], 3: [True]}[attempted % 4]
                seconds = {}
                problems = []
                for traced in twin:
                    seconds[traced], found = serve(i, traced)
                    problems += found
                elapsed = seconds[True]
                if False in seconds:
                    twins.append((seconds[True], seconds[False]))
            samples[i].append((elapsed, started))
            attempted += 1
            if problems:
                failed += 1
                if len(failures) < FAILURES_KEPT:
                    failures.append({"instance": i, "problems": problems})
            since_chunk += elapsed
            if since_chunk >= CHUNK_EVERY_S:
                calibrator.run()
                since_chunk = 0.0
        passes += 1
    calibrator.run(calibration.WINDOW)

    # An instance's latency is the median of its requests in the run, each
    # corrected for the host's speed around it (see calibration.py).
    latencies = [statistics.median(t * calibrator.factor(at, t) for t, at in times) for times in samples]
    raw = [statistics.median(t for t, _ in times) for times in samples]
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": passes,
        "samples": len(latencies),
        "repeated": sum(len(times) > 1 for times in samples),
        "throughput_inst_per_s": served / sum(latencies),
        "latency_p50_ms": percentile(latencies, 0.5) * 1000.0,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": {
            "throughput_inst_per_s": served / sum(raw),
            "latency_p50_ms": percentile(raw, 0.5) * 1000.0,
            "latency_p90_ms": percentile(raw, 0.9) * 1000.0,
        },
        "chunk_median_s": statistics.median(calibrator.chunks),
        "latencies_ms": [seconds * 1000.0 for seconds in latencies],
        "parse_s": parse_s,
        "python": platform.python_version(),
        "backend": getattr(sys.modules.get("repairalloc._kernel"), "BACKEND", None),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(passes)
        layers["scenario_io.parse_s"] = parse_s
        layers["trace.overhead_frac"] = sum(t for t, _ in twins) / sum(p for _, p in twins) - 1.0
        result["layers"] = layers
        result["absent_layers"] = tracer.absent
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed})
        result["spans_file"] = str(out.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
