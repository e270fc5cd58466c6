#!/usr/bin/env python3
"""Seeded benchmark of the dfsmn package.

    python3 perfbench/run.py --workload synth-I --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The run generates its inputs from --seed, sets up several times (reporting
the median as setup_s), then repeats the workload's job until --seconds
have been spent, checks every output, and prints one JSON object as the last
line of stdout. With --trace 0 that object holds the end-to-end metrics;
with --trace 1 jobs alternate untraced and traced, and it holds the
per-layer metrics of the traced jobs. The full result, with its environment
stamp and check details, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
MIN_JOBS = 4


def tail_percentile(guaranteed: int) -> int:
    """Highest whole percentile with at least 10 samples above it in a run
    that has `guaranteed` samples. Fixing it from the guaranteed count keeps
    the percentile the same when a faster program fits in more jobs."""
    if guaranteed < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {guaranteed}")
    return (100 * (guaranteed - 10)) // guaranteed


def nearest_rank(samples: list, q: int) -> float:
    return sorted(samples)[max(1, math.ceil(q * len(samples) / 100)) - 1]


def run_jobs(wl, state, seconds: float, ctx, tracer, boundaries, job_span) -> tuple:
    """Run at least MIN_JOBS jobs (two in a traced run), then repeat until the
    next job would end past the deadline. In traced runs, jobs alternate
    untraced / traced, starting untraced."""
    results, traced_walls, untraced_walls = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        if traced:
            tracer.install(boundaries)
            ctx.tracer = tracer
            span = tracer.begin(job_span)
        try:
            r = wl.job(state, ctx)
        finally:
            if traced:
                tracer.end(span)
                tracer.uninstall()
                ctx.tracer = None
        results.append(r)
        (traced_walls if traced else untraced_walls).append(r.wall_s)
        elapsed = time.perf_counter() - start
        estimate = statistics.median(x.wall_s for x in results)
        enough = len(results) >= (2 if tracer else MIN_JOBS)
        if enough and elapsed + estimate > seconds:
            return results, traced_walls, untraced_walls


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(setup_times, results, peak_mb: float) -> dict:
    loads = [x for r in results for x in r.load_s]
    rtf = [x for r in results for x in r.rtf]
    q = tail_percentile(MIN_JOBS * len(results[0].rtf))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (statistics.median(r.wall_s for r in results), "s"),
        "model_load_s": (statistics.median(loads), "s"),
        "rtf_p50": (statistics.median(rtf), "s/s"),
        "rtf_tail": (nearest_rank(rtf, q), "s/s"),
        "frames_per_s": (statistics.median(r.frames / r.frames_s for r in results),
                         "frames/s"),
        "final_valid_mse": (results[0].final_mse, "mse"),
        "peak_rss_mb": (peak_mb, "MB"),
    }, {"rtf_tail_percentile": q, "rtf_samples": len(rtf), "model_load_samples": len(loads),
        "jobs": len(results), "job_walls_s": [r.wall_s for r in results]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dfsmn", "__init__.py")):
        print(f"error: no dfsmn package under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import costs
    import perlayer
    import stamp
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{' '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.toy_sizes() if args.toy else workloads.Sizes()
    wl = workloads.WORKLOADS[args.workload](sizes)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    ctx = workloads.Context()
    tracer = Tracer() if args.trace else None
    checks, failed, metrics, details = [], 0, {}, {}
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(workdir, args.seed)
            setup_times.append(time.perf_counter() - t0)
        setup_peak = peak_rss_mb()
        results, traced_walls, untraced_walls = run_jobs(
            wl, state, args.seconds, ctx, tracer, perlayer.BOUNDARIES, perlayer.JOB_SPAN)
        job_peak = peak_rss_mb()        # before the checks, which load and run more
        checks = wl.check(state, results)
        if tracer is None:
            metrics, details = end_to_end(setup_times, results, job_peak)
            details["peak_rss_after_setup_mb"] = setup_peak
        else:
            stats = tracer.stats()
            own, roots = perlayer.self_time_balance(tracer, stats)
            checks.append(("self times add up to traced wall time", own == roots,
                           f"{own} ns vs {roots} ns"))
            cost_errors = sum(st.cost_errors for st in stats.values())
            checks.append(("cost model joins every traced call", cost_errors == 0,
                           f"{cost_errors} calls without a cost"))
            split = [costs.split_error(cfg) for cfg in wl.configs()]
            checks.append(("FLOP split matches dfsmn.analysis", not any(split),
                           "; ".join(e for e in split if e)))
            values = perlayer.per_layer_metrics(stats, len(tracer.spans), traced_walls,
                                                untraced_walls)
            units = dict(perlayer.metric_units())
            metrics = {k: (v, units[k]) for k, v in values.items()}
            top = sorted(((k[:-len(".self_s")], round(v, 4)) for k, v in values.items()
                          if k.endswith(".self_s")), key=lambda kv: -kv[1])[:6]
            details = {"absent_boundaries": tracer.absent, "jobs": len(results),
                       "traced_jobs": len(traced_walls), "top_self_s_per_job": top}
            tracer.write_spans(os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.tsv"))
    except Exception:
        traceback.print_exc()
        failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed += sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for key, value in details.items():
        print(f"info {key}: {value}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(1, ctx.attempted + len(checks)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace,
              "stamp": stamp.environment(ROOT, args.seed), "details": details,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
              "result": result}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
