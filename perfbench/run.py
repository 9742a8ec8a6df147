"""Benchmark of the yamada library: exact state sums, certified root
sweeps and density queries.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
One client sends requests in a closed loop (the next request goes out
when the previous one has returned) from this one process, with no
worker pools.  Each run is a fresh process, so the library's
module-level caches start cold, as they do for every ``yamada`` command.

Workloads (inputs from workloads.py, drawn from ``--seed``):
  exact    yamada_r state sums (family diagrams and move-grown diagrams,
           4-8 crossings), h_edge_replace on cycle and theta templates,
           yamada_h on bridgeless multigraphs; work = states, sum of 3^c
  sweep    one scan_family call per distinct family cell, serialised with
           records_to_csv, and limit_curve_points once per (s, k) column;
           work = certified roots
  density  cold density_witness queries serialised with witness_to_dict;
           work = completed queries

A run sends a fixed number of whole blocks of requests (exact cycles,
sweep rounds, density rounds; see workloads.py), BLOCKS_PER_S times
``--seconds`` of them and at least one, which takes about ``--seconds``
at the commit that introduced the benchmark.  A fixed count rather than a
deadline gives every run of a seed the same requests on every commit,
and no run ends part way through a cycle or round, whose costs are
balanced only as a whole.

With ``--trace 0`` the run reports the end-to-end metrics:
  setup_s         median time to import yamada.cli in a fresh interpreter
                  (SETUP_REPS child processes)
  peak_rss_mb     peak resident memory of this process after the requests
  latency_p50_s   median request latency
  latency_tail_s  request latency at the highest whole percentile with
                  at least ten samples beyond it (tail_percentile)
  work_per_s      the workload's work (above) per second of request time
Both latency quantiles are Harrell-Davis estimates (hd_quantile).
Garbage left by one request is collected before the next one starts,
with the clock stopped, so a request never pays for its predecessors.

The request times are scaled to a fixed machine speed.  On a shared
host the same code runs a fifth faster or slower from one minute to the
next, as other tenants load the caches, the memory and the cores.
Between requests, at least every REF_EVERY_S seconds and with the clock
stopped, the run times a pass of a fixed reference mix (reference.py)
in this process; latency_p50_s and latency_tail_s are multiplied, and
work_per_s divided, by REF_S over the run's median pass.  The reference
never changes, so a change to the library moves the scaled figures as
it moves the measured ones; these are printed unscaled on the line "as
measured".  setup_s is not scaled, and peak_rss_mb includes the
reference's tables, about 7 MB.
The output checks run after the clock stops; failed checks and raised
errors count in ``failed`` (failed_frac = failed / attempted).

With ``--trace 1`` the run sends the same requests, records spans at the
layer boundaries listed in tracing.py, writes them to
``perfbench/out/trace-<workload>-seed<seed>.jsonl`` and reports the
per-layer metrics.  It then replays the last quarter of those requests
untraced; trace.overhead_s is their traced minus their untraced time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import mpmath

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPS = 7
# Reference passes (reference.py): one at least every REF_EVERY_S seconds
# between requests; REF_S is the pass time the scaled times refer to.
REF_EVERY_S = 1.0
REF_S = 0.025
# Whole blocks per second of --seconds: the rate the closed loop reaches
# at the commit that introduced the benchmark, on a 2-core VM.
BLOCKS_PER_S = {"exact": 0.09, "sweep": 0.07, "density": 0.037}

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "work_per_s": "1/s",
    "diagram.resolve_s": "s",
    "diagram.resolve_calls": "count",
    "diagram.yamada_r_self_s": "s",
    "multigraph.yamada_h_s": "s",
    "multigraph.yamada_h_calls": "count",
    "multigraph.memo_fresh_ratio": "ratio",
    "chain.chain_polynomial_s": "s",
    "chain.terms": "count",
    "replace.h_edge_replace_self_s": "s",
    "laurent.exact_div_s": "s",
    "laurent.exact_div_calls": "count",
    "replace.family_polynomial_s": "s",
    "replace.family_polynomial_calls": "count",
    "replace.family_degree_estimate_s": "s",
    "roots.solve_self_s": "s",
    "roots.cells_per_query": "count",
    "roots.limit_curve_points_s": "s",
    "roots.curve_points": "count",
    "roots.serialize_s": "s",
    "roots.certified_roots": "count",
    "roots.worst_residual": "ratio",
    "trace.overhead_s": "s",
}
WORK_NAME = {"exact": "states", "sweep": "roots", "density": "queries"}

_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import yamada.cli; "
    "print(time.perf_counter() - t)"
)


def measure_setup() -> list[float]:
    """Import times of yamada.cli, each in a fresh isolated interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_requests(stream, count: int, tracer=None, reference=None):
    """Send count requests, each after the previous one has returned.
    Returns (request, output, error, latency) tuples in the order sent."""
    done = []
    for rid, req in zip(range(count), stream):
        gc.collect()
        if reference and perf_counter() - reference.last >= REF_EVERY_S:
            reference.run_pass()
        if tracer:
            tracer.open_request(rid, req.kind)
        t0 = perf_counter()
        try:
            out, err = req.call(), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, exc
        latency = perf_counter() - t0
        if tracer:
            tracer.close_request()
        done.append((req, out, err, latency))
    return done


def check_outputs(done) -> list[str]:
    failures = []
    for req, out, err, _ in done:
        if err is not None:
            reason = traceback.format_exception_only(type(err), err)
            failures.append(f"{req.kind} raised {''.join(reason).strip()}")
            continue
        try:
            msg = req.check(out)
        except Exception as exc:  # a check that cannot run is a failure
            msg = f"{req.kind} check raised {exc!r}"
        if msg:
            failures.append(msg)
    return failures


def input_digest(done) -> str:
    h = hashlib.sha256()
    for req, _, _, _ in done:
        h.update(json.dumps(req.spec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def output_counts(done) -> tuple[int, float]:
    """Certified roots among the outputs and the worst residual they carry."""
    from workloads import TOL
    from yamada import roots

    recs = []
    for req, out, err, _ in done:
        if err is not None:
            continue
        if req.kind == "cell":
            recs.extend(out[0])
        elif req.kind == "query" and isinstance(out[0], roots.Witness):
            recs.append(out[0].found)
    certified = sum(1 for r in recs if r.residual <= TOL)
    return certified, max((r.residual for r in recs), default=0.0)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond
    it (the median when there are too few samples for that)."""
    return max(50, math.floor(100 * (n - 10) / n))


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the average of the order
    statistics weighted by Beta((n+1) q, (n+1)(1-q)).  Request latencies
    cluster by request kind with gaps in between, and where a quantile
    falls in a gap the plain order statistic jumps between the two
    clusters from one run to the next; the weighted average moves
    smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    est, prev = 0.0, 0.0
    for i, value in enumerate(xs, 1):
        cdf = float(mpmath.betainc(a, b, 0, i / n, regularized=True))
        est += (cdf - prev) * value
        prev = cdf
    return est


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--workload", required=True, choices=["exact", "sweep", "density"]
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "yamada" / "cli.py").is_file():
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import yamada
    import workloads

    if Path(yamada.__file__).resolve().parent != (SRC / "yamada").resolve():
        print(f"yamada imported from {yamada.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    reference, setup = None, []
    if not args.trace:
        from reference import Reference

        reference = Reference()
        setup = measure_setup()

    def stream():
        return workloads.STREAMS[args.workload](
            random.Random(f"{args.workload}-{args.seed}")
        )

    block = workloads.BLOCK[args.workload]
    count = block * max(1, round(BLOCKS_PER_S[args.workload] * args.seconds))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            done = run_requests(stream(), count, tracer)
        finally:
            tracer.uninstall()
        # the last quarter: by then the traced pass ran with warm caches too
        tail_start = count - math.ceil(count / 4)
        replay = run_requests(
            itertools.islice(stream(), tail_start, None), count - tail_start
        )
        overhead = sum(d[3] for d in done[tail_start:]) - sum(
            d[3] for d in replay
        )
    else:
        done = run_requests(stream(), count, reference=reference)
        reference.run_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_outputs(done)
    latencies = [d[3] for d in done]
    busy = sum(latencies)
    works = [req.work(out) if err is None else 0 for req, out, err, _ in done]
    percentile = tail_percentile(len(latencies))
    tail = hd_quantile(latencies, percentile / 100)
    beyond = sum(1 for x in latencies if x > tail)
    work_per_s = sum(works) / busy

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  requests {len(done)}")
    print(f"inputs sha256 {input_digest(done)} (all {len(done)} requests), "
          f"{input_digest(done[:8])} (first 8)")
    kinds: dict[str, int] = {}
    for req, _, _, _ in done:
        kinds[req.kind] = kinds.get(req.kind, 0) + 1
    print("mix " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    if setup:
        print(f"setup_s runs {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"failed_frac {len(failures) / len(done)} ({len(failures)}/{len(done)})")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    print(f"latency_tail_s is p{percentile} over {len(latencies)} samples, "
          f"{beyond} beyond it")
    print("latencies_s " + " ".join(f"{x:.4g}" for x in latencies))
    print(f"{WORK_NAME[args.workload]}_per_s {work_per_s} "
          f"({sum(works)} {WORK_NAME[args.workload]} in {busy:.3f} s)")

    if tracer:
        certified, worst = output_counts(done)
        values = tracer.layer_metrics()
        values["roots.certified_roots"] = certified
        values["roots.worst_residual"] = worst
        values["trace.overhead_s"] = overhead
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path}; "
              f"tracing overhead {overhead:.4f} s over {len(replay)} requests")
    else:
        p50 = hd_quantile(latencies, 0.5)
        setup_s = statistics.median(setup)
        scale = REF_S / reference.median()
        print(f"reference: median pass {reference.median():.5f} s over "
              f"{len(reference.passes)} passes, times scaled by {scale:.4f}")
        print(f"as measured: setup_s {setup_s} latency_p50_s {p50} "
              f"latency_tail_s {tail} work_per_s {work_per_s}")
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "latency_p50_s": p50 * scale,
            "latency_tail_s": tail * scale,
            "work_per_s": work_per_s / scale,
        }
    for name, value in values.items():
        print(f"{name} {value} {UNITS[name]}")
    result = {
        "correct": not failures,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
