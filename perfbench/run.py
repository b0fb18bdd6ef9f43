"""virialkit benchmark: one workload per run, closed loop, one request at a time.

    python3 perfbench/run.py --workload exact-corpus --seed 1 --seconds 13 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Set-up (import, cold graph lists, one warm-up request per request shape) is
repeated in fresh interpreters and reported as a median.  The timed pass
then sends whole cycles of the workload's request mix, as many as take
--seconds at the workload's nominal cycle time: the number of requests
depends on --seconds and never on the speed of the code, so two commits
serve the same requests and their percentiles mean the same thing.
Outputs are checked during and after the pass.  With --trace 1 the pass is
run untraced and then again, request for request, with spans around the
package's public calls; that run reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
# Per-request self times must add up to the request span within this share.
SPAN_SUM_TOLERANCE = 1e-6


def tail_latency(latencies) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile that still has at
    least TAIL_BEYOND requests above it.  With fewer requests than that the
    smallest latency is returned with all others beyond it."""
    ordered = sorted(latencies)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def fail_fraction(outcomes) -> tuple[int, int, float]:
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    return attempted, failed, failed / attempted if attempted else 1.0


# -- set-up ---------------------------------------------------------------------------


def prepare_environment() -> bool:
    """Put the checkout's sources on the path and pin numeric libraries to one
    thread (the package is single-threaded); False when there are no sources."""
    if not (ROOT / "src" / "virialkit" / "__init__.py").is_file():
        print(f"error: no virialkit sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return True


class Package:
    """The virialkit modules the benchmark drives, looked up as attributes so
    the tracer's patches are seen."""

    def __init__(self):
        for name in ("series", "graphs", "weights", "virial", "bounds", "cli"):
            setattr(self, name, importlib.import_module(f"virialkit.{name}"))


def precompute_graphs(vk, max_degree: int, tracer) -> None:
    graphs = vk.graphs
    for n in range(1, max_degree + 1):
        for fn, counted in ((graphs.connected_graph_list, True),
                            (graphs.two_connected_graph_list, True),
                            (graphs.connected_block_profiles, False)):
            with tracer.span("graphs.enumerate", request="setup") as s:
                out = fn(n)
                if counted:
                    s.counters["graphs"] = len(out)


def set_up(workload, seed: int, tracer):
    """Import, cold graph lists and one warm-up request per shape; returns
    (package, seconds)."""
    start = perf_counter()
    vk = Package()
    precompute_graphs(vk, workload.max_degree, tracer)
    workload.open(vk, OUT_DIR)
    for req in workload.warmups(seed):
        outcome = workload.run(req)
        if not outcome.ok:
            raise RuntimeError(f"warm-up request {req} failed: {outcome.error}")
    return vk, perf_counter() - start


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                           "--setup-only"], capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- the timed pass -------------------------------------------------------------------------


def execute(workload, req, rid, tracer):
    start = perf_counter()
    try:
        with tracer.span("request", request=rid):
            outcome = workload.run(req)
    except Exception:
        traceback.print_exc()
        outcome = workloads.Outcome(req, error="raised")
    outcome.latency = perf_counter() - start
    return outcome


def planned_requests(workload, seed: int, seconds: float) -> list:
    """Whole cycles of the mix: as many as take `seconds` at the workload's
    nominal cycle time, so every commit serves the same requests."""
    cycles = max(1, round(seconds / workload.nominal_cycle_s))
    return [req for c in range(cycles) for req in workload.cycle(seed, c)]


def closed_loop(workload, requests, tracer):
    """One client sends the next request when the previous one completes."""
    start = perf_counter()
    outcomes = [execute(workload, req, rid, tracer) for rid, req in enumerate(requests)]
    return outcomes, perf_counter() - start


# -- metrics ----------------------------------------------------------------------------------


def end_to_end(outcomes, elapsed: float, setup_s: float, peak_rss_mb: float) -> dict:
    """The user-visible metrics of an untraced pass whose outcomes are verified."""
    latencies = [o.latency for o in outcomes]
    tail, _, _ = tail_latency(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "coeffs_per_s": (sum(o.coeffs for o in outcomes if o.ok) / elapsed, "1/s"),
        "req_p50_s": (statistics.median(latencies), "s"),
        "req_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tr: tracing.Tracer, cache_delta, outcomes, overhead: float) -> tuple[dict, list]:
    """Per-layer metrics of a traced pass, and any span-arithmetic problems."""
    selfs = tracing.self_times(tr.spans, tr.leaves.values())
    by_name: dict[str, dict] = {}

    def add(name, calls, total, self_s, counters):
        e = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        e["calls"] += calls
        e["total_s"] += total
        e["self_s"] += self_s
        for k, v in counters.items():
            e[k] = e.get(k, 0) + v

    for s in tr.spans:
        add(s.name, 1, s.duration, selfs[s.id], s.counters)
    for agg in tr.leaves.values():
        add(agg.name, agg.calls, agg.seconds, agg.seconds, agg.counters)

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    det_ids = {s.id for s in tr.spans if s.name == "series.determinant"}
    det_muls = sum(a.calls for a in tr.leaves.values()
                   if a.name == "series.mul" and a.parent in det_ids)

    # per request: self times of its spans and leaves add up to its duration
    covered: dict = {}
    for s in tr.spans:
        if s.name != "request":
            covered[s.request] = covered.get(s.request, 0.0) + selfs[s.id]
    for agg in tr.leaves.values():
        covered[agg.request] = covered.get(agg.request, 0.0) + agg.seconds
    problems = []
    request_time = uncovered = 0.0
    for s in tr.spans:
        if s.name == "request":
            request_time += s.duration
            uncovered += selfs[s.id]
            gap = abs(covered.get(s.request, 0.0) + selfs[s.id] - s.duration)
            if gap > SPAN_SUM_TOLERANCE * max(s.duration, 1e-3):
                problems.append(f"request {s.request}: self times miss its duration by {gap:.3g} s")

    hits, misses = cache_delta
    metrics = {
        "series.mul.calls": (get("series.mul", "calls"), "count"),
        "series.mul.self_s": (get("series.mul", "self_s"), "s"),
        "series.mul.pairs": (get("series.mul", "pairs"), "count"),
        "series.mul.pair_yield": (_ratio(get("series.mul", "pairs_in_cap"),
                                         get("series.mul", "pairs")), "ratio"),
        "series.reciprocal.total_s": (get("series.reciprocal", "total_s"), "s"),
        "series.determinant.calls": (get("series.determinant", "calls"), "count"),
        "series.determinant.total_s": (get("series.determinant", "total_s"), "s"),
        "series.determinant.mul_calls": (det_muls, "count"),
        "graphs.enumerate.total_s": (get("graphs.enumerate", "total_s"), "s"),
        "graphs.enumerate.graphs": (get("graphs.enumerate", "graphs"), "count"),
        "graphs.canonical_key.calls": (get("graphs.canonical_key", "calls"), "count"),
        "graphs.canonical_key.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "graphs.canonical_key.total_s": (get("graphs.canonical_key", "total_s"), "s"),
        "weights.synthetic.lookups": (get("weights.synthetic", "calls"), "count"),
        "weights.synthetic.total_s": (get("weights.synthetic", "total_s"), "s"),
        "weights.mc.runs": (get("weights.mc", "calls"), "count"),
        "weights.mc.mayer_evals": (get("weights.mc", "mayer_evals"), "count"),
        "weights.mc.total_s": (get("weights.mc", "total_s"), "s"),
        "weights.mc.mayer_evals_per_s": (_ratio(get("weights.mc", "mayer_evals"),
                                                get("weights.mc", "total_s")), "1/s"),
    }
    for stage in ("pressure", "recursive", "lagrange_good", "two_connected"):
        metrics[f"virial.{stage}.total_s"] = (get(f"virial.{stage}", "total_s"), "s")
        metrics[f"virial.{stage}.self_s"] = (get(f"virial.{stage}", "self_s"), "s")
    metrics.update({
        "bounds.report.total_s": (get("bounds.report", "total_s"), "s"),
        "cli.main.total_s": (get("cli.main", "total_s"), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.bytes_out": (sum(o.bytes_out for o in outcomes), "bytes"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.uncovered_frac": (_ratio(uncovered, request_time), "ratio"),
    })
    return metrics, problems


# -- one run --------------------------------------------------------------------------------


def report(name, seed, outcomes, timed, elapsed, setup_samples, metrics, problems, traced):
    """Readable lines, then the result object as the last line.  `outcomes`
    are all requests of the run, `timed` those of the reported pass."""
    attempted, failed, frac = fail_fraction(outcomes)
    print(f"workload {name}  seed {seed}  {'traced' if traced else 'untraced'}: "
          f"{len(timed)} requests in {elapsed:.2f} s")
    if setup_samples:
        print("setup samples: " + " ".join(f"{x:.3f}" for x in setup_samples) + " s")
    if not traced:
        _, pct, beyond = tail_latency([o.latency for o in timed])
        print(f"req_tail_s is p{pct:.0f} of {len(timed)} requests ({beyond} beyond it)")
    stages: dict = {}
    for o in timed:
        for k, v in o.stages.items():
            stages[k] = stages.get(k, 0.0) + v
    if stages:
        print("stage totals: " + "  ".join(f"{k} {v:.3f} s" for k, v in stages.items()))
    verdicts = [o.verdict for o in timed if o.verdict is not None]
    if verdicts:
        print(f"bound_report verdicts (recorded, not gated): {sum(verdicts)} pass, "
              f"{len(verdicts) - sum(verdicts)} fail")
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.request}: {o.error}")
    for p in problems:
        print(f"SPAN CHECK: {p}")
    for k, (v, unit) in metrics.items():
        print(f"{k:34s} {v:.6g} {unit}")
    print(f"{'fail_frac':34s} {frac:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))


def run_one(args) -> int:
    workload = workloads.make(args.workload)
    try:
        if args.setup_only:
            _, seconds = set_up(workload, args.seed, tracing.NullTracer())
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.trace:
            return traced_run(workload, args)
        samples = [setup_in_fresh_interpreter(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
        _, seconds = set_up(workload, args.seed, tracing.NullTracer())
        samples.append(seconds)
        requests = planned_requests(workload, args.seed, args.seconds)
        outcomes, elapsed = closed_loop(workload, requests, tracing.NullTracer())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.verify(outcomes)
        metrics = end_to_end(outcomes, elapsed, statistics.median(samples), peak_rss_mb)
        report(args.workload, args.seed, outcomes, outcomes, elapsed, samples, metrics, [], False)
        return 0
    finally:
        workload.close()


def traced_run(workload, args) -> int:
    tr = tracing.Tracer()
    vk, _ = set_up(workload, args.seed, tr)
    requests = planned_requests(workload, args.seed, args.seconds)
    plain, plain_s = closed_loop(workload, requests, tracing.NullTracer())
    info = vk.graphs.canonical_coloured_key.cache_info()
    patches = tracing.install(tr, vk)
    try:
        traced, traced_s = closed_loop(workload, requests, tr)
    finally:
        patches.restore()
    after = vk.graphs.canonical_coloured_key.cache_info()
    metrics, problems = per_layer(tr, (after.hits - info.hits, after.misses - info.misses),
                                  traced, traced_s / plain_s - 1.0)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tr.write_jsonl(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    outcomes = plain + traced
    workload.verify(outcomes)
    report(args.workload, args.seed, outcomes, traced, traced_s, [], metrics, problems, True)
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; their reports one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(int(args.trace))], timeout=900)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not prepare_environment():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
