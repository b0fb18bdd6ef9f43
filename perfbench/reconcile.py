"""Reproduce the ROADMAP corpus baseline from a cold interpreter.

    python3 perfbench/reconcile.py

Runs the acceptance criterion-1 corpus once, in its order and with its model
seeds (the same models as tests/test_acceptance.py), through the
exact-corpus request pipeline with no warm-up, and prints the graph
precompute time and the per-stage totals next to the baseline the ROADMAP
records.  Run it a few times to see the spread; each run is a fresh process,
so lazy tables are built inside the pressure stage as in the test.
"""

from __future__ import annotations

import sys
from time import perf_counter

import run
import workloads

CRITERION_1 = ([(seed, 1, 6) for seed in range(12)] + [(seed, 2, 6) for seed in range(12, 18)]
               + [(seed, 2, 5) for seed in range(18, 26)] + [(seed, 3, 5) for seed in range(26, 40)]
               + [(seed, 3, 4) for seed in range(40, 50)])
# ROADMAP "Open items" baseline, seconds.
BASELINE = {"pressure": 10.6, "recursive": 1.4, "two_connected": 2.1, "lagrange_good": 19.8}
BASELINE_GRAPHS_S = 2.9
BASELINE_TOTAL_S = 33.8


def main() -> int:
    if not run.prepare_environment():
        return 2
    vk = run.Package()
    start = perf_counter()
    run.precompute_graphs(vk, 6, run.tracing.NullTracer())
    graphs_s = perf_counter() - start
    workload = workloads.make("exact-corpus")
    workload.open(vk, run.OUT_DIR)
    stages = dict.fromkeys(workloads.STAGES, 0.0)
    failed = 0
    for seed, species, degree in CRITERION_1:
        outcome = workload.run(workloads.ModelRequest(species, degree, seed))
        failed += not outcome.ok
        for k, v in outcome.stages.items():
            stages[k] += v
    total = sum(stages[k] for k in BASELINE)
    print(f"{'graph precompute':16s} {graphs_s:7.2f} s   baseline {BASELINE_GRAPHS_S:5.1f} s")
    for k, base in BASELINE.items():
        print(f"{k:16s} {stages[k]:7.2f} s   baseline {base:5.1f} s   "
              f"share {stages[k] / total:5.1%} (baseline {base / BASELINE_TOTAL_S:5.1%})")
    print(f"{'corpus total':16s} {total:7.2f} s   baseline {BASELINE_TOTAL_S:5.1f} s")
    print(f"not in the baseline: equality {stages['equality']:.2f} s, "
          f"bound reports {stages['bounds']:.2f} s; {failed} of {len(CRITERION_1)} requests failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
