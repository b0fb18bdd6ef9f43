"""Tests of the benchmark's own arithmetic: percentiles, span self times, the
Tonks oracle and failure accounting.  None of them runs the package."""

import json
from fractions import Fraction

import pytest

import run
import tracer
import workloads


@pytest.mark.parametrize("count, index, percentile, beyond", [
    (100, 89, 90.0, 10),
    (25, 14, 60.0, 10),
    (11, 0, 100.0 / 11, 10),
    (5, 0, 20.0, 4),
])
def test_tail_is_highest_percentile_with_ten_beyond(count, index, percentile, beyond):
    latencies = [float(i) for i in reversed(range(count))]
    assert run.tail_latency(latencies) == (float(index), pytest.approx(percentile), beyond)


def test_self_time_of_hand_built_nested_spans():
    root = tracer.Span(0, "request", 0.0, 10.0)
    a = tracer.Span(1, "virial.pressure", 1.0, 4.0, parent=0)
    b = tracer.Span(2, "virial.recursive", 3.0, 6.0, parent=0)  # overlaps a on [3, 4]
    inner = tracer.Span(3, "series.reciprocal", 2.0, 3.0, parent=1)
    leaf = tracer.Leaf("series.mul", 0, None)
    leaf.calls, leaf.seconds = 4, 1.5
    selfs = tracer.self_times([root, a, b, inner], [leaf])
    assert selfs == {0: pytest.approx(10.0 - 5.0 - 1.5), 1: pytest.approx(2.0),
                     2: pytest.approx(3.0), 3: pytest.approx(1.0)}


def test_traced_self_times_add_up_to_the_request():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    with tr.span("request", request=7):          # 0 .. 9
        with tr.span("virial.pressure"):         # 1 .. 4
            tr.leaf("graphs.canonical_key", 1.0)
            with tr.span("series.determinant"):  # 2 .. 3
                pass
        with tr.span("virial.lagrange_good"):    # 5 .. 8
            tr.leaf("series.mul", 2.0, pairs=6, pairs_in_cap=3)
            with tr.span("series.reciprocal"):   # 6 .. 7
                pass
    selfs = tracer.self_times(tr.spans, tr.leaves.values())
    leaf_s = sum(a.seconds for a in tr.leaves.values())
    assert [s.request for s in tr.spans] == [7] * 5
    assert sum(selfs.values()) + leaf_s == pytest.approx(tr.spans[0].duration)
    assert selfs[0] == pytest.approx(9 - 3 - 3)
    assert tr.leaves[(3, "series.mul")].counters == {"pairs": 6, "pairs_in_cap": 3}


def test_tonks_oracle_worked_values():
    sigma = {1: 3, 2: 5}
    assert workloads.tonks_coefficient({1: 1, 2: 1}, sigma) == 3 + 5
    assert workloads.tonks_coefficient({1: 1}, sigma) == 1
    for k in range(1, 7):
        assert workloads.tonks_coefficient({1: k}, {1: 1}) == 1
    # c(e1 + 2 e2) at sigma = (1, 2): 1 * sigma2^2 + 2 * sigma1 sigma2
    assert workloads.tonks_coefficient({1: 1, 2: 2}, {1: 1, 2: 2}) == 8
    assert workloads.tonks_coefficient({1: 0, 2: 3}, {1: 1, 2: Fraction(1, 2)}) == Fraction(1, 4)


class FakeWorkload:
    """Requests are integers; request 2 fails its after-pass check."""

    def cycle(self, seed, index):
        return list(range(4))

    def run(self, req):
        if req == 3:
            raise RuntimeError("fake failure")
        return workloads.Outcome(req, coeffs=10)

    def verify(self, outcomes):
        for o in outcomes:
            if o.request == 2:
                o.error = "forced check failure"


def test_fail_frac_counts_raised_and_failed_checks(capsys):
    fake = FakeWorkload()
    outcomes, elapsed = run.closed_loop(fake, fake.cycle(0, 0), tracer.NullTracer())
    fake.verify(outcomes)
    assert run.fail_fraction(outcomes) == (4, 2, 0.5)
    metrics = run.end_to_end(outcomes, elapsed, setup_s=1.0, peak_rss_mb=1.0)
    assert metrics["coeffs_per_s"][0] == pytest.approx(20 / elapsed)
    run.report("fake", 0, outcomes, outcomes, elapsed, [1.0], metrics, [], False)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 2)
    assert set(result["metrics"]) == {"setup_s", "coeffs_per_s", "req_p50_s", "req_tail_s",
                                      "peak_rss_mb"}


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers, problems = run.per_layer(tracer.Tracer(), (0, 0), [], 0.0)
    assert not problems
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()]
    e2e = run.end_to_end([workloads.Outcome(0, latency=1.0)], 1.0, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_tonks_check_fails_a_fake_mc_result(monkeypatch):
    rods = workloads.RodsWorkload()
    sigma_err = {(0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.1}
    monkeypatch.setattr(rods, "standard_errors", lambda key: sigma_err)
    key = workloads.RodsRequest("kernel", 2, 100, 5).key

    def doc(c11):
        return {"coefficients": [{"n": {"1": 1}, "c": 1}, {"n": {"2": 1}, "c": 1},
                                 {"n": {"1": 1, "2": 1}, "c": c11}]}

    # c(e1 + e2) = sigma_1 + sigma_2 = 3 for the benchmark's rods
    assert rods.check_tonks(key, doc(3.0 + 0.5)) is None
    assert "Tonks" in rods.check_tonks(key, doc(3.0 + 0.7))
    req = workloads.RodsRequest("kernel", 2, 100, 5)
    rods.first_bytes[req.key] = json.dumps(doc(3.7)).encode()
    outcomes = [workloads.Outcome(req), workloads.Outcome(req)]
    rods.verify(outcomes)
    assert run.fail_fraction(outcomes) == (2, 2, 1.0)
