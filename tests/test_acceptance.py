"""Acceptance suite: one test per numbered criterion, each printing a verdict
line (run with ``pytest tests/test_acceptance.py -v -s`` to watch them).

Expected values marked as derived were computed with independent oracles
before the library was built: exhaustive brute-force graph filters, hand and
computer-algebra series reversion, closed-form pair integrals, and nested
quadrature for the three-rod cluster integral.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from virialkit.bounds import (
    check_coefficient_bounds,
    det_bound_constant,
    hypothesis_check,
    make_domain_spec,
)
from virialkit.graphs import dissymmetry_check, enumerate_graphs
from virialkit.series import (
    MPSeries,
    MultiIndex,
    Truncation,
    admissible_indices,
    exp,
    log,
    reciprocal,
    substitute,
)
from virialkit.virial import (
    InversionProblem,
    LagrangeGoodInverter,
    PressureSeries,
    densities,
    functional_inverse,
    invert_recursive,
    mc_pressure_series,
    pressure_from_weights,
    verify_ghost_relation,
    virial_from_two_connected,
)
from virialkit.weights import HardRods1D, KpSpec, McParams, SyntheticBlockModel, kp_check


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


# -- shared corpus of random block-factorizing models -----------------------------

CORPUS_CONFIGS = (
    [(seed, 1, 6) for seed in range(12)]
    + [(seed, 2, 6) for seed in range(12, 18)]
    + [(seed, 2, 5) for seed in range(18, 26)]
    + [(seed, 3, 5) for seed in range(26, 40)]
    + [(seed, 3, 4) for seed in range(40, 50)]
)


@dataclass
class CorpusEntry:
    seed: int
    model: SyntheticBlockModel
    truncation: Truncation
    pressure: PressureSeries
    recursive: MPSeries
    two_connected: MPSeries
    lagrange_good: MPSeries


_corpus: list[CorpusEntry] | None = None


def corpus() -> list[CorpusEntry]:
    global _corpus
    if _corpus is None:
        entries = []
        for seed, species, degree in CORPUS_CONFIGS:
            model = SyntheticBlockModel.random(seed, species)
            t = Truncation(degree, species)
            p = pressure_from_weights(model, t)
            rec = invert_recursive(p).series
            twoc = virial_from_two_connected(model, t).series
            inverter = LagrangeGoodInverter(p)
            lg_terms = {}
            for n in admissible_indices(t, min_degree=1):
                c = inverter.coefficient(n)
                if c != 0:
                    lg_terms[n] = c
            lg = MPSeries(lg_terms, t, p.series.field)
            entries.append(CorpusEntry(seed, model, t, p, rec, twoc, lg))
        _corpus = entries
    return _corpus


def test_criterion_1_three_way_exact_agreement():
    start = time.time()
    entries = corpus()
    agree = all(e.recursive == e.two_connected == e.lagrange_good for e in entries)
    elapsed = time.time() - start
    verdict(1, agree and len(entries) >= 50 and elapsed < 60.0,
            f"recursive = lagrange-good = two-connected on {len(entries)} random "
            f"block-factorizing models, exactly ({elapsed:.1f}s)")


def test_criterion_2_round_trip_identity():
    ok = True
    for e in corpus():
        fam = densities(e.pressure).by_species
        ok &= substitute(e.recursive, fam) == e.pressure.series
    verdict(2, ok, f"substituting the densities into the inverted series "
                   f"reproduces every pressure exactly ({len(corpus())} models)")


def test_criterion_3_worked_instances():
    single = SyntheticBlockModel.from_edge_weights(1, {(1, 1): -2})
    c2 = virial_from_two_connected(single, Truncation(2, 1)).series[
        MultiIndex.single(1, 2)]
    cross = SyntheticBlockModel.from_edge_weights(2, {(1, 2): 1})
    c11 = virial_from_two_connected(cross, Truncation(2, 2)).series[
        MultiIndex({1: 1, 2: 1})]
    verdict(3, c2 == 1 and c11 == -1,
            f"edge weight -2 gives c(2) = {c2}; cross edge weight 1 gives c(1,1) = {c11}")


def test_criterion_4_ghost_relation_through_d5():
    ok = True
    for seed, species, _ in CORPUS_CONFIGS:
        model = SyntheticBlockModel.random(seed, species)
        report = verify_ghost_relation(model, Truncation(5, species))
        ok &= report.passed and report.max_residual == 0
    verdict(4, ok, f"rho_k(z) = z_k exp(dB/drho_k(rho(z))) exactly through "
                   f"degree 5 on all {len(CORPUS_CONFIGS)} models")


# -- graph oracles ------------------------------------------------------------------


def _oracle_counts(n: int) -> tuple[int, int]:
    """Independent brute force: plain adjacency sets, BFS reachability, and
    two-connectivity by vertex deletion.  Shares no code with the library."""

    def reachable(adj, vertices):
        if not vertices:
            return set()
        seen = {min(vertices)}
        frontier = [min(vertices)]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in vertices and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    pairs = list(itertools.combinations(range(1, n + 1), 2))
    connected = two_connected = 0
    for mask in range(1 << len(pairs)):
        adj = {v: set() for v in range(1, n + 1)}
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                adj[i].add(j)
                adj[j].add(i)
        vertices = set(range(1, n + 1))
        if len(reachable(adj, vertices)) != n:
            continue
        connected += 1
        if n >= 2 and all(len(reachable(adj, vertices - {v})) == n - 1
                          for v in vertices):
            two_connected += 1
    return connected, two_connected


def test_criterion_5_graph_counts_match_oracle():
    start = time.time()
    frozen_connected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    frozen_two_connected = {2: 1, 3: 1, 4: 10, 5: 238, 6: 11368}
    ok = True
    for n in range(1, 7):
        got_c = sum(1 for _ in enumerate_graphs(n, "connected"))
        got_t = sum(1 for _ in enumerate_graphs(n, "two_connected"))
        oracle_c, oracle_t = _oracle_counts(n)
        ok &= got_c == oracle_c == frozen_connected[n]
        if n >= 2:
            ok &= got_t == oracle_t == frozen_two_connected[n]
    elapsed = time.time() - start
    verdict(5, ok and elapsed < 120.0,
            f"connected 1,1,4,38,728,26704 and two-connected 1,1,10,238,11368 "
            f"match the independent oracle ({elapsed:.1f}s)")


def test_criterion_6_dissymmetry_identity_exhaustive():
    checked = 0
    ok = True
    for n in range(2, 7):
        for g in enumerate_graphs(n, "connected"):
            lhs, rhs = dissymmetry_check(g)
            ok &= lhs == rhs
            checked += 1
    verdict(6, ok, f"1 + sum|V(g_i)| = n + m on all {checked} connected graphs, n = 2..6")


# -- Tonks gas ----------------------------------------------------------------------


def test_criterion_7_tonks_gas_virial_coefficients():
    # hard rods of length 1 have virial coefficients sigma^(n-1) = 1: c(2) from
    # the closed-form pair integral, c(3) cross-checked against a nested
    # quadrature of the triangle integral before the build (both equal 1)
    start = time.time()
    rods = HardRods1D({1: 1}, 10)
    t = Truncation(3, 1)
    p, errs = mc_pressure_series(rods, McParams(1_000_000, seed=2024), t)
    c = invert_recursive(p).series
    b2 = p.series[MultiIndex.single(1, 2)]
    s2 = errs[MultiIndex.single(1, 2)]
    s3 = errs[MultiIndex.single(1, 3)]
    c2 = float(c[MultiIndex.single(1, 2)])
    c3 = float(c[MultiIndex.single(1, 3)])
    # first-order error propagation through c2 = -b2, c3 = 4 b2^2 - 2 b3
    c2_err = s2
    c3_err = math.sqrt((8 * b2 * s2) ** 2 + (2 * s3) ** 2)
    elapsed = time.time() - start
    ok = abs(c2 - 1.0) <= 3 * c2_err and abs(c3 - 1.0) <= 3 * c3_err and elapsed < 300.0
    verdict(7, ok, f"c(2) = {c2:.4f} +- {c2_err:.4f}, c(3) = {c3:.4f} +- {c3_err:.4f} "
                   f"against 1, 1 at 10^6 samples ({elapsed:.1f}s)")


# -- bound audit --------------------------------------------------------------------


def _admissible_spec_for(entry: CorpusEntry):
    """Find a spec passing the hypothesis check: small radii keep dp/dz_i near
    1, and the budget is set from a first sampling pass with margin."""
    species = range(1, entry.truncation.species + 1)
    probe = make_domain_spec([(i, 0.005, 0.02, 1.0) for i in species])
    first = hypothesis_check(entry.pressure, probe, samples=60, seed=entry.seed)
    budgets = {c.species: 1.2 * c.max_log_abs + 0.05 for c in first.log_checks}
    spec = make_domain_spec([(i, 0.005, 0.02, budgets[i]) for i in species])
    report = hypothesis_check(entry.pressure, spec, samples=60, seed=entry.seed)
    return spec, report


def test_criterion_8_bound_audit_zero_violations():
    # the named instance: p = z - z^2 with spec (r = 1/4, R = 1, a = 0.75)
    p = PressureSeries(MPSeries({MultiIndex.single(1): 1,
                                 MultiIndex.single(1, 2): -1}, Truncation(6, 1)))
    named_spec = make_domain_spec([(1, 0.25, 1.0, 0.75)])
    named = check_coefficient_bounds(p, named_spec, invert_recursive(p))
    ok = named.passed
    audited = 1
    for entry in corpus():
        spec, report = _admissible_spec_for(entry)
        if not report.passed:
            continue  # only models with an admissible spec found are audited
        audit = check_coefficient_bounds(
            entry.pressure, spec,
            virial_from_two_connected(entry.model, entry.truncation))
        ok &= audit.passed
        audited += 1
    verdict(8, ok and audited == len(corpus()) + 1,
            f"|c(n)| <= bound for the worked pressure and {audited - 1} corpus "
            f"models with admissible specs; zero violations")


def test_criterion_9_constant_evaluation():
    worked = det_bound_constant(make_domain_spec([(1, 0.25, 1.0, 1.0)]))
    flat = det_bound_constant(make_domain_spec([(1, 0.25, 1.0, 0.0)]))
    ok = abs(worked - math.exp(1.0 / 3.0)) <= 1e-12 and flat == 1.0
    verdict(9, ok, f"C(1/4, 1, 1) = {worked!r} vs e^(1/3), C(a=0) = {flat}")


def test_criterion_10_kp_checker_discrimination():
    cap = 12
    rods = HardRods1D({k: k for k in range(1, cap + 1)}, 80)
    base = {k: 0.5 * math.exp(-2 * k) for k in range(1, cap + 1)}
    good = kp_check(rods, KpSpec(base, a=1.0, b=0.0), cap, McParams(100))
    bad = kp_check(rods, KpSpec({k: 2.8 * v for k, v in base.items()}, a=1.0, b=0.0),
                   cap, McParams(100))
    # independent evaluation of the failing left side at k = 1
    expected_bad = math.fsum(1.4 * math.exp(-kp) * (1 + kp) for kp in range(1, cap + 1))
    exact = abs(bad.entries[0].lhs - expected_bad) <= 1e-12
    ok = good.passed and (not bad.passed) and (not bad.entries[0].passed) and exact
    verdict(10, ok, f"worked hard-rod spec passes; radii x2.8 fail at k = 1 "
                    f"(lhs = {bad.entries[0].lhs:.4f} > 1)")


# -- series engine algebra --------------------------------------------------------------


def _random_series(rng: random.Random, t: Truncation, constant: str) -> MPSeries:
    pool = [n for n in admissible_indices(t)]
    terms = {}
    for n in rng.sample(pool, k=min(len(pool), rng.randint(1, 5))):
        terms[n] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if constant == "zero":
        terms.pop(MultiIndex(), None)
    elif constant == "one":
        terms[MultiIndex()] = Fraction(1)
    elif constant == "nonzero":
        if not terms.get(MultiIndex()):
            terms[MultiIndex()] = Fraction(rng.randint(1, 5))
    return MPSeries(terms, t)


def test_criterion_11_series_engine_algebra():
    rng = random.Random(20240)
    series_used = 0
    ok = True
    for _ in range(350):
        t = Truncation(rng.randint(2, 8), rng.randint(1, 4))
        a = _random_series(rng, t, "any")
        b = _random_series(rng, t, "any")
        c = _random_series(rng, t, "any")
        series_used += 3
        ok &= (a * b) * c == a * (b * c)
        ok &= a * b == b * a
        i = rng.randint(1, t.species)
        lower = Truncation(t.degree - 1, t.species)
        ok &= ((a * b).diff(i).with_truncation(lower)
               == (a.diff(i) * b + a * b.diff(i)).with_truncation(lower))
        f = _random_series(rng, t, "one")
        g = _random_series(rng, t, "zero")
        h = _random_series(rng, t, "nonzero")
        series_used += 3
        ok &= exp(log(f).series) == f
        ok &= log(exp(g)).series == g
        ok &= h * reciprocal(h) == MPSeries.one(t)
    verdict(11, ok and series_used >= 1000,
            f"exp/log and reciprocal round trips, Leibniz rule, and mul "
            f"commutativity/associativity exact on {series_used} random sparse series")


def test_criterion_12_functional_inversion_round_trip():
    rng = random.Random(77)
    problems = 0
    ok = True
    for _ in range(20):
        species = rng.randint(1, 3)
        t = Truncation(rng.randint(2, 5), species)
        F = {}
        for k in range(1, species + 1):
            terms = {MultiIndex(): Fraction(rng.randint(1, 5))}
            for n in admissible_indices(t, min_degree=1):
                if rng.random() < 0.35:
                    terms[n] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            F[k] = MPSeries(terms, t)
        problem = InversionProblem(F, t)
        w = {k: s.with_truncation(t) for k, s in functional_inverse(problem).items()}
        for k in range(1, species + 1):
            ok &= w[k] * substitute(F[k], w) == MPSeries.variable(k, t)
        problems += 1
    verdict(12, ok and problems == 20,
            f"w_k F_k(w(u)) = u_k exactly on {problems} random inversion problems")
