import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from virialkit import graphs as graphs_mod
from virialkit import virial, weights
from virialkit.graphs import (
    ColouredGraph,
    Graph,
    _adjacency,
    _split_blocks,
    canonical_colouring,
    canonical_coloured_key,
    connected_graph_list,
    two_connected_graph_list,
)
from virialkit.series import (
    MPSeries,
    MultiIndex,
    SeriesMatrix,
    Truncation,
    _add_into,
    admissible_indices,
    coefficient_of_product,
    determinant,
    log,
    reciprocal,
    substitute,
)
from virialkit.virial import (
    InversionProblem,
    LagrangeGoodInverter,
    PressureSeries,
    chemical_potential,
    densities,
    functional_inverse,
    invert_functional,
    invert_lagrange_good,
    invert_recursive,
    mc_pressure_series,
    pressure_from_weights,
    two_connected_gf,
    verify_ghost_relation,
    virial_from_two_connected,
    virial_inversion_problem,
)
from virialkit.weights import (
    CustomPairPotential,
    HardRods1D,
    McParams,
    McWeightSource,
    SyntheticBlockModel,
    synthetic_weight,
    weight_mc,
)


def e(*exps):
    return MultiIndex.from_exponents(exps)


def hand_pressure(terms, degree, species):
    return PressureSeries(MPSeries(terms, Truncation(degree, species)))


EDGE_M2 = SyntheticBlockModel.from_edge_weights(1, {(1, 1): -2})
CROSS_1 = SyntheticBlockModel.from_edge_weights(2, {(1, 2): 1})
IDEAL_2 = SyntheticBlockModel.from_edge_weights(2, {})


# -- pressure from weights -------------------------------------------------------


def test_pressure_ideal_gas():
    p = pressure_from_weights(IDEAL_2, Truncation(3, 2))
    assert p.series == MPSeries({e(1): 1, e(0, 1): 1}, Truncation(3, 2))


def test_pressure_single_species_edge_weight():
    p = pressure_from_weights(EDGE_M2, Truncation(2, 1))
    assert p.series == MPSeries({e(1): 1, e(2): -1}, Truncation(2, 1))


def test_pressure_two_species_cross_edge():
    p = pressure_from_weights(CROSS_1, Truncation(2, 2))
    assert p.series == MPSeries({e(1): 1, e(0, 1): 1, e(1, 1): 1}, Truncation(2, 2))


def test_pressure_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        PressureSeries(MPSeries.one(Truncation(2, 1)))


# -- class tables of the weight sums ---------------------------------------------------


MODEL_A = SyntheticBlockModel.random(101, 3)
MODEL_B = SyntheticBlockModel.random(202, 3)

# every canonical colouring on m <= 5 vertices over species 1..3, then 1^6 and 1^3 2^3
TABLE_COLOURINGS = [canonical_colouring(n)
                    for n in admissible_indices(Truncation(5, 3), min_degree=1)]
TABLE_COLOURINGS += [(1,) * 6, (1, 1, 1, 2, 2, 2)]


@lru_cache(maxsize=None)
def brute_connected_sum(model, colours):
    """The oracle: block-decompose every labelled connected graph."""
    return sum(synthetic_weight(ColouredGraph(Graph(len(colours), mask), colours), model)
               for mask in connected_graph_list(len(colours)).tolist())


@lru_cache(maxsize=None)
def brute_two_connected_sum(model, colours):
    return sum(synthetic_weight(ColouredGraph(Graph(len(colours), mask), colours), model)
               for mask in two_connected_graph_list(len(colours)).tolist())


def test_connected_class_table_matches_brute_force():
    for colours in TABLE_COLOURINGS:
        total = MODEL_B.connected_sums([(len(colours), colours)])[0][0]
        assert type(total) is Fraction
        assert total == brute_connected_sum(MODEL_B, colours), colours


def test_two_connected_class_table_matches_brute_force():
    for colours in TABLE_COLOURINGS:
        if len(colours) < 2:
            continue
        total = MODEL_B.two_connected_sums([(len(colours), colours)])[0][0]
        assert type(total) is Fraction
        assert total == brute_two_connected_sum(MODEL_B, colours), colours


def test_class_table_sums_on_a_second_model_match_brute_force():
    # the integer products and per-denominator sums against the Fraction
    # products of the graph-by-graph oracle, through degree 5
    for colours in TABLE_COLOURINGS:
        if len(colours) > 5:
            continue
        m = len(colours)
        assert MODEL_A.connected_sums([(m, colours)])[0][0] == \
            brute_connected_sum(MODEL_A, colours), colours
        if m >= 2:
            assert MODEL_A.two_connected_sums([(m, colours)])[0][0] == \
                brute_two_connected_sum(MODEL_A, colours), colours


# the connected table holds the graphs of two or more blocks: 728 - 238 = 490
# of the connected graphs on five vertices, 26 704 - 11 368 on six
@pytest.mark.parametrize("colours,graphs,classes", [
    ((1, 1, 1, 1, 1), (490, 238), (6, 10)),
    ((1, 1, 2, 2, 3), (490, 238), (112, 80)),
    ((1,) * 6, (15336, 11368), (19, 56)),
    ((1, 1, 1, 2, 2, 2), (15336, 11368), (263, 473)),
])
def test_class_table_multiplicities_count_the_labelled_graphs(colours, graphs, classes):
    m = len(colours)
    _, rows = graphs_mod._connected_block_classes(m, colours)
    _, counts = graphs_mod._two_connected_classes(m, colours)
    assert (sum(count for _, count in rows), sum(counts)) == graphs
    assert (len(rows), len(counts)) == classes


@lru_cache(maxsize=None)
def split_block_profiles(m):
    """(vertices, relabelled mask) per block of every connected graph on
    {1..m}, split graph by graph; the single vertex has no blocks."""
    if m == 1:
        return ((),)
    return tuple(_split_blocks(m, _adjacency(m, mask))[0]
                 for mask in connected_graph_list(m).tolist())


def walked_connected_classes(m, colours):
    """The oracle: one canonical_coloured_key per block of every connected
    graph, split without the block table."""
    return Counter(tuple(sorted(
        canonical_coloured_key(len(verts), mask, tuple(colours[v - 1] for v in verts))
        for verts, mask in profile)) for profile in split_block_profiles(m))


def walked_two_connected_classes(m, colours):
    return Counter(canonical_coloured_key(m, mask, colours)
                   for mask in two_connected_graph_list(m).tolist())


def connected_classes(m, colours):
    """The connected table as (sorted canonical block keys, count) pairs, each
    row's keys read through its key indices."""
    keys, rows = graphs_mod._connected_block_classes(m, colours)
    return [(tuple(sorted(keys[i] for i in indices)), count) for indices, count in rows]


def two_connected_classes(m, colours):
    """The two-connected table as (canonical key, count) pairs, in its order."""
    return list(zip(*graphs_mod._two_connected_classes(m, colours)))


def is_plain_key(key):
    """(int, tuple of int, int), built from Python ints only: the random
    fallback weight is drawn from repr((seed, key))."""
    size, colours, mask = key
    return (type(size) is int and type(colours) is tuple
            and all(type(c) is int for c in colours) and type(mask) is int)


def test_class_tables_equal_the_key_walk():
    # (1, 2, 3, 4, 5, 6) has 12 981 distinct block keys and 26 704 classes,
    # 15 336 of two or more blocks
    for colours in TABLE_COLOURINGS + [(1, 2, 3, 4, 5, 6)]:
        m = len(colours)
        keys, rows = graphs_mod._connected_block_classes(m, colours)
        # each key once, every key in some row, each row's indices ascending
        assert len(set(keys)) == len(keys) == len({i for indices, _ in rows for i in indices})
        assert all(type(indices) is tuple and list(indices) == sorted(indices)
                   for indices, _ in rows)
        keys, counts = graphs_mod._two_connected_classes(m, colours)
        assert type(keys) is tuple and type(counts) is tuple and len(keys) == len(counts)
        connected, two_connected = connected_classes(m, colours), two_connected_classes(m, colours)
        assert len(connected) == len(set(keys for keys, _ in connected))
        one_block = Counter({(key,): count for key, count in two_connected})
        assert Counter(dict(connected)) + one_block == walked_connected_classes(m, colours), \
            colours
        assert len(two_connected) == len(set(key for key, _ in two_connected))
        assert Counter(dict(two_connected)) == walked_two_connected_classes(m, colours), colours
        assert all(type(keys) is tuple and all(map(is_plain_key, keys)) and type(count) is int
                   for keys, count in connected)
        assert all(is_plain_key(key) and type(count) is int for key, count in two_connected)
    assert len(graphs_mod._connected_block_classes(6, (1, 2, 3, 4, 5, 6))[1]) == 15336


def test_class_tables_partition_the_connected_graphs():
    # every connected graph sits in exactly one table: two or more blocks in
    # the connected table, one block in the two-connected table
    for colours in TABLE_COLOURINGS + [(1, 1, 2, 2, 3, 3)]:
        m = len(colours)
        connected, two_connected = connected_classes(m, colours), two_connected_classes(m, colours)
        if m >= 2:
            assert all(len(keys) >= 2 for keys, _ in connected), colours
        one_block = Counter({(key,): count for key, count in two_connected})
        assert not set(dict(connected)) & set(one_block), colours
        assert Counter(dict(connected)) + one_block == walked_connected_classes(m, colours), \
            colours
        assert sum(count for _, count in connected + two_connected) == \
            len(connected_graph_list(m)), colours


def test_class_tables_are_model_independent():
    graphs_mod._connected_block_classes.cache_clear()
    graphs_mod._two_connected_classes.cache_clear()
    for colours in ((1, 1, 2, 2, 3), (1, 1, 1, 2, 2, 2)):
        m = len(colours)
        MODEL_A.connected_sums([(m, colours)])[0][0]
        MODEL_A.two_connected_sums([(m, colours)])[0][0]
        filled = (graphs_mod._connected_block_classes.cache_info().currsize,
                  graphs_mod._two_connected_classes.cache_info().currsize)
        assert MODEL_B.connected_sums([(m, colours)])[0][0] == \
            brute_connected_sum(MODEL_B, colours)
        assert MODEL_B.two_connected_sums([(m, colours)])[0][0] == \
            brute_two_connected_sum(MODEL_B, colours)
        assert (graphs_mod._connected_block_classes.cache_info().currsize,
                graphs_mod._two_connected_classes.cache_info().currsize) == filled


def test_weight_sums_refuse_degrees_above_the_cap():
    cap = virial.MAX_WEIGHT_SUM_VERTICES
    assert cap == 6
    t = Truncation(cap + 1, 1)
    built = connected_graph_list.cache_info().currsize, \
        two_connected_graph_list.cache_info().currsize
    rods = HardRods1D({1: 1}, 10)
    calls = [lambda: pressure_from_weights(EDGE_M2, t),
             lambda: pressure_from_weights(McWeightSource(rods, McParams(10, seed=1)), t),
             lambda: mc_pressure_series(rods, McParams(10, seed=1), t),
             lambda: virial_from_two_connected(EDGE_M2, t),
             lambda: two_connected_gf(EDGE_M2, t),
             lambda: chemical_potential(EDGE_M2, t, 1)]
    for call in calls:
        with pytest.raises(ValueError, match=f"degree {cap}"):
            call()
    assert (connected_graph_list.cache_info().currsize,
            two_connected_graph_list.cache_info().currsize) == built


# -- densities ---------------------------------------------------------------------


def test_densities_examples():
    t = Truncation(2, 1)
    p = hand_pressure({e(1): 1}, 2, 1)
    assert densities(p).by_species[1] == MPSeries({e(1): 1}, t)
    p = hand_pressure({e(1): 1, e(2): 1}, 2, 1)
    assert densities(p).by_species[1] == MPSeries({e(1): 1, e(2): 2}, t)
    p = hand_pressure({e(1): 1, e(0, 1): 1, e(1, 1): 1}, 2, 2)
    fam = densities(p).by_species
    assert fam[1] == MPSeries({e(1): 1, e(1, 1): 1}, Truncation(2, 2))
    assert fam[2] == MPSeries({e(0, 1): 1, e(1, 1): 1}, Truncation(2, 2))


# -- recursive inversion -------------------------------------------------------------


def test_invert_recursive_ideal_gas():
    p = hand_pressure({e(1): 1}, 4, 1)
    v = invert_recursive(p)
    assert v.method == "recursive"
    assert v.series == MPSeries({e(1): 1}, Truncation(4, 1))


def test_invert_recursive_hand_example():
    p = hand_pressure({e(1): 1, e(2): 1}, 3, 1)
    v = invert_recursive(p)
    assert v.series == MPSeries({e(1): 1, e(2): -1, e(3): 4}, Truncation(3, 1))


def test_invert_recursive_two_species():
    p = hand_pressure({e(1): 1, e(0, 1): 1, e(1, 1): 1}, 2, 2)
    v = invert_recursive(p)
    assert v.series == MPSeries({e(1): 1, e(0, 1): 1, e(1, 1): -1}, Truncation(2, 2))


def test_invert_recursive_needs_nonzero_linear_coefficients():
    # species 2 appears only in the cross term: not invertible
    p = hand_pressure({e(1): 1, e(1, 1): 1}, 2, 2)
    with pytest.raises(ValueError):
        invert_recursive(p)


def test_single_species_inversion_identities():
    # c(2) = -b2 and c(3) = 4 b2^2 - 2 b3 for arbitrary b2, b3 with b1 = 1
    rng = random.Random(0)
    for _ in range(20):
        b2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b3 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = hand_pressure({e(1): 1, e(2): b2, e(3): b3}, 3, 1)
        v = invert_recursive(p)
        assert v.series[e(2)] == -b2
        assert v.series[e(3)] == 4 * b2 * b2 - 2 * b3


def test_invert_recursive_unnormalized_linear_coefficient():
    # b(e_1) = 2 is fine: only b(e_1) != 0 is required
    p = hand_pressure({e(1): 2, e(2): 1}, 2, 1)
    v = invert_recursive(p)
    assert v.series[e(1)] == 1
    assert v.series[e(2)] == Fraction(-1, 4)
    lg = invert_lagrange_good(p, e(2))
    assert lg == Fraction(-1, 4)


def fraction_recursive(p: PressureSeries) -> MPSeries:
    """The recursive route as one Fraction per operation: the active species
    read off the `terms` view, c(n) = (b(n) - done) / diagonal with a Fraction
    diagonal for every n, and c(n) rho^n built and added for every n, |n| = D
    included.  The loop the integer route replaced, kept as its oracle."""
    series = p.series
    t = series.truncation
    active = set()
    for n in series.terms:
        active.update(n.species)
    b1 = {i: series[MultiIndex.single(i)] for i in active}
    fam = densities(p).by_species
    powers = {}

    def rho_power(s: int, e: int) -> MPSeries:
        if (s, e) not in powers:
            powers[s, e] = MPSeries.one(t) if e == 0 else rho_power(s, e - 1) * fam[s]
        return powers[s, e]

    monomials = {0: MPSeries.one(t)}

    def rho_monomial(key: int) -> MPSeries:
        if key not in monomials:
            *_, (s, e) = t.unpack(key).items()
            monomials[key] = rho_monomial(key - e * t._steps[s - 1]) * rho_power(s, e)
        return monomials[key]

    running, den = {}, 1
    coeffs = {}
    for n in admissible_indices(t, min_degree=1):
        if not set(n.species) <= active:
            continue
        diagonal = Fraction(1)
        for s, e in n.items():
            diagonal *= b1[s] ** e
        key = t.pack(n)
        c = (series._coefficient(key) - Fraction(running.get(key, 0), den)) / diagonal
        if c != 0:
            coeffs[n] = c
            term = rho_monomial(key).scaled(c)
            den = _add_into(running, den, term._terms, term._den)
    return MPSeries(coeffs, t)


@lru_cache(maxsize=None)
def oracle_pressures() -> tuple[PressureSeries, ...]:
    """Pressures with b(e_k) = 1, b(e_k) != 1, b(e_k) < 0, an inactive
    species, c(n) that cancel to 0, and Monte Carlo floats."""
    out = [pressure_from_weights(SyntheticBlockModel.random(s + d, s), Truncation(d, s))
           for s, d in ((1, 6), (2, 6), (3, 5), (4, 3), (6, 2))]
    out.append(pressure_from_weights(McWeightSource(ROD_MIXTURE, McParams(2000, seed=3)),
                                     Truncation(4, 2)))
    rng = random.Random(32)
    for degree, species, b1 in ((4, 2, (2, Fraction(5, 3))), (3, 3, (-3, 1, Fraction(-1, 2))),
                                (3, 4, (1, 2, None, -1))):
        t = Truncation(degree, species)
        live = {k for k, b in enumerate(b1, start=1) if b is not None}
        terms = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for n in admissible_indices(t, min_degree=2) if set(n.species) <= live}
        terms.update({MultiIndex.single(k): b for k, b in enumerate(b1, start=1) if b is not None})
        out.append(PressureSeries(MPSeries(terms, t)))
    # c(3) = 4 b2^2 - 2 b3 = 0 and the ideal mixture's c(n) = 0 for |n| >= 2
    out.append(hand_pressure({e(1): 1, e(2): 1, e(3): 2, e(4): Fraction(1, 3)}, 5, 1))
    out.append(hand_pressure({e(1): 1, e(0, 0, 1): -2}, 4, 3))
    return tuple(out)


@pytest.mark.parametrize("case", range(11))
def test_integer_recursive_route_equals_the_fraction_loop(case):
    p = oracle_pressures()[case]
    got, want = invert_recursive(p).series, fraction_recursive(p)
    assert got == want
    assert got._den > 0 and all(type(c) is Fraction for c in got.terms.values())


def test_recursive_route_keeps_cancelled_and_inactive_coefficients_out():
    p = hand_pressure({e(1): 1, e(2): 1, e(3): 2, e(4): Fraction(1, 3)}, 5, 1)
    c = invert_recursive(p).series
    assert c[e(2)] == -1 and c[e(3)] == 0 and c[e(4)] != 0
    assert invert_recursive(hand_pressure({e(1): 1, e(0, 0, 1): -2}, 4, 3)).series == \
        MPSeries({e(1): 1, e(0, 0, 1): 1}, Truncation(4, 3))


# -- Lagrange-Good --------------------------------------------------------------------


def test_lagrange_good_examples():
    p = hand_pressure({e(1): 1}, 2, 1)
    assert invert_lagrange_good(p, e(1)) == 1
    p = hand_pressure({e(1): 1, e(2): 1}, 3, 1)
    assert invert_lagrange_good(p, e(2)) == -1
    assert invert_lagrange_good(p, e(3)) == 4
    p = hand_pressure({e(1): 1, e(0, 1): 1, e(1, 1): 1}, 2, 2)
    assert invert_lagrange_good(p, e(1, 1)) == -1


def test_lagrange_good_rejects_zero_linear_coefficient():
    p = hand_pressure({e(1): 1, e(1, 1): 1}, 2, 2)
    with pytest.raises(ValueError):
        invert_lagrange_good(p, e(1, 1))


def test_lagrange_good_matches_recursive_on_random_pressures():
    rng = random.Random(42)
    t = Truncation(4, 2)
    for _ in range(10):
        terms = {e(1): 1, e(0, 1): 1}
        for n in admissible_indices(t, min_degree=2):
            if rng.random() < 0.6:
                terms[n] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = PressureSeries(MPSeries(terms, t))
        rec = invert_recursive(p)
        inv = LagrangeGoodInverter(p)
        for n in admissible_indices(t, min_degree=1):
            assert inv.coefficient(n) == rec.series[n]


def test_lagrange_good_matrix_runs_over_species_up_to_the_top_one():
    # b(e_2) = 0 makes species 2 non-invertible, but M only runs over species
    # 1..N with N the largest species in n, so every n on species 1 works and
    # depends on p(z1, 0) alone
    terms = {e(1): 1, e(2): Fraction(1, 2), e(3): -2, e(1, 1): 3, e(0, 2): 1, e(2, 1): 1}
    p = hand_pressure(terms, 3, 2)
    only_1 = hand_pressure({n: c for n, c in terms.items() if n.species == (1,)}, 3, 2)
    rec = invert_recursive(only_1)
    inv = LagrangeGoodInverter(p)
    for k in range(4):
        assert inv.coefficient(e(k)) == rec.series[e(k)]
    with pytest.raises(ValueError):
        inv.coefficient(e(1, 1))
    # the refused growth to species 2 left the inverter usable on species 1
    assert inv.coefficient(e(3)) == rec.series[e(3)]


def test_lagrange_good_eight_species():
    rng = random.Random(8)
    t = Truncation(2, 8)
    terms = {MultiIndex.single(k): 1 for k in range(1, 9)}
    for n in admissible_indices(t, min_degree=2):
        if rng.random() < 0.6:
            terms[n] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    p = PressureSeries(MPSeries(terms, t))
    rec = invert_recursive(p)
    inv = LagrangeGoodInverter(p)
    for n in admissible_indices(t, min_degree=1):
        assert inv.coefficient(n) == rec.series[n]


def dense_pressure(seed: int, degree: int, species: int) -> PressureSeries:
    """Every term nonzero with probability about 12/13, b(e_k) from {-3, 1, 2, 5} / {1, 2, 3}."""
    rng = random.Random(seed)
    t = Truncation(degree, species)
    terms = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for n in admissible_indices(t, min_degree=2)}
    terms.update({MultiIndex.single(k): Fraction(rng.choice((-3, 1, 2, 5)), rng.randint(1, 3))
                  for k in range(1, species + 1)})
    return PressureSeries(MPSeries(terms, t))


def test_recursive_and_lagrange_good_agree_at_24_species_and_at_degree_5_over_8():
    # shapes the all-pairs product loop took seconds on: (24, 3) on 60
    # indices whose top species is within MAX_DETERMINANT_DIM, and (8, 5)
    # on every index
    p = dense_pressure(24, 3, 24)
    t = p.series.truncation
    rec, inv = invert_recursive(p).series, LagrangeGoodInverter(p)
    reachable = [n for n in admissible_indices(t, min_degree=1) if n.species[-1] <= 12]
    for n in sorted(random.Random(3).sample(reachable, 60), key=t.pack):
        assert inv.coefficient(n) == rec[n], n
    p = dense_pressure(8, 5, 8)
    rec, inv = invert_recursive(p).series, LagrangeGoodInverter(p)
    for n in admissible_indices(p.series.truncation, min_degree=1):
        assert inv.coefficient(n) == rec[n], n


@pytest.mark.parametrize("degree, species", [(6, 2), (4, 3), (4, 4)])
def test_grown_lagrange_good_inverter_is_bit_exact(degree, species):
    # one inverter holds A = p det M_N for the largest top species N asked so
    # far; by block triangularity its [z^n] equals, bit for bit, what a fresh
    # inverter reads from the determinant over species 1..top(n), both when
    # e_S comes first (graded-lex order) and when A grows one species at a time
    rng = random.Random(10 * degree + species)
    t = Truncation(degree, species)
    indices = list(admissible_indices(t, min_degree=1))
    terms = {n: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for n in indices}
    terms.update({MultiIndex.single(k): Fraction(rng.randint(1, 8), 4)
                  for k in range(1, species + 1)})
    p = PressureSeries(MPSeries(terms, t))
    fresh = {n: invert_lagrange_good(p, n) for n in indices}
    species_1_first = sorted(indices, key=lambda n: n.species[-1])
    for order in (indices, species_1_first):
        inv = LagrangeGoodInverter(p)
        for n in order + indices:
            assert inv.coefficient(n) == fresh[n], n


def full_degree_lagrange_good(p: PressureSeries):
    """c(n) by Lagrange-Good with every factor built through the full degree D
    over all species: the set-up the inverter cuts at D - 1, as an oracle."""
    series, t = p.series, p.series.truncation
    species = range(1, t.species + 1)
    dp = [series.diff(i) for i in species]
    recip = [reciprocal(d) for d in dp]
    rows = [[dp[i - 1].diff(j).mul_var(i) * recip[i - 1] for j in species] for i in species]
    for i, row in enumerate(rows):
        row[i] = MPSeries.one(t) + row[i]
    a = series * determinant(SeriesMatrix(rows, t))
    return lambda n: coefficient_of_product(
        [a] + [recip[i - 1] for i, e in n.items() for _ in range(e)], n)


@pytest.mark.parametrize("species, degree",
                         [(1, 6), (2, 6), (3, 5), (4, 3), (6, 2), (7, 2), (10, 3)])
def test_lagrange_good_set_up_cut_at_d_minus_1_equals_the_full_degree_one(species, degree):
    t = Truncation(degree, species)
    p = pressure_from_weights(SyntheticBlockModel.random(species + degree, species), t)
    oracle, inv = full_degree_lagrange_good(p), LagrangeGoodInverter(p)
    for n in admissible_indices(t, min_degree=1):
        assert inv.coefficient(n) == oracle(n), n


def test_lagrange_good_cut_set_up_on_hand_built_and_mc_pressures():
    # degree 1, where the set-up is cut to constants; b(e_i) != 1, so dp/dz_i
    # has a constant term other than 1; and a Monte Carlo rod pressure
    rng = random.Random(31)
    pressures = [pressure_from_weights(McWeightSource(ROD_MIXTURE, McParams(2000, seed=31)),
                                       Truncation(4, 2))]
    for degree, species in ((1, 3), (4, 2), (3, 3)):
        t = Truncation(degree, species)
        terms = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for n in admissible_indices(t, min_degree=2)}
        terms.update({MultiIndex.single(k): Fraction(rng.choice((-3, 2, 5)), rng.randint(1, 4))
                      for k in range(1, species + 1)})
        pressures.append(PressureSeries(MPSeries(terms, t)))
    for p in pressures:
        oracle, inv = full_degree_lagrange_good(p), LagrangeGoodInverter(p)
        rec = invert_recursive(p).series
        for n in admissible_indices(p.series.truncation, min_degree=1):
            assert inv.coefficient(n) == oracle(n) == rec[n], n


def matrix_det_m(p: PressureSeries) -> MPSeries:
    """det M through degree D - 1 from the S x S matrix M = I + N of series,
    N_ij = z_i H_ij / (dp/dz_i), expanded over column-bitmask minors: the
    set-up the sum over principal Hessian minors replaced, as an oracle."""
    series, t = p.series, p.series.truncation
    cut, species = max(t.degree - 1, 0), range(1, t.species + 1)
    dp = [series.diff(i) for i in species]
    recip = [reciprocal(d, cut) for d in dp]
    rows = [[dp[i - 1].diff(j).mul_var(i)._product(recip[i - 1], t._cut(cut)) for j in species]
            for i in species]
    for i, row in enumerate(rows):
        row[i] = MPSeries.one(t) + row[i]
    return determinant(SeriesMatrix(rows, t), cut)


def random_terms_pressure(seed, degree, species, b1, live=None):
    """Random rational b(n) at |n| >= 2 over the species in `live` (default
    all), and b(e_k) = b1[k - 1]."""
    rng = random.Random(seed)
    t = Truncation(degree, species)
    live = set(range(1, species + 1)) if live is None else set(live)
    terms = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for n in admissible_indices(t, min_degree=2) if set(n.species) <= live}
    terms.update({MultiIndex.single(k): b for k, b in enumerate(b1, start=1)})
    return PressureSeries(MPSeries(terms, t))


DET_M_CASES = {
    **{f"random-{s}-{d}": (lambda s=s, d=d: pressure_from_weights(
        SyntheticBlockModel.random(s + d, s), Truncation(d, s)))
       for s, d in ((1, 6), (2, 6), (3, 5), (4, 3), (7, 2), (12, 3))},
    "mc-rods-4-2": lambda: pressure_from_weights(
        McWeightSource(ROD_MIXTURE, McParams(2000, seed=35)), Truncation(4, 2)),
    "b1-not-one-4-2": lambda: random_terms_pressure(1, 4, 2, (2, Fraction(5, 3))),
    "b1-negative-3-3": lambda: random_terms_pressure(2, 3, 3, (-3, 1, Fraction(-1, 2))),
    # species 2 enters only through b(e_2), so its Hessian row and column vanish
    "inactive-species-4-3": lambda: random_terms_pressure(3, 4, 3, (1, 1, -2), live=(1, 3)),
    "degree-1-3": lambda: random_terms_pressure(4, 1, 3, (1, 3, Fraction(-2, 5))),
}


@pytest.mark.parametrize("case", DET_M_CASES)
def test_principal_minor_det_m_equals_the_matrix_oracle(case):
    p = DET_M_CASES[case]()
    t = p.series.truncation
    inv = LagrangeGoodInverter(p)
    inv.coefficient(MultiIndex.single(t.species))  # A and the reciprocals over every species
    want = matrix_det_m(p)
    dp = [p.series.diff(i) for i in range(1, t.species + 1)]
    assert virial._det_m(dp, inv._recip, t, max(t.degree - 1, 0)) == want
    assert inv._a == p.series * want


def test_lagrange_good_grown_by_a_rising_top_species_reuses_its_cut_reciprocals():
    t = Truncation(4, 3)
    p = pressure_from_weights(SyntheticBlockModel.random(5, 3), t)
    oracle, inv = full_degree_lagrange_good(p), LagrangeGoodInverter(p)
    kept = []
    for top in (1, 2, 3):
        for n in admissible_indices(t, min_degree=1):
            if n.species[-1] == top:
                assert inv.coefficient(n) == oracle(n), n
        assert len(inv._recip) == top and all(a is b for a, b in zip(inv._recip, kept))
        kept = list(inv._recip)


# -- two-connected route ---------------------------------------------------------------


def test_two_connected_worked_instances():
    v = virial_from_two_connected(EDGE_M2, Truncation(2, 1))
    assert v.series[e(2)] == 1
    assert v.method == "two_connected"
    v = virial_from_two_connected(CROSS_1, Truncation(2, 2))
    assert v.series[e(1, 1)] == -1
    assert v.series[e(1)] == 1 and v.series[e(0, 1)] == 1


def test_two_connected_tonks_second_virial_from_exact_pair_integral():
    from virialkit.weights import pair_integral_exact
    rods = HardRods1D({1: 1}, 10)
    model = SyntheticBlockModel.from_edge_weights(1, {(1, 1): pair_integral_exact(rods, 1, 1)})
    v = virial_from_two_connected(model, Truncation(2, 1))
    assert v.series[e(2)] == 1  # the known hard-rod value: sigma


def test_two_connected_requires_block_factorizing_source():
    class NotFactorizing:
        block_factorizing = False

    with pytest.raises(ValueError):
        virial_from_two_connected(NotFactorizing(), Truncation(2, 1))


def test_two_connected_gf_examples():
    assert two_connected_gf(EDGE_M2, Truncation(2, 1)).series == \
        MPSeries({e(2): -1}, Truncation(2, 1))
    assert two_connected_gf(IDEAL_2, Truncation(3, 2)).series.is_zero()
    assert two_connected_gf(CROSS_1, Truncation(2, 2)).series == \
        MPSeries({e(1, 1): 1}, Truncation(2, 2))


def test_chemical_potential_examples():
    assert chemical_potential(IDEAL_2, Truncation(3, 2), 1).is_zero()
    assert chemical_potential(EDGE_M2, Truncation(2, 1), 1) == \
        MPSeries({e(1): 2}, Truncation(2, 1))
    assert chemical_potential(CROSS_1, Truncation(2, 2), 1) == \
        MPSeries({e(0, 1): -1}, Truncation(2, 2))


# -- ghost relation ----------------------------------------------------------------------


def test_ghost_relation_ideal_gas():
    report = verify_ghost_relation(IDEAL_2, Truncation(3, 2))
    assert report.passed and report.max_residual == 0


def test_ghost_relation_single_species_through_d5():
    report = verify_ghost_relation(EDGE_M2, Truncation(5, 1))
    assert report.passed


def test_ghost_relation_two_species_through_d4():
    report = verify_ghost_relation(CROSS_1, Truncation(4, 2))
    assert report.passed


def test_ghost_relation_random_models():
    for seed in range(5):
        model = SyntheticBlockModel.random(seed, 2)
        assert verify_ghost_relation(model, Truncation(4, 2)).passed


def test_ghost_relation_runs_on_a_monte_carlo_source_and_fails_by_sampling():
    # both sides are exact functions of independent estimates, so they differ
    source = McWeightSource(HardRods1D({1: 1}, 10), McParams(2000, seed=3))
    report = verify_ghost_relation(source, Truncation(3, 1))
    assert not report.passed and report.per_species == {1: False}
    assert report.max_residual > 0


# -- three-way agreement and round trip -----------------------------------------------------


def test_three_way_agreement_small_random_models():
    for seed in (0, 1, 2):
        model = SyntheticBlockModel.random(seed, 2)
        t = Truncation(4, 2)
        p = pressure_from_weights(model, t)
        rec = invert_recursive(p)
        twoc = virial_from_two_connected(model, t)
        assert rec.series == twoc.series
        inv = LagrangeGoodInverter(p)
        for n in admissible_indices(t, min_degree=1):
            assert inv.coefficient(n) == rec.series[n]
        # round trip: substituting the densities back gives the pressure
        fam = densities(p).by_species
        assert substitute(rec.series, fam) == p.series


# -- functional inversion ---------------------------------------------------------------------


def test_invert_functional_identity():
    t = Truncation(3, 1)
    prob = InversionProblem({1: MPSeries.one(t)}, t)
    assert invert_functional(prob, 1, MultiIndex()) == 1
    assert invert_functional(prob, 1, e(1)) == 0
    assert invert_functional(prob, 1, e(2)) == 0


def test_invert_functional_hand_example():
    t = Truncation(3, 1)
    F1 = MPSeries({MultiIndex(): 1, e(1): 2}, t)
    prob = InversionProblem({1: F1}, t)
    assert invert_functional(prob, 1, MultiIndex()) == 1
    assert invert_functional(prob, 1, e(1)) == -2
    assert invert_functional(prob, 1, e(2)) == 8
    assert invert_functional(prob, 1, e(3)) == -40


def test_invert_functional_round_trip_random():
    rng = random.Random(5)
    t = Truncation(4, 2)
    for _ in range(5):
        F = {}
        for k in (1, 2):
            terms = {MultiIndex(): Fraction(rng.randint(1, 4))}
            for n in admissible_indices(t, min_degree=1):
                if rng.random() < 0.4:
                    terms[n] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            F[k] = MPSeries(terms, t)
        prob = InversionProblem(F, t)
        w = {k: s.with_truncation(t) for k, s in functional_inverse(prob).items()}
        for k in (1, 2):
            lhs = w[k] * substitute(F[k], w)
            assert lhs == MPSeries.variable(k, t)


def test_inversion_problem_validation():
    t = Truncation(2, 1)
    with pytest.raises(ValueError):
        InversionProblem({1: MPSeries.variable(1, t)}, t)  # F(0) = 0
    with pytest.raises(ValueError):
        InversionProblem({}, t)  # missing species


def test_virial_specialisation_matches_density_inverse():
    # z_k(rho) = rho_k G_k(rho): substituting w(u) into the densities gives u back
    p = pressure_from_weights(CROSS_1, Truncation(3, 2))
    prob = virial_inversion_problem(p)
    t = p.series.truncation
    w = {k: s.with_truncation(t) for k, s in functional_inverse(prob).items()}
    fam = densities(p).by_species
    for k in (1, 2):
        assert substitute(fam[k], w) == MPSeries.variable(k, t)


def test_fourth_route_compose_pressure_with_functional_inverse():
    # p(z(rho)) computed through the functional inverse must equal the virial
    # series from the other routes
    for seed in (3, 4):
        model = SyntheticBlockModel.random(seed, 2)
        t = Truncation(4, 2)
        p = pressure_from_weights(model, t)
        w = {k: s.with_truncation(t)
             for k, s in functional_inverse(virial_inversion_problem(p)).items()}
        assert substitute(p.series, w) == invert_recursive(p).series


# -- Monte Carlo pipeline ------------------------------------------------------------------


def test_mc_pressure_series_structure():
    rods = HardRods1D({1: 1}, 10)
    p, errs = mc_pressure_series(rods, McParams(20_000, seed=12), Truncation(2, 1))
    assert p.series[e(1)] == 1
    assert errs[e(1)] == 0.0
    # b(2) = w(edge)/2 should sit near -1
    assert abs(p.series[e(2)] - (-1.0)) <= 3 * errs[e(2)]


def test_pressure_from_weights_with_mc_source_runs():
    rods = HardRods1D({1: 1}, 10)
    source = McWeightSource(rods, McParams(5_000, seed=3))
    p = pressure_from_weights(source, Truncation(2, 1))
    v = invert_recursive(p)
    assert abs(float(v.series[e(2)]) - 1.0) < 0.25


def test_mc_pressure_series_b_within_four_errors_of_tonks():
    # hard rods in a box wider than any 4-rod cluster: b(n) of the Tonks gas,
    # (-sum_k n_k sigma_k)^(|n| - 1) / n!, with the overlap width of a pair
    # the sum of the rod lengths
    sigma = {1: 1, 2: 2}
    t = Truncation(4, 2)
    p, errs = mc_pressure_series(HardRods1D(sigma, 40), McParams(100_000, seed=17), t)
    for n in admissible_indices(t, min_degree=1):
        exact = Fraction(-sum(count * sigma[k] for k, count in n.items())) ** (n.degree - 1) \
            / n.factorial()
        assert abs(p.series[n] - float(exact)) <= 4 * errs[n], (n, p.series[n], errs[n])
        assert (errs[n] > 0) == (n.degree > 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_mc_pressure_series_matches_pressure_from_mc_weights(seed):
    # both builds read the same joint estimate per (|n|, colouring): b(n)
    # agree to the last bit, and every admissible n carries an error, zero
    # only for the single vertex
    rods = HardRods1D({1: 1.0, 2: 0.5}, 10.0)
    t = Truncation(3, 2)
    p, errs = mc_pressure_series(rods, McParams(2000, seed=seed), t)
    source = McWeightSource(rods, McParams(2000, seed=seed))
    q = pressure_from_weights(source, t)
    assert p.series.terms == q.series.terms
    for n, b in p.series.terms.items():
        assert b == Fraction(source.connected_sums([(n.degree, canonical_colouring(n))])[0][0]) \
            / n.factorial(), n
    assert list(errs) == list(admissible_indices(t, min_degree=1))
    assert all((err == 0.0) == (n.degree == 1) for n, err in errs.items())


# -- the two-connected route on Monte Carlo sources -------------------------------------------


ROD_MIXTURE = HardRods1D({1: 1, 2: 2}, 40)


def recorded_weight_mc_runs(monkeypatch):
    """Wrap `weights.weight_mc`; the list it returns fills with the
    (graph, params) of every run."""
    runs = []
    run = weights.weight_mc

    def recording(g, u, p):
        runs.append((g, p))
        return run(g, u, p)

    monkeypatch.setattr(weights, "weight_mc", recording)
    return runs


@pytest.mark.parametrize("degree,classes,graphs", [(4, 27, 57), (5, 165, 1485)])
def test_two_connected_route_makes_one_mc_run_per_class(monkeypatch, degree, classes, graphs):
    # one run per canonical class, where one run per labelled graph made `graphs`;
    # a class of c graphs draws c × samples, so the samples drawn are unchanged
    runs = recorded_weight_mc_runs(monkeypatch)
    two_connected_gf(McWeightSource(ROD_MIXTURE, McParams(3, seed=1)), Truncation(degree, 2))
    assert len(runs) == classes
    assert sum(p.sample_count for _, p in runs) == 3 * graphs


def per_graph_two_connected_sum(source, m, colours):
    """The oracle: one weight_mc run per labelled two-connected graph on
    {1..m}, each on the stream (m, its mask, colours)."""
    return sum(weight_mc(ColouredGraph(Graph(m, mask), colours), source.potential,
                         source._stream(m, mask, colours))[0]
               for mask in two_connected_graph_list(m).tolist())


def soft_1d(a, b):
    d = abs(a.position[0] - b.position[0]) % 10.0
    return 0.5 * math.exp(-min(d, 10.0 - d) ** 2) * (a.species + b.species)


SOFT_1D = CustomPairPotential(soft_1d, 1, 10.0, (1, 2))


@pytest.mark.parametrize("source", [McWeightSource(ROD_MIXTURE, McParams(2000, seed=4)),
                                    McWeightSource(SOFT_1D, McParams(100, seed=5))],
                         ids=["rods", "soft-1d"])
def test_mc_b_is_the_float_joint_sum_taken_exactly(source):
    t = Truncation(4, 2)
    p = pressure_from_weights(source, t)
    for n in admissible_indices(t, min_degree=1):
        total, _ = source.connected_sums([(n.degree, canonical_colouring(n))])[0]
        assert p.series[n] == Fraction(total) / n.factorial(), n


def test_a_non_finite_mc_sum_is_refused_naming_its_colouring():
    # every degree-5 joint sum reaches L^4 = 10^308 times a mean of up to 4!
    source = McWeightSource(HardRods1D({1: 9e76, 2: 5e76}, 1e77), McParams(200, seed=1))
    with pytest.raises(ValueError, match=r"on 5 vertices coloured \(2, 2, 2, 2, 2\) is inf"):
        pressure_from_weights(source, Truncation(5, 2))


@pytest.mark.parametrize("source,degree", [
    (McWeightSource(ROD_MIXTURE, McParams(20_000, seed=5)), 5),
    (McWeightSource(SOFT_1D, McParams(100, seed=6)), 4),
], ids=["rods-d5", "soft-1d-d4"])
def test_lagrange_good_equals_recursive_exactly_on_mc_pressures(source, degree):
    t = Truncation(degree, 2)
    p = pressure_from_weights(source, t)
    rec = invert_recursive(p).series
    inverter = LagrangeGoodInverter(p)
    for n in admissible_indices(t, min_degree=1):
        assert inverter.coefficient(n) == rec[n], n


@pytest.mark.parametrize("source", [
    McWeightSource(ROD_MIXTURE, McParams(20_000, seed=5)),
    McWeightSource(ROD_MIXTURE, McParams(2 ** 12, seed=6, scheme="low-discrepancy")),
    McWeightSource(SOFT_1D, McParams(300, seed=7)),
], ids=["rods", "rods-sobol", "soft-1d"])
def test_two_connected_mc_sums_equal_the_per_graph_oracle_through_degree_3(source):
    # through degree 3 every class holds one labelled graph, which keeps its stream
    t = Truncation(3, 2)
    B = two_connected_gf(source, t).series
    for n in admissible_indices(t, min_degree=2):
        colours = canonical_colouring(n)
        want = per_graph_two_connected_sum(source, n.degree, colours)
        got = source.two_connected_sums([(n.degree, colours)])[0][0]
        assert got.hex() == want.hex(), n
        assert B[n] == Fraction(want) / n.factorial(), n


def per_class_stderr(source, m, colours):
    """The oracle: one weight_mc run of count × samples per two-connected
    class on {1..m}, on the stream of its canonical graph; each class total
    carries count × the stderr of its run, and the classes add in quadrature."""
    var = 0.0
    for (_, _, mask), count in zip(*graphs_mod._two_connected_classes(m, colours)):
        stream = source._stream(m, mask, colours)
        _, err = weight_mc(ColouredGraph(Graph(m, mask), colours), source.potential,
                           McParams(count * stream.sample_count, stream.seed))
        var += (count * err) ** 2
    return math.sqrt(var)


@pytest.mark.parametrize("source", [MODEL_A, MODEL_B,
                                    McWeightSource(ROD_MIXTURE, McParams(500, seed=3)),
                                    McWeightSource(SOFT_1D, McParams(50, seed=4))],
                         ids=["model-a", "model-b", "rods", "soft-1d"])
def test_every_source_answers_both_sums_as_a_sum_and_stderr(source):
    exact = isinstance(source, SyntheticBlockModel)
    for colours in ((1,), (2,), (1, 1), (1, 2), (1, 1, 2), (1, 2, 2, 2)):
        sums = [source.connected_sums([(len(colours), colours)])[0]]
        if len(colours) >= 2:
            sums.append(source.two_connected_sums([(len(colours), colours)])[0])
        for pair in sums:
            assert type(pair) is tuple and len(pair) == 2, colours
            total, err = pair
            if exact:
                assert type(total) is Fraction and err == 0, colours
            else:
                assert type(total) is float and type(err) is float and err >= 0, colours


@pytest.mark.parametrize("source", [McWeightSource(ROD_MIXTURE, McParams(2000, seed=8)),
                                    McWeightSource(SOFT_1D, McParams(100, seed=9))],
                         ids=["rods", "soft-1d"])
def test_mc_two_connected_stderr_equals_the_per_class_oracle(source):
    # at degree 4 some classes hold several labelled graphs
    for n in admissible_indices(Truncation(4, 2), min_degree=2):
        colours = canonical_colouring(n)
        _, err = source.two_connected_sums([(n.degree, colours)])[0]
        assert err.hex() == per_class_stderr(source, n.degree, colours).hex(), n


def test_two_connected_mc_gf_within_four_errors_of_tonks():
    # hard rods in a box wider than any 4-rod cluster: B(rho) of the Tonks gas
    # is (sum_j rho_j) log(1 - sum_j sigma_j rho_j)
    t = Truncation(4, 2)
    rho1, rho2 = (MPSeries.variable(k, t) for k in (1, 2))
    tonks = (rho1 + rho2) * log(MPSeries.one(t) - rho1 - rho2.scaled(2)).series
    source = McWeightSource(ROD_MIXTURE, McParams(100_000, seed=1))
    B = two_connected_gf(source, t).series
    for n in admissible_indices(t, min_degree=2):
        total, err = source.two_connected_sums([(n.degree, canonical_colouring(n))])[0]
        se = err / n.factorial()
        assert B[n] == Fraction(total) / n.factorial(), n
        assert se > 0
        assert abs(B[n] - float(tonks[n])) <= 4 * se, (n, B[n], tonks[n], se)


@pytest.mark.parametrize("degree,species", [(1, 2), (3, 3), (4, 2), (5, 1)])
def test_largest_two_connected_class_matches_the_labelled_graphs(degree, species):
    # the oracle groups the labelled two-connected graphs by canonical key
    t = Truncation(degree, species)
    runs = [(0, 0, 0)]
    for n in admissible_indices(t, min_degree=2):
        colours = canonical_colouring(n)
        classes = Counter(canonical_coloured_key(n.degree, mask, colours)
                          for mask in two_connected_graph_list(n.degree).tolist())
        runs += [(n.degree, count, key[2].bit_count()) for key, count in classes.items()]
    want = max(count * edges for _, count, edges in runs)
    m, count, edges = virial.largest_two_connected_class(t)
    assert count * edges == want and (m, count, edges) in runs
    with pytest.raises(ValueError, match="capped at degree 6"):
        virial.largest_two_connected_class(Truncation(7, 1))


def test_largest_two_connected_class_equals_the_walk_over_every_colouring():
    # the oracle walks every admissible index and the class table of its
    # colouring; the function reads the one-colour tables only
    for degree in range(1, 7):
        for species in range(1, 5):
            t = Truncation(degree, species)
            want = max(((n.degree, count, key[2].bit_count())
                        for n in admissible_indices(t, min_degree=2)
                        for key, count in zip(*graphs_mod._two_connected_classes(
                            n.degree, canonical_colouring(n)))),
                       key=lambda run: run[1] * run[2], default=(0, 0, 0))
            assert virial.largest_two_connected_class(t) == want, t
