import itertools
import json
import math
import random
import time
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virialkit import series as series_mod
from virialkit.series import (
    MPSeries,
    MultiIndex,
    SeriesMatrix,
    Truncation,
    admissible_indices,
    coefficient_of_product,
    determinant,
    exp,
    log,
    reciprocal,
    series_from_json,
    series_to_json,
    substitute,
)
from virialkit.virial import pressure_from_weights
from virialkit.weights import SyntheticBlockModel

T31 = Truncation(3, 1)
T22 = Truncation(2, 2)


def var(i, t=T31):
    return MPSeries.variable(i, t)


def one(t=T31):
    return MPSeries.one(t)


def e1(k=1):
    return MultiIndex.single(1, k)


# -- multi-indices -------------------------------------------------------------


def test_multiindex_canonical_sparse():
    n = MultiIndex({1: 2, 3: 0, 5: 1})
    assert n.items() == ((1, 2), (5, 1))
    assert n.degree == 3
    assert n.factorial() == 2
    assert MultiIndex().degree == 0
    assert not MultiIndex()


def test_multiindex_validation():
    with pytest.raises(ValueError):
        MultiIndex({0: 1})
    with pytest.raises(ValueError):
        MultiIndex({1: -1})
    with pytest.raises(ValueError):
        MultiIndex([(1, 1), (1, 2)])


def test_truncation_admits():
    t = Truncation(2, 2)
    assert t.admits(MultiIndex({1: 2}))
    assert not t.admits(MultiIndex({1: 3}))
    assert not t.admits(MultiIndex({3: 1}))


# -- add / mul ------------------------------------------------------------------


def test_add_disjoint_supports():
    t = T22
    assert (MPSeries.variable(1, t) + MPSeries.variable(2, t)).terms == {
        MultiIndex({1: 1}): 1, MultiIndex({2: 1}): 1}


def test_add_cancellation_is_canonical():
    z = var(1)
    assert (z + (-z)).terms == {}


def test_add_hand_example():
    z = var(1)
    lhs = (one() + z) + (one() + z * z)
    assert lhs[MultiIndex()] == 2
    assert lhs[e1()] == 1
    assert lhs[e1(2)] == 1


def test_mul_trivial_and_hand():
    t = T22
    z1, z2 = MPSeries.variable(1, t), MPSeries.variable(2, t)
    assert (z1 * z2).terms == {MultiIndex({1: 1, 2: 1}): 1}
    f = (one(t) + z1) * (one(t) - z1)
    assert f == one(t) - z1 * z1


def test_mul_truncation_discards():
    t = Truncation(1, 1)
    z = MPSeries.variable(1, t)
    assert (z * z).is_zero()


def test_mismatched_truncation_and_field_raise():
    with pytest.raises(ValueError):
        var(1, T31) + var(1, Truncation(4, 1))
    with pytest.raises(ValueError, match="field"):
        MPSeries({e1(): 1}, T31, "float")  # the rational field is the only one


# -- derivative / variable multiplication ----------------------------------------


def test_diff_examples():
    z = var(1)
    assert (z * z).diff(1) == z.scaled(2)
    t = T22
    assert MPSeries.variable(2, t).diff(1).is_zero()
    z1z2sq = MPSeries({MultiIndex({1: 1, 2: 2}): 1}, Truncation(3, 2))
    assert z1z2sq.diff(2).terms == {MultiIndex({1: 1, 2: 1}): 2}
    with pytest.raises(ValueError):
        z.diff(2)


def test_mul_var_examples():
    assert one().mul_var(1) == var(1)
    t = Truncation(1, 1)
    assert MPSeries.variable(1, t).mul_var(1).is_zero()
    t = T22
    z1, z2 = MPSeries.variable(1, t), MPSeries.variable(2, t)
    assert (z1 + z2).mul_var(2) == z1 * z2 + z2 * z2


def test_leibniz_hand():
    a = one() + var(1)
    b = one() - var(1) + var(1) * var(1)
    assert (a * b).diff(1) == a.diff(1) * b + a * b.diff(1)


# -- exp / log / reciprocal -------------------------------------------------------


def test_exp_examples():
    assert exp(MPSeries.zero(T31)) == one()
    f = exp(var(1))
    assert f[MultiIndex()] == 1
    assert f[e1()] == 1
    assert f[e1(2)] == Fraction(1, 2)
    assert f[e1(3)] == Fraction(1, 6)
    with pytest.raises(ValueError):
        exp(one())


def test_log_examples():
    assert log(one()).series.is_zero()
    lg = log(one(Truncation(2, 1)) + var(1, Truncation(2, 1)))
    assert lg.leading == 1
    assert lg.series.terms == {e1(): 1, e1(2): Fraction(-1, 2)}
    with pytest.raises(ValueError):
        log(var(1))
    with pytest.raises(ValueError):
        log(one().scaled(-2))


def test_log_nontrivial_leading_constant():
    f = one().scaled(3) + var(1)
    lg = log(f)
    assert lg.leading == 3
    assert lg.series.constant_term == 0
    # the exact field cannot hold log(3)
    with pytest.raises(ValueError):
        lg.as_series()
    assert log(one() + var(1)).as_series() == log(one() + var(1)).series


def test_exp_log_round_trip_two_species():
    t = T22
    f = MPSeries.one(t) + MPSeries.variable(1, t) + MPSeries.variable(2, t)
    assert exp(log(f).series) == f


def test_reciprocal_examples():
    assert reciprocal(one()) == one()
    t = Truncation(2, 1)
    r = reciprocal(MPSeries.one(t) + MPSeries.variable(1, t))
    assert r.terms == {MultiIndex(): 1, e1(): -1, e1(2): 1}
    t = T22
    f = MPSeries.one(t) + MPSeries.variable(1, t) + MPSeries.variable(2, t)
    assert f * reciprocal(f) == MPSeries.one(t)
    with pytest.raises(ValueError):
        reciprocal(var(1))


# -- power / substitute ------------------------------------------------------------


def power_product(n: MultiIndex, family: Mapping[int, MPSeries], *,
                  truncation: Truncation | None = None) -> MPSeries:
    """prod_i family[i]^{n_i}, truncated; the oracle for `substitute` on
    monomials.  The empty product is 1."""
    if truncation is None:
        if not family:
            raise ValueError("empty family needs an explicit truncation")
        truncation = next(iter(family.values())).truncation
    for s in family.values():
        if s.truncation != truncation:
            raise ValueError("family series must share one truncation")
    result = MPSeries.one(truncation)
    for species, e in n.items():
        if species not in family:
            raise ValueError(f"family has no series for species {species}")
        base = family[species]
        for _ in range(e):
            result = result * base
            if result.is_zero():
                return result
    return result


def test_power_product_examples():
    fam = {1: var(1)}
    assert power_product(MultiIndex(), fam) == one()
    assert power_product(MultiIndex({1: 2}), fam) == var(1) * var(1)
    fam = {1: var(1) + var(1) * var(1)}
    p = power_product(MultiIndex({1: 2}), fam)
    assert p.terms == {e1(2): 1, e1(3): 2}
    with pytest.raises(ValueError):
        power_product(MultiIndex({2: 1}), fam, truncation=T31)


def test_substitute_examples():
    fam = {1: var(1)}
    outer = MPSeries({e1(): 1}, T31)
    assert substitute(outer, fam) == var(1)
    outer = MPSeries({e1(2): 1}, T31)
    fam = {1: var(1) + var(1) * var(1)}
    assert substitute(outer, fam).terms == {e1(2): 1, e1(3): 2}
    with pytest.raises(ValueError):
        substitute(outer, {1: one()})


def test_substitute_linear_and_monomial_agreement():
    t = T22
    fam = {1: MPSeries.variable(1, t) + MPSeries.variable(2, t),
           2: MPSeries.variable(2, t).scaled(Fraction(1, 3))}
    a = MPSeries({MultiIndex({1: 1}): Fraction(2), MultiIndex({2: 2}): Fraction(-1)}, t)
    b = MPSeries({MultiIndex({1: 1, 2: 1}): Fraction(5, 7)}, t)
    assert substitute(a + b, fam) == substitute(a, fam) + substitute(b, fam)
    for n in [MultiIndex({1: 1}), MultiIndex({1: 1, 2: 1}), MultiIndex({2: 2})]:
        mono = MPSeries({n: 1}, t)
        assert substitute(mono, fam) == power_product(n, fam)


# -- determinant --------------------------------------------------------------------


def test_determinant_examples():
    assert determinant(SeriesMatrix([], T31)) == one()
    t = T22
    z1, z2 = MPSeries.variable(1, t), MPSeries.variable(2, t)
    i2 = SeriesMatrix([[MPSeries.one(t), MPSeries.zero(t)],
                       [MPSeries.zero(t), MPSeries.one(t)]], t)
    assert determinant(i2) == MPSeries.one(t)
    m = SeriesMatrix([[MPSeries.one(t), z1], [z2, MPSeries.one(t)]], t)
    assert determinant(m) == MPSeries.one(t) - z1 * z2


def test_determinant_triangular_is_diagonal_product():
    t = T22
    z1, z2 = MPSeries.variable(1, t), MPSeries.variable(2, t)
    d1 = MPSeries.one(t) + z1
    d2 = MPSeries.one(t) - z2
    m = SeriesMatrix([[d1, z1 * z2], [MPSeries.zero(t), d2]], t)
    assert determinant(m) == d1 * d2
    # 3x3 lower-triangular with series on and below the diagonal
    d3 = MPSeries.one(t).scaled(Fraction(2)) + z1 * z2
    rows = [[d1, MPSeries.zero(t), MPSeries.zero(t)],
            [z1, d2, MPSeries.zero(t)],
            [z2, z1 + z2, d3]]
    assert determinant(SeriesMatrix(rows, t)) == d1 * d2 * d3


def test_determinant_dimension_cap():
    t = Truncation(1, 1)
    rows = [[MPSeries.one(t) for _ in range(13)] for _ in range(13)]
    with pytest.raises(ValueError):
        determinant(SeriesMatrix(rows, t))


def cofactor_determinant(m: SeriesMatrix) -> MPSeries:
    """Reference: plain recursive cofactor expansion along the first row."""

    def det(rows):
        k = len(rows)
        if k == 0:
            return MPSeries.one(m.truncation)
        if k == 1:
            return rows[0][0]
        total = MPSeries.zero(m.truncation)
        for j in range(k):
            minor = tuple(tuple(r[c] for c in range(k) if c != j) for r in rows[1:])
            term = rows[0][j] * det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    return det(m.entries)


def random_series(rng, t, floats=False, density=0.5):
    """Random series with small coefficients, multiples of 1/4, given to the
    constructor as Fractions or, with `floats`, as the equal floats."""
    terms = {}
    for n in admissible_indices(t):
        if rng.random() < density:
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
            terms[n] = float(c) if floats else c
    return MPSeries(terms, t)


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for dim in range(6):
        for t in (Truncation(2, 3), Truncation(3, 2)):
            for _ in range(3):
                # sparse entries, many zero and many without a constant term,
                # so the constant part is often singular
                rows = [[random_series(rng, t, density=rng.choice((0.0, 0.2, 0.5)))
                         for _ in range(dim)] for _ in range(dim)]
                m = SeriesMatrix(rows, t)
                assert determinant(m) == cofactor_determinant(m)


def test_determinant_singular_constant_part():
    t = T22
    z1, z2 = MPSeries.variable(1, t), MPSeries.variable(2, t)
    zero = MPSeries.zero(t)
    m = SeriesMatrix([[z1, zero], [zero, z2]], t)
    assert determinant(m) == z1 * z2 == cofactor_determinant(m)
    m = SeriesMatrix([[z2, z1], [z2, z1]], t)
    assert determinant(m).is_zero()


def test_determinant_at_the_dimension_cap():
    # det(I + z1 J) = 1 + 12 z1 for the 12 x 12 all-ones matrix J at degree 1
    t = Truncation(1, 1)
    one_, z1 = MPSeries.one(t), MPSeries.variable(1, t)
    rows = [[one_ + z1 if i == j else z1 for j in range(12)] for i in range(12)]
    assert determinant(SeriesMatrix(rows, t)) == one_ + z1.scaled(12)


# -- extraction of one coefficient --------------------------------------------------


def test_coefficient_of_product_matches_full_product():
    rng = random.Random(11)
    t = Truncation(4, 3)
    indices = list(admissible_indices(t))
    for floats in (False, True):
        for count in range(1, 5):
            for _ in range(4):
                factors = [random_series(rng, t, floats) for _ in range(count)]
                product = factors[0]
                for f in factors[1:]:
                    product = product * f
                for n in indices:  # includes n on a strict subset of the species
                    assert coefficient_of_product(factors, n) == product[n]


def test_coefficient_of_product_empty_and_invalid():
    assert coefficient_of_product([], MultiIndex()) == 1
    assert coefficient_of_product([], e1()) == 0
    with pytest.raises(ValueError):
        coefficient_of_product([var(1)], e1(4))
    with pytest.raises(ValueError):
        coefficient_of_product([var(1), var(1, Truncation(4, 1))], e1())


# -- packed keys against the MultiIndex-keyed oracles ------------------------------
#
# The oracles are the MultiIndex-keyed operations the packed core replaced.
# Series built from floats hold their exact binary values, so the core's
# integer numerators there run over denominators of up to 2^52 per factor.

PACKED_TRUNCATIONS = [Truncation(0, 1), Truncation(8, 1), Truncation(4, 3), Truncation(2, 12)]


def index_sum(n: MultiIndex, m: MultiIndex) -> MultiIndex:
    return MultiIndex({s: n.get(s) + m.get(s) for s in set(n.species) | set(m.species)})


def grlex_order(a: MPSeries) -> list:
    cap = a.truncation.species
    return sorted(a.terms.items(), key=lambda kv: (kv[0].degree,
                                                   tuple(kv[0].get(s) for s in range(1, cap + 1))))


def product_oracle(a: MPSeries, b: MPSeries) -> MPSeries:
    out = {}
    for n1, c1 in a.terms.items():
        for n2, c2 in b.terms.items():
            if n1.degree + n2.degree <= a.truncation.degree:
                n = index_sum(n1, n2)
                out[n] = out.get(n, 0) + c1 * c2
    return MPSeries(out, a.truncation)


def sum_oracle(a: MPSeries, b: MPSeries, sign: int = 1) -> MPSeries:
    out = dict(a.terms)
    for n, c in b.terms.items():
        out[n] = out[n] + sign * c if n in out else sign * c
    return MPSeries(out, a.truncation)


def lowered(n: MultiIndex, species: int) -> MultiIndex:
    return MultiIndex({**dict(n.items()), species: n.get(species) - 1})


def diff_oracle(a: MPSeries, species: int) -> MPSeries:
    return MPSeries({lowered(n, species): c * n.get(species)
                     for n, c in a.terms.items() if n.get(species)}, a.truncation)


def div_var_oracle(a: MPSeries, species: int) -> MPSeries:
    return MPSeries({lowered(n, species): c for n, c in a.terms.items()}, a.truncation)


def mul_var_oracle(a: MPSeries, species: int) -> MPSeries:
    return MPSeries({MultiIndex({**dict(n.items()), species: n.get(species) + 1}): c
                     for n, c in a.terms.items()
                     if n.degree < a.truncation.degree}, a.truncation)


def coefficient_oracle(factors, n: MultiIndex):
    """`coefficient_of_product` on exponents packed without the degree digit,
    sum_s n_s R^(s-1), from each factor's MultiIndex-keyed terms."""
    t = factors[0].truncation
    weights = [(2 * t.degree + 1) ** i for i in range(t.species)]

    def packed(f):
        return {sum(e * weights[s - 1] for s, e in m.items()): c for m, c in f.terms.items()}

    box = [0]
    for s, e in n.items():
        box = [b + k * weights[s - 1] for k in range(e + 1) for b in box]
    inside = set(box)
    zero = Fraction(0)
    acc = {0: Fraction(1)}
    for f in factors[:-1]:
        terms = packed(f)
        part = [(m, terms[m]) for m in box if m in terms]
        nxt = {}
        for a, ca in acc.items():
            for b, cb in part:
                if a + b in inside:
                    nxt[a + b] = nxt.get(a + b, zero) + ca * cb
        acc = nxt
    terms = packed(factors[-1])
    total = zero
    for a, ca in acc.items():
        if box[-1] - a in terms:
            total += ca * terms[box[-1] - a]
    return total


def exact(c):
    """A coefficient with its type."""
    return type(c), c


def bits(a: MPSeries) -> list:
    """The terms in stored order, each coefficient by `exact`."""
    return [(n, exact(c)) for n, c in a.terms.items()]


def noisy_series(rng, t: Truncation, coefficients: str) -> MPSeries:
    """Random series from small rationals, or from floats in [-3, 3], which
    enter at their exact binary values."""
    terms = {}
    for n in admissible_indices(t):
        if rng.random() < 0.6:
            terms[n] = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        if coefficients == "rational" else rng.uniform(-3.0, 3.0))
    return MPSeries(terms, t)


def checked(a: MPSeries) -> MPSeries:
    """`a`, after asserting that its stored form is reduced, that its `terms`
    are Fractions and that the public constructor rebuilds it."""
    numerators = list(a._terms.values())
    assert all(numerators)
    assert type(a._den) is int and a._den > 0
    assert all(type(c) is int for c in numerators)
    assert math.gcd(a._den, *numerators) == 1
    assert all(type(c) is Fraction for c in a.terms.values())
    assert MPSeries(a.terms, a.truncation) == a
    return a


@pytest.mark.parametrize("coefficients", ["rational", "float"])
@pytest.mark.parametrize("t", PACKED_TRUNCATIONS, ids=lambda t: f"S{t.species}-D{t.degree}")
def test_packed_core_matches_multiindex_oracles(t, coefficients):
    rng = random.Random(t.degree * 100 + t.species)
    for _ in range(3):
        a, b, c = (checked(noisy_series(rng, t, coefficients)) for _ in range(3))
        assert bits(checked(a * b)) == bits(product_oracle(a, b))
        assert bits(checked(a + b)) == bits(sum_oracle(a, b))
        assert bits(checked(a - b)) == bits(sum_oracle(a, b, -1))
        assert list(a.sorted_terms()) == grlex_order(a)
        for s in range(1, t.species + 1):
            assert bits(checked(a.diff(s))) == bits(diff_oracle(a, s))
            assert bits(checked(a.mul_var(s))) == bits(mul_var_oracle(a, s))
            assert (bits(checked(a.mul_var(s).div_var(s)))
                    == bits(div_var_oracle(a.mul_var(s), s)))
        for n in admissible_indices(t):
            assert (exact(coefficient_of_product([a, b, c], n))
                    == exact(coefficient_oracle([a, b, c], n)))


@pytest.mark.parametrize("t", PACKED_TRUNCATIONS, ids=lambda t: f"S{t.species}-D{t.degree}")
def test_pack_unpack_round_trip_in_grlex_order(t):
    indices = list(admissible_indices(t))
    keys = [t.pack(n) for n in indices]
    assert [t.unpack(k) for k in keys] == indices
    assert keys == sorted(set(keys))  # distinct, and ascending in grlex order


# -- the memoised index table ------------------------------------------------------


def grlex_oracle(t: Truncation) -> list[MultiIndex]:
    """Every admissible index by stars and bars (S - 1 bars among d + S - 1
    slots for each degree d), sorted by (degree, n_1, ..., n_S)."""
    dense = []
    for d in range(t.degree + 1):
        for bars in itertools.combinations(range(d + t.species - 1), t.species - 1):
            edges = (-1, *bars, d + t.species - 1)
            dense.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return [MultiIndex.from_exponents(v) for v in sorted(dense, key=lambda v: (sum(v), v))]


TABLE_TRUNCATIONS = [Truncation(d, s) for d in range(9) for s in range(1, 7)]


@pytest.mark.parametrize("t", TABLE_TRUNCATIONS, ids=lambda t: f"S{t.species}-D{t.degree}")
def test_index_table_matches_a_fresh_walk(t):
    t = Truncation(t.degree, t.species)  # a new object of an equal value
    oracle = grlex_oracle(t)
    radix = 2 * t.degree + 1
    for min_degree in range(t.degree + 2):
        want = [n for n in oracle if n.degree >= min_degree]
        walked = list(admissible_indices(t, min_degree))  # walks, or reads the table
        memo = list(admissible_indices(Truncation(t.degree, t.species), min_degree))
        assert walked == want and memo == want
        assert all(a is b for a, b in zip(walked, memo))  # the stored objects
    for n in oracle:
        key = n.degree * radix ** t.species + sum(e * radix ** (t.species - s)
                                                  for s, e in n.items())
        assert t.pack(n) == key
        assert t.unpack(key) == n and t.unpack(t.pack(n)) == n


def test_series_constructor_refuses_inadmissible_terms_after_a_walk():
    t = Truncation(3, 2)
    list(admissible_indices(t))
    for n in (MultiIndex({1: 4}), MultiIndex({1: 2, 2: 2}), MultiIndex({3: 1})):
        with pytest.raises(ValueError, match=r"not admissible under Truncation\(degree=3"):
            MPSeries({n: 1}, t)
        with pytest.raises(ValueError, match="undefined at truncation"):
            one(t)[n]


def test_index_walk_stays_lazy_and_the_table_memo_bounded():
    start = time.perf_counter()
    assert next(admissible_indices(Truncation(60, 12))) == MultiIndex()
    walk = admissible_indices(Truncation(60, 12), min_degree=30)
    assert next(walk).degree == 30
    assert time.perf_counter() - start < 0.1
    for d in range(20):
        for s in range(1, 11):
            list(itertools.islice(admissible_indices(Truncation(d, s)), 40))
    assert series_mod._index_table.cache_info().currsize <= series_mod._INDEX_TABLES


def test_multiindex_degree_is_read_only():
    n = MultiIndex({1: 2, 4: 1})
    with pytest.raises(AttributeError):
        n.degree = 7
    assert n.degree == 3


def test_unit_series_is_shared_per_truncation_value_and_field():
    a, b = MPSeries.one(Truncation(3, 2)), MPSeries.one(Truncation(3, 2))
    assert a is b and a == MPSeries.constant(1, Truncation(3, 2))
    assert MPSeries.one(Truncation(2, 3)) != a


def test_fraction_coefficients_are_stored_unchanged():
    q = Fraction(3, 7)
    assert series_mod._coerce(q) is q


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_float_coefficients_are_refused(value):
    with pytest.raises(ValueError, match="non-finite float"):
        MPSeries({e1(): value}, T31)
    with pytest.raises(ValueError, match="non-finite float"):
        var(1).scaled(value)


def test_terms_view_is_read_only():
    a = var(1) + one()
    assert a.terms is a.terms
    with pytest.raises(TypeError):
        a.terms[e1()] = 5
    with pytest.raises(TypeError):
        del a.terms[e1()]
    with pytest.raises(AttributeError):
        a.terms = {}
    assert a == var(1) + one()


# -- coefficient access ----------------------------------------------------------


def test_coefficient_examples():
    t = T22
    f = MPSeries.variable(1, t) + MPSeries.variable(2, t)
    assert f[MultiIndex({1: 1})] == 1
    assert f[MultiIndex({1: 1, 2: 1})] == 0
    assert exp(var(1))[e1(2)] == Fraction(1, 2)


def test_coefficient_inadmissible_is_error_not_zero():
    f = var(1)
    with pytest.raises(ValueError):
        f[MultiIndex({1: 9})]
    with pytest.raises(ValueError):
        f[MultiIndex({2: 1})]


def test_evaluate_at_complex_point():
    f = one() + var(1).scaled(2)  # 1 + 2z
    assert f.evaluate({1: 0.25}) == pytest.approx(1.5)
    assert f.evaluate({1: 1j}) == pytest.approx(1 + 2j)


def test_scaled_takes_a_float_scalar_at_its_exact_value():
    assert var(1).scaled(0.5)[e1()] == Fraction(1, 2)
    assert var(1).scaled(0.1)[e1()] == Fraction(0.1) != Fraction(1, 10)


def test_div_var_requires_the_factor():
    t = T22
    z1, z2 = MPSeries.variable(1, t), MPSeries.variable(2, t)
    assert (z1 * z2).div_var(1) == z2
    with pytest.raises(ValueError):
        (z1 + z2).div_var(1)


# -- JSON --------------------------------------------------------------------------


def test_json_round_trip_rational():
    f = MPSeries({MultiIndex({1: 2, 3: 1}): Fraction(-7, 2), e1(): 1}, Truncation(4, 3))
    doc = series_to_json(f)
    assert doc["field"] == "rational"
    assert {"n": {"1": 2, "3": 1}, "c": "-7/2"} in doc["terms"]
    assert series_from_json(json.loads(json.dumps(doc))) == f
    # documents pasted from typeset sources may carry U+2212 minus signs
    doc["terms"][0]["c"] = doc["terms"][0]["c"].replace("-", "−")
    assert series_from_json(doc) == f


def test_json_round_trip_float():
    # a float coefficient is its exact binary value, written as p/q
    f = MPSeries({e1(): -3.5, e1(2): 0.1}, T31)
    doc = series_to_json(f)
    assert [t["c"] for t in doc["terms"]] == ["-7/2", "3602879701896397/36028797018963968"]
    assert series_from_json(doc) == f
    doc["field"] = "float"
    with pytest.raises(ValueError, match="field"):
        series_from_json(doc)


# -- property tests ----------------------------------------------------------------


def indices(t: Truncation):
    return st.sampled_from([n for n in admissible_indices(t) if n.degree >= 0])


def rationals():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def sparse_series(t: Truncation, constant="any"):
    base = st.dictionaries(indices(t), rationals(), max_size=5)

    def fix(d):
        d = dict(d)
        if constant == "zero":
            d.pop(MultiIndex(), None)
        elif constant == "one":
            d[MultiIndex()] = Fraction(1)
        elif constant == "nonzero":
            d[MultiIndex()] = d.get(MultiIndex(), Fraction(0)) or Fraction(1)
        return MPSeries(d, t)

    return base.map(fix)


T43 = Truncation(4, 3)


@settings(max_examples=60, deadline=None)
@given(sparse_series(T43), sparse_series(T43), sparse_series(T43))
def test_mul_commutative_associative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(sparse_series(T43, constant="one"))
def test_exp_log_round_trip(f):
    assert exp(log(f).series) == f


@settings(max_examples=40, deadline=None)
@given(sparse_series(T43, constant="zero"))
def test_log_exp_round_trip(g):
    lg = log(exp(g))
    assert lg.leading == 1
    assert lg.series == g


@settings(max_examples=40, deadline=None)
@given(sparse_series(T43, constant="nonzero"))
def test_reciprocal_round_trip(f):
    assert f * reciprocal(f) == MPSeries.one(T43)


@settings(max_examples=60, deadline=None)
@given(sparse_series(T43), sparse_series(T43), st.integers(1, 3))
def test_leibniz_rule(a, b, i):
    # differentiation of a truncated product is exact one order below the cap:
    # degree-(D+1) terms of the true product are discarded before d/dz_i
    lower = Truncation(T43.degree - 1, T43.species)
    lhs = (a * b).diff(i).with_truncation(lower)
    rhs = (a.diff(i) * b + a * b.diff(i)).with_truncation(lower)
    assert lhs == rhs


# -- integer numerators against the Fraction oracles -----------------------------------


def scaled_oracle(a: MPSeries, q) -> MPSeries:
    return MPSeries({n: q * c for n, c in a.terms.items()}, a.truncation)


def power_sum_oracle(u: MPSeries, coefficient) -> MPSeries:
    """sum_m coefficient(m) u^m through the Fraction oracles."""
    power = MPSeries.one(u.truncation)
    result = scaled_oracle(power, coefficient(0))
    for m in range(1, u.truncation.degree + 1):
        power = product_oracle(power, u)
        result = sum_oracle(result, scaled_oracle(power, coefficient(m)))
    return result


def without_constant(a: MPSeries) -> MPSeries:
    return MPSeries({n: c for n, c in a.terms.items() if n}, a.truncation)


STEPS = ("mul", "add", "sub", "neg", "scaled", "diff", "mul_var", "div_var", "exp",
         "log", "reciprocal")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(sparse_series(T43), sparse_series(T43),
       st.lists(st.tuples(st.sampled_from(STEPS), st.integers(1, 3), rationals()),
                min_size=1, max_size=6))
def test_integer_core_is_reduced_and_matches_fraction_oracles(a, b, steps):
    x = checked(a)
    for step, s, q in steps:
        u = without_constant(x)
        if step == "mul":
            y, want = x * b, product_oracle(x, b)
        elif step == "add":
            y, want = x + b, sum_oracle(x, b)
        elif step == "sub":
            y, want = x - b, sum_oracle(x, b, -1)
        elif step == "neg":
            y, want = -x, scaled_oracle(x, -1)
        elif step == "scaled":
            y, want = x.scaled(q), scaled_oracle(x, q)
        elif step == "diff":
            y, want = x.diff(s), diff_oracle(x, s)
        elif step == "mul_var":
            y, want = x.mul_var(s), mul_var_oracle(x, s)
        elif step == "div_var":
            y, want = x.mul_var(s).div_var(s), div_var_oracle(mul_var_oracle(x, s), s)
        elif step == "exp":
            y, want = exp(u), power_sum_oracle(u, lambda m: Fraction(1, math.factorial(m)))
        elif step == "log":
            y = log(u + one(T43)).series
            want = power_sum_oracle(u, lambda m: Fraction((-1) ** (m + 1), m) if m else 0)
        else:
            y, want = reciprocal(u + one(T43)), power_sum_oracle(u, lambda m: (-1) ** m)
        assert bits(checked(y)) == bits(want)
        # the same value reached along other paths compares equal
        assert checked((y + b) - b) == y
        if q:
            assert checked(y.scaled(q).scaled(1 / q)) == y
        if q != 1 and not y.is_zero():
            assert y.scaled(q) != y
        x = y


@pytest.mark.parametrize("seed", [3, 4])
def test_coefficient_of_product_on_random_models_matches_fraction_oracle(seed):
    t = Truncation(5, 2)
    p = pressure_from_weights(SyntheticBlockModel.random(seed, 2), t).series
    recips = [checked(reciprocal(p.diff(i))) for i in (1, 2)]
    for n in admissible_indices(t, min_degree=1):
        factors = [p] + [recips[i - 1] for i, e in n.items() for _ in range(e)]
        assert exact(coefficient_of_product(factors, n)) == exact(coefficient_oracle(factors, n))
