"""Truncated multivariate formal power series over finitely many species.

A series is a sparse map from multi-indices (exponent vectors over species
1..S with finitely many nonzero entries) to coefficients, truncated by total
degree D and species cap S.  Coefficients are exact rationals
(`fractions.Fraction`), the one field every route computes in.  A float
coefficient is taken at its exact binary value, a dyadic rational, so a
Monte Carlo estimate enters the series without rounding and rounds, if at
all, only where a caller prints it; a non-finite float is refused.

Inside a series every monomial is one integer, its key under the truncation
(see `Truncation`), and the coefficients are integer numerators over one
shared positive denominator.  Products and sums therefore run on plain
integers, with one gcd pass per result instead of one per coefficient
operation.  `MultiIndex` and `Fraction` are the types at the boundary: the
constructor's input, `MPSeries.terms`, coefficient lookup, sorted output and
JSON.

The boundary is paid once per truncation value, not once per request: its
index data enters no model, so one table per (degree, species), shared by
equal `Truncation` objects, memoises the admissible indices of each degree,
the maps between indices and keys, and the unit series.
`admissible_indices`, `pack`, `unpack` and the constructor's admissibility
check read it.  The memo is bounded and lazy: an LRU keeps the tables of the
last _INDEX_TABLES truncations, and a degree's indices are stored only when
its walk completes and the table stays within _TABLE_ENTRIES indices, so a
walk stopped early or over millions of indices leaves nothing behind;
outside the table `pack` and `unpack` compute.

All values are immutable after construction and all operations are pure, so
series can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._config import (config_field, config_int, config_list, config_mapping, config_number,
                      config_species)

# The name of the coefficient field, as reprs and JSON documents write it.
RATIONAL = "rational"
# perfbench/workloads.py still names a field: `MPSeries(terms, t, FLOAT)` and
# `MPSeries(lg_terms, t, p.series.field)`.  These three names (FLOAT, the
# constructor's third argument and `MPSeries.field`) only admit the one field;
# ROADMAP item 13, which rewrites perfbench's hooks, removes them.
FLOAT = RATIONAL

# Memoised minors cost at most k 2^(k-1) series products for a k x k
# determinant, 24 576 at k = 12, where a cofactor expansion needs about
# 1.3e9.  Measured at k = 12 (2-core Xeon, Python 3.11): I + z1 J at degree 1
# takes 0.001 s, dense rational entries at Truncation(2, 2) 0.17 s, and
# I + diag(z_i / (dp/dz_i)) H of a random synthetic pressure at
# Truncation(4, 12) 0.11 s through degree 3 (0.66 s through degree 4).  The
# cap keeps every determinant a caller asks for within seconds.  The
# Lagrange-Good route is not bound by it: it asks only for Hessian minors of
# dimension at most D - 1 (`virial._det_m`).
MAX_DETERMINANT_DIM = 12


class MultiIndex:
    """Sparse exponent vector: species index (>= 1) -> exponent (>= 1).

    Zero exponents are never stored, so the empty index is the monomial 1.
    """

    __slots__ = ("_pairs", "_degree")

    def __init__(self, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        pairs = []
        for species, exp in items:
            if species < 1:
                raise ValueError(f"species index must be >= 1, got {species}")
            if exp < 0:
                raise ValueError(f"exponent must be >= 0, got {exp} for species {species}")
            if exp > 0:
                pairs.append((int(species), int(exp)))
        pairs.sort()
        for a, b in zip(pairs, pairs[1:]):
            if a[0] == b[0]:
                raise ValueError(f"duplicate species {a[0]} in multi-index")
        self._pairs = tuple(pairs)
        self._degree = sum(e for _, e in pairs)

    @classmethod
    def single(cls, species: int, exponent: int = 1) -> MultiIndex:
        return cls([(species, exponent)])

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> MultiIndex:
        """Dense constructor: (n1, n2, ...) for species 1, 2, ..."""
        return cls(enumerate(exponents, start=1))

    @property
    def degree(self) -> int:
        """Total degree |n|, fixed when the index is built."""
        return self._degree

    @property
    def species(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self._pairs)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def get(self, species: int) -> int:
        for s, e in self._pairs:
            if s == species:
                return e
        return 0

    def factorial(self) -> int:
        """n! = prod_i n_i!"""
        out = 1
        for _, e in self._pairs:
            out *= math.factorial(e)
        return out

    def dense(self, species_cap: int) -> tuple[int, ...]:
        return tuple(self.get(s) for s in range(1, species_cap + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __repr__(self) -> str:
        if not self._pairs:
            return "MultiIndex()"
        return "MultiIndex({%s})" % ", ".join(f"{s}: {e}" for s, e in self._pairs)


# How many truncations keep an index table, and how many indices one table
# holds at most: every (D, S) with D <= 8 and S <= 6 fits, in about 2 MB.
_INDEX_TABLES = 16
_TABLE_ENTRIES = 1 << 12


@dataclass(frozen=True)
class Truncation:
    """Joint truncation: total degree <= degree AND species index <= species.

    The truncation also numbers the admissible monomials.  The key of n is
    |n| R^S + sum_s n_s R^(S-s) with radix R = 2D + 1: a degree digit above
    one digit per species, species 1 the most significant.  Ascending keys
    are therefore graded-lexicographic order (|n|, n_1, ..., n_S).
    Admissible exponents are at most D, so adding two keys adds their
    monomials without a carry, and the sum is admissible exactly when it is
    below (D + 1) R^S (`_limit`).  The degree of a key is key // R^S.

    Equal truncations share one memoised `_IndexTable`: `pack` and `unpack`
    read its maps for every index a completed walk has stored and compute
    the others.
    """

    degree: int
    species: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"max total degree must be >= 0, got {self.degree}")
        if self.species < 1:
            raise ValueError(f"species cap must be >= 1, got {self.species}")
        # place values of a key: R^S for the degree digit, then R^(S-s) for
        # species s = 1..S; the key of z_s is _steps[s - 1]
        radix = 2 * self.degree + 1
        places = tuple(radix ** p for p in range(self.species, -1, -1))
        object.__setattr__(self, "_places", places)
        object.__setattr__(self, "_steps", tuple(places[0] + p for p in places[1:]))
        object.__setattr__(self, "_limit", (self.degree + 1) * places[0])
        object.__setattr__(self, "_table", _index_table(self))

    def admits(self, n: MultiIndex) -> bool:
        if n.degree > self.degree:
            return False
        pairs = n.items()
        return not pairs or pairs[-1][0] <= self.species

    def pack(self, n: MultiIndex) -> int:
        """The key of an admissible multi-index n."""
        key = self._table.keys.get(n)
        if key is None:
            key = sum(e * self._steps[s - 1] for s, e in n.items())
        return key

    def unpack(self, key: int) -> MultiIndex:
        """The multi-index with this key; the inverse of `pack`."""
        n = self._table.indices.get(key)
        if n is None:
            radix = 2 * self.degree + 1
            n = MultiIndex.from_exponents(key // place % radix for place in self._places[1:])
        return n

    def _cut(self, degree: int | None) -> int:
        """The bound below which keys have degree <= `degree` (default D)."""
        if degree is None:
            return self._limit
        if degree < 0:
            raise ValueError(f"a series cut needs a degree >= 0, got {degree}")
        return min(self._limit, (degree + 1) * self._places[0])

    def _key(self, n: MultiIndex) -> int | None:
        """The key of n, None when n is not admissible."""
        key = self._table.keys.get(n)
        if key is None and self.admits(n):
            key = self.pack(n)
        return key


class _IndexTable:
    """The model-independent index data of one truncation value: `blocks`
    maps a degree to its admissible indices in graded-lexicographic order,
    `keys` and `indices` map the stored indices to their keys and back, and
    `one` holds the unit series once built (`MPSeries.one`)."""

    def __init__(self):
        empty = MultiIndex()
        self.blocks, self.keys, self.indices, self.one = {}, {empty: 0}, {0: empty}, None


@lru_cache(maxsize=_INDEX_TABLES)
def _index_table(truncation: Truncation) -> _IndexTable:
    return _IndexTable()


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The exponent vectors of `parts` species summing to `total`, ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def admissible_indices(truncation: Truncation, min_degree: int = 0) -> Iterator[MultiIndex]:
    """All admissible multi-indices of degree >= min_degree in
    graded-lexicographic order (ascending keys).

    Each degree is read from the truncation's memoised table.  A degree not
    stored yet is walked lazily and stored once its walk completes, if the
    table stays within _TABLE_ENTRIES indices, so stopping early costs only
    the indices taken.
    """
    table, s = truncation._table, truncation.species
    for d in range(max(min_degree, 0), truncation.degree + 1):
        block = table.blocks.get(d)
        if block is not None:
            yield from block
            continue
        keep = len(table.keys) + math.comb(d + s - 1, s - 1) <= _TABLE_ENTRIES
        built = []
        for dense in _compositions(d, s):
            n = MultiIndex.from_exponents(dense)
            if keep:
                built.append(n)
            yield n
        if keep:
            for n in built:
                key = truncation.pack(n)
                table.keys[n] = key
                table.indices[key] = n
            table.blocks[d] = tuple(built)


def _coerce(value) -> Fraction:
    """A coefficient as an exact rational, a finite float at its exact binary value."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite float {value} as a series coefficient")
    return Fraction(value)


def _numerators(values: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """Keyed coefficients (Fractions or ints) as (numerators, denominator):
    integers over their least common denominator."""
    den = math.lcm(*(c.denominator for c in values.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in values.items()}, den


def _add_into(acc: dict, den: int, terms: Mapping[int, object], tden: int, sign: int = 1) -> int:
    """Add sign * terms / tden into the numerators `acc` over `den`, in place,
    both brought to their least common denominator; returns that denominator."""
    if tden != den:
        g = math.gcd(den, tden)
        up, sign = tden // g, sign * (den // g)
        if up != 1:
            for k in acc:
                acc[k] *= up
            den *= up
    for k, c in terms.items():
        acc[k] = acc.get(k, 0) + sign * c
    return den


class MPSeries:
    """Sparse truncated multivariate formal power series.

    Stored terms are canonical: every monomial is admissible under the
    truncation and no stored coefficient is zero.  They are kept in one dict
    from the truncation's integer keys (see `Truncation`) to integer
    numerators, over one positive integer denominator `_den` with
    gcd(den, *numerators) == 1, which is the least common denominator of the
    coefficients.  The form is unique, so equality is a compare of dicts and
    denominators.  `terms` is a read-only view keyed by `MultiIndex` with
    `Fraction` values, and `_ordered` the (key, numerator) pairs in ascending
    key order; both are built on first use.
    """

    __slots__ = ("_terms", "_den", "truncation", "_view", "_sorted")

    field = RATIONAL  # see FLOAT

    def __init__(self, terms: Mapping[MultiIndex, object], truncation: Truncation,
                 field: str = RATIONAL):
        if field != RATIONAL:  # see FLOAT
            raise ValueError(f"unknown coefficient field {field!r}")
        values = {}
        for n, c in terms.items():
            key = truncation._key(n)
            if key is None:
                raise ValueError(f"term {n!r} not admissible under {truncation}")
            c = _coerce(c)
            if c != 0:
                values[key] = c
        self._terms, self._den = _numerators(values)
        self.truncation = truncation
        self._view = self._sorted = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: Truncation) -> MPSeries:
        return cls({}, truncation)

    @classmethod
    def constant(cls, value, truncation: Truncation) -> MPSeries:
        return cls({MultiIndex(): value}, truncation)

    @classmethod
    def one(cls, truncation: Truncation) -> MPSeries:
        """The unit series: one shared object per truncation value."""
        table = truncation._table
        if table.one is None:
            table.one = cls.constant(1, truncation)
        return table.one

    @classmethod
    def variable(cls, species: int, truncation: Truncation) -> MPSeries:
        return cls({MultiIndex.single(species): 1}, truncation)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        """Read-only view of the terms keyed by `MultiIndex`."""
        if self._view is None:
            unpack, den = self.truncation.unpack, self._den
            self._view = MappingProxyType({unpack(k): Fraction(c, den)
                                           for k, c in self._terms.items()})
        return self._view

    def __getitem__(self, n: MultiIndex):
        """Coefficient of z^n; n must be admissible (inadmissible is undefined, not 0)."""
        key = self.truncation._key(n)
        if key is None:
            raise ValueError(f"coefficient of {n!r} is undefined at truncation {self.truncation}")
        return self._coefficient(key)

    def _ordered(self) -> list[tuple[int, int]]:
        """The (key, numerator) pairs in ascending key order, that is by degree."""
        if self._sorted is None:
            self._sorted = sorted(self._terms.items())
        return self._sorted

    def _coefficient(self, key: int) -> Fraction:
        return Fraction(self._terms.get(key, 0), self._den)

    @property
    def constant_term(self):
        return self._coefficient(0)

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in graded-lexicographic order (deterministic output)."""
        unpack, den = self.truncation.unpack, self._den
        return [(unpack(k), Fraction(c, den)) for k, c in self._ordered()]

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPSeries) and self.truncation == other.truncation
                and self._den == other._den and self._terms == other._terms)

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            body = "0"
        else:
            parts = []
            for n, c in self.sorted_terms()[:6]:
                mono = "*".join(f"z{s}^{e}" if e > 1 else f"z{s}" for s, e in n.items()) or "1"
                parts.append(f"{c}*{mono}")
            body = " + ".join(parts)
            if len(self._terms) > 6:
                body += f" + ... ({len(self._terms)} terms)"
        return f"<MPSeries {body} | D={self.truncation.degree} S={self.truncation.species} {RATIONAL}>"

    def _check_compatible(self, other: MPSeries, op: str):
        if not isinstance(other, MPSeries):
            raise TypeError(f"cannot {op} MPSeries with {type(other).__name__}")
        if self.truncation != other.truncation:
            raise ValueError(f"cannot {op} series with different truncations "
                             f"({self.truncation} vs {other.truncation})")

    def _keyed(self, terms: dict[int, int], den: int = 1) -> MPSeries:
        """A series of this truncation from admissible keyed integer
        numerators over `den`: the zeros are dropped and the result is
        reduced by one gcd pass.  This is the internal constructor; a caller
        with keyed coefficients passes them through `_numerators` first."""
        terms = {k: c for k, c in terms.items() if c}
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        out = MPSeries.__new__(MPSeries)
        out._terms = terms
        out._den = den
        out.truncation = self.truncation
        out._view = out._sorted = None
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: MPSeries) -> MPSeries:
        self._check_compatible(other, "add")
        out = dict(self._terms)
        return self._keyed(out, _add_into(out, self._den, other._terms, other._den))

    def __neg__(self) -> MPSeries:
        return self._keyed({k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other: MPSeries) -> MPSeries:
        self._check_compatible(other, "subtract")
        out = dict(self._terms)
        return self._keyed(out, _add_into(out, self._den, other._terms, other._den, -1))

    def __mul__(self, other) -> MPSeries:
        if not isinstance(other, MPSeries):
            return self.scaled(other)
        self._check_compatible(other, "multiply")
        return self._product(other, self.truncation._limit)

    def _product(self, other: MPSeries, limit: int) -> MPSeries:
        """The product's terms with keys below `limit` (`Truncation._cut`).

        Both factors are walked in ascending key order.  k1 + k2 < limit
        exactly when the degrees add up to at most the cut's (see
        `Truncation`), so the inner walk ends at the first k2 at or above
        limit - k1 and the outer one once that room is at most `other`'s
        lowest key: only the kept pairs are visited.
        """
        out: dict[int, int] = {}
        theirs = other._ordered()
        if theirs:
            low = theirs[0][0]
            for k1, c1 in self._ordered():
                room = limit - k1
                if room <= low:
                    break
                for k2, c2 in theirs:
                    if k2 >= room:
                        break
                    k = k1 + k2
                    out[k] = out.get(k, 0) + c1 * c2
        return self._keyed(out, self._den * other._den)

    def __rmul__(self, other) -> MPSeries:
        return self.scaled(other)

    def scaled(self, scalar) -> MPSeries:
        c = _coerce(scalar)
        return self._keyed({k: c.numerator * v for k, v in self._terms.items()},
                           self._den * c.denominator)

    def _exponents(self, species: int) -> tuple[int, Iterator[tuple[int, int, int]]]:
        """(key of z_species, (key, exponent of z_species, numerator) per term)."""
        t = self.truncation
        if not 1 <= species <= t.species:
            raise ValueError(f"species {species} out of range 1..{t.species}")
        place, radix = t._places[species], 2 * t.degree + 1
        return t._steps[species - 1], ((k, k // place % radix, c) for k, c in self._terms.items())

    def diff(self, species: int) -> MPSeries:
        """Partial derivative with respect to z_species."""
        step, terms = self._exponents(species)
        return self._keyed({k - step: c * e for k, e, c in terms if e > 0}, self._den)

    def mul_var(self, species: int) -> MPSeries:
        """Multiply by the variable z_species, discarding over-truncation terms."""
        step, terms = self._exponents(species)
        limit = self.truncation._limit
        return self._keyed({k + step: c for k, _, c in terms if k + step < limit}, self._den)

    def div_var(self, species: int) -> MPSeries:
        """Divide by z_species; every term must contain the variable."""
        step, terms = self._exponents(species)
        out = {}
        for k, e, c in terms:
            if e == 0:
                raise ValueError(f"term {self.truncation.unpack(k)!r} has no factor "
                                 f"of species {species}")
            out[k - step] = c
        return self._keyed(out, self._den)

    # -- conversions -------------------------------------------------------

    def with_truncation(self, truncation: Truncation) -> MPSeries:
        """Explicit re-truncation; terms outside the new truncation are dropped.

        Widening the degree is permitted but introduces no information: the
        caller asserts that coefficients beyond the old order are genuinely
        known (e.g. the series is a polynomial).
        """
        kept = {n: c for n, c in self.terms.items() if truncation.admits(n)}
        return MPSeries(kept, truncation)

    def evaluate(self, point: Mapping[int, complex]) -> complex:
        """Numeric evaluation at a point (coefficients coerced through float)."""
        total = 0j
        for n, c in self.terms.items():
            v = complex(float(c))
            for s, e in n.items():
                v *= point[s] ** e
            total += v
        return total


# -- transcendental / inverse operations ------------------------------------


def _power_sum(u: MPSeries, coefficient: Callable[[int], object]) -> MPSeries:
    """sum_m coefficient(m) u^m, for u with zero constant term: the sum stops
    at the first power of u that vanishes."""
    one, limit = MPSeries.one(u.truncation), u.truncation._limit
    result = one.scaled(coefficient(0))
    power = one
    for m in range(1, u.truncation.degree + 1):
        power = power._product(u, limit)
        if power.is_zero():
            break
        result = result + power.scaled(coefficient(m))
    return result


def exp(a: MPSeries) -> MPSeries:
    """exp of a series with zero constant term: sum_m a^m / m! truncated."""
    if a.constant_term != 0:
        raise ValueError("exp requires a zero constant term")
    return _power_sum(a, lambda m: Fraction(1, math.factorial(m)))


class LogSeries(NamedTuple):
    """log of a series f = c0 * (1 + u): the pair (c0, log(1+u) as a series).

    Keeping the positive constant c0 apart from the pure-series part keeps the
    rational field closed: no irrational log(c0) enters exact arithmetic.
    """

    leading: Fraction
    series: MPSeries

    def as_series(self) -> MPSeries:
        """The logarithm as one series, which needs the leading constant 1."""
        if self.leading != 1:
            raise ValueError("cannot fold log of a constant != 1 into a rational series")
        return self.series


def log(a: MPSeries) -> LogSeries:
    """Series logarithm log(c0) + log(1 + (a/c0 - 1)), Mercator expansion.

    Requires a positive constant term c0; the pure-series part is returned
    alongside c0 (see :class:`LogSeries`).
    """
    c0 = a.constant_term
    if c0 == 0:
        raise ValueError("log requires a nonzero constant term")
    if c0 < 0:
        raise ValueError("log requires a positive constant term over a real field")
    inv_c0 = 1 / c0
    u = a.scaled(inv_c0) - MPSeries.one(a.truncation)
    return LogSeries(c0, _power_sum(u, lambda m: Fraction((-1) ** (m + 1), m) if m else 0))


def reciprocal(a: MPSeries, degree: int | None = None) -> MPSeries:
    """Multiplicative inverse 1/a through `degree` (default D); needs a(0) != 0.

    With a = A / den on integer numerators A, 1/A has the coefficients
    R_k = Q_k / A_0^(|k| + 1), where Q_0 = 1 and
    Q_k = -sum_{0 < j <= k} A_j A_0^(|j| - 1) Q_(k - j) are integers.  Q is
    built one degree at a time, each degree from the lower ones, so only
    pairs whose degrees add up to at most `degree` are visited, and
    1/a = den Q_k A_0^(cut - |k|) over A_0^(cut + 1), cut the highest
    degree kept, with the sign of the denominator moved to the numerators.
    """
    a0 = a._terms.get(0, 0)
    if a0 == 0:
        raise ValueError("reciprocal requires a nonzero constant term")
    top = a.truncation._places[0]
    cut = a.truncation._cut(degree) // top - 1
    # the terms A_j A_0^(|j| - 1) of each degree |j| = 1..cut
    steps = [[] for _ in range(cut + 1)]
    for j, c in a._terms.items():
        d = j // top
        if 0 < d <= cut:
            steps[d].append((j, c * a0 ** (d - 1)))
    levels = [{0: 1}]  # levels[d]: the nonzero Q_k with |k| = d
    for d in range(1, cut + 1):
        acc: dict[int, int] = {}
        for e in range(1, d + 1):
            for m, q in levels[d - e].items():
                for j, w in steps[e]:
                    acc[m + j] = acc.get(m + j, 0) - w * q
        levels.append({k: q for k, q in acc.items() if q})
    den = a0 ** (cut + 1)
    scale = a._den if den > 0 else -a._den
    terms = {k: scale * q * a0 ** (cut - d) for d, level in enumerate(levels)
             for k, q in level.items()}
    return a._keyed(terms, abs(den))


def _monomials(family: Mapping[int, MPSeries],
               index_truncation: Truncation) -> Callable[[int], MPSeries]:
    """Memoised monomial(key) = prod_s family[s]^(n_s), n the index with this
    key under `index_truncation` (which may admit species past the family's
    cap), by the unit step monomial(n - e_s) * family[s], s the top species
    of n.  A species missing from the family is an error."""
    cache = {0: MPSeries.one(next(iter(family.values())).truncation)}

    def monomial(key: int) -> MPSeries:
        if key not in cache:
            s = index_truncation.unpack(key).species[-1]
            if s not in family:
                raise ValueError(f"family has no series for species {s}")
            cache[key] = monomial(key - index_truncation._steps[s - 1]) * family[s]
        return cache[key]

    return monomial


def substitute(outer: MPSeries, family: Mapping[int, MPSeries]) -> MPSeries:
    """Compose: sum_n outer[n] * prod_i family[i]^{n_i}, from `_monomials`.

    Every family series must have zero constant term (the summability
    condition making the composition finite order by order).
    """
    if not family:
        raise ValueError("substitute needs a nonempty family")
    truncation = next(iter(family.values())).truncation
    for s in family.values():
        if s.truncation != truncation:
            raise ValueError("family series must share one truncation")
        if s.constant_term != 0:
            raise ValueError("substitution family must have zero constant terms")

    monomial = _monomials(family, outer.truncation)
    place = outer.truncation._places[0]
    acc, den = {}, 1
    for key, c in outer._terms.items():
        if key // place <= truncation.degree:  # each family factor has degree >= 1
            rho = monomial(key)
            den = _add_into(acc, den, rho._terms, rho._den * outer._den, c)
    return MPSeries.one(truncation)._keyed(acc, den)


class SeriesMatrix:
    """Square matrix of series sharing one truncation."""

    __slots__ = ("entries", "dimension", "truncation")

    def __init__(self, entries: Iterable[Iterable[MPSeries]], truncation: Truncation):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for entry in row:
                if entry.truncation != truncation:
                    raise ValueError("all entries must share the matrix truncation")
        self.entries = rows
        self.dimension = n
        self.truncation = truncation


def determinant(m: SeriesMatrix, degree: int | None = None) -> MPSeries:
    """Determinant by Laplace expansion over memoised minors, through
    `degree` (default D); the empty determinant is 1.

    Working from the bottom row upwards, the minor on the last s rows and a
    column set C of size s is expanded along its first row,
    sum_{j in C} (-1)^(position of j in C) a[k-s][j] minor(C - {j}), so every
    minor on s - 1 rows is computed once.  This is the exact cofactor sum at
    k 2^(k-1) series products instead of about e k!, and it divides by
    nothing: it holds for any matrix, even one whose constant part is
    singular, such as diag(z1, z2).  Every product keeps only its terms
    through `degree`, which read only its factors' terms through `degree`,
    so the result is exactly the full determinant's terms through it.  A
    product is skipped when its factors' lowest degrees (their lowest keys'
    degrees, see `Truncation`) already add up past `degree`, so when the
    entries off the diagonal have no constant term (M = I + O(z)) only
    column sets close to the row set carry a nonzero minor.  Each minor is
    summed on integer numerators: a signed product joins the sum over the
    least common denominator of the two, and the minor is reduced once at
    the end.
    """
    if m.dimension > MAX_DETERMINANT_DIM:
        raise ValueError(f"determinant limited to dimension {MAX_DETERMINANT_DIM}, "
                         f"got {m.dimension}")
    one = MPSeries.one(m.truncation)
    limit = m.truncation._cut(degree)
    # column bitmask -> (minor on the last rows, lowest key among its terms)
    minors = {0: (one, 0)}
    for row in reversed(m.entries):
        lows = [min(entry._terms, default=None) for entry in row]
        # column bitmask -> [numerators of the new minor, their denominator]
        sums: dict[int, list] = {}
        for cols, (minor, low) in minors.items():
            for j, entry in enumerate(row):
                bit = 1 << j
                if cols & bit or lows[j] is None or lows[j] + low >= limit:
                    continue  # the product is zero
                term = entry._product(minor, limit)
                sign = -1 if (cols & (bit - 1)).bit_count() % 2 else 1
                acc = sums.setdefault(cols | bit, [{}, term._den])
                acc[1] = _add_into(acc[0], acc[1], term._terms, term._den, sign)
        minors = {}
        for cols, (terms, den) in sums.items():
            minor = one._keyed(terms, den)
            if not minor.is_zero():
                minors[cols] = (minor, min(minor._terms))
    full = minors.get((1 << m.dimension) - 1)
    return MPSeries.zero(m.truncation) if full is None else full[0]


def coefficient_of_product(factors: Sequence[MPSeries], n: MultiIndex) -> Fraction:
    """[z^n] of the product of `factors`; the empty product is the exact 1.

    Only exponents m <= n componentwise can reach z^n, so the product is
    formed on that box alone and the last factor is a single lookup per
    point: the cost follows the box, prod_i (n_i + 1) points, not the size
    of the series.  The box's points are keys of the truncation (see
    `Truncation`), so a sum of two of them is the key of the sum of their
    exponents, and the factors' own keyed terms are read directly.  The
    products run on the factors' numerators, and the one coefficient is
    formed at the end over the product of their denominators.
    """
    if not factors:
        return Fraction(0 if n else 1)
    head = factors[0]
    for f in factors[1:]:
        head._check_compatible(f, "multiply")
    t = head.truncation
    if not t.admits(n):
        raise ValueError(f"coefficient of {n!r} is undefined at truncation {t}")
    box = [0]
    for s, e in n.items():
        box = [b + k * t._steps[s - 1] for k in range(e + 1) for b in box]
    target = box[-1]
    inside = set(box)
    acc = {0: 1}
    den = 1
    for f in factors[:-1]:
        terms = f._terms
        den *= f._den
        part = [(m, terms[m]) for m in box if m in terms]
        nxt: dict[int, int] = {}
        for a, ca in acc.items():
            for b, cb in part:
                m = a + b
                if m in inside:
                    nxt[m] = nxt.get(m, 0) + ca * cb
        acc = nxt
    terms = factors[-1]._terms
    total = 0
    for a, ca in acc.items():
        cb = terms.get(target - a)
        if cb is not None:
            total += ca * cb
    return Fraction(total, den * factors[-1]._den)


# -- JSON interchange --------------------------------------------------------


def series_to_json(a: MPSeries) -> dict:
    """JSON document for a series; rationals as decimal-free "p/q" strings."""
    terms = []
    for n, c in a.sorted_terms():
        entry = {"n": {str(s): e for s, e in n.items()}}
        entry["c"] = str(c)
        terms.append(entry)
    return {
        "truncation": {"degree": a.truncation.degree, "species": a.truncation.species},
        "field": RATIONAL,
        "terms": terms,
    }


def series_from_json(doc: Mapping) -> MPSeries:
    t = config_mapping(*config_field(doc, "truncation"))
    trunc = Truncation(config_int(*config_field(t, "degree", "truncation"), 0),
                       config_species(*config_field(t, "species", "truncation")))
    if config_field(doc, "field")[0] != RATIONAL:
        raise ValueError(f"unknown coefficient field {doc['field']!r}")
    terms = {}
    for k, entry in enumerate(config_list(doc.get("terms", []), "terms")):
        at = f"terms[{k}]"
        entry = config_mapping(entry, at)
        n = MultiIndex({config_species(s, f'{at}.n["{s}"]', key=True):
                        config_int(e, f'{at}.n["{s}"]', 0)
                        for s, e in config_mapping(*config_field(entry, "n", at)).items()})
        c = config_number(*config_field(entry, "c", at))
        # a float is its exact binary value, as the constructor takes it
        terms[n] = Fraction(entry["c"]) if isinstance(entry["c"], float) else c
    return MPSeries(terms, trunc)
