"""Pressure series from coloured-graph weights and three independent routes to
the virial coefficients.

The pressure is the weighted exponential generating function of connected
coloured graphs; densities are rho_i = z_i dp/dz_i.  The coefficients c(n) of
p as a series in the densities are computed by

* recursive inversion of b(k) = sum_{n<=k} c(n) [z^k] rho(z)^n, order by order,
* Lagrange-Good coefficient extraction with the determinant factor det M(z),
* the two-connected-graph formula (valid for block-factorizing weights).

Exact agreement of the three routes on block-factorizing models is the
central cross-check of the whole package.

Both graph sums come from the weight source, per (vertex count, colouring):
`connected_sum` for the pressure and `two_connected_sum` for the
two-connected route, each as (sum, stderr).  One builder, `_weight_sums`,
turns either into a series and the standard error of each coefficient, so
this module never asks what kind of source it reads.  A Monte Carlo sum is a
float and enters the series at its exact binary value, so every route runs
in exact arithmetic on every source, and on one pressure the recursive and
Lagrange-Good routes agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graphs import (
    MAX_WEIGHT_SUM_VERTICES,
    _two_connected_classes,
    canonical_colouring,
    canonical_coloured_key,  # noqa: F401  perfbench's tracer wraps this attribute by name
)
from .series import (
    MPSeries,
    MultiIndex,
    SeriesMatrix,
    Truncation,
    _add_into,
    _numerators,
    _powers,
    admissible_indices,
    coefficient_of_product,
    determinant,
    exp,
    reciprocal,
    substitute,
)
from .weights import McParams, McWeightSource, PairPotential

RECURSIVE = "recursive"
LAGRANGE_GOOD = "lagrange_good"
TWO_CONNECTED = "two_connected"


@dataclass(frozen=True)
class PressureSeries:
    """Pressure as a series in the activities; zero constant term, and
    b(e_k) = 1 for weight-model-built series."""

    series: MPSeries

    def __post_init__(self):
        if self.series.constant_term != 0:
            raise ValueError("a pressure series has zero constant term")


@dataclass(frozen=True)
class DensityFamily:
    """Per-species density series rho_i(z) = z_i dp/dz_i."""

    by_species: Mapping[int, MPSeries]


@dataclass(frozen=True)
class VirialSeries:
    """The pressure as a series in the densities, tagged with the method."""

    series: MPSeries
    method: str


@dataclass(frozen=True)
class TwoConnectedGF:
    """Generating function of two-connected coloured graphs in the densities;
    every term has total degree >= 2."""

    series: MPSeries

    def __post_init__(self):
        low = 2 * self.series.truncation._places[0]  # keys of degree >= 2 are not below it
        if any(k < low for k in self.series._terms):
            raise ValueError("a two-connected generating function must not carry "
                             "terms of degree < 2")


@dataclass(frozen=True)
class InversionProblem:
    """Functional inversion data: per-species series F_k with F_k(0) != 0,
    for the system u_k = w_k F_k(w)."""

    F: Mapping[int, MPSeries]
    truncation: Truncation

    def __post_init__(self):
        for k in range(1, self.truncation.species + 1):
            if k not in self.F:
                raise ValueError(f"missing series F_{k}")
        for k, s in self.F.items():
            if not 1 <= k <= self.truncation.species:
                raise ValueError(f"series F_{k} is outside the species cap")
            if s.constant_term == 0:
                raise ValueError(f"F_{k}(0) = 0; inversion needs nonzero constant terms")


# -- building the pressure ----------------------------------------------------


def _check_weight_sum_size(truncation: Truncation) -> None:
    if truncation.degree > MAX_WEIGHT_SUM_VERTICES:
        raise ValueError(f"weight sums are capped at degree {MAX_WEIGHT_SUM_VERTICES} "
                         f"(labelled graphs on at most {MAX_WEIGHT_SUM_VERTICES} vertices), "
                         f"got degree {truncation.degree}")


def largest_two_connected_class(truncation: Truncation) -> tuple[int, int, int]:
    """(vertices, labelled graphs, edges) of the two-connected class with the
    most labelled graphs × edges up to the truncation, (0, 0, 0) below degree
    2: a Monte Carlo source's largest run on the two-connected route draws
    count × samples samples of `edges` Mayer factors each.  Degrees above
    MAX_WEIGHT_SUM_VERTICES raise ValueError.  Only one-colour tables are read:
    no class outgrows its graph's orbit under all m! relabellings."""
    _check_weight_sum_size(truncation)
    return max(((m, count, key[2].bit_count())
                for m in range(2, truncation.degree + 1)
                for key, count in _two_connected_classes(m, (1,) * m)),
               key=lambda run: run[1] * run[2], default=(0, 0, 0))


def _weight_sums(source_method, truncation: Truncation,
                 min_degree: int) -> tuple[MPSeries, dict[MultiIndex, float]]:
    """(sum_n x^n S(n)/n!, {n: stderr of S(n)/n!}) over the admissible n of
    degree >= min_degree, with (S(n), stderr) = source_method(|n|, canonical
    colouring of n) and S(n) exact: a float sum at its binary value.  A sum
    that is not finite, and degrees above MAX_WEIGHT_SUM_VERTICES, raise
    ValueError."""
    _check_weight_sum_size(truncation)
    values, errors = {}, {}
    for n in admissible_indices(truncation, min_degree=min_degree):
        colours = canonical_colouring(n)
        s, err = source_method(n.degree, colours)
        try:
            s = Fraction(s)
        except (OverflowError, ValueError):
            raise ValueError(f"the weight sum on {n.degree} vertices coloured {colours} "
                             f"is {s}, not a finite number") from None
        values[truncation.pack(n)] = s / n.factorial()
        errors[n] = err / n.factorial()
    return MPSeries.one(truncation)._keyed(*_numerators(values)), errors


def _pressure(source, truncation: Truncation) -> tuple[PressureSeries, dict[MultiIndex, float]]:
    series, errors = _weight_sums(source.connected_sum, truncation, min_degree=1)
    for k in range(1, truncation.species + 1):
        if truncation.degree >= 1 and series[MultiIndex.single(k)] != 1:
            raise AssertionError(f"weight-built pressure must have b(e_{k}) = 1")
    return PressureSeries(series), errors


def pressure_from_weights(model, truncation: Truncation) -> PressureSeries:
    """b(n) = (1/n!) sum over connected graphs on |n| vertices with the
    canonical colouring of n, one `model.connected_sum` per (|n|, colouring):
    exact from a synthetic model's class table, one joint estimate from one
    sample stream for a Monte Carlo source.  Degrees above
    MAX_WEIGHT_SUM_VERTICES raise ValueError.
    """
    return _pressure(model, truncation)[0]


def mc_pressure_series(potential: PairPotential, params: McParams,
                       truncation: Truncation) -> tuple[PressureSeries, dict[MultiIndex, float]]:
    """Monte Carlo pressure series plus the standard error of each b(n): the
    pressure `pressure_from_weights` builds from McWeightSource(potential,
    params), with the errors its `connected_sum` reports.  Each b(n) is the
    float joint sum S of its (vertex count, colouring) taken exactly,
    Fraction(S) / n!, and its error is the float stderr of S over n!."""
    return _pressure(McWeightSource(potential, params), truncation)


def densities(p: PressureSeries) -> DensityFamily:
    """rho_i(z) = z_i dp/dz_i for every species under the cap."""
    t = p.series.truncation
    return DensityFamily({k: p.series.diff(k).mul_var(k) for k in range(1, t.species + 1)})


def _active_species(p: PressureSeries) -> tuple[int, ...]:
    seen: set[int] = set()
    for n in p.series.terms:
        seen.update(n.species)
    return tuple(sorted(seen))


def _check_invertible(series: MPSeries, species) -> dict[int, object]:
    b1 = {}
    for i in species:
        b = series[MultiIndex.single(i)]
        if b == 0:
            raise ValueError(f"b(e_{i}) = 0: the density relation is not invertible "
                             f"for species {i}")
        b1[i] = b
    return b1


# -- route 1: recursive inversion ----------------------------------------------


def invert_recursive(p: PressureSeries) -> VirialSeries:
    """Solve b(k) = sum_{n<=k} c(n) [z^k] rho^n order by order in
    graded-lexicographic order (any order respecting n <= k gives the same
    unique answer)."""
    series = p.series
    t = series.truncation
    active = _active_species(p)
    b1 = _check_invertible(series, active)
    fam = densities(p).by_species

    rho_power = _powers(fam, t)
    one = MPSeries.one(t)
    # rho^n = rho^(n without its top species s) * rho_s^(n_s), memoised by the
    # key of n, the prefix's key being that of n less n_s z_s
    monomials = {0: one}

    def rho_monomial(key: int) -> MPSeries:
        if key not in monomials:
            *_, (s, e) = t.unpack(key).items()
            monomials[key] = rho_monomial(key - e * t._steps[s - 1]) * rho_power(s, e)
        return monomials[key]

    active_set = set(active)
    # sum of processed c(n) rho^n: keyed numerators over `den`, added in place
    running, den = {}, 1
    coeffs = {}
    for n in admissible_indices(t, min_degree=1):
        if not set(n.species) <= active_set:
            continue
        diagonal = Fraction(1)
        for s, e in n.items():
            diagonal *= b1[s] ** e
        key = t.pack(n)
        done = Fraction(running.get(key, 0), den)
        c = (series._coefficient(key) - done) / diagonal
        if c != 0:
            coeffs[key] = c
            term = rho_monomial(key).scaled(c)
            den = _add_into(running, den, term._terms, term._den)
    return VirialSeries(one._keyed(*_numerators(coeffs)), RECURSIVE)


# -- route 2: Lagrange-Good extraction ------------------------------------------


class LagrangeGoodInverter:
    """Coefficient extraction c(n) = [z^n] p * (dp/dz)^{-n} * det M(z) with
    M_ij = delta_ij + z_i d2p/dz_i dz_j / (dp/dz_i) over species 1..N.

    Any N >= top(n), the largest species in n, gives the same [z^n]: at z_j = 0
    for every j > top(n), row j of M is the unit row, so M is block triangular
    and det M_N is the determinant over species 1..top(n).  So the inverter
    holds one A = p * det M_N and the reciprocals 1/(dp/dz_i) for i <= N, N the
    largest top species requested so far, and one c(n) is a single extraction
    [z^n] A * prod_i (1/(dp/dz_i))^{n_i} over the box of exponents <= n
    (`coefficient_of_product`, with 1/(dp/dz_i) repeated n_i times).
    """

    def __init__(self, p: PressureSeries):
        self.series = p.series
        self._top = -1  # N; no A before the first request
        self._a: MPSeries | None = None
        self._recip: list[MPSeries] = []

    def coefficient(self, n: MultiIndex):
        pairs = n.items()
        top = pairs[-1][0] if pairs else 0
        if top > self._top:
            p, species = self.series, range(1, top + 1)
            _check_invertible(p, species)  # before anything is replaced
            dp = [p.diff(i) for i in species]
            recip = self._recip + [reciprocal(d) for d in dp[len(self._recip):]]
            rows = [[dp[i - 1].diff(j).mul_var(i) * recip[i - 1] for j in species]
                    for i in species]
            for i, row in enumerate(rows):
                row[i] = MPSeries.one(p.truncation) + row[i]
            self._a = p * determinant(SeriesMatrix(rows, p.truncation))
            self._top, self._recip = top, recip
        factors = [self._a] + [self._recip[i - 1] for i, e in pairs for _ in range(e)]
        return coefficient_of_product(factors, n)


def invert_lagrange_good(p: PressureSeries, n: MultiIndex):
    """One coefficient c(n) by Lagrange-Good extraction."""
    return LagrangeGoodInverter(p).coefficient(n)


# -- route 3: two-connected graphs ----------------------------------------------


def _require_block_factorizing(model):
    if not getattr(model, "block_factorizing", False):
        raise ValueError("this route needs a block-factorizing weight source; "
                         "the caller asserts the hypothesis")


def virial_from_two_connected(model, truncation: Truncation) -> VirialSeries:
    """c(e_k) = 1 and c(n) = -(|n| - 1) [rho^n] B for |n| >= 2, read off the
    two-connected generating function B of `two_connected_gf`.  Valid when
    the weights factorize over blocks; the route never builds the pressure.
    Degrees above MAX_WEIGHT_SUM_VERTICES raise ValueError.
    """
    B = two_connected_gf(model, truncation).series
    # keyed numerators over B's denominator: 1 at each e_k (key _steps[k - 1]),
    # then -(|n| - 1) b(n), |n| being a key's degree digit
    terms = {step: B._den for step in truncation._steps if truncation.degree >= 1}
    top = truncation._places[0]
    terms.update((k, -(k // top - 1) * c) for k, c in B._terms.items())
    return VirialSeries(B._keyed(terms, B._den), TWO_CONNECTED)


def two_connected_gf(model, truncation: Truncation) -> TwoConnectedGF:
    """B(rho) = sum_{|n|>=2} rho^n / n! * (two-connected weight sum), one
    `model.two_connected_sum` per (|n|, colouring).  Both kinds of source sum
    over graphs.py's class table: exactly, or with one Monte Carlo run per
    class (27 at degree 4 over two species, against 57 labelled graphs).
    Degrees above MAX_WEIGHT_SUM_VERTICES raise ValueError.
    """
    _require_block_factorizing(model)
    series, _ = _weight_sums(model.two_connected_sum, truncation, min_degree=2)
    return TwoConnectedGF(series)


def chemical_potential(model, truncation: Truncation, k: int) -> MPSeries:
    """The chemical-potential correction log z_k - log rho_k = -dB/drho_k."""
    B = two_connected_gf(model, truncation).series
    return -B.diff(k)


@dataclass
class GhostReport:
    per_species: dict[int, bool]
    max_residual: Fraction
    passed: bool


def verify_ghost_relation(model, truncation: Truncation) -> GhostReport:
    """Check rho_k(z) = z_k exp(dB/drho_k(rho(z))) exactly up to truncation.

    The left side comes from the connected-graph pressure, the right side from
    the two-connected generating function; equality is the rooted dissymmetry
    identity, with the root of dB/drho_k acting as a ghost vertex of colour k.
    On a Monte Carlo source both sides are exact functions of independent
    estimates, so the check runs and fails by the sampling error.
    """
    _require_block_factorizing(model)
    p = pressure_from_weights(model, truncation)
    fam = densities(p).by_species
    B = two_connected_gf(model, truncation).series
    per_species = {}
    worst = Fraction(0)
    for k in range(1, truncation.species + 1):
        rhs = exp(substitute(B.diff(k), fam)).mul_var(k)
        diff = rhs - fam[k]
        per_species[k] = diff.is_zero()
        for c in diff.terms.values():
            worst = max(worst, abs(c))
    return GhostReport(per_species, worst, all(per_species.values()))


# -- functional inversion (general inverse function theorem form) ----------------


def functional_inverse(problem: InversionProblem) -> dict[int, MPSeries]:
    """Solve u_k = w_k F_k(w) for w_k(u) = u_k G_k(u), order by order.

    Iterating w <- (u_k / F_k(w))_k gains one exact order per pass; the
    computation runs one degree above the problem truncation so that G_k is
    exact through the full requested degree.
    """
    t = problem.truncation
    lifted = Truncation(t.degree + 1, t.species)
    F = {k: s.with_truncation(lifted) for k, s in problem.F.items()}
    H = {k: reciprocal(F[k]) for k in F}
    w = {k: MPSeries.variable(k, lifted).scaled(H[k].constant_term) for k in F}
    for _ in range(t.degree + 1):
        w = {k: substitute(H[k], w).mul_var(k) for k in F}
    return w


def invert_functional(problem: InversionProblem, k: int, n: MultiIndex):
    """[u^n] G_k(u) where the inverse is w_k(u) = u_k G_k(u)."""
    if k not in problem.F:
        raise ValueError(f"no series F_{k} in the problem")
    if not problem.truncation.admits(n):
        raise ValueError(f"{n!r} not admissible at the problem truncation")
    w = functional_inverse(problem)
    g_k = w[k].div_var(k).with_truncation(problem.truncation)
    return g_k[n]


def virial_inversion_problem(p: PressureSeries) -> InversionProblem:
    """The virial specialisation F_k = dp/dz_k, so that z_k(rho) = rho_k G_k(rho)."""
    t = p.series.truncation
    return InversionProblem({k: p.series.diff(k) for k in range(1, t.species + 1)}, t)
