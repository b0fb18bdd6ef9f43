"""Convergence-domain constants and numeric audits for virial coefficients.

A domain spec assigns each species contour and convergence radii 0 < r < R
and a log-derivative budget a >= 0.  From these the explicit admissible
constant C is evaluated, per-coefficient bounds are formed, the density
polydisk is described, and computed virial coefficients can be audited
against the bound.  Hypothesis checks are sampling-based reports: they can
falsify, never prove.

The hypothesis check contracts the gradient of p against per-species ring
powers.  No complex array in this module goes through BLAS (`@`, `dot`,
`tensordot`, `einsum(optimize=True)`): after one complex matmul, numpy's
complex log runs several times slower for the rest of the process.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from ._config import (EXP_MAX, config_field, config_list, config_mapping, config_number,
                      config_species)
from .series import MPSeries, MultiIndex
from .virial import PressureSeries, VirialSeries


@dataclass(frozen=True)
class SpeciesDomain:
    r: float
    R: float
    a: float

    def __post_init__(self):
        if not 0 < self.r < self.R:
            raise ValueError(f"need 0 < r < R, got r={self.r}, R={self.R}")
        if self.a < 0:
            raise ValueError(f"need a >= 0, got a={self.a}")


@dataclass(frozen=True)
class DomainSpec:
    """Per-species (r_i, R_i, a_i) for finitely many active species."""

    species: Mapping[int, SpeciesDomain]

    def __post_init__(self):
        if not self.species:
            raise ValueError("a domain spec needs at least one species")
        if any(i < 1 for i in self.species):
            raise ValueError("species indices must be >= 1")

    def require(self, indices) -> None:
        missing = [i for i in indices if i not in self.species]
        if missing:
            raise ValueError(f"species {missing} not covered by the domain spec")


def make_domain_spec(entries: Sequence[tuple[int, float, float, float]]) -> DomainSpec:
    return DomainSpec({i: SpeciesDomain(r, R, a) for i, r, R, a in entries})


def det_bound_constant(spec: DomainSpec) -> float:
    """The explicit admissible constant
    C = exp[ sum_i r_i/(u_i (R_i - r_i)) * sqrt(sum_j u_j^2 a_j^2) ]
    with the choice u_j = sqrt(r_j / R_j)."""
    quad = sum((d.r / d.R) * d.a * d.a for d in spec.species.values())
    lead = sum(d.r / (math.sqrt(d.r / d.R) * (d.R - d.r)) for d in spec.species.values())
    exponent = lead * math.sqrt(quad)
    if not exponent <= EXP_MAX:  # also refuses nan
        raise ValueError(f"the bound constant C = exp({exponent:.6g}) is not a finite float")
    return math.exp(exponent)


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def det_bound_exponent_exact(spec: DomainSpec) -> Fraction:
    """The exponent of C as an exact rational, when r_i R_i and
    sum_j (r_j/R_j) a_j^2 are rational squares; ValueError otherwise."""
    quad = Fraction(0)
    lead = Fraction(0)
    for d in spec.species.values():
        r, R, a = (Fraction(str(v)) for v in (d.r, d.R, d.a))
        quad += (r / R) * a * a
        root = _fraction_sqrt(r * R)
        if root is None:
            raise ValueError(f"sqrt(r*R) irrational for r={d.r}, R={d.R}")
        lead += root / (R - r)
    quad_root = _fraction_sqrt(quad)
    if quad_root is None:
        raise ValueError("sum of u_j^2 a_j^2 is not a rational square")
    return lead * quad_root


def _times_factor(out: float, factor: float, i: int, what: str) -> float:
    """out * factor (inf where it overflows), refused, naming species i, when
    the bound is not a finite float."""
    out *= factor
    if not math.isfinite(out):
        raise ValueError(f"species i = {i}: the bound factor {what} takes the bound "
                         f"past the largest float {sys.float_info.max:.6g}")
    return out


def virial_bound(spec: DomainSpec, sup_p: float, n: MultiIndex) -> float:
    """C * sup|p| * prod_i (e^{a_i}/r_i)^{n_i}; ValueError when that is not a
    finite float."""
    if sup_p < 0:
        raise ValueError("sup_p must be >= 0")
    return _scaled_bound(spec, det_bound_constant(spec) * sup_p, n, {})


def _scaled_bound(spec: DomainSpec, scale: float, n: MultiIndex,
                  factors: dict[tuple[int, int], float]) -> float:
    """scale * prod_i (e^{a_i}/r_i)^{n_i}, for scale = C * sup|p| computed once
    per report; `factors` memoises each (i, n_i) factor across the report's
    bounds, inf where it overflows, so every bound is the same float product
    and a non-finite one is refused for the same species."""
    spec.require(n.species)
    out = scale
    for i, e in n.items():
        f = factors.get((i, e))
        if f is None:
            d = spec.species[i]
            try:
                f = (math.exp(d.a) / d.r) ** e
            except (OverflowError, ZeroDivisionError):
                f = math.inf
            factors[i, e] = f
        out = _times_factor(out, f, i, f"(e^a/r)^{e}")
    return out


def inverse_bound(spec: DomainSpec, n: MultiIndex, k: MultiIndex) -> float:
    """C * prod_i e^{a_i (n_i + k_i)} / r_i^{n_i} for [rho^n] z(rho)^k / rho^k;
    ValueError when that is not a finite float."""
    spec.require(n.species)
    spec.require(k.species)
    out = det_bound_constant(spec)
    for i in sorted(set(n.species) | set(k.species)):
        d, ni, ki = spec.species[i], n.get(i), k.get(i)
        try:
            f = math.exp(d.a * (ni + ki)) / d.r ** ni
        except (OverflowError, ZeroDivisionError):
            f = math.inf
        out = _times_factor(out, f, i, f"e^(a·{ni + ki})/r^{ni}")
    return out


@dataclass(frozen=True)
class DensityDomain:
    """The density polydisk: |rho_i| < r_i e^{-a_i}."""

    radii: Mapping[int, float]
    spec: DomainSpec

    def contains(self, rho: Mapping[int, float]) -> bool:
        self.spec.require(rho.keys())
        return all(abs(v) < self.radii[i] for i, v in rho.items())


def density_domain(spec: DomainSpec) -> DensityDomain:
    return DensityDomain({i: d.r * math.exp(-d.a) for i, d in spec.species.items()}, spec)


def z_of_rho_bound(spec: DomainSpec, rho: Mapping[int, float], i: int) -> float:
    """C |rho_i| e^{a_i} prod_j (1 - e^{a_j}|rho_j|/r_j)^{-1}, for rho strictly
    inside the density polydisk."""
    spec.require(rho.keys())
    spec.require([i])
    product = 1.0
    for j, v in rho.items():
        d = spec.species[j]
        factor = 1.0 - math.exp(d.a) * abs(v) / d.r
        if factor <= 0:
            raise ValueError(f"rho_{j} = {v} is on or outside the density polydisk")
        product /= factor
    return det_bound_constant(spec) * abs(rho.get(i, 0.0)) * math.exp(spec.species[i].a) * product


# -- hypothesis checks ---------------------------------------------------------


@dataclass
class SpeciesLogCheck:
    species: int
    max_log_abs: float
    budget: float
    zero_found: bool
    passed: bool


@dataclass
class HypothesisReport:
    coefficient_sum: float          # sum |b(n)| R^n over stored terms
    log_checks: list[SpeciesLogCheck]
    sqrt_ratio_sum: float           # sum sqrt(r_i/R_i)
    ra2_sum: float                  # sum r_i a_i^2 / R_i
    sample_count: int
    passed: bool

    def as_dict(self) -> dict:
        return {
            "coefficient_sum_upper_bound": self.coefficient_sum,
            "log_derivative": [{"species": c.species, "max_log_abs": c.max_log_abs,
                                "budget": c.budget, "zero_found": c.zero_found,
                                "passed": c.passed} for c in self.log_checks],
            "sqrt_ratio_sum": self.sqrt_ratio_sum,
            "ra2_sum": self.ra2_sum,
            "sample_count": self.sample_count,
            "passed": self.passed,
        }


def coefficient_sum_bound(p: PressureSeries, spec: DomainSpec) -> float:
    """sum |b(n)| R^n over stored terms: an upper bound for sup_D |p| at
    truncation order (the tail is not represented)."""
    t, den, total = p.series.truncation, p.series._den, 0.0
    for key, num in p.series._terms.items():
        n = t.unpack(key)
        spec.require(n.species)
        v = abs(num / den)
        for i, e in n.items():
            v *= spec.species[i].R ** e
        total += v
    return total


# The ring grid is used while it has at most this many points: 8^S <= 4096,
# so S <= 4.
_MAX_GRID_POINTS = 4096
_RING_ANGLES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
# Complex values one block of interior points may hold in its monomial table
# (16 MiB), so the CLI's 4·10^6 sampled coordinates never need one table.
_BLOCK_VALUES = 1 << 20


def _audit_points(spec: DomainSpec, species: Sequence[int], samples: int,
                  seed: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The audit's sample points in factored form: the grid as one ring of 8
    values per species (radii r_i and R_i at angles 0, pi/2, pi, 3pi/2), no
    rings when 8^S > 4096, and `samples` random interior points of the
    activity polydisk as a (samples, S) complex array, each drawing
    (radius, angle) per species from numpy's generator seeded with `seed`.
    ValueError when samples < 0 or there would be no point at all."""
    if samples < 0:
        raise ValueError(f"the hypothesis check needs samples >= 0, got {samples}")
    width = len(species)
    gridded = 8 ** width <= _MAX_GRID_POINTS
    if not gridded and samples == 0:
        raise ValueError(f"the hypothesis check has no sample points: {width} species "
                         f"get no grid (8^S > {_MAX_GRID_POINTS}), so samples must be >= 1")
    rings = [np.array([radius * cmath.exp(1j * t) for radius in (d.r, d.R) for t in _RING_ANGLES])
             for d in (spec.species[i] for i in species)] if gridded else []
    draws = np.random.default_rng(seed).random((samples, width, 2))
    outer = np.array([spec.species[i].R for i in species])
    return rings, outer * np.sqrt(draws[..., 0]) * np.exp(1j * (2 * math.pi * draws[..., 1]))


def _sample_points(spec: DomainSpec, species: Sequence[int], samples: int,
                   seed: int) -> np.ndarray:
    """The audit's sample points as one (points, S) complex array, column k for
    species[k]: the ring grid, the tensor product of the rings with the first
    species varying fastest, then the interior points.  The grid pins the
    real-axis extremes so worked single-species examples are found without
    luck."""
    rings, interior = _audit_points(spec, species, samples, seed)
    width, grid = len(species), 8 ** len(rings) if rings else 0
    points = np.empty((grid + samples, width), dtype=complex)
    for pos, ring in enumerate(rings):
        points[:grid, pos] = np.tile(np.repeat(ring, 8 ** pos), 8 ** (width - 1 - pos))
    points[grid:] = interior
    return points


def _gradient(series: MPSeries) -> tuple[np.ndarray, np.ndarray]:
    """All S partials dp/dz_i as one table over the K distinct monomials of
    the gradient: a (K, S) array of exponents and an (S, K) float array of
    coefficients.  Each coefficient is the correctly rounded n_i b(n), the
    float that `MPSeries.diff` gives, here n_i num / den on keyed numerators."""
    t, den, width = series.truncation, series._den, series.truncation.species
    rows: dict[tuple[int, ...], list[float]] = {}
    for key, num in series._terms.items():
        n = t.unpack(key)
        dense = [0] * width
        for s, e in n.items():
            dense[s - 1] = e
        for s, e in n.items():
            dense[s - 1] -= 1
            rows.setdefault(tuple(dense), [0.0] * width)[s - 1] = num * e / den
            dense[s - 1] += 1
    exponents = np.array(list(rows), dtype=np.intp).reshape(len(rows), width)
    coefficients = np.array(list(rows.values())).reshape(len(rows), width).T
    return exponents, coefficients


def _gradient_on_grid(exponents: np.ndarray, coefficients: np.ndarray,
                      rings: list[np.ndarray], depth: int) -> np.ndarray:
    """The gradient at every ring-grid point as an (S, 8^S) complex array, in
    `_sample_points`' order.  The coefficients fill a dense (S, D, ..., D)
    tensor, species S first.  Each species axis is then contracted against
    its 8 × D matrix of ring powers, species 1 first, so the species-1 ring
    index ends up varying fastest."""
    width = len(rings)
    table = np.zeros((width,) + (depth,) * width)
    table[(slice(None),) + tuple(exponents[:, ::-1].T)] = coefficients
    done = 1
    for ring in rings:
        table = np.einsum("aeb,ke->akb", table.reshape(-1, depth, done),
                          ring[:, None] ** np.arange(depth))
        done *= 8
    return table.reshape(width, done)


def _gradient_at(exponents: np.ndarray, coefficients: np.ndarray, points: np.ndarray,
                 depth: int) -> np.ndarray:
    """The gradient at every row of `points` as an (S, points) complex array:
    one per-species table of powers z^0..z^(D-1), shared by all monomials."""
    powers = points[..., None] ** np.arange(depth)
    monomials = powers[:, np.arange(points.shape[1]), exponents].prod(axis=2)
    return np.einsum("ik,mk->im", coefficients, monomials)


def _log_extremes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `values`: the largest |log v| over the values that are not
    zeros, and whether any value is a zero (|v| < 1e-150).  |log v| is the
    modulus of (log|v|, arg v), in real passes only; both parts stay below
    800 for finite v, so their squares cannot overflow."""
    logs = np.abs(values)
    zeros = logs < 1e-150
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs)
    angle = np.angle(values)
    logs *= logs
    angle *= angle
    logs += angle
    np.sqrt(logs, out=logs)  # in place: the grid's values are the largest array here
    return logs.max(axis=1, where=~zeros, initial=0.0), zeros.any(axis=1)


def hypothesis_check(p: PressureSeries, spec: DomainSpec, samples: int,
                     seed: int = 0) -> HypothesisReport:
    """Sampling audit of the convergence hypotheses: (i) the stored-term
    coefficient sum, (ii) |log dp/dz_i| against a_i on sampled contour and
    interior points, (iii) the two summability partial sums.  Report-only.

    All S partials dp/dz_i are evaluated in one pass.  On the ring grid, a
    tensor product of per-species rings, the gradient's coefficients are
    contracted one species axis at a time against that species' 8 × D power
    matrix: O(8^S·S·D) work, however many terms the series has.  The
    interior points share one per-species power table across all monomials.
    |log v| is hypot(log|v|, arg v), since numpy's complex log is slow near
    |v| = 1.  Both sums are plain `np.einsum`: no complex array goes through
    BLAS (see the module doc).  A value below 1e-150 in modulus counts as a
    zero of the derivative, which fails the species.  ValueError when
    samples < 0, or when there is no grid (S >= 5) and samples is 0, since
    an audit of no points shows nothing.
    """
    return _hypothesis_check(p, spec, samples, seed, coefficient_sum_bound(p, spec))


def _hypothesis_check(p: PressureSeries, spec: DomainSpec, samples: int, seed: int,
                      sup_p: float) -> HypothesisReport:
    species = list(range(1, p.series.truncation.species + 1))
    spec.require(species)
    rings, interior = _audit_points(spec, species, samples, seed)
    exponents, coefficients = _gradient(p.series)
    depth = max(p.series.truncation.degree, 1)
    extremes = []
    if rings:
        extremes.append(_log_extremes(_gradient_on_grid(exponents, coefficients, rings, depth)))
    # interior points in blocks, so no monomial table outgrows _BLOCK_VALUES
    block = max(1, _BLOCK_VALUES // max(exponents.size, depth * len(species)))
    for k in range(0, samples, block):
        values = _gradient_at(exponents, coefficients, interior[k:k + block], depth)
        extremes.append(_log_extremes(values))
    worst = np.max([w for w, _ in extremes], axis=0).tolist()
    zeros = np.any([z for _, z in extremes], axis=0).tolist()

    checks = []
    for i, w, zero_found in zip(species, worst, zeros):
        budget = spec.species[i].a
        checks.append(SpeciesLogCheck(i, w, budget, zero_found,
                                      (not zero_found) and w < budget))

    sqrt_sum = sum(math.sqrt(d.r / d.R) for d in spec.species.values())
    ra2 = sum(d.r * d.a * d.a / d.R for d in spec.species.values())
    grid = 8 ** len(species) if rings else 0
    return HypothesisReport(sup_p, checks, sqrt_sum, ra2, grid + samples,
                            all(c.passed for c in checks))


@dataclass
class BoundAuditEntry:
    index: MultiIndex
    value: float
    bound: float
    margin: float
    ok: bool


@dataclass
class BoundAuditReport:
    sup_p: float                     # truncation-order upper bound for sup_D |p|
    entries: list[BoundAuditEntry]
    violations: list[BoundAuditEntry]
    passed: bool

    def as_dict(self) -> dict:
        def entry(e: BoundAuditEntry) -> dict:
            return {"n": {str(s): x for s, x in e.index.items()}, "value": e.value,
                    "bound": e.bound, "margin": e.margin, "ok": e.ok}
        return {
            "sup_p_truncation_order_upper_bound": self.sup_p,
            "entries": [entry(e) for e in self.entries],
            "violations": [entry(e) for e in self.violations],
            "passed": self.passed,
        }


def check_coefficient_bounds(p: PressureSeries, spec: DomainSpec,
                             c: VirialSeries) -> BoundAuditReport:
    """Audit every computed coefficient against C sup|p| prod (e^a/r)^n.

    A violation means a bug or a failed hypothesis and is flagged loudly in
    the report; the audit itself never raises.
    """
    sup_p = coefficient_sum_bound(p, spec)
    return _coefficient_audit(spec, c, sup_p, det_bound_constant(spec) * sup_p, {})


def _coefficient_audit(spec: DomainSpec, c: VirialSeries, sup_p: float,
                       scale: float, factors: dict) -> BoundAuditReport:
    entries = []
    for n, value in c.series.sorted_terms():
        bound = _scaled_bound(spec, scale, n, factors)
        v = abs(float(value))
        entries.append(BoundAuditEntry(n, v, bound, bound - v, v <= bound))
    violations = [e for e in entries if not e.ok]
    return BoundAuditReport(sup_p, entries, violations, not violations)


@dataclass
class BoundReport:
    """Everything `bounds compute` reports: the constant, per-index bound
    values, and (when a pressure series is supplied) the hypothesis report
    and coefficient audit."""

    constant: float
    per_n_bounds: list[tuple[MultiIndex, float]]
    hypothesis: HypothesisReport | None = None
    audit: BoundAuditReport | None = None

    def __post_init__(self):
        if self.constant < 1.0:
            raise AssertionError("the bound constant is exp of a nonnegative sum")

    @property
    def passed(self) -> bool:
        for part in (self.hypothesis, self.audit):
            if part is not None and not part.passed:
                return False
        return True

    def as_dict(self) -> dict:
        doc = {"constant": self.constant,
               "per_n_bounds": [{"n": {str(s): e for s, e in n.items()}, "bound": b}
                                for n, b in self.per_n_bounds]}
        if self.hypothesis is not None:
            doc["hypothesis"] = self.hypothesis.as_dict()
        if self.audit is not None:
            doc["audit"] = self.audit.as_dict()
        return doc


def bound_report(spec: DomainSpec, p: PressureSeries | None = None,
                 c: VirialSeries | None = None, indices=(),
                 samples: int = 500, seed: int = 0) -> BoundReport:
    """The constant C and sup|p| are computed once and shared by every
    per-index bound, the hypothesis report and the audit."""
    constant = det_bound_constant(spec)
    factors: dict[tuple[int, int], float] = {}  # shared by every bound below
    if p is None:
        return BoundReport(constant, [(n, _scaled_bound(spec, constant, n, factors))
                                      for n in indices])
    sup_p = coefficient_sum_bound(p, spec)
    scale = constant * sup_p
    per_n = [(n, _scaled_bound(spec, scale, n, factors)) for n in indices]
    hypothesis = _hypothesis_check(p, spec, samples, seed, sup_p)
    audit = _coefficient_audit(spec, c, sup_p, scale, factors) if c is not None else None
    return BoundReport(constant, per_n, hypothesis, audit)


# -- JSON ------------------------------------------------------------------------


def domain_spec_to_json(spec: DomainSpec) -> dict:
    return {"species": [{"i": i, "r": d.r, "R": d.R, "a": d.a}
                        for i, d in sorted(spec.species.items())]}


def domain_spec_from_json(doc: Mapping) -> DomainSpec:
    species = {}
    for k, entry in enumerate(config_list(*config_field(doc, "species"))):
        at = f"species[{k}]"
        e = config_mapping(entry, at)
        r = float(config_number(*config_field(e, "r", at), "a radius r > 0", lambda x: x > 0))
        R = float(config_number(*config_field(e, "R", at), "a radius R > r", lambda x: x > r))
        a = float(config_number(*config_field(e, "a", at), "a budget a >= 0", lambda x: x >= 0))
        i = config_species(*config_field(e, "i", at))
        if i in species:
            raise ValueError(f"{at}.i: species {i} is given twice")
        species[i] = SpeciesDomain(r, R, a)
    return DomainSpec(species)
