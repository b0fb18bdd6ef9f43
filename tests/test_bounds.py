import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from virialkit.bounds import (
    DomainSpec,
    SpeciesDomain,
    check_coefficient_bounds,
    coefficient_sum_bound,
    density_domain,
    det_bound_constant,
    det_bound_exponent_exact,
    domain_spec_from_json,
    domain_spec_to_json,
    hypothesis_check,
    inverse_bound,
    make_domain_spec,
    virial_bound,
    z_of_rho_bound,
)
import virialkit.bounds as bounds_mod
from virialkit.bounds import (
    _audit_points,
    _gradient,
    _gradient_at,
    _gradient_on_grid,
    _sample_points,
    bound_report,
)
from virialkit.series import MPSeries, MultiIndex, Truncation, admissible_indices
from virialkit.virial import PressureSeries, invert_recursive, pressure_from_weights
from virialkit.weights import SyntheticBlockModel

WORKED = make_domain_spec([(1, 0.25, 1.0, 1.0)])


def e(*exps):
    return MultiIndex.from_exponents(exps)


def test_species_domain_validation():
    with pytest.raises(ValueError):
        SpeciesDomain(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        SpeciesDomain(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SpeciesDomain(0.1, 1.0, -0.5)
    with pytest.raises(ValueError):
        DomainSpec({})


def test_det_bound_constant_zero_budget_is_one():
    spec = make_domain_spec([(1, 0.25, 1.0, 0.0), (2, 0.1, 0.3, 0.0)])
    assert det_bound_constant(spec) == 1.0


def test_det_bound_constant_worked_value():
    # u = 1/2, leading factor r/(u(R-r)) = 2/3, sqrt term = 1/2: C = e^(1/3)
    assert det_bound_constant(WORKED) == pytest.approx(math.exp(1.0 / 3.0), abs=1e-12)
    assert det_bound_exponent_exact(WORKED) == Fraction(1, 3)


def test_det_bound_constant_two_identical_species():
    spec = make_domain_spec([(1, 0.25, 1.0, 1.0), (2, 0.25, 1.0, 1.0)])
    # independent evaluation of the same closed form
    u2 = 0.25 / 1.0
    expected = math.exp((2 * 0.25 / (math.sqrt(u2) * 0.75)) * math.sqrt(2 * u2 * 1.0))
    assert det_bound_constant(spec) == pytest.approx(expected, abs=1e-12)


def test_det_bound_monotone_in_a_and_r():
    rng = random.Random(8)
    for _ in range(50):
        R = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.05, 0.9) * R
        a = rng.uniform(0.0, 2.0)
        base = det_bound_constant(make_domain_spec([(1, r, R, a)]))
        assert det_bound_constant(make_domain_spec([(1, r, R, a + 0.3)])) >= base
        r2 = min(r * 1.2, 0.99 * R)
        assert det_bound_constant(make_domain_spec([(1, r2, R, a)])) >= base


def test_virial_bound_examples():
    C = det_bound_constant(WORKED)
    assert virial_bound(WORKED, 1.0, MultiIndex()) == pytest.approx(C)
    expected = C * (math.e / 0.25) ** 2
    assert virial_bound(WORKED, 1.0, e(2)) == pytest.approx(expected)
    assert expected == pytest.approx(165.0, abs=0.01)
    with pytest.raises(ValueError):
        virial_bound(WORKED, 1.0, e(0, 1))
    with pytest.raises(ValueError):
        virial_bound(WORKED, -1.0, e(1))


def test_virial_bound_increment_factor():
    C = det_bound_constant(WORKED)
    for n in (MultiIndex(), e(1), e(2)):
        up = MultiIndex({**dict(n.items()), 1: n.get(1) + 1})
        ratio = virial_bound(WORKED, 2.0, up) / virial_bound(WORKED, 2.0, n)
        assert ratio == pytest.approx(math.exp(1.0) / 0.25, rel=1e-12)
    # doubling r halves the per-unit factor once the constant is divided out
    spec2 = make_domain_spec([(1, 0.5, 1.0, 1.0)])
    unit1 = virial_bound(WORKED, 1.0, e(1)) / det_bound_constant(WORKED)
    unit2 = virial_bound(spec2, 1.0, e(1)) / det_bound_constant(spec2)
    assert unit2 == pytest.approx(unit1 / 2.0, rel=1e-12)


def test_inverse_bound_examples():
    C = det_bound_constant(WORKED)
    assert inverse_bound(WORKED, MultiIndex(), MultiIndex()) == pytest.approx(C)
    expected = C * math.exp(1.0 * (1 + 1)) / 0.25
    assert inverse_bound(WORKED, e(1), e(1)) == pytest.approx(expected)
    assert expected == pytest.approx(41.249, abs=0.001)
    # increasing any k_i multiplies by e^{a_i}
    assert inverse_bound(WORKED, e(1), e(2)) == \
        pytest.approx(inverse_bound(WORKED, e(1), e(1)) * math.exp(1.0), rel=1e-12)


def test_density_domain():
    d = density_domain(WORKED)
    assert d.radii[1] == pytest.approx(0.25 * math.exp(-1.0), abs=1e-12)
    assert d.contains({1: 0.0})
    assert d.contains({1: 0.05})
    assert not d.contains({1: 0.1})
    zero_budget = density_domain(make_domain_spec([(1, 0.25, 1.0, 0.0)]))
    assert zero_budget.radii[1] == 0.25
    # radii shrink strictly as a grows
    for a in (0.1, 0.5, 1.0, 2.0):
        smaller = density_domain(make_domain_spec([(1, 0.25, 1.0, a)])).radii[1]
        assert smaller < density_domain(make_domain_spec([(1, 0.25, 1.0, a - 0.05)])).radii[1]


def test_z_of_rho_bound():
    assert z_of_rho_bound(WORKED, {1: 0.0}, 1) == 0.0
    value = z_of_rho_bound(WORKED, {1: 0.01}, 1)
    expected = det_bound_constant(WORKED) * 0.01 * math.e / (1 - math.e * 0.01 / 0.25)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.042565, abs=1e-5)
    # grows without bound near the edge of the density polydisk
    near = z_of_rho_bound(WORKED, {1: 0.25 * math.exp(-1) * 0.999999}, 1)
    assert near > 1e4
    with pytest.raises(ValueError):
        z_of_rho_bound(WORKED, {1: 0.25 * math.exp(-1)}, 1)


# -- hypothesis check -----------------------------------------------------------------


def pressure(terms, degree, species):
    return PressureSeries(MPSeries(terms, Truncation(degree, species)))


def test_hypothesis_check_ideal_gas_passes():
    p = pressure({e(1): 1, e(0, 1): 1}, 3, 2)
    spec = make_domain_spec([(1, 0.25, 1.0, 0.5), (2, 0.25, 1.0, 0.5)])
    report = hypothesis_check(p, spec, samples=100)
    assert report.passed
    for check in report.log_checks:
        assert check.max_log_abs == pytest.approx(0.0, abs=1e-12)
    assert report.coefficient_sum == pytest.approx(2.0)
    assert report.sqrt_ratio_sum == pytest.approx(2 * 0.5)
    assert report.ra2_sum == pytest.approx(2 * 0.25 * 0.25)


def test_hypothesis_check_worked_example():
    # dp/dz = 1 - 2z over |z| <= 1/4: the extreme |log| is log 2 at z = 1/4
    p = pressure({e(1): 1, e(2): -1}, 3, 1)
    spec = make_domain_spec([(1, 0.1, 0.25, 0.75)])
    report = hypothesis_check(p, spec, samples=400)
    assert report.passed
    assert report.log_checks[0].max_log_abs == pytest.approx(math.log(2.0), abs=1e-9)


def test_hypothesis_check_detects_violation():
    p = pressure({e(1): 1, e(2): -1}, 3, 1)
    spec = make_domain_spec([(1, 0.1, 0.25, 0.5)])
    report = hypothesis_check(p, spec, samples=400)
    assert not report.passed


def test_hypothesis_check_flags_vanishing_derivative():
    # dp/dz = 1 - 2z vanishes at z = 0.5 = R, which the deterministic grid
    # pins exactly: an automatic failure regardless of the budget
    p = pressure({e(1): 1, e(2): -1}, 3, 1)
    spec = make_domain_spec([(1, 0.1, 0.5, 10.0)])
    report = hypothesis_check(p, spec, samples=50, seed=1)
    assert report.log_checks[0].zero_found
    assert not report.passed


def dict_sample_points(spec, species, samples, seed):
    """The per-point reference for `_sample_points`: one dict {species: z} per
    point, the grid walked with an odometer (first species fastest), then one
    (radius, angle) draw per species and point."""
    angles = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
    points = []
    if 8 ** len(species) <= 4096:
        choices = []
        for i in species:
            d = spec.species[i]
            choices.append([radius * cmath.exp(1j * t)
                            for radius in (d.r, d.R) for t in angles])
        idx = [0] * len(species)
        while True:
            points.append({i: choices[pos][idx[pos]] for pos, i in enumerate(species)})
            for pos in range(len(species)):
                idx[pos] += 1
                if idx[pos] < len(choices[pos]):
                    break
                idx[pos] = 0
            else:
                break
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        z = {}
        for i in species:
            d = spec.species[i]
            radius = d.R * math.sqrt(rng.random())
            z[i] = radius * cmath.exp(2j * math.pi * rng.random())
        points.append(z)
    return points


def per_point_log_checks(p, spec, samples, seed):
    """The per-point reference for the log-derivative audit: `MPSeries.evaluate`
    and `cmath.log` at each oracle point; [(max |log|, zero found)] per species."""
    species = list(range(1, p.series.truncation.species + 1))
    points = dict_sample_points(spec, species, samples, seed)
    out = []
    for i in species:
        partial = p.series.diff(i)
        worst, zero_found = 0.0, False
        for z in points:
            value = partial.evaluate(z)
            if abs(value) < 1e-150:
                zero_found = True
                continue
            worst = max(worst, abs(cmath.log(value)))
        out.append((worst, zero_found))
    return out, len(points)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_sample_points_match_the_dict_oracle_bit_for_bit(width):
    species = list(range(1, width + 1))
    spec = make_domain_spec([(i, 0.01 * i, 0.03 * i + 0.1, 1.0) for i in species])
    for seed, samples in ((0, 0), (1, 1), (7, 90)):
        if width == 5 and samples == 0:
            continue  # no grid and no samples: refused, tested below
        expected = np.array([[z[i] for i in species]
                             for z in dict_sample_points(spec, species, samples, seed)])
        got = _sample_points(spec, species, samples, seed)
        assert got.shape == expected.shape == (len(expected), width)
        assert got.tobytes() == expected.tobytes()  # signed zeros included


@pytest.mark.parametrize("width,degree", [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_hypothesis_check_matches_the_per_point_oracle(width, degree):
    spec = make_domain_spec([(i, 0.005, 0.02, 0.3) for i in range(1, width + 1)])
    for seed in (2, 11):
        p = pressure_from_weights(SyntheticBlockModel.random(seed, width),
                                  Truncation(degree, width))
        report = hypothesis_check(p, spec, samples=40, seed=seed)
        expected, count = per_point_log_checks(p, spec, 40, seed)
        assert report.sample_count == count
        for check, (worst, zero_found) in zip(report.log_checks, expected, strict=True):
            assert check.max_log_abs == pytest.approx(worst, abs=1e-12)
            assert check.zero_found == zero_found
            assert check.passed == ((not zero_found) and worst < check.budget)
        assert report.passed == all(w < 0.3 and not z for w, z in expected)


def test_hypothesis_check_matches_the_oracle_on_a_vanishing_derivative():
    # dp/dz_1 = 1 - 2 z_1 vanishes at z_1 = R_1 = 1/2, a grid point for every z_2
    p = pressure({e(1): 1, e(2): -1, e(0, 1): 1, e(0, 2): Fraction(1, 3)}, 3, 2)
    spec = make_domain_spec([(1, 0.1, 0.5, 10.0), (2, 0.1, 0.3, 10.0)])
    report = hypothesis_check(p, spec, samples=30, seed=4)
    expected, count = per_point_log_checks(p, spec, 30, seed=4)
    assert report.sample_count == count == 64 + 30
    assert [c.zero_found for c in report.log_checks] == [True, False]
    for check, (worst, zero_found) in zip(report.log_checks, expected, strict=True):
        assert check.max_log_abs == pytest.approx(worst, abs=1e-12)
        assert check.zero_found == zero_found
    assert not report.passed


def random_pressure(width, degree, seed):
    """z_1 + ... + z_S plus every admissible monomial of degree >= 2 with a
    small random rational coefficient: a dense pressure whose gradient stays
    near 1 on the audit domains below."""
    rng = random.Random(seed)
    t = Truncation(degree, width)
    terms = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for n in admissible_indices(t, min_degree=2)}
    terms.update({MultiIndex.single(i): 1 for i in range(1, width + 1)})
    return pressure(terms, degree, width)


def assert_matches_the_oracle(p, spec, samples, seed):
    report = hypothesis_check(p, spec, samples=samples, seed=seed)
    expected, count = per_point_log_checks(p, spec, samples, seed)
    assert report.sample_count == count
    for check, (worst, zero_found) in zip(report.log_checks, expected, strict=True):
        assert check.max_log_abs == pytest.approx(worst, abs=1e-12)
        assert check.zero_found == zero_found
        assert check.passed == ((not zero_found) and worst < check.budget)
    return report


@pytest.mark.parametrize("degree", [5, 6])
def test_hypothesis_check_matches_the_oracle_on_a_deep_four_species_grid(degree):
    spec = make_domain_spec([(i, 0.01, 0.04, 0.5) for i in range(1, 5)])
    assert_matches_the_oracle(random_pressure(4, degree, degree), spec, 20, seed=degree)


@pytest.mark.parametrize("width", [5, 6, 7])
def test_hypothesis_check_matches_the_oracle_on_interior_points_only(width):
    spec = make_domain_spec([(i, 0.01, 0.04, 0.5) for i in range(1, width + 1)])
    report = assert_matches_the_oracle(random_pressure(width, 3, width), spec, 70, seed=width)
    assert report.sample_count == 70


def point_by_point_gradient(p, points):
    """Every dp/dz_i at every row of `points`, through `MPSeries.diff` and
    `MPSeries.evaluate`: an (S, points) array."""
    width = p.series.truncation.species
    partials = [p.series.diff(i) for i in range(1, width + 1)]
    return np.array([[partial.evaluate({s + 1: z for s, z in enumerate(row)}) for row in points]
                     for partial in partials])


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_gradient_on_grid_and_interior_match_the_sample_point_rows(width):
    species = list(range(1, width + 1))
    spec = make_domain_spec([(i, 0.1 * i, 0.3 * i + 0.1, 1.0) for i in species])
    degree = 7 - width
    p = random_pressure(width, degree, 40 + width)
    exponents, coefficients = _gradient(p.series)
    rings, interior = _audit_points(spec, species, 25, seed=3)
    points = _sample_points(spec, species, 25, seed=3)
    expected = point_by_point_gradient(p, points)
    grid = 8 ** width
    on_grid = _gradient_on_grid(exponents, coefficients, rings, degree)
    at_points = _gradient_at(exponents, coefficients, interior, degree)
    assert on_grid.shape == (width, grid) and at_points.shape == (width, 25)
    assert np.abs(on_grid - expected[:, :grid]).max() < 1e-12
    assert np.abs(at_points - expected[:, grid:]).max() < 1e-12


def view_sum_bound(p, spec):
    """The oracle of `coefficient_sum_bound`: read through the `terms` view,
    one MultiIndex and one Fraction per term."""
    total = 0.0
    for n, c in p.series.terms.items():
        spec.require(n.species)
        v = abs(float(c))
        for i, e in n.items():
            v *= spec.species[i].R ** e
        total += v
    return total


def view_gradient(series):
    """The oracle of `_gradient`, read through the `terms` view."""
    width = series.truncation.species
    rows = {}
    for n, c in series.terms.items():
        num, den = c.as_integer_ratio()
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


def mc_rod_pressure():
    from virialkit.virial import mc_pressure_series
    from virialkit.weights import HardRods1D, McParams
    return mc_pressure_series(HardRods1D({1: 1, 2: 2}, 40), McParams(20_000, seed=3),
                              Truncation(3, 2))[0]


@pytest.mark.parametrize("make", [
    *(lambda w=width, d=degree: random_pressure(w, d, w + d)
      for width, degree in ((1, 6), (2, 5), (3, 4), (5, 3), (7, 2))),
    lambda: pressure({}, 3, 2), mc_rod_pressure,
], ids=["1-6", "2-5", "3-4", "5-3", "7-2", "zero", "mc-rods"])
def test_keyed_bound_and_gradient_equal_the_terms_view_bit_for_bit(make):
    p = make()
    width = p.series.truncation.species
    spec = make_domain_spec([(i, 0.01 * i, 0.03 * i, 0.5) for i in range(1, width + 1)])
    assert coefficient_sum_bound(p, spec).hex() == view_sum_bound(p, spec).hex()
    (exponents, coefficients), (want_e, want_c) = _gradient(p.series), view_gradient(p.series)
    assert exponents.tolist() == want_e.tolist()
    assert [x.hex() for x in coefficients.ravel().tolist()] == \
        [x.hex() for x in want_c.ravel().tolist()]
    # a spec without the top species: both refuse the same term the same way
    short = make_domain_spec([(i, 0.01, 0.03, 0.5) for i in range(1, width)] or
                             [(width + 1, 0.01, 0.03, 0.5)])
    errors = []
    for bound in (coefficient_sum_bound, view_sum_bound):
        try:
            bound(p, short)
        except ValueError as exc:
            errors.append(str(exc))
    assert len(errors) == (0 if p.series.is_zero() else 2) and len(set(errors)) <= 1


def test_gradient_vanishing_at_one_grid_point_is_found_there():
    # dp/dz_1 = 2 - 2 z_1 - 4 z_2 vanishes on the grid only at (R_1, R_2) =
    # (1/2, 1/4): ring index 4 (radius R, angle 0) for both species
    p = pressure({e(1): 2, e(2): -1, e(1, 1): -4}, 3, 2)
    spec = make_domain_spec([(1, 0.1, 0.5, 10.0), (2, 0.1, 0.25, 10.0)])
    exponents, coefficients = _gradient(p.series)
    rings, _ = _audit_points(spec, [1, 2], 0, seed=0)
    values = _gradient_on_grid(exponents, coefficients, rings, 3)
    assert np.flatnonzero(np.abs(values[0]) < 1e-150).tolist() == [4 + 8 * 4]
    assert not (np.abs(values[1]) < 1e-150).any()
    report = assert_matches_the_oracle(p, spec, 30, seed=2)
    assert [c.zero_found for c in report.log_checks] == [True, False]
    assert not report.passed


def test_gradient_vanishing_everywhere_fails_its_species():
    # p = z_1 + z_1^2 leaves dp/dz_2 = 0 at every point
    p = pressure({e(1): 1, e(2): Fraction(1, 5)}, 3, 2)
    spec = make_domain_spec([(1, 0.1, 0.25, 1.0), (2, 0.1, 0.25, 1.0)])
    report = assert_matches_the_oracle(p, spec, 30, seed=5)
    first, second = report.log_checks
    assert first.passed and not first.zero_found
    assert second.zero_found and second.max_log_abs == 0.0 and not second.passed
    # the zero pressure: no gradient term at all
    report = assert_matches_the_oracle(pressure({}, 3, 2), spec, 30, seed=5)
    assert all(c.zero_found and c.max_log_abs == 0.0 for c in report.log_checks)


def test_bound_report_computes_the_constant_and_sup_p_once(monkeypatch):
    p = random_pressure(3, 4, 8)
    c = invert_recursive(p)
    spec = make_domain_spec([(i, 0.01, 0.04, 1.0) for i in range(1, 4)])
    indices = list(admissible_indices(p.series.truncation, min_degree=1))
    constant = det_bound_constant(spec)
    sup_p = coefficient_sum_bound(p, spec)
    per_n = [(n, virial_bound(spec, sup_p, n)) for n in indices]
    hypothesis = hypothesis_check(p, spec, 40, seed=9)
    audit = check_coefficient_bounds(p, spec, c)

    calls = {"constant": 0, "sup_p": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(bounds_mod, "det_bound_constant", counted("constant", det_bound_constant))
    monkeypatch.setattr(bounds_mod, "coefficient_sum_bound",
                        counted("sup_p", coefficient_sum_bound))
    report = bound_report(spec, p, c, indices=indices, samples=40, seed=9)
    assert calls == {"constant": 1, "sup_p": 1}
    # every float bit-identical to the per-call functions
    assert report.constant == constant
    assert report.per_n_bounds == per_n
    assert report.hypothesis == hypothesis
    assert report.audit == audit
    bare = bound_report(spec, indices=indices)
    assert bare.per_n_bounds == [(n, virial_bound(spec, 1.0, n)) for n in indices]


def test_report_bounds_are_the_species_ordered_float_products():
    # a report computes each (i, n_i) factor once; every bound is still
    # scale * prod_i (e^{a_i}/r_i)^{n_i}, multiplied in species order
    p = random_pressure(3, 4, 8)
    c = invert_recursive(p)
    spec = make_domain_spec([(i, 0.003 * i, 0.04, 0.25 + i / 3) for i in range(1, 4)])
    indices = list(admissible_indices(p.series.truncation, min_degree=1))
    report = bound_report(spec, p, c, indices=indices, samples=10, seed=3)
    scale = det_bound_constant(spec) * coefficient_sum_bound(p, spec)

    def oracle(n, out=scale):
        for i, k in n.items():
            out *= (math.exp(spec.species[i].a) / spec.species[i].r) ** k
        return out

    assert report.per_n_bounds == [(n, oracle(n)) for n in indices]
    assert [a.bound for a in report.audit.entries] == [oracle(n) for n, _ in
                                                       c.series.sorted_terms()]
    # a factor past the float range is refused for its species, seen again or not
    wide = make_domain_spec([(1, 0.25, 1.0, 1.0), (2, 1e-200, 1.0, 1.0)])
    assert bound_report(wide, indices=[e(3), e(0, 1)]).per_n_bounds[1][1] > 1e200
    for indices in ([e(1), e(0, 2)], [e(0, 1), e(1, 2), e(0, 2)]):
        with pytest.raises(ValueError, match=r"species i = 2: the bound factor \(e\^a/r\)\^2"):
            bound_report(wide, indices=indices)


def test_hypothesis_check_refuses_negative_samples():
    p = pressure({e(1): 1}, 2, 1)
    with pytest.raises(ValueError, match="samples >= 0"):
        hypothesis_check(p, WORKED, samples=-3)


def test_hypothesis_check_refuses_an_empty_point_set():
    p = pressure({e(0, 0, 0, 0, 1): 1}, 2, 5)
    spec = make_domain_spec([(i, 0.1, 0.3, 1.0) for i in range(1, 6)])
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            hypothesis_check(p, spec, samples=samples)
    # with a grid (S <= 4) zero random samples still leave 8^S points
    small = pressure({e(1): 1}, 2, 1)
    assert hypothesis_check(small, WORKED, samples=0).sample_count == 8


# -- coefficient audit -----------------------------------------------------------------


def test_audit_ideal_gas_trivially_passes():
    p = pressure({e(1): 1}, 4, 1)
    spec = WORKED
    report = check_coefficient_bounds(p, spec, invert_recursive(p))
    assert report.passed and not report.violations


def test_audit_worked_pressure_through_d6():
    p = pressure({e(1): 1, e(2): -1}, 6, 1)
    spec = make_domain_spec([(1, 0.25, 1.0, 0.75)])
    report = check_coefficient_bounds(p, spec, invert_recursive(p))
    assert report.passed
    assert report.sup_p == pytest.approx(coefficient_sum_bound(p, spec))
    assert all(entry.margin >= 0 for entry in report.entries)


def test_bound_report_bundles_everything():
    from virialkit.bounds import bound_report
    p = pressure({e(1): 1, e(2): -1}, 4, 1)
    spec = make_domain_spec([(1, 0.1, 0.25, 0.75)])
    report = bound_report(spec, p, invert_recursive(p),
                          indices=[e(1), e(2)], samples=50)
    assert report.constant >= 1.0
    assert len(report.per_n_bounds) == 2
    assert report.hypothesis.passed and report.audit.passed and report.passed
    doc = report.as_dict()
    assert doc["per_n_bounds"][0]["n"] == {"1": 1}
    bare = bound_report(spec)
    assert bare.hypothesis is None and bare.passed


def test_interaction_pipeline_end_to_end():
    # hard-rod mixture satisfying the convergence criterion: the sampled
    # pressure should then satisfy the domain hypotheses with budgets a*k
    from virialkit.virial import mc_pressure_series
    from virialkit.weights import HardRods1D, KpSpec, McParams, kp_check

    rods = HardRods1D({1: 1, 2: 2}, 40)
    radii = {k: 0.5 * math.exp(-2 * k) for k in (1, 2)}
    assert kp_check(rods, KpSpec(radii, a=1.0), 2, McParams(100)).passed

    p, _ = mc_pressure_series(rods, McParams(100_000, seed=5), Truncation(2, 2))
    spec = make_domain_spec([(k, radii[k] / 4, radii[k], 1.0 * k) for k in (1, 2)])
    report = hypothesis_check(p, spec, samples=200)
    assert report.passed
    audit = check_coefficient_bounds(p, spec, invert_recursive(p))
    assert audit.passed


def test_json_round_trip():
    doc = domain_spec_to_json(WORKED)
    assert doc == {"species": [{"i": 1, "r": 0.25, "R": 1.0, "a": 1.0}]}
    assert domain_spec_from_json(doc).species[1] == SpeciesDomain(0.25, 1.0, 1.0)
