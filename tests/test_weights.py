import itertools
import json
import math
import random
import tracemalloc
import zlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import qmc

from virialkit import weights
from virialkit.graphs import (ColouredGraph, Graph, _connected_block_classes,
                              _connected_sum_table, _two_connected_classes, connected_graph_list)
from virialkit.series import Truncation
from virialkit.virial import pressure_from_weights
from virialkit.weights import (
    CustomPairPotential,
    HardRods1D,
    KpSpec,
    McParams,
    McWeightSource,
    Molecule,
    PairPotential,
    SyntheticBlockModel,
    _UnitSampler,
    _abs_zeta_integral_mc,
    _connected_sum,
    kp_check,
    mayer_sum_mc,
    minimum_image,
    model_from_json,
    model_to_json,
    pair_integral_exact,
    stability_check,
    synthetic_weight,
    weight_mc,
    zeta,
)

HR = HardRods1D({1: 1}, 10)
EDGE = ColouredGraph(Graph.from_edges(2, [(1, 2)]), (1, 1))
TRIANGLE = ColouredGraph(Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)]), (1, 1, 1))


def mol(x, species=1):
    return Molecule(species, (float(x),))


# -- zeta ------------------------------------------------------------------------


def test_zeta_hard_core_overlap():
    assert zeta(HR, mol(0.0), mol(0.5)) == -1.0


def test_zeta_no_interaction():
    assert zeta(HR, mol(0.0), mol(2.0)) == 0.0


def test_zeta_finite_energy():
    u = CustomPairPotential(lambda a, b: math.log(2), 1, 10.0, (1,))
    assert zeta(u, mol(0.0), mol(1.0)) == pytest.approx(-0.5)


def test_zeta_symmetry_sampled():
    rng = random.Random(3)
    for _ in range(100):
        a, b = mol(rng.uniform(0, 10)), mol(rng.uniform(0, 10))
        assert zeta(HR, a, b) == zeta(HR, b, a)


def test_zeta_periodic_minimum_image():
    # rods at 0.3 and 9.9 are 0.4 apart through the boundary
    assert zeta(HR, mol(0.3), mol(9.9)) == -1.0


def kernel_inputs(L, seed):
    """Coordinate columns for the Mayer kernels: in-box, out-of-box, and the
    edge cases |dx| = L, +-inf and NaN."""
    rng = np.random.default_rng(seed)
    in_box = L * rng.random((2, 4000))
    wide = (6.0 * rng.random((2, 4000)) - 3.0) * L
    edge = np.array([[0.0, -0.0, L, 0.0, L, 2 * L, -L, np.inf, -np.inf, np.nan, 1.0, 0.0],
                     [0.0, 0.0, 0.0, L, -L, 0.0, L, 0.0, 1.0, 0.0, np.nan, np.inf]])
    return [in_box, wide, np.concatenate([in_box, edge], axis=1), edge]


def test_minimum_image_matches_the_remainder_oracle():
    L = 40.0
    for x1, x2 in kernel_inputs(L, 21):
        for dx in (x1 - x2, np.stack([x1 - x2, x2 - x1], axis=1)):
            with np.errstate(invalid="ignore"):
                want = np.minimum(np.abs(dx) % L, L - np.abs(dx) % L)
                got = minimum_image(dx, L)
            assert got.tobytes() == want.tobytes()
            with np.errstate(invalid="ignore"):
                assert minimum_image(dx, L, out=dx).tobytes() == want.tobytes()  # in place
    assert minimum_image(np.empty(0), L).shape == (0,)


@pytest.mark.parametrize("scheme", ["pseudo-random", "low-discrepancy"])
def test_unit_sampler_refills_one_buffer_with_the_fresh_stream(scheme):
    # chunks drawn into the leading rows of one buffer continue the stream of
    # one fresh draw of all the samples, bit for bit
    params = McParams(2 ** 10, 5, scheme)
    if scheme == "pseudo-random":
        whole = np.random.default_rng(5).random((2 ** 10, 3))
    else:
        whole = qmc.Sobol(d=3, scramble=True, seed=5).random(2 ** 10)
    sampler, buffer = _UnitSampler(params, 3), np.full((512, 3), np.nan)
    chunks = [sampler.draw(buffer[:count]).copy() for count in (512, 256, 256)]
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    assert (buffer[256:] == chunks[0][256:]).all()  # the last chunk refilled the leading rows


def test_hard_rods_zeta_batch_matches_the_exp_of_energy_oracle():
    rods = HardRods1D({1: 1, 2: Fraction(5, 2), 3: 0}, 40)
    for x1, x2 in kernel_inputs(rods.box_length, 22):
        x1, x2 = x1[:, None], x2[:, None]
        for k1 in rods.species:
            for k2 in rods.species:
                with np.errstate(invalid="ignore"):
                    want = PairPotential.zeta_batch(rods, k1, x1, None, k2, x2, None)
                    got = rods.zeta_batch(k1, x1, None, k2, x2, None)
                assert got.tobytes() == want.tobytes()
                assert set(got.tolist()) <= {-1.0, 0.0}
                assert not np.signbit(got[got == 0.0]).any()


def test_hard_rods_overlap_hook_is_where_zeta_is_minus_one():
    # dx = x2 - x1, symmetric in the pair; soft potentials have no hook
    rods = HardRods1D({1: 1, 2: Fraction(5, 2), 3: 0}, 40)
    for x1, x2 in kernel_inputs(rods.box_length, 23):
        x1, x2 = x1[:, None], x2[:, None]
        for k1 in rods.species:
            for k2 in rods.species:
                with np.errstate(invalid="ignore"):
                    hit = rods.overlap_batch(k1, k2, x2 - x1, None, None)
                    zeta_kl = PairPotential.zeta_batch(rods, k1, x1, None, k2, x2, None)
                    assert hit.dtype == bool
                    assert np.array_equal(hit, zeta_kl == -1.0)
                    assert np.array_equal(hit, rods.overlap_batch(k2, k1, x1 - x2, None, None))
    assert PairPotential.overlap_batch is None
    assert CustomPairPotential(soft_2d, 2, 10.0, (1, 2)).overlap_batch is None


def test_molecule_validation():
    with pytest.raises(ValueError):
        Molecule(0, (0.0,))
    with pytest.raises(ValueError):
        Molecule(1, (0.0, 0.0), (0.5, 0.5))
    Molecule(1, (0.0, 0.0), (1.0, 0.0))


# -- exact pair integral -----------------------------------------------------------


def test_pair_integral_exact_values():
    assert pair_integral_exact(HR, 1, 1) == Fraction(-2)
    model = HardRods1D({1: 1, 2: 3}, 10)
    assert pair_integral_exact(model, 1, 2) == Fraction(-4)
    points = HardRods1D({1: 0}, 10)
    assert pair_integral_exact(points, 1, 1) == 0


def test_pair_integral_requires_room():
    tight = HardRods1D({1: 6}, 10)
    with pytest.raises(ValueError):
        pair_integral_exact(tight, 1, 1)


# -- Monte Carlo weights -------------------------------------------------------------


def test_weight_mc_size_one_is_exactly_one():
    g = ColouredGraph(Graph.from_edges(1, []), (1,))
    assert weight_mc(g, HR, McParams(100)) == (1.0, 0.0)


def test_weight_mc_disconnected_rejected():
    g = ColouredGraph(Graph.from_edges(3, [(1, 2)]), (1, 1, 1))
    with pytest.raises(ValueError):
        weight_mc(g, HR, McParams(100))


def test_weight_mc_edge_matches_exact_integral():
    est, err = weight_mc(EDGE, HR, McParams(200_000, seed=42))
    assert err > 0
    assert abs(est - float(pair_integral_exact(HR, 1, 1))) <= 3 * err


def test_weight_mc_triangle_free_gas_is_zero():
    free = CustomPairPotential(lambda a, b: 0.0, 1, 10.0, (1,))
    est, err = weight_mc(TRIANGLE, free, McParams(1000, seed=1))
    assert est == 0.0 and err == 0.0


def quadrature_triangle_weight(L=10.0, n_grid=3000):
    """Independent oracle: nested trapezoid quadrature of the triangle
    integrand zeta(x2) zeta(x3) zeta(x2 - x3) over [0, L]^2 (x1 pinned at 0)."""
    xs = np.linspace(0.0, L, n_grid + 1)
    w = np.full(n_grid + 1, L / n_grid)
    w[0] = w[-1] = L / (2 * n_grid)

    def z(dx):
        d = np.abs(dx) % L
        d = np.minimum(d, L - d)
        return np.where(d < 1.0, -1.0, 0.0)

    z2 = z(xs)
    total = 0.0
    for i in range(n_grid + 1):
        if z2[i] == 0.0:
            continue
        total += w[i] * z2[i] * float(np.sum(w * z2 * z(xs[i] - xs)))
    return total


def test_weight_mc_triangle_matches_quadrature_oracle():
    quad = quadrature_triangle_weight()
    assert quad == pytest.approx(-3.0, abs=0.02)  # analytic value of the oracle itself
    est, err = weight_mc(TRIANGLE, HR, McParams(200_000, seed=7))
    assert abs(est - quad) <= 3 * err


def test_weight_mc_three_sigma_hit_rate_over_seeds():
    exact = float(pair_integral_exact(HR, 1, 1))
    hits = 0
    for seed in range(100):
        est, err = weight_mc(EDGE, HR, McParams(20_000, seed=seed))
        hits += abs(est - exact) <= 3 * err
    assert hits >= 99


def test_weight_mc_translation_invariance_same_seed():
    shift = 3.7

    def shifted(a, b):
        pa = Molecule(a.species, tuple((c + shift) % 10.0 for c in a.position))
        pb = Molecule(b.species, tuple((c + shift) % 10.0 for c in b.position))
        return HR.energy(pa, pb)

    translated = CustomPairPotential(shifted, 1, 10.0, (1,))
    params = McParams(20_000, seed=11)
    assert weight_mc(EDGE, translated, params) == weight_mc(EDGE, HR, params)


def test_weight_mc_rotation_invariance_same_seed_2d():
    # soft discs whose energy uses rotation-invariant quantities only
    def base_energy(a, b):
        dx = [abs(p - q) % 10.0 for p, q in zip(a.position, b.position)]
        dx = [min(d, 10.0 - d) for d in dx]
        r2 = sum(d * d for d in dx)
        align = sum(p * q for p, q in zip(a.orientation, b.orientation))
        return math.exp(-r2) * (1.0 + 0.5 * align)

    theta = 0.9
    rot = ((math.cos(theta), -math.sin(theta)), (math.sin(theta), math.cos(theta)))

    def rotated(a, b):
        def spin(m):
            ox = rot[0][0] * m.orientation[0] + rot[0][1] * m.orientation[1]
            oy = rot[1][0] * m.orientation[0] + rot[1][1] * m.orientation[1]
            return Molecule(m.species, m.position, (ox, oy))
        return base_energy(spin(a), spin(b))

    u0 = CustomPairPotential(base_energy, 2, 10.0, (1,))
    u1 = CustomPairPotential(rotated, 2, 10.0, (1,))
    cg = ColouredGraph(Graph.from_edges(2, [(1, 2)]), (1, 1))
    params = McParams(2_000, seed=5)
    e0 = weight_mc(cg, u0, params)
    e1 = weight_mc(cg, u1, params)
    assert e0[0] == pytest.approx(e1[0], rel=1e-12)


def test_weight_mc_star_graph_matches_tree_factorization():
    # the 4-vertex star is a tree: its integral factorizes into w(edge)^3 = -8
    star = ColouredGraph(Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)]), (1, 1, 1, 1))
    est, err = weight_mc(star, HR, McParams(400_000, seed=21))
    assert abs(est - (-8.0)) <= 3 * err


def test_stability_check_2d_orientation_sampling():
    u = CustomPairPotential(lambda a, b: 0.0, 2, 10.0, (1, 2))
    report = stability_check(u, 0.0, McParams(50, seed=1), max_n=3)
    assert report.passed


def test_weight_mc_low_discrepancy_scheme():
    est, err = weight_mc(EDGE, HR, McParams(2 ** 15, seed=3, scheme="low-discrepancy"))
    assert abs(est + 2.0) <= 3 * err + 1e-2


@pytest.mark.parametrize("edges,colours,seed", [
    ([(1, 2)], (1, 2), 2310328822),
    ([(1, 2), (2, 3)], (1, 2, 1), 3796100847),
    ([(1, 2), (1, 3), (2, 3), (3, 4)], (2, 1, 1, 2), 2111561284),
], ids=["edge", "path", "triangle-pendant"])
def test_mc_graph_seeds_are_pinned(edges, colours, seed):
    # a graph's Monte Carlo stream is seeded from (base seed, n, edge mask,
    # colours); a change of graph representation must not move these streams
    source = McWeightSource(HardRods1D({1: 1, 2: 2}, 40), McParams(1000, 3))
    graph = Graph.from_edges(len(colours), edges)
    assert source._stream(graph.n, graph.mask, colours).seed == seed


RODS_WITH_POINTS = HardRods1D({1: 1, 2: 2, 3: 0}, 40)


def soft_2d(a, b):
    dx = [abs(p - q) % 10.0 for p, q in zip(a.position, b.position)]
    r2 = sum(min(c, 10.0 - c) ** 2 for c in dx)
    return 2.0 * math.exp(-r2) * (1.0 + a.orientation[0] * b.orientation[0])


# (estimate, stderr) as float.hex, as written by the exp-of-energy Mayer
# kernel: a faster kernel must reproduce every bit, the sign of zero included
@pytest.mark.parametrize("edges,colours,u,params,pinned", [
    ([(1, 2)], (1, 2), RODS_WITH_POINTS, McParams(30000, 11),
     ("-0x1.846ff513cc1e0p+1", "0x1.f4f1b80a0a858p-5")),
    ([(1, 2), (1, 3), (2, 3), (3, 4)], (2, 1, 1, 2), RODS_WITH_POINTS, McParams(70000, 12),
     ("0x1.0750750750751p+4", "0x1.f0732b933e058p+1")),
    ([(1, 2), (2, 3)], (3, 3, 1), RODS_WITH_POINTS, McParams(5000, 13),
     ("0x0.0p+0", "0x0.0p+0")),
    ([(1, 2), (2, 3), (3, 4), (1, 4)], (1, 2, 1, 2), RODS_WITH_POINTS,
     McParams(2 ** 14, 14, "low-discrepancy"),
     ("0x1.7700000000000p+3", "0x1.b0fc7c38c897ap+2")),
    ([(1, 2), (2, 3), (1, 3)], (1, 2, 2),
     CustomPairPotential(soft_2d, 2, 10.0, (1, 2)), McParams(400, 15),
     ("-0x1.858ee7ae5d786p+0", "0x1.4685a068c9fe9p+0")),
], ids=["edge", "triangle-pendant", "zero-core-path", "cycle-sobol", "soft-2d-triangle"])
def test_weight_mc_output_is_pinned(edges, colours, u, params, pinned):
    g = ColouredGraph(Graph.from_edges(len(colours), edges), colours)
    got = weight_mc(g, u, params)
    assert tuple(v.hex() for v in got) == pinned
    assert [np.signbit(v) for v in got] == [np.signbit(float.fromhex(h)) for h in pinned]


# -- joint Monte Carlo sums over the connected graphs ----------------------------------


def brute_connected_sum(m, zeta):
    """The oracle: per sample, sum over the labelled connected graphs on
    {1..m} of the product of their edges' rows of `zeta` (bit b of a mask is
    row b), and the same sum of absolute values."""
    total = np.zeros(zeta.shape[1])
    scale = np.zeros(zeta.shape[1])
    for mask in connected_graph_list(m).tolist():
        product = np.ones(zeta.shape[1])
        for b in range(len(zeta)):
            if mask >> b & 1:
                product = product * zeta[b]
        total += product
        scale += np.abs(product)
    return total, scale


@pytest.mark.parametrize("m", range(1, 7))
def test_subset_recursion_is_exact_on_hard_core_factors(m):
    rng = np.random.default_rng(m)
    zeta = -(rng.random((m * (m - 1) // 2, 300)) < 0.4).astype(float)
    want, _ = brute_connected_sum(m, zeta)
    got = _connected_sum(m, zeta)
    assert np.array_equal(got, want)
    assert np.array_equal(got, np.round(got))


@pytest.mark.parametrize("m", range(1, 7))
def test_subset_recursion_matches_the_graph_sum_on_float_factors(m):
    rng = np.random.default_rng(100 + m)
    zeta = rng.uniform(-1.0, 1.5, (m * (m - 1) // 2, 40))
    want, scale = brute_connected_sum(m, zeta)
    # relative to the sum of the absolute terms: the graph sum may cancel
    assert np.all(np.abs(_connected_sum(m, zeta) - want) <= 1e-12 * scale)


RODS_12 = HardRods1D({1: 1, 2: 2}, 40)


def per_graph_sum(m, colours, u, params):
    """sum over the connected graphs of their weight_mc estimates, each on its
    own stream, with the errors added in quadrature."""
    total, var = 0.0, 0.0
    for index, mask in enumerate(connected_graph_list(m).tolist()):
        est, err = weight_mc(ColouredGraph(Graph(m, mask), colours), u,
                             McParams(params.sample_count, params.seed + index, params.scheme))
        total += est
        var += err * err
    return total, math.sqrt(var)


@pytest.mark.parametrize("colours,u,params", [
    ((1, 2, 2), CustomPairPotential(soft_2d, 2, 10.0, (1, 2)), McParams(3000, 41)),
    ((1, 1, 2, 2), RODS_12, McParams(2 ** 14, 42, "low-discrepancy")),
    ((1, 2, 2, 2), RODS_12, McParams(100_000, 43)),
], ids=["soft-2d", "rods-sobol", "rods"])
def test_joint_sum_agrees_with_the_per_graph_oracle(colours, u, params):
    m = len(colours)
    est, err = mayer_sum_mc(m, colours, u, params)
    want, want_err = per_graph_sum(m, colours, u, McParams(params.sample_count,
                                                           params.seed + 1000, params.scheme))
    assert err > 0 and want_err > 0
    assert abs(est - want) <= 4 * math.hypot(err, want_err)


@pytest.mark.parametrize("m", range(2, 6))
def test_hard_core_table_equals_the_graph_sum_on_every_pattern(m):
    pairs = m * (m - 1) // 2
    codes = np.arange(1 << pairs)
    zeta = -((codes >> np.arange(pairs)[:, None]) & 1).astype(float)
    want, _ = brute_connected_sum(m, zeta)
    table = _connected_sum_table(m)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert np.array_equal(table, want)
    assert abs(table).max() == math.factorial(m - 1)


@pytest.mark.parametrize("m", range(2, 7))
def test_hard_core_table_equals_the_recursion_on_every_pattern(m):
    # the transform of the connected list against the per-sample recursion,
    # independent code, at m = 6 too, where the brute-force sum is not run
    pairs = m * (m - 1) // 2
    codes = np.arange(1 << pairs)
    zeta = -((codes >> np.arange(pairs)[:, None]) & 1).astype(float)
    assert np.array_equal(_connected_sum_table(m), _connected_sum(m, zeta))


def test_a_cold_hard_core_table_calls_no_recursion(monkeypatch):
    want = [_connected_sum_table(m).copy() for m in range(1, 7)]

    def recursion(m, zeta):
        raise AssertionError("the pattern table was built by the subset recursion")

    monkeypatch.setattr(weights, "_connected_sum", recursion)
    _connected_sum_table.cache_clear()
    for m, table in enumerate(want, start=1):
        assert np.array_equal(_connected_sum_table(m), table)
    with pytest.raises(ValueError, match="capped at n = 6"):
        _connected_sum_table(7)


class RodsWithoutHook(HardRods1D):
    """The same rods on the per-sample subset recursion, with the
    exp-of-energy Mayer kernel."""

    overlap_batch = None
    zeta_batch = PairPotential.zeta_batch


@pytest.mark.parametrize("params", [McParams(20_000, 31),
                                    McParams(2 ** 13, 32, "low-discrepancy")],
                         ids=["pseudo-random", "sobol"])
@pytest.mark.parametrize("colours", [(1, 3), (2, 3, 1), (1, 1, 2, 3), (3, 1, 2, 2, 1),
                                     (1, 2, 3, 1, 2, 3)])
def test_hard_core_joint_sum_equals_the_recursion_bit_for_bit(colours, params):
    # species 3 has no core, so some pairs never overlap; a box of 12 makes
    # clusters of six rods common enough that every sum has an error
    m = len(colours)
    sigma, L = {1: 1, 2: 2, 3: 0}, 12
    got = mayer_sum_mc(m, colours, HardRods1D(sigma, L), params)
    want = mayer_sum_mc(m, colours, RodsWithoutHook(sigma, L), params)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got[1] > 0


def test_hard_core_joint_sum_reads_the_table_not_the_recursion(monkeypatch):
    # the tables are built on the first calls; after that no sample recurses
    rods = HardRods1D({1: 1, 2: 2}, 8)
    colourings = [((1, 2) * 3)[:m] for m in range(2, 7)]
    want = [mayer_sum_mc(len(c), c, rods, McParams(500)) for c in colourings]

    def recursion(m, zeta):
        raise AssertionError("a hard-core sample took the subset recursion")

    monkeypatch.setattr(weights, "_connected_sum", recursion)
    assert [mayer_sum_mc(len(c), c, rods, McParams(500)) for c in colourings] == want
    assert all(err > 0 for _, err in want)


def test_joint_sum_of_one_vertex_bad_colourings_and_the_size_cap():
    assert mayer_sum_mc(1, (2,), RODS_12, McParams(100)) == (1.0, 0.0)
    for m, colours in ((0, ()), (2, (1,)), (3, (1, 1, 1, 1))):
        with pytest.raises(ValueError, match="colour"):
            mayer_sum_mc(m, colours, RODS_12, McParams(100))
    with pytest.raises(ValueError, match="capped at 6 vertices"):
        mayer_sum_mc(7, (1,) * 7, RODS_12, McParams(100))


def test_joint_sum_keeps_the_volume_check():
    with pytest.raises(ValueError, match="L = 1e[+]300"):
        mayer_sum_mc(3, (1, 1, 1), HardRods1D({1: 1}, 1e300), McParams(100))


def test_joint_sum_repeats_byte_for_byte():
    for u, params in ((RODS_12, McParams(70_000, 7)),
                      (CustomPairPotential(soft_2d, 2, 10.0, (1, 2)), McParams(500, 8))):
        first, second = (mayer_sum_mc(3, (1, 2, 2), u, params) for _ in range(2))
        assert [v.hex() for v in first] == [v.hex() for v in second]


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_joint_sum_chunks_are_no_larger_than_weight_mcs():
    params = McParams(200_000, 9)
    path = ColouredGraph(Graph.from_edges(6, [(v, v + 1) for v in range(1, 6)]), (1,) * 6)
    limit = peak_bytes(lambda: weight_mc(path, RODS_12, params))
    for colours in ((1, 2), (1, 1, 1, 2, 2, 2)):
        assert peak_bytes(lambda: mayer_sum_mc(len(colours), colours, RODS_12, params)) <= limit


def test_joint_sum_chunks_stay_small_with_a_cold_table():
    # the m = 6 table of 2^15 patterns is built inside the same bound
    params = McParams(200_000, 9)
    path = ColouredGraph(Graph.from_edges(6, [(v, v + 1) for v in range(1, 6)]), (1,) * 6)
    limit = peak_bytes(lambda: weight_mc(path, RODS_12, params))
    _connected_sum_table.cache_clear()
    assert peak_bytes(lambda: mayer_sum_mc(6, (1, 1, 1, 2, 2, 2), RODS_12, params)) <= limit


@pytest.mark.parametrize("m,colours,seed", [
    (2, (1, 2), 1229667891),
    (4, (1, 1, 2, 2), 1705859142),
])
def test_mc_weight_sum_seeds_are_pinned(m, colours, seed):
    # one stream per (base seed, m, colours), as the per-graph streams
    source = McWeightSource(RODS_12, McParams(1000, 3))
    assert source._stream(m, colours).seed == seed


def test_mc_params_validation():
    with pytest.raises(ValueError):
        McParams(1)
    with pytest.raises(ValueError):
        McParams(100, scheme="quantum")


# -- synthetic block models -----------------------------------------------------------


def test_synthetic_weight_single_vertex_is_one():
    m = SyntheticBlockModel.from_edge_weights(1, {(1, 1): -2})
    g = ColouredGraph(Graph.from_edges(1, []), (1,))
    assert synthetic_weight(g, m) == 1


def test_synthetic_weight_path_factorizes():
    m = SyntheticBlockModel.from_edge_weights(1, {(1, 1): -2})
    path = ColouredGraph(Graph.from_edges(3, [(1, 2), (2, 3)]), (1, 1, 1))
    assert synthetic_weight(path, m) == 4


def test_synthetic_weight_triangle_block():
    m = SyntheticBlockModel(1)
    m.add_block(TRIANGLE, 5)
    assert synthetic_weight(TRIANGLE, m) == 5


def test_synthetic_weight_missing_block_is_error():
    m = SyntheticBlockModel(1)
    with pytest.raises(ValueError):
        synthetic_weight(TRIANGLE, m)


def test_a_block_given_two_weights_is_refused():
    # the edge coloured (1, 2) and the edge coloured (2, 1) are one canonical block
    edge = Graph.from_edges(2, [(1, 2)])
    one, other = ColouredGraph(edge, (1, 2)), ColouredGraph(edge, (2, 1))
    with pytest.raises(ValueError, match=r"^blocks\[2\]: weight 3 for the canonical block of "
                                         r"blocks\[0\], which has weight 1$"):
        SyntheticBlockModel(2, [(one, 1), (one, "1"), (other, 3)])
    model = SyntheticBlockModel(2, [(one, 1), (other, "1")])  # an equal repeat changes nothing
    assert model.weight_for_canonical_key((2, (1, 2), 1)) == 1 and len(model._given) == 1


def test_synthetic_weight_disconnected_rejected():
    m = SyntheticBlockModel.from_edge_weights(1, {(1, 1): -2})
    g = ColouredGraph(Graph.from_edges(4, [(1, 2), (3, 4)]), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        synthetic_weight(g, m)


def test_synthetic_weight_relabelling_invariance():
    m = SyntheticBlockModel.random(99, 3)
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 6)
        while True:
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if rng.random() < 0.6]
            g = Graph.from_edges(n, edges)
            from virialkit.graphs import is_connected
            if is_connected(g):
                break
        colours = tuple(rng.randint(1, 3) for _ in range(n))
        w = synthetic_weight(ColouredGraph(g, colours), m)
        # colour-preserving relabelling
        perm = list(range(1, n + 1))
        by_colour = {}
        for v in range(1, n + 1):
            by_colour.setdefault(colours[v - 1], []).append(v)
        for group in by_colour.values():
            shuffled = group[:]
            rng.shuffle(shuffled)
            for a, b in zip(group, shuffled):
                perm[a - 1] = b
        g2 = Graph.from_edges(n, [(perm[i - 1], perm[j - 1]) for i, j in edges])
        assert synthetic_weight(ColouredGraph(g2, colours), m) == w


def test_random_model_draws_share_one_fraction_per_value():
    # denominators 1..8 and numerators in [-5·den, 5·den]: at most 8 · 81 pairs
    m = SyntheticBlockModel.random(5, 2)
    draws = [m.weight_for_canonical_key((6, (1, 1, 1, 2, 2, 2), mask)) for mask in range(2000)]
    assert all(type(w) is Fraction and -5 <= w <= 5 for w in draws)
    assert len({id(w) for w in draws}) <= 8 * 81 < len(draws)


def numpy_draw(rule, key):
    """(num, den) by the rule's definition: two `integers` draws of numpy's
    Generator."""
    rng = np.random.default_rng(zlib.crc32(repr((rule.seed, key)).encode()))
    den = int(rng.integers(1, 9))
    return int(rng.integers(rule.low * den, rule.high * den + 1)), den


def numpy_outputs_read(rule, key):
    """How many 64-bit outputs of numpy's PCG64 the two draws of a key read."""
    digest = zlib.crc32(repr((rule.seed, key)).encode())
    rng = np.random.default_rng(digest)
    den = int(rng.integers(1, 9))
    rng.integers(rule.low * den, rule.high * den + 1)
    stream = np.random.default_rng(digest).bit_generator.random_raw(8).tolist()
    return stream.index(rng.bit_generator.random_raw())


@pytest.mark.parametrize("low, high", [
    (-5, 5), (-3, 4), (0, 0), (7, 7),
    (-10 ** 9, 10 ** 9),  # spans past 2^32: the 64-bit path
    (-250_000_000, 250_000_000),  # 32-bit rejections, about 7 % at den = 8
    (-715_827_882, 715_827_883),  # (high - low)·3 = 2^32 - 1: one half output as is
])
def test_random_draws_equal_numpys_generator(low, high):
    rule = weights.RandomWeights(11, low, high)
    keys = [(6, (1, 1, 2, 2, 3, 3), mask) for mask in range(10_000)]
    want = [numpy_draw(rule, key) for key in keys]
    assert weights._random_draws(rule, keys) == want
    # fewer than _ENTROPY_ARRAY_MIN keys hash their seeds as ints
    assert [weights._random_draws(rule, [key])[0] for key in keys[:300]] == want[:300]
    span = high - low
    if span == 500_000_000:
        assert any(numpy_outputs_read(rule, key) > 1 for key, (_, den) in zip(keys, want)
                   if den == 8)
    if span == 2 * 10 ** 9:  # a fresh 64-bit output past den's
        assert {numpy_outputs_read(rule, key) for key, (_, den) in zip(keys, want)
                if span * den > 2 ** 32 - 1} == {2}
    if span == 1_431_655_765:
        assert any(span * den == 2 ** 32 - 1 for _, den in want)


def test_seed_words_equal_seed_sequence():
    entropy = [0, 1, 2, 12345, 2 ** 31, 2 ** 32 - 1]
    want = [np.random.SeedSequence(d).generate_state(4, np.uint64).tolist() for d in entropy]
    assert [weights._seed_words(d) for d in entropy] == want
    words = weights._seed_words(np.array(entropy, dtype=np.uint64))
    assert [list(w) for w in zip(*(w.tolist() for w in words))] == want


# (rule, key, (num, den)): fixed values of the rule, checked without numpy
KNOWN_DRAWS = [
    (weights.RandomWeights(1, -5, 5), (2, (1, 1), 1), (-5, 1)),
    (weights.RandomWeights(1, -5, 5), (3, (1, 2, 3), 7), (21, 6)),
    (weights.RandomWeights(7, -3, 4), (4, (1, 1, 2, 2), 45), (1, 4)),
    (weights.RandomWeights(42, -5, 5), (6, (1, 1, 1, 2, 2, 2), 32767), (-23, 8)),
    (weights.RandomWeights(5, -10 ** 9, 10 ** 9), (5, (1, 2, 2, 3, 3), 1023), (-352845019, 2)),
    (weights.RandomWeights(9, -250_000_000, 250_000_000), (3, (1, 1, 1), 7), (-694508758, 5)),
    (weights.RandomWeights(3, 0, 0), (4, (2, 2, 2, 2), 63), (0, 4)),
    (weights.RandomWeights(4, 7, 7), (2, (1, 2), 1), (14, 2)),
]


@pytest.mark.parametrize("rule, key, draw", KNOWN_DRAWS)
def test_random_draws_known_answers(rule, key, draw):
    assert weights._random_draws(rule, [key]) == [draw]
    assert SyntheticBlockModel(1, unseen=rule).weight_for_canonical_key(key) == Fraction(*draw)


@pytest.mark.parametrize("low, high, field", [
    (5, -5, "high"), (0.5, 5, "low"), (True, 5, "low"), (-10 ** 19, 5, "low"),
    (-5, 5.0, "high"), (-5, 10 ** 9 + 1, "high"),
])
def test_random_weights_bounds_are_checked_at_construction(low, high, field):
    with pytest.raises(ValueError, match=f"^random_fallback\\.{field}: expected an integer in "):
        SyntheticBlockModel.random(1, 2, low=low, high=high)


@pytest.mark.parametrize("fallback, message", [
    ({"seed": 1, "low": 0.5}, "random_fallback.low: expected an integer in "
                              "-1000000000..1000000000, got 0.5"),
    ({"seed": 1, "low": 5, "high": -5}, "random_fallback.high: expected an integer in "
                                        "5..1000000000, got -5"),
])
def test_random_fallback_bounds_keep_their_json_messages(fallback, message):
    with pytest.raises(ValueError) as err:
        model_from_json({"type": "synthetic", "species": 1, "random_fallback": fallback})
    assert str(err.value) == message


class CountingModel(SyntheticBlockModel):
    """A random model that counts its weight reads per canonical key."""

    def __init__(self):
        super().__init__(3, unseen=weights.RandomWeights(7))
        self.reads = Counter()

    def weight_for_canonical_key(self, key):
        self.reads[key] += 1
        return super().weight_for_canonical_key(key)


def test_sum_class_weights_reads_each_key_once_per_table():
    # the reads are what perfbench's weights.synthetic.lookups counts; the
    # two tables' keys differ in size, so a connected sum reads each key once
    for m in range(1, 6):
        for colours in itertools.combinations_with_replacement((1, 2, 3), m):
            connected = _connected_block_classes(m, colours)
            two_connected = _two_connected_classes(m, colours)
            for tables in ((connected, ((), ())), (((), ()), two_connected),
                           (connected, two_connected)):
                model = CountingModel()
                total = weights._sum_class_weights(model, *tables)
                assert model.reads == Counter(key for keys, _ in tables for key in keys), colours
                assert max(model.reads.values(), default=1) == 1
            assert (total, 0) == SyntheticBlockModel.random(7, 3).connected_sums([(m, colours)])[0]


def test_synthetic_weight_equals_block_product():
    from virialkit.graphs import block_decomposition
    m = SyntheticBlockModel.random(5, 2)
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 6)
        while True:
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            from virialkit.graphs import is_connected
            if is_connected(g):
                break
        colours = tuple(rng.randint(1, 2) for _ in range(n))
        total = synthetic_weight(ColouredGraph(g, colours), m)
        prod = Fraction(1)
        for b in block_decomposition(g).blocks:  # each block as a graph of its own
            block = Graph(b.size, b.relabelled_mask)
            prod *= synthetic_weight(ColouredGraph(block, tuple(colours[v - 1] for v in b.vertices)),
                                     m)
        assert total == prod


# -- stability -----------------------------------------------------------------------


def test_stability_hard_rods_nonnegative_potential_passes():
    report = stability_check(HR, 0.0, McParams(300, seed=2), max_n=4)
    assert report.passed and not report.violations


def test_stability_attractive_constant_violates_b0():
    u = CustomPairPotential(lambda a, b: -1.0, 1, 10.0, (1,))
    report = stability_check(u, 0.0, McParams(100, seed=2), max_n=3)
    assert not report.passed
    assert any(v.kind == "pair" for v in report.violations)


def test_stability_attractive_boundary_equality_passes():
    # |1 + zeta| = e exactly equals e^{b*min(1,1)} with b = 1: no violation
    u = CustomPairPotential(lambda a, b: -1.0, 1, 10.0, (1,))
    report = stability_check(u, 1.0, McParams(200, seed=3), max_n=2)
    assert report.passed


# -- convergence criterion -------------------------------------------------------------


def worked_kp_inputs(scale, cap=12):
    model = HardRods1D({k: k for k in range(1, cap + 1)}, 80)
    radii = {k: scale * math.exp(-2 * k) for k in range(1, cap + 1)}
    return model, KpSpec(radii, a=1.0, b=0.0)


def test_kp_check_worked_spec_passes():
    model, spec = worked_kp_inputs(0.5)
    report = kp_check(model, spec, 12, McParams(100))
    assert report.integral_domain == "R^d (exact)"
    assert report.passed
    # independent evaluation of the same partial sums
    for entry in report.entries:
        k = entry.species
        expected = math.fsum(0.5 * math.exp(-2 * kp) * math.exp(kp) * (k + kp)
                             for kp in range(1, 13))
        assert entry.lhs == pytest.approx(expected, rel=1e-12)
        assert entry.rhs == k


def test_kp_check_scaled_radii_fail_at_k1():
    model, spec = worked_kp_inputs(0.5 * 2.8)
    report = kp_check(model, spec, 12, McParams(100))
    assert not report.passed
    assert not report.entries[0].passed
    assert report.entries[0].lhs == pytest.approx(2.1037, abs=2e-4)


def test_kp_check_nonzero_stability_constant():
    # the growth factor carries 3b in the exponent
    model = HardRods1D({1: 1, 2: 2}, 40)
    spec = KpSpec({1: 0.05, 2: 0.01}, a=1.0, b=0.1)
    report = kp_check(model, spec, 2, McParams(100))
    for entry in report.entries:
        k = entry.species
        expected = math.fsum(
            spec.radii[kp] * math.exp((1.0 + 0.3) * kp) * (k + kp) for kp in (1, 2))
        assert entry.lhs == pytest.approx(expected, rel=1e-12)


def test_kp_check_free_gas_trivially_passes():
    u = CustomPairPotential(lambda a, b: 0.0, 1, 10.0, (1,))
    spec = KpSpec({1: 1.0}, a=0.5)
    report = kp_check(u, spec, 1, McParams(1000, seed=4))
    assert report.integral_domain == "box (monte-carlo)"
    assert report.entries[0].lhs == 0.0
    assert report.passed


def test_kp_check_box_integral_of_wrapped_rods():
    # a custom potential has no closed-form integral: kp-check samples the box
    rods = HardRods1D({1: 1, 2: 2}, 10)
    u = CustomPairPotential(rods.energy, 1, 10.0, (1, 2))
    spec = KpSpec({1: 0.01, 2: 0.02}, a=1.0)
    quadrature = McParams(4000, seed=6)
    report = kp_check(u, spec, 2, quadrature)
    assert report.integral_domain == "box (monte-carlo)"
    assert report.passed
    # one stream per unordered pair, so both entries share the cross integral
    assert _abs_zeta_integral_mc(u, 2, 1, quadrature) == _abs_zeta_integral_mc(u, 1, 2, quadrature)
    growth = {kp: spec.radii[kp] * math.exp(kp) for kp in (1, 2)}
    for entry in report.entries:
        k = entry.species
        integrals = {kp: _abs_zeta_integral_mc(u, k, kp, quadrature) for kp in (1, 2)}
        assert entry.lhs == sum(growth[kp] * integrals[kp] for kp in (1, 2))
        for kp, value in integrals.items():
            width = float(rods.sigma[k] + rods.sigma[kp])
            p = width / 10.0  # |zeta| is the indicator of an overlap
            stderr = 10.0 * math.sqrt(p * (1.0 - p) / quadrature.sample_count)
            assert abs(value - width) <= 4 * stderr


def test_kp_spec_validation():
    with pytest.raises(ValueError):
        KpSpec({1: -1.0}, a=1.0)
    with pytest.raises(ValueError):
        KpSpec({1: 1.0}, a=0.0)
    with pytest.raises(ValueError):
        kp_check(HR, KpSpec({1: 1.0}, a=1.0), 2, McParams(10))  # species 2 radius missing


# -- model JSON --------------------------------------------------------------------------


def test_hard_rods_json_round_trip():
    doc = model_to_json(HardRods1D({1: 1.0, 2: 3.0}, 10.0))
    assert doc == {"type": "hard_rods_1d", "sigma": {"1": 1.0, "2": 3.0}, "L": 10.0}
    model = model_from_json(doc)
    assert isinstance(model, HardRods1D)
    assert model.sigma == {1: 1, 2: 3}


def test_synthetic_json_round_trip():
    m = SyntheticBlockModel.from_edge_weights(2, {(1, 2): Fraction(-7, 2)})
    doc = model_to_json(m)
    assert doc["type"] == "synthetic"
    assert doc["default_w"] == "0"
    assert any(b["w"] == "-7/2" for b in doc["blocks"])
    m2 = model_from_json(doc)
    edge = ColouredGraph(Graph.from_edges(2, [(1, 2)]), (1, 2))
    assert synthetic_weight(edge, m2) == Fraction(-7, 2)
    assert synthetic_weight(TRIANGLE, m2) == 0  # zero default survives the round trip


def test_random_model_json_is_its_given_blocks_and_its_rule():
    # the memo of drawn weights is not written: the rule redraws them, so the
    # reloaded model reaches keys the written model never read
    model = SyntheticBlockModel.random(1, 2)
    model.add_block(ColouredGraph(TRIANGLE.graph, (1, 1, 2)), "3/4")
    pressure_from_weights(model, Truncation(3, 2))
    doc = json.loads(json.dumps(model_to_json(model)))
    assert doc["random_fallback"] == {"seed": 1, "low": -5, "high": 5}
    assert [block["w"] for block in doc["blocks"]] == ["3/4"] and "default_w" not in doc
    again = model_from_json(doc)
    assert pressure_from_weights(again, Truncation(4, 2)).series == \
        pressure_from_weights(model, Truncation(4, 2)).series


def test_synthetic_json_takes_one_rule_for_unseen_keys():
    doc = {"type": "synthetic", "species": 1, "default_w": "0", "random_fallback": {"seed": 1}}
    with pytest.raises(ValueError, match="random_fallback, default_w"):
        model_from_json(doc)
    assert SyntheticBlockModel(1).unseen is None and "default_w" not in model_to_json(
        SyntheticBlockModel(1))
