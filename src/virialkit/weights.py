"""Coloured-graph weights: interaction models, Monte Carlo cluster integrals,
synthetic block-factorizing models, and interaction-criteria checks.

Interaction models are rigid molecules (species, position, orientation) on a
periodic box with a symmetric pair energy; the weight of a coloured connected
graph is the normalized integral of the product of Mayer factors
zeta = exp(-U) - 1 over the graph's edges, with the first molecule pinned at
the origin by translation invariance.  Synthetic models assign exact rational
weights per two-connected block and extend to connected graphs by block
factorization.

Every Monte Carlo box integral runs on one sampler (`_mc_integral`): the
weight of a single graph (`weight_mc`), the sum of the weights of all
connected graphs on m vertices in one colouring (`mayer_sum_mc`), which
evaluates each pair's Mayer factor once per sample and sums the graphs, and
the pair integral of |zeta| of the convergence check.

Every weight source answers `connected_sum(m, colours)` and
`two_connected_sum(m, colours)`: the summed weights of the connected (for
the pressure) or two-connected (for route 3) graphs on {1..m} in one
colouring, as (sum, stderr).  `SyntheticBlockModel` gives (Fraction, 0)
from graphs.py's class tables, `McWeightSource` float estimates, which the
series take at their exact binary values.

The Monte Carlo kernel evaluates Mayer factors a batch of pairs at a time
through `PairPotential.zeta_batch`.  Its default is exp(-energy_batch) - 1; a
potential may override it with a cheaper exact form (hard rods do: -1 on
overlap, 0 otherwise), but the override must return the same floats bit for
bit, the sign of zero included, so that estimates are byte-identical
whichever path a potential takes.

A hard-core potential, whose every Mayer factor is -1 or 0, may also provide
`PairPotential.overlap_batch(k1, k2, dx, o1, o2)`: booleans that are True
exactly where `zeta_batch` gives -1, read from the displacement dx = x2 - x1
(a scratch array the hook may overwrite) and symmetric in the pair.  Soft
potentials leave it None.  With the hook, a sample's sum over the connected
graphs depends only on which pairs overlap, so it is an exact integer:
`mayer_sum_mc` counts the overlap patterns and reads each pattern's sum from
one table per vertex count (`graphs._connected_sum_table`), and its totals are
exact integers that equal the float sums of the per-sample recursion bit for
bit.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from ._config import (config_int, config_list, config_mapping, config_number,
                      config_species, to_fraction)
from .graphs import (
    MAX_WEIGHT_SUM_VERTICES,
    Block,
    ColouredGraph,
    Graph,
    _connected_block_classes,
    _connected_sum_table,
    _pair_index,
    _pairs,
    _two_connected_classes,
    block_decomposition,
    canonical_coloured_key,
    graph_from_json,
    graph_to_json,
    is_connected,
)

SCHEME_PSEUDO = "pseudo-random"
SCHEME_LOW_DISCREPANCY = "low-discrepancy"


@dataclass(frozen=True)
class Molecule:
    """A rigid molecule: species, position in the box, unit orientation.

    In one dimension the orientation manifold is a point and `orientation`
    is None.
    """

    species: int
    position: tuple[float, ...]
    orientation: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.species < 1:
            raise ValueError(f"species must be >= 1, got {self.species}")
        if self.orientation is not None:
            norm = math.sqrt(sum(c * c for c in self.orientation))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"orientation must be a unit vector, |o| = {norm}")


class PairPotential:
    """Symmetric, translation- and rotation-invariant pair energy on a torus.

    Subclasses implement `energy`; `energy_batch` has a generic loop fallback
    that vectorized models should override.

    A hard-core potential may set `overlap_batch(k1, k2, dx, o1, o2)` to a
    method that returns booleans, True exactly where `zeta_batch` gives -1
    and False where it gives 0, for species k1 and k2 at displacement
    dx = x2 - x1 of shape (count, d) with orientations o1 and o2; it must be
    symmetric in the pair, overlap(k1, k2, dx, o1, o2) ==
    overlap(k2, k1, -dx, o2, o1).  dx is the caller's scratch array, which
    the hook may overwrite.  Soft potentials leave it None.
    """

    dimension: int
    box_length: float
    species: tuple[int, ...]
    overlap_batch: Callable[..., np.ndarray] | None = None

    def energy(self, m1: Molecule, m2: Molecule) -> float:
        raise NotImplementedError

    def energy_batch(self, k1: int, x1: np.ndarray, o1, k2: int, x2: np.ndarray, o2) -> np.ndarray:
        out = np.empty(len(x1))
        for idx in range(len(x1)):
            m1 = Molecule(k1, tuple(x1[idx]), None if o1 is None else tuple(o1[idx]))
            m2 = Molecule(k2, tuple(x2[idx]), None if o2 is None else tuple(o2[idx]))
            out[idx] = self.energy(m1, m2)
        return out

    def zeta_batch(self, k1: int, x1: np.ndarray, o1, k2: int, x2: np.ndarray, o2) -> np.ndarray:
        """Mayer factors exp(-U) - 1 of a batch of pairs; U = +inf gives -1.

        An override must return the same floats bit for bit, the sign of
        zero included, so that Monte Carlo output does not depend on it."""
        return np.exp(-self.energy_batch(k1, x1, o1, k2, x2, o2)) - 1.0

    def exact_abs_zeta_integral(self, k: int, l: int) -> Fraction | None:
        """Closed form of int over R^d of |zeta|, when the model has one."""
        return None


def zeta(u: PairPotential, m1: Molecule, m2: Molecule) -> float:
    """Mayer factor exp(-U) - 1; hard-core overlap (U = +inf) gives -1."""
    e = u.energy(m1, m2)
    if e == math.inf:
        return -1.0
    return math.exp(-e) - 1.0


def minimum_image(dx: np.ndarray, box_length: float, out: np.ndarray | None = None) -> np.ndarray:
    """Componentwise minimum-image displacement on the torus [0, L)^d,
    written into `out` when given (which may be dx itself).

    Differences of in-box positions have |dx| < L, where the remainder is the
    identity, so it is taken only when some |dx| is not below L; the test is
    written so that a NaN also takes it."""
    d = np.abs(dx, out=out)
    if d.size and not d.max() < box_length:
        d %= box_length
    return np.minimum(d, box_length - d, out=d)


class HardRods1D(PairPotential):
    """1D hard rods: species k has rod length sigma_k; rods at periodic
    distance < (sigma_k + sigma_l)/2 overlap (U = +inf), otherwise U = 0."""

    dimension = 1

    def __init__(self, sigma: Mapping[int, object], box_length: object):
        self.sigma = {int(k): to_fraction(v) for k, v in sigma.items()}
        for k, s in self.sigma.items():
            if s < 0:
                raise ValueError(f"rod length must be >= 0, got {s} for species {k}")
        self._L = to_fraction(box_length)
        if self._L <= 0:
            raise ValueError(f"box length must be positive, got {self._L}")
        self.box_length = float(self._L)
        self.species = tuple(sorted(self.sigma))
        # overlap distance (sigma_k + sigma_l)/2 of each species pair, as a float
        self._core = {(k, l): float(s + t) / 2.0
                      for k, s in self.sigma.items() for l, t in self.sigma.items()}

    def energy(self, m1: Molecule, m2: Molecule) -> float:
        dx = abs(m1.position[0] - m2.position[0]) % self.box_length
        dx = min(dx, self.box_length - dx)
        return math.inf if dx < self._core[m1.species, m2.species] else 0.0

    def energy_batch(self, k1, x1, o1, k2, x2, o2) -> np.ndarray:
        d = minimum_image(x1[:, 0] - x2[:, 0], self.box_length)
        return np.where(d < self._core[k1, k2], np.inf, 0.0)

    def overlap_batch(self, k1, k2, dx, o1, o2) -> np.ndarray:
        d = dx[:, 0]
        return minimum_image(d, self.box_length, out=d) < self._core[k1, k2]

    def zeta_batch(self, k1, x1, o1, k2, x2, o2) -> np.ndarray:
        # 0 - False = +0.0 and 0 - True = -1.0: exp(-0) - 1 and exp(-inf) - 1
        return np.subtract(0.0, self.overlap_batch(k1, k2, x2 - x1, o1, o2))

    def exact_abs_zeta_integral(self, k: int, l: int) -> Fraction:
        return self.sigma[k] + self.sigma[l]


class CustomPairPotential(PairPotential):
    """Wrap a plain python energy function (Molecule, Molecule) -> float."""

    def __init__(self, fn: Callable[[Molecule, Molecule], float], dimension: int,
                 box_length: float, species: Sequence[int]):
        if dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
        self._fn = fn
        self.dimension = dimension
        self.box_length = float(box_length)
        self.species = tuple(species)

    def energy(self, m1: Molecule, m2: Molecule) -> float:
        return self._fn(m1, m2)


def pair_integral_exact(model: HardRods1D, k: int, l: int) -> Fraction:
    """int over the box of zeta(X_k at 0, X_l at x) dx = -(sigma_k + sigma_l).

    Exact for 1D hard rods; needs L > sigma_k + sigma_l so the overlap
    interval does not wrap around.
    """
    if not isinstance(model, HardRods1D):
        raise ValueError("exact pair integral is implemented for 1D hard rods")
    width = model.sigma[k] + model.sigma[l]
    if model._L <= width:
        raise ValueError(f"box length {model._L} must exceed sigma_{k} + sigma_{l} = {width}")
    return -model.exact_abs_zeta_integral(k, l)


@dataclass(frozen=True)
class McParams:
    """Monte Carlo controls; sample streams are reproducible from the seed."""

    sample_count: int
    seed: int = 0
    scheme: str = SCHEME_PSEUDO

    def __post_init__(self):
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2 so the variance is estimable")
        if self.scheme not in (SCHEME_PSEUDO, SCHEME_LOW_DISCREPANCY):
            raise ValueError(f"unknown sampling scheme {self.scheme!r}")


class _UnitSampler:
    """Chunked uniform samples on [0,1)^dims for either sampling scheme."""

    def __init__(self, params: McParams, dims: int):
        self.dims = dims
        if params.scheme == SCHEME_PSEUDO:
            self._rng = np.random.default_rng(params.seed)
            self._sobol = None
        else:
            from scipy.stats import qmc
            self._sobol = qmc.Sobol(d=max(dims, 1), scramble=True, seed=params.seed)

    def draw(self, out: np.ndarray) -> np.ndarray:
        """The next len(out) samples, written into the C-contiguous
        (len(out), dims) array `out`: the stream a fresh (len(out), dims)
        draw would give, bit for bit."""
        if self._sobol is None:
            return self._rng.random(out=out)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # Sobol balance note
            out[...] = self._sobol.random(len(out))[:, : self.dims]
        return out


MC_CHUNK = 1 << 16  # samples drawn and evaluated at once


def _orientation_dims(d: int) -> int:
    return {1: 0, 2: 1, 3: 2}[d]


def mc_sample_dims(n: int, d: int) -> int:
    """Unit-cube coordinates per sample on n vertices: n - 1 positions, n orientations."""
    return (n - 1) * d + n * _orientation_dims(d)


def _orientations_from_unit(u: np.ndarray, d: int) -> np.ndarray | None:
    """Map uniform unit-cube coordinates to uniform points on S^(d-1)."""
    if d == 1:
        return None
    if d == 2:
        theta = 2.0 * math.pi * u[:, 0]
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    z = 2.0 * u[:, 0] - 1.0
    phi = 2.0 * math.pi * u[:, 1]
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _mc_integral(n: int, u: PairPotential, p: McParams, rows: int,
                 values: Callable[[int, list, list], np.ndarray],
                 table: np.ndarray | None = None) -> tuple[float, float]:
    """(estimate, stderr) of the box integral of a sampled function of n
    molecules, molecule 1 pinned at the origin; every Monte Carlo integral
    here runs through it, so the volume check, the sampler and the mapping of
    the unit cube exist once.

    `values(count, positions, orientations)` returns one float per sample from
    per-vertex arrays: positions[v] of shape (count, d), orientations[v] of
    shape (count, d) or None in one dimension.  `values` may overwrite
    positions[1:], which the next chunk refills.  Samples are drawn `rows` at a
    time, and the mean is scaled by the volume L^(d(n-1)) of the free
    positions; a volume that is not a positive finite float raises ValueError
    before any sampling.  The unit samples and each vertex's positions live
    in buffers allocated once per call and refilled by every chunk (the last
    chunk fills their leading rows), so a long run maps no fresh pages per
    chunk and every position array stays contiguous.

    With a `table` of integers, `values` returns one code per sample instead,
    the sample's value being table[code] (a boolean array stands for codes 0
    and 1).  The codes are counted per chunk and the sums of the values and
    of their squares formed once, as exact integers, at the end; they equal
    the float sums bit for bit while those stay below 2^53.
    """
    d = u.dimension
    L = float(u.box_length)
    try:
        scale = L ** (d * (n - 1))
    except OverflowError:
        scale = math.inf
    if not 0 < scale < math.inf:
        raise ValueError(f"L = {L:g}: the volume factor L^{d * (n - 1)} of a graph on {n} "
                         f"vertices in dimension {d} is not a positive finite float")
    odims = _orientation_dims(d)
    pos_cols = (n - 1) * d
    sampler = _UnitSampler(p, mc_sample_dims(n, d))
    rows = min(rows, p.sample_count)
    unit_rows = np.empty((rows, sampler.dims))
    # molecule 1 at the origin, a read-only zero view that maps no memory,
    # then one contiguous (rows, d) array per vertex
    position_rows = [np.broadcast_to(0.0, (rows, d))] + [np.empty((rows, d)) for _ in range(1, n)]

    total = 0.0
    total_sq = 0.0
    hist = None if table is None else np.zeros(len(table), dtype=np.int64)
    remaining = p.sample_count
    while remaining > 0:
        count = min(rows, remaining)
        unit = sampler.draw(unit_rows[:count])
        positions = [x[:count] for x in position_rows]
        for v in range(1, n):
            np.multiply(L, unit[:, (v - 1) * d: v * d], out=positions[v])
        orientations: list[np.ndarray | None] = []
        for v in range(n):
            if odims == 0:
                orientations.append(None)
            else:
                cols = unit[:, pos_cols + v * odims: pos_cols + (v + 1) * odims]
                orientations.append(_orientations_from_unit(cols, d))
        x = values(count, positions, orientations)
        if hist is None:
            total += float(x.sum())
            total_sq += float((x * x).sum())
        elif x.dtype == bool:
            hits = np.count_nonzero(x)
            hist[:2] += (count - hits, hits)
        else:
            hist += np.bincount(x, minlength=len(table))
        remaining -= count

    if hist is not None:
        total, total_sq = float(hist @ table), float(hist @ (table * table))
    count = p.sample_count
    mean = total / count
    var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
    return scale * mean, scale * math.sqrt(var / count)


def weight_mc(g: ColouredGraph, u: PairPotential, p: McParams) -> tuple[float, float]:
    """Monte Carlo estimate of the cluster integral of a coloured connected graph.

    Returns (estimate, stderr).  Translation invariance pins molecule 1 at the
    origin, removing the 1/V normalisation together with one position
    integral; the orientation measure is the normalized uniform measure, so
    orientations carry no volume factor.  Size-1 graphs have weight exactly 1.
    """
    n = g.graph.n
    if n == 1:
        return 1.0, 0.0
    if n < 1 or not is_connected(g.graph):
        raise ValueError("cluster weights are defined for connected graphs")
    edges = g.graph.sorted_edges()

    def mayer_product(count, positions, orientations):
        values = np.ones(count)
        for i, j in edges:
            values *= u.zeta_batch(g.colours[i - 1], positions[i - 1], orientations[i - 1],
                                   g.colours[j - 1], positions[j - 1], orientations[j - 1])
        return values

    return _mc_integral(n, u, p, MC_CHUNK, mayer_product)


def _times(x: np.ndarray | None, y: np.ndarray | None) -> np.ndarray | None:
    """x * y, where None stands for a row of ones."""
    if x is None:
        return y
    if y is None:
        return x
    return x * y


def _connected_sum(m: int, zeta: np.ndarray) -> np.ndarray:
    """Per sample, the sum over the connected graphs on {1..m} of the product
    of Mayer factors over their edges: the joint sum of a soft potential.

    `zeta` has one row per vertex pair in `_pairs(m)` order (the edge-bit
    order of `Graph` masks) and one column per sample.  With vertex sets as
    bitmasks (vertex v is bit v - 1), A(S) = prod_{i<j in S} (1 + zeta_ij) is
    the sum over all graphs on S, and the connected part follows by splitting
    off the component of the lowest vertex:
    C(S) = A(S) - sum_{T contains min S, T proper subset of S} C(T) A(S - T).
    Only sets containing vertex 1 need C, so the work is O(3^m) rows.  Rows
    that are all ones (A of the empty set and of single vertices, C of
    {1}) are never formed.
    """
    if m == 1:
        return np.ones(zeta.shape[1])
    f = 1.0 + zeta
    a: list[np.ndarray | None] = [None] * (1 << m)
    # link[r] = prod_{i in r} (1 + zeta_iv) for the sets r below vertex v
    link: list[np.ndarray | None] = [None] * (1 << (m - 1))
    for v in range(1, m):
        top = 1 << v
        for r in range(1, top):
            i = r.bit_length() - 1
            link[r] = _times(link[r ^ (1 << i)], f[_pair_index(i + 1, v + 1, m)])
            a[top | r] = _times(a[r], link[r])
    c: list[np.ndarray | None] = [None] * (1 << (m - 1))  # c[s >> 1] = C(s), 1 in s
    for s in range(3, 1 << m, 2):
        rest = s ^ 1
        acc = a[s].copy()
        t = rest
        while t:  # T = {1} + t over the proper subsets t of rest, the empty set last
            t = (t - 1) & rest
            term = _times(c[t >> 1], a[rest ^ t])
            acc -= 1.0 if term is None else term
        c[s >> 1] = acc
    return c[-1]


def mayer_sum_mc(m: int, colours: tuple[int, ...], u: PairPotential,
                 p: McParams) -> tuple[float, float]:
    """Monte Carlo estimate of the sum of the cluster integrals of all
    connected graphs on {1..m} coloured by `colours`, with its stderr.

    The integral is linear, so the sum is one integral of the summed Mayer
    products: each sample evaluates every pair's Mayer factor once and a soft
    potential sums the graphs by subset recursion (`_connected_sum`).  Samples
    are drawn MC_CHUNK >> (m - 1) at a time, so that the at most 2^(m+1) subset
    rows of a chunk hold at most 4 MC_CHUNK floats at every m.  m = 1 gives
    exactly (1.0, 0.0); m is capped at MAX_WEIGHT_SUM_VERTICES, like every
    weight sum.

    A potential with `overlap_batch` skips the recursion: each sample packs
    its overlaps into a code (bit b for pair b of `_pairs(m)`), and the codes
    are counted against the pattern table `_connected_sum_table(m)`.  The
    estimate and its stderr are those of the recursion bit for bit.
    """
    if m < 1 or len(colours) != m:
        raise ValueError(f"need a colour for each of m >= 1 vertices, got m = {m} "
                         f"and {len(colours)} colours")
    if m > MAX_WEIGHT_SUM_VERTICES:
        raise ValueError(f"weight sums are capped at {MAX_WEIGHT_SUM_VERTICES} vertices, "
                         f"got m = {m}")
    if m == 1:
        return 1.0, 0.0
    pairs = _pairs(m)
    overlap = u.overlap_batch
    rows = MC_CHUNK >> (m - 1)
    if overlap is not None:
        # per-call buffers, refilled by every chunk: the displacements handed
        # to the hook, which may overwrite them, and the codes; m = 2 has only
        # the pair of vertex 1, which needs neither
        size = min(rows, p.sample_count) if m > 2 else 0
        dx_rows = np.empty((size, u.dimension))
        code_rows, bit_rows = np.empty(size, dtype=np.uint16), np.empty(size, dtype=np.uint16)
        # the pairs of vertex 1 go last: vertex 1 sits at the origin, so their
        # displacement is x_j itself (x - 0.0 is x exactly), handed over as
        # the chunk's own position array once no other pair reads it
        order = sorted(range(len(pairs)), key=lambda b: pairs[b][0] == 1)

        def overlaps(count, positions, orientations):
            for b in order:
                i, j = pairs[b]
                dx = (positions[j - 1] if i == 1 else
                      np.subtract(positions[j - 1], positions[i - 1], out=dx_rows[:count]))
                yield b, overlap(colours[i - 1], colours[j - 1], dx,
                                 orientations[i - 1], orientations[j - 1])

        def overlap_code(count, positions, orientations):
            hits = overlaps(count, positions, orientations)
            if m == 2:
                return next(hits)[1]  # one pair: its booleans are the codes
            code, bit = code_rows[:count], bit_rows[:count]
            code.fill(0)
            for b, hit in hits:
                code |= np.multiply(hit, np.uint16(1 << b), out=bit)
            return code

        return _mc_integral(m, u, p, rows, overlap_code, _connected_sum_table(m))

    def connected_sum(count, positions, orientations):
        zeta = np.empty((len(pairs), count))
        for b, (i, j) in enumerate(pairs):
            zeta[b] = u.zeta_batch(colours[i - 1], positions[i - 1], orientations[i - 1],
                                   colours[j - 1], positions[j - 1], orientations[j - 1])
        return _connected_sum(m, zeta)

    return _mc_integral(m, u, p, rows, connected_sum)


# -- synthetic block-factorizing models --------------------------------------


def _sum_class_weights(model: SyntheticBlockModel, classes) -> Fraction:
    """sum over ((canonical block keys), count) classes of count times the
    product of the keys' block weights.

    Each key's weight is read once as (numerator, denominator); a class
    multiplies integers, the class products are summed per denominator, and
    those sums over their least common denominator make the one Fraction
    built.
    """
    weights: dict[tuple, tuple[int, int]] = {}
    by_den: dict[int, int] = {}
    for keys, count in classes:
        num, den = count, 1
        for key in keys:
            w = weights.get(key)
            if w is None:
                q = model.weight_for_canonical_key(key)
                w = weights[key] = (q.numerator, q.denominator)
            num *= w[0]
            den *= w[1]
        if num:
            by_den[den] = by_den.get(den, 0) + num
    den = math.lcm(*by_den)
    return Fraction(sum(num * (den // d) for d, num in by_den.items()), den)


class SyntheticBlockModel:
    """Exact rational weights defined on two-connected blocks, extended to all
    connected coloured graphs by block factorization.

    Weights are keyed on the canonical form of (block, restricted colouring),
    which enforces invariance under colour-preserving relabellings.  A model
    may carry a fallback rule that synthesizes (and memoizes) a weight for
    unknown canonical keys; without one, a missing block weight is an error.
    Its weight sums are exact, (Fraction, 0), read off the class tables of
    graphs.py.
    """

    block_factorizing = True

    def __init__(self, species_count: int,
                 blocks: Sequence[tuple[ColouredGraph, object]] = (),
                 fallback: Callable[[tuple], Fraction] | None = None,
                 default_weight=None):
        if species_count < 1:
            raise ValueError("species_count must be >= 1")
        self.species_count = species_count
        self._weights: dict[tuple, Fraction] = {}
        self._fallback = fallback
        self.default_weight = None if default_weight is None else to_fraction(default_weight)
        for cg, w in blocks:
            self.add_block(cg, w)

    def add_block(self, cg: ColouredGraph, weight) -> None:
        from .graphs import is_two_connected
        if not is_two_connected(cg.graph):
            raise ValueError("block weights are defined on two-connected graphs")
        key = canonical_coloured_key(cg.graph.n, cg.graph.mask, cg.colours)
        self._weights[key] = to_fraction(weight)

    @classmethod
    def from_edge_weights(cls, species_count: int,
                          edge_weights: Mapping[tuple[int, int], object],
                          ) -> SyntheticBlockModel:
        """The default model: only the single-edge block carries weight, one
        value per unordered colour pair; every other block weighs 0."""
        model = cls(species_count, default_weight=0)
        for (k, l), w in edge_weights.items():
            cg = ColouredGraph(Graph.from_edges(2, [(1, 2)]), (k, l))
            model.add_block(cg, w)
        return model

    @classmethod
    def random(cls, seed: int, species_count: int,
               low: int = -5, high: int = 5) -> SyntheticBlockModel:
        """Model with a deterministic seeded fallback: every canonical block
        key gets a rational weight in [low, high] on first use."""
        # Draws share one Fraction per value: thousands of keys take few
        # values, and fewer long-lived objects keep full garbage collections rare.
        fraction = lru_cache(maxsize=None)(Fraction)

        def draw(key: tuple) -> Fraction:
            digest = zlib.crc32(repr((seed, key)).encode())
            rng = np.random.default_rng(digest)
            den = int(rng.integers(1, 9))
            num = int(rng.integers(low * den, high * den + 1))
            return fraction(num, den)

        return cls(species_count, fallback=draw)

    def weight_for_canonical_key(self, key: tuple) -> Fraction:
        w = self._weights.get(key)
        if w is None:
            if self._fallback is not None:
                w = self._fallback(key)
            elif self.default_weight is not None:
                w = self.default_weight
            else:
                raise ValueError(f"no block weight for canonical key {key}")
            self._weights[key] = w
        return w

    def weight_of_block(self, b: Block, colours: tuple[int, ...]) -> Fraction:
        restricted = tuple(colours[v - 1] for v in b.vertices)
        return self.weight_for_canonical_key(
            canonical_coloured_key(b.size, b.relabelled_mask, restricted))

    def connected_sum(self, m: int, colours: tuple[int, ...]) -> tuple[Fraction, int]:
        """(sum over the connected graphs on {1..m} of their weights, 0), over
        graphs.py's model-independent class table of (m, colours): one entry
        per multiset of canonical block keys, with the number of labelled
        graphs that share it, 75 to 3 074 entries at m = 6 over three species
        against 26 704 graphs."""
        return _sum_class_weights(self, _connected_block_classes(m, colours)), 0

    def two_connected_sum(self, m: int, colours: tuple[int, ...]) -> tuple[Fraction, int]:
        """(sum over the two-connected graphs on {1..m} of their weights, 0),
        over the class table of one canonical coloured key per class with its
        number of labelled graphs."""
        classes = _two_connected_classes(m, colours)
        return _sum_class_weights(self, (((key,), count) for key, count in classes)), 0


def synthetic_weight(g: ColouredGraph, m: SyntheticBlockModel) -> Fraction:
    """Weight of a connected coloured graph under a block-factorizing model:
    1 for size one, otherwise the product of its blocks' weights."""
    if g.graph.n == 1:
        return Fraction(1)
    if not is_connected(g.graph):
        raise ValueError("synthetic weights are defined for connected graphs")
    out = Fraction(1)
    for b in block_decomposition(g.graph).blocks:
        out *= m.weight_of_block(b, g.colours)
    return out


class McWeightSource:
    """Adapter: Monte Carlo cluster integrals as a weight source of float sums.

    `connected_sum` is one joint estimate per (vertex count, colouring), the
    sum over all connected graphs from `mayer_sum_mc`.  `two_connected_sum`
    makes one `weight_mc` run per class of isomorphic two-connected graphs.
    Every estimate draws its own stream, seeded from the base seed and what
    it estimates, so results do not depend on evaluation order.  Rigid
    molecules factorize over blocks, hence `block_factorizing` is True.
    """

    block_factorizing = True

    def __init__(self, potential: PairPotential, params: McParams):
        self.potential = potential
        self.params = params

    def _stream(self, *key) -> McParams:
        """The base parameters with the seed crc32(repr((base seed, *key))):
        key (size, mask, colours) for the canonical graph of a two-connected
        class, and (m, colours) for the sum over the connected graphs on m vertices."""
        digest = zlib.crc32(repr((self.params.seed, *key)).encode())
        return McParams(self.params.sample_count, int(digest), self.params.scheme)

    def connected_sum(self, m: int, colours: tuple[int, ...]) -> tuple[float, float]:
        """sum over the connected graphs on {1..m} of their weights, with its stderr."""
        return mayer_sum_mc(m, colours, self.potential, self._stream(m, colours))

    def two_connected_sum(self, m: int, colours: tuple[int, ...]) -> tuple[float, float]:
        """sum over the two-connected graphs on {1..m} of their weights, with its
        stderr, by class of graphs.py's table.  A class of `count` graphs is one
        `weight_mc` run of count × samples on its canonical graph, so count ×
        weight has the variance of count graph runs.  The classes draw
        independent streams, so the stderr is sqrt(sum of (count × stderr)^2)."""
        total, var = 0, 0.0
        for (size, key_colours, mask), count in _two_connected_classes(m, colours):
            stream = self._stream(size, mask, key_colours)
            weight, err = weight_mc(ColouredGraph(Graph(size, mask), key_colours), self.potential,
                                    replace(stream, sample_count=count * stream.sample_count))
            total += count * weight
            var += (count * err) ** 2
        return total, math.sqrt(var)


# -- interaction-criteria checks ----------------------------------------------


@dataclass(frozen=True)
class KpSpec:
    """Radii and constants for the convergence criterion: per-species radii
    R_k > 0, a slope a > 0 for the right-hand side a*k, and the stability
    constant b >= 0."""

    radii: Mapping[int, float]
    a: float
    b: float = 0.0

    def __post_init__(self):
        if any(r <= 0 for r in self.radii.values()):
            raise ValueError("all radii must be positive")
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.b < 0:
            raise ValueError("b must be nonnegative")


@dataclass
class KpEntry:
    species: int
    lhs: float
    rhs: float
    passed: bool


@dataclass
class KpReport:
    entries: list[KpEntry]
    summability_sum: float
    integral_domain: str  # "R^d (exact)" or "box (monte-carlo)"
    passed: bool

    def as_dict(self) -> dict:
        return {
            "entries": [{"species": e.species, "lhs": e.lhs, "rhs": e.rhs,
                         "passed": e.passed} for e in self.entries],
            "summability_sum": self.summability_sum,
            "integral_domain": self.integral_domain,
            "passed": self.passed,
        }


def _abs_zeta_integral_mc(u: PairPotential, k: int, l: int, quadrature: McParams) -> float:
    """Box integral of |zeta| between a pinned molecule of one species and a
    uniformly placed molecule of the other (numeric fallback).  The integral
    is symmetric in k and l, so both orders pin the lower species and draw the
    one stream of the unordered pair."""
    k, l = min(k, l), max(k, l)
    params = McParams(quadrature.sample_count,
                      quadrature.seed ^ zlib.crc32(f"kp:{k}:{l}".encode()), quadrature.scheme)

    def abs_zeta(count, positions, orientations):
        return np.abs(u.zeta_batch(k, positions[0], orientations[0],
                                   l, positions[1], orientations[1]))

    return _mc_integral(2, u, params, MC_CHUNK, abs_zeta)[0]


def kp_check(u: PairPotential, spec: KpSpec, species_cap: int,
             quadrature: McParams) -> KpReport:
    """Per-species check of the convergence criterion under the species cap:
    sum_{k'<=S} R_{k'} e^{(a+3b)k'} * int |zeta| <= a*k, reported per k <= S,
    together with the (partial) summability sum.  Report-only."""
    if species_cap < 1:
        raise ValueError(f"species cap must be >= 1, got {species_cap}")
    missing = [k for k in range(1, species_cap + 1) if k not in spec.radii]
    if missing:
        raise ValueError(f"spec has no radius for species {missing}")

    exact = all(u.exact_abs_zeta_integral(k, l) is not None
                for k in range(1, species_cap + 1) for l in range(1, species_cap + 1))
    domain = "R^d (exact)" if exact else "box (monte-carlo)"

    integrals: dict[tuple[int, int], float] = {}

    def integral(k: int, l: int) -> float:
        """int |zeta_kl|, once per unordered pair."""
        pair = (min(k, l), max(k, l))
        if pair not in integrals:
            integrals[pair] = (float(u.exact_abs_zeta_integral(*pair)) if exact
                               else _abs_zeta_integral_mc(u, *pair, quadrature))
        return integrals[pair]

    growth = {kp: spec.radii[kp] * math.exp((spec.a + 3.0 * spec.b) * kp)
              for kp in range(1, species_cap + 1)}
    entries = []
    for k in range(1, species_cap + 1):
        lhs = sum(growth[kp] * integral(k, kp) for kp in range(1, species_cap + 1))
        rhs = spec.a * k
        entries.append(KpEntry(k, lhs, rhs, lhs <= rhs * (1.0 + 1e-12)))
    return KpReport(entries, sum(growth.values()), domain, all(e.passed for e in entries))


@dataclass
class StabilityViolation:
    kind: str  # "configuration" or "pair"
    species: tuple[int, ...]
    lhs: float
    rhs: float


@dataclass
class StabilityReport:
    b: float
    configurations_checked: int
    pairs_checked: int
    violations: list[StabilityViolation]
    passed: bool

    def as_dict(self) -> dict:
        return {
            "b": self.b,
            "configurations_checked": self.configurations_checked,
            "pairs_checked": self.pairs_checked,
            "violations": [{"kind": v.kind, "species": list(v.species),
                            "lhs": v.lhs, "rhs": v.rhs} for v in self.violations],
            "passed": self.passed,
        }


MAX_STABILITY_MOLECULES = 8


def stability_check(u: PairPotential, b: float, trials: McParams, max_n: int,
                    species: Sequence[int] | None = None) -> StabilityReport:
    """Sample random configurations and report violations of the stability
    bounds prod |1 + zeta| <= prod e^{b k_i} and |1 + zeta| <= e^{b min(k,l)}.

    A sampling check, not a proof: it can only falsify.  Report-only.
    """
    if max_n > MAX_STABILITY_MOLECULES:
        raise ValueError(f"stability sampling capped at configurations of "
                         f"{MAX_STABILITY_MOLECULES} molecules")
    if max_n < 2:
        raise ValueError("need configurations of at least 2 molecules")
    pool = tuple(species) if species is not None else u.species
    if not pool:
        raise ValueError("no species to sample")
    rng = np.random.default_rng(trials.seed)
    d = u.dimension
    L = float(u.box_length)
    tol = 1.0 + 1e-9

    def random_molecule(k: int) -> Molecule:
        pos = tuple(float(c) for c in rng.random(d) * L)
        if d == 1:
            return Molecule(k, pos)
        o = _orientations_from_unit(rng.random((1, _orientation_dims(d))), d)[0]
        return Molecule(k, pos, tuple(float(c) for c in o))

    violations: list[StabilityViolation] = []
    pairs_checked = 0
    for _ in range(trials.sample_count):
        n = int(rng.integers(2, max_n + 1))
        ks = [int(pool[rng.integers(0, len(pool))]) for _ in range(n)]
        mols = [random_molecule(k) for k in ks]
        prod = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                f = abs(1.0 + zeta(u, mols[i], mols[j]))
                prod *= f
                pair_rhs = math.exp(b * min(ks[i], ks[j]))
                pairs_checked += 1
                if f > pair_rhs * tol and len(violations) < 20:
                    violations.append(StabilityViolation("pair", (ks[i], ks[j]), f, pair_rhs))
        rhs = math.exp(b * sum(ks))
        if prod > rhs * tol and len(violations) < 20:
            violations.append(StabilityViolation("configuration", tuple(ks), prod, rhs))
    return StabilityReport(b, trials.sample_count, pairs_checked, violations, not violations)


# -- model JSON ----------------------------------------------------------------


def model_to_json(model) -> dict:
    if isinstance(model, HardRods1D):
        return {"type": "hard_rods_1d",
                "sigma": {str(k): float(v) for k, v in sorted(model.sigma.items())},
                "L": float(model.box_length)}
    if isinstance(model, SyntheticBlockModel):
        blocks = []
        for (size, colours, mask), w in sorted(model._weights.items(),
                                               key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
            g = Graph(size, mask)
            blocks.append({"graph": graph_to_json(g), "colours": list(colours), "w": str(w)})
        doc = {"type": "synthetic", "species": model.species_count, "blocks": blocks}
        if model.default_weight is not None:
            doc["default_w"] = str(model.default_weight)
        return doc
    raise ValueError(f"cannot serialize model of type {type(model).__name__}")


# random_fallback weights are num/den with num drawn in [low*den, high*den],
# den <= 8, as a numpy int64
_FALLBACK_BOUND = 10 ** 9


def model_from_json(doc: Mapping):
    kind = doc.get("type")
    if kind == "hard_rods_1d":
        L = config_number(doc["L"], "L", "a box length > 0", lambda x: x > 0)
        sigma = {config_species(k, f'sigma["{k}"]', key=True):
                 config_number(v, f'sigma["{k}"]', f"a rod length in [0, {L})",
                               lambda x: 0 <= x < L)
                 for k, v in config_mapping(doc["sigma"], "sigma", nonempty=True).items()}
        missing = next((k for k in range(1, max(sigma)) if k not in sigma), None)
        if missing is not None:
            raise ValueError(f"sigma: expected rod lengths for species 1..{max(sigma)} with "
                             f'no gap, missing sigma["{missing}"]')
        return HardRods1D(sigma, L)
    if kind == "synthetic":
        species = config_species(doc.get("species", 1), "species")
        blocks = []
        for i, entry in enumerate(config_list(doc.get("blocks", []), "blocks")):
            at = f"blocks[{i}]"
            entry = config_mapping(entry, at)
            g = graph_from_json(entry["graph"], f"{at}.graph")
            colours = tuple(config_species(c, f"{at}.colours[{j}]")
                            for j, c in enumerate(config_list(entry["colours"], f"{at}.colours")))
            species = max((species, *colours))
            blocks.append((ColouredGraph(g, colours), config_number(entry["w"], f"{at}.w")))
        fallback = None
        if "random_fallback" in doc:
            fb = config_mapping(doc["random_fallback"], "random_fallback")
            low = config_int(fb.get("low", -5), "random_fallback.low",
                             -_FALLBACK_BOUND, _FALLBACK_BOUND)
            high = config_int(fb.get("high", 5), "random_fallback.high", low, _FALLBACK_BOUND)
            fallback = SyntheticBlockModel.random(config_int(fb["seed"], "random_fallback.seed"),
                                                  species, low, high)._fallback
        default_w = doc.get("default_w")
        return SyntheticBlockModel(species, blocks, fallback=fallback,
                                   default_weight=None if default_w is None
                                   else config_number(default_w, "default_w"))
    raise ValueError(f"unknown model type {kind!r}")
