"""Labelled and coloured graphs at desk scale (enumeration to n = 8).

A graph on {1..n} is stored as one edge bitmask (bit b is the edge
`_pairs(n)[b]`); edge lists appear only at the boundary: JSON, CLI output and
Monte Carlo weights.  For one graph, every structural question runs on
neighbour bitsets read off the mask, in one pass over its binary digits,
through one reachability search: connectivity, two-connectivity and
articulation points by deleting vertices, and block decomposition by
splitting the vertex set at its first cut vertex until no part has one;
`enumerate_graphs` walks the masks 0 .. 2^(n(n-1)/2)-1 one at a time this
way.  The memoised lists and block table of the weight sums (n <= 6) test
many masks at once instead, with numpy, vertex set by vertex set: the
connected list tests every mask, and the block table every connected one.
Both lists are read-only int64 arrays of edge masks; a Graph is built from
a mask only where one graph leaves the package.  Every model-independent
table of the weight sums is built here from them: the class tables of the
exact sums and the hard-core pattern table of Monte Carlo.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

from ._config import config_field, config_int, config_list, config_mapping, config_species
from .series import MultiIndex

MAX_ENUMERATION_VERTICES = 8
# An edge mask is n(n-1)/2 bits wide: about 62 kB at this cap.
MAX_GRAPH_VERTICES = 1000


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (i, j), i < j, in lexicographic order; bit b <-> _pairs(n)[b]."""
    return tuple(itertools.combinations(range(1, n + 1), 2))


def _pair_index(i: int, j: int, n: int) -> int:
    """The bit of the edge (i, j), 1 <= i < j <= n: its place in `_pairs(n)`."""
    return (i - 1) * (2 * n - i) // 2 + j - i - 1


def _adjacency(n: int, mask: int) -> list[int]:
    """0-indexed neighbour bitsets of an edge mask: adj[v] has bit u set iff
    (v+1, u+1) is an edge."""
    adj = [0] * n
    v, u = 0, 1  # the edge of the current bit, 0-indexed
    for digit in f"{mask:0{n * (n - 1) // 2}b}"[::-1]:
        if digit == "1":
            adj[v] |= 1 << u
            adj[u] |= 1 << v
        u += 1
        if u == n:
            v += 1
            u = v + 1
    return adj


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices {1..n}: bit b of `mask` is the
    edge `_pairs(n)[b]`.  `from_edges` is the validating constructor."""

    n: int
    mask: int

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        if not 0 <= n <= MAX_GRAPH_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_GRAPH_VERTICES}, got {n}")
        width = n * (n - 1) // 2
        digits = bytearray(b"0" * width)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) outside vertex set 1..{n}")
            digits[width - 1 - _pair_index(min(i, j), max(i, j), n)] = ord("1")
        return cls(n, int(digits, 2) if width else 0)

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges (i, j), i < j, in lexicographic order."""
        return [(v + 1, v + 2 + k) for v, nbrs in enumerate(_adjacency(self.n, self.mask))
                for k, digit in enumerate(f"{nbrs >> (v + 1):b}"[::-1]) if digit == "1"]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())


@dataclass(frozen=True)
class ColouredGraph:
    """Graph plus a colour (species index >= 1) per vertex."""

    graph: Graph
    colours: tuple[int, ...]

    def __post_init__(self):
        if len(self.colours) != self.graph.n:
            raise ValueError(f"{len(self.colours)} colours for {self.graph.n} vertices")
        if any(c < 1 for c in self.colours):
            raise ValueError("colours must be species indices >= 1")


def _reach(adj: list[int], active: int) -> int:
    """Bitset of the vertices of `active` reachable from its lowest vertex
    inside the subgraph induced on `active` (0 when `active` is empty)."""
    seen = frontier = active & -active
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        fresh = adj[b.bit_length() - 1] & active & ~seen
        seen |= fresh
        frontier |= fresh
    return seen


def is_connected(g: Graph) -> bool:
    """True iff the graph has at least one vertex and all are mutually reachable."""
    full = (1 << g.n) - 1
    return g.n > 0 and _reach(_adjacency(g.n, g.mask), full) == full


def _cut_vertices(adj: list[int], active: int) -> Iterator[int]:
    """Vertex bits of the connected bitset `active` whose deletion disconnects
    the subgraph induced on `active`, in ascending order."""
    rest = active
    while rest:
        v = rest & -rest
        rest ^= v
        without = active ^ v
        if _reach(adj, without) != without:
            yield v


def is_two_connected(g: Graph) -> bool:
    """Connected, n >= 2, and no single vertex deletion disconnects the rest."""
    if g.n < 2:
        return False
    adj = _adjacency(g.n, g.mask)
    full = (1 << g.n) - 1
    return _reach(adj, full) == full and next(_cut_vertices(adj, full), None) is None


def articulation_points(g: Graph) -> frozenset[int]:
    """Vertices whose deletion disconnects the graph (brute-force deletion)."""
    if not is_connected(g):
        raise ValueError("articulation points are defined for connected graphs")
    adj = _adjacency(g.n, g.mask)
    return frozenset(v.bit_length() for v in _cut_vertices(adj, (1 << g.n) - 1))


@dataclass(frozen=True)
class Block:
    """A maximal two-connected subgraph: its vertices (ascending, labels of
    the parent graph) and its edge mask after relabelling them to 1..size."""

    vertices: tuple[int, ...]
    relabelled_mask: int

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The block's edges in parent labels."""
        vs = self.vertices
        return frozenset((vs[i - 1], vs[j - 1])
                         for i, j in Graph(self.size, self.relabelled_mask).sorted_edges())


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    articulation_points: frozenset[int]


def _split_blocks(n: int, adj: list[int]) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int]:
    """(vertices, relabelled mask) per block of the connected graph with
    neighbour bitsets `adj`, and the bitset of vertices in two or more blocks.

    A part with a cut vertex v splits into the components of the part minus
    v, each together with v, until no part has a cut vertex.  Blocks share no
    edge, so their order by lowest edge is by lowest vertex, then by its
    lowest neighbour inside the block."""
    found = []
    parts = [(1 << n) - 1]
    while parts:
        part = parts.pop()
        v = next(_cut_vertices(adj, part), 0)
        if not v:
            found.append(part)
            continue
        rest = part ^ v
        while rest:
            comp = _reach(adj, rest)
            parts.append(comp | v)
            rest ^= comp
    seen = shared = 0
    blocks = []
    for part in found:
        shared |= seen & part
        seen |= part
        vs = [v for v in range(n) if part >> v & 1]
        inside = adj[vs[0]] & part
        digits = "".join("1" if adj[a] >> b & 1 else "0"
                         for k, a in enumerate(vs) for b in vs[k + 1:])
        blocks.append(((vs[0], inside & -inside), tuple(v + 1 for v in vs),
                       int(digits[::-1], 2)))
    blocks.sort()
    return tuple((vs, mask) for _, vs, mask in blocks), shared


def block_decomposition(g: Graph) -> BlockDecomposition:
    """The unique set of maximal two-connected subgraphs of a connected graph,
    ordered by lowest edge."""
    if g.n < 2:
        raise ValueError("block decomposition needs at least 2 vertices")
    adj = _adjacency(g.n, g.mask)
    full = (1 << g.n) - 1
    if _reach(adj, full) != full:
        raise ValueError("block decomposition needs a connected graph")
    blocks, shared = _split_blocks(g.n, adj)
    return BlockDecomposition(tuple(Block(*b) for b in blocks),
                              frozenset(v + 1 for v in range(g.n) if shared >> v & 1))


@dataclass(frozen=True)
class BlockCutTree:
    """Bipartite incidence of blocks and articulation points; always a tree."""

    block_count: int
    cut_vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (block index, articulation vertex)


def block_cut_tree(d: BlockDecomposition) -> BlockCutTree:
    cuts = tuple(sorted(d.articulation_points))
    edges = tuple((bi, v) for bi, b in enumerate(d.blocks)
                  for v in cuts if v in b.vertices)
    # tree check: connected with |edges| = |nodes| - 1
    nodes = [("b", i) for i in range(len(d.blocks))] + [("c", v) for v in cuts]
    if len(edges) != len(nodes) - 1:
        raise AssertionError("block cut-point structure is not a tree (edge count)")
    adj: dict = {node: set() for node in nodes}
    for bi, v in edges:
        adj[("b", bi)].add(("c", v))
        adj[("c", v)].add(("b", bi))
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for w in adj[u] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) != len(nodes):
        raise AssertionError("block cut-point structure is not a tree (disconnected)")
    return BlockCutTree(len(d.blocks), cuts, edges)


def dissymmetry_check(g: Graph) -> tuple[int, int]:
    """(1 + sum of block sizes, n + block count); equal for every connected
    graph, the single vertex included: it has no block, and 1 + 0 = 1 + 0."""
    blocks = block_decomposition(g).blocks if g.n != 1 else ()
    return 1 + sum(b.size for b in blocks), g.n + len(blocks)


GRAPH_CLASSES = ("all", "connected", "two_connected")


def enumerate_graphs(n: int, graph_class: str = "all") -> Iterator[Graph]:
    """Every labelled graph of the class on {1..n}, exactly once, in edge-mask
    order.  The class test runs on the neighbour bitsets of each mask; a
    Graph is built only for the masks that are yielded."""
    if graph_class not in GRAPH_CLASSES:
        raise ValueError(f"graph class must be one of {GRAPH_CLASSES}, got {graph_class!r}")
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if n > MAX_ENUMERATION_VERTICES:
        raise ValueError(f"enumeration capped at n = {MAX_ENUMERATION_VERTICES}, got {n}")
    if n == 0:
        return
    full = (1 << n) - 1
    for mask in range(1 << (n * (n - 1) // 2)):
        if graph_class != "all":
            adj = _adjacency(n, mask)
            if _reach(adj, full) != full or graph_class == "two_connected" and (
                    n < 2 or next(_cut_vertices(adj, full), None) is not None):
                continue
        yield Graph(n, mask)


# The connected graph lists and the block table stop at n = 6: 26 704
# connected graphs, from one test of all 2^15 edge masks.  At n = 7 there are
# 1 866 256 of 2^21 masks, and the lazy `enumerate_graphs` walk alone takes
# about 14 s on a 2-core Xeon.
MAX_WEIGHT_SUM_VERTICES = 6


def _vertex_sets(n: int) -> tuple[list, dict, dict]:
    """(sets, span, rests): the vertex sets of {1..n} with two or more
    vertices, smaller sets first; each set's possible edges as a mask; and
    its rests, the set minus one vertex, in the order of that vertex."""
    sets = [vs for k in range(2, n + 1) for vs in itertools.combinations(range(1, n + 1), k)]
    span = {vs: sum(1 << _pair_index(i, j, n) for i, j in itertools.combinations(vs, 2))
            for vs in sets}
    rests = {vs: [vs[:k] + vs[k + 1:] for k in range(len(vs))] for vs in sets}
    return sets, span, rests


def _connected_sets(n: int, masks: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Each nonempty vertex set of {1..n} -> which of the edge masks (an int64
    array) connect the subgraph it induces, as a boolean column.  A set is
    connected when some vertex has a neighbour in its connected rest."""
    sets, span, rests = _vertex_sets(n)
    connected = {(v,): np.ones(len(masks), dtype=bool) for v in range(1, n + 1)}
    for vs in sets:
        connected[vs] = np.any([connected[r] & (masks & (span[vs] ^ span.get(r, 0)) != 0)
                                for r in rests[vs]], axis=0)
    return connected


@lru_cache(maxsize=None)
def connected_graph_list(n: int) -> np.ndarray:
    """Memoised edge masks of all connected graphs on {1..n} as a read-only,
    ascending int64 array: the masks 0 .. 2^(n(n-1)/2)-1 whose full vertex
    set is connected, all tested at once (n <= 6).  Read it through
    `.tolist()` where a mask becomes a Graph, a canonical key or a bit count."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if n > MAX_WEIGHT_SUM_VERTICES:
        raise ValueError(f"connected graph lists are capped at n = {MAX_WEIGHT_SUM_VERTICES}, "
                         f"got {n}")
    masks = np.arange(1 << n * (n - 1) // 2 if n else 0, dtype=np.int64)  # none at n = 0
    if n:
        masks = masks[_connected_sets(n, masks)[tuple(range(1, n + 1))]]
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=None)
def connected_block_profiles(n: int) -> tuple[tuple[int, int], tuple[tuple, ...]]:
    """The blocks of the connected graphs on {1..n} (none for n = 1) as slots of
    a (graphs x width) matrix, width = max(1, n - 1) the most blocks: ((rows,
    width), groups).  Row r is connected_graph_list(n)[r]; a group is (vertices,
    flat slot indices, relabelled masks) of the blocks on one vertex set, in
    the order of their first slots.  All graphs are tested at once, vertex set
    by vertex set, with the connectivity test of the list run again on its
    masks: a set is two-connected (or one edge) when every rest is connected,
    and a block when it is two-connected inside no larger two-connected set;
    the blocks of a graph sit in the order of their lowest edges."""
    if n > MAX_WEIGHT_SUM_VERTICES:
        raise ValueError(f"block tables are capped at n = {MAX_WEIGHT_SUM_VERTICES}, got {n}")
    masks = connected_graph_list(n)
    width = max(1, n - 1)
    sets, span, rests = _vertex_sets(n)
    connected = _connected_sets(n, masks)
    covered, found, lowest = {}, [], np.zeros_like(masks)  # lowest: the blocks' lowest edges
    for vs in reversed(sets):  # every set inside vs is popped after vs
        two = connected.pop(vs) & np.all([connected[r] for r in rests[vs]], axis=0)
        above = covered.pop(vs, False)
        for r in rests[vs]:
            covered[r] = covered.get(r, False) | two | above
        rows = np.flatnonzero(two & ~above)
        edges = masks[rows] & span[vs]
        lowest[rows] |= edges & -edges
        found.append((vs, rows, edges))
    bits = {vs: [b for b in range(span[vs].bit_length()) if span[vs] >> b & 1] for vs in sets}
    groups = [(vs, rows * width + np.bitwise_count(lowest[rows] & ((edges & -edges) - 1)),
               sum((edges >> b & 1) << k for k, b in enumerate(bits[vs])))
              for vs, rows, edges in found if len(rows)]
    return (len(masks), width), tuple(sorted(groups, key=lambda group: group[1][0]))


@lru_cache(maxsize=None)
def two_connected_graph_list(n: int) -> np.ndarray:
    """Memoised edge masks of all two-connected graphs on {1..n} as a
    read-only, ascending int64 array: the block table's group on all n
    vertices, whose one block is the whole graph."""
    _, groups = connected_block_profiles(n)  # refuses n > 6 before any walk
    masks = next((masks for vs, _, masks in groups if len(vs) == n), np.zeros(0, dtype=np.int64))
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=None)
def _connected_sum_table(m: int) -> np.ndarray:
    """Entry P is the sum of (-1)^|E(G)| over the connected graphs G on
    {1..m} inside the edge pattern P: a hard-core sample's connected sum when
    exactly the pairs of P overlap.  The subset-sum (zeta) transform over the
    edge bits of the signs at `connected_graph_list(m)`; read-only int64."""
    masks = connected_graph_list(m)  # refuses m > 6 before any allocation
    table = np.zeros(1 << m * (m - 1) // 2, dtype=np.int64)
    table[masks] = 1 - 2 * (np.bitwise_count(masks) & 1).astype(np.int64)  # uint8 would wrap
    for b in range(m * (m - 1) // 2):
        half = table.reshape(-1, 2, 1 << b)
        half[:, 1] += half[:, 0]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1 << 12)
def canonical_colouring(n: MultiIndex) -> tuple[int, ...]:
    """Colour vector with n_1 ones, then n_2 twos, ... (ascending species);
    memoised, as every weight sum asks for it once per index."""
    if n.degree < 1:
        raise ValueError("canonical colouring needs a multi-index of degree >= 1")
    colours: list[int] = []
    for species, count in n.items():
        colours.extend([species] * count)
    return tuple(colours)


# -- canonical forms of coloured graphs --------------------------------------
#
# The canonical key of (graph, colours) is the minimum of the relabelled edge
# mask over all relabellings that map each vertex to a slot of its own colour
# in the sorted colour vector.  Keys coincide exactly for colour-preserving-
# isomorphic coloured graphs.  Species enter only by equality and order, so
# the relabellings depend on a sorted colouring only through its run lengths
# (`_runs`).  For sizes <= 6 the minimization runs over all 2^(n(n-1)/2)
# masks at once, one table per run-length pattern: each permutation sends
# the low and the high half of the edge bits through two small lookup tables,
# whose outer OR is the relabelled mask of every mask.  The class tables of
# the weight sums index these tables directly with numpy;
# `canonical_coloured_key` serves callers with one graph at a time, and above
# size 6 it minimizes over the permutations mask by mask.


def _runs(colours_sorted: tuple[int, ...]) -> tuple[int, ...]:
    """The run lengths of a sorted colour vector: (1, 1, 3) -> (2, 1)."""
    return tuple(len(list(run)) for _, run in itertools.groupby(colours_sorted))


def _perms_fixing_colours(runs: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All vertex permutations of {1..n} preserving a sorted colouring with
    these run lengths: each run's slots are permuted within themselves."""
    starts = itertools.accumulate(runs, initial=1)
    slots = [range(start, start + run) for start, run in zip(starts, runs)]
    for assignment in itertools.product(*map(itertools.permutations, slots)):
        yield tuple(itertools.chain.from_iterable(assignment))


def _relabel_mask(size: int, mask: int, perm: tuple[int, ...]) -> int:
    """Apply vertex relabelling v -> perm[v-1] to an edge bitmask."""
    out = 0
    for b, (i, j) in enumerate(_pairs(size)):
        if mask >> b & 1:
            a, c = sorted((perm[i - 1], perm[j - 1]))
            out |= 1 << _pair_index(a, c, size)
    return out


def _subset_ors(bits: np.ndarray) -> np.ndarray:
    """out[:, x] = OR of bits[:, b] over the set bits b of x."""
    out = np.zeros((len(bits), 1), dtype=np.int64)
    for b in range(bits.shape[1]):
        out = np.concatenate((out, out | bits[:, b, None]), axis=1)
    return out


@lru_cache(maxsize=None)
def _canonical_table(size: int, runs: tuple[int, ...]) -> np.ndarray:
    """mask -> canonical mask, minimized over the relabellings that preserve a
    sorted colouring with these run lengths: 63 patterns cover sizes <= 6.

    A relabelling moves each edge bit to one bit, so it maps the mask
    hi << k | lo to HI[hi] | LO[lo], with one small table per half of the
    bits; a permutation's table over all masks is the outer OR of the two."""
    perms = np.array(list(_perms_fixing_colours(runs)), dtype=np.int64)
    i, j = np.array(_pairs(size), dtype=np.int64).reshape(-1, 2).T - 1
    moved = 1 << _pair_index(np.minimum(perms[:, i], perms[:, j]),
                             np.maximum(perms[:, i], perms[:, j]), size)
    k = len(i) // 2
    canon = np.full(1 << len(i), np.iinfo(np.int64).max)
    for lo, hi in zip(_subset_ors(moved[:, :k]), _subset_ors(moved[:, k:])):
        np.minimum(canon, (hi[:, None] | lo).ravel(), out=canon)
    return canon


@lru_cache(maxsize=400_000)
def canonical_coloured_key(size: int, mask: int, colours: tuple[int, ...]) -> tuple:
    """Canonical key of a coloured graph given as (vertex count, edge mask, colours)."""
    if size > MAX_ENUMERATION_VERTICES:
        raise ValueError(f"canonical keys are capped at {MAX_ENUMERATION_VERTICES} vertices, "
                         f"got a graph on {size}")
    sorted_colours = tuple(sorted(colours))
    # base relabelling: vertices of each colour, in order, onto that colour's slots
    base = [0] * size
    for slot, v in enumerate(sorted(range(size), key=colours.__getitem__), start=1):
        base[v] = slot
    mask, runs = _relabel_mask(size, mask, tuple(base)), _runs(sorted_colours)
    if size <= 6:
        return (size, sorted_colours, int(_canonical_table(size, runs)[mask]))
    best = min(_relabel_mask(size, mask, perm) for perm in _perms_fixing_colours(runs))
    return (size, sorted_colours, best)


@lru_cache(maxsize=None)
def _connected_block_classes(m: int, colours: tuple[int, ...]) -> tuple[tuple, tuple]:
    """(keys, rows) over the connected graphs on {1..m} coloured by the sorted
    `colours` with two or more blocks (at m = 1, the single vertex's empty
    row): each distinct canonical block key once, and one row (ascending key
    indices, number of labelled graphs) per class.  The one-block graphs are
    `_two_connected_classes`, so the two tables partition the connected graphs.

    A block-factorizing weight depends only on the multiset of canonical
    (block, restricted colouring) keys, which no model enters, so the table is
    built once per (m, colours) and shared by every model.  A block on
    ascending vertices restricts sorted colours to sorted colours, so its key
    is `_canonical_table` of its run lengths at its relabelled mask: one
    lookup per vertex set, coded as (pattern, canonical mask) in one integer.
    Sorting the codes of each row and counting equal rows gives the rows.
    """
    shape, groups = connected_block_profiles(m)
    shift = m * (m - 1) // 2  # a block mask on at most m vertices fits in these bits
    patterns: dict[tuple, int] = {}
    codes = np.full(shape, -1, dtype=np.int64)  # -1 pads graphs with fewer blocks
    for verts, at, masks in (group for group in groups if len(group[0]) < m):  # not one block
        pattern = (len(verts), tuple(colours[v - 1] for v in verts))
        codes.flat[at] = (patterns.setdefault(pattern, len(patterns)) << shift
                          | _canonical_table(pattern[0], _runs(pattern[1]))[masks])
    codes.sort(axis=1)
    codes = codes[(codes[:, -1] >= 0) | (m == 1)]  # drop the emptied rows, none at m = 1
    codes = codes[np.lexsort(codes.T)]  # equal rows now adjacent
    # a class starts at each row unlike the one before, the first unlike the -2s (no code)
    starts = np.flatnonzero(np.diff(codes, axis=0, prepend=-2).any(axis=1))
    counts, codes = np.diff(starts, append=len(codes)).tolist(), codes[starts]
    distinct = np.sort(codes[codes >= 0])  # not np.unique, which imports numpy.ma (1 MB)
    distinct = distinct[np.diff(distinct, prepend=-1) != 0].tolist()
    pads = np.count_nonzero(codes < 0, axis=1).tolist()
    pattern_of = list(patterns)
    keys = tuple((*pattern_of[c >> shift], c & ((1 << shift) - 1)) for c in distinct)
    place = dict(zip(distinct, range(len(distinct)))).__getitem__  # one int per index, shared
    return keys, tuple((tuple(map(place, row[pad:])), count)
                       for row, pad, count in zip(codes.tolist(), pads, counts))


@lru_cache(maxsize=None)
def _two_connected_classes(m: int, colours: tuple[int, ...]) -> tuple[tuple, tuple]:
    """(keys, counts) over the two-connected graphs on {1..m} coloured by the
    sorted `colours`: class i is the canonical key keys[i] of counts[i]
    labelled graphs, by one `_canonical_table` lookup over the masks of
    `two_connected_graph_list(m)`; model-independent like the connected table."""
    classes = Counter(_canonical_table(m, _runs(colours))[two_connected_graph_list(m)].tolist())
    return tuple((m, colours, c) for c in classes), tuple(classes.values())


# -- JSON interchange --------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_json(doc: Mapping, path: str = "") -> Graph:
    """A graph from {"n": ..., "edges": [[i, j], ...]}; `path` is the
    document's JSON key path, for error messages."""
    at = f"{path}." if path else ""
    doc = config_mapping(doc, path or "graph")
    n = config_int(*config_field(doc, "n", path), 0, MAX_GRAPH_VERTICES, "a vertex count")
    edges = [[config_int(v, f"{at}edges[{k}][{m}]", 1, n, "a vertex")
              for m, v in enumerate(config_list(e, f"{at}edges[{k}]", 2))]
             for k, e in enumerate(config_list(*config_field(doc, "edges", path)))]
    return Graph.from_edges(n, edges)


def coloured_graph_from_json(doc: Mapping) -> ColouredGraph:
    g = graph_from_json(doc)
    colours = doc.get("colours", [1] * g.n)
    return ColouredGraph(g, tuple(config_species(c, f"colours[{k}]")
                                  for k, c in enumerate(config_list(colours, "colours"))))
