"""Labelled and coloured graphs at desk scale (enumeration to n = 8).

Graphs live on the vertex set {1..n} and are stored as explicit edge sets;
enumeration walks edge bitmasks 0 .. 2^(n(n-1)/2)-1, which keeps exhaustive
counts trivially correct.  Every structural question runs on vertex bitsets
through one reachability search: connectivity, two-connectivity and
articulation points by deleting vertices, and block decomposition by
splitting the vertex set at its first cut vertex until no part has one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

from .series import MultiIndex

MAX_ENUMERATION_VERTICES = 8


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (i, j), i < j, in lexicographic order; bit b <-> _pairs(n)[b]."""
    return tuple(itertools.combinations(range(1, n + 1), 2))


@lru_cache(maxsize=None)
def _pair_bit(n: int) -> dict[tuple[int, int], int]:
    return {pair: b for b, pair in enumerate(_pairs(n))}


def _normalize_edge(i: int, j: int, n: int) -> tuple[int, int]:
    if i == j:
        raise ValueError(f"self-loop at vertex {i}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"edge ({i},{j}) outside vertex set 1..{n}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices {1..n}."""

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        return cls(n, frozenset(_normalize_edge(i, j, n) for i, j in edges))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> Graph:
        pairs = _pairs(n)
        return cls(n, frozenset(pairs[b] for b in range(len(pairs)) if mask >> b & 1))

    def to_mask(self) -> int:
        bit = _pair_bit(self.n)
        mask = 0
        for e in self.edges:
            mask |= 1 << bit[e]
        return mask

    def adjacency(self) -> list[int]:
        """0-indexed neighbour bitsets: adj[v] has bit u set iff {v+1,u+1} is an edge."""
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return adj

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


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
    if g.n == 0:
        return False
    full = (1 << g.n) - 1
    return _reach(g.adjacency(), full) == full


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
    adj = g.adjacency()
    full = (1 << g.n) - 1
    return _reach(adj, full) == full and next(_cut_vertices(adj, full), None) is None


def articulation_points(g: Graph) -> frozenset[int]:
    """Vertices whose deletion disconnects the graph (brute-force deletion)."""
    if not is_connected(g):
        raise ValueError("articulation points are defined for connected graphs")
    return frozenset(v.bit_length() for v in _cut_vertices(g.adjacency(), (1 << g.n) - 1))


@dataclass(frozen=True)
class Block:
    """A maximal two-connected subgraph, with vertex labels of the parent graph."""

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def relabelled_mask(self) -> int:
        """Edge bitmask after relabelling the (sorted) vertices to 1..size."""
        pos = {v: i + 1 for i, v in enumerate(self.vertices)}
        bit = _pair_bit(self.size)
        mask = 0
        for i, j in self.edges:
            a, b = sorted((pos[i], pos[j]))
            mask |= 1 << bit[(a, b)]
        return mask


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    articulation_points: frozenset[int]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """The unique set of maximal two-connected subgraphs of a connected graph.

    Works on vertex bitsets: a part with a cut vertex v splits into the
    components of the part minus v, each together with v, until no part has a
    cut vertex.  A block is the subgraph induced on its vertices, so its edges
    are read off g; the articulation points are the vertices lying in two or
    more blocks.
    """
    if g.n < 2:
        raise ValueError("block decomposition needs at least 2 vertices")
    if not is_connected(g):
        raise ValueError("block decomposition needs a connected graph")
    adj = g.adjacency()
    masks = []
    parts = [(1 << g.n) - 1]
    while parts:
        part = parts.pop()
        v = next(_cut_vertices(adj, part), 0)
        if not v:
            masks.append(part)
            continue
        rest = part ^ v
        while rest:
            comp = _reach(adj, rest)
            parts.append(comp | v)
            rest ^= comp
    seen = shared = 0
    blocks = []
    for mask in masks:
        shared |= seen & mask
        seen |= mask
        blocks.append(Block(tuple(v + 1 for v in range(g.n) if mask >> v & 1),
                            frozenset((i, j) for i, j in g.edges
                                      if mask >> (i - 1) & 1 and mask >> (j - 1) & 1)))
    blocks.sort(key=lambda b: sorted(b.edges))
    return BlockDecomposition(tuple(blocks),
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
    """(1 + sum of block sizes, n + block count); equal for every connected graph."""
    d = block_decomposition(g)
    lhs = 1 + sum(b.size for b in d.blocks)
    rhs = g.n + len(d.blocks)
    return lhs, rhs


GRAPH_CLASSES = ("all", "connected", "two_connected")


def enumerate_graphs(n: int, graph_class: str = "all") -> Iterator[Graph]:
    """Every labelled graph of the class on {1..n}, exactly once, in edge-mask
    order.  The class test runs on neighbour bitsets read straight off each
    mask; a Graph is built only for the masks that are yielded."""
    if graph_class not in GRAPH_CLASSES:
        raise ValueError(f"graph class must be one of {GRAPH_CLASSES}, got {graph_class!r}")
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if n > MAX_ENUMERATION_VERTICES:
        raise ValueError(f"enumeration capped at n = {MAX_ENUMERATION_VERTICES}, got {n}")
    if n == 0:
        return
    pairs = _pairs(n)
    if graph_class == "all":
        for mask in range(1 << len(pairs)):
            yield Graph.from_mask(n, mask)
        return
    full = (1 << n) - 1
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            i, j = pairs[low.bit_length() - 1]
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        if _reach(adj, full) != full:
            continue
        if graph_class == "two_connected" and (
                n < 2 or next(_cut_vertices(adj, full), None) is not None):
            continue
        yield Graph.from_mask(n, mask)


@lru_cache(maxsize=None)
def connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Memoized list of all connected graphs on {1..n}."""
    return tuple(enumerate_graphs(n, "connected"))


@lru_cache(maxsize=None)
def two_connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Memoized list of all two-connected graphs on {1..n}."""
    return tuple(enumerate_graphs(n, "two_connected"))


@lru_cache(maxsize=None)
def connected_block_profiles(n: int) -> tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]:
    """Per connected graph on {1..n}: tuple of (size, relabelled mask, vertices) per block.

    The profile is colouring-independent, so weight sums over coloured graphs
    can reuse it for every colouring.
    """
    if n == 1:
        return ((),)  # the single-vertex graph has no blocks
    out = []
    for g in connected_graph_list(n):
        d = block_decomposition(g)
        out.append(tuple((b.size, b.relabelled_mask(), b.vertices) for b in d.blocks))
    return tuple(out)


def canonical_colouring(n: MultiIndex) -> tuple[int, ...]:
    """Colour vector with n_1 ones, then n_2 twos, ... (ascending species)."""
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
# isomorphic coloured graphs.  For sizes <= 6 the minimization is vectorized
# over all 2^(n(n-1)/2) masks at once (one table per colour pattern), which is
# what makes exhaustive weight sums over 26704 connected graphs affordable.


def _perms_fixing_colours(colours_sorted: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All vertex permutations of {1..n} preserving a sorted colour vector."""
    slots: dict[int, list[int]] = {}
    for pos, c in enumerate(colours_sorted, start=1):
        slots.setdefault(c, []).append(pos)
    groups = list(slots.values())
    for assignment in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [0] * len(colours_sorted)
        for positions, targets in zip(groups, assignment):
            for v, t in zip(positions, targets):
                perm[v - 1] = t
        yield tuple(perm)


def _relabel_mask(size: int, mask: int, perm: tuple[int, ...]) -> int:
    """Apply vertex relabelling v -> perm[v-1] to an edge bitmask."""
    pairs = _pairs(size)
    bit = _pair_bit(size)
    out = 0
    for b, (i, j) in enumerate(pairs):
        if mask >> b & 1:
            a, c = sorted((perm[i - 1], perm[j - 1]))
            out |= 1 << bit[(a, c)]
    return out


@lru_cache(maxsize=None)
def _mask_bits(size: int) -> np.ndarray:
    nbits = len(_pairs(size))
    return (np.arange(1 << nbits, dtype=np.int64)[:, None] >> np.arange(nbits)) & 1


@lru_cache(maxsize=None)
def _canonical_table(size: int, colours_sorted: tuple[int, ...]) -> np.ndarray:
    """mask -> canonical mask, minimized over colour-preserving relabellings."""
    pairs = _pairs(size)
    nbits = len(pairs)
    bit = _pair_bit(size)
    bits = _mask_bits(size)
    canon = None
    for perm in _perms_fixing_colours(colours_sorted):
        weights = np.empty(nbits, dtype=np.int64)
        for b, (i, j) in enumerate(pairs):
            a, c = sorted((perm[i - 1], perm[j - 1]))
            weights[b] = 1 << bit[(a, c)]
        relabelled = bits @ weights
        canon = relabelled if canon is None else np.minimum(canon, relabelled)
    return canon


@lru_cache(maxsize=400_000)
def canonical_coloured_key(size: int, mask: int, colours: tuple[int, ...]) -> tuple:
    """Canonical key of a coloured graph given as (vertex count, edge mask, colours)."""
    sorted_colours = tuple(sorted(colours))
    # base relabelling: vertices of each colour, in order, onto that colour's slots
    slots: dict[int, list[int]] = {}
    for pos, c in enumerate(sorted_colours, start=1):
        slots.setdefault(c, []).append(pos)
    taken = {c: 0 for c in slots}
    base = [0] * size
    for v in range(1, size + 1):
        c = colours[v - 1]
        base[v - 1] = slots[c][taken[c]]
        taken[c] += 1
    mask = _relabel_mask(size, mask, tuple(base))
    if size <= 6:
        return (size, sorted_colours, int(_canonical_table(size, sorted_colours)[mask]))
    best = min(_relabel_mask(size, mask, perm) for perm in _perms_fixing_colours(sorted_colours))
    return (size, sorted_colours, best)


# -- JSON interchange --------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_json(doc: Mapping) -> Graph:
    return Graph.from_edges(int(doc["n"]), ((int(i), int(j)) for i, j in doc["edges"]))


def coloured_graph_from_json(doc: Mapping) -> ColouredGraph:
    g = graph_from_json(doc)
    colours = doc.get("colours")
    if colours is None:
        colours = [1] * g.n
    return ColouredGraph(g, tuple(int(c) for c in colours))
