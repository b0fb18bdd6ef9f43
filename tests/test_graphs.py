import itertools
import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virialkit import graphs
from virialkit.graphs import (
    Block,
    BlockDecomposition,
    ColouredGraph,
    Graph,
    articulation_points,
    block_cut_tree,
    block_decomposition,
    canonical_colouring,
    canonical_coloured_key,
    connected_block_profiles,
    connected_graph_list,
    dissymmetry_check,
    enumerate_graphs,
    graph_from_json,
    graph_to_json,
    coloured_graph_from_json,
    is_connected,
    is_two_connected,
    two_connected_graph_list,
)
from virialkit.graphs import (
    _adjacency,
    _canonical_table,
    _connected_block_classes,
    _pair_index,
    _pairs,
    _perms_fixing_colours,
    _relabel_mask,
    _runs,
    _split_blocks,
)
from virialkit.series import MultiIndex

TRIANGLE = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])
EDGE = Graph.from_edges(2, [(1, 2)])
TRIANGLE_PENDANT = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    g = Graph.from_edges(3, [(3, 1), (1, 3)])  # normalized, deduplicated
    assert g.edges == frozenset({(1, 3)})


def test_is_connected_examples():
    assert is_connected(Graph.from_edges(1, []))  # single vertex counts as connected
    assert not is_connected(Graph.from_edges(2, []))
    assert is_connected(PATH3)
    assert not is_connected(Graph.from_edges(0, []))


def test_is_two_connected_examples():
    assert is_two_connected(EDGE)  # deleting either endpoint leaves one connected vertex
    assert not is_two_connected(PATH3)
    assert is_two_connected(TRIANGLE)
    assert not is_two_connected(Graph.from_edges(1, []))
    assert not is_two_connected(Graph.from_edges(2, []))


def test_articulation_points_examples():
    assert articulation_points(TRIANGLE) == frozenset()
    assert articulation_points(PATH3) == frozenset({2})
    assert articulation_points(TRIANGLE_PENDANT) == frozenset({3})
    with pytest.raises(ValueError):
        articulation_points(Graph.from_edges(2, []))


def test_block_decomposition_triangle():
    d = block_decomposition(TRIANGLE)
    assert len(d.blocks) == 1
    assert d.blocks[0].vertices == (1, 2, 3)
    assert d.blocks[0].edges == TRIANGLE.edges
    assert d.articulation_points == frozenset()


def test_block_decomposition_path():
    d = block_decomposition(PATH3)
    assert sorted(b.edges for b in d.blocks) == [frozenset({(1, 2)}), frozenset({(2, 3)})]
    assert d.articulation_points == frozenset({2})


def test_block_decomposition_triangle_pendant():
    d = block_decomposition(TRIANGLE_PENDANT)
    assert len(d.blocks) == 2
    edge_sets = sorted(sorted(b.edges) for b in d.blocks)
    assert edge_sets == [[(1, 2), (1, 3), (2, 3)], [(3, 4)]]


def test_block_decomposition_errors():
    with pytest.raises(ValueError):
        block_decomposition(Graph.from_edges(1, []))
    with pytest.raises(ValueError):
        block_decomposition(Graph.from_edges(3, [(1, 2)]))


def set_block_decomposition(g: Graph) -> BlockDecomposition:
    """The oracle: split recursively at cut vertices found by deleting each
    vertex and counting components on plain vertex and edge sets."""

    def components(vertices: set[int], edges: frozenset, removed: int) -> list[set[int]]:
        remaining = vertices - {removed}
        adj: dict[int, set[int]] = {v: set() for v in remaining}
        for i, j in edges:
            if i != removed and j != removed:
                adj[i].add(j)
                adj[j].add(i)
        comps, seen = [], set()
        for v in remaining:
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for w in adj[u] - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def cut_vertex(vertices: set[int], edges: frozenset) -> int | None:
        if len(vertices) <= 2:
            return None
        for v in vertices:
            if len(components(vertices, edges, v)) > 1:
                return v
        return None

    def decompose(vertices: set[int], edges: frozenset) -> list[tuple[tuple[int, ...], frozenset]]:
        v = cut_vertex(vertices, edges)
        if v is None:
            return [(tuple(sorted(vertices)), edges)]
        out = []
        for comp in components(vertices, edges, v):
            sub_vertices = comp | {v}
            sub_edges = frozenset(e for e in edges if e[0] in sub_vertices and e[1] in sub_vertices)
            out.extend(decompose(sub_vertices, sub_edges))
        return out

    def relabelled_mask(vertices: tuple[int, ...], edges: frozenset) -> int:
        pos = {v: i + 1 for i, v in enumerate(vertices)}
        bit = {pair: b for b, pair in
               enumerate(itertools.combinations(range(1, len(vertices) + 1), 2))}
        return sum(1 << bit[tuple(sorted((pos[i], pos[j])))] for i, j in edges)

    parts = decompose(set(range(1, g.n + 1)), g.edges)
    parts.sort(key=lambda part: sorted(part[1]))
    blocks = [Block(vertices, relabelled_mask(vertices, edges)) for vertices, edges in parts]
    cuts = frozenset(v for v in range(1, g.n + 1)
                     if g.n > 2 and len(components(set(range(1, g.n + 1)), g.edges, v)) > 1)
    return BlockDecomposition(tuple(blocks), cuts)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """A random spanning tree plus each remaining pair with a random density."""
    density = rng.random()
    edges = {tuple(sorted((v, rng.randint(1, v - 1)))) for v in range(2, n + 1)}
    edges |= {p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < density}
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return Graph.from_edges(n, [(order[i - 1], order[j - 1]) for i, j in edges])


def test_block_decomposition_matches_set_oracle_exhaustively():
    for n in range(2, 6):
        for g in enumerate_graphs(n, "connected"):
            assert block_decomposition(g) == set_block_decomposition(g), g


@pytest.mark.parametrize("n", [6, 7, 8, 40])
def test_block_decomposition_matches_set_oracle_on_random_graphs(n):
    rng = random.Random(1000 + n)
    for _ in range(300):
        g = random_connected_graph(rng, n)
        assert block_decomposition(g) == set_block_decomposition(g), g


def decoded_block_profiles(n):
    """The block table read back as one list of (vertices, relabelled mask)
    per row; a row's blocks fill its first columns."""
    (rows, width), groups = connected_block_profiles(n)
    table = [[None] * width for _ in range(rows)]
    for verts, at, masks in groups:
        for slot, mask in zip(at.tolist(), masks.tolist()):
            assert table[slot // width][slot % width] is None
            table[slot // width][slot % width] = (verts, mask)
    profiles = []
    for row in table:
        used = row.index(None) if None in row else width
        assert row[used:] == [None] * (width - used)
        profiles.append(tuple(row[:used]))
    return tuple(profiles)


def test_block_profiles_match_set_oracle():
    for n in range(2, 6):
        expected = tuple(tuple((b.vertices, b.relabelled_mask)
                               for b in set_block_decomposition(g).blocks)
                         for g in enumerate_graphs(n, "connected"))
        assert decoded_block_profiles(n) == expected
        assert connected_block_profiles(n)[0] == (len(expected), n - 1)
    assert connected_block_profiles(1) == ((1, 1), ())


@pytest.mark.parametrize("n", range(1, 7))
def test_block_table_equals_the_graph_by_graph_split(n):
    """Every slot, mask, dtype and group of the table built for all graphs at
    once, against `_split_blocks` run graph by graph with the groups in the
    order the slots first name them."""
    (rows, width), groups = connected_block_profiles(n)
    expected: dict = {}
    for row, graph_mask in enumerate(connected_graph_list(n).tolist() if n > 1 else ()):
        for col, (verts, mask) in enumerate(_split_blocks(n, _adjacency(n, graph_mask))[0]):
            at, masks = expected.setdefault(verts, ([], []))
            at.append(row * width + col)
            masks.append(mask)
    assert (rows, width) == (len(connected_graph_list(n)), max(1, n - 1))
    assert [(verts, at.tolist(), masks.tolist()) for verts, at, masks in groups] == \
        [(verts, at, masks) for verts, (at, masks) in expected.items()]
    assert all(at.dtype == masks.dtype == np.int64 for _, at, masks in groups)


def test_two_connected_list_is_read_off_the_block_table():
    for n in range(1, 7):
        listed = two_connected_graph_list(n)
        assert listed.tolist() == [g.mask for g in enumerate_graphs(n, "two_connected")], n


def test_connected_list_equals_the_mask_walk():
    for n in range(0, 7):
        masks = connected_graph_list(n).tolist()
        assert masks == [g.mask for g in enumerate_graphs(n, "connected")], n
        assert masks == sorted(set(masks)), n
        assert all(type(mask) is int for mask in masks), n


@pytest.mark.parametrize("n", range(0, 7))
def test_graph_lists_are_read_only_int64_arrays(n):
    for listed in (connected_graph_list(n), two_connected_graph_list(n)):
        assert listed.dtype == np.int64 and listed.ndim == 1
        with pytest.raises(ValueError, match="read-only"):
            listed[:1] = 0


def test_cold_connected_lists_retain_under_half_a_mebibyte():
    # 26 704 masks at n = 6 take 0.2 MiB as int64; as Graph objects they took 2.3 MiB
    connected_graph_list.cache_clear()
    tracemalloc.start()
    try:
        lists = [connected_graph_list(n) for n in range(7)]
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(len, lists)) == 1 + 1 + 4 + 38 + 728 + 26704
    assert retained < 0.5 * 2 ** 20


@pytest.fixture
def walks(monkeypatch):
    """The (n, class) of every `graphs.enumerate_graphs` call from here on."""
    calls = []

    def counting(n, graph_class="all"):
        calls.append((n, graph_class))
        return enumerate_graphs(n, graph_class)

    monkeypatch.setattr(graphs, "enumerate_graphs", counting)
    return calls


def test_cold_graph_lists_and_block_table_walk_no_mask(walks):
    for fn in (connected_graph_list, two_connected_graph_list, connected_block_profiles):
        fn.cache_clear()
    for n in range(1, 7):
        connected_graph_list(n)
        two_connected_graph_list(n)
        connected_block_profiles(n)
    assert walks == []


def test_block_table_refuses_seven_vertices_at_once(walks):
    built = connected_graph_list.cache_info().currsize
    start = time.perf_counter()
    with pytest.raises(ValueError, match="capped at n = 6"):
        connected_block_profiles(7)
    with pytest.raises(ValueError, match="capped at n = 6"):
        two_connected_graph_list(7)
    for n in (7, 8):
        with pytest.raises(ValueError, match="capped at n = 6"):
            connected_graph_list(n)
    assert time.perf_counter() - start < 0.5
    assert connected_graph_list.cache_info().currsize == built
    assert walks == []
    with pytest.raises(ValueError, match=">= 0"):
        connected_graph_list(-1)


def test_block_cut_tree_examples():
    t = block_cut_tree(block_decomposition(TRIANGLE))
    assert t.block_count == 1 and t.cut_vertices == () and t.edges == ()
    t = block_cut_tree(block_decomposition(PATH3))
    assert t.block_count == 2 and t.cut_vertices == (2,) and len(t.edges) == 2
    bowtie = Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    t = block_cut_tree(block_decomposition(bowtie))
    assert t.block_count == 2 and t.cut_vertices == (3,) and len(t.edges) == 2


def test_dissymmetry_of_the_single_vertex():
    # one vertex, no block: 1 + 0 = 1 + 0; the block split itself still
    # needs two vertices
    assert dissymmetry_check(Graph(1, 0)) == (1, 1)
    with pytest.raises(ValueError, match="at least 2 vertices"):
        block_decomposition(Graph(1, 0))


def test_dissymmetry_examples():
    assert dissymmetry_check(TRIANGLE) == (4, 4)
    assert dissymmetry_check(PATH3) == (5, 5)
    assert dissymmetry_check(TRIANGLE_PENDANT) == (6, 6)


def test_enumerate_counts_small():
    assert sum(1 for _ in enumerate_graphs(3, "connected")) == 4
    assert sum(1 for _ in enumerate_graphs(4, "connected")) == 38
    assert sum(1 for _ in enumerate_graphs(4, "two_connected")) == 10
    assert sum(1 for _ in enumerate_graphs(2, "two_connected")) == 1
    for n in range(1, 6):
        assert sum(1 for _ in enumerate_graphs(n, "all")) == 2 ** (n * (n - 1) // 2)


def graph_built_enumeration(n, graph_class):
    """The reference walk: a Graph for every edge mask, then the class test on it."""
    for mask in range(1 << (n * (n - 1) // 2)):
        g = Graph(n, mask)
        if graph_class == "connected" and not is_connected(g):
            continue
        if graph_class == "two_connected" and not is_two_connected(g):
            continue
        yield g


@pytest.mark.parametrize("graph_class", ["all", "connected", "two_connected"])
def test_enumeration_matches_the_graph_built_walk(graph_class):
    for n in range(1, 7):
        graphs = list(graph_built_enumeration(n, graph_class))
        assert list(enumerate_graphs(n, graph_class)) == graphs, n
        assert all(Graph.from_edges(n, g.sorted_edges()) == g for g in graphs), n


def test_enumerate_cap_and_class():
    with pytest.raises(ValueError):
        list(enumerate_graphs(9, "all"))
    with pytest.raises(ValueError):
        list(enumerate_graphs(3, "planar"))


def test_canonical_colouring_examples():
    assert canonical_colouring(MultiIndex({1: 2})) == (1, 1)
    assert canonical_colouring(MultiIndex({1: 2})) is canonical_colouring(MultiIndex({1: 2}))
    assert canonical_colouring(MultiIndex({1: 1, 2: 2})) == (1, 2, 2)
    assert canonical_colouring(MultiIndex({3: 3})) == (3, 3, 3)
    with pytest.raises(ValueError):
        canonical_colouring(MultiIndex())


def test_exhaustive_block_identities_up_to_5():
    # block-size identity, edge partition, vertex cover, and the articulation
    # characterisation of two-connectivity, over every connected graph
    for n in range(2, 6):
        for g in enumerate_graphs(n, "connected"):
            d = block_decomposition(g)
            assert sum(b.size - 1 for b in d.blocks) == n - 1
            lhs, rhs = dissymmetry_check(g)
            assert lhs == rhs
            all_edges = [e for b in d.blocks for e in b.edges]
            assert len(all_edges) == len(set(all_edges)) == len(g.edges)
            assert set(e for b in d.blocks for e in b.edges) == set(g.edges)
            assert set(v for b in d.blocks for v in b.vertices) == set(range(1, n + 1))
            # each articulation point in >= 2 blocks, others in exactly 1
            for v in range(1, n + 1):
                holding = sum(1 for b in d.blocks if v in b.vertices)
                if v in d.articulation_points:
                    assert holding >= 2
                else:
                    assert holding == 1
            assert is_two_connected(g) == (not articulation_points(g))
            block_cut_tree(d)  # asserts the tree property internally


def test_canonical_key_invariant_under_colour_preserving_relabelling():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 6)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = [p for p in pairs if rng.random() < 0.5]
        colours = tuple(rng.randint(1, 3) for _ in range(n))
        g = Graph.from_edges(n, edges)
        key = canonical_coloured_key(n, g.mask, colours)
        # colour-preserving relabelling: permute within colour classes
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
        colours2 = tuple(colours[perm.index(v + 1)] for v in range(n))
        assert colours2 == colours  # the relabelling preserved colours
        assert canonical_coloured_key(n, g2.mask, colours2) == key


def matmul_canonical_table(size, runs):
    """The oracle: the canonical table as one int64 (masks x edge bits) @
    (edge bits) product per colour-preserving permutation."""
    pairs = _pairs(size)
    bits = (np.arange(1 << len(pairs), dtype=np.int64)[:, None] >> np.arange(len(pairs))) & 1
    canon = None
    for perm in _perms_fixing_colours(runs):
        weights = np.array([1 << _pair_index(*sorted((perm[i - 1], perm[j - 1])), size)
                            for i, j in pairs], dtype=np.int64)
        relabelled = bits @ weights
        canon = relabelled if canon is None else np.minimum(canon, relabelled)
    return canon


def sorted_colour_patterns(size):
    """One sorted colour vector per composition of `size` into colour runs."""
    for cuts in itertools.product((False, True), repeat=size - 1):
        colour, colours = 1, [1]
        for cut in cuts:
            colour += cut
            colours.append(colour)
        yield tuple(colours)


CANONICAL_TABLE_PATTERNS = [p for size in range(1, 6) for p in sorted_colour_patterns(size)] + \
    [(1,) * 6, (1, 1, 1, 2, 2, 2), (1, 2, 3, 4, 5, 6)]


def test_canonical_table_equals_the_matmul_table():
    assert len(CANONICAL_TABLE_PATTERNS) == 31 + 3
    for colours in CANONICAL_TABLE_PATTERNS:
        table = _canonical_table(len(colours), _runs(colours))
        expected = matmul_canonical_table(len(colours), _runs(colours))
        assert table.dtype == expected.dtype and np.array_equal(table, expected), colours


def test_canonical_table_equals_the_minimum_over_relabellings():
    rng = random.Random(16)
    for colours in [(1, 1), (1, 1, 2), (1, 2, 2, 2), (1, 1, 2, 3, 3), (1,) * 6,
                    (1, 1, 1, 2, 2, 2), (1, 1, 2, 2, 3, 3)]:
        size = len(colours)
        table = _canonical_table(size, _runs(colours))
        for mask in rng.sample(range(len(table)), min(len(table), 12)):
            assert int(table[mask]) == min(_relabel_mask(size, mask, perm)
                                           for perm in _perms_fixing_colours(_runs(colours)))


def test_canonical_tables_are_one_per_run_length_pattern():
    # species enter a canonical table only by equality and order: the 923
    # sorted colourings of 1..6 vertices over six species (917 of degree 2
    # to 6) share the 63 compositions of 1..6 into runs
    assert _runs((1, 1, 3)) == _runs((2, 2, 5)) == (2, 1)
    assert _runs((1, 2, 3, 4, 5, 6)) == (1,) * 6
    try:
        for m in range(1, 7):
            for colours in itertools.combinations_with_replacement(range(1, 7), m):
                _connected_block_classes(m, colours)
        assert _canonical_table.cache_info().currsize <= 63
    finally:
        _connected_block_classes.cache_clear()  # hundreds of MB of class tables


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 10 - 1))
def test_connectivity_matches_independent_bfs_n5(mask):
    # independent reachability oracle on plain adjacency sets
    g = Graph(5, mask)
    adj = {v: set() for v in range(1, 6)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for w in adj[v] - seen:
            seen.add(w)
            frontier.append(w)
    assert is_connected(g) == (len(seen) == 5)


def test_graph_json_round_trip():
    doc = graph_to_json(TRIANGLE_PENDANT)
    assert doc == {"n": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]]}
    assert graph_from_json(json.loads(json.dumps(doc))) == TRIANGLE_PENDANT
    cg = coloured_graph_from_json({"n": 2, "edges": [[1, 2]], "colours": [1, 2]})
    assert cg == ColouredGraph(EDGE, (1, 2))
    assert coloured_graph_from_json({"n": 2, "edges": [[1, 2]]}).colours == (1, 1)
