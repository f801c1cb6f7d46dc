"""Building blocks, composition operators, and the special families."""

from __future__ import annotations

import random

import pytest
from naive import (
    naive_complete_bipartite,
    naive_f_m,
    naive_g_construct,
    naive_inflate_triangles,
    naive_inflation_cutset,
    naive_layout_graph,
    naive_matched_layers,
)

from toughgraph import (
    Block,
    BlockKind,
    Graph,
    block,
    complete_bipartite,
    complete_graph,
    components,
    disjoint_union,
    f_m,
    g_construct,
    inflate_triangles,
    inflation_cutset,
    join,
    layout_graph,
    make_graph,
    matched_layers,
    petersen,
    plan,
)

# kind -> (order, size, x, y, cut core)
BLOCK_SHAPE = {
    BlockKind.L1: (8, 12, 0, 4, {1, 3, 5, 7}),
    BlockKind.L2: (7, 10, 0, 4, {1, 3, 5}),
    BlockKind.L3: (9, 14, 0, 4, {1, 3, 5, 7}),
    BlockKind.L4: (5, 5, 3, 4, {0, 2}),
}


def test_block_shapes_frozen():
    for kind, (n, m, x, y, core) in BLOCK_SHAPE.items():
        b = block(kind)
        assert b.n == n
        assert b.graph.edge_count == m
        assert (b.x, b.y) == (x, y)
        assert b.cut_core == frozenset(core)
        assert len(b.labels) == n


def test_block_is_cached_and_frozen():
    assert block(BlockKind.L1) is block(BlockKind.L1)
    with pytest.raises(Exception):
        block(BlockKind.L1).x = 1


def test_block_edge_sets_frozen():
    assert block(BlockKind.L2).graph.edges() == [
        (0, 1), (1, 2), (1, 3), (1, 5), (1, 6),
        (2, 3), (3, 4), (3, 5), (4, 5), (5, 6),
    ]
    assert block(BlockKind.L4).graph.edges() == [
        (0, 1), (0, 2), (0, 3), (1, 2), (2, 4),
    ]
    # the 9-vertex kind is the 8-vertex kind plus one degree-2 vertex
    l1 = set(block(BlockKind.L1).graph.edges())
    l3 = set(block(BlockKind.L3).graph.edges())
    assert l3 - l1 == {(3, 8), (5, 8)}


def test_blocks_are_connected():
    for kind in BlockKind:
        assert block(kind).graph.is_connected()


def test_cut_core_isolates_interior():
    # removing core + terminals must shatter the rest into singletons;
    # the composed witness ratio counts on one component per leftover
    for kind in BlockKind:
        b = block(kind)
        removed = set(b.cut_core) | {b.x, b.y}
        parts = components(b.graph, removed)
        assert len(parts) == b.n - len(removed)
        assert all(len(p) == 1 for p in parts)


def test_terminals_are_not_adjacent():
    for kind in BlockKind:
        b = block(kind)
        assert not b.graph.has_edge(b.x, b.y)


# -- composition -----------------------------------------------------------


def test_f_m_single_block():
    b = block(BlockKind.L2)
    g, pairs = f_m([b])
    assert g.n == 7
    assert pairs == ((0, 4),)
    # one terminal pair: the clique step adds just the xy edge
    assert g.edge_count == b.graph.edge_count + 1
    assert g.has_edge(0, 4)


def test_f_m_terminal_clique():
    blocks = [block(BlockKind.L1), block(BlockKind.L2), block(BlockKind.L4)]
    g, pairs = f_m(blocks)
    assert g.n == 8 + 7 + 5
    assert pairs == ((0, 4), (8, 12), (18, 19))
    flat = [v for pair in pairs for v in pair]
    assert all(
        g.has_edge(u, v) for i, u in enumerate(flat) for v in flat[i + 1 :]
    )
    base_m = sum(b.graph.edge_count for b in blocks)
    assert g.edge_count == base_m + 15  # C(6, 2) new terminal edges


def test_f_m_rejects_empty():
    with pytest.raises(ValueError):
        f_m([])


def test_g_construct_degenerate_cases():
    assert g_construct(3, []) == complete_graph(3)
    with pytest.raises(ValueError):
        g_construct(0, [])
    with pytest.raises(ValueError):
        g_construct(-1, [block(BlockKind.L1)])
    fm, _ = f_m([block(BlockKind.L1)])
    assert g_construct(0, [block(BlockKind.L1)]) == fm


def test_g_construct_join_layout():
    blocks = [block(BlockKind.L2), block(BlockKind.L2)]
    g = g_construct(3, blocks)
    assert g.n == 3 + 14
    # join vertices form a clique and see everything
    assert all(g.degree(v) == g.n - 1 for v in range(3))
    # block interiors keep their local degrees plus the join edges
    fm, _ = f_m(blocks)
    assert all(
        g.degree(3 + v) == fm.degree(v) + 3 for v in range(fm.n)
    )


def test_f_m_and_g_construct_match_edge_tuple_reference():
    rng = random.Random(909)
    kinds = list(BlockKind)
    for trial in range(120):
        blocks = [block(rng.choice(kinds)) for _ in range(rng.randrange(1, 7))]
        g, pairs = f_m(blocks)
        ref, ref_pairs = naive_f_m(blocks)
        assert pairs == ref_pairs
        # Graph equality compares the rows only; the count is derived
        assert g == ref and g.edge_count == ref.edge_count
        for l in range(4):
            g = g_construct(l, blocks)
            ref = naive_g_construct(l, blocks)
            assert g == ref and g.edge_count == ref.edge_count


def test_layout_graph_matches_the_naive_composition():
    # random gadgets of 1-5 vertices with every terminal mask, the empty
    # one included, in 1-3 runs of 1-4 copies, under K_l for l = 0..3
    rng = random.Random(3434)
    masks = set()
    for trial in range(600):
        runs = []
        for _ in range(rng.randrange(1, 4)):
            n = rng.randrange(1, 6)
            p = rng.uniform(0.2, 0.8)
            h = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p])
            mask = rng.randrange(1 << n)
            masks.add((n, mask))
            runs.append((h, mask, rng.randrange(1, 5)))
        for l in range(4):
            g, ref = layout_graph(l, runs), naive_layout_graph(l, runs)
            assert g == ref and g.edge_count == ref.edge_count, (l, runs)
    assert masks == {(n, mask) for n in range(1, 6) for mask in range(1 << n)}
    # with no runs it is the complete graph
    for l in range(4):
        assert layout_graph(l, ()) == complete_graph(l)


def _three_step(l, blocks):
    # the public composition: disjoint union, terminal clique, join
    base = disjoint_union([b.graph for b in blocks])
    pairs, offset = [], 0
    for b in blocks:
        pairs.append((offset + b.x, offset + b.y))
        offset += b.n
    clique = 0
    for x, y in pairs:
        clique |= 1 << x | 1 << y
    fm = Graph(tuple(
        r | clique ^ 1 << v if clique >> v & 1 else r
        for v, r in enumerate(base.neighbor_masks)
    ))
    return (join(complete_graph(l), fm) if l else fm), tuple(pairs)


def test_rows_built_once_match_the_three_step_composition():
    # the block lists of the large targets, with their own l and l = 0
    for target in ("449/200", "1199/700", "1301/701"):
        p = plan(target)
        blocks = [block(k) for k, count in p.block_kinds for _ in range(count)]
        for l in (p.l, 0):
            ref, ref_pairs = _three_step(l, blocks)
            g = g_construct(l, blocks)
            assert g.neighbor_masks == ref.neighbor_masks, (target, l)
            assert (g.n, g.edge_count) == (ref.n, ref.edge_count), (target, l)
        fm, pairs = f_m(blocks)
        assert pairs == ref_pairs, target
        assert fm.neighbor_masks == ref.neighbor_masks and fm.edge_count == ref.edge_count


# -- special families --------------------------------------------------------


def test_complete_bipartite_layout():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.edge_count == 6
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    assert all(g.has_edge(i, 2 + j) for i in range(2) for j in range(3))


def test_matched_layers_structure():
    a, b = 7, 5
    g = matched_layers(a, b)
    n1 = a - b + 1
    assert g.n == n1 + 2 * b
    # universal layer
    assert all(g.degree(v) == g.n - 1 for v in range(n1))
    # middle layer independent, matched to the clique layer
    for i in range(b):
        yi, zi = n1 + i, n1 + b + i
        assert g.degree(yi) == n1 + 1
        assert g.has_edge(yi, zi)
        for j in range(i + 1, b):
            assert not g.has_edge(yi, n1 + j)
            assert g.has_edge(zi, n1 + b + j)


def test_matched_layers_rejects_bad_parameters():
    with pytest.raises(ValueError):
        matched_layers(3, 3)
    with pytest.raises(ValueError):
        matched_layers(5, 1)


def test_families_match_edge_tuple_reference(petersen_graph):
    for a in range(7):
        for b in range(7):
            g, ref = complete_bipartite(a, b), naive_complete_bipartite(a, b)
            assert g == ref and g.edge_count == ref.edge_count, (a, b)
    for a in range(3, 13):
        for b in range(2, a):
            g, ref = matched_layers(a, b), naive_matched_layers(a, b)
            assert g == ref and g.edge_count == ref.edge_count, (a, b)
    cube = make_graph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4)])
    for base in (petersen_graph, complete_graph(4), cube):
        g, ref = inflate_triangles(base), naive_inflate_triangles(base)
        assert g == ref and g.edge_count == ref.edge_count, base


def test_petersen_is_moore(petersen_graph):
    g = petersen_graph
    assert g.n == 10 and g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))
    # adjacent pairs share no neighbor, nonadjacent pairs exactly one
    for u in range(10):
        for v in range(u + 1, 10):
            common = bin(g.neighbor_masks[u] & g.neighbor_masks[v]).count("1")
            assert common == (0 if g.has_edge(u, v) else 1)


def test_inflate_triangles_k4():
    g = inflate_triangles(complete_graph(4))
    assert g.n == 12 and g.edge_count == 18
    assert all(g.degree(v) == 3 for v in range(12))
    # triangle at each original vertex
    for v in range(4):
        b = 3 * v
        assert g.has_edge(b, b + 1) and g.has_edge(b, b + 2) and g.has_edge(b + 1, b + 2)


def test_inflate_triangles_petersen(petersen_graph):
    g = inflate_triangles(petersen_graph)
    assert g.n == 30 and g.edge_count == 45
    assert all(g.degree(v) == 3 for v in range(30))
    assert g.is_connected()


def test_inflate_rejects_noncubic():
    with pytest.raises(ValueError):
        inflate_triangles(complete_bipartite(2, 3))
    with pytest.raises(ValueError):
        inflate_triangles(make_graph(0, []))


def test_inflation_cutset_ratio():
    for base in (complete_graph(4), petersen()):
        inflated = inflate_triangles(base)
        cut = inflation_cutset(base)
        assert len(cut) == base.edge_count
        parts = components(inflated, cut)
        assert len(parts) == base.n
        # nothing bigger than a triangle survives
        assert all(1 <= len(p) <= 3 for p in parts)


def _connected_cubic(rng: random.Random, n: int) -> Graph:
    """A random connected simple 3-regular graph on an even n, by
    rejection from random pairings of the vertices' three ends."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        pairs = {tuple(sorted(ends[i : i + 2])) for i in range(0, len(ends), 2)}
        if len(pairs) == len(ends) // 2 and all(u != v for u, v in pairs):
            g = make_graph(n, pairs)
            if g.is_connected():
                return g


def test_inflation_cutset_matches_the_adjacency_list_walk(petersen_graph):
    # the 3/2 certificate lists the cutset's vertices, so the mask walk
    # must pick the very vertices the adjacency-list walk picks
    rng = random.Random(38)
    bases = [petersen_graph, complete_graph(4)]
    bases += [_connected_cubic(rng, rng.randrange(4, 40, 2)) for _ in range(120)]
    for base in bases:
        assert inflation_cutset(base) == naive_inflation_cutset(base), base.edges()
        assert inflate_triangles(base) == naive_inflate_triangles(base), base.edges()


def test_inflation_cutset_needs_connected():
    two = disjoint_union([complete_graph(4), complete_graph(4)])
    with pytest.raises(ValueError):
        inflation_cutset(two)
