"""Exact oracles cross-checked against the naive reference implementations."""

from __future__ import annotations

import hashlib
import json
import random
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from naive import (
    naive_alpha,
    naive_alpha_branching,
    naive_component_count,
    naive_cutsets_in_search_order,
    naive_dinkelbach_rounds,
    naive_dinkelbach_witness,
    naive_first_optimal_cutset,
    naive_hamilton_backtrack,
    naive_hamilton_cycle,
    naive_hamilton_dp,
    naive_hamilton_path,
    naive_layout_graph,
    naive_toughness,
)
from toughgraph import (
    BlockKind,
    Graph,
    SizeLimitError,
    block,
    complete_bipartite,
    complete_graph,
    cutset_witness,
    decomposition_below,
    disjoint_union,
    encode_graph6,
    g_construct,
    has_hamilton_path,
    independence_number,
    inflate_triangles,
    is_hamiltonian,
    join,
    make_graph,
    matched_layers,
    petersen,
    plan,
    plan_layout,
    plan_order,
    synthesize,
    toughness_below,
    toughness_exact,
    toughness_upper_search,
    unit_toughness_graph,
)
from toughgraph import oracles
from toughgraph.graphs import _bits, _reach
from toughgraph.synth import plan_graph
from toughgraph.oracles import (
    DEFAULT_NODE_LIMIT,
    _below_search,
    _hamilton_backtrack,
    _hamilton_dp,
)


def _random_graph(rng: random.Random, n: int, p: float):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


def _cycle(n: int):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


# -- toughness -------------------------------------------------------------


def test_toughness_known_values():
    assert toughness_exact(complete_bipartite(2, 3)).value == Fraction(2, 3)
    assert toughness_exact(_cycle(5)).value == 1
    assert toughness_exact(petersen()).value == Fraction(4, 3)
    assert toughness_exact(unit_toughness_graph()).value == 1
    inf = toughness_exact(complete_graph(4))
    assert inf.is_infinite and inf.value is None and inf.witness is None


def test_toughness_disconnected_is_zero():
    r = toughness_exact(make_graph(4, [(0, 1), (2, 3)]))
    assert r.value == 0
    assert r.witness.cutset == frozenset()
    assert r.witness.component_count == 2


def test_toughness_witness_is_self_consistent():
    r = toughness_exact(complete_bipartite(2, 3))
    w = r.witness
    assert w.cutset == frozenset({0, 1})
    assert w.component_count == 3
    assert w.ratio == r.value
    assert cutset_witness(complete_bipartite(2, 3), w.cutset).ratio == r.value


def test_toughness_matches_naive_random():
    rng = random.Random(4242)
    checked = 0
    for trial in range(40):
        n = rng.randrange(1, 9)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
        expect = naive_toughness(g)
        got = toughness_exact(g)
        if expect is None:
            assert got.is_infinite
        else:
            assert got.value == expect
            checked += 1
    assert checked >= 20  # the corpus was not all complete graphs


def _planted_graph(rng: random.Random):
    """A shuffled random graph on at most 11 vertices: a base part, at
    times split in two or with isolated vertices, plus 0-3 planted
    vertices joined to everything else."""
    planted = rng.randrange(4)
    base = rng.randrange(1, 12 - planted)
    shape = rng.choice(("plain", "split", "isolated"))
    cut = rng.randrange(base + 1) if shape == "split" else 0
    live = rng.randrange(base) if shape == "isolated" else base
    p = rng.uniform(0.2, 0.9)
    edges = [
        (u, v) for u in range(live) for v in range(u + 1, live)
        if (u < cut) == (v < cut) and rng.random() < p
    ]
    n = base + planted
    edges += [(u, v) for u in range(base, n) for v in range(n) if v != u]
    label = list(range(n))
    rng.shuffle(label)
    return make_graph(n, [(label[u], label[v]) for u, v in edges]), planted


def test_toughness_matches_naive_dinkelbach_witness():
    rng = random.Random(3031)
    with_universal = 0
    for trial in range(90):
        g, planted = _planted_graph(rng)
        tau = naive_toughness(g)
        got = toughness_exact(g)
        if tau is None:
            assert got.is_infinite
            continue
        ratio, cutset = naive_dinkelbach_witness(g)
        assert got.value == tau == ratio
        assert got.witness.cutset == frozenset(cutset)
        assert got.witness.ratio == ratio
        with_universal += planted > 0 and not g.is_complete()
    assert with_universal >= 30  # the reduction ran on a real share


def _assert_first_optimal_cutset(g):
    """toughness_exact against naive_toughness, and its witness against
    the naive Dinkelbach rounds."""
    tau = naive_toughness(g)
    got = toughness_exact(g, max_n=g.n)
    if tau is None:
        assert got.is_infinite, g
        return
    assert got.value == tau, (g.edges(), got.value, tau)
    ratio, cutset = naive_dinkelbach_witness(g)
    assert ratio == tau, (g.edges(), ratio, tau)
    assert got.witness.cutset == frozenset(cutset), (g.edges(), got.witness, cutset)


@pytest.mark.parametrize("n", range(7))
def test_toughness_first_optimal_cutset_on_every_labeled_graph(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        _assert_first_optimal_cutset(
            make_graph(n, [e for i, e in enumerate(pairs) if code >> i & 1])
        )


def _path(n: int):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def _star(n: int):
    return make_graph(n, [(0, v) for v in range(1, n)])


def _grid(a: int, b: int):
    edges = [(v, v + 1) for v in range(a * b) if (v + 1) % b]
    edges += [(v, v + b) for v in range(a * b - b)]
    return make_graph(a * b, edges)


def _tree(rng: random.Random, n: int):
    return make_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _cubic(rng: random.Random, n: int):
    """A random simple 3-regular graph on an even n, by rejection."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        pairs = {tuple(sorted(ends[i : i + 2])) for i in range(0, len(ends), 2)}
        if len(pairs) == len(ends) // 2 and all(u != v for u, v in pairs):
            return make_graph(n, sorted(pairs))


def _shapes(rng: random.Random):
    """Shapes on which the search prunes badly (sparse, long, many
    small components after a cut) or well (dense), at most 8 vertices
    so that 3 planted universal vertices keep n <= 11."""
    for n in (5, 8):
        yield _path(n)
        yield _cycle(n)
        yield _tree(rng, n)
        yield _star(n)
        yield _random_graph(rng, n, 0.8)
    yield _random_graph(rng, 7, 0.7)
    yield _grid(2, 3)
    yield _grid(2, 4)
    yield _cubic(rng, 6)
    yield _cubic(rng, 8)


def _plant_universal(rng: random.Random, g, planted: int):
    """g plus planted vertices adjacent to every other vertex, all
    labels shuffled."""
    n = g.n + planted
    edges = g.edges() + [
        (u, v) for u in range(g.n, n) for v in range(n) if v != u
    ]
    label = list(range(n))
    rng.shuffle(label)
    return make_graph(n, [(label[u], label[v]) for u, v in edges])


def test_toughness_first_optimal_cutset_on_shapes():
    rng = random.Random(2718)
    for g in _shapes(rng):
        _assert_first_optimal_cutset(g)  # in its natural labels too
        for planted in range(4):
            _assert_first_optimal_cutset(_plant_universal(rng, g, planted))


# sha256 over "value|witness" lines of the corpus below, recorded with the
# witness as Dinkelbach's last cutset in the (-degree, label) order; the
# values are those of the flat combinations enumeration that the
# depth-first search replaced, and of the label-order search
RANDOM_CORPUS_DIGEST = "f96d72b3cf9a37d6d45f52bdd4cf86423034bf6677e1c7a6ba816dc9c6ae6ae8"


def test_toughness_random_corpus_digest():
    rng = random.Random(1813)
    h = hashlib.sha256()
    for i in range(40):
        g = _random_graph(rng, 13 + i % 6, rng.choice((0.3, 0.5, 0.7)))
        r = toughness_exact(g)
        if not r.is_infinite:
            assert cutset_witness(g, r.witness.cutset).ratio == r.value, g.edges()
        cut = "" if r.is_infinite else ",".join(map(str, sorted(r.witness.cutset)))
        h.update(f"{r.value}|{cut}\n".encode())
    assert h.hexdigest() == RANDOM_CORPUS_DIGEST


def _restarted_rounds(g):
    """The cutsets of Dinkelbach's rounds, each a fresh toughness_below
    at the last one's ratio, from lambda = n; the last one's ratio is
    the toughness."""
    lam, found = Fraction(g.n), []
    while (w := toughness_below(g, lam, max_n=g.n)) is not None:
        lam = w.ratio
        found.append(w)
    return found


def _mask(cutset) -> int:
    return sum(1 << v for v in cutset)


def test_single_pass_yields_the_restarted_rounds():
    # the one pass that toughness_exact runs yields, cutset by cutset,
    # what restarting toughness_below at each ratio found returns; and
    # toughness_below's answer is the pass's first yield from t
    rng = random.Random(2025)
    graphs = [_random_graph(rng, n, p) for n in (10, 12, 14, 16, 18) for p in (0.25, 0.4, 0.6)]
    graphs.append(synthesize("4/3")[0])
    graphs.append(disjoint_union([_cycle(5), complete_graph(3)]))
    thresholds = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4, 3),
                  Fraction(3, 2), Fraction(2), Fraction(3)]
    for g in graphs:
        passed = list(_below_search(g, g.n)(g.n, 1))
        restarted = _restarted_rounds(g)
        assert passed == [(_mask(w.cutset), w.component_count) for w in restarted], g.edges()
        assert toughness_exact(g).rounds == len(passed) + 1
        for t in thresholds:
            first = next(_below_search(g, g.n)(t.numerator, t.denominator), None)
            w = toughness_below(g, t, max_n=g.n)
            assert first == (None if w is None else (_mask(w.cutset), w.component_count))
    assert len(_restarted_rounds(graphs[-2])) == 8  # the 4/3 graph: 9 rounds
    assert [w.cutset for w in _restarted_rounds(graphs[-1])] == [frozenset()]


def test_toughness_witness_is_dinkelbach_last_cutset():
    # the witness is the cutset of Dinkelbach's last round, checked
    # against the naive rounds for n <= 12; there it is also the first
    # optimal cutset in toughness_below's order, but on some graphs not
    # the first in (size, lexicographic) order
    rng = random.Random(16)
    naive_checked = other_order = 0
    for n in range(10, 19):
        for p in (0.25, 0.4, 0.6):
            for _ in range(2):
                g = _random_graph(rng, n, p)
                r = toughness_exact(g)
                assert r.witness == _restarted_rounds(g)[-1], g.edges()
                if n <= 12:
                    ratio, cutset = naive_dinkelbach_witness(g)
                    assert r.value == ratio == naive_toughness(g), g.edges()
                    assert r.witness.cutset == frozenset(cutset), g.edges()
                    order = naive_cutsets_in_search_order(g)
                    first_optimal = next(
                        c for s, k, c in order if s * ratio.denominator == ratio.numerator * k
                    )
                    assert cutset == first_optimal, g.edges()
                    naive_checked += 1
                    first = naive_first_optimal_cutset(g)[1]
                    other_order += r.witness.cutset != frozenset(first)
    assert naive_checked == 18
    assert other_order == 2


def test_toughness_rounds_on_oracle_random_classes():
    # the G(n, p) classes of the benchmark's oracle-random workload, 20
    # graphs each: the pass yields at most 10 cutsets, so Dinkelbach's
    # restarted rounds would number at most 11
    rng = random.Random(5)
    classes = [(n, p) for n in range(14, 19) for p in (0.25, 0.4, 0.6)]
    classes += [(n, p) for n in (10, 12) for p in (0.3, 0.5)]
    for n, p in classes:
        for _ in range(20):
            g = _random_graph(rng, n, p)
            assert toughness_exact(g).rounds <= 11, g.edges()


def _relabel_within_degree_ties(rng: random.Random, g):
    """new[v], a random relabeling of g that keeps the label order among
    the vertices of each degree."""
    shuffled = list(range(g.n))
    rng.shuffle(shuffled)
    ties = {}
    for v in range(g.n):
        ties.setdefault(g.degree(v), []).append(v)
    new = [0] * g.n
    for tied in ties.values():
        for v, label in zip(tied, sorted(shuffled[v] for v in tied)):
            new[v] = label
    return new


def test_toughness_search_order_depends_on_labels_only_within_degree_ties():
    # the search decides the vertices in (-degree, label) order, so a
    # relabeling that keeps the label order among equal degrees keeps
    # the order: the pass yields the same cutsets, relabeled, and the
    # witness maps back.  A label-order search fails this.
    rng = random.Random(33)
    graphs = [_random_graph(rng, n, p) for n in (8, 11, 14, 16) for p in (0.3, 0.5, 0.7)]
    graphs += [synthesize("4/3")[0], _cycle(9), _grid(3, 4)]
    moved = 0
    for g in graphs:
        new = _relabel_within_degree_ties(rng, g)
        h = make_graph(g.n, [(new[u], new[v]) for u, v in g.edges()])
        passed = list(_below_search(g, g.n)(g.n, 1))
        relabeled = [(_mask(new[v] for v in _bits(cut)), c) for cut, c in passed]
        assert list(_below_search(h, h.n)(h.n, 1)) == relabeled, g.edges()
        wg, wh = toughness_exact(g).witness, toughness_exact(h).witness
        if wg is not None:
            assert wh.cutset == frozenset(new[v] for v in wg.cutset), g.edges()
            moved += wh.cutset != wg.cutset
    assert moved >= 10  # the witnesses' labels did change


def _with_pendants(g, hosts):
    """g plus one new vertex of degree 1 on each host."""
    return make_graph(g.n + len(hosts), g.edges() + [(h, g.n + i) for i, h in enumerate(hosts)])


def test_toughness_pass_on_sparse_graphs_with_pendants():
    # cycles and paths with pendant vertices, n <= 12: most undecided
    # vertices touch no decided survivor, and a matching among them
    # skips nodes that counting each as a component cannot.  The pass
    # yields exactly the naive Dinkelbach rounds.
    graphs = [_cycle(k) for k in range(4, 13)]
    for k in range(2, 9):
        for base in [_path(k)] + [_cycle(k)] * (k >= 3):
            graphs.append(_with_pendants(base, range(0, k, 2)))
            if 2 * k <= 12:
                graphs.append(_with_pendants(base, range(k)))
    for g in graphs:
        passed = list(_below_search(g, g.n)(g.n, 1))
        rounds = naive_dinkelbach_rounds(g)
        assert passed == [(_mask(cut), c) for s, c, cut in rounds], g.edges()
        r = toughness_exact(g)
        assert r.rounds == len(rounds) + 1
        assert r.value == naive_toughness(g) == Fraction(rounds[-1][0], rounds[-1][1])


def test_toughness_search_prunes():
    rng = random.Random(1)
    g = _random_graph(rng, 18, 0.6)
    r = toughness_exact(g)
    assert r.value == Fraction(13, 4)
    assert r.witness.cutset == frozenset({1, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 17})
    # pinned: no vertex is universal, so the pass searches the subsets of
    # all 18 vertices; it yields 4 cutsets, for 5 restarted rounds
    assert r.rounds == 5


def test_toughness_search_is_not_recursive():
    # a star whose hub (the last label) misses one vertex, hung off the
    # first leaf: no vertex is universal, and the first cutset the
    # search reaches, {0}, is decided with every other vertex, n levels
    # down; a walk that recursed once per vertex would pass the
    # interpreter's recursion limit
    n = 1500
    hub = n - 1
    g = make_graph(n, [(0, n - 2)] + [(v, hub) for v in range(n - 2)])
    r = toughness_exact(g, max_n=n)
    assert r.value == Fraction(1, n - 2)
    assert r.witness.cutset == frozenset({hub})


def test_toughness_strips_universal_vertices_under_any_labels():
    # the 4/3 graph (n=22) with its labels reversed puts its universal
    # vertices last; they are stripped whatever their labels
    g, _ = synthesize("4/3")
    n = g.n
    h = make_graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges()])
    r = toughness_exact(h)
    assert r.value == Fraction(4, 3)
    assert r.witness.cutset == frozenset(range(1, 9)) | frozenset(range(18, 22))
    # pinned: 8 cutsets yielded, for 9 restarted rounds; the pass's end
    # proves tau >= 4/3
    assert r.rounds == 9
    assert toughness_exact(g).rounds == 9


def test_toughness_size_cap():
    star = make_graph(30, [(0, v) for v in range(1, 30)])
    with pytest.raises(SizeLimitError):
        toughness_exact(star)
    # raising the cap runs fine: the hub is universal, and cutting it
    # alone leaves 29 components, the root's bound |R| - 0, so every
    # other node is skipped
    assert toughness_exact(star, max_n=30).value == Fraction(1, 29)


def test_toughness_reach_with_universal_vertices():
    # n=23: five universal vertices leave an 18-vertex enumeration
    assert toughness_exact(matched_layers(13, 9)).value == Fraction(13, 9)
    # n=55: 47 universal vertices leave an 8-vertex search, and no
    # other oracle with a size cap of its own is consulted
    assert toughness_exact(matched_layers(50, 4), max_n=60).value == Fraction(25, 2)


# -- toughness below a threshold ---------------------------------------------


def _assert_below_matches_naive(g):
    """toughness_below at every threshold s/c with 1 <= s, c <= n against
    the naive toughness and the first cutset below it in search order."""
    tau = naive_toughness(g)
    order = naive_cutsets_in_search_order(g)
    for lam in sorted({Fraction(s, c) for s in range(1, g.n + 1) for c in range(1, g.n + 1)}):
        got = toughness_below(g, lam, max_n=g.n)
        if tau is None or tau >= lam:
            assert got is None, (g.edges(), lam, got)
            continue
        assert got is not None and got.ratio < lam, (g.edges(), lam, got)
        assert cutset_witness(g, got.cutset) == got
        first = next(cut for s, c, cut in order if s * lam.denominator < lam.numerator * c)
        assert got.cutset == frozenset(first), (g.edges(), lam, got, first)


@pytest.mark.parametrize("n", range(1, 6))
def test_toughness_below_on_every_labeled_graph(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        _assert_below_matches_naive(
            make_graph(n, [e for i, e in enumerate(pairs) if code >> i & 1])
        )


def test_toughness_below_on_planted_graphs():
    rng = random.Random(3031)
    with_universal = 0
    for trial in range(90):
        g, planted = _planted_graph(rng)
        _assert_below_matches_naive(g)
        with_universal += planted > 0 and not g.is_complete()
    assert with_universal >= 30


CERTIFY_EXACT_TARGETS = ("2/3", "5/8", "7/10", "1", "7/6", "8/7", "9/7", "5/4", "4/3")


def test_toughness_below_brackets_exact_toughness():
    # with tau = a/b, a ratio s/c (c <= n) other than tau is at least
    # 1/(b n) away from it, so the cutsets below tau + 1/(b n) are
    # exactly the optimal ones
    rng = random.Random(1813)
    graphs = [
        _random_graph(rng, 13 + i % 6, rng.choice((0.3, 0.5, 0.7))) for i in range(40)
    ]
    graphs += [synthesize(t)[0] for t in CERTIFY_EXACT_TARGETS]
    for g in graphs:
        r = toughness_exact(g)
        if r.is_infinite:
            assert toughness_below(g, Fraction(g.n)) is None
            continue
        tau = r.value
        assert toughness_below(g, tau) is None, g.edges()
        w = toughness_below(g, tau + Fraction(1, tau.denominator * g.n))
        assert w.ratio == tau, (g.edges(), w)
        assert cutset_witness(g, w.cutset) == w


def test_toughness_below_disconnected_gives_the_empty_cutset():
    for g in (make_graph(4, [(0, 1), (2, 3)]), make_graph(3, [(1, 2)]), make_graph(5, [])):
        for lam in (Fraction(1, 100), Fraction(1), Fraction(7, 2)):
            w = toughness_below(g, lam)
            assert w.cutset == frozenset() and w.ratio == 0, (g.edges(), lam, w)
            assert w.component_count == naive_component_count(g, set())
    assert toughness_below(complete_graph(4), Fraction(100)) is None


def test_toughness_below_size_cap():
    star = make_graph(30, [(0, v) for v in range(1, 30)])
    with pytest.raises(SizeLimitError):
        toughness_below(star, Fraction(1, 29))
    assert toughness_below(star, Fraction(1, 29), max_n=30) is None
    assert toughness_below(star, Fraction(1, 28), max_n=30).cutset == frozenset({0})


def test_toughness_below_skips_subtrees_of_one_component():
    # K_22 minus a perfect matching: toughness 10, no universal vertex.
    # Two survivors that are not matched to each other are adjacent and
    # together touch every vertex, so the node can leave one component
    # at most and is skipped; a search that waited for |S| >= 10
    # instead would visit about 3.5M nodes, several seconds
    k = 11
    g = make_graph(2 * k, [
        (u, v) for u in range(2 * k) for v in range(u + 1, 2 * k) if v != u + k
    ])

    def timeout(signum, frame):
        raise TimeoutError("toughness decision took more than 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        signal.alarm(1)
        below = toughness_below(g, Fraction(k - 1))
        signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert below is None
    assert toughness_below(g, Fraction(k - 1) + Fraction(1, 2 * k)).ratio == k - 1


# -- decomposition engine ---------------------------------------------------


def _assert_decomposition_matches_searches(g, l, runs):
    # at tau the least b |S| - a omega is 0, attained by an optimal
    # cutset; just above tau the optimal cutsets go below, and the cutset
    # search agrees at both
    tau = toughness_exact(g).value
    above = tau + Fraction(1, 1000)
    assert decomposition_below(l, runs, tau) == 0, (g, l)
    assert toughness_below(g, tau) is None
    assert decomposition_below(l, runs, above) < 0, (g, l)
    assert toughness_below(g, above) is not None


def test_decomposition_matches_the_searches_on_block_compositions():
    # every multiset of block kinds and every l <= 3 with n <= 20 (72
    # compositions); equal kinds form one run, so runs of 2-4 equal
    # gadgets go through the min-plus powers
    cases = 0
    for r in range(1, 5):
        for kinds in combinations_with_replacement(BlockKind, r):
            blocks = [block(k) for k in kinds]
            runs = tuple(
                (block(k).graph, 1 << block(k).x | 1 << block(k).y, kinds.count(k))
                for k in dict.fromkeys(kinds)
            )
            for l in range(4):
                if l + sum(b.n for b in blocks) <= 20:
                    _assert_decomposition_matches_searches(g_construct(l, blocks), l, runs)
                    cases += 1
    assert cases == 72


def test_decomposition_matches_the_searches_on_matched_layers():
    # matched_layers(A, B) is K_{A-B+1} joined onto B edges y-z whose
    # ends z form the terminal clique; all 81 with n <= 22
    edge = complete_graph(2)
    cases = 0
    for b in range(2, 11):
        for a in range(b + 1, 22 - b):
            g = matched_layers(a, b)
            _assert_decomposition_matches_searches(g, a - b + 1, ((edge, 0b10, b),))
            cases += 1
    assert cases == 81


def test_plan_layout_describes_the_built_graph():
    # the engine decides the layout, so the layout must be the graph the
    # plan builds, for every reduced t with b <= 40: in the block regimes
    # label for label, and in case 3 up to moving y_i, z_i from l + 2i,
    # l + 2i + 1 to l + i, l + B + i.  Every plan's order is its graph's
    cases = Counter()
    for b in range(1, 41):
        for a in range(1, 9 * b // 4 + 1):
            t = Fraction(a, b)
            if t.denominator != b or t >= Fraction(9, 4):
                continue
            p = plan(t)
            g = plan_graph(p)
            assert plan_order(p) == g.n, t
            layout = plan_layout(p)
            cases[p.case_id] += 1
            assert (layout is None) == (p.case_id in ("1", "2", "4")), t
            if layout is None:
                continue
            l, runs = layout
            f = naive_layout_graph(l, runs)
            if p.case_id == "3":
                B = p.b_scaled
                where = list(range(l)) + [l + i + B * s for i in range(B) for s in (0, 1)]
                f = Graph(tuple(
                    sum(1 << where[u] for u in _bits(row))
                    for _, row in sorted(zip(where, f.neighbor_masks))
                ))
            assert f == g, t
    assert cases == {"1": 489, "2": 1, "3": 244, "4": 1, "5.1": 80, "5.2": 41,
                     "6.1": 79, "6.2": 45, "7.1": 78, "7.2": 44}


def test_decomposition_matches_exact_toughness_on_random_gadgets():
    # the tables come from the gadget graphs alone: random gadgets of 1-5
    # vertices with any terminal set, the empty one included, in 1-3 runs
    # of 1-3 copies, n <= 14
    rng = random.Random(1767)
    seen = set()
    for trial in range(400):
        runs = []
        for _ in range(rng.randrange(1, 4)):
            h = _random_graph(rng, rng.randrange(1, 6), rng.uniform(0.2, 0.8))
            runs.append((h, rng.randrange(1 << h.n), rng.randrange(1, 4)))
        l = rng.randrange(3)
        if l + sum(h.n * c for h, _, c in runs) > 14:
            continue
        runs = tuple(runs)
        g = naive_layout_graph(l, runs)
        tau = toughness_exact(g).value
        if tau is None:
            assert decomposition_below(l, runs, Fraction(g.n)) is None
            seen.add("complete")
            continue
        assert decomposition_below(l, runs, tau) == 0, (g.edges(), l, runs)
        assert decomposition_below(l, runs, tau + Fraction(1, 1000)) < 0
        seen.add(tau == 0)
    assert seen == {"complete", True, False}


def test_decomposition_without_a_cutset_or_terminals():
    # a complete graph has no cutset; gadgets without terminals detach
    # every component they keep, so two lone vertices have toughness 0
    assert decomposition_below(2, ((complete_graph(3), 0b111, 1),), Fraction(5)) is None
    lone = (make_graph(1, []), 0, 2)
    assert decomposition_below(0, (lone,), Fraction(1, 3)) == -2
    # K_1 onto three edges y-z: cutting the join vertex and one z leaves
    # 2 components, 2 * 2 - 1 * 2 = 2 at lambda = 1/2; toughness 1
    edges = ((complete_graph(2), 0b10, 3),)
    assert decomposition_below(1, edges, Fraction(1, 2)) == 2
    assert decomposition_below(1, edges, Fraction(1)) == 0


def test_decomposition_decides_large_plans_without_building(monkeypatch):
    # min = 0 at t and < 0 just above: the engine proves tau = t from the
    # plan alone, in milliseconds, at n up to 3925 and at 150M blocks
    from toughgraph import synth

    monkeypatch.setattr(
        synth, "build", lambda *args: pytest.fail("the engine built a graph")
    )

    def timeout(signum, frame):
        raise TimeoutError("decomposition decision took more than 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        for target in ("449/200", "1199/700", "1301/701", "174999999/100000000"):
            p = plan(target)
            layout = plan_layout(p)
            signal.alarm(1)
            at_t = decomposition_below(*layout, p.t)
            above = decomposition_below(*layout, p.t + Fraction(1, 10**12))
            signal.alarm(0)
            assert at_t == 0, target
            assert above < 0, target
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_cutset_witness_validates():
    with pytest.raises(ValueError):
        cutset_witness(complete_graph(4), frozenset({0}))
    with pytest.raises(ValueError):
        cutset_witness(complete_graph(4), frozenset({7}))


def test_upper_search_finds_good_cuts():
    w = toughness_upper_search(complete_bipartite(2, 3), seed=3)
    assert w is not None
    assert w.ratio >= Fraction(2, 3)  # any witness upper-bounds tau
    # on this graph the optimum is easy to hit
    assert w.ratio == Fraction(2, 3)
    w6 = toughness_upper_search(_cycle(6), seed=1)
    assert w6.ratio == 1


def test_upper_search_disconnected_and_complete():
    w = toughness_upper_search(make_graph(3, [(0, 1)]))
    assert w.cutset == frozenset() and w.ratio == 0
    with pytest.raises(ValueError):
        toughness_upper_search(complete_graph(5))


def test_upper_search_never_beats_exact():
    rng = random.Random(99)
    for trial in range(15):
        g = _random_graph(rng, rng.randrange(5, 12), 0.5)
        if g.is_complete():
            continue
        exact = toughness_exact(g).value
        w = toughness_upper_search(g, budget=500, seed=trial)
        assert w.ratio >= exact


# -- hamiltonicity -----------------------------------------------------------


def test_hamilton_known_values():
    assert is_hamiltonian(complete_graph(3)).verdict is True
    assert is_hamiltonian(_cycle(8)).verdict is True
    assert is_hamiltonian(petersen()).verdict is False
    assert is_hamiltonian(unit_toughness_graph()).verdict is False
    assert is_hamiltonian(complete_bipartite(2, 3)).verdict is False
    assert is_hamiltonian(complete_graph(2)).verdict is False
    assert is_hamiltonian(make_graph(1, [])).verdict is False


def test_hamilton_cycle_witness_is_a_cycle():
    g = petersen()
    g2 = make_graph(10, g.edges() + [(0, 2), (5, 6)])
    res = is_hamiltonian(g2)
    if res.verdict:
        walk = res.witness
        assert sorted(walk) == list(range(10))
        for u, v in zip(walk, walk[1:]):
            assert g2.has_edge(u, v)
        assert g2.has_edge(walk[-1], walk[0])


def test_hamilton_matches_naive_random():
    rng = random.Random(321)
    for trial in range(60):
        n = rng.randrange(3, 8)
        g = _random_graph(rng, n, rng.uniform(0.3, 0.9))
        assert is_hamiltonian(g).verdict is naive_hamilton_cycle(g)


def test_unbalanced_complete_bipartite_is_decided_without_search():
    # K_{10,11} took 1.35 s in the subset program before the side count
    def timeout(signum, frame):
        raise TimeoutError("unbalanced bipartite Hamiltonicity took more than 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        signal.alarm(1)
        results = [is_hamiltonian(complete_bipartite(a, a + 1)) for a in range(1, 13)]
        signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert all(r.verdict is False and r.method == "trivial" and r.nodes == 0 for r in results)
    assert all(is_hamiltonian(complete_bipartite(a, a)).verdict for a in range(2, 7))


def test_hamilton_matches_naive_on_random_bipartite():
    # relabeled random bipartite graphs, many of them connected with
    # minimum degree 2, so the side count decides where no earlier screen does
    rng = random.Random(909)
    pruned = 0
    for trial in range(80):
        n = rng.randrange(4, 10)
        a = max(2, n // 2 - rng.randrange(2))
        label = rng.sample(range(n), n)
        p = rng.uniform(0.6, 1.0)
        edges = [
            (min(label[u], label[v]), max(label[u], label[v]))
            for u in range(a) for v in range(a, n) if rng.random() < p
        ]
        g = make_graph(n, edges)
        r = is_hamiltonian(g)
        assert r.verdict is naive_hamilton_cycle(g), (n, edges)
        screened = not g.is_connected() or min(g.degree(v) for v in range(n)) < 2
        pruned += not screened and 2 * a != n
    assert pruned >= 10


def test_spanning_path_side_count_is_decided_without_search():
    # two vertices of the smaller side of K_{a,a+2} admit no spanning
    # path; without the side count the subset program took 0.19 s at
    # a = 9, about five times more per step
    def timeout(signum, frame):
        raise TimeoutError("unbalanced bipartite spanning path took more than 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        signal.alarm(1)
        results = [has_hamilton_path(complete_bipartite(a, a + 2), 0, 1) for a in range(9, 13)]
        signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert all(r.verdict is False and r.method == "trivial" and r.nodes == 0 for r in results)
    # ends that fit the sides: both on the larger side of K_{a,a+1}, or
    # one on each side of K_{a,a}
    assert all(has_hamilton_path(complete_bipartite(a, a + 1), a, a + 1).verdict
               for a in range(1, 7))
    assert all(has_hamilton_path(complete_bipartite(a, a), 0, a).verdict
               for a in range(1, 7))


def test_universal_vertices_screen_matches_naive():
    # graphs with n <= 9 and one or two universal vertices, so the
    # 1-tough screen looks at every one; a "trivial" verdict on a graph
    # of minimum degree 2 is the screen's (a universal vertex makes the
    # graph connected and, with a triangle, not bipartite)
    rng = random.Random(1973)
    verdicts = set()
    screened = 0
    for trial in range(80):
        n = rng.randrange(3, 10)
        hubs = rng.sample(range(n), rng.randrange(1, 3))
        edges = {
            (u, v) for u in range(n) for v in range(u + 1, n)
            if u in hubs or v in hubs or rng.random() < 0.25
        }
        g = make_graph(n, edges)
        x, y = rng.sample(range(n), 2)
        for res, truth in (
            (is_hamiltonian(g), naive_hamilton_cycle(g)),
            (has_hamilton_path(g, x, y), naive_hamilton_path(g, x, y)),
        ):
            assert res.verdict is truth, (n, sorted(edges), x, y)
            verdicts.add(truth)
            screened += res.method == "trivial" and min(map(g.degree, range(n))) >= 2
    assert verdicts == {True, False}
    assert screened >= 10


def test_universal_vertices_screen_decides_without_search():
    # K_l + E_k: removing the clique's l universal vertices leaves k
    # isolated ones, so K_l + E_{l+1} has no Hamilton cycle and
    # K_l + E_{l+2} no spanning path.  For l = 8..10 the subset program
    # took 0.08-3.1 s; at l = 11 (n = 23 > DP_LIMIT) backtracking spent
    # its node budget, about 10 s
    def timeout(signum, frame):
        raise TimeoutError("K_l + E_k Hamiltonicity took more than 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        signal.alarm(1)
        results = [
            is_hamiltonian(join(complete_graph(l), make_graph(l + 1, []))) for l in range(8, 12)
        ]
        results += [
            has_hamilton_path(join(complete_graph(l), make_graph(l + 2, [])), l, 2 * l + 1)
            for l in range(8, 12)
        ]
        signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert all(r.verdict is False and r.method == "trivial" and r.nodes == 0 for r in results)


def test_spanning_path_matches_naive_on_random_bipartite():
    # every pair of ends on relabeled random bipartite graphs with n <= 9,
    # so each of the side conditions meets graphs the earlier screens pass
    rng = random.Random(1313)
    decided = 0
    for trial in range(60):
        n = rng.randrange(3, 10)
        a = max(1, n // 2 - rng.randrange(2))
        label = rng.sample(range(n), n)
        p = rng.uniform(0.6, 1.0)
        edges = [
            (min(label[u], label[v]), max(label[u], label[v]))
            for u in range(a) for v in range(a, n) if rng.random() < p
        ]
        g = make_graph(n, edges)
        for x, y in combinations(range(n), 2):
            r = has_hamilton_path(g, x, y)
            assert r.verdict is naive_hamilton_path(g, x, y), (n, edges, x, y)
            inner = [g.degree(v) for v in range(n) if v != x and v != y]
            screened = not g.is_connected() or min(inner, default=2) < 2
            decided += not screened and r.method == "trivial"
    assert decided >= 100


# sha256 over "verdict|witness|method|nodes" lines of the corpus below,
# recorded with the separate cycle and path engines that the one
# endpoint search replaced, then again when the bipartite side count
# moved the cycle queries on K_{a,a+1}, a = 2..5, from "subset-dp" to
# "trivial" (verdicts and node counts unchanged), and again when the
# side count of spanning paths moved the path queries whose ends do not
# fit the sides, on K_{a,a+1}, a = 3..5, from "subset-dp" to "trivial"
# (verdicts and node counts unchanged)
HAMILTON_CORPUS_DIGEST = "af2a27c53417852f1e2f578a36e9e0629242fd998275448bc8de16c24e6f71a9"


def test_hamilton_random_corpus_digest():
    rng = random.Random(4242)
    graphs = [complete_bipartite(a, a + 1) for a in range(1, 6)]
    graphs.append(inflate_triangles(petersen()))
    for i in range(160):
        graphs.append(_random_graph(rng, 5 + i % 8, (0.35, 0.4, 0.45, 0.7)[i % 4]))
    h = hashlib.sha256()
    for g in graphs:
        ends = [tuple(rng.sample(range(g.n), 2)) for _ in range(2)]
        for limit in (DEFAULT_NODE_LIMIT, 50):
            results = [is_hamiltonian(g, node_limit=limit)]
            results += [has_hamilton_path(g, x, y, node_limit=limit) for x, y in ends]
            for r in results:
                h.update(f"{r.verdict}|{r.witness}|{r.method}|{r.nodes}\n".encode())
    assert h.hexdigest() == HAMILTON_CORPUS_DIGEST


def _assert_spanning_walk(g, walk, x, y):
    # a path from x to y, or for y == x a cycle through x, over every vertex
    assert sorted(walk) == list(range(g.n))
    assert walk[0] == x
    steps = list(zip(walk, walk[1:]))
    if x == y:
        steps.append((walk[-1], x))
    else:
        assert walk[-1] == y
    for u, v in steps:
        assert g.has_edge(u, v), (u, v)


def test_hamilton_dp_and_backtracking_agree():
    # the two engines, called directly on the same endpoints: cycles
    # (y == x) and paths, on dense random graphs and on the dense but
    # nonhamiltonian K_{a,a+1}, where only paths between two vertices of
    # the larger side exist
    rng = random.Random(7171)
    graphs = [_random_graph(rng, rng.randrange(6, 13), 0.7) for _ in range(25)]
    graphs += [complete_bipartite(a, a + 1) for a in range(1, 6)]
    seen = set()
    for g in graphs:
        root = rng.randrange(g.n)
        pairs = [(root, root)] + [tuple(rng.sample(range(g.n), 2)) for _ in range(3)]
        for x, y in pairs:
            a = _hamilton_dp(g, x, y)
            b = _hamilton_backtrack(g, x, y, DEFAULT_NODE_LIMIT)
            assert (a.method, b.method) == ("subset-dp", "backtracking")
            assert a.verdict is b.verdict is not None
            seen.add((x == y, a.verdict))
            if a.verdict:
                _assert_spanning_walk(g, a.witness, x, y)
                _assert_spanning_walk(g, b.witness, x, y)
            else:
                assert a.witness is b.witness is None
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_hamilton_backtracking_matches_the_full_scan():
    # the search rescans only the neighbors of the last end for the
    # degree prune; the reference scans every unvisited vertex at every
    # node, so verdicts, witnesses and node counts must all agree, also
    # where the budget runs out
    rng = random.Random(5151)
    graphs = [inflate_triangles(petersen())]
    graphs += [complete_bipartite(a, a + 1) for a in range(2, 6)]
    for i in range(400):
        n = 6 + i % 21
        if i % 2:
            graphs.append(_cycle_plus_chords(rng, n, rng.randrange(n // 2, n + 1)))
        else:
            graphs.append(_random_graph(rng, n, rng.uniform(2.5, 5.0) / n))
    seen = set()
    for g in graphs:
        x, y = rng.sample(range(g.n), 2)
        for ends in ((x, x), (x, y)):
            res = _hamilton_backtrack(g, *ends, 5000)
            assert res.method == "backtracking"
            ref = naive_hamilton_backtrack(g, *ends, 5000)
            assert (res.verdict, res.witness, res.nodes) == ref, (g.edges(), ends)
            seen.add((ends[0] == ends[1], res.verdict))
    assert seen >= {(True, True), (True, False), (False, True), (False, False)}


def _glued(first, attachments):
    """first with, for each attachment (at, bridge, h), a copy of the
    graph h whose vertex 0 is vertex at of the graph so far (bridge None,
    so at becomes a cut vertex), or is joined to it by a path through
    bridge new vertices."""
    n, edges = first.n, first.edges()
    for at, bridge, h in attachments:
        if bridge is None:
            ids = [at] + list(range(n, n + h.n - 1))
            n += h.n - 1
        else:
            chain = [at] + list(range(n, n + bridge + 1))
            edges += zip(chain, chain[1:])
            ids = chain[-1:] + list(range(n + bridge + 1, n + bridge + h.n))
            n += bridge + h.n
        edges += [(ids[u], ids[v]) for u, v in h.edges()]
    return make_graph(n, edges)


def test_hamilton_backtracking_checks_connectivity_from_the_new_end(monkeypatch):
    # below the root the search checks connectivity only from the new end
    # to the alive neighbors of the old end p; here p is often a cut
    # vertex of the alive set, so the check fails as well as passes, and
    # with y next to p, y is one of the neighbors it must reach.  The
    # reference runs a full search at every node.
    checks = []

    def reach(nbr, seed, alive, need=-1):
        got = _reach(nbr, seed, alive, need)
        if alive != (1 << len(nbr)) - 1:
            ok = got & need == need
            checks.append((ok, ok and got != _reach(nbr, seed, alive)))
        return got

    monkeypatch.setattr(oracles, "_reach", reach)
    rng = random.Random(6161)
    graphs = [_glued(_cycle(a), [(0, None, _cycle(b))])
              for a in range(3, 8) for b in range(a, 8)]
    graphs += [_glued(complete_graph(k), [(0, bridge, complete_graph(k))])
               for k in (3, 4, 5) for bridge in range(4)]
    for _ in range(12):
        n = rng.randrange(5, 10)
        base = _cycle_plus_chords(rng, n, rng.randrange(n // 2 + 1))
        graphs.append(_glued(base, [
            (v, None, complete_graph(3)) for v in rng.sample(range(n), rng.randrange(1, 3))
        ]))
    for _ in range(12):
        g = _cycle_plus_chords(rng, rng.randrange(4, 8), 2)
        for _ in range(rng.randrange(1, 3)):
            h = _cycle_plus_chords(rng, rng.randrange(4, 8), 2)
            g = _glued(g, [(rng.randrange(g.n), None, h)])
        graphs.append(g)
    # hamiltonian, with cut vertices only in the alive sets of the search
    graphs += [_cycle_plus_chords(rng, n, rng.randrange(1, n // 2)) for n in range(6, 13)]
    seen = set()
    for g in graphs:
        pairs = [(x, x) for x in range(g.n)]
        pairs += [(x, y) for x in range(g.n) for y in g.neighbors(x)]
        pairs += [tuple(rng.sample(range(g.n), 2)) for _ in range(g.n)]
        for x, y in pairs:
            for limit in (5000, rng.randrange(1, 40)):
                res = _hamilton_backtrack(g, x, y, limit)
                ref = naive_hamilton_backtrack(g, x, y, limit)
                assert (res.verdict, res.witness, res.nodes) == ref, (g.edges(), x, y, limit)
                seen.add((x == y, res.verdict))
    assert seen == {(b, v) for b in (True, False) for v in (True, False, None)}
    # the early exit both passes, also before the search reaches all of
    # the alive set, and fails
    assert set(checks) == {(True, True), (True, False), (False, False)}


def _two_cliques(k: int):
    # K_k and K_k sharing vertex k - 1: dense, with a cut vertex in the middle
    n = 2 * k - 1
    return make_graph(n, [
        (u, v) for side in (range(k), range(k - 1, n)) for u, v in combinations(side, 2)
    ])


def test_hamilton_dp_matches_the_full_table():
    # the lazy search returns the verdict and the witness of the whole
    # bottom-up table, at cycle (y == x) and path endpoints
    rng = random.Random(9090)
    cases = []
    for p in (0.5, 0.7, 0.9):
        for _ in range(12):
            g = _random_graph(rng, rng.randrange(3, 13), p)
            while not g.is_connected():
                g = _random_graph(rng, g.n, p)
            cases.append((g, None))
    cases += [(complete_bipartite(a, a + 1), None) for a in range(1, 7)]
    cases += [(_two_cliques(k), None) for k in range(2, 7)]
    cases += [(b.graph, (b.x, b.y)) for b in map(block, BlockKind)]
    seen = set()
    for g, terminals in cases:
        pairs = [(x, x) for x in range(g.n)]
        pairs += [terminals] if terminals else [tuple(rng.sample(range(g.n), 2)) for _ in range(4)]
        for x, y in pairs:
            res = _hamilton_dp(g, x, y)
            assert (res.verdict, res.witness) == naive_hamilton_dp(g, x, y), (g, x, y)
            assert (res.method, res.nodes) == ("subset-dp", 0)
            seen.add((x == y, res.verdict))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_hamilton_dp_stops_at_its_first_witness():
    # the full table over G(22, 0.6) takes several seconds; the lazy
    # search finds both witnesses in milliseconds
    g = _random_graph(random.Random(2222), 22, 0.6)

    def timeout(signum, frame):
        raise TimeoutError("subset DP took more than 2 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        for x, y, decide in (
            (0, 0, lambda: is_hamiltonian(g)),
            (0, 21, lambda: has_hamilton_path(g, 0, 21)),
        ):
            signal.alarm(2)
            res = decide()
            signal.alarm(0)
            assert res.method == "subset-dp"
            assert res.verdict is True
            _assert_spanning_walk(g, res.witness, x, y)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_hamilton_dp_memo_is_backed_only_where_the_search_writes():
    # a memo entry holds an end mask, so every vertex needs a bit of it
    assert oracles.DP_LIMIT < 32
    # the two G(22, 0.6) queries above, in a fresh process: a memo of
    # 2^22 entries allocated up front (32 MB as 8-byte words) shows in
    # its peak resident set; one the OS backs only where the search
    # writes does not.  The peak is the process's own VmHWM in kilobytes:
    # its ru_maxrss starts at the high-water mark of the process that
    # spawned it, so it would hide the memo under pytest's own peak
    g = _random_graph(random.Random(2222), 22, 0.6)
    code = (
        "import json, sys\n"
        "from toughgraph import has_hamilton_path, is_hamiltonian, make_graph\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(s.split()[1]) for s in f if s.startswith('VmHWM:'))\n"
        "g = make_graph(22, json.loads(sys.argv[1]))\n"
        "before = peak()\n"
        "found = is_hamiltonian(g).verdict, has_hamilton_path(g, 0, 21).verdict\n"
        "print(found, peak() - before)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, json.dumps(g.edges())],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    found, grown = r.stdout.rsplit(maxsplit=1)
    assert found == "(True, True)"
    assert int(grown) < 4 * 1024


def test_path_matches_naive_random():
    rng = random.Random(11)
    for trial in range(50):
        n = rng.randrange(2, 8)
        g = _random_graph(rng, n, rng.uniform(0.3, 0.9))
        x, y = rng.sample(range(n), 2)
        assert has_hamilton_path(g, x, y).verdict is naive_hamilton_path(g, x, y)


def test_path_endpoint_validation():
    with pytest.raises(ValueError):
        has_hamilton_path(complete_graph(3), 0, 0)
    with pytest.raises(ValueError):
        has_hamilton_path(complete_graph(3), 0, 3)


def test_path_witness_endpoints():
    res = has_hamilton_path(complete_graph(5), 2, 4)
    assert res.verdict is True
    walk = res.witness
    assert walk[0] == 2 and walk[-1] == 4
    assert sorted(walk) == list(range(5))


def test_block_terminal_paths():
    # the composed graphs are nonhamiltonian precisely because the first
    # three kinds refuse a spanning terminal path and the fourth accepts
    for kind, expect in (
        (BlockKind.L1, False),
        (BlockKind.L2, False),
        (BlockKind.L3, False),
        (BlockKind.L4, True),
    ):
        b = block(kind)
        res = has_hamilton_path(b.graph, b.x, b.y)
        assert res.verdict is expect


def test_budget_exhaustion_returns_unknown():
    g = inflate_triangles(petersen())
    res = is_hamiltonian(g, node_limit=10)
    assert res.verdict is None
    assert res.method == "backtracking"
    assert res.nodes > 10


def test_inflated_petersen_not_hamiltonian():
    res = is_hamiltonian(inflate_triangles(petersen()))
    assert res.verdict is False
    assert res.nodes < 100_000


def test_disconnected_short_circuits():
    g = disjoint_union([complete_graph(3), complete_graph(3)])
    res = is_hamiltonian(g)
    assert res.verdict is False and res.method == "trivial"
    assert has_hamilton_path(g, 0, 5).verdict is False


# -- independence -------------------------------------------------------------


def test_alpha_known_values():
    assert independence_number(complete_graph(6)) == 1
    assert independence_number(complete_bipartite(2, 3)) == 3
    assert independence_number(petersen()) == 4
    assert independence_number(_cycle(7)) == 3
    assert independence_number(make_graph(4, [])) == 4
    assert independence_number(make_graph(0, [])) == 0


def test_alpha_matches_naive_random():
    rng = random.Random(2024)
    for trial in range(40):
        n = rng.randrange(1, 12)
        g = _random_graph(rng, n, rng.uniform(0.1, 0.9))
        assert independence_number(g) == naive_alpha(g)


def test_alpha_size_cap():
    big = make_graph(49, [])
    with pytest.raises(SizeLimitError):
        independence_number(big)
    assert independence_number(big, max_n=49) == 49


def test_alpha_search_is_not_recursive():
    # the greedy set is already the 1051-side, and the greedy matching
    # of 1050 edges bounds the root by 2101 - 1050 = 1051, so the search
    # closes at its first node; a search bounded by size + |cand| alone
    # leaves out the 1050-side one vertex at a time, and if it recursed
    # once per branch it would pass the interpreter's recursion limit
    assert independence_number(complete_bipartite(1050, 1051), max_n=3000) == 1051


def _cycle_plus_chords(rng: random.Random, n: int, chords: int):
    """A Hamilton cycle in shuffled order plus distinct random chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    while len(edges) < n + chords:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return make_graph(n, sorted(edges))


def _alpha_corpus(rng: random.Random):
    """Graphs that exercise each rule of the search: sparse ones for the
    degree-0/1 rule and the matching bound, unions of cycles, paths and
    isolated vertices for the cycle closed form, and pendant vertices on
    a hub, whose leaf rule must take the pendant and not the hub."""
    for n in range(20, 49, 4):
        yield _cycle_plus_chords(rng, n, n // 2)
        yield _cycle_plus_chords(rng, n, n)
    for trial in range(30):
        n = rng.randrange(2, 49)
        yield _random_graph(rng, n, rng.uniform(0.5, 3.0) / n)
    for trial in range(30):
        parts = [
            rng.choice((_cycle, _path))(rng.randrange(3, 12))
            for _ in range(rng.randrange(1, 5))
        ]
        parts += [make_graph(1, [])] * rng.randrange(3)
        yield _plant_universal(rng, disjoint_union(parts), 0)
    yield _cycle(3)
    for a, b in ((1, 1), (1, 6), (3, 3), (4, 7), (10, 11), (20, 20)):
        yield complete_bipartite(a, b)
    yield petersen()
    yield inflate_triangles(petersen())
    for trial in range(20):
        n = rng.randrange(6, 30)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.6))
        hub = max(range(n), key=g.degree)
        pendants = [(hub, n + i) for i in range(rng.randrange(1, 4))]
        yield _plant_universal(
            rng, make_graph(n + len(pendants), g.edges() + pendants), 0
        )


def test_alpha_matches_branching_reference():
    for g in _alpha_corpus(random.Random(4812)):
        assert independence_number(g) == naive_alpha_branching(g), g.edges()


def test_alpha_sparse_search_is_fast():
    # average degree 3 at n = 64: a search bounded by size + |cand|
    # alone, as naive_alpha_branching is, takes about 10 s here, and the
    # reductions with the matching bound take milliseconds. The expected
    # 29 is naive_alpha_branching's answer on this graph, recorded once;
    # the digest fails the test if the generator ever draws another graph
    g = _cycle_plus_chords(random.Random(6464), 64, 32)
    assert hashlib.sha256(encode_graph6(g)).hexdigest() == (
        "a9235f91e91b279753fac99acdc05c311a21a7346503841b994fdaca6247eb76"
    )

    def timeout(signum, frame):
        raise TimeoutError("independence search took more than 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    try:
        signal.alarm(1)
        alpha = independence_number(g, max_n=64)
        signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert alpha == 29
