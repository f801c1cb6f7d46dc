"""Slow reference oracles used only to cross-check the fast ones.

The oracles are written against plain dict-of-sets adjacency with
itertools enumeration, deliberately sharing no code with the package
(which works on bitmasks).  The construction and graph6 references
build edge tuples for make_graph and write one bit at a time.  Three
bitmask searches are kept as references for the ones that replaced
them: the bottom-up subset DP table for Hamilton paths, behind the
lazily evaluated one; the Hamilton backtracking that scans every
unvisited vertex at every node, behind the one that rescans only the
neighbors of the last end; and the plain branch and bound for the
independence number, behind the one with reductions and a matching
bound.  The last two also check graphs too large to enumerate.  The
two cutset references read one table of subset component counts per
graph, filled by a flood fill over neighbor masks of its own.  The
counting arguments' parameters are written out by hand from the
paper's formulas, as a second copy of synth's derivation.
Keep these dumb; their only virtue is that they are obviously correct
on small graphs.
"""

from __future__ import annotations

import functools
from array import array
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from toughgraph import BlockKind, Graph, make_graph


def _adjacency(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _component_count(adj: dict[int, set[int]], removed: set[int]) -> int:
    seen: set[int] = set()
    count = 0
    for start in adj:
        if start in removed or start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _mask_component_count(nbrs: list[int], alive: int) -> int:
    """Components among the vertices of the mask alive, by flood fill
    over neighbor masks, one vertex at a time."""
    count = 0
    while alive:
        reached = frontier = alive & -alive
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbrs[low.bit_length() - 1] & alive & ~reached
            reached |= new
            frontier |= new
        alive &= ~reached
        count += 1
    return count


@functools.lru_cache(maxsize=1)
def _subset_components(g: Graph) -> dict[tuple[int, ...], int]:
    """omega(G - S) for every subset S of the vertices, keyed by S as an
    increasing tuple and listed in (size, lexicographic) order; cached
    for the last graph, which both cutset references read."""
    nbrs = [0] * g.n
    for u, v in g.edges():
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    full, bits = (1 << g.n) - 1, [1 << v for v in range(g.n)]
    # the subsets and their bits, enumerated in step
    return {
        subset: _mask_component_count(nbrs, full ^ sum(chosen))
        for k in range(g.n + 1)
        for subset, chosen in zip(combinations(range(g.n), k), combinations(bits, k))
    }


def naive_toughness(g: Graph) -> Optional[Fraction]:
    """min |S| / omega(G - S) over all cutsets, None when complete."""
    first = naive_first_optimal_cutset(g)
    return None if first is None else first[0]


def naive_first_optimal_cutset(
    g: Graph,
) -> Optional[tuple[Fraction, tuple[int, ...]]]:
    """The toughness and the first cutset reaching it, in (size,
    lexicographic) order over all subsets; None when complete."""
    best: Optional[tuple[int, int, tuple[int, ...]]] = None
    for subset, comps in _subset_components(g).items():
        k = len(subset)
        # k / comps < size / components, cross-multiplied
        if comps >= 2 and (best is None or k * best[1] < best[0] * comps):
            best = (k, comps, subset)
    return None if best is None else (Fraction(best[0], best[1]), best[2])


def naive_cutsets_in_search_order(g: Graph) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every cutset as (size, component count, cutset), in
    toughness_below's order: a vertex adjacent to all others lies in
    every cutset, and the subsets of the other vertices go as binary
    numbers, smallest first, whose bits run from the top in (-degree,
    label) order."""
    adj = _adjacency(g)
    universal = {v for v in adj if len(adj[v]) == g.n - 1}
    order = [
        (len(cut), comps, cut)
        for cut, comps in _subset_components(g).items()
        if comps >= 2 and universal.issubset(cut)
    ]
    # the cutset as a binary number whose top bit is the first vertex in
    # (-degree, label) order; the universal vertices' bits are set in
    # every cutset
    ranked = sorted(adj, key=lambda v: (-len(adj[v]), v))
    top = {v: 1 << (g.n - 1 - k) for k, v in enumerate(ranked)}
    order.sort(key=lambda c: sum([top[v] for v in c[2]]))
    return order


def naive_dinkelbach_rounds(g: Graph) -> list[tuple[int, int, tuple[int, ...]]]:
    """Dinkelbach's rounds over the cutsets in toughness_below's order:
    from lambda = n, take the first cutset below lambda and set lambda
    to its ratio, until no cutset is below lambda.  The cutsets taken,
    each as (size, component count, cutset); none when complete."""
    order = naive_cutsets_in_search_order(g)
    size, comps, taken = g.n, 1, []  # lambda = size / comps
    while (found := next((c for c in order if c[0] * comps < size * c[1]), None)) is not None:
        size, comps = found[0], found[1]
        taken.append(found)
    return taken


def naive_dinkelbach_witness(g: Graph) -> Optional[tuple[Fraction, tuple[int, ...]]]:
    """The last cutset of Dinkelbach's rounds, with its ratio; None when
    complete."""
    rounds = naive_dinkelbach_rounds(g)
    if not rounds:
        return None
    size, comps, last = rounds[-1]
    return Fraction(size, comps), last


def naive_component_count(g: Graph, removed: set[int]) -> int:
    return _component_count(_adjacency(g), removed)


def naive_hamilton_cycle(g: Graph) -> bool:
    if g.n < 3:
        return False
    adj = _adjacency(g)
    rest = list(range(1, g.n))
    for order in permutations(rest):
        walk = (0,) + order
        if all(walk[i + 1] in adj[walk[i]] for i in range(g.n - 1)):
            if walk[-1] in adj[0]:
                return True
    return False


def naive_hamilton_path(g: Graph, x: int, y: int) -> bool:
    if x == y:
        raise ValueError("path endpoints must differ")
    middle = [v for v in range(g.n) if v not in (x, y)]
    adj = _adjacency(g)
    for order in permutations(middle):
        walk = (x,) + order + (y,)
        if all(walk[i + 1] in adj[walk[i]] for i in range(g.n - 1)):
            return True
    return False


def naive_hamilton_dp(g: Graph, x: int, y: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Spanning x-y path, or for y == x a cycle through x, by filling the
    whole subset table: dp[mask] is the set of vertices that end a path
    from x over exactly mask.  The witness walks the table back from the
    lowest accepted end, taking the lowest predecessor at each step."""
    n = g.n
    nbr = g.neighbor_masks
    full = (1 << n) - 1
    dp = array("q", bytes(8 * (full + 1)))
    dp[1 << x] = 1 << x
    for mask in range(1 << x, full + 1):
        ends = dp[mask]
        if not ends:
            continue
        r = full ^ mask
        while r:
            b = r & -r
            r ^= b
            if nbr[b.bit_length() - 1] & ends:
                dp[mask | b] |= b
    accepted = dp[full] & (nbr[x] if x == y else 1 << y)
    if not accepted:
        return False, None
    cur = (accepted & -accepted).bit_length() - 1
    order = [cur]
    mask = full
    while mask != 1 << x:
        mask ^= 1 << cur
        prevs = dp[mask] & nbr[cur]
        if not prevs:
            raise RuntimeError("dp table must chain back to the start")
        cur = (prevs & -prevs).bit_length() - 1
        order.append(cur)
    order.reverse()
    return True, tuple(order)


def naive_hamilton_backtrack(
    g: Graph, x: int, y: int, node_limit: int
) -> tuple[Optional[bool], Optional[tuple[int, ...]], int]:
    """(verdict, witness, nodes) of the package's Hamilton backtracking
    with the full degree scan at every node: spanning x-y paths, or for
    y == x a path that closes into a cycle at x.  A node is pruned when
    an unvisited vertex other than y has fewer than two alive neighbors
    (unvisited, the end, or y), y has none, or the end cannot reach every
    unvisited vertex and y; successors in label order, y only last."""
    n = g.n
    nbr = g.neighbor_masks
    full = (1 << n) - 1
    ybit = 1 << y
    accepted = nbr[x] if x == y else ybit
    path = [x]
    visited = 1 << x
    untried = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > node_limit:
            return None, None, nodes
        cur = path[-1]
        cand = 0
        if visited == full:
            if accepted >> cur & 1:
                return True, tuple(path), nodes
        else:
            unvisited = full ^ visited
            alive = unvisited | 1 << cur | ybit
            low_degree = any(
                (nbr[w] & alive).bit_count() < (1 if w == y else 2)
                for w in range(n) if unvisited >> w & 1
            )
            need = unvisited | ybit
            reach = frontier = 1 << cur
            while frontier:
                step = 0
                for w in range(n):
                    if frontier >> w & 1:
                        step |= nbr[w]
                frontier = step & alive & ~reach
                reach |= frontier
            if not low_degree and reach & need == need:
                cand = nbr[cur] & unvisited
                if unvisited != ybit:
                    cand &= ~ybit
        while not cand:
            if not untried:
                return False, None, nodes
            visited ^= 1 << path.pop()
            cand = untried.pop()
        b = cand & -cand
        untried.append(cand ^ b)
        path.append(b.bit_length() - 1)
        visited |= b


def naive_alpha(g: Graph) -> int:
    adj = _adjacency(g)
    best = 0
    for k in range(g.n, 0, -1):
        for subset in combinations(range(g.n), k):
            if all(v not in adj[u] for u, v in combinations(subset, 2)):
                return k
    return best


def naive_alpha_branching(g: Graph) -> int:
    """Exact independence number by branch and bound on bitmasks, on an
    explicit stack: a greedy set is the first bound, and a node takes its
    candidate of most candidate neighbors before leaving it out.  The
    package's search before its reductions and matching bound."""
    n = g.n
    if n == 0:
        return 0
    nbr = g.neighbor_masks
    taken = 0
    count = 0
    for v in sorted(range(n), key=lambda v: (nbr[v].bit_count(), v)):
        if not (nbr[v] & taken):
            taken |= 1 << v
            count += 1
    best = count
    # node: candidate vertices, size of the independent set taken so far
    stack = [((1 << n) - 1, 0)]
    while stack:
        cand, size = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = size
            continue
        # branch on the vertex with most candidate neighbors
        pivot = -1
        pivot_deg = -1
        c = cand
        while c:
            b = c & -c
            c ^= b
            v = b.bit_length() - 1
            d = (nbr[v] & cand).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        pb = 1 << pivot
        stack.append((cand ^ pb, size))
        # pushed last, so taking the pivot is searched first
        stack.append((cand & ~(nbr[pivot] | pb), size + 1))
    return best


def naive_bipartition(g: Graph) -> Optional[tuple[set[int], set[int]]]:
    """Two sides by breadth-first search from each uncolored vertex in
    label order, that vertex on the first side; None on an odd cycle."""
    adj = _adjacency(g)
    color: dict[int, int] = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return (
        {v for v in color if color[v] == 0},
        {v for v in color if color[v] == 1},
    )


# -- construction and graph6, one edge tuple or one bit at a time ----------


def naive_complete_graph(n: int) -> Graph:
    return make_graph(n, list(combinations(range(n), 2)))


def naive_disjoint_union(graphs: list[Graph]) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((n + u, n + v) for u, v in g.edges())
        n += g.n
    return make_graph(n, edges)


def naive_join(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges())
    edges.extend((g.n + u, g.n + v) for u, v in h.edges())
    edges.extend((u, g.n + v) for u in range(g.n) for v in range(h.n))
    return make_graph(g.n + h.n, edges)


def naive_f_m(blocks) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    base = naive_disjoint_union([b.graph for b in blocks])
    terminals = []
    offset = 0
    for b in blocks:
        terminals.append((offset + b.x, offset + b.y))
        offset += b.n
    flat = [v for pair in terminals for v in pair]
    edges = list(base.edges()) + list(combinations(flat, 2))
    return make_graph(base.n, edges), tuple(terminals)


def naive_g_construct(l: int, blocks) -> Graph:
    if not blocks:
        return naive_complete_graph(l)
    fm, _ = naive_f_m(blocks)
    return fm if l == 0 else naive_join(naive_complete_graph(l), fm)


def naive_layout_graph(l: int, runs) -> Graph:
    # K_l joined onto the runs' gadgets, their terminals made one clique
    gadgets = [(h, mask) for h, mask, count in runs for _ in range(count)]
    base = naive_disjoint_union([h for h, _ in gadgets])
    terminals = []
    offset = 0
    for h, mask in gadgets:
        terminals.extend(offset + v for v in range(h.n) if mask >> v & 1)
        offset += h.n
    f = make_graph(base.n, list(base.edges()) + list(combinations(terminals, 2)))
    return naive_join(naive_complete_graph(l), f)


def naive_complete_bipartite(a: int, b: int) -> Graph:
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def naive_matched_layers(a: int, b: int) -> Graph:
    n1 = a - b + 1
    n = n1 + 2 * b
    edges = [(i, j) for i in range(n1) for j in range(i + 1, n)]
    edges.extend((n1 + b + i, n1 + b + j) for i in range(b) for j in range(i + 1, b))
    edges.extend((n1 + i, n1 + b + i) for i in range(b))
    return make_graph(n, edges)


def naive_inflate_triangles(g: Graph) -> Graph:
    edges = []
    for v in range(g.n):
        base = 3 * v
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    for u, v in g.edges():
        i = g.neighbors(u).index(v)
        j = g.neighbors(v).index(u)
        edges.append((3 * u + i, 3 * v + j))
    return make_graph(3 * g.n, edges)


def naive_inflation_cutset(g: Graph) -> frozenset[int]:
    """Walk an Euler circuit of g plus one vertex n tied to every vertex,
    from 0, always along the first unwalked edge of a vertex's list
    (its neighbors ascending, then n), and cut the triangle vertex that
    each edge of g enters, the one dedicated to the edge's tail."""
    n = g.n
    adj = {v: sorted(nbrs) + [n] for v, nbrs in _adjacency(g).items()}
    adj[n] = list(range(n))
    used: set[frozenset[int]] = set()
    stack, walk = [0], []
    while stack:
        v = stack[-1]
        free = [u for u in adj[v] if frozenset((u, v)) not in used]
        if free:
            used.add(frozenset((v, free[0])))
            stack.append(free[0])
        else:
            walk.append(stack.pop())
    return frozenset(
        3 * head + adj[head].index(tail)
        for tail, head in zip(walk, walk[1:])
        if n not in (tail, head)
    )


def naive_graph6_size_field(n: int) -> bytes:
    """One byte n + 63 up to 62, else 126 and 3 six-bit groups up to
    258047, else 126 126 and 6 groups."""
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126] + [((n >> sh) & 63) + 63 for sh in (12, 6, 0)])
    return bytes([126, 126] + [((n >> sh) & 63) + 63 for sh in range(30, -1, -6)])


def naive_encode_graph6(g: Graph) -> bytes:
    """Size field, then the upper triangle column by column, six bits per
    byte at offset 63, zero-padded."""
    out = bytearray(naive_graph6_size_field(g.n))
    val = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            val = (val << 1) | int(g.has_edge(i, j))
            nbits += 1
            if nbits == 6:
                out.append(val + 63)
                val = 0
                nbits = 0
    if nbits:
        out.append((val << (6 - nbits)) + 63)
    return bytes(out)


def naive_decode_graph6(data: bytes) -> Graph:
    """Read a valid graph6 string as the format defines it: the size
    field, then six bits per byte, most significant first, one bit per
    pair (0,1),(0,2),(1,2),(0,3),... and zero padding after the last."""
    if data[0] != 126:
        size, pos = data[:1], 1
    elif data[1] != 126:
        size, pos = data[1:4], 4
    else:
        size, pos = data[2:8], 8
    n = 0
    for byte in size:
        n = n * 64 + (byte - 63)
    bits = []
    for byte in data[pos:]:
        for sh in (5, 4, 3, 2, 1, 0):
            bits.append(((byte - 63) >> sh) & 1)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    assert not any(bits[k:]), "nonzero padding"
    return make_graph(n, edges)


# -- counting arguments for nonhamiltonicity ------------------------------

# the block kinds with no spanning path between their terminals
NAIVE_PATH_FREE_KINDS = {BlockKind.L1, BlockKind.L2, BlockKind.L3}


def naive_edge_count_params(a_scaled: int, b_scaled: int) -> dict[str, int]:
    """Case 3: 2B incidences needed, 2(A - B + 1) + B available."""
    return {
        "required_incidences": 2 * b_scaled,
        "available_incidences": 2 * (a_scaled - b_scaled + 1) + b_scaled,
    }


def naive_block_count_params(l: int, runs) -> dict[str, int]:
    """Cases 5-7: 2l + 1 path-free blocks needed, those of L1-L3 counted."""
    return {
        "required": 2 * l + 1,
        "path_free_blocks": sum(c for k, c in runs if k in NAIVE_PATH_FREE_KINDS),
    }
