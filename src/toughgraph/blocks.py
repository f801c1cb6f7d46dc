"""Building blocks and composed families for toughness witnesses.

A block is a small two-terminal graph.  The first three kinds admit no
Hamilton path between their terminals, which is what makes the composed
graphs nonhamiltonian; the fourth kind does admit one and is used to fix
parity.  Blocks compose by taking a disjoint union, turning the terminal
pairs into one clique (f_m), and joining a complete graph onto the
result (g_construct).  Both are layout_graph, which builds that shape
from runs of any two-terminal gadgets: K_l joined onto the gadgets with
all their terminals in one clique, the input decomposition_below decides.

Also here: the exceptional small graphs used for toughness exactly 1 and
3/2, the layered family covering 1 < t < 3/2, and triangle inflation of
cubic graphs together with a cutset that shatters the inflation into one
component per triangle.

Every family is built directly as neighbor-mask rows: layout_graph
writes each row once at its final offset, complete_bipartite and
matched_layers go through join, and the rest through row arithmetic,
inflation_cutset's Euler walk included; edge lists appear only in the
fixed tables of the blocks, the unit graph and the Petersen graph.
matched_layers is K_{A-B+1} joined onto B matched edges, a layout too,
but numbered layer by layer rather than gadget by gadget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Sequence

from .graphs import Graph, _bits, join, make_graph

__all__ = [
    "BlockKind",
    "Block",
    "block",
    "layout_graph",
    "f_m",
    "g_construct",
    "complete_graph",
    "complete_bipartite",
    "unit_toughness_graph",
    "matched_layers",
    "petersen",
    "inflate_triangles",
    "inflation_cutset",
]


class BlockKind(str, Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    L4 = "L4"


@dataclass(frozen=True)
class Block:
    """A two-terminal building block.

    labels gives the human-readable name of each vertex.  cut_core lists
    the interior hub vertices: removing them (with the terminals absorbed
    elsewhere) breaks the block into isolated vertices, which is how the
    composed witness cutsets reach their exact ratios.
    """

    kind: BlockKind
    graph: Graph
    x: int
    y: int
    labels: tuple[str, ...]
    cut_core: frozenset[int]

    @property
    def n(self) -> int:
        return self.graph.n

    def run(self, count: int) -> tuple[Graph, int, int]:
        """count copies of the block as a layout_graph run, terminals x and y."""
        return self.graph, 1 << self.x | 1 << self.y, count


# Vertex data per kind.  L1 is an 8-cycle w1..w8 with chords between the
# even-position vertices; terminals are the opposite vertices w1, w5.
_L1_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7),
    (1, 3), (3, 5), (5, 7), (1, 7),
]

# L2 contracts one chord of L1: the hub u sits in the w2 position and is
# adjacent to w1, w3, w4, w6, w7.
_L2_EDGES = [
    (0, 1), (1, 2), (1, 3), (1, 5), (1, 6),
    (2, 3), (3, 4), (4, 5), (5, 6), (3, 5),
]

# L3 is L1 plus a ninth vertex w9 adjacent to w4 and w6.
_L3_EDGES = _L1_EDGES + [(3, 8), (5, 8)]

# L4 is a triangle w1w2w3 with pendant terminals w4 (at w1) and w5 (at w3);
# it is the one kind whose terminals are joined by a spanning path.
_L4_EDGES = [(0, 1), (1, 2), (0, 2), (0, 3), (2, 4)]

_BLOCK_DATA = {
    BlockKind.L1: (
        8, _L1_EDGES, 0, 4,
        ("w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"),
        (1, 3, 5, 7),
    ),
    BlockKind.L2: (
        7, _L2_EDGES, 0, 4,
        ("w1", "u", "w3", "w4", "w5", "w6", "w7"),
        (1, 3, 5),
    ),
    BlockKind.L3: (
        9, _L3_EDGES, 0, 4,
        ("w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9"),
        (1, 3, 5, 7),
    ),
    BlockKind.L4: (
        5, _L4_EDGES, 3, 4,
        ("w1", "w2", "w3", "w4", "w5"),
        (0, 2),
    ),
}


@functools.lru_cache(maxsize=None)
def block(kind: BlockKind) -> Block:
    """The canonical copy of a block kind, always numbered the same way."""
    n, edges, x, y, labels, core = _BLOCK_DATA[BlockKind(kind)]
    return Block(
        kind=BlockKind(kind),
        graph=make_graph(n, edges),
        x=x,
        y=y,
        labels=labels,
        cut_core=frozenset(core),
    )


def layout_graph(l: int, runs: Sequence[tuple[Graph, int, int]]) -> Graph:
    """K_l joined onto the runs' gadgets with all their terminals turned
    into one clique: decomposition_below's input, runs of (gadget,
    terminal mask, copies), as a graph.

    The l join vertices come first, then each run's copies in order, and
    each row is written once, at its final offset: a join row sees every
    other vertex, a gadget row is the gadget's row shifted to its copy's
    offset with the l join bits below, and a terminal row also holds
    every other terminal.  With no runs it is K_l.
    """
    low = (1 << l) - 1
    clique, offset = 0, l
    for h, terminals, count in runs:
        clique |= sum(terminals << offset + i * h.n for i in range(count))
        offset += count * h.n
    rows = [((1 << offset) - 1) ^ 1 << v for v in range(l)]
    for h, terminals, count in runs:
        # a run's terminal positions are found once, not per copy
        ends = tuple(_bits(terminals))
        for offset in range(len(rows), len(rows) + count * h.n, h.n):
            rows.extend(r << offset | low for r in h.neighbor_masks)
            for v in ends:
                rows[offset + v] |= clique ^ 1 << offset + v
    return Graph(tuple(rows))


def f_m(blocks: Sequence[Block]) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Disjoint union of blocks with all 2m terminals turned into a clique.

    Block i occupies the contiguous id range starting at the sum of the
    orders before it.  Returns the graph, g_construct's with no join
    vertices, and the global (x_i, y_i) pairs.
    """
    if not blocks:
        raise ValueError("f_m needs at least one block")
    offsets = accumulate((b.n for b in blocks), initial=0)
    pairs = tuple((offset + b.x, offset + b.y) for offset, b in zip(offsets, blocks))
    return g_construct(0, blocks), pairs


def g_construct(l: int, blocks: Sequence[Block]) -> Graph:
    """Join a complete graph on l vertices onto f_m of the blocks.

    The l join vertices come first, then the blocks in order: it is
    layout_graph with one run per block, terminals x and y.  With no
    blocks this is the complete graph, so l = 0 with an empty block list
    is rejected.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if not blocks and l == 0:
        raise ValueError("need l > 0 or at least one block")
    return layout_graph(l, [b.run(1) for b in blocks])


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    full = (1 << n) - 1
    return Graph(tuple(full & ~(1 << v) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the a-side on 0..a-1."""
    return join(Graph((0,) * a), Graph((0,) * b))


def unit_toughness_graph() -> Graph:
    """The 7-vertex graph with toughness exactly 1 that is not hamiltonian:
    a 6-cycle x1..x6 with the chord x2x6, plus x7 adjacent to x1 and x4."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 5), (0, 6), (3, 6)]
    return make_graph(7, edges)


def matched_layers(a: int, b: int) -> Graph:
    """Three layers: a-b+1 universal vertices, an independent set of b
    vertices, and a clique of b vertices matched to the independent set.

    Has toughness exactly a/b; it stops being hamiltonian once the
    independent layer outweighs the rest, i.e. when 3b > 2a + 2.
    Layout: 0..a-b universal, then the independent y_i, then the z_i.
    """
    if not a > b >= 2:
        raise ValueError(f"need a > b >= 2, got a={a}, b={b}")
    # below the universal layer: y_i at i, z_i at b + i
    y_rows = tuple(1 << b + i for i in range(b))
    z_clique = ((1 << b) - 1) << b
    z_rows = tuple(z_clique ^ (1 << b + i) | 1 << i for i in range(b))
    return join(complete_graph(a - b + 1), Graph(y_rows + z_rows))


def petersen() -> Graph:
    """Outer 5-cycle 0..4, spokes to 5..9, inner 5-cycle in pentagram order."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, edges)


def _require_cubic(g: Graph) -> None:
    if g.n == 0 or any(g.degree(v) != 3 for v in range(g.n)):
        raise ValueError("triangle inflation needs a cubic graph")


def inflate_triangles(g: Graph) -> Graph:
    """Replace every vertex of a cubic graph by a triangle.

    Vertex v becomes 3v, 3v+1, 3v+2, where 3v+i pairs with v's i-th
    neighbor in ascending order; each original edge becomes the edge
    between its two dedicated triangle vertices.  The result is cubic on
    3n vertices with 3n + m edges.
    """
    _require_cubic(g)
    nbr = g.neighbor_masks
    # row 3v+i: the rest of v's triangle, and the vertex of the triangle
    # of v's i-th neighbor u dedicated to v
    return Graph(tuple(
        (7 << 3 * v) ^ (1 << 3 * v + i) | 1 << 3 * u + _rank(nbr[u], v)
        for v in range(g.n)
        for i, u in enumerate(_bits(nbr[v]))
    ))


def _rank(row: int, v: int) -> int:
    """v's place among the neighbors in row, ascending: those below it."""
    return (row & ((1 << v) - 1)).bit_count()


def inflation_cutset(g: Graph) -> frozenset[int]:
    """A cutset of inflate_triangles(g) that isolates every triangle.

    Picks one endpoint of each cross edge so that no triangle loses more
    than two vertices: orient the edges with indegree at most 2 per
    vertex (walk an Euler circuit after tying all odd-degree vertices to
    one auxiliary vertex) and take the head-side triangle vertex of each
    edge.  Removing the returned |E(g)| vertices leaves exactly n(g)
    components, one per triangle, for a ratio of |E|/n = 3/2 on any
    connected cubic graph.
    """
    _require_cubic(g)
    if not g.is_connected():
        raise ValueError("inflation cutset needs a connected graph")
    n = g.n
    nbr = g.neighbor_masks
    # the auxiliary vertex is bit n, above every neighbor: each vertex
    # walks its unwalked edges lowest first, the tie to it last
    unwalked = [row | 1 << n for row in nbr] + [(1 << n) - 1]
    stack = [0]
    walk: list[int] = []
    while stack:
        v = stack[-1]
        if unwalked[v]:
            u = (unwalked[v] & -unwalked[v]).bit_length() - 1
            unwalked[v] ^= 1 << u
            unwalked[u] ^= 1 << v
            stack.append(u)
        else:
            walk.append(stack.pop())
    picked = count = 0
    for w1, w2 in zip(walk, walk[1:]):
        if n not in (w1, w2):
            picked |= 1 << 3 * w2 + _rank(nbr[w2], w1)
            count += 1
    if count != g.edge_count or picked.bit_count() != count:
        raise RuntimeError("Euler circuit does not pick each cross edge once")
    if any((picked >> 3 * v) & 7 == 7 for v in range(n)):
        raise RuntimeError("orientation puts three cross edges on one triangle")
    return frozenset(_bits(picked))
