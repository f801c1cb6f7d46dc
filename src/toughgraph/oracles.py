"""Exact exponential-time oracles with explicit resource limits.

Everything here returns exact answers or refuses loudly: toughness and
independence raise SizeLimitError beyond their vertex ceilings, and the
Hamilton deciders report an unknown verdict when they exhaust their node
budget instead of guessing.  All rational arithmetic is exact integer
cross-multiplication; no verdict ever passes through a float.
"""

from __future__ import annotations

import functools
import mmap
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .graphs import Graph, _bipartition, _bits, _reach, count_components_masked

__all__ = [
    "SizeLimitError",
    "CutsetWitness",
    "ToughnessResult",
    "HamiltonResult",
    "cutset_witness",
    "toughness_exact",
    "toughness_below",
    "decomposition_below",
    "toughness_upper_search",
    "is_hamiltonian",
    "has_hamilton_path",
    "independence_number",
]

DEFAULT_TOUGHNESS_LIMIT = 24
DEFAULT_ALPHA_LIMIT = 48
DEFAULT_NODE_LIMIT = 10_000_000
DP_LIMIT = 22


class SizeLimitError(ValueError):
    """Instance too large for an exact oracle; use the heuristic search or
    structural verification instead."""


@dataclass(frozen=True)
class CutsetWitness:
    """A vertex cut together with the component count it achieves."""

    cutset: frozenset[int]
    component_count: int
    ratio: Fraction


@dataclass(frozen=True)
class ToughnessResult:
    """Exact toughness; value None means infinite (complete graph).

    rounds is the number of cutsets the search yields, plus one: the
    count of Dinkelbach's restarted rounds, the last of which finds none.
    """

    value: Optional[Fraction]
    witness: Optional[CutsetWitness]
    rounds: int = field(default=0, compare=False)

    @property
    def is_infinite(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class HamiltonResult:
    """verdict True/False is exact; None means the node budget ran out."""

    verdict: Optional[bool]
    witness: Optional[tuple[int, ...]]
    method: str
    nodes: int


def cutset_witness(g: Graph, cutset: frozenset[int]) -> CutsetWitness:
    """Re-verify a cutset by counting components; rejects non-cuts."""
    mask = 0
    for v in cutset:
        if not (0 <= v < g.n):
            raise ValueError(f"cutset vertex {v} out of range")
        mask |= 1 << v
    if mask.bit_count() != len(cutset):
        raise ValueError("cutset has repeated vertices")
    alive = ((1 << g.n) - 1) & ~mask
    c = count_components_masked(g.neighbor_masks, alive)
    if c < 2:
        raise ValueError(f"not a cutset: leaves {c} component(s)")
    return CutsetWitness(frozenset(cutset), c, Fraction(len(cutset), c))


# -- exact toughness ---------------------------------------------------


def _survive(comps: tuple[int, ...], v: int, row: int) -> tuple[int, ...]:
    """The decided survivors' components once v, with neighborhood row,
    is decided to survive: v joins every component it touches."""
    merged = 1 << v
    kept = []
    for comp in comps:
        if comp & row:
            merged |= comp
        else:
            kept.append(comp)
    kept.append(merged)
    return tuple(kept)


def _below_search(g: Graph, max_n: int):
    """The depth-first cutset search of g, set up once: it returns
    improving(a, b), a generator of the cutsets below lambda = a / b
    whose ratios strictly fall, each as (mask of U + S', its component
    count).  toughness_below takes its first yield, toughness_exact the
    last.

    A vertex adjacent to all others reconnects whatever it survives in,
    so the set U of universal vertices lies in every cutset; only the
    subsets S' of R = V - U are searched, each scored as
    (|U| + |S'|) / omega(G - U - S').  The search decides the vertices
    of R in (-degree, label) order, most neighbors first, on an
    explicit stack, "v out of S'" before "v in S'", so it reads the
    subsets S' as binary numbers, smallest first, whose bits run from
    the top in that order.  A node holds the next vertex index, the
    vertices cut so far, the cut mask, the components of the decided
    survivors and their joint neighborhood `touched`; a survivor
    outside `touched` starts a component of its own.

    - Bound.  An undecided vertex that is not cut later survives, and
      either joins a decided survivor's component or touches none of
      them.  So below a node with j vertices cut, every cutset cuts at
      least |U| + j vertices and leaves at most `most` components: the
      decided survivors' plus the undecided vertices F adjacent to none
      of them.  If most < 2 or b (|U| + j) >= a most, no cutset below
      has ratio under a / b, and the node is skipped.
    - Matching.  The components that form inside F are pairwise
      non-adjacent, so an edge of G[F] has both ends in one of them or
      an end cut.  For a matching M of G[F], a component holding k of
      its edges has at least k + 1 vertices of F, and every other edge
      of M has a cut end, so at most |F| - |M| such components form.
      A greedy matching of G[F] is grown only when the largest it can
      be, |F| // 2, would skip the node; it is then subtracted from
      `most` and the bound tested again, so nodes where it cannot help
      pay nothing for it.
    - Leaves.  Once every vertex is decided, `most` is the exact
      component count, so a leaf that is not skipped is a cutset below
      a / b; the search itself counts no components.  It is yielded,
      and a / b becomes its ratio, for every node still on the stack.
    - One pass is Dinkelbach's restarted rounds.  Let C_k be the k-th
      cutset yielded.  Every leaf before it in search order was
      rejected under a bound >= ratio(C_k), or is an earlier C_i with a
      higher ratio, and every skipped node held no cutset below a bound
      >= ratio(C_k).  So the first cutset below ratio(C_k) in search
      order comes after C_k: a search restarted at ratio(C_k) returns
      it, and it is the next cutset this pass yields.  The cutsets,
      their ratios, the last one (the first optimal cutset in search
      order) and their number are those of the restarted rounds.  This
      holds for any fixed vertex order.  (-degree, label) order
      tightens the bound near the root: a vertex with many neighbors
      either adds them all to `touched` or adds one to j.
    """
    n = g.n
    if n > max_n:
        raise SizeLimitError(
            f"toughness search capped at n={max_n}, got n={n}; "
            "raise max_n, or fall back to toughness_upper_search"
        )
    nbr = g.neighbor_masks
    full = (1 << n) - 1
    universal = sum(1 << v for v in range(n) if nbr[v] | (1 << v) == full)
    u = universal.bit_count()
    rest = sorted(_bits(full ^ universal), key=lambda v: (-nbr[v].bit_count(), v))
    r = len(rest)
    # undecided[i]: the vertices rest[i:]
    undecided = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        undecided[i] = undecided[i + 1] | 1 << rest[i]

    def improving(a: int, b: int) -> Iterator[tuple[int, int]]:
        stack = [(0, 0, 0, (), 0)]
        while stack:
            i, j, mask, comps, touched = stack.pop()
            free = undecided[i] & ~touched
            f = free.bit_count()
            most = len(comps) + f
            if most < 2 or b * (u + j) >= a * most:
                continue
            least = most - f // 2
            if least < 2 or b * (u + j) >= a * least:
                # subtract a greedy matching of G[free]
                rem = free
                while rem:
                    low = rem & -rem
                    rem ^= low
                    w = nbr[low.bit_length() - 1] & rem
                    if w:
                        rem ^= w & -w
                        most -= 1
                if most < 2 or b * (u + j) >= a * most:
                    continue
            if i == r:
                yield universal | mask, most
                a, b = u + j, most
                continue
            v = rest[i]
            row = nbr[v]
            stack.append((i + 1, j + 1, mask | 1 << v, comps, touched))
            # pushed last, so "v out of S'" is searched before "v in S'"
            if touched >> v & 1:
                comps = _survive(comps, v, row)
            else:
                comps += (1 << v,)
            stack.append((i + 1, j, mask, comps, touched | row))

    return improving


def toughness_exact(g: Graph, max_n: int = DEFAULT_TOUGHNESS_LIMIT) -> ToughnessResult:
    """Exact toughness: min |S| / omega(G - S) over all cutsets S, by
    Dinkelbach's method on toughness_below's search, run as one pass
    (see _below_search).

    - Rounds.  A cutset cuts at most n - 2 vertices and leaves at least
      two components, so its ratio is below n.  From lambda = n, each
      cutset the pass yields is the first below the last one's ratio.
      The ratios strictly fall and there are finitely many, so the pass
      ends once no cutset is below lambda: lambda is the toughness tau.
    - Witness.  The last cutset yielded has ratio tau.  Every optimal
      cutset was below the lambda before it too, so it is the first
      optimal cutset in toughness_below's order, which decides the
      vertices in (-degree, label) order: labels matter only among
      vertices of equal degree.  For a disconnected graph it is the
      empty cutset.
    """
    improving = _below_search(g, max_n)
    if g.is_complete():
        return ToughnessResult(None, None)
    rounds, cut = 1, None  # the last round, which finds no cutset
    for cut, c in improving(g.n, 1):
        rounds += 1
    if cut is None:
        raise RuntimeError("non-complete graph must have a cutset")
    tau = Fraction(cut.bit_count(), c)
    witness = cutset_witness(g, frozenset(_bits(cut)))
    if witness.ratio != tau:
        raise RuntimeError("witness recount disagrees with the search")
    return ToughnessResult(tau, witness, rounds)


def toughness_below(
    g: Graph, t: Fraction, max_n: int = DEFAULT_TOUGHNESS_LIMIT
) -> Optional[CutsetWitness]:
    """A cutset S with |S| / omega(G - S) < t, or None when there is
    none, i.e. when the toughness is at least t (always for a complete
    graph).  This is the parametric decision of Dinkelbach (1967) at
    lambda = t = a / b: is b |S| - a omega(G - S) negative for some S?

    It is the first cutset that _below_search's pass yields from a / b:
    the first below t when the subsets S' of R = V - U (U the universal
    vertices) are read as binary numbers, smallest first, whose bits run
    from the top in (-degree, label) order.  A disconnected graph gives
    the empty cutset.
    """
    found = next(_below_search(g, max_n)(t.numerator, t.denominator), None)
    if found is None:
        return None
    witness = cutset_witness(g, frozenset(_bits(found[0])))
    if witness.component_count != found[1]:
        raise RuntimeError("witness recount disagrees with the search")
    return witness


# -- exact toughness of joins onto gadgets -------------------------------

# (gadget graph, terminal mask, count): a run of equal gadgets
GadgetRun = tuple[Graph, int, int]

# a state (s, d): s = 1 iff some terminal survives, d = min(detached, 2)
_States = dict[tuple[int, int], int]


@functools.lru_cache(maxsize=None)
def _gadget_triples(h: Graph, terminals: int) -> frozenset[tuple[int, int, int]]:
    """The distinct (|S_b|, detached components, a terminal survives)
    over all subsets S_b of the gadget h."""
    nbr = h.neighbor_masks
    full = (1 << h.n) - 1
    triples = set()
    for cut in range(full + 1):
        alive = full ^ cut
        kept = _reach(nbr, terminals & alive, alive)
        triples.add(
            (cut.bit_count(), count_components_masked(nbr, alive ^ kept), int(kept != 0))
        )
    return frozenset(triples)


def _convolve(x: _States, y: _States) -> _States:
    """Min-plus product over the states: each pair of states combines
    to (s or s', min(d + d', 2)) at the sum of their costs."""
    out: _States = {}
    for (s1, d1), c1 in x.items():
        for (s2, d2), c2 in y.items():
            k = (s1 | s2, min(d1 + d2, 2))
            c = c1 + c2
            if k not in out or c < out[k]:
                out[k] = c
    return out


def decomposition_below(l: int, runs: tuple[GadgetRun, ...], t: Fraction) -> Optional[int]:
    """The least b |S| - a omega(G - S) over the cutsets S of G, at
    lambda = t = a / b, or None when G has no cutset.  G is K_l joined
    onto the disjoint union of the runs' gadgets, with all their
    terminals joined into one clique.  Some cutset of G has ratio below
    t iff the result is negative, so the toughness is at least t iff
    it is None or >= 0.

    - Join lemma.  A surviving join vertex is adjacent to every other
      survivor, so every cutset holds the l join vertices.
    - Gadgets.  Apart from the join, edges between gadgets join
      terminals only, and all terminals form one clique.  So the
      survivors joined to a surviving terminal make one component, and
      every other component lies inside one gadget:
      omega(G - S) = [some terminal survives] + sum_b det_b, where
      det_b counts the components of gadget b - S_b that hold no
      surviving terminal.
    - States.  Then b |S| - a omega = b l - a [some terminal survives]
      + sum_b (b |S_b| - a det_b), and S is a cut (omega >= 2) iff
      s + d >= 2 for the state s = [some terminal survives],
      d = min(sum_b det_b, 2), since min(min(x, 2) + y, 2) = min(x + y, 2).
      A gadget's vector maps each of the six states to the least
      b |S_b| - a det_b over its subsets S_b that reach it, tabulated
      from the distinct (|S_b|, det_b, s_b) over at most 2^9 subsets.
      Two gadgets' states combine to (s or s', min(d + d', 2)), so the
      vector of both together is the min-plus product of theirs over
      that operation.  This is the product of their 6x6 min-plus
      transfer matrices, each kept as its row from state (0, 0), which
      determines it because the operation is associative and
      commutative.  A run of c equal gadgets is the c-th power, by
      repeated squaring; min-plus products are associative, so this
      is exact.

    The result is the least b l - a s + cost over the states with
    s + d >= 2.  All arithmetic is on integers.
    """
    a, b = t.numerator, t.denominator
    total: _States = {(0, 0): b * l}
    for h, terminals, count in runs:
        vec: _States = {}
        for size, det, s in _gadget_triples(h, terminals):
            k, c = (s, min(det, 2)), b * size - a * det
            if k not in vec or c < vec[k]:
                vec[k] = c
        while count:
            if count & 1:
                total = _convolve(total, vec)
            count >>= 1
            if count:
                vec = _convolve(vec, vec)
    cuts = [c - a * s for (s, d), c in total.items() if s + d >= 2]
    return min(cuts) if cuts else None


def toughness_upper_search(
    g: Graph, budget: int = 2000, seed: int = 0
) -> Optional[CutsetWitness]:
    """Heuristic upper bound on toughness: the best cutset found within a
    budget of component evaluations.

    Seeds with every closed-out neighborhood N(v), hill-climbs by single
    vertex additions/removals, then spends the rest of the budget on
    seeded random restarts.  Deterministic for a fixed seed.  Returns
    None when no cutset at all is found in budget (e.g. complete graphs
    are rejected up front).
    """
    if g.is_complete():
        raise ValueError("complete graph has no cutset")
    if not g.is_connected():
        return cutset_witness(g, frozenset())
    n = g.n
    nbr = g.neighbor_masks
    full = (1 << n) - 1
    rng = random.Random(seed)
    evals = 0
    best: Optional[tuple[int, int, int]] = None  # (size, comps, mask)

    def consider(mask: int) -> None:
        nonlocal evals, best
        if mask == 0 or mask & ~full or mask == full:
            return
        evals += 1
        c = count_components_masked(nbr, full ^ mask)
        if c >= 2:
            s = mask.bit_count()
            if best is None or s * best[1] < best[0] * c:
                best = (s, c, mask)

    for v in range(n):
        if evals >= budget:
            break
        consider(nbr[v])

    improved = True
    while improved and best is not None and evals < budget:
        improved = False
        base = best[2]
        for v in range(n):
            if evals >= budget:
                break
            consider(base ^ (1 << v))
            if best[2] != base:
                improved = True
                break

    while evals < budget:
        size = rng.randint(1, max(1, n - 2))
        mask = 0
        for v in rng.sample(range(n), size):
            mask |= 1 << v
        consider(mask)

    if best is None:
        return None
    return cutset_witness(g, frozenset(_bits(best[2])))


# -- Hamilton cycle / path ---------------------------------------------


def is_hamiltonian(g: Graph, node_limit: int = DEFAULT_NODE_LIMIT) -> HamiltonResult:
    """Decide Hamiltonicity exactly, or return verdict None on budget.

    A Hamilton cycle is a spanning path that starts and ends at one
    root, so below n = 3 there is none, and otherwise this is
    has_hamilton_path's question with both endpoints at the root: 0 for
    the subset dynamic program (the witness closes at the lowest
    possible neighbor of 0), the (degree, label)-minimal vertex for
    backtracking.  The witness lists every vertex once, root first.
    """
    n = g.n
    if n < 3:
        return HamiltonResult(False, None, "trivial", 0)
    root = 0 if _by_dp(g) else min(range(n), key=lambda v: (g.degree(v), v))
    return _spanning_path(g, root, root, node_limit)


def has_hamilton_path(
    g: Graph, x: int, y: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> HamiltonResult:
    """Decide whether a spanning x-y path exists; None verdict on budget.
    _spanning_path screens and searches; the witness runs from x to y."""
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError("path endpoints out of range")
    if x == y:
        raise ValueError("path endpoints must differ")
    return _spanning_path(g, x, y, node_limit)


def _by_dp(g: Graph) -> bool:
    """Whether the subset dynamic program, not backtracking, decides g."""
    return g.n <= DP_LIMIT and 4 * g.edge_count >= g.n * (g.n - 1)


def _spanning_path(g: Graph, x: int, y: int, node_limit: int) -> HamiltonResult:
    """Spanning x-y paths, or for y == x Hamilton cycles through x.

    Screens decide without search: a disconnected graph, a vertex of
    degree below 2 other than a path's ends, universal vertices whose
    removal leaves too many components, and a bipartite graph whose side
    sizes do not fit.  Then the subset dynamic program, evaluated lazily
    backward from y (exact, no budget, a memo backed only where the
    search writes), decides dense graphs up to DP_LIMIT vertices, pruned
    backtracking under node_limit everything else.
    """
    n = g.n
    nbr = g.neighbor_masks
    ends = 0 if x == y else 1 << x | 1 << y
    degrees = [row.bit_count() for row in nbr]
    if not g.is_connected() or any(d < 2 for v, d in enumerate(degrees) if not ends >> v & 1):
        return HamiltonResult(False, None, "trivial", 0)
    # a hamiltonian graph is 1-tough (Chvatal 1973): removing a set S
    # leaves at most |S| components, at most |S| + 1 for a spanning
    # path.  S is the universal vertices U; with U empty a connected
    # graph leaves 1 > 0, so the bound says nothing
    if n - 1 in degrees:
        universal = sum(1 << v for v, d in enumerate(degrees) if d == n - 1)
        spare = universal.bit_count() + (x != y)
        if count_components_masked(nbr, ((1 << n) - 1) ^ universal) > spare:
            return HamiltonResult(False, None, "trivial", 0)
    # a path alternates the sides of a bipartite graph, so x's side has
    # one vertex more than the other when y is on it too, else as many;
    # a cycle ends next to x, on the other side
    sides = _bipartition(g)
    if sides is not None:
        mine, other = sides if sides[0] >> x & 1 else sides[::-1]
        if mine.bit_count() - other.bit_count() != (mine ^ 1 << x) >> y & 1:
            return HamiltonResult(False, None, "trivial", 0)
    if _by_dp(g):
        return _hamilton_dp(g, x, y)
    return _hamilton_backtrack(g, x, y, node_limit)


def _hamilton_backtrack(g: Graph, x: int, y: int, node_limit: int) -> HamiltonResult:
    """Spanning x-y paths by depth-first search on an explicit stack;
    y == x asks for a path from x that closes into a cycle at x.

    A node is a path from x, extended by its end's unvisited neighbors
    in label order, y only as the last step.  With y counted as alive,
    a node is pruned when an unvisited vertex other than y has fewer
    than two alive neighbors, y has none, or the end cannot reach every
    unvisited vertex and y.  A spanning path is accepted when it ends at
    y, or for a cycle next to x.  `nodes` counts the nodes entered.

    Only the root scans every unvisited vertex for the degree prune and
    searches its whole alive set.  A child's parent passed both checks,
    and the child's alive set is the parent's less the parent's end p
    (the new end was alive, unvisited); when p is y = x it is the
    parent's, and both checks pass as they stand.  Otherwise only the
    unvisited neighbors of p can have fallen below their count, and:
    - the parent's alive set A induces a connected graph;
    - so every component of G[A - p] holds a neighbor of p;
    - so A - p is connected iff the new end reaches N(p) & (A - p),
      and the search from it stops once it has.
    """
    n = g.n
    nbr = g.neighbor_masks
    full = (1 << n) - 1
    ybit = 1 << y
    accepted = nbr[x] if x == y else ybit
    path = [x]
    visited = 1 << x
    untried = []  # untried[i]: the successors of path[i] still to search
    nodes = 0
    while True:
        nodes += 1
        if nodes > node_limit:
            return HamiltonResult(None, None, "backtracking", nodes)
        cur = path[-1]
        cand = 0
        if visited == full:
            if accepted >> cur & 1:
                return HamiltonResult(True, tuple(path), "backtracking", nodes)
        else:
            unvisited = full ^ visited
            alive = unvisited | 1 << cur | ybit
            if len(path) == 1:
                u = unvisited
                need = unvisited | ybit
            elif path[-2] == y:
                u = need = 0
            else:
                near = nbr[path[-2]]
                u = near & unvisited
                need = near & alive
            while u:
                b = u & -u
                u ^= b
                # y needs one alive neighbor, so it counts as its own second
                t = nbr[b.bit_length() - 1] & alive | b & ybit
                if t & (t - 1) == 0:
                    break
            else:
                if _reach(nbr, 1 << cur, alive, need) & need == need:
                    cand = nbr[cur] & unvisited
                    if unvisited != ybit:
                        cand &= ~ybit
        while not cand:
            if not untried:
                return HamiltonResult(False, None, "backtracking", nodes)
            visited ^= 1 << path.pop()
            cand = untried.pop()
        b = cand & -cand
        untried.append(cand ^ b)
        path.append(b.bit_length() - 1)
        visited |= b


def _hamilton_dp(g: Graph, x: int, y: int) -> HamiltonResult:
    """_hamilton_backtrack's question by the Bellman / Held-Karp subset
    dynamic program, exact and without a budget, evaluated lazily.

    The program's state (R, v), for a set R of vertices other than x and
    a vertex v in R, is live when some path from x runs over exactly
    {x} + R and ends at v, i.e. when v is a bit of the bottom-up table's
    dp[{x} + R]: when R = {v} and v is adjacent to x, or when some
    neighbor u of v in R - v ends a live (R - v, u).  The answer is
    whether some accepted end v (y, or for a cycle a neighbor of x) makes
    (V - x, v) live.  Instead of filling the table bottom up, a
    depth-first search on an explicit stack walks the states backward
    from the full set: it tries the accepted ends lowest first, then at
    each state the predecessors u of v in R - v lowest first (x itself
    only once R = {v}).  A state is entered when its candidates are
    computed, and pushed only if it has some; it is exhausted when all
    of them were tried without reaching x, at once if there were none.
    dead[R] collects the exhausted ends of R, and candidates in it are
    skipped.

    - A candidate is taken (its chain reaches x) iff it is live: a
      predecessor u of v is taken iff it is a bit of the table's
      dp[{x} + R - v] & nbr[v].  By induction on |R|: an exhausted state
      tried every candidate not in dead, each of which was dead or
      exhausted, so by induction none was live, and neither is the
      state; dead holds only such states.  A live state has a live
      candidate, and every candidate below the lowest live one is dead
      or gets exhausted, so the search enters that one, which by
      induction is taken.  So the first full chain takes the lowest live
      accepted end and then, at each step, the lowest live predecessor,
      exactly the witness that the full table gives when walked back
      from its lowest accepted end.
    - At most 2^(n-1) * n expansions.  The sets on the stack shrink from
      bottom to top, so a state is entered at most once before it is
      taken or exhausted, and an exhausted one is never entered again.
      There are (n - 1) * 2^(n-2) states (R, v).

    dead holds 2^n end bitmasks of 4 bytes each (n <= DP_LIMIT < 32) in
    an anonymous mapping, so the OS backs only the pages the search
    writes: a witness found in a few steps costs no 4 * 2^n bytes.  The
    witness lists the path from x; nodes is 0, as for the table.
    """
    n = g.n
    nbr = g.neighbor_masks
    start = 1 << x
    rest = ((1 << n) - 1) ^ start
    cand = rest & (nbr[x] if x == y else 1 << y)
    ends = []  # ends[i]: the end of the path over {x} + rest + ends[i:]
    untried = []  # untried[i]: the candidates left beside ends[i]
    with mmap.mmap(-1, 4 << n) as memo, memoryview(memo).cast("I") as dead:
        while True:
            while cand:
                b = cand & -cand
                cand ^= b
                v = b.bit_length() - 1
                r = rest ^ b
                preds = nbr[v] & (r & ~dead[r] if r else start)
                if not preds:
                    dead[rest] |= b
                elif r:
                    untried.append(cand)
                    ends.append(v)
                    rest = r
                    cand = preds
                else:
                    ends += (v, x)
                    ends.reverse()
                    return HamiltonResult(True, tuple(ends), "subset-dp", 0)
            if not ends:
                return HamiltonResult(False, None, "subset-dp", 0)
            b = 1 << ends.pop()
            rest |= b
            dead[rest] |= b
            cand = untried.pop()


# -- independence number -----------------------------------------------


def independence_number(g: Graph, max_n: int = DEFAULT_ALPHA_LIMIT) -> int:
    """Exact independence number by branch and bound on bitmasks, on an
    explicit stack.  A node is a candidate mask and the size of the set
    taken so far; one scan over the candidates counts each one's
    candidate neighbors and grows a greedy matching among them.

    - Degree 0 and 1.  A candidate v with at most one candidate neighbor
      lies in some maximum independent set of the candidates: a maximum
      set without v holds v's neighbor u, else v could be added, and
      swapping u for v keeps it independent.  So the scan takes every
      candidate of degree 0 or 1 as it meets it, and drops the neighbor
      of one of degree 1.  A scan that dropped a neighbor counted
      degrees that have since fallen, so the candidates are scanned
      once more, until a scan drops none.
    - Cycles.  When every candidate has exactly two candidate neighbors,
      the candidates induce disjoint cycles, and a cycle of length L has
      independence number floor(L / 2).  The node closes without
      branching.
    - Matching bound.  An independent set holds at most one end of each
      edge of a matching, so the node can add at most |cand| - |M| for
      the greedy matching M; it is pruned when that cannot beat the best.

    Otherwise the candidate with most candidate neighbors (lowest label
    on ties) is taken first, then dropped.  The greedy set by (degree,
    label) is the first best; with the matching bound it closes
    K_{a,a+1} at the root.
    """
    n = g.n
    if n > max_n:
        raise SizeLimitError(f"independence oracle capped at n={max_n}, got n={n}")
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
        forced = True
        while forced:
            free = cand  # candidates the greedy matching has not used
            matched = 0
            pivot = -1
            pivot_deg = 0
            forced = False
            c = cand
            while c:
                b = c & -c
                c ^= b
                v = b.bit_length() - 1
                row = nbr[v] & cand
                if not row:
                    cand ^= b
                    size += 1
                    continue
                if not row & (row - 1):
                    cand &= ~(row | b)
                    c &= cand
                    size += 1
                    forced = True
                    continue
                d = row.bit_count()
                if d > pivot_deg:
                    pivot, pivot_deg = v, d
                if free & b:
                    w = row & free
                    if w:
                        free ^= b | w & -w
                        matched += 1
        if size + cand.bit_count() - matched <= best:
            continue
        if pivot_deg <= 2:
            # no candidate is left, or the candidates form disjoint cycles
            rest = cand
            while rest:
                cycle = _reach(nbr, rest & -rest, rest)
                rest ^= cycle
                size += cycle.bit_count() // 2
            best = max(best, size)
            continue
        pb = 1 << pivot
        stack.append((cand ^ pb, size))
        # pushed last, so taking the pivot is searched first
        stack.append((cand & ~(nbr[pivot] | pb), size + 1))
    return best
