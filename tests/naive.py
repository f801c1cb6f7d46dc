"""Slow reference oracles used only to cross-check the fast ones.

Everything here is written against plain dict-of-sets adjacency with
itertools enumeration, deliberately sharing no code with the package
(which works on bitmasks).  Keep these dumb; their only virtue is that
they are obviously correct on small graphs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from toughgraph import Graph


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


def naive_toughness(g: Graph) -> Optional[Fraction]:
    """min |S| / omega(G - S) over all cutsets, None when complete."""
    first = naive_first_optimal_cutset(g)
    return None if first is None else first[0]


def naive_first_optimal_cutset(
    g: Graph,
) -> Optional[tuple[Fraction, tuple[int, ...]]]:
    """The toughness and the first cutset reaching it, in (size,
    lexicographic) order over all subsets; None when complete."""
    adj = _adjacency(g)
    best: Optional[tuple[Fraction, tuple[int, ...]]] = None
    for k in range(g.n):
        for subset in combinations(range(g.n), k):
            comps = _component_count(adj, set(subset))
            if comps < 2:
                continue
            ratio = Fraction(k, comps)
            if best is None or ratio < best[0]:
                best = (ratio, subset)
    return best


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


def naive_alpha(g: Graph) -> int:
    adj = _adjacency(g)
    best = 0
    for k in range(g.n, 0, -1):
        for subset in combinations(range(g.n), k):
            if all(v not in adj[u] for u, v in combinations(subset, 2)):
                return k
    return best
