"""Reference answers the benchmark checks the program's oracles against.

These work on plain lists of neighbour bitmasks and share no code with
the package.  Toughness and Hamiltonicity are exponential and meant for
n <= BRUTE_N only; the independence number branches exhaustively and is
fast enough for the sparse graphs of the oracle-random workload.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

BRUTE_N = 12


def _component_count(adj: list[int], alive: int) -> int:
    count = 0
    while alive:
        seen = alive & -alive
        frontier = seen
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[v] & alive & ~seen
            seen |= new
            frontier |= new
        alive &= ~seen
        count += 1
    return count


def toughness(adj: list[int]) -> Optional[Fraction]:
    """min |S| / omega(G - S) over every S leaving two or more components;
    None when no such S exists (complete graphs)."""
    n = len(adj)
    full = (1 << n) - 1
    best = None
    for removed in range(1 << n):
        omega = _component_count(adj, full & ~removed)
        if omega >= 2:
            ratio = Fraction(removed.bit_count(), omega)
            if best is None or ratio < best:
                best = ratio
    return best


def _path_ends(adj: list[int], start: int) -> list[int]:
    """ends[mask] = vertices that end a simple path from start covering
    exactly mask (Held-Karp)."""
    n = len(adj)
    ends = [0] * (1 << n)
    ends[1 << start] = 1 << start
    for mask in range(1 << n):
        reach = ends[mask]
        if not reach:
            continue
        for v in range(n):
            if not (mask >> v) & 1 and adj[v] & reach:
                ends[mask | 1 << v] |= 1 << v
    return ends


def has_hamilton_cycle(adj: list[int]) -> bool:
    n = len(adj)
    if n < 3:
        return False
    return bool(_path_ends(adj, 0)[(1 << n) - 1] & adj[0])


def has_hamilton_path(adj: list[int], x: int, y: int) -> bool:
    return bool((_path_ends(adj, x)[(1 << len(adj)) - 1] >> y) & 1)


def independence_number(adj: list[int]) -> int:
    """Exact, by branching on a highest-degree vertex; a vertex of degree
    0 or 1 is always taken, which keeps sparse graphs cheap."""
    memo: dict[int, int] = {}

    def best(cand: int) -> int:
        if not cand:
            return 0
        if cand in memo:
            return memo[cand]
        low_v = high_v = -1
        low_d, high_d = len(adj) + 1, -1
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (adj[v] & cand).bit_count()
            if d < low_d:
                low_v, low_d = v, d
            if d > high_d:
                high_v, high_d = v, d
        if low_d <= 1:
            value = 1 + best(cand & ~(adj[low_v] | 1 << low_v))
        else:
            value = max(
                best(cand & ~(1 << high_v)),
                1 + best(cand & ~(adj[high_v] | 1 << high_v)),
            )
        memo[cand] = value
        return value

    return best((1 << len(adj)) - 1)
