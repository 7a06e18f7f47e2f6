"""Simple undirected graphs on vertices 0..n-1 with exact girth machinery.

Graphs are immutable once built.  Edge identifiers (used as hypergraph
universes elsewhere) are positions in the lexicographically sorted edge
list, so identical edge sets always get identical identifiers.

Girth is exact: one breadth-first search from every root, run layer by
layer on int bitmasks of neighbours, serves both `graph_girth` and the
threshold check `girth_at_least`, which stops at its first short cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator


class InputError(ValueError):
    """Raised for malformed caller input (bad vertex, self-loop, range...)."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]  # sorted pairs (u, v) with u < v, lex order

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        """Edge -> its position in the sorted edge list, built once."""
        return {e: i for i, e in enumerate(self.edges)}

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_id(self, u: int, v: int) -> int:
        """Identifier of edge {u, v}: its position in the sorted edge list."""
        if u > v:
            u, v = v, u
        return self._index[(u, v)]

    def adjacency_bits(self) -> list[int]:
        """Neighbour sets as int bitmasks (bit v set iff v adjacent)."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return bits


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Canonical Graph from a pair list; duplicates collapse, loops rejected."""
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    seen = set()
    for u, v in pairs:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range for n={n}")
        seen.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(seen)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(combinations(range(n), 2)))


def _shorter_cycles(g: Graph, below: int | float) -> Iterator[int]:
    """Cycle lengths below `below`, each shorter than the one before; the
    last one yielded is the girth when that is below `below`.

    Breadth-first layers, as bitmasks, from every root through the vertices
    not below it (Itai and Rodeh, SIAM J. Comput. 1978).  At depth d an
    edge inside the layer closes a walk of length 2d+1, and a vertex of the
    next layer with two neighbours in the layer closes one of length 2d+2;
    each such walk holds a cycle no longer than itself, and rooting at the
    least vertex of a shortest cycle attains its length.  A root stops once
    2d+1 reaches `below`, which falls to each length yielded.
    """
    bits = g.adjacency_bits()
    for root in range(g.n):
        layer, seen = 1 << root, (2 << root) - 1  # seen: vertices 0..root
        depth = 0
        while layer and 2 * depth + 1 < below:
            once = twice = 0  # neighbours of at least one / two in layer
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                nbrs = bits[low.bit_length() - 1]
                twice |= once & nbrs
                once |= nbrs
            odd = once & layer  # ends of the edges inside the layer
            length = 2 * depth + (1 if odd else 2)
            if (odd or twice & ~seen) and length < below:
                below = length
                yield below
                break  # deeper layers close only longer walks
            layer = once & ~seen
            seen |= layer
            depth += 1


def graph_girth(g: Graph) -> int | float:
    """Length of the shortest cycle, or math.inf for forests."""
    return min(_shorter_cycles(g, math.inf), default=math.inf)


def girth_at_least(g: Graph, k: int) -> bool:
    """True iff g has no cycle shorter than k (i.e. graph_girth(g) >= k);
    stops at the first shorter cycle it meets."""
    return next(_shorter_cycles(g, k), None) is None


def enumerate_graph_cycles(g: Graph, length: int) -> Iterator[tuple[int, ...]]:
    """All simple cycles of exactly `length` vertices, as vertex tuples.

    Each cycle appears once: the tuple starts at its smallest vertex and the
    second entry is smaller than the last (kills rotation and reflection).
    `free` masks the vertices past the start that are off the path; each
    next vertex y is taken from `bits[last] & free`, ascending, and the
    closing one, in the step that picks the y before it, from
    `bits[y] & bits[start] & free` past path[1].
    """
    if length < 3 or length > g.n:
        return
    bits = g.adjacency_bits()
    path = [0] * length

    def extend(depth: int, free: int):
        cand = bits[path[depth - 1]] & free
        while cand:
            path[depth] = y = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if depth < length - 2:
                yield from extend(depth + 1, free ^ 1 << y)
                continue
            close = bits[y] & bits[path[0]] & free & -2 << path[1]
            while close:
                path[depth + 1] = (close & -close).bit_length() - 1
                close &= close - 1
                yield tuple(path)

    for start in range(g.n):
        path[0] = start
        yield from extend(1, -2 << start)


def count_graph_cycles(g: Graph, length: int) -> int:
    return sum(1 for _ in enumerate_graph_cycles(g, length))


def enumerate_cliques(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """All k-cliques as ascending vertex tuples."""
    if k > g.n:
        return
    if k == 1:
        for v in range(g.n):
            yield (v,)
        return
    bits = g.adjacency_bits()
    later = [bits[v] & ~((1 << (v + 1)) - 1) for v in range(g.n)]
    clique = [0] * k

    def extend(depth: int, common: int):
        if depth == k:
            yield tuple(clique)
            return
        cand = common
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            clique[depth] = v
            yield from extend(depth + 1, common & later[v])

    for v in range(g.n):
        clique[0] = v
        yield from extend(1, later[v])
