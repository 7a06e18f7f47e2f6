"""Maximum edge counts of graphs avoiding all short cycle lengths.

Branch and bound over the lexicographic edge slots of the complete graph.
Adding an edge is allowed only when the current endpoint distance is large
enough that no forbidden cycle closes; subtrees that cannot beat the
incumbent are cut; and only graphs whose final degree sequence is
non-increasing along the vertex order are explored (every graph has such a
relabelling, so the maximum is preserved while isomorphic duplicates are
skipped).  Correctness over speed: no automorphism machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, InputError
from .search import EXACT, LOWER_BOUND_ONLY, BudgetTracker


@dataclass(frozen=True)
class ExtremalResult:
    status: str  # EXACT | LOWER_BOUND_ONLY
    max_edges: int
    witness: Graph
    nodes: int


def _bfs_distance_at_least(adj: list[list[int]], u: int, v: int,
                           threshold: int) -> bool:
    """True iff dist(u, v) >= threshold in the graph given by adj."""
    if threshold <= 0:
        return True
    seen = {u}
    frontier = [u]
    for _ in range(threshold - 1):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y == v:
                    return False
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            return True
        frontier = nxt
    return True


def extremal_ex(n: int, forbidden, budget: BudgetTracker | None = None
                ) -> ExtremalResult:
    """Exact max edge count of an n-vertex graph with no cycle of a
    forbidden length, together with a witness.

    `forbidden` must be the contiguous range {3, ..., m}; the search then
    looks for the densest graph of girth at least m+1.  `budget` is a
    started budget, possibly shared with other searches, and is charged the
    nodes spent.  Budget exhaustion returns the best graph found so far,
    marked lower-bound-only.
    """
    forb = sorted(set(forbidden))
    if not forb or forb != list(range(3, forb[-1] + 1)):
        raise InputError(f"forbidden lengths must form {{3..m}}, got {forb}")
    m = forb[-1]
    if n < 0:
        raise InputError("vertex count must be non-negative")
    slots = list(combinations(range(n), 2))
    total = len(slots)

    tracker = budget or BudgetTracker(None)
    node_limit = tracker.remaining
    adj: list[list[int]] = [[] for _ in range(n)]
    degree = [0] * n
    chosen: list[tuple[int, int]] = []
    best_edges = 0  # the empty graph has no cycle at all
    best_graph: list[tuple[int, int]] = []
    nodes = 0
    ran_out = False

    def search(idx: int):
        nonlocal best_edges, best_graph, nodes, ran_out
        if ran_out:
            return
        if node_limit is not None and nodes >= node_limit:
            ran_out = True
            return
        if nodes % 4096 == 0 and tracker.exhausted():
            ran_out = True
            return
        nodes += 1
        if len(chosen) + (total - idx) <= best_edges:
            return  # cannot beat the incumbent
        if idx == total:
            if len(chosen) > best_edges:
                best_edges = len(chosen)
                best_graph = list(chosen)
            return
        u, v = slots[idx]
        if idx > 0 and slots[idx - 1][0] != u and u >= 2:
            # block u-1 just finished; its degree is final now
            if degree[u - 1] > degree[u - 2]:
                return
        # include the edge when no forbidden cycle closes: a new cycle
        # through (u, v) has length dist(u, v) + 1 > m
        if _bfs_distance_at_least(adj, u, v, m):
            adj[u].append(v)
            adj[v].append(u)
            degree[u] += 1
            degree[v] += 1
            chosen.append((u, v))
            search(idx + 1)
            chosen.pop()
            degree[u] -= 1
            degree[v] -= 1
            adj[u].pop()
            adj[v].pop()
        search(idx + 1)

    search(0)
    tracker.charge(nodes)
    status = LOWER_BOUND_ONLY if ran_out else EXACT
    return ExtremalResult(status, best_edges, Graph(n, tuple(sorted(best_graph))),
                          nodes)


@dataclass(frozen=True)
class Fact7Result:
    holds: bool
    n: int
    r: int
    cycle_length: int  # the even target 2k
    implied_upper: int | None  # f_r(2k) <= n when the premise holds


def fact7_premise(n: int, r: int, k: int, ex_low: int,
                  ex_high: int) -> Fact7Result:
    """Pigeonhole premise for even-cycle arrowing on n vertices.

    With ex_low = ex(n; C_3..C_{2k-1}) and ex_high = ex(n; C_3..C_{2k}),
    strict inequality ex_low > r * ex_high forces some colour class of the
    extremal girth-2k graph to exceed the C_{2k}-free maximum, so the
    smallest girth-2k graph arrowing C_{2k} with r colours has at most n
    vertices.
    """
    holds = ex_low > r * ex_high
    return Fact7Result(holds, n, r, 2 * k, n if holds else None)
