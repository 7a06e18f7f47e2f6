"""Maximum edge counts of graphs avoiding all short cycle lengths.

Branch and bound over the lexicographic edge slots of the complete graph.
An edge is added only when the current endpoint distance is large enough
that no forbidden cycle closes, and only graphs with deg(0) >= ... >=
deg(n-3) are explored: every graph has such a relabelling, so the maximum
is kept.  ex(n) is decided after ex(0..n-1), which bound it.  The search
stops at n*ex(n-1)/(n-2), as each edge lies in n-2 of the n vertex-deleted
subgraphs, or earlier at the irregular Moore bound (Alon, Hoory and
Linial, Graphs Combin. 2002).  At slot (u, v) it cuts when the edges
chosen, n-v more in u's block (fewer if deg(u) would pass deg(u-1)) and
ex(n-u-1) among u+1..n-1 cannot beat the incumbent, and when the finished
vertex u-1 has degree below len(best)+1-ex(n-1): deleting a vertex leaves
at most ex(n-1) edges, so a graph that beats the incumbent has no such
vertex.  Both counting bounds remove only branches that cannot improve
on the incumbent, so the first densest graph in search order is still the
one returned.  Correctness over speed: no automorphism machinery.  The
search draws on a started `SearchBudget`, which callers may share with
other searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .colouring import SearchBudget
from .graphs import Graph, InputError
from .search import EXACT, LOWER_BOUND_ONLY


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


def moore(n: int, g: int) -> int:
    """An upper bound on the edges of an n-vertex graph of girth >= g.

    Alon, Hoory and Linial (Graphs Combin. 2002): a graph of average degree
    d >= 2 and girth g has at least n0(d, g) vertices, where
    n0(d, 2r+1) = 1 + d·Σ_{i<r} (d-1)^i and n0(d, 2r) = 2·Σ_{i<r} (d-1)^i.
    With e >= n edges the average degree 2e/n is at least 2, so the bound
    is the largest such e with n0(2e/n, g) <= n, or n-1 if there is none
    (n edges close a cycle, of length at most n).  Exact arithmetic.
    """
    def n0(d: Fraction) -> Fraction:
        total = sum((d - 1) ** i for i in range(g // 2))
        return 1 + d * total if g % 2 else 2 * total

    e = n - 1
    while n0(Fraction(2 * (e + 1), n)) <= n:
        e += 1
    return e


def _search(n: int, m: int, ex: list[int], seed: list[tuple[int, int]],
            budget: SearchBudget) -> tuple[list[tuple[int, int]], int, bool]:
    """The densest girth-(m+1) graph on n vertices found, the nodes spent
    and whether `budget` ran out before the search ended; if it did not,
    the graph is the first densest in search order.  `ex` holds ex(j) for
    j < n, and `seed`, a graph on fewer vertices, is the incumbent to beat.
    """
    slots = list(combinations(range(n), 2))
    total = len(slots)
    upper = min(n * ex[n - 1] // (n - 2), moore(n, m + 1))
    adj: list[list[int]] = [[] for _ in range(n)]
    degree = [0] * n
    chosen: list[tuple[int, int]] = []
    best = seed
    nodes = 0
    stop = ran_out = False

    def search(idx: int):
        nonlocal best, nodes, stop, ran_out
        if stop:
            return
        if budget.exhausted(nodes):
            stop = ran_out = True
            return
        nodes += 1
        if idx == total:
            if len(chosen) > len(best):
                best = list(chosen)
                stop = len(best) == upper
            return
        u, v = slots[idx]
        if idx > 0 and slots[idx - 1][0] != u:
            # block u-1 just finished; its degree is final now
            if u >= 2 and degree[u - 1] > degree[u - 2]:
                return
            if degree[u - 1] < len(best) + 1 - ex[n - 1]:
                return  # deleting u-1 would leave more than ex(n-1) edges
        block = n - v  # edges still to come in u's block
        if 1 <= u <= n - 3:
            # deg(u) <= deg(u-1) is checked at block u+1; negative if passed
            block = min(block, degree[u - 1] - degree[u])
        if block < 0 or len(chosen) + block + ex[n - u - 1] <= len(best):
            return  # cannot beat the incumbent
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
    return best, nodes, ran_out


def extremal_ex(n: int, forbidden, budget: SearchBudget | None = None
                ) -> ExtremalResult:
    """Exact max edge count of an n-vertex graph with no cycle of a
    forbidden length, together with a witness.

    `forbidden` must be the contiguous range {3, ..., m}; the search then
    looks for the densest graph of girth at least m+1.  It decides ex(j)
    for j = 0, 1, ..., n in turn, each search bounded by the smaller ones
    and seeded with the graph of the size before, and `nodes` counts them
    all.  No cycle fits on j <= m vertices, so those sizes take the star
    with max(j-1, 0) edges without a search.  `budget` is charged the nodes
    spent; once it is exhausted the search returns the densest graph found
    so far, on n vertices, marked lower-bound-only.
    """
    forb = sorted(set(forbidden))
    if not forb or forb != list(range(3, forb[-1] + 1)):
        raise InputError(f"forbidden lengths must form {{3..m}}, got {forb}")
    m = forb[-1]
    if n < 0:
        raise InputError("vertex count must be non-negative")
    budget = budget or SearchBudget()
    ex: list[int] = []
    nodes = 0
    ran_out = False
    for j in range(n + 1):
        if j <= m:  # no cycle fits: the densest graphs are the trees
            best = [(0, v) for v in range(1, j)]
        else:
            best, spent, ran_out = _search(j, m, ex, best, budget)
            budget.charge(spent)
            nodes += spent
            if ran_out:
                break
        ex.append(len(best))
    status = LOWER_BOUND_ONLY if ran_out else EXACT
    return ExtremalResult(status, len(best), Graph(n, tuple(sorted(best))),
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
    if r < 1 or k < 2:
        raise InputError(f"need r >= 1 and k >= 2, got r={r} and k={k}")
    holds = ex_low > r * ex_high
    return Fact7Result(holds, n, r, 2 * k, n if holds else None)
