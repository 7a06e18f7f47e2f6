"""Uniform hypergraphs: systems of copies, degree statistics, girth.

Two girth notions live here.  The sparsity form (`sparsity_girth`) asks that
every set of h' < g hyperedges spans at least (uniformity-1)*h' + 1 vertices.
The cycle form (`enumerate_short_cycles`) enumerates 2-cycles (two edges
sharing >= 2 vertices) and j-cycles (cyclic edge sequences with consecutive
intersections of exactly one vertex, nonconsecutive edges disjoint, and all
intersection points distinct).

The two notions agree.  A j-cycle spans at most (uniformity-1)*j vertices,
so it violates sparsity.  Conversely, a minimal violating edge set is
connected (two parts would each span at least (uniformity-1)*size + 1
vertices), so its edge-vertex incidence graph is not a tree and holds a
Berge cycle of at most as many edges.  A shortest Berge cycle is a census
cycle: two edges meeting twice, or nonconsecutive edges meeting at all,
would close a shorter one.  Deletion still re-checks its survivor with
`sparsity_girth`, as a guard against a fault in the census.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, InputError, enumerate_cliques, enumerate_graph_cycles


@dataclass(frozen=True)
class UniformHypergraph:
    h: int
    universe: tuple[int, ...]  # sorted distinct vertex ids
    edges: tuple[tuple[int, ...], ...]  # sorted h-tuples, lex-sorted list

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        return len(self.universe)

    @cached_property
    def incidence(self) -> dict[int, tuple[int, ...]]:
        """Vertex -> ascending indices of the edges containing it, built once."""
        index: dict[int, list[int]] = {v: [] for v in self.universe}
        for ei, e in enumerate(self.edges):
            for v in e:
                index[v].append(ei)
        return {v: tuple(eis) for v, eis in index.items()}

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Edge -> the OR of bit i over its vertices universe[i], built once."""
        bit = {v: 1 << i for i, v in enumerate(self.universe)}
        masks = [0] * len(self.edges)
        for ei, e in enumerate(self.edges):
            for v in e:
                masks[ei] |= bit[v]
        return tuple(masks)

    def restrict(self, removed: Iterable[int]) -> "UniformHypergraph":
        """Sub-hypergraph on universe minus `removed`; edges meeting it drop."""
        gone = set(removed)
        universe = tuple(v for v in self.universe if v not in gone)
        edges = tuple(e for e in self.edges if not gone.intersection(e))
        return UniformHypergraph(self.h, universe, edges)


def hypergraph_from_edges(h: int, universe: Iterable[int],
                          edges: Iterable[Sequence[int]]) -> UniformHypergraph:
    """Canonical hypergraph: sorted universe, sorted dedup'd edge tuples."""
    if h < 2:
        raise InputError(f"uniformity must be >= 2, got {h}")
    uni = tuple(sorted(set(universe)))
    uniset = set(uni)
    canon = set()
    for e in edges:
        t = tuple(sorted(e))
        if len(set(t)) != h:
            raise InputError(f"edge {t} does not have {h} distinct vertices")
        if not uniset.issuperset(t):
            raise InputError(f"edge {t} leaves the universe")
        canon.add(t)
    return UniformHypergraph(h, uni, tuple(sorted(canon)))


def ap_count_formula(n: int, k: int) -> int:
    """Number of k-term arithmetic progressions inside {1..n}.

    Closed form of the sum over d = 1..D, D = (n-1)//(k-1), of the n-(k-1)d
    starts of difference d; the test suite checks it against enumeration.
    """
    if k < 3:
        raise InputError(f"progression length must be >= 3, got {k}")
    if n < k:
        return 0
    d_max = (n - 1) // (k - 1)
    return n * d_max - (k - 1) * d_max * (d_max + 1) // 2


def arithmetic_progressions(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-term APs in {1..n}, ascending, ordered by (start, difference)."""
    out = []
    for a in range(1, n - k + 2):
        d = 1
        while a + (k - 1) * d <= n:
            out.append(tuple(a + i * d for i in range(k)))
            d += 1
    return out


def system_of_copies(kind: str, base, k: int) -> UniformHypergraph:
    """The hypergraph whose hyperedges are the copies of a pattern.

    kind="cycle":  base Graph, copies of the k-vertex cycle; universe = edge
                   ids of base, uniformity k.
    kind="clique": base Graph, copies of the k-clique; universe = edge ids,
                   uniformity k*(k-1)/2.
    kind="ap":     base integer n, k-term APs in {1..n}; universe = {1..n},
                   uniformity k.

    A copy is identified with its edge set, so relabelings of the same edge
    set count once.  If the base hosts no copy the result is a valid empty
    hypergraph.
    """
    if k < 3:
        raise InputError(f"pattern size must be >= 3, got {k}")
    if kind == "ap":
        n = int(base)
        if n < 1:
            raise InputError(f"ap system needs a positive interval, got {n}")
        return UniformHypergraph(k, tuple(range(1, n + 1)),
                                 tuple(sorted(arithmetic_progressions(n, k))))
    if not isinstance(base, Graph):
        raise InputError(f"kind={kind!r} needs a Graph base")
    universe = tuple(range(base.num_edges))
    if kind == "cycle":
        copies = set()
        for cyc in enumerate_graph_cycles(base, k):
            ids = [base.edge_id(cyc[i], cyc[(i + 1) % k]) for i in range(k)]
            copies.add(tuple(sorted(ids)))
        return UniformHypergraph(k, universe, tuple(sorted(copies)))
    if kind == "clique":
        copies = set()
        for cl in enumerate_cliques(base, k):
            ids = [base.edge_id(u, v) for u, v in combinations(cl, 2)]
            copies.add(tuple(sorted(ids)))
        return UniformHypergraph(k * (k - 1) // 2, universe, tuple(sorted(copies)))
    raise InputError(f"unknown system kind {kind!r}")


@dataclass(frozen=True)
class DegreeStats:
    """Average and maximum j-degrees of a hypergraph, j = 1..h.

    d(J) counts hyperedges containing the vertex set J; the j-degree of a
    vertex v is the largest d(J) over j-sets J containing v.  Averages are
    exact rationals over the whole universe (uncovered vertices count 0).
    """
    h: int
    num_vertices: int
    num_edges: int
    avg: dict[int, Fraction]
    max: dict[int, int]


def degree_stats(hg: UniformHypergraph) -> DegreeStats:
    if hg.num_vertices == 0:
        raise InputError("degree statistics need a non-empty universe")
    avg: dict[int, Fraction] = {}
    mx: dict[int, int] = {}
    nv = hg.num_vertices
    for j in range(1, hg.h + 1):
        counts: dict[tuple[int, ...], int] = {}
        for e in hg.edges:
            for sub in combinations(e, j):
                counts[sub] = counts.get(sub, 0) + 1
        best: dict[int, int] = {}
        for sub, c in counts.items():
            for v in sub:
                if c > best.get(v, 0):
                    best[v] = c
        avg[j] = Fraction(sum(best.values()), nv)
        mx[j] = max(best.values(), default=0)
    return DegreeStats(hg.h, nv, hg.num_edges, avg, mx)


@dataclass(frozen=True)
class GirthVerdict:
    g: int
    satisfied: bool
    witness_edges: tuple[int, ...] | None = None  # edge indices, minimal h' then lex
    witness_span: int | None = None


def sparsity_girth(hg: UniformHypergraph, g: int) -> GirthVerdict:
    """Check girth >= g in the sparsity sense.

    Satisfied iff every h'-subset of edges, 2 <= h' < g, spans at least
    (uniformity-1)*h' + 1 vertices.  On violation the witness is the one
    with smallest h', then lexicographically least edge-index set.

    Only connected edge sets are examined, grown by the ESU scheme
    (Wernicke, IEEE/ACM TCBB 2006): each set is grown from its least edge
    index, the root, through the incidence index.  A neighbour of the newest
    member becomes a candidate only if it is larger than the root and was
    neither a member nor a neighbour of the set before, so every connected
    set is met once.  This is exact because
    a violator of least size is connected (see the module docstring): below
    that size nothing violates, and at it the lex-least violator is the
    lex-least connected one, so the first root holding a violator holds it.
    Spans are read from `hg.masks`; neighbour lists are built lazily.
    """
    if g < 2:
        raise InputError(f"girth threshold must be >= 2, got {g}")
    edges = hg.edges
    incidence = hg.incidence
    masks = hg.masks
    neighbours: dict[int, list[int]] = {}

    def later_neighbours(e: int, root: int) -> list[int]:
        if e not in neighbours:
            near = {f for v in edges[e] for f in incidence[v]}
            near.discard(e)
            neighbours[e] = sorted(near)
        return neighbours[e][bisect_right(neighbours[e], root):]

    for size in range(2, min(g, len(edges) + 1)):
        limit = (hg.h - 1) * size
        found: list[tuple[tuple[int, ...], int]] = []  # (edges, span)
        chosen: list[int] = []

        def grow(span: int, ext: list[int], closed: set[int]) -> None:
            if len(chosen) + 1 == size:
                for e in ext:
                    spanned = (span | masks[e]).bit_count()
                    if spanned <= limit:
                        found.append((tuple(sorted(chosen + [e])), spanned))
                return
            for i, e in enumerate(ext):
                fresh = [f for f in later_neighbours(e, root)
                         if f not in closed]
                chosen.append(e)
                grow(span | masks[e], ext[i + 1:] + fresh, closed.union(fresh))
                chosen.pop()

        for root in range(len(edges)):
            ext = later_neighbours(root, root)
            chosen.append(root)
            grow(masks[root], ext, {root, *ext})
            chosen.pop()
            if found:
                return GirthVerdict(g, False, *min(found))
    return GirthVerdict(g, True)


@dataclass(frozen=True)
class CycleReport:
    g: int
    cycles: tuple[tuple[int, tuple[int, ...]], ...]  # (length j, edge indices)
    counts: dict[int, int]  # X_j for 2 <= j < g

    @property
    def total(self) -> int:
        return len(self.cycles)


def enumerate_short_cycles(hg: UniformHypergraph, g: int) -> CycleReport:
    """All cycles of length j for 2 <= j < g, each counted once.

    2-cycles are unordered edge pairs sharing at least two vertices.
    j-cycles (j >= 3) are counted up to rotation and reflection of the
    cyclic edge sequence: the stored tuple starts at the smallest edge
    index and its second entry is smaller than its last.  `near[e]` masks
    the edges meeting e in one vertex: a path closes through `near[last] &
    near[start]` past path[1], and grows through the neighbours of `last`.
    """
    masks = hg.masks
    m = len(masks)
    cycles: list[tuple[int, tuple[int, ...]]] = []

    # intersecting pairs come from the incidence index; neighbours (pairs
    # meeting in exactly one vertex) stay ascending
    neighbours: list[list[int]] = [[] for _ in range(m)]
    incidence = hg.incidence
    for a, edge in enumerate(hg.edges):
        later = {b for v in edge for b in incidence[v] if b > a}
        for b in sorted(later):
            if (masks[a] & masks[b]).bit_count() == 1:
                neighbours[a].append(b)
                neighbours[b].append(a)
            elif g > 2:
                cycles.append((2, (a, b)))
    max_len = g - 1

    def extend(path: list[int], inner: int):
        # inner: the OR of the masks of path[1:-1], which nxt must miss
        start = path[0]
        last = path[-1]
        close = near[last] & near[start] & -2 << path[1]
        while close:
            nxt = ids[(close & -close).bit_length() - 1]
            close &= close - 1
            nxt_mask = masks[nxt]
            # the intersection points are distinct unless a 3-cycle's edges
            # share a vertex (a repeated point meets nonconsecutive edges)
            if not nxt_mask & inner and (
                    len(path) > 2 or not masks[start] & masks[last] & nxt_mask):
                cycles.append((len(path) + 1, (*path, nxt)))
        if len(path) + 1 < max_len:
            blocked = inner | masks[start]
            inner |= masks[last]
            for nxt in neighbours[last]:
                if nxt > start and not masks[nxt] & blocked:
                    path.append(nxt)
                    extend(path, inner)
                    path.pop()

    if max_len >= 3:
        near = []
        for nbrs in neighbours:
            row = bytearray(m // 8 + 1)
            for b in nbrs:
                row[b >> 3] |= 1 << (b & 7)
            near.append(int.from_bytes(row, "little"))
        ids = list(range(m))  # one int object per edge index, shared by cycles
        for start in range(m):
            for second in neighbours[start]:
                if second > start:
                    extend([start, second], 0)

    counts = {j: 0 for j in range(2, max(g, 2))}
    for j, _ in cycles:
        counts[j] += 1
    cycles.sort()
    return CycleReport(g, tuple(cycles), counts)
