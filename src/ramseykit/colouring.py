"""Proper colourings of hypergraph vertices and arrowing verdicts.

A colouring is proper when no hyperedge is monochromatic.  The search is
exhaustive backtracking with colour-class canonicalisation (a vertex may
open colour c+1 only if colours 1..c are already in use) and forward
checking, so "uncolourable" is a proof by exhaustion.  Vertices take colours
in universe order.  A hyperedge is checked once, when its second-to-last
vertex is coloured: if its earlier vertices all hold that colour, the colour
is forbidden at its last vertex.  A node is one attempt to give a vertex a
colour; it fails when the colour is forbidden there, or when it leaves some
later vertex with every colour forbidden (a wipeout), which cuts a subtree
holding no proper colouring.  No automorphism pruning is attempted.

A search that has spent WALK_AFTER nodes without settling runs, once, a
seeded min-conflicts walk (WalkSAT-style; Selman, Kautz and Cohen, AAAI
1994) for a proper colouring, then resumes where it stopped.  Each flip of
the walk counts as a node, and the walk gives up after about as much work
as the search spent before it.  Its witness is returned only once
`verify_colouring` accepts it; "uncolourable" still comes only from
exhaustion.  Every exhaustive search of the toolkit draws on a started
`SearchBudget`; searches handed the same budget object share it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .graphs import Graph, InputError
from .hypergraphs import UniformHypergraph, system_of_copies

PROPER = "proper"
UNCOLOURABLE = "uncolourable"
ARROWS = "arrows"
NOT_ARROWS = "not-arrows"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class Colouring:
    colours: dict[int, int]  # vertex -> colour index, 1-based
    num_colours: int


def verify_colouring(hg: UniformHypergraph, col: Colouring) -> bool:
    """True iff no hyperedge of hg is monochromatic under col.

    The colouring must cover the whole universe with colours in range.
    """
    for v in hg.universe:
        c = col.colours.get(v)
        if c is None:
            raise InputError(f"colouring is partial: vertex {v} uncoloured")
        if not 1 <= c <= col.num_colours:
            raise InputError(f"colour {c} of vertex {v} out of range")
    for e in hg.edges:
        first = col.colours[e[0]]
        if all(col.colours[v] == first for v in e[1:]):
            return False
    return True


CHECK_EVERY = 1024  # nodes between two readings of a budget's clock


class SearchBudget:
    """`node_limit` nodes and `wall_secs` seconds from construction, None
    for no limit; each search handed the budget is charged what it spent."""

    def __init__(self, node_limit: int | None = None,
                 wall_secs: float | None = None):
        self.remaining = node_limit
        self.deadline = (time.monotonic() + wall_secs
                         if wall_secs is not None else None)

    def exhausted(self, nodes: int = 0) -> bool:
        """Must a search that has spent `nodes` nodes of this budget stop?

        The node limit is exact.  The clock is read only when `nodes` is a
        multiple of CHECK_EVERY, at 0 too, so a budget already out of time
        stops a search before its first node.
        """
        if self.remaining is not None and nodes >= self.remaining:
            return True
        return nodes % CHECK_EVERY == 0 and self.out_of_time()

    def out_of_time(self) -> bool:
        """Has the clock passed this budget's deadline?"""
        return self.deadline is not None and time.monotonic() > self.deadline

    def charge(self, nodes: int):
        if self.remaining is not None:
            self.remaining -= nodes


@dataclass(frozen=True)
class SearchResult:
    status: str  # PROPER | UNCOLOURABLE | BUDGET_EXCEEDED
    witness: Colouring | None
    nodes: int


WALK_AFTER = 65_536  # DFS nodes spent before the walk runs
# incidence reads after which the walk gives up: a read costs at most
# about half a search node, so a failed walk costs about what the search
# spent before it, or less
WALK_READS = 2 * WALK_AFTER


def _walk(hg: UniformHypergraph, r: int, budget: SearchBudget,
          spent: int) -> tuple[Colouring | None, int]:
    """Seeded min-conflicts walk: a proper r-colouring of hg or None, and
    the flips made.

    Needs r >= 2 and two distinct vertices in every edge.  The start is
    drawn from random.Random(0).  Each flip recolours a vertex of a
    uniformly random monochromatic edge: with probability 0.1 a random one
    takes a random other colour, otherwise the (vertex, colour) with the
    least break - make, ties going to the least recently flipped vertex.
    An incident edge costs one test of its `hg.masks` entry: are its
    other vertices all the colour of its lowest one?  A flip reads the
    incidence lists of its edge's vertices.  The walk gives up once
    `budget` is exhausted at `spent` + flips nodes, once its clock, read
    every CHECK_EVERY incidence reads, passes the deadline, or after
    WALK_READS reads.  A witness has its colours renamed by first
    appearance in universe order.
    """
    rng = random.Random(0)
    order = hg.universe
    at = {v: pos for pos, v in enumerate(order)}
    verts = [sorted({at[v] for v in e}) for e in hg.edges]
    emask = hg.masks
    inc = [hg.incidence[v] for v in order]
    colour = [rng.randrange(r) for _ in order]
    masks = [0] * r  # masks[c]: the positions coloured c
    for pos, c in enumerate(colour):
        masks[c] |= 1 << pos
    mono = [ei for ei, m in enumerate(emask)
            if masks[colour[verts[ei][0]]] & m == m]
    where = [-1] * len(verts)  # index of each edge in mono, -1 if absent
    for i, ei in enumerate(mono):
        where[ei] = i
    last = [0] * len(order)  # the flip that last recoloured each position
    exhausted = budget.exhausted
    flips = reads = tick = 0  # tick: the reads at which the clock is read
    while mono:
        if reads >= WALK_READS or exhausted(spent + flips):
            return None, flips
        if reads >= tick:
            if budget.out_of_time():
                return None, flips
            tick = reads + CHECK_EVERY
        ps = verts[mono[rng.randrange(len(mono))]]
        if rng.random() < 0.1:
            pos = rng.choice(ps)
            c = rng.randrange(r - 1)
            c += c >= colour[pos]
        else:
            best = None
            for p in ps:
                a, b = colour[p], 1 << p
                breaks = [0] * r  # breaks[d]: edges p closes by taking d
                make = 0  # monochromatic edges through p
                for f in inc[p]:
                    fs = verts[f]
                    d = colour[fs[0] if fs[0] != p else fs[1]]
                    m = emask[f]
                    if (masks[d] | b) & m == m:
                        if d == a:
                            make += 1
                        else:
                            breaks[d] += 1
                for d in range(r):
                    key = (breaks[d] - make, last[p])
                    if d != a and (best is None or key < best):
                        best, pos, c = key, p, d
        reads += sum(len(inc[p]) for p in ps)
        b = 1 << pos
        masks[colour[pos]] ^= b
        masks[c] |= b
        colour[pos] = c
        flips += 1
        last[pos] = flips
        for f in inc[pos]:
            m = emask[f]
            i = where[f]
            if masks[colour[verts[f][0]]] & m == m:
                if i < 0:
                    where[f] = len(mono)
                    mono.append(f)
            elif i >= 0:
                moved = mono.pop()
                if moved != f:
                    mono[i] = moved
                    where[moved] = i
                where[f] = -1
    names: dict[int, int] = {}
    col = Colouring({v: names.setdefault(c, len(names) + 1)
                     for v, c in zip(order, colour)}, r)
    return (col if verify_colouring(hg, col) else None), flips


def colouring_search(hg: UniformHypergraph, r: int,
                     budget: SearchBudget | None = None) -> SearchResult:
    """Find a proper r-colouring or prove none exists.

    Deterministic: vertices are branched in universe order, colours tried
    ascending, and a vertex may open colour c+1 only once 1..c are in use.
    Each assignment attempt is a node.  An edge is checked once, when its
    second-to-last vertex takes a colour that all its earlier vertices
    share: the colour is then forbidden at its last vertex.  An attempt
    fails when its colour is forbidden at its vertex, and also when it
    forbids the last colour left at some later vertex, since no colouring
    extends that prefix.  The first proper colouring found is the same as
    without the second cut, reached in at most as many nodes.  Edges are
    read from `hg.masks`: a repeated vertex counts once, and an edge with
    a single distinct vertex forbids every colour at it.

    Once WALK_AFTER nodes are spent without a verdict, `_walk` looks for a
    proper colouring, once, and the search resumes where it stopped if the
    walk finds none; each flip counts as a node.  The walk is skipped for
    one colour and when an edge has a single distinct vertex.  PROPER from
    the walk comes with a witness `verify_colouring` accepted, its colours
    numbered by first appearance in universe order as the search numbers
    them; UNCOLOURABLE comes only from exhaustion.  The search stops when
    `budget` is exhausted, which yields BUDGET_EXCEEDED, never a wrong
    verdict; the nodes spent are charged to it.
    """
    if r < 1:
        raise InputError(f"need at least one colour, got {r}")
    order = list(hg.universe)
    nv = len(order)
    if nv == 0:
        return SearchResult(PROPER, Colouring({}, r), 0)
    bits = [1 << pos for pos in range(nv)]
    # pen[pos]: for each edge whose second-to-last vertex is at pos, the
    # bitmask of its positions but the last, and the bit of the last
    pen: list[list[tuple[int, int]]] = [[] for _ in order]
    dead = 0  # the positions of edges with a single distinct vertex
    for mask in hg.masks:
        last = 1 << mask.bit_length() - 1
        mask ^= last
        if mask:
            pen[mask.bit_length() - 1].append((mask, last))
        else:
            dead |= last
    budget = budget or SearchBudget()
    exhausted = budget.exhausted

    masks = [0] * (r + 1)  # masks[c]: the positions coloured c
    # forbid[c]: the positions where c would close a monochromatic edge;
    # colour 0 is no colour, so forbid[0] holds every position
    forbid = [-1] + [dead] * r
    saved = [0] * nv  # forbid[c] before colour c went to each position
    # colour tried last at each position, 0 for none, negated if forbidden
    assigned = [0] * nv
    cap = [1] * nv  # highest colour each position may take
    nodes, pos, end = 0, 0, nv - 1
    walk_at = WALK_AFTER if r > 1 and not dead else -1
    status, colouring = UNCOLOURABLE, None
    while pos >= 0:
        c = assigned[pos]
        if c < 0:
            c = -c
        elif c:
            masks[c] ^= bits[pos]
            forbid[c] = saved[pos]
        top = cap[pos]
        if c == top:
            assigned[pos] = 0
            pos -= 1
            continue
        if nodes == walk_at:
            walk_at = -1
            colouring, flips = _walk(hg, r, budget, nodes)
            nodes += flips
            if colouring is not None:
                status = PROPER
                break
        if exhausted(nodes):
            status = BUDGET_EXCEEDED
            break
        nodes += 1
        c += 1
        old = forbid[c]
        b = bits[pos]
        if old & b:
            assigned[pos] = -c
            continue
        assigned[pos] = c
        saved[pos] = old
        mask = masks[c] | b
        masks[c] = mask
        new = old
        for earlier, last in pen[pos]:
            if mask & earlier == earlier:
                new |= last
        if new != old:
            forbid[c] = new
            new ^= old
            for other in forbid:
                new &= other
            if new:
                continue  # a later position has no colour left
        if pos == end:
            status = PROPER
            colouring = Colouring(dict(zip(order, assigned)), r)
            break
        pos += 1
        cap[pos] = c + 1 if c == top < r else top
    budget.charge(nodes)
    return SearchResult(status, colouring, nodes)


@dataclass(frozen=True)
class ArrowsResult:
    status: str  # ARROWS | NOT_ARROWS | BUDGET_EXCEEDED
    witness: Colouring | None
    nodes: int


def arrows(base: Graph | int, kind: str, k: int, r: int,
           budget: SearchBudget | None = None) -> ArrowsResult:
    """Does every r-colouring of the base's copies-universe hit a copy?

    Builds the system of copies and decides whether it is r-colourable;
    "arrows" corresponds to an exhaustive uncolourability proof, and the
    not-arrows witness is a proper colouring of the universe.
    """
    res = colouring_search(system_of_copies(kind, base, k), r, budget)
    if res.status == UNCOLOURABLE:
        return ArrowsResult(ARROWS, None, res.nodes)
    if res.status == PROPER:
        return ArrowsResult(NOT_ARROWS, res.witness, res.nodes)
    return ArrowsResult(BUDGET_EXCEEDED, None, res.nodes)
