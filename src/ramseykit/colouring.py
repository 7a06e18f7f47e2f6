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
holding no proper colouring.  No automorphism pruning is attempted.  Every
exhaustive search of the toolkit draws on a started `SearchBudget`;
searches handed the same budget object share it.
"""

from __future__ import annotations

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
        return (self.deadline is not None and nodes % CHECK_EVERY == 0
                and time.monotonic() > self.deadline)

    def charge(self, nodes: int):
        if self.remaining is not None:
            self.remaining -= nodes


@dataclass(frozen=True)
class SearchResult:
    status: str  # PROPER | UNCOLOURABLE | BUDGET_EXCEEDED
    witness: Colouring | None
    nodes: int


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
    without the second cut, reached in at most as many nodes.  An edge
    given with a repeated vertex counts each vertex once, so one with a
    single vertex forbids every colour at it.  The search stops when
    `budget` is exhausted, which yields BUDGET_EXCEEDED, never a wrong
    verdict; the attempts made are charged to it.
    """
    if r < 1:
        raise InputError(f"need at least one colour, got {r}")
    order = list(hg.universe)
    nv = len(order)
    if nv == 0:
        return SearchResult(PROPER, Colouring({}, r), 0)
    bit = {v: 1 << pos for pos, v in enumerate(order)}
    bits = list(bit.values())
    # pen[pos]: for each edge whose second-to-last vertex is at pos, the
    # bitmask of its positions but the last, and the bit of the last
    pen: list[list[tuple[int, int]]] = [[] for _ in order]
    dead = 0  # the positions of edges with a single distinct vertex
    for e in hg.edges:
        mask = 0
        for v in e:
            mask |= bit[v]
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
