"""Proper colourings of hypergraph vertices and arrowing verdicts.

A colouring is proper when no hyperedge is monochromatic.  The search is
exhaustive backtracking with colour-class canonicalisation (a vertex may
open colour c+1 only if colours 1..c are already in use), so "uncolourable"
is a proof by exhaustion.  Vertices take colours in universe order, so a
hyperedge can only turn monochromatic when its last vertex is coloured; it
is checked then, once, against a bitmask of the positions holding that
colour.  No automorphism pruning is attempted.  Every exhaustive search of
the toolkit draws on a started `SearchBudget`; searches handed the same
budget object share it.
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
    ascending.  Each assignment attempt is a node; it fails when an edge
    whose last vertex this is has all its other vertices in the colour's
    mask.  An edge given with a repeated vertex counts each vertex once, so
    one with a single vertex fails every colour.  The search stops when
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
    # closing[pos]: for each edge whose last vertex is at pos, the bitmask
    # of the positions of its other vertices
    closing: list[list[int]] = [[] for _ in order]
    for e in hg.edges:
        mask = 0
        for v in e:
            mask |= bit[v]
        last = mask.bit_length() - 1
        closing[last].append(mask ^ 1 << last)
    budget = budget or SearchBudget()
    exhausted = budget.exhausted

    masks = [0] * (r + 1)  # masks[c]: the positions coloured c
    assigned = [0] * nv  # colour tried last at each position, 0 for none
    top = [0] * nv  # highest colour used before each position
    nodes, pos = 0, 0
    status, colouring = UNCOLOURABLE, None
    while pos >= 0:
        c = assigned[pos]
        if c:
            masks[c] ^= 1 << pos
        if c > top[pos] or c == r:
            assigned[pos] = 0
            pos -= 1
            continue
        if exhausted(nodes):
            status = BUDGET_EXCEEDED
            break
        nodes += 1
        c += 1
        assigned[pos] = c
        mask = masks[c]
        masks[c] = mask | 1 << pos
        for other in closing[pos]:
            if mask & other == other:
                break  # the edge closing here would be monochromatic
        else:
            if pos + 1 == nv:
                status = PROPER
                colouring = Colouring(dict(zip(order, assigned)), r)
                break
            pos += 1
            top[pos] = c if c > top[pos - 1] else top[pos - 1]
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
