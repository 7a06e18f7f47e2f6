"""Proper colourings of hypergraph vertices and arrowing verdicts.

A colouring is proper when no hyperedge is monochromatic.  The search is
exhaustive backtracking with colour-class canonicalisation (a vertex may
open colour c+1 only if colours 1..c are already in use), so "uncolourable"
is a proof by exhaustion.  No automorphism pruning is attempted.  Every
exhaustive search of the toolkit draws on a started `SearchBudget`; searches
handed the same budget object share it.
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
    ascending.  Each assignment attempt is a node.  The search stops when
    `budget` is exhausted, which yields BUDGET_EXCEEDED, never a wrong
    verdict; the attempts made are charged to it.
    """
    if r < 1:
        raise InputError(f"need at least one colour, got {r}")
    order = list(hg.universe)
    nv = len(order)
    if nv == 0:
        return SearchResult(PROPER, Colouring({}, r), 0)
    edges_of = [hg.incidence[v] for v in order]
    budget = budget or SearchBudget()

    uncol = [len(e) for e in hg.edges]
    state = [0] * len(hg.edges)  # 0 none yet, -1 mixed, c>0 uniform colour c
    assigned = [0] * nv
    nodes = 0

    def assign(pos: int, c: int):
        """Apply colour c at pos; returns (ok, edges touched, state trail)."""
        trail = []
        elist = edges_of[pos]
        for idx, ei in enumerate(elist):
            uncol[ei] -= 1
            s = state[ei]
            if s == 0:
                state[ei] = c
                trail.append((ei, 0))
            elif s > 0:
                if s != c:
                    state[ei] = -1
                    trail.append((ei, s))
                elif uncol[ei] == 0:
                    return False, idx + 1, trail  # edge went monochromatic
        return True, len(elist), trail

    def undo(pos: int, processed: int, trail: list[tuple[int, int]]):
        for ei in edges_of[pos][:processed]:
            uncol[ei] += 1
        for ei, old in trail:
            state[ei] = old

    # frame: [next colour to try, max colour used before this position,
    #         (processed, trail) of the currently applied assignment or None]
    stack: list[list] = [[1, 0, None]]
    status, colouring = UNCOLOURABLE, None
    while stack:
        frame = stack[-1]
        pos = len(stack) - 1
        if frame[2] is not None:
            undo(pos, *frame[2])
            frame[2] = None
        c = frame[0]
        if c > min(frame[1] + 1, r):
            stack.pop()
            continue
        frame[0] = c + 1
        if budget.exhausted(nodes):
            status = BUDGET_EXCEEDED
            break
        nodes += 1
        ok, processed, trail = assign(pos, c)
        if not ok:
            undo(pos, processed, trail)
            continue
        assigned[pos] = c
        if pos + 1 == nv:
            status = PROPER
            colouring = Colouring(dict(zip(order, assigned)), r)
            break
        frame[2] = (processed, trail)
        stack.append([1, max(frame[1], c), None])
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
