"""Exhaustive searches for small Ramsey and van der Waerden numbers.

Verdicts are exact within budget: "arrows" always rests on an exhaustive
uncolourability proof, budget exhaustion is reported as such and never
silently converted into a verdict.  Number sweeps ascend so every failing
size produces a verified witness colouring along the way, and a sweep draws
every size it decides from the one `SearchBudget` it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Sequence

from .colouring import (
    ARROWS,
    BUDGET_EXCEEDED,
    NOT_ARROWS,
    ArrowsResult,
    Colouring,
    SearchBudget,
    arrows,
)
from .graphs import Graph, InputError, complete_graph
from .hypergraphs import ap_count_formula

EXACT = "exact"
LOWER_BOUND_ONLY = "lower-bound-only"


def ramsey_decide(kind: str, k: int, r: int, n: int,
                  budget: SearchBudget | None = None) -> ArrowsResult:
    """Does the complete graph on n vertices arrow the pattern?"""
    if kind not in ("clique", "cycle"):
        raise InputError(f"unknown pattern kind {kind!r}")
    if kind == "clique" and k == 2:
        # a 2-clique is an edge; one edge forces a monochromatic copy
        if n >= 2:
            return ArrowsResult(ARROWS, None, 0)
        return ArrowsResult(NOT_ARROWS, Colouring({}, r), 0)
    if n < k:
        raise InputError(f"hosting {k}-vertex patterns needs n >= {k}")
    return arrows(complete_graph(n), kind, k, r, budget)


@dataclass(frozen=True)
class NumberResult:
    status: str  # EXACT | LOWER_BOUND_ONLY
    value: int | None  # the number itself when exact
    lower_bound: int  # every smaller size is proven not to arrow
    nodes: int


def _least_arrowing(base_of: Callable[[int], Graph | int], kind: str, k: int,
                    r: int, budget: SearchBudget | None) -> NumberResult:
    """Decide n = k, k+1, ... on one shared budget until base_of(n) arrows
    the pattern; a size the budget cannot settle leaves a lower bound."""
    nodes = 0
    n = k
    while True:
        res = arrows(base_of(n), kind, k, r, budget)
        nodes += res.nodes
        if res.status == ARROWS:
            return NumberResult(EXACT, n, n, nodes)
        if res.status == BUDGET_EXCEEDED:
            return NumberResult(LOWER_BOUND_ONLY, None, n, nodes)
        n += 1


def ramsey_number(kind: str, k: int, r: int,
                  budget: SearchBudget | None = None) -> NumberResult:
    """Least n such that the complete graph on n vertices arrows the pattern."""
    if kind == "clique" and k == 2:
        return NumberResult(EXACT, 2, 2, 0)
    return _least_arrowing(complete_graph, kind, k, r, budget)


def vdw_decide(n: int, k: int, r: int,
               budget: SearchBudget | None = None) -> ArrowsResult:
    """Does every r-colouring of {1..n} contain a monochromatic k-term AP?"""
    if n < 1:
        raise InputError(f"interval length must be positive, got {n}")
    return arrows(n, "ap", k, r, budget)


def vdw_number(k: int, r: int,
               budget: SearchBudget | None = None) -> NumberResult:
    """Least n with the van der Waerden property for (k, r)."""
    return _least_arrowing(lambda n: n, "ap", k, r, budget)


class FactViolationError(RuntimeError):
    """Neither disjunct of the colouring dichotomy held.

    Signals a bug or an interval too short for the counting argument.
    """


FIRST_BRANCH = "first"
SECOND_BRANCH = "second"
BOTH_BRANCHES = "both"


@dataclass(frozen=True)
class FactCheckResult:
    branch: str  # FIRST_BRANCH | SECOND_BRANCH | BOTH_BRANCHES
    mono_count: int  # monochromatic k-APs within the first r colours
    mono_threshold: float  # ap_count(n, k) / W^3
    last_class_size: int
    last_threshold: float  # n / (4 W)


def _mono_counts(masks: Sequence[int], n: int, k: int,
                 max_colour: int) -> Iterator[int]:
    """Monochromatic k-APs of {1..n} per colour 1..max_colour, d = 1, 2, ...

    `masks[c]` has bit v set for each element v of colour c.  Bit a of
    m & m>>d & ... & m>>(k-1)d is set exactly when a, a+d, ..., a+(k-1)d
    all carry the colour."""
    for d in range(1, (n - 1) // (k - 1) + 1):
        for m in masks[1:max_colour + 1]:
            run = m
            for t in range(1, k):
                run &= m >> (t * d)
            yield run.bit_count()


def count_monochromatic_aps(masks: Sequence[int], n: int, k: int,
                            max_colour: int) -> int:
    """Monochromatic k-term APs of {1..n} in colours 1..max_colour."""
    return sum(_mono_counts(masks, n, k, max_colour))


def _fact_setup(colours, k: int, r: int, w: int):
    """(masks, n, ap_count(n, k), last class size) of a valid colouring."""
    if r < 1:
        raise InputError(f"need a colour before the last one, got r={r}")
    mapping = colours.colours if hasattr(colours, "colours") else dict(colours)
    n = len(mapping)
    if n == 0:
        raise InputError("colouring is empty; the dichotomy needs n >= 1")
    if set(mapping) != set(range(1, n + 1)):
        raise InputError("colouring must cover an interval {1..n} totally")
    for c in mapping.values():
        if not 1 <= c <= r + 1:
            raise InputError(f"colour {c} outside 1..{r + 1}")
    long_aps = ap_count_formula(n, w) if n >= w else 0
    if 2 * w * long_aps < n * n:
        raise InputError(
            f"interval too short for the dichotomy: {long_aps} {w}-term APs "
            f"in {{1..{n}}} but the argument needs at least n^2/(2W) = "
            f"{n * n / (2 * w):.0f}")
    ap_total = ap_count_formula(n, k)
    # element n first, so a colour's mask is one base-2 parse, not n ORs
    row = "".join(map(chr, map(mapping.__getitem__, range(n, 0, -1))))
    zeros = dict.fromkeys(range(1, r + 2), "0")
    masks = [0, *(int(row.translate({**zeros, c: "1"}) + "0", 2)
                  for c in range(1, r + 2))]
    return masks, n, ap_total, masks[r + 1].bit_count()


def _branch(mono: int, ap_total: int, last_size: int, n: int, w: int) -> str:
    first, second = mono * w**3 > ap_total, 4 * w * last_size > n
    if not (first or second):
        raise FactViolationError(
            f"neither branch holds: {mono} monochromatic APs "
            f"(threshold {ap_total / w**3:.2f}), last colour class "
            f"{last_size} (threshold {n / (4 * w):.2f})")
    return (BOTH_BRANCHES if first and second
            else FIRST_BRANCH if first else SECOND_BRANCH)


def fact_vdw_check(colours, k: int, r: int, w: int) -> FactCheckResult:
    """Which disjunct holds for an (r+1)-colouring of an interval?

    Either the first r colours already carry more than ap_count(n,k)/W^3
    monochromatic k-APs, or more than n/(4W) elements wear colour r+1.
    The counting argument behind the dichotomy needs the interval to carry
    at least n^2/(2W) W-term APs; shorter intervals are refused outright
    rather than guessed at.  W itself is taken as given.
    """
    masks, n, ap_total, last_size = _fact_setup(colours, k, r, w)
    mono = count_monochromatic_aps(masks, n, k, r)
    return FactCheckResult(_branch(mono, ap_total, last_size, n, w), mono,
                           ap_total / w**3, last_size, n / (4 * w))


def fact_vdw_branch(colours, k: int, r: int, w: int) -> str:
    """`fact_vdw_check(colours, k, r, w).branch`, counting monochromatic
    APs only until the first disjunct holds: the count never falls."""
    masks, n, ap_total, last_size = _fact_setup(colours, k, r, w)
    for mono in accumulate(_mono_counts(masks, n, k, r), initial=0):
        if mono * w**3 > ap_total:
            break
    return _branch(mono, ap_total, last_size, n, w)
