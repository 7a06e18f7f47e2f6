"""Exhaustive searches for small Ramsey and van der Waerden numbers.

Verdicts are exact within budget: "arrows" always rests on an exhaustive
uncolourability proof, budget exhaustion is reported as such and never
silently converted into a verdict.  Number sweeps ascend so every failing
size produces a verified witness colouring along the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .colouring import (
    ARROWS,
    BUDGET_EXCEEDED,
    NOT_ARROWS,
    ArrowsResult,
    BudgetTracker,
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
    return arrows(complete_graph(n), kind, k, r, BudgetTracker(budget))


@dataclass(frozen=True)
class NumberResult:
    status: str  # EXACT | LOWER_BOUND_ONLY
    value: int | None  # the number itself when exact
    n_reached: int  # largest size proven not to arrow
    nodes: int

    @property
    def lower_bound(self) -> int:
        return self.n_reached + 1


def _least_arrowing(base_of: Callable[[int], Graph | int], kind: str, k: int,
                    r: int, budget: SearchBudget | None) -> NumberResult:
    """Decide n = k, k+1, ... on one shared budget until base_of(n) arrows
    the pattern; a size the budget cannot settle leaves a lower bound."""
    tracker = BudgetTracker(budget)
    nodes = 0
    n = k
    while True:
        res = arrows(base_of(n), kind, k, r, tracker)
        nodes += res.nodes
        if res.status == ARROWS:
            return NumberResult(EXACT, n, n - 1, nodes)
        if res.status == BUDGET_EXCEEDED:
            return NumberResult(LOWER_BOUND_ONLY, None, n - 1, nodes)
        n += 1


def ramsey_number(kind: str, k: int, r: int,
                  budget: SearchBudget | None = None) -> NumberResult:
    """Least n such that the complete graph on n vertices arrows the pattern."""
    if kind == "clique" and k == 2:
        return NumberResult(EXACT, 2, 1, 0)
    return _least_arrowing(complete_graph, kind, k, r, budget)


def vdw_decide(n: int, k: int, r: int,
               budget: SearchBudget | None = None) -> ArrowsResult:
    """Does every r-colouring of {1..n} contain a monochromatic k-term AP?"""
    if n < 1:
        raise InputError(f"interval length must be positive, got {n}")
    return arrows(n, "ap", k, r, BudgetTracker(budget))


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


def count_monochromatic_aps(masks: Sequence[int], n: int, k: int,
                            max_colour: int) -> int:
    """Monochromatic k-term APs of {1..n} in colours 1..max_colour.

    `masks[c]` has bit v set for each element v of {1..n} of colour c
    (masks[0] is not read).  For a common difference d, bit a of
    m & m>>d & ... & m>>(k-1)d is set exactly when a, a+d, ..., a+(k-1)d
    all carry the colour, so counting bits gives the exact total.
    """
    total = 0
    for c in range(1, max_colour + 1):
        m = masks[c]
        for d in range(1, (n - 1) // (k - 1) + 1):
            run = m
            for t in range(1, k):
                run &= m >> (t * d)
            total += run.bit_count()
    return total


def fact_vdw_check(colours, k: int, r: int, w: int) -> FactCheckResult:
    """Which disjunct holds for an (r+1)-colouring of an interval?

    Either the first r colours already carry more than ap_count(n,k)/W^3
    monochromatic k-APs, or more than n/(4W) elements wear colour r+1.
    The counting argument behind the dichotomy needs the interval to carry
    at least n^2/(2W) W-term APs; shorter intervals are refused outright
    rather than guessed at.  W itself is taken as given.
    """
    mapping = colours.colours if hasattr(colours, "colours") else dict(colours)
    n = len(mapping)
    if set(mapping) != set(range(1, n + 1)):
        raise InputError("colouring must cover an interval {1..n} totally")
    masks = [0] * (r + 2)
    for v, c in mapping.items():
        if not 1 <= c <= r + 1:
            raise InputError(f"colour {c} outside 1..{r + 1}")
        masks[c] |= 1 << v
    long_aps = ap_count_formula(n, w) if n >= w else 0
    if 2 * w * long_aps < n * n:
        raise InputError(
            f"interval too short for the dichotomy: {long_aps} {w}-term APs "
            f"in {{1..{n}}} but the argument needs at least n^2/(2W) = "
            f"{n * n / (2 * w):.0f}")

    mono = count_monochromatic_aps(masks, n, k, r)
    last_size = masks[r + 1].bit_count()
    ap_total = ap_count_formula(n, k)
    first = mono * w**3 > ap_total
    second = 4 * w * last_size > n
    if first and second:
        branch = BOTH_BRANCHES
    elif first:
        branch = FIRST_BRANCH
    elif second:
        branch = SECOND_BRANCH
    else:
        raise FactViolationError(
            f"neither branch holds: {mono} monochromatic APs "
            f"(threshold {ap_total / w**3:.2f}), last colour class "
            f"{last_size} (threshold {n / (4 * w):.2f})")
    return FactCheckResult(branch, mono, ap_total / w**3, last_size,
                           n / (4 * w))
