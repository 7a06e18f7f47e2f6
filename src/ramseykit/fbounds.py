"""Concrete lower and upper bounds for the smallest girth-k graph that
arrows its own cycle length.

Lower bounds: a ball-growth (Moore-type) count for the parity-matching
minimum degree, and the cycle Ramsey number itself (a graph arrowing C_k
still arrows after completing to a clique on its vertex set, so its order
is at least R(C_k; r)).  The upper bound is the random-construction size
k^(15k^3) * R^(10k^2), reported as an interval that contains it.  For k in
{6, 8, 12} the known generalized-polygon constructions pin polynomial
orders r^6, r^12, r^30, reported as asymptotic exponents without
constants.  The Ramsey search, when asked for, draws on the caller's
started `SearchBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .graphs import InputError
from .intervals import Interval
from .params import cycles_size_bound
from .search import EXACT, SearchBudget, ramsey_number

SPECIAL_CASE_EXPONENTS = {6: 6, 8: 12, 12: 30}


def moore_lower_bound(parity: str, r: int, k: int) -> int:
    """Minimum order forced by ball growth around a vertex (or an edge).

    parity="even": a graph of girth 2k with minimum degree r has at least
    2 * sum_{i=0}^{k-1} (r-1)^i vertices.  parity="odd": arrowing an odd
    cycle forces chromatic number above 2^r, hence a subgraph of minimum
    degree 2^r, giving 1 + 2^r * sum_{i=1}^{k-1} (2^r - 1)^i vertices.
    """
    if r < 2:
        raise InputError(f"need r >= 2, got {r}")
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    if parity == "even":
        return 2 * sum((r - 1) ** i for i in range(k))
    if parity == "odd":
        d = 2**r
        return 1 + d * sum((d - 1) ** i for i in range(1, k))
    raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")


@dataclass(frozen=True)
class FBoundsReport:
    k: int
    r: int
    parity: str  # "even" | "odd"
    moore_lower: int
    ramsey_number: int | None  # R(C_k; r) when known or searched
    lower_bound: int  # max of the concrete lower bounds
    upper_log2: Interval | None  # k^(15k^3) * R^(10k^2); needs k >= 4 and R
    special_case_exponent: int | None  # asymptotic r-exponent, no constant
    even_ramsey_exponent: Fraction | None  # R(C_k;r) = O(r^expo), k even
    odd_ramsey_lower: int | None  # 2^r * (k-1)/2 <= R(C_k;r), k odd
    odd_ramsey_upper: int | None  # R(C_k;r) <= (r+2)! * k, k odd
    nodes: int  # spent by the Ramsey search; 0 when nothing was searched


def f_bound_report(k: int, r: int, ramsey_value: int | None = None,
                   search_budget: SearchBudget | None = None) -> FBoundsReport:
    """Assemble the bound report for cycle length k and r colours.

    R(C_k; r) may be supplied; otherwise, when a search budget is given,
    it is searched exhaustively (tiny parameters only).
    """
    if k < 3:
        raise InputError(f"cycle length must be >= 3, got {k}")
    if r < 2:
        raise InputError(f"need r >= 2, got {r}")
    if ramsey_value is not None and ramsey_value < k:
        raise InputError(f"R(C_k; r) is at least k={k}, got R={ramsey_value}")
    parity = "even" if k % 2 == 0 else "odd"
    moore = moore_lower_bound(parity, r, k // 2)
    ramsey, nodes = ramsey_value, 0
    if ramsey is None and search_budget is not None:
        res = ramsey_number("cycle", k, r, search_budget)
        nodes = res.nodes
        if res.status == EXACT:
            ramsey = res.value
    lower = max(moore, ramsey) if ramsey is not None else moore

    upper = None
    if ramsey is not None and k >= 4:
        upper = cycles_size_bound(k, ramsey)

    even_expo = None
    odd_lower = odd_upper = None
    if parity == "even":
        half = k // 2
        if half >= 2:
            even_expo = Fraction(half, half - 1)
    else:
        half = (k - 1) // 2
        odd_lower = 2**r * half
        odd_upper = factorial(r + 2) * k
    return FBoundsReport(
        k=k, r=r, parity=parity, moore_lower=moore, ramsey_number=ramsey,
        lower_bound=lower, upper_log2=upper,
        special_case_exponent=SPECIAL_CASE_EXPONENTS.get(k),
        even_ramsey_exponent=even_expo,
        odd_ramsey_lower=odd_lower, odd_ramsey_upper=odd_upper, nodes=nodes)
