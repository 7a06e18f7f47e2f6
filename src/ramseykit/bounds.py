"""Evaluators for the probability bounds behind the constructions.

Everything here is a pure function on numbers; inputs can be exact
rationals, machine floats, or intervals, so the same code serves desk-scale
sanity checks and the astronomically large parameter chains.  Results are
intervals that contain the true value, and the container verdict is decided
by disjoint intervals at whatever precision separates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Union

from .graphs import InputError
from .hypergraphs import DegreeStats
from .intervals import Interval, Real, exp, real, settle, working


@dataclass(frozen=True)
class ContainerVerdict:
    satisfied: bool
    lhs: Interval
    margin: Interval | None  # epsilon / lhs, > 1 iff satisfied; None: lhs = 0


DegreeLike = Union[DegreeStats, Mapping[int, Real]]


def container_condition(degrees: DegreeLike, h: int, tau: Real,
                        eps: Real) -> ContainerVerdict:
    """Check the container-lemma degree hypothesis.

    Computes (6 * h! * 2^C(h,2) / d_1) * sum_{j=2..h} d_j / (2^C(j-1,2)
    tau^(j-1)) and compares it with eps.  `degrees` is either a DegreeStats
    (empirical mode, averages are used) or a mapping j -> d_j of analytic
    bounds (an upper bound for j >= 2 and a lower bound for d_1 keep the
    check conservative).  Exact inputs are re-read at each precision;
    interval inputs carry their own width.  A tie that no precision
    separates raises RuntimeError.
    """
    if isinstance(degrees, DegreeStats):
        dmap: dict[int, Real] = dict(degrees.avg)
    else:
        dmap = dict(degrees)
    if not real(dmap.get(1, 0)) > 0:
        raise InputError("container condition needs d_1 > 0 (no edges?)")
    if not all(0 < real(x) < 0.5 for x in (tau, eps)):
        raise InputError("container condition needs tau, eps in (0, 1/2)")

    def evaluate():
        tau_i, eps_i = real(tau), real(eps)
        front = 6 * factorial(h) * 2 ** comb(h, 2) / real(dmap[1])
        lhs = front * sum(
            real(dmap.get(j, 0)) / (2 ** comb(j - 1, 2) * tau_i ** (j - 1))
            for j in range(2, h + 1))
        if lhs == 0:  # no d_j above j = 1
            return {}, ContainerVerdict(True, lhs, None)
        verdict = lhs <= eps_i
        return ({"container condition": verdict},
                ContainerVerdict(verdict, lhs, eps_i / lhs))

    return settle(evaluate)


@working
def cycle_system_analytic_degrees(n: Real, k: int) -> dict[int, Interval]:
    """Degree bounds for the system of k-cycles in a complete graph on n.

    d_1 is the lower bound (k!/k^k) n^(k-2); d_j <= n^(k-j-1) for
    2 <= j <= k-1; d_k = 1.
    """
    n = real(n)
    out = {1: real(Fraction(factorial(k), k**k)) * n ** (k - 2)}
    for j in range(2, k):
        out[j] = n ** (k - j - 1)
    out[k] = real(1)
    return out


@dataclass(frozen=True)
class CycleExpectation:
    j: int
    value: Fraction
    exact: bool  # True: exact expectation; False: first-moment upper bound


def _as_fraction(p: Real) -> Fraction:
    if isinstance(p, Interval):
        raise InputError("expectation formulas need a rational or float p")
    return Fraction(p)


def expected_short_cycle_counts(kind: str, n: int, p, k: int,
                                g: int | None = None) -> list[CycleExpectation]:
    """Expected counts of short cycles, per length.

    kind="graph": exact expectations of j-cycles, 3 <= j < k, in a binomial
    random graph.  kind="ap"/"clique": the first-moment upper bounds for
    2-cycles and j-cycles (3 <= j < g) in the respective random system of
    copies; flagged exact=False because they are bounds, not expectations.
    """
    pf = _as_fraction(p)
    if not 0 <= pf <= 1:
        raise InputError(f"p must lie in [0, 1], got {p}")
    out: list[CycleExpectation] = []

    def push(j: int, value: Fraction, exact: bool):
        out.append(CycleExpectation(j, value, exact))

    if kind == "graph":
        for j in range(3, k):
            value = Fraction(factorial(j - 1), 2) * comb(n, j) * pf**j
            push(j, value, True)
        return out
    if g is None or g < 2:
        raise InputError(f"kind={kind!r} needs a girth target g >= 2")
    if kind == "ap":
        push(2, comb(n, 2) * Fraction(comb(k, 2)) ** 2 * pf ** (k + 1), False)
        for j in range(3, g):
            push(j, Fraction(n) ** j * Fraction(k) ** (2 * j)
                 * pf ** ((k - 1) * j), False)
        return out
    if kind == "clique":
        pairs = k * (k - 1) // 2
        two_cycles = sum(
            (Fraction(n) ** (2 * k - i) * pf ** (2 * pairs - comb(i, 2))
             for i in range(3, k)), start=Fraction(0))
        push(2, two_cycles, False)
        for j in range(3, g):
            push(j, Fraction(n) ** (k * j - 2 * j)
                 * pf ** (pairs * j - j), False)
        return out
    raise InputError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class GirthProbabilityBound:
    product: Interval      # prod_j (1 - p^j)^(cycle count coefficient)
    closed_form: Interval  # exp(-E[short cycles] / (1 - p^3)), <= product


@working
def fkg_girth_bound(n: int, p, k: int) -> GirthProbabilityBound:
    """Lower bound on P(girth of a binomial random graph >= k).

    The positive-correlation product over cycle lengths 3..k-1, together
    with the weaker closed form exp(-E / (1 - p^3)).
    """
    pf = _as_fraction(p)
    if pf <= 0 or pf >= 1:  # girth >= k surely holds, or at p = 1 fails
        value = real(1 if pf <= 0 or k <= 3 or n < 3 else 0)
        return GirthProbabilityBound(value, value)
    product = real(1)
    expectation = Fraction(0)
    for j in range(3, k):
        coeff = factorial(j - 1) // 2 * comb(n, j)
        product *= (1 - real(pf) ** j) ** coeff
        expectation += coeff * pf**j
    return GirthProbabilityBound(product, exp(-expectation / (1 - pf**3)))


@working
def union_bound_sum(n_positions: Real, r: int, s: int, tau_k_product: Real,
                    p: Real) -> Interval:
    """Bound on the weighted sum over fingerprint tuples.

    With M = r*s*(tau*K)*N, returns (M+1) * (e*N*2^(r*s)*p / M)^M, valid
    when M <= 2^(r*s)*p*N (the maximising index of the unimodal summand
    lies beyond M); inputs shown to break that condition raise an error.
    """
    n, tk, p = real(n_positions), real(tau_k_product), real(p)
    if not (n > 0 and tk > 0 and p > 0):
        raise InputError("union bound needs positive N, tau*K, and p")
    rs = r * s
    big_m = tk * rs * n
    if big_m > 2**rs * p * n:
        raise InputError("dominance condition fails: r*s*tauK*N exceeds "
                         "2^(rs)*p*N, the unimodal-tail bound is invalid")
    base = exp(1) * n * 2**rs * p / big_m
    return (big_m + 1) * base**big_m


@working
def chernoff_tail(mu: Real, t: Real) -> Interval:
    """Lower-tail bound exp(-mu/8) on P(X <= t), valid for t <= mu/2.

    Inputs shown to lie outside that regime raise an error.
    """
    mu, t = real(mu), real(t)
    if not (mu >= 0 and t >= 0):
        raise InputError("chernoff bound needs mu, t >= 0")
    if mu == 0:
        return real(1)
    if t > mu / 2:
        raise InputError("deviation above mu/2 is outside the regime "
                         "this bound covers")
    return exp(-mu / 8)
