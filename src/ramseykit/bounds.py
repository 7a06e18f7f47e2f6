"""Evaluators for the probability bounds behind the constructions.

Everything here is a pure function on numbers; inputs can be exact
rationals, machine floats, or LogNums, so the same code serves desk-scale
sanity checks and the astronomically large parameter chains.  Inequality
verdicts are re-evaluated under doubled mantissa precision until they
stop changing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Union

from mpmath import mp, mpf, workprec

from .graphs import InputError
from .hypergraphs import DegreeStats
from .lognum import DEFAULT_PREC, LogNum, Real

MAX_PREC = 1 << 14  # bits at which an unsettled verdict is an error


def _stable_verdict(evaluate):
    """Run `evaluate` under doubling precision until its verdict repeats.

    `evaluate` returns (verdict, payload); only the verdict must stabilise.
    """
    prec = max(mp.prec, DEFAULT_PREC)
    with workprec(prec):
        prev, payload = evaluate()
    while prec < MAX_PREC:
        prec *= 2
        with workprec(prec):
            cur, payload = evaluate()
        if cur == prev:
            return cur, payload
        prev = cur
    raise RuntimeError("inequality verdict did not stabilise under "
                       f"precision doubling up to {MAX_PREC} bits")


@dataclass(frozen=True)
class ContainerVerdict:
    satisfied: bool
    lhs: LogNum
    margin: LogNum  # epsilon / lhs; > 1 iff satisfied


DegreeLike = Union[DegreeStats, Mapping[int, Real]]


def container_condition(degrees: DegreeLike, h: int, tau: Real,
                        eps: Real) -> ContainerVerdict:
    """Check the container-lemma degree hypothesis.

    Computes (6 * h! * 2^C(h,2) / d_1) * sum_{j=2..h} d_j / (2^C(j-1,2)
    tau^(j-1)) in log space and compares it with eps.  `degrees` is either
    a DegreeStats (empirical mode, averages are used) or a mapping j -> d_j
    of analytic bounds (an upper bound for j >= 2 and a lower bound for
    d_1 keep the check conservative).
    """
    if isinstance(degrees, DegreeStats):
        dmap: dict[int, Real] = dict(degrees.avg)
    else:
        dmap = dict(degrees)
    d1 = dmap.get(1, 0)
    if LogNum.from_real(d1).sign <= 0:
        raise InputError("container condition needs d_1 > 0 (no edges?)")
    half = Fraction(1, 2)
    if not (LogNum.zero() < LogNum.from_real(tau) < half
            and LogNum.zero() < LogNum.from_real(eps) < half):
        raise InputError("container condition needs tau, eps in (0, 1/2)")

    def evaluate():
        tau_l = LogNum.from_real(tau)
        eps_l = LogNum.from_real(eps)
        front = LogNum.from_int(6 * factorial(h) * 2 ** comb(h, 2)) \
            / LogNum.from_real(d1)
        total = LogNum.zero()
        for j in range(2, h + 1):
            dj = LogNum.from_real(dmap.get(j, 0))
            if dj.sign == 0:
                continue
            denom = LogNum.from_int(2 ** comb(j - 1, 2)) * tau_l ** (j - 1)
            total = total + dj / denom
        lhs = front * total
        if lhs.sign == 0:
            return True, (lhs, None)
        return lhs <= eps_l, (lhs, eps_l / lhs)

    satisfied, (lhs, margin) = _stable_verdict(evaluate)
    return ContainerVerdict(satisfied, lhs, margin)


def cycle_system_analytic_degrees(n: Real, k: int) -> dict[int, Real]:
    """Degree bounds for the system of k-cycles in a complete graph on n.

    d_1 is the lower bound (k!/k^k) n^(k-2); d_j <= n^(k-j-1) for
    2 <= j <= k-1; d_k = 1.
    """
    n_l = LogNum.from_real(n)
    out: dict[int, Real] = {
        1: LogNum.from_fraction(Fraction(factorial(k), k**k)) * n_l ** (k - 2)}
    for j in range(2, k):
        out[j] = n_l ** (k - j - 1)
    out[k] = 1
    return out


@dataclass(frozen=True)
class CycleExpectation:
    j: int
    value: Fraction
    lognum: LogNum
    exact: bool  # True: exact expectation; False: first-moment upper bound


def _as_fraction(p: Real) -> Fraction:
    if isinstance(p, LogNum):
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
        out.append(CycleExpectation(j, value, LogNum.from_fraction(value), exact))

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
    product: LogNum      # prod_j (1 - p^j)^(cycle count coefficient)
    closed_form: LogNum  # exp(-E[short cycles] / (1 - p^3)), always <= product


def fkg_girth_bound(n: int, p, k: int) -> GirthProbabilityBound:
    """Lower bound on P(girth of a binomial random graph >= k).

    The positive-correlation product over cycle lengths 3..k-1, together
    with the weaker closed form exp(-E / (1 - p^3)).
    """
    pf = _as_fraction(p)
    if pf <= 0:
        return GirthProbabilityBound(LogNum.one(), LogNum.one())
    if pf >= 1:
        if k <= 3 or n < 3:
            return GirthProbabilityBound(LogNum.one(), LogNum.one())
        return GirthProbabilityBound(LogNum.zero(), LogNum.zero())
    with workprec(max(mp.prec, DEFAULT_PREC)):
        pm = mpf(pf.numerator) / pf.denominator
        log2_product = mpf(0)
        expectation = Fraction(0)
        for j in range(3, k):
            coeff = factorial(j - 1) // 2 * comb(n, j)
            log2_product += coeff * mp.log(1 - pm**j, 2)
            expectation += coeff * pf**j
        product = LogNum(1, log2_product)
        exponent = -expectation / (1 - pf**3)
        closed = LogNum.exp_of(Fraction(exponent))
    return GirthProbabilityBound(product, closed)


def union_bound_sum(n_positions: Real, r: int, s: int, tau_k_product: Real,
                    p: Real) -> LogNum:
    """Bound on the weighted sum over fingerprint tuples.

    With M = r*s*(tau*K)*N, returns (M+1) * (e*N*2^(r*s)*p / M)^M, valid
    when M <= 2^(r*s)*p*N (the maximising index of the unimodal summand
    lies beyond M); otherwise the bounding step is invalid and an error is
    raised.
    """
    n_l = LogNum.from_real(n_positions)
    tk = LogNum.from_real(tau_k_product)
    p_l = LogNum.from_real(p)
    if n_l.sign <= 0 or tk.sign <= 0 or p_l.sign <= 0:
        raise InputError("union bound needs positive N, tau*K, and p")
    rs = r * s
    big_m = tk * (r * s) * n_l
    m0 = LogNum.from_int(2) ** rs * p_l * n_l
    if big_m > m0:
        raise InputError("dominance condition fails: r*s*tauK*N exceeds "
                         "2^(rs)*p*N, the unimodal-tail bound is invalid")

    base = LogNum.exp_of(1) * n_l * (LogNum.from_int(2) ** rs) * p_l / big_m
    return (big_m + 1) * base ** big_m


def chernoff_tail(mu: Real, t: Real) -> LogNum:
    """Lower-tail bound exp(-mu/8), valid for deviations t <= mu/2."""
    mu_l = LogNum.from_real(mu)
    t_l = LogNum.from_real(t)
    if mu_l.sign < 0 or t_l.sign < 0:
        raise InputError("chernoff bound needs mu, t >= 0")
    if mu_l.sign == 0:
        return LogNum.one()
    if t_l > mu_l / 2:
        raise InputError("deviation above mu/2 is outside the regime "
                         "this bound covers")
    return LogNum.exp_of(-mu_l / 8)
