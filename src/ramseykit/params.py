"""Derivation of the full constant chain for each of the three theorems.

Given the pattern size k, colour count r, girth target g, and the relevant
Ramsey or van der Waerden number, this derives the container parameters
(epsilon, D_tau, K, s), the sampling scale (D_p, n, tau, p) and, where the
deletion method applies, the deletion budget t.  Exact rationals are kept
exact; everything that is irrational or astronomically large is an interval
that contains it.  The headline size bound is evaluated alongside and
checked against n, and each check is decided by disjoint intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .graphs import InputError
from .intervals import (Interval, floor_int_mul_log2, log2, real, settle,
                        working)

THEOREMS = ("cycles", "ap", "cliques")


def probability_exponent(theorem: str, k: int) -> Fraction:
    """The exponent e of the sampling probability p = D_p * n^(-e)."""
    if theorem == "cycles":
        return Fraction(k - 2, k - 1)
    if theorem == "ap":
        return Fraction(1, k - 1)
    if theorem == "cliques":
        return Fraction(2, k + 1)
    raise InputError(f"unknown theorem kind {theorem!r}")


@working
def cycles_size_bound(k: int, R: int) -> Interval:
    """k^(15k^3) * R^(10k^2), the order the cycles construction stays under."""
    return real(k) ** (15 * k**3) * real(R) ** (10 * k**2)


@dataclass(frozen=True)
class ParamSet:
    theorem: str
    k: int
    r: int
    g: int | None
    base_number: int  # Ramsey number R (cycles/cliques) or vdW number W (ap)
    epsilon: Fraction
    D_tau: Interval
    K: int
    s: int
    D_p: Interval
    n: Interval
    tau: Interval
    p: Interval
    t: Interval | None
    size_bound: Interval
    size_bound_ok: bool
    girth_ramsey_link_ok: bool | None  # cycles only: p(n-1) > 4 R^2 k D_p^(k-1)


def derive_params(theorem: str, k: int, r: int, g: int | None,
                  base_number: int) -> ParamSet:
    """Evaluate the whole constant chain for one theorem.

    `base_number` is the r-colour Ramsey number of the pattern (cycles and
    cliques) or the van der Waerden number vdW(k, r) (ap).  The chain runs
    at the precision that decides `size_bound_ok` and, for cycles,
    `girth_ramsey_link_ok`; a tie that no precision decides raises
    RuntimeError.
    """
    if theorem not in THEOREMS:
        raise InputError(f"unknown theorem kind {theorem!r}")
    if r < 2:
        raise InputError(f"need r >= 2, got {r}")
    if base_number < k:
        raise InputError(f"base number {base_number} below pattern size {k}")
    if theorem == "cycles":
        if k < 4:
            raise InputError(f"cycle construction needs k >= 4, got {k}")
        if g is not None and g != k:
            raise InputError("the cycle construction targets girth k itself")
        return settle(lambda: _derive_cycles(k, r, base_number))
    if k < 3:
        raise InputError(f"need k >= 3, got {k}")
    if g is None or g < 2:
        raise InputError(f"need a girth target g >= 2, got {g}")
    derive = _derive_ap if theorem == "ap" else _derive_cliques
    return settle(lambda: derive(k, r, g, base_number))


def _derive_cycles(k: int, r: int, R: int):
    inv_eps = r * R**k
    eps = Fraction(1, inv_eps)
    D_tau = real(2) ** (2 * k) * real(eps) ** real(Fraction(-1, k - 1))
    K = 800 * k * factorial(k) ** 3
    s = floor_int_mul_log2(K, inv_eps)
    D_p = real(10 * R * R * r * r * K) * real(s) ** 2 * D_tau \
        * log2(10 * R * R * r)
    n = D_p ** (k * k)
    decay = real(-probability_exponent("cycles", k))
    tau = D_tau * n ** decay
    p = D_p * n ** decay
    size_bound = cycles_size_bound(k, R)
    ok = {"size_bound_ok": n <= size_bound,
          "girth_ramsey_link_ok": p * (n - 1) > 4 * R * R * k * D_p ** (k - 1)}
    return ok, ParamSet(
        theorem="cycles", k=k, r=r, g=None, base_number=R,
        epsilon=eps, D_tau=D_tau, K=K, s=s, D_p=D_p, n=n, tau=tau, p=p,
        t=None, size_bound=size_bound, **ok)


def _derive_ap(k: int, r: int, g: int, W: int):
    inv_eps = r * W**3
    eps = Fraction(1, inv_eps)
    numerator = 6 * factorial(k) * 2 ** comb(k, 2) * k**3
    D_tau = real(Fraction(numerator) / eps) ** real(Fraction(1, k - 1))
    K = 800 * k * factorial(k) ** 3
    s = floor_int_mul_log2(K, inv_eps)
    D_p = real(128 * W * r * r * K) * real(s) ** 2 * D_tau \
        * log2(128 * W * r)
    n = real(k) ** (4 * g) * D_p ** (2 * k * (k + g))
    decay = real(-probability_exponent("ap", k))
    tau = D_tau * n ** decay
    p = D_p * n ** decay
    t = p * n / (8 * W)
    size_bound = real(k) ** (40 * k**2 * (k + g)) \
        * real(W) ** (12 * k * (k + g))
    ok = {"size_bound_ok": n <= size_bound}
    return ok, ParamSet(
        theorem="ap", k=k, r=r, g=g, base_number=W,
        epsilon=eps, D_tau=D_tau, K=K, s=s, D_p=D_p, n=n, tau=tau, p=p,
        t=t, size_bound=size_bound, girth_ramsey_link_ok=None, **ok)


def _derive_cliques(k: int, r: int, g: int, R: int):
    h = comb(k, 2)
    inv_eps = 2 * r * comb(R, k)
    eps = Fraction(1, inv_eps)
    numerator = 6 * factorial(h) * 2 ** comb(h, 2) * h * k**k
    D_tau = real(Fraction(numerator) / eps) ** real(Fraction(10, k * k))
    K = 800 * h * factorial(h) ** 3
    s = floor_int_mul_log2(K, inv_eps)
    D_p = real(50 * R * R * r * r * K) * real(s) ** 2 * D_tau \
        * log2(50 * R * R * r)
    n = D_p ** (k * k * (5 + g))
    decay = real(-probability_exponent("cliques", k))
    tau = D_tau * n ** decay
    p = D_p * n ** decay
    t = p / (2 * R * R) * (n * (n - 1) / 2)
    size_bound = real(k) ** (40 * g * k**4) * real(R) ** (40 * g * k**2)
    ok = {"size_bound_ok": n <= size_bound}
    return ok, ParamSet(
        theorem="cliques", k=k, r=r, g=g, base_number=R,
        epsilon=eps, D_tau=D_tau, K=K, s=s, D_p=D_p, n=n, tau=tau, p=p,
        t=t, size_bound=size_bound, girth_ramsey_link_ok=None, **ok)
