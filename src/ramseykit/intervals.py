"""Certified real numbers: mpmath intervals, and the one loop that decides
verdicts from them.

Every irrational or astronomically large constant is an `iv.mpf` interval
that provably contains the true value; mpmath exponents are unbounded, so
2^(10^6) and exp(-2^2000) need no log space.  A comparison of two intervals
is True or False when they are disjoint and None when they overlap.
`settle` reruns a computation at doubling precision until none of its
verdicts is None, so a verdict is a proof across the whole chain of
constants, and an exact tie is reported as an error, never guessed.

This is the only module that imports mpmath.  The precision it raises is
mpmath's process-wide `iv.prec`, so computations must not run in threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from typing import Union

from mpmath import iv, mp

START_PREC = 96  # bits every computation starts at (more if mp.prec is)
MAX_PREC = 1 << 14  # bits at which an unsettled verdict is an error

Interval = iv.mpf
Real = Union[int, float, Fraction, Interval]


def _start_prec() -> int:
    return max(iv.prec, mp.prec, START_PREC)


def settle(evaluate):
    """Run `evaluate` at rising precision until each of its verdicts is
    decided, and return the payload of that run.

    `evaluate()` returns (verdicts, payload), verdicts a dict from a name to
    True, False or None (undecided).  The first run is at max(iv.prec,
    mp.prec, START_PREC) bits, and precision doubles while a verdict is
    None.  iv.prec is restored either way.
    """
    saved = iv.prec
    prec = _start_prec()
    try:
        while True:
            iv.prec = prec
            verdicts, payload = evaluate()
            open_ = [name for name, verdict in verdicts.items()
                     if verdict is None]
            if not open_:
                return payload
            prec *= 2
            if prec > MAX_PREC:
                raise RuntimeError(f"{', '.join(open_)} did not settle: the "
                                   f"intervals still overlap at {prec // 2} "
                                   "bits")
    finally:
        iv.prec = saved


def working(fn):
    """Decorator: run `fn` at the precision `settle` starts at.  For
    computations that decide no verdict of their own."""
    @wraps(fn)
    def run(*args, **kwargs):
        saved = iv.prec
        iv.prec = _start_prec()
        try:
            return fn(*args, **kwargs)
        finally:
            iv.prec = saved
    return run


@working
def real(x: Real) -> Interval:
    """An interval holding the int, Fraction, float or interval `x`."""
    if isinstance(x, Interval):
        return x
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / x.denominator
    if isinstance(x, (int, float)):
        return iv.mpf(x)
    raise TypeError(f"cannot make an interval of {type(x).__name__}")


@working
def log2(x: Real) -> Interval:
    return iv.log(real(x), 2)


@working
def exp(x: Real) -> Interval:
    return iv.exp(real(x))


@working
def to_json(x: Real) -> dict:
    """{"sign": -1, 0 or 1, "log2": log2 |x| to 30 significant digits}.

    The digits are those of the midpoint of the log2 interval, taken at the
    working precision and converted exactly; START_PREC bits carry about
    28.9 of them.
    """
    x = real(x)
    sign = 1 if x > 0 else -1 if x < 0 else 0 if x == 0 else None
    if sign is None:
        raise ValueError(f"the interval {x} holds 0: its sign is undecided")
    if sign == 0:  # the point interval [0, 0]
        return {"sign": 0, "log2": "0"}
    mid = iv.log(abs(x), 2).mid
    return {"sign": sign, "log2": mp.nstr(mp.convert(mid), 30)}


def floor_int_mul_log2(k_factor: int, m: int) -> int:
    """floor(k_factor * log2(m)) for positive integers, provably exact.

    The product is irrational unless m is a power of two (handled exactly),
    so its interval leaves every integer behind as precision rises.
    """
    if k_factor < 1 or m < 1:
        raise ValueError("floor_int_mul_log2 needs positive integers")
    if m & (m - 1) == 0:
        return k_factor * (m.bit_length() - 1)

    def evaluate():
        value = k_factor * log2(m)
        lo, hi = (int(mp.convert(end)) for end in (value.a, value.b))
        return {f"floor({k_factor}*log2({m}))": lo == hi or None}, lo

    return settle(evaluate)
