"""Signed log-space numbers for constants far beyond machine range.

A LogNum stores a sign and the binary logarithm of its magnitude as an
mpmath float with at least 96 bits of mantissa (more if the ambient mpmath
precision is raised).  Multiplication, division, and powers are exact in
log space up to that precision; addition goes through a stable
log-sum-exp whose relative error at default precision is far below 2^-64.

Floors of K*log2(M) for integers are computed with interval arithmetic so
the result is provably the true floor, never a float rounding accident.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from mpmath import iv, mp, mpf, workprec

DEFAULT_PREC = 96

Real = Union[int, float, Fraction, "LogNum"]


def _prec() -> int:
    return max(mp.prec, DEFAULT_PREC)


_LOG2_E_CACHE: dict[int, mpf] = {}


def _log2e() -> mpf:
    p = mp.prec
    if p not in _LOG2_E_CACHE:
        _LOG2_E_CACHE[p] = 1 / mp.log(2)
    return _LOG2_E_CACHE[p]


class LogNum:
    __slots__ = ("sign", "log2")

    def __init__(self, sign: int, log2):
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or 1, got {sign}")
        self.sign = sign
        if sign == 0:
            self.log2 = mpf(0)
        elif isinstance(log2, mpf):
            self.log2 = log2  # keep full stored precision, never re-round
        else:
            with workprec(_prec()):
                self.log2 = mpf(log2)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogNum":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "LogNum":
        return cls(1, 0)

    @classmethod
    def from_int(cls, value: int) -> "LogNum":
        if value == 0:
            return cls.zero()
        with workprec(_prec()):
            return cls(1 if value > 0 else -1, mp.log(abs(value), 2))

    @classmethod
    def from_fraction(cls, value: Fraction) -> "LogNum":
        if value == 0:
            return cls.zero()
        with workprec(_prec()):
            num, den = abs(value.numerator), value.denominator
            return cls(1 if value > 0 else -1, mp.log(num, 2) - mp.log(den, 2))

    @classmethod
    def from_real(cls, value: Real) -> "LogNum":
        if isinstance(value, LogNum):
            return value
        if isinstance(value, int):
            return cls.from_int(value)
        if isinstance(value, Fraction):
            return cls.from_fraction(value)
        if isinstance(value, float):
            if value == 0.0:
                return cls.zero()
            with workprec(_prec()):
                return cls(1 if value > 0 else -1, mp.log(abs(mpf(value)), 2))
        raise TypeError(f"cannot convert {type(value).__name__} to LogNum")

    @classmethod
    def from_log2(cls, log2_magnitude, sign: int = 1) -> "LogNum":
        return cls(sign, log2_magnitude)

    @classmethod
    def exp_of(cls, exponent: Real) -> "LogNum":
        """e raised to `exponent`, where the exponent may itself be huge."""
        with workprec(_prec()):
            if isinstance(exponent, LogNum):
                x = exponent.magnitude_mpf() * exponent.sign
            else:
                x = _to_mpf(exponent)
            return cls(1, x * _log2e())

    # -- helpers -----------------------------------------------------------

    def magnitude_mpf(self) -> mpf:
        """|self| as an mpmath float (exponent range is unbounded)."""
        if self.sign == 0:
            return mpf(0)
        with workprec(_prec()):
            return mp.power(2, self.log2)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return float(self.sign * self.magnitude_mpf())

    def to_json(self) -> dict:
        if self.sign == 0:
            return {"sign": 0, "log2": "0"}
        return {"sign": self.sign, "log2": mp.nstr(self.log2, 30)}

    def __repr__(self):
        if self.sign == 0:
            return "LogNum(0)"
        s = "-" if self.sign < 0 else ""
        return f"LogNum({s}2^{mp.nstr(self.log2, 12)})"

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: Real) -> "LogNum":
        other = LogNum.from_real(other)
        if self.sign == 0 or other.sign == 0:
            return LogNum.zero()
        with workprec(_prec()):
            return LogNum(self.sign * other.sign, self.log2 + other.log2)

    __rmul__ = __mul__

    def __truediv__(self, other: Real) -> "LogNum":
        other = LogNum.from_real(other)
        if other.sign == 0:
            raise ZeroDivisionError("LogNum division by zero")
        if self.sign == 0:
            return LogNum.zero()
        with workprec(_prec()):
            return LogNum(self.sign * other.sign, self.log2 - other.log2)

    def __rtruediv__(self, other: Real) -> "LogNum":
        return LogNum.from_real(other) / self

    def __pow__(self, exponent) -> "LogNum":
        if self.sign == 0:
            if _positive_exponent(exponent):
                return LogNum.zero()
            raise ZeroDivisionError("zero LogNum to a non-positive power")
        with workprec(_prec()):
            if self.sign < 0:
                if isinstance(exponent, int):
                    return LogNum(-1 if exponent % 2 else 1,
                                  self.log2 * exponent)
                raise ValueError("non-integer power of a negative LogNum")
            if isinstance(exponent, LogNum):
                e = exponent.sign * exponent.magnitude_mpf()
            elif isinstance(exponent, Fraction):
                e = mpf(exponent.numerator) / exponent.denominator
            else:
                e = mpf(exponent)
            return LogNum(1, self.log2 * e)

    def __neg__(self) -> "LogNum":
        return LogNum(-self.sign, self.log2)

    def __add__(self, other: Real) -> "LogNum":
        other = LogNum.from_real(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        with workprec(_prec()):
            a, b = self, other
            if a.log2 < b.log2:
                a, b = b, a
            diff = b.log2 - a.log2  # <= 0
            if a.sign == b.sign:
                return LogNum(a.sign, a.log2 + mp.log(1 + mp.power(2, diff), 2))
            if a.log2 == b.log2:
                return LogNum.zero()
            return LogNum(a.sign, a.log2 + mp.log(1 - mp.power(2, diff), 2))

    __radd__ = __add__

    def __sub__(self, other: Real) -> "LogNum":
        return self + (-LogNum.from_real(other))

    def __rsub__(self, other: Real) -> "LogNum":
        return LogNum.from_real(other) + (-self)

    # -- comparisons ---------------------------------------------------------

    def _cmp(self, other: Real) -> int:
        other = LogNum.from_real(other)
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.sign == 0:
            return 0
        if self.log2 == other.log2:
            return 0
        bigger_mag = self.log2 > other.log2
        if self.sign > 0:
            return 1 if bigger_mag else -1
        return -1 if bigger_mag else 1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (LogNum, int, float, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    __hash__ = None  # equal to ints and floats, so no consistent hash


def _positive_exponent(exponent) -> bool:
    if isinstance(exponent, LogNum):
        return exponent.sign > 0
    return exponent > 0


def _to_mpf(value: Real) -> mpf:
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


def log2_value(value: int) -> LogNum:
    """The number log2(value) itself (not 2**value), as a LogNum."""
    if value <= 1:
        raise ValueError(f"log2 of {value} is not positive")
    with workprec(_prec()):
        x = mp.log(value, 2)
        return LogNum(1, mp.log(x, 2))


def floor_int_mul_log2(k_factor: int, m: int) -> int:
    """floor(k_factor * log2(m)) for positive integers, provably exact.

    Uses interval arithmetic at doubling precision until the bracketing
    interval no longer straddles an integer.  Terminates because the
    product is irrational unless m is a power of two (handled exactly).
    """
    if k_factor < 1 or m < 1:
        raise ValueError("floor_int_mul_log2 needs positive integers")
    if m == 1:
        return 0
    if m & (m - 1) == 0:
        return k_factor * (m.bit_length() - 1)
    prec = 64
    saved = iv.prec
    try:
        while True:
            iv.prec = prec
            val = iv.mpf(k_factor) * iv.log(iv.mpf(m)) / iv.log(iv.mpf(2))
            lo = mp.floor(mpf(val.a))
            hi = mp.floor(mpf(val.b))
            if lo == hi:
                return int(lo)
            prec *= 2
            if prec > 1 << 20:
                raise RuntimeError("interval bracketing failed to converge")
    finally:
        iv.prec = saved
