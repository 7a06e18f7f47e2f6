"""Certified numbers (`ramseykit.intervals`): conversions, arithmetic,
comparisons, the JSON encoding, `settle` and the exact floor of K*log2(M).

Each result is checked to contain the exact rational answer, with the
interval's endpoints read back as exact Fractions."""

import math
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv, mp, workprec

from ramseykit.bounds import fkg_girth_bound
from ramseykit.intervals import (
    MAX_PREC,
    START_PREC,
    exp,
    floor_int_mul_log2,
    log2,
    real,
    settle,
    to_json,
)


@pytest.fixture(autouse=True)
def start_prec():
    """Test-side arithmetic runs at the precision the package computes at."""
    saved = iv.prec
    iv.prec = START_PREC
    yield
    iv.prec = saved


def ends(x) -> tuple[Fraction, Fraction]:
    """The endpoints of the interval `x`, exactly."""
    out = []
    for end in (x.a, x.b):
        v = mp.convert(end)
        man, e = v.man_exp  # the magnitude's mantissa
        out.append(Fraction(-man if v < 0 else man) * Fraction(2) ** e)
    return tuple(out)


def holds(x, q) -> bool:
    lo, hi = ends(x)
    return lo <= q <= hi


class TestConversions:
    def test_int_roundtrip(self):
        for v in (1, 2, 17, -5, 10**40, 3**100):
            assert holds(real(v), v)
            assert to_json(v)["sign"] == (1 if v > 0 else -1)
        assert to_json(1024) == {"sign": 1, "log2": "10.0"}
        assert to_json(0) == {"sign": 0, "log2": "0"}

    def test_fraction(self):
        x = real(Fraction(1, 8))
        assert x == 0.125  # a power of two is a point
        assert to_json(x)["log2"] == "-3.0"
        assert holds(real(Fraction(-3, 7)), Fraction(-3, 7))

    def test_float_matches(self):
        assert real(0.125) == real(Fraction(1, 8))

    def test_to_json_digits(self):
        # 96 bits carry about 28.9 decimal digits; 30 are printed
        assert to_json(3)["log2"][:28] == "1.58496250072115618145373894"
        third = to_json(Fraction(-1, 3))
        assert third["sign"] == -1
        assert third["log2"][:29] == "-1.58496250072115618145373894"
        with pytest.raises(ValueError):
            to_json(iv.mpf([-1, 1]))  # no sign to report


class TestArithmetic:
    def test_mul_div_pow(self):
        a, b = real(6), real(4)
        assert holds(a * b, 24)
        assert holds(a / b, Fraction(3, 2))
        assert holds(a**3, 216)
        assert holds((a ** real(Fraction(1, 2))) ** 2, 6)

    def test_negative_sign_rules(self):
        a = real(-3)
        assert holds(a * a, 9)
        assert holds(a**3, -27)
        assert holds(a**2, 9)
        assert to_json(a**3)["sign"] == -1

    def test_addition_against_floats(self):
        rng = random.Random(3)
        for _ in range(200):
            x = rng.uniform(-50, 50)
            y = rng.uniform(-50, 50)
            assert holds(real(x) + real(y), Fraction(x) + Fraction(y))

    def test_subtraction_cancel(self):
        assert real(7) - 7 == 0
        assert to_json(real(7) - 7)["sign"] == 0

    def test_addition_huge_scale(self):
        a = real(2) ** 10**6
        s = a + 1
        assert holds(s, 2**10**6 + 1)
        assert abs(log2(s) - 10**6) < 1e-20  # the tiny summand, stably

    def test_pow_with_lognum_exponent(self):
        assert holds(real(2) ** real(100), 2**100)
        assert abs(log2(real(2) ** (real(10) ** 2)) - 100) < 1e-20

    def test_comparisons(self):
        vals = [real(v) for v in (-4, -0.5, 0, 0.25, 3)]
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                assert (a < b) == (i < j)
                assert (a >= b) == (i >= j)
        assert real(5) == 5
        third = real(Fraction(1, 3))
        assert (third < third) is None  # overlapping: undecided

    def test_exp_of(self):
        assert float(exp(1).mid) == pytest.approx(math.e)
        assert float(exp(-2).mid) == pytest.approx(math.exp(-2))
        assert exp(1).delta < 2**-90
        # exponents far beyond float range are bracketed directly
        assert exp(real(2) ** 2422) > real(10) ** 100000
        assert 0 < exp(-real(2) ** 2000) < real(10) ** -100000


small = st.one_of(st.integers(-50, 50),
                  st.fractions(max_denominator=50).filter(
                      lambda q: abs(q) <= 50))


@settings(max_examples=300, deadline=None)
@given(x=small, y=small, e=st.integers(0, 12))
def test_arithmetic_holds_the_exact_rational(x, y, e):
    """+ - * / and integer powers on intervals hold the Fraction result."""
    a, b = real(x), real(y)
    x, y = Fraction(x), Fraction(y)
    assert holds(a + b, x + y)
    assert holds(a - b, x - y)
    assert holds(a * b, x * y)
    assert holds(a**e, x**e)
    if y:
        assert holds(a / b, x / y)


@pytest.mark.parametrize("p", [Fraction(1, 7), Fraction(1, 2),
                               Fraction(9, 10)])
def test_fkg_product_holds_the_exact_rational(p):
    for n in range(3, 13):
        for k in range(4, 7):
            exact = Fraction(1)
            for j in range(3, k):
                exact *= (1 - p**j) ** (factorial(j - 1) // 2 * comb(n, j))
            assert holds(fkg_girth_bound(n, p, k).product, exact), (n, k)


class TestSettle:
    def test_raises_on_a_tie_and_restores_precision(self):
        saved = iv.prec
        third = Fraction(1, 3)
        with pytest.raises(RuntimeError, match="third <= third did not "
                                               "settle"):
            settle(lambda: ({"third <= third": real(third) <= real(third)},
                            None))
        assert iv.prec == saved

    def test_raises_precision_until_disjoint(self):
        seen = []

        def evaluate():
            seen.append(iv.prec)
            gap = real(Fraction(1, 3)) + real(Fraction(1, 2**150))
            below = real(Fraction(1, 3)) < gap
            return {"gap": below}, below

        assert settle(evaluate) is True
        assert seen == [START_PREC, 2 * START_PREC]

    def test_starts_at_the_ambient_precision(self):
        with workprec(4 * START_PREC):
            assert settle(lambda: ({}, iv.prec)) == 4 * START_PREC
        assert MAX_PREC == 1 << 14


class TestFloorLog:
    def brute(self, k, m):
        # integer-only oracle: largest s with 2^s <= m^k, via big ints
        return (m**k).bit_length() - 1

    def test_small_cases_exact(self):
        for k in range(1, 30):
            for m in range(2, 40):
                assert floor_int_mul_log2(k, m) == self.brute(k, m)

    def test_powers_of_two(self):
        assert floor_int_mul_log2(7, 1024) == 70
        assert floor_int_mul_log2(10**30, 2) == 10**30

    def test_large_factor(self):
        # K = 800*4*(4!)^3, M = 2*6^4: the container fingerprint length
        k_const = 800 * 4 * 24**3
        assert k_const == 44236800
        s = floor_int_mul_log2(k_const, 2592)
        # bracket with plain floats as a sanity envelope
        assert abs(s - k_const * math.log2(2592)) < 1

    def test_products_beyond_double_range(self):
        # K = 800*10*(10!)^3, the cliques constant at k = 5: K*log2(3)
        # is near 2^79, where a 53-bit endpoint loses the integer part
        k_const = 800 * 10 * factorial(10) ** 3
        s = floor_int_mul_log2(k_const, 3)
        assert s == 605895988507507001747967
        with workprec(400):
            assert s == int(mp.floor(k_const * mp.log(3, 2)))

    def test_log2_value(self):
        assert float(log2(2592).mid) == pytest.approx(math.log2(2592))
        assert holds(real(2) ** log2(2592), 2592)

    def test_precision_independence(self):
        with workprec(53):
            low = floor_int_mul_log2(999999937, 10**9 + 7)
        with workprec(500):
            high = floor_int_mul_log2(999999937, 10**9 + 7)
        assert low == high
