import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, workprec

from ramseykit.lognum import LogNum, floor_int_mul_log2, log2_value


class TestConversions:
    def test_int_roundtrip(self):
        for v in (1, 2, 17, -5, 10**40):
            assert LogNum.from_int(v).sign == (1 if v > 0 else -1)
        assert LogNum.from_int(1024).log2 == 10
        assert LogNum.from_int(0).sign == 0

    def test_fraction(self):
        x = LogNum.from_fraction(Fraction(1, 8))
        assert x.log2 == -3

    def test_float_matches(self):
        x = LogNum.from_real(0.125)
        assert x.log2 == -3

    def test_to_float(self):
        assert LogNum.from_int(12).to_float() == pytest.approx(12.0)
        assert LogNum.from_fraction(Fraction(-3, 4)).to_float() == pytest.approx(-0.75)


class TestArithmetic:
    def test_mul_div_pow(self):
        a = LogNum.from_int(6)
        b = LogNum.from_int(4)
        assert (a * b).to_float() == pytest.approx(24.0)
        assert (a / b).to_float() == pytest.approx(1.5)
        assert (a ** 3).to_float() == pytest.approx(216.0)
        assert (a ** Fraction(1, 2)).to_float() == pytest.approx(math.sqrt(6))

    def test_negative_sign_rules(self):
        a = LogNum.from_int(-3)
        assert (a * a).to_float() == pytest.approx(9.0)
        assert (a ** 3).to_float() == pytest.approx(-27.0)
        assert (a ** 2).to_float() == pytest.approx(9.0)
        with pytest.raises(ValueError):
            a ** 0.5

    def test_addition_against_floats(self):
        rng = random.Random(3)
        for _ in range(200):
            x = rng.uniform(-50, 50)
            y = rng.uniform(-50, 50)
            got = (LogNum.from_real(x) + LogNum.from_real(y)).to_float()
            assert got == pytest.approx(x + y, rel=1e-12, abs=1e-12)

    def test_subtraction_cancel(self):
        a = LogNum.from_int(7)
        assert (a - 7).sign == 0

    def test_addition_huge_scale(self):
        a = LogNum.from_log2(10**6)
        b = LogNum.one()
        s = a + b
        assert s.log2 == a.log2  # the tiny summand vanishes, stably

    def test_pow_with_lognum_exponent(self):
        base = LogNum.from_int(2)
        expo = LogNum.from_int(100)
        assert abs(float((base ** expo).log2) - 100) < 1e-20

    def test_comparisons(self):
        vals = [LogNum.from_real(v) for v in (-4, -0.5, 0, 0.25, 3)]
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                assert (a < b) == (i < j)
                assert (a >= b) == (i >= j)
        assert LogNum.from_int(5) == 5

    def test_unhashable(self):
        # equal to the int 4, so a hash of its own would break dict lookups
        with pytest.raises(TypeError):
            hash(LogNum.from_int(4))

    def test_exp_of(self):
        assert LogNum.exp_of(1).to_float() == pytest.approx(math.e)
        assert LogNum.exp_of(-2).to_float() == pytest.approx(math.exp(-2))


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

    def test_log2_value(self):
        assert log2_value(2592).to_float() == pytest.approx(math.log2(2592))

    def test_precision_independence(self):
        with workprec(53):
            low = floor_int_mul_log2(999999937, 10**9 + 7)
        with workprec(500):
            high = floor_int_mul_log2(999999937, 10**9 + 7)
        assert low == high
