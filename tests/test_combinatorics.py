from fractions import Fraction
from math import factorial

import pytest

from powersumkit.combinatorics import (
    Parity,
    bernoulli_number,
    bernoulli_polynomial,
    binomial,
    central_factorial_first,
    central_factorial_second,
    legendre_stirling_first,
    legendre_stirling_second,
    r_stirling_first,
    r_stirling_second,
    stirling_first_unsigned,
    stirling_second,
    _sigma_int,
    _stirling1_row,
)
from powersumkit.exact import ConsistencyError
from powersumkit.goldens import LS_FIRST_ROWS_0_TO_7, LS_SECOND_ROWS_0_TO_7
from powersumkit.sequences import SequenceSpec
from powersumkit.symfuncs import complete_prefix, elementary_prefix


def test_binomial_basic():
    assert binomial(5, 2) == 10
    assert binomial(4, 3) == 4
    assert binomial(6, 7) == 0
    assert binomial(6, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


class TestStirling:
    def test_first_kind_values(self):
        assert stirling_first_unsigned(4, 2) == 11
        assert stirling_first_unsigned(5, 1) == 24  # (5-1)!
        for n in range(11):
            assert stirling_first_unsigned(n, n) == 1

    def test_second_kind_values(self):
        assert stirling_second(3, 2) == 3
        assert stirling_second(7, 7) == 1
        for n in range(1, 11):
            assert stirling_second(n, 1) == 1

    def test_out_of_range_is_zero(self):
        assert stirling_first_unsigned(3, 5) == 0
        assert stirling_second(3, -1) == 0

    @pytest.mark.parametrize("n", range(0, 11))
    def test_first_kind_row_sum_is_factorial(self, n):
        assert sum(stirling_first_unsigned(n, k) for k in range(n + 1)) == factorial(n)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_sigma_identity(self, n):
        """[n+1 over n+1-m] = sigma_m(1..n)."""
        sigma = elementary_prefix(SequenceSpec("naturals", n), n)
        for m in range(n + 1):
            assert stirling_first_unsigned(n + 1, n + 1 - m) == sigma[m]

    @pytest.mark.parametrize("n", range(0, 8))
    def test_h_identity(self, n):
        """{n+m over n} = h_m(1..n)."""
        h = complete_prefix(SequenceSpec("naturals", n), 14 - n)
        for m in range(14 - n + 1):
            assert stirling_second(n + m, n) == h[m]

    def test_cache_transparency(self):
        # a row read after clearing the table equals the row grown before
        grown = _stirling1_row(9)
        _stirling1_row.cache_clear()
        assert _stirling1_row.cache_info().currsize == 0
        assert _stirling1_row(9) == grown


def test_non_integer_sigma_is_consistency_error():
    with pytest.raises(ConsistencyError):
        _sigma_int(SequenceSpec("inverse_squares", 3), 1)


class TestRStirling:
    def test_reduces_to_plain_stirling_at_r1(self):
        for n in range(1, 9):
            for k in range(0, n + 1):
                assert r_stirling_first(n, k, 1) == stirling_first_unsigned(n, k)
                assert r_stirling_second(n, k, 1) == stirling_second(n, k)

    def test_sigma_example(self):
        # [n+1 over n+1-m]_r with r=2, n=3, m=1 is sigma_1(2,3) = 5
        assert r_stirling_first(4, 3, 2) == 5

    def test_zero_convention_above_variable_count(self):
        # sigma_m(r..n) = 0 whenever m > n+1-r
        n, r = 5, 3
        for m in range(n + 2 - r, n + 2):
            assert r_stirling_first(n + 1, n + 1 - m, r) == 0

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            r_stirling_first(3, 2, 0)
        with pytest.raises(ValueError):
            r_stirling_second(3, 2, 4)


class TestCentralFactorial:
    def test_first_kind_examples(self):
        assert central_factorial_first(3, 2, Parity.EVEN) == -5   # -sigma_1(1,4)
        assert central_factorial_first(2, 1, Parity.ODD) == -10   # -sigma_1(1,9)

    def test_second_kind_diagonal(self):
        for n in range(0, 9):
            assert central_factorial_second(n, n, Parity.EVEN) == 1
            assert central_factorial_second(n, n, Parity.ODD) == 1

    def test_parity_is_a_member_or_its_value(self):
        assert central_factorial_first(3, 1, "even") == 4   # u(3, 1), not v(3, 1) = 259
        assert central_factorial_second(3, 1, "even") == 1  # U(3, 1), not V(3, 1) = 91
        for parity in Parity:
            for n in range(6):
                for k in range(n + 1):
                    assert central_factorial_first(n, k, parity.value) == \
                        central_factorial_first(n, k, parity)
                    assert central_factorial_second(n, k, parity.value) == \
                        central_factorial_second(n, k, parity)
        for bad in ("EVEN", "bogus", None, True, 0):
            with pytest.raises(ValueError):
                central_factorial_first(3, 1, bad)
            with pytest.raises(ValueError):
                central_factorial_second(3, 1, bad)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_even_families_match_squares(self, n):
        sigma = elementary_prefix(SequenceSpec("squares", n), n)
        h = complete_prefix(SequenceSpec("squares", n), 6)
        for m in range(n + 1):
            assert central_factorial_first(n + 1, n + 1 - m, Parity.EVEN) == \
                (-1) ** m * sigma[m]
        for m in range(7):
            assert central_factorial_second(n + m, n, Parity.EVEN) == h[m]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_odd_families_match_odd_squares(self, n):
        sigma = elementary_prefix(SequenceSpec("odd_squares", n), n)
        h = complete_prefix(SequenceSpec("odd_squares", n), 6)
        for m in range(n + 1):
            assert central_factorial_first(n, n - m, Parity.ODD) == \
                (-1) ** m * sigma[m]
        for m in range(7):
            assert central_factorial_second(n - 1 + m, n - 1, Parity.ODD) == h[m]


class TestLegendreStirling:
    def test_named_cells(self):
        assert legendre_stirling_first(4, 2) == 108
        assert legendre_stirling_second(5, 2) == 320
        assert legendre_stirling_first(7, 1) == 3628800

    def test_golden_tables(self):
        for n, row in enumerate(LS_FIRST_ROWS_0_TO_7):
            assert [legendre_stirling_first(n, j) for j in range(n + 1)] == list(row)
        for n, row in enumerate(LS_SECOND_ROWS_0_TO_7):
            assert [legendre_stirling_second(n, j) for j in range(n + 1)] == list(row)

    def test_boundary_rows(self):
        assert legendre_stirling_first(0, 0) == 1
        assert legendre_stirling_second(0, 0) == 1
        for n in range(1, 8):
            assert legendre_stirling_first(n, 0) == 0
            assert legendre_stirling_second(n, 0) == 0


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(3) == 0
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for k in range(3, 20, 2):
            assert bernoulli_number(k) == 0

    def test_polynomial_examples(self):
        assert bernoulli_polynomial(2)(Fraction(1, 2)) == Fraction(-1, 12)
        assert bernoulli_polynomial(1)(1) == Fraction(1, 2)

    @pytest.mark.parametrize("k", range(0, 13))
    def test_polynomial_at_zero_is_number(self, k):
        assert bernoulli_polynomial(k)(0) == bernoulli_number(k)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_telescoping_at_one(self, k):
        bp = bernoulli_polynomial(k)
        assert bp(1) - bp(0) == 0

    def test_b1_difference_pattern(self):
        bp1 = bernoulli_polynomial(1)
        assert bp1(1) - bernoulli_number(1) == 1
