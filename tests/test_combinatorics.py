from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb, factorial, lcm

import pytest

from powersumkit import combinatorics
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
    sigma_h_triangle,
    stirling_first_unsigned,
    stirling_second,
    _sigma_h_int,
    _stirling1_row,
)
from powersumkit.exact import ConsistencyError
from powersumkit.goldens import LS_FIRST_ROWS_0_TO_7, LS_SECOND_ROWS_0_TO_7
from powersumkit.sequences import sequence
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
        sigma = elementary_prefix(sequence("naturals", n), n)
        for m in range(n + 1):
            assert stirling_first_unsigned(n + 1, n + 1 - m) == sigma[m]

    @pytest.mark.parametrize("n", range(0, 8))
    def test_h_identity(self, n):
        """{n+m over n} = h_m(1..n)."""
        h = complete_prefix(sequence("naturals", n), 14 - n)
        for m in range(14 - n + 1):
            assert stirling_second(n + m, n) == h[m]

    def test_cache_transparency(self):
        # a row read after clearing the table equals the row grown before
        grown = _stirling1_row(9)
        _stirling1_row.cache_clear()
        assert _stirling1_row.cache_info().currsize == 0
        assert _stirling1_row(9) == grown


def test_non_integer_sigma_is_consistency_error(monkeypatch):
    """Every sequence tag has int terms, so Fraction variables reach the
    integrality check only through a patched sequence."""
    monkeypatch.setattr(combinatorics, "sequence",
                        lambda tag, n, start: tuple(Fraction(1, i * i) for i in range(start, n + 1)))
    _sigma_h_int.cache_clear()
    with pytest.raises(ConsistencyError):
        _sigma_h_int("sigma", "naturals", 3, 1, 1)


def test_the_point_cache_keeps_sigma_and_h_apart():
    """r_stirling_second(5, 3, 1) and r_stirling_first(4, 2, 1) read the
    same variable set (1, 2, 3) and index m = 2, h_2 = 25 and sigma_2 = 11:
    only the kind in the key tells the two cache entries apart."""
    _sigma_h_int.cache_clear()
    assert r_stirling_second(5, 3, 1) == 25
    assert r_stirling_first(4, 2, 1) == 11


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
        sigma = elementary_prefix(sequence("squares", n), n)
        h = complete_prefix(sequence("squares", n), 6)
        for m in range(n + 1):
            assert central_factorial_first(n + 1, n + 1 - m, Parity.EVEN) == \
                (-1) ** m * sigma[m]
        for m in range(7):
            assert central_factorial_second(n + m, n, Parity.EVEN) == h[m]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_odd_families_match_odd_squares(self, n):
        sigma = elementary_prefix(sequence("odd_squares", n), n)
        h = complete_prefix(sequence("odd_squares", n), 6)
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


# The sigma/h-defined families against their own triangle recurrences,
# T(n, k) = T(n-1, k-1) + w(n, k) T(n-1, k).  The recurrences live here
# only, so the verify cells stay cross-checks of the sigma/h route, and
# this net guards a rewrite of that route.
SIGMA_H_TRIANGLES = {
    **{f"r_stirling_first r={r}": (partial(r_stirling_first, r=r), r, lambda n, k: n - 1)
       for r in (1, 2, 3)},
    **{f"r_stirling_second r={r}": (partial(r_stirling_second, r=r), r, lambda n, k: k)
       for r in (1, 2, 3)},
    "central_factorial_first even": (partial(central_factorial_first, parity=Parity.EVEN), 0,
                                     lambda n, k: -(n - 1) ** 2),
    "central_factorial_second even": (partial(central_factorial_second, parity=Parity.EVEN), 0,
                                      lambda n, k: k * k),
    "central_factorial_first odd": (partial(central_factorial_first, parity=Parity.ODD), 0,
                                    lambda n, k: -(2 * n - 1) ** 2),
    "central_factorial_second odd": (partial(central_factorial_second, parity=Parity.ODD), 0,
                                     lambda n, k: (2 * k + 1) ** 2),
    "legendre_stirling_first": (legendre_stirling_first, 0, lambda n, k: -n * (n - 1)),
    "legendre_stirling_second": (legendre_stirling_second, 0, lambda n, k: k * (k + 1)),
}


def _recurrence_rows(first, weight, last):
    """Rows first..last of T(n, k) = T(n-1, k-1) + w(n, k) T(n-1, k), with
    row `first` equal to delta(k, first)."""
    row = [int(k == first) for k in range(first + 1)]
    for n in range(first, last + 1):
        if n > first:
            prev = row + [0]
            row = [(prev[k - 1] if k else 0) + weight(n, k) * prev[k] for k in range(n + 1)]
        yield n, row


@pytest.mark.parametrize("name", sorted(SIGMA_H_TRIANGLES))
def test_sigma_h_families_follow_their_triangle_recurrences(name):
    """Rows first..24, with row `first` (r for the r-Stirling numbers, else
    0) equal to delta(k, first)."""
    cell, first, weight = SIGMA_H_TRIANGLES[name]
    for n, row in _recurrence_rows(first, weight, 24):
        assert [cell(n, k) for k in range(n + 1)] == row, f"row {n}"


# each family of the `table` command -> its cells' entry in SIGMA_H_TRIANGLES
TABLE_FAMILIES = {
    "ls1": "legendre_stirling_first",
    "ls2": "legendre_stirling_second",
    "central_u": "central_factorial_first even",
    "central_U": "central_factorial_second even",
    "central_v": "central_factorial_first odd",
    "central_V": "central_factorial_second odd",
}


def test_table_families_are_the_sigma_h_families():
    assert sorted(combinatorics.SIGMA_H_FAMILIES) == sorted(TABLE_FAMILIES)


@pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
def test_sigma_h_triangle_follows_the_recurrence_to_row_64(family):
    """The one-pass triangle, rows 0..64, against the same recurrences:
    a depth the cell-by-cell check above cannot reach cheaply."""
    _, first, weight = SIGMA_H_TRIANGLES[TABLE_FAMILIES[family]]
    table = sigma_h_triangle(family, 64)
    assert len(table) == 65
    for n, row in _recurrence_rows(first, weight, 64):
        assert table[n] == row, f"row {n}"


def test_sigma_h_triangle_refuses_bad_arguments():
    with pytest.raises(ValueError, match="unknown sigma/h family 'stirling1'"):
        sigma_h_triangle("stirling1", 3)
    with pytest.raises(ValueError, match="rows must be >= 0"):
        sigma_h_triangle("ls1", -1)
    for bad in (True, 2.0, Fraction(2)):
        with pytest.raises(TypeError):
            sigma_h_triangle("ls2", bad)


@pytest.mark.parametrize("family", ["ls1", "central_V"])
def test_non_integer_triangle_entry_is_consistency_error(family, monkeypatch):
    """Every entry of a one-pass triangle goes through the integrality
    check, as every cell does."""
    monkeypatch.setattr(combinatorics, "sequence",
                        lambda tag, n: tuple(Fraction(1, i * i) for i in range(1, n + 1)))
    with pytest.raises(ConsistencyError):
        sigma_h_triangle(family, 4)


# Every triangle cell function and binomial, the r-Stirling ones aside,
# over the 0 <= k <= n rule alone
ROW_0_CELLS = {
    "binomial": binomial,
    "stirling_first_unsigned": stirling_first_unsigned,
    "stirling_second": stirling_second,
    **{f"{cell.__name__} {parity.value}": partial(cell, parity=parity)
       for cell in (central_factorial_first, central_factorial_second) for parity in Parity},
    "legendre_stirling_first": legendre_stirling_first,
    "legendre_stirling_second": legendre_stirling_second,
}


@pytest.mark.parametrize("name", sorted(ROW_0_CELLS))
def test_row_0_holds_one_cell_and_reads_0_either_side(name):
    """The triangle rule at n = 0: (0, 0) is 1, and (0, 1) and (0, -1) lie
    outside 0 <= k <= n, so they are 0 and raise nothing."""
    cell = ROW_0_CELLS[name]
    assert (cell(0, 0), cell(0, 1), cell(0, -1)) == (1, 0, 0)


@pytest.mark.parametrize("cell", [r_stirling_first, r_stirling_second])
def test_r_stirling_cells_at_n_0_have_no_r(cell):
    """1 <= r <= n has no r at n = 0, inside the row or outside it."""
    for k in (0, 1, -1):
        with pytest.raises(ValueError, match="need 1 <= r <= n"):
            cell(0, k, 1)


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
        assert bernoulli_polynomial(2, Fraction(1, 2)) == Fraction(-1, 12)
        assert bernoulli_polynomial(1, 1) == Fraction(1, 2)

    @pytest.mark.parametrize("k", range(0, 13))
    def test_polynomial_at_zero_is_number(self, k):
        assert bernoulli_polynomial(k, 0) == bernoulli_number(k)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_telescoping_at_one(self, k):
        assert bernoulli_polynomial(k, 1) - bernoulli_polynomial(k, 0) == 0

    def test_b1_difference_pattern(self):
        assert bernoulli_polynomial(1, 1) - bernoulli_number(1) == 1


def _bernoulli_by_recurrence(kmax):
    """B_0..B_kmax from the defining recurrence sum_{j<=k} C(k+1, j) B_j = 0,
    a Fraction route that shares nothing with the tangent numbers."""
    b = [Fraction(1)]
    for k in range(1, kmax + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


ORACLE_B = _bernoulli_by_recurrence(300)


class TestBernoulliAgainstRecurrence:
    @pytest.mark.parametrize("order", ["one-shot", "ascending", "scattered"])
    def test_numbers_match_the_recurrence(self, order):
        """However the block table grows, B_0..B_300 equal the recurrence and
        each term carries the lcm of the denominators up to it."""
        combinatorics._bernoulli.cache_clear()
        ks = {"one-shot": [300], "ascending": range(301),
              "scattered": [5, 4, 17, 18, 100, 33, 201, 300]}[order]
        for k in ks:
            bernoulli_number(k)
        assert [bernoulli_number(k) for k in range(301)] == ORACLE_B
        assert [combinatorics._bernoulli(k)[1] for k in range(301)] == \
            list(accumulate((b.denominator for b in ORACLE_B), lcm))
        assert all(type(b) is Fraction for b in map(bernoulli_number, range(301)))

    @pytest.mark.parametrize("k", range(0, 61))
    def test_polynomials_match_the_recurrence(self, k):
        # B_k(x) = sum_i C(k, i) B_i x^(k-i), by a Fraction Horner loop
        for x in (0, 1, -1, 51, Fraction(1, 2), Fraction(-3, 7), Fraction(22, 5)):
            expected = Fraction(0)
            for d in range(k, -1, -1):
                expected = expected * x + comb(k, d) * ORACLE_B[k - d]
            got = bernoulli_polynomial(k, x)
            assert type(got) is Fraction and got == expected, x
