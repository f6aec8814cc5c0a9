from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersumkit.exact import Poly
from powersumkit.sequences import SequenceSpec
from powersumkit.symfuncs import (
    complete_prefix,
    elementary_prefix,
    newton_girard_power_sums,
    orthogonality_residual,
    pn_polynomial_coeffs,
    power_sum_from_sigma_h,
    power_sum_via_lang,
    power_sums_direct,
)

ALL_TAGS = [
    "naturals",
    "ones",
    "squares",
    "odd_squares",
    "doubled_triangulars",
    "inverse_squares",
]

small_vars = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    max_size=7)


def test_elementary_naturals_3():
    assert elementary_prefix(SequenceSpec("naturals", 3), 2) == [1, 6, 11]


def test_elementary_ones_is_binomial_row():
    assert elementary_prefix(SequenceSpec("ones", 4), 3) == [1, 4, 6, 4]


def test_elementary_m_zero():
    assert elementary_prefix(SequenceSpec("squares", 9), 0) == [1]


def test_elementary_empty_sequence():
    assert elementary_prefix([], 4) == [1, 0, 0, 0, 0]


def test_complete_naturals_2():
    # h_m(1, 2) = 2^(m+1) - 1
    assert complete_prefix(SequenceSpec("naturals", 2), 3) == [1, 3, 7, 15]


def test_complete_ones():
    assert complete_prefix(SequenceSpec("ones", 3), 2) == [1, 3, 6]


def test_complete_doubled_triangulars():
    assert complete_prefix(SequenceSpec("doubled_triangulars", 2), 3) == [1, 8, 52, 320]


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 7) for m in range(0, 9)])
def test_ones_rows_match_binomials(n, m):
    assert elementary_prefix(SequenceSpec("ones", n), m)[m] == comb(n, m)
    assert complete_prefix(SequenceSpec("ones", n), m)[m] == comb(n + m - 1, m)


def test_power_sums_direct():
    assert power_sums_direct(SequenceSpec("naturals", 4), 2) == [10, 30]
    assert power_sums_direct(SequenceSpec("odd_squares", 2), 1) == [10]
    assert power_sums_direct(SequenceSpec("ones", 5), 3) == [5, 5, 5]


def test_power_sum_via_lang_examples():
    assert power_sum_via_lang(SequenceSpec("naturals", 2), 2) == 5
    assert power_sum_via_lang(SequenceSpec("ones", 3), 4) == 3
    inv = SequenceSpec("inverse_squares", 50)
    assert power_sum_via_lang(inv, 1) == sum(Fraction(1, i * i) for i in range(1, 51))


def test_power_sum_from_sigma_h():
    # naturals 1..3: sigma = 6, 11, 6 and h = 1, 6, 25 give p_3 = 36
    assert power_sum_from_sigma_h([6, 11, 6], [1, 6, 25]) == 36
    assert type(power_sum_from_sigma_h([6, 11, 6], [1, 6, 25])) is int
    assert power_sum_from_sigma_h([], []) == 0
    assert power_sum_from_sigma_h([Fraction(1, 4)], [1]) == Fraction(1, 4)
    with pytest.raises(ValueError):
        power_sum_from_sigma_h([6, 11], [1])


@pytest.mark.parametrize("tag", ALL_TAGS)
@pytest.mark.parametrize("n", range(0, 13, 3))
def test_lang_matches_direct_all_tags(tag, n):
    seq = SequenceSpec(tag, n)
    direct = power_sums_direct(seq, 10)
    for k in range(1, 11):
        assert power_sum_via_lang(seq, k) == direct[k - 1]


def test_newton_girard_naturals_3():
    sigma = elementary_prefix(SequenceSpec("naturals", 3), 3)
    assert newton_girard_power_sums(sigma, 3) == [6, 14, 36]


def test_newton_girard_single_variable():
    x = Fraction(7, 3)
    assert newton_girard_power_sums([Fraction(1), x], 5) == [x ** m for m in range(1, 6)]


def test_newton_girard_k1_is_sigma1():
    assert newton_girard_power_sums([Fraction(1), Fraction(42)], 1) == [42]


def test_newton_girard_requires_unit_sigma0():
    with pytest.raises(ValueError):
        newton_girard_power_sums([Fraction(2), Fraction(1)], 2)


@given(small_vars, st.integers(1, 8))
def test_newton_girard_matches_direct(xs, K):
    sigma = elementary_prefix(xs, K)
    assert newton_girard_power_sums(sigma, K) == \
        (power_sums_direct(xs, K) if xs else [Fraction(0)] * K)


def test_orthogonality_examples():
    assert orthogonality_residual(SequenceSpec("naturals", 5), 0) == 1
    assert orthogonality_residual(SequenceSpec("naturals", 5), 3) == 0
    assert orthogonality_residual(SequenceSpec("doubled_triangulars", 4), 6) == 0


@given(small_vars, st.integers(0, 10))
def test_orthogonality_is_kronecker_delta(xs, k):
    res = orthogonality_residual(xs, k)
    assert res == (1 if k == 0 else 0)


def test_pn_poly_base_cases():
    assert pn_polynomial_coeffs(1) == Poly([1])
    assert pn_polynomial_coeffs(2) == Poly([2, -3])
    assert pn_polynomial_coeffs(3).coeff(2) == 11


@pytest.mark.parametrize("n", range(1, 13))
def test_pn_coefficient_law(n):
    """Coefficient of x^m is (n-m) * (-1)^m * sigma_m(1..n)."""
    poly = pn_polynomial_coeffs(n)
    sigma = elementary_prefix(SequenceSpec("naturals", n), n)
    assert poly.degree == n - 1
    for m in range(n):
        assert poly.coeff(m) == (n - m) * (-1) ** m * sigma[m]


def test_unknown_sequence_tag_fails_at_construction():
    with pytest.raises(ValueError):
        SequenceSpec("bogus", 3)
