"""Differential tests against SymPy and mpmath, an implementation that
shares no code with the library.  They are skipped where SymPy is not
installed; the library itself depends on neither."""

from fractions import Fraction

import pytest

from powersumkit.combinatorics import (
    bernoulli_number,
    bernoulli_polynomial,
    stirling_first_unsigned,
    stirling_second,
)
from powersumkit.zeta import zeta_even_exact

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
stirling = sympy.functions.combinatorial.numbers.stirling


def _fraction(r) -> Fraction:
    """A SymPy Rational as a Fraction."""
    return Fraction(int(r.p), int(r.q))


def test_stirling_numbers_match_sympy():
    for n in range(31):
        for k in range(n + 1):
            assert stirling_first_unsigned(n, k) == stirling(n, k, kind=1, signed=False)
            assert stirling_second(n, k) == stirling(n, k, kind=2)


def test_bernoulli_numbers_match_sympy():
    # SymPy takes B_1 = +1/2 since 1.12; the library takes B_1 = -1/2
    expected = [_fraction(sympy.bernoulli(k)) for k in range(301)]
    expected[1] = Fraction(-1, 2)
    assert [bernoulli_number(k) for k in range(301)] == expected


@pytest.mark.parametrize("x", [0, 1, -1, Fraction(1, 2), Fraction(-3, 7), 51])
def test_bernoulli_polynomials_match_sympy(x):
    # the polynomials agree in both conventions: B_1(x) = x - 1/2
    point = sympy.Rational(x.numerator, x.denominator)
    for k in range(41):
        assert bernoulli_polynomial(k, x) == _fraction(sympy.bernoulli(k, point)), k


def test_zeta_coefficients_match_sympy():
    for k in range(1, 61):
        value = zeta_even_exact(k)
        assert value.half_exponent == k
        assert value.coeff == _fraction(sympy.zeta(2 * k) / sympy.pi ** (2 * k)), k


def test_zeta_values_match_mpmath_to_60_digits():
    with mpmath.workdps(70):
        for k in range(1, 61):
            coeff = zeta_even_exact(k).coeff
            exact = mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.pi ** (2 * k)
            assert abs(exact / mpmath.zeta(2 * k) - 1) < mpmath.mpf(10) ** -60, k
