import math
from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm

import pytest

from powersumkit import zeta
from powersumkit.combinatorics import bernoulli_number
from powersumkit.zeta import (
    bernoulli_binomial_identity,
    bernoulli_even_recursion,
    h_inverse_squares_check,
    merca_ls_bernoulli_identity,
    sigma_inverse_squares,
    zeta_even_classical,
    zeta_even_exact,
)


def test_sigma_inverse_squares():
    assert sigma_inverse_squares(0).coeff == 1
    assert sigma_inverse_squares(0).half_exponent == 0
    assert sigma_inverse_squares(1).coeff == Fraction(1, 6)
    assert sigma_inverse_squares(3) .coeff == Fraction(1, 5040)
    assert sigma_inverse_squares(3).half_exponent == 3


def test_zeta_small_values():
    assert zeta_even_exact(1).coeff == Fraction(1, 6)
    assert zeta_even_exact(2).coeff == Fraction(1, 90)
    assert zeta_even_exact(3).coeff == Fraction(1, 945)
    assert zeta_even_exact(5).coeff == Fraction(1, 93555)


def test_zeta_half_exponent_tracks_k():
    for k in range(1, 6):
        assert zeta_even_exact(k).half_exponent == k


@pytest.mark.parametrize("k", range(1, 16))
def test_zeta_matches_classical_bernoulli_oracle(k):
    """Independent closed form: (-1)^(k+1) B_2k 2^(2k-1) pi^2k / (2k)!."""
    expected = (-1) ** (k + 1) * bernoulli_number(2 * k) \
        * Fraction(2 ** (2 * k - 1), factorial(2 * k))
    assert zeta_even_exact(k).coeff == expected
    assert zeta_even_classical(k).coeff == expected


@pytest.mark.parametrize("k", range(1, 11))
def test_zeta_float_approaches_one(k):
    # presentation-only float check: zeta(2k) -> 1 from above as k grows
    val = float(zeta_even_exact(k).coeff) * math.pi ** (2 * k)
    assert val > 1
    assert val - 1 < 1.65  # zeta(2) is the largest
    if k == 10:
        assert abs(val - 1) < 1e-5
    # Euler-Maclaurin-corrected partial sum as an independent float reference
    N = 10000
    s = 2 * k
    ref = sum(1.0 / i ** s for i in range(1, N + 1))
    ref += N ** (1 - s) / (s - 1) - N ** (-s) / 2 + s / (12 * N ** (s + 1))
    assert abs(val - ref) < 1e-9


def test_zeta_coefficients_positive_and_decreasing():
    coeffs = [zeta_even_exact(k).coeff for k in range(1, 16)]
    assert all(c > 0 for c in coeffs)
    assert all(a > b for a, b in zip(coeffs, coeffs[1:]))


@pytest.mark.parametrize("k", range(1, 9))
def test_h_inverse_squares_consistency(k):
    assert h_inverse_squares_check(k) == 0


@pytest.mark.parametrize("k", range(1, 26))
def test_bernoulli_binomial_identity(k):
    assert bernoulli_binomial_identity(k) == 0


def test_bernoulli_binomial_identity_k1_parts():
    # LHS = B_2/2 = 1/12; RHS = 1/(2 * C(4,2)) = 1/12
    assert bernoulli_number(2) / 2 == Fraction(1, 12)
    assert bernoulli_binomial_identity(1) == 0


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("n", range(1, 9))
def test_merca_ls_bernoulli_identity(k, n):
    assert merca_ls_bernoulli_identity(k, n) == 0


@pytest.mark.parametrize("k", range(1, 16))
def test_bernoulli_even_recursion(k):
    assert bernoulli_even_recursion(k) == bernoulli_number(2 * k)


def test_bernoulli_even_recursion_base():
    assert bernoulli_even_recursion(1) == Fraction(1, 6)
    assert bernoulli_even_recursion(2) == Fraction(-1, 30)
    assert bernoulli_even_recursion(6) == Fraction(-691, 2730)


def test_domain_errors():
    with pytest.raises(ValueError):
        zeta_even_exact(0)
    with pytest.raises(ValueError):
        sigma_inverse_squares(-1)
    with pytest.raises(ValueError):
        bernoulli_even_recursion(0)


def _zeta_by_recurrence(k_max):
    """c_0..c_k_max, c_k the coefficient of pi^(2k) in zeta(2k), from
    zeta(2k) = sum_{m=1}^{k} (-1)^(m-1) (2m pi^(2m)/(2m+1)!)
    (1 - 2^(2(m-k)+1)) zeta(2k-2m), zeta(0) = -1/2, on Fractions."""
    c = [Fraction(-1, 2)]
    for k in range(1, k_max + 1):
        c.append(sum((-1) ** (m - 1) * Fraction(2 * m, factorial(2 * m + 1))
                     * (1 - Fraction(2) ** (2 * (m - k) + 1)) * c[k - m]
                     for m in range(1, k + 1)))
    return c


ORACLE_C = _zeta_by_recurrence(120)


class TestZetaAgainstRecurrence:
    @pytest.mark.parametrize("order", ["one-shot", "ascending", "scattered"])
    def test_table_matches_the_recurrence(self, order):
        """However the block table grows, c_0..c_120 equal the recurrence,
        g_k = c_k (2k)!/4^k, and d_k is the running lcm of the g
        denominators.  Ascending fills one term per block, so it checks the
        block start; one-shot grows d inside one block, so it checks the
        rescale; scattered does both."""
        zeta._zeta.cache_clear()
        ks = {"one-shot": [120], "ascending": range(121),
              "scattered": [5, 4, 17, 18, 60, 33, 120]}[order]
        for k in ks:
            zeta._zeta(k)
        oracle_g = [c * factorial(2 * k) / 4 ** k for k, c in enumerate(ORACLE_C)]
        oracle_d = list(accumulate((g.denominator for g in oracle_g), lcm))
        for k in range(121):
            g, d = zeta._zeta(k)
            # c_0 = g_0 = -1/2; zeta_even_exact starts at k = 1
            c = zeta_even_exact(k).coeff if k else g
            assert type(g) is Fraction and type(c) is Fraction
            assert (g, d, c) == (oracle_g[k], oracle_d[k], ORACLE_C[k]), k


def test_deep_zeta_matches_the_classical_oracle():
    """k = 700, far past the verify grid and the k <= 300 of test_tables."""
    assert zeta_even_exact(700) == zeta_even_classical(700)
