"""Exact zeta values at even arguments as rational multiples of pi^(2k),
plus the Bernoulli-number identities that fall out of the same machinery.

zeta(2k) values always come from the recursion in zeta_even_exact;
h_inverse_squares_check is a verification op only.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .combinatorics import bernoulli_number, bernoulli_polynomial, legendre_stirling_first, legendre_stirling_second
from .exact import PiPower, _check_int
from .symfuncs import power_sum_from_sigma_h
from .tables import recurrence

__all__ = [
    "sigma_inverse_squares",
    "zeta_even_exact",
    "zeta_even_classical",
    "h_inverse_squares_check",
    "bernoulli_binomial_identity",
    "merca_ls_bernoulli_identity",
    "bernoulli_even_recursion",
]


def sigma_inverse_squares(k: int) -> PiPower:
    """sigma_k(1/1^2, 1/2^2, ...) = pi^(2k) / (2k+1)!."""
    _check_int("k", k, 0)
    return PiPower(Fraction(1, factorial(2 * k + 1)), k)


@recurrence
def _zeta_coeff(coeffs, k: int) -> Fraction:
    # zeta(2k) = sum_{m=1}^{k} (-1)^(m-1) (2m pi^(2m)/(2m+1)!)
    #              (1 - 2^(2(m-k)+1)) zeta(2k-2m),  zeta(0) = -1/2,
    # as the coefficient of pi^(2k); the m = k term is (-1)^(k-1) k/(2k+1)!
    if k == 0:
        return Fraction(-1, 2)
    total = Fraction(0)
    for m in range(1, k + 1):
        factor = Fraction(2 * m, factorial(2 * m + 1)) \
            * (1 - Fraction(2, 4 ** (k - m)))
        term = factor * coeffs[k - m]
        total += term if (m - 1) % 2 == 0 else -term
    return total


def zeta_even_exact(k: int) -> PiPower:
    """zeta(2k) as an exact rational multiple of pi^(2k), by the recursion
    built from the inverse-squares symmetric functions, filled bottom-up."""
    if type(k) is not int or k < 1:
        _check_int("k", k, 1)
    return PiPower(_zeta_coeff(k), k)


def zeta_even_classical(k: int) -> PiPower:
    """Independent oracle: zeta(2k) = (-1)^(k+1) B_{2k} 2^(2k-1)
    pi^(2k) / (2k)! from the Bernoulli closed form."""
    _check_int("k", k, 1)
    coeff = bernoulli_number(2 * k) * Fraction(2 ** (2 * k - 1), factorial(2 * k))
    if (k + 1) % 2:
        coeff = -coeff
    return PiPower(coeff, k)


def h_inverse_squares_check(k: int) -> Fraction:
    """Residual (as a coefficient of pi^(2k)) of substituting
    sigma_m = pi^(2m)/(2m+1)! and h_m = ((2^(2m)-2)/2^(2m-1)) zeta(2m)
    into p_k = sum_m (-1)^(m-1) m sigma_m h_{k-m}, against
    p_k = zeta(2k).  Zero when the algebra is consistent."""
    _check_int("k", k, 1)
    sigma = [Fraction(1, factorial(2 * m + 1)) for m in range(1, k + 1)]
    # coefficient of pi^(2j) in h_j; zeta(0) = -1/2 gives h_0 = 1
    h = [Fraction(2 * (4 ** j - 2), 4 ** j) * _zeta_coeff(j) for j in range(k)]
    return _zeta_coeff(k) - power_sum_from_sigma_h(sigma, h)


def bernoulli_binomial_identity(k: int) -> Fraction:
    """sum_j (-1)^j C(k,j) B_{k+j+1}/(k+j+1) minus
    1/((k+1) C(2k+2, k+1)); zero for all k >= 1."""
    _check_int("k", k, 1)
    lhs = Fraction(0)
    for j in range(0, k + 1):
        term = comb(k, j) * bernoulli_number(k + j + 1) / (k + j + 1)
        lhs += -term if j % 2 else term
    return lhs - Fraction(1, (k + 1) * comb(2 * k + 2, k + 1))


def merca_ls_bernoulli_identity(k: int, n: int) -> Fraction:
    """Residual of -sum_m m Ps_{n+1}^(n+1-m) PS_{n+k-m}^(n) =
    (-1)^k/((k+1) C(2k+2,k+1)) + sum_j C(k,j) B_{k+j+1}(n+1)/(k+j+1)."""
    _check_int("k", k, 1)
    _check_int("n", n, 1)
    lhs = power_sum_from_sigma_h(
        [(-1) ** m * legendre_stirling_first(n + 1, n + 1 - m) for m in range(1, k + 1)],
        [legendre_stirling_second(n + j, n) for j in range(k)])
    rhs = Fraction((-1) ** k, (k + 1) * comb(2 * k + 2, k + 1))
    for j in range(0, k + 1):
        rhs += comb(k, j) * bernoulli_polynomial(k + j + 1)(n + 1) / (k + j + 1)
    return lhs - rhs


def bernoulli_even_recursion(k: int) -> Fraction:
    """B_{2k} computed solely from
    B_{2k} = (2/(2k+1)) sum_{j=1}^{k} j C(2k+1, 2j+1)
             (1/2^(2k-1) - 1/2^(2j)) B_{2k-2j},
    with base value B_0 = 1."""
    _check_int("k", k, 1)
    b_even = [Fraction(1)]  # B_0, B_2, ..., B_{2i}
    for i in range(1, k + 1):
        total = sum(j * comb(2 * i + 1, 2 * j + 1)
                    * (Fraction(1, 2 ** (2 * i - 1)) - Fraction(1, 2 ** (2 * j)))
                    * b_even[i - j] for j in range(1, i + 1))
        b_even.append(Fraction(2, 2 * i + 1) * total)
    return b_even[k]
