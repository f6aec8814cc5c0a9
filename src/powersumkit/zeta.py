"""Exact zeta values at even arguments as rational multiples of pi^(2k),
plus the Bernoulli-number identities that fall out of the same machinery.

zeta(2k) values always come from the recursion in zeta_even_exact, run
on g_k = c_k (2k)!/4^k (c_k the coefficient of pi^(2k)) so that its terms
keep small denominators.  It is one `tables.recurrence` table, _zeta, whose
term k is (g_k, d_k) with d_k the running lcm of the denominators of
g_0..g_k; c_k = g_k 4^k/(2k)! is formed only where it is read, in
zeta_even_exact and h_inverse_squares_check.  Each step fills the table
from its end through the k asked for: across that block the numerators of
the earlier g live over one running lcm, so each new g is one int dot
product and one division.  Its
step reads only its own earlier terms and no Bernoulli number, so
zeta_even_classical, the Bernoulli closed form over the tangent-number
Bernoulli numbers, is an independent check of it.
bernoulli_even_recursion reads the same g as B_2k = (-1)^(k+1) 2 g_k, by
Euler's formula, and verify checks it against the defining recurrence of
the Bernoulli numbers.
h_inverse_squares_check, a verification op only, reads its sigma from
sigma_inverse_squares.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul

from .combinatorics import bernoulli_number, bernoulli_polynomial
from .exact import PiPower, _check_int
from .powersums import triangular_sum_ls
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
def _zeta(terms, j: int) -> list[tuple[Fraction, int]]:
    # (g_k, d_k) for k = len(terms)..j, with c_k the coefficient of pi^(2k) in
    # zeta(2k) = sum_{m=1}^{k} (-1)^(m-1) (2m pi^(2m)/(2m+1)!)
    #              (1 - 2^(2(m-k)+1)) zeta(2k-2m),  zeta(0) = -1/2,
    # multiplied through by (2k+1)!: with g_k = c_k (2k)!/4^k,
    #   (2k+1) 4^k g_k = sum_m (-1)^(m-1) 2m C(2k+1, 2m+1) (4^(k-m) - 2) g_{k-m},
    # g_0 = -1/2.  The g keep small denominators where the c_k grow like
    # (2k+1)!, and d_k is the running lcm of the denominators of g_0..g_k.
    # A block keeps u_i = (4^i - 2) g_i d, ints over the one running lcm d,
    # so each step is one int dot product; when a new denominator grows d,
    # every u_i is multiplied by the small factor by which d grew.  The u are
    # rebuilt from the terms at each block start, so no second table is kept.
    d = terms[-1][1] if terms else 2
    u = [((1 << 2 * i) - 2) * g.numerator * (d // g.denominator)
         for i, (g, _) in enumerate(terms)]
    block = []
    for k in range(len(terms), j + 1):
        if k == 0:
            g = Fraction(-1, 2)
        else:
            e = []  # e_m = (-1)^(m-1) 2m C(2k+1, 2m+1), stepped along row 2k+1
            c = 2 * k + 1
            for m in range(1, k + 1):
                c = c * (2 * k - 2 * m + 2) * (2 * k - 2 * m + 1) // (2 * m * (2 * m + 1))
                e.append(2 * m * c if m % 2 else -2 * m * c)
            total = sum(map(mul, e, u[k - 1::-1]))
            g = Fraction(total, (d * (2 * k + 1)) << 2 * k)
            if d % g.denominator:
                grow = lcm(d, g.denominator) // d
                u = [x * grow for x in u]
                d *= grow
        u.append(((1 << 2 * k) - 2) * g.numerator * (d // g.denominator))
        block.append((g, d))
    return block


def _coeff(k: int) -> Fraction:
    # c_k = g_k 4^k/(2k)!, reduced only here, where it is read: c_0 = -1/2
    g = _zeta(k)[0]
    return Fraction(g.numerator << 2 * k, g.denominator * factorial(2 * k))


def zeta_even_exact(k: int) -> PiPower:
    """zeta(2k) as an exact rational multiple of pi^(2k), by the recursion
    built from the inverse-squares symmetric functions, filled bottom-up."""
    if type(k) is not int or k < 1:
        _check_int("k", k, 1)
    return PiPower(_coeff(k), k)


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
    sigma = [sigma_inverse_squares(m).coeff for m in range(1, k + 1)]
    # coefficient of pi^(2j) in h_j; zeta(0) = -1/2 gives h_0 = 1
    h = [Fraction(2 * (4 ** j - 2), 4 ** j) * _coeff(j) for j in range(k)]
    return _coeff(k) - power_sum_from_sigma_h(sigma, h)


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
    lhs = 2 ** k * triangular_sum_ls(k, n)  # which checks k and n
    rhs = Fraction((-1) ** k, (k + 1) * comb(2 * k + 2, k + 1))
    for j in range(0, k + 1):
        rhs += comb(k, j) * bernoulli_polynomial(k + j + 1, n + 1) / (k + j + 1)
    return lhs - rhs


def bernoulli_even_recursion(k: int) -> Fraction:
    """B_{2k} = (-1)^(k+1) 2 g_k off the zeta(2k) recursion on g, which with
    g_j = (-1)^(j+1) B_{2j}/2 reads B_{2k} = (2/(2k+1)) sum_{j=1}^{k}
    j C(2k+1, 2j+1) (1/2^(2k-1) - 1/2^(2j)) B_{2k-2j},  B_0 = 1."""
    _check_int("k", k, 1)
    return (2 if k % 2 else -2) * _zeta(k)[0]
