"""Every power-sum formula in scope, each from its own numbers (the Lang-type
ones share only symfuncs.power_sum_from_sigma_h), so concordance is a real check.

S_k(n) denotes 1^k + 2^k + ... + n^k, with 0^0 = 1 so that S_0(n) = n.
Rational-returning forms check integrality at the boundary; a non-integer
result raises ConsistencyError rather than being rounded.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb, factorial
from typing import Dict

from .combinatorics import (
    Parity,
    bernoulli_polynomial,
    central_factorial_first,
    central_factorial_second,
    legendre_stirling_first,
    legendre_stirling_second,
    r_stirling_first,
    r_stirling_second,
    stirling_first_unsigned,
    stirling_second,
)
from .exact import ConsistencyError, _as_int, _check_int
from .symfuncs import power_sum_from_sigma_h

__all__ = [
    "ConsistencyError",
    "Method",
    "compute",
    "concordance",
    "s_brute",
    "s_lang_original",
    "s_lang_refined",
    "s_newton_recurrence",
    "s_binomial_recurrence",
    "s_range",
    "s_even_powers",
    "s_odd_even_powers",
    "s_odd_even_powers_poly",
    "triangular_sum_ls",
    "triangular_sum_binomial",
    "ones_identity_residual",
]


class Method(str, Enum):
    BRUTE = "brute"
    LANG_ORIGINAL = "lang-original"
    LANG_REFINED = "lang-refined"
    NEWTON_RECURRENCE = "newton-recurrence"
    BINOMIAL_RECURRENCE = "binomial-recurrence"
    RANGE_R_STIRLING = "range-r-stirling"
    EVEN_CENTRAL = "even-central"
    ODD_CENTRAL = "odd-central"
    ODD_BERNOULLI_POLY = "odd-bernoulli-poly"
    TRIANGULAR_LS = "triangular-ls"
    TRIANGULAR_BINOMIAL = "triangular-binomial"


def _check_query(method: str, k: int, n: int, r: int = 1) -> None:
    """The contract of a method, given by its value (a Method member is a
    slow lookup): int k at least its least k, n >= 1 and 1 <= r <= n."""
    least_k = _CONTRACTS[method][2]
    # inline test first: every warm compute passes here
    if type(k) is not int or type(n) is not int or type(r) is not int \
            or k < least_k or n < 1:
        _check_int("k", k, least_k)
        _check_int("n", n, 1)
        _check_int("r", r)
    if r < 1 or r > n:
        raise ValueError("need 1 <= r <= n")


def s_brute(k: int, n: int, r: int = 1) -> int:
    """sum_{i=r}^{n} i^k by direct summation (the oracle)."""
    _check_query("brute", k, n, r)
    return sum(i ** k for i in range(r, n + 1))


def s_lang_original(k: int, n: int) -> int:
    """S_k(n) = sum_m (-1)^m (n-m) [n+1, n+1-m] {n+k-m, n},
    m running to min(k, n-1)."""
    _check_query("lang-original", k, n)
    total = 0
    for m in range(0, min(k, n - 1) + 1):
        term = (n - m) * stirling_first_unsigned(n + 1, n + 1 - m) \
            * stirling_second(n + k - m, n)
        total += -term if m % 2 else term
    return total


def s_lang_refined(k: int, n: int) -> int:
    """S_k(n) = n*delta_{k,0} + sum_{m=1}^{k} (-1)^(m-1) m
    [n+1, n+1-m] {n+k-m, n}; terms with m > n vanish by convention."""
    _check_query("lang-refined", k, n)
    sigma = [stirling_first_unsigned(n + 1, n + 1 - m) for m in range(1, k + 1)]
    h = [stirling_second(n + j, n) for j in range(k)]
    return power_sum_from_sigma_h(sigma, h) + (n if k == 0 else 0)


def s_newton_recurrence(k: int, n: int) -> int:
    """S_m(n) = (-1)^(m-1) m sigma_m(n) - sum_{j=1}^{m-1} (-1)^j
    sigma_j(n) S_{m-j}(n), built up from m = 1; sigma_j(n) = [n+1, n+1-j]."""
    _check_query("newton-recurrence", k, n)
    sigma = [stirling_first_unsigned(n + 1, n + 1 - j) for j in range(k + 1)]
    sums = [n]  # S_0(n) = n, never read
    for m in range(1, k + 1):
        total = (-1) ** (m - 1) * m * sigma[m]
        for j in range(1, m):
            term = sigma[j] * sums[m - j]
            total += term if j % 2 else -term
        sums.append(total)
    return sums[k]


def s_binomial_recurrence(k: int, n: int) -> int:
    """S_m(n) = m! C(n+m, m+1) - sum_{j=1}^{m-1} sigma_j(m-1) S_{m-j}(n),
    built up from m = 1.

    Note the inner sigma is over 1..m-1, not 1..n: sigma_j(m-1) = [m, m-j].
    """
    _check_query("binomial-recurrence", k, n)
    sums = [n]  # S_0(n) = n, never read
    for m in range(1, k + 1):
        total = factorial(m) * comb(n + m, m + 1)
        for j in range(1, m):
            total -= stirling_first_unsigned(m, m - j) * sums[m - j]
        sums.append(total)
    return sums[k]


def s_range(k: int, n: int, r: int) -> int:
    """r^k + (r+1)^k + ... + n^k via the r-Stirling numbers."""
    _check_query("range-r-stirling", k, n, r)
    sigma = [r_stirling_first(n + 1, n + 1 - m, r) for m in range(1, k + 1)]
    h = [r_stirling_second(n + j, n, r) for j in range(k)]
    return power_sum_from_sigma_h(sigma, h)


def s_even_powers(k: int, n: int) -> int:
    """1^(2k) + 2^(2k) + ... + n^(2k) via even-index central factorial
    numbers: -sum_m m u(n+1, n+1-m) U(n+k-m, n)."""
    _check_query("even-central", k, n)
    sigma = [(-1) ** m * central_factorial_first(n + 1, n + 1 - m, Parity.EVEN)
             for m in range(1, k + 1)]
    h = [central_factorial_second(n + j, n, Parity.EVEN) for j in range(k)]
    return power_sum_from_sigma_h(sigma, h)


def s_odd_even_powers(k: int, n: int) -> int:
    """1^(2k) + 3^(2k) + ... + (2n-1)^(2k) via odd-index central factorial
    numbers: -sum_m m v(n, n-m) V(n-1+k-m, n-1)."""
    _check_query("odd-central", k, n)
    sigma = [(-1) ** m * central_factorial_first(n, n - m, Parity.ODD)
             for m in range(1, k + 1)]
    h = [central_factorial_second(n - 1 + j, n - 1, Parity.ODD) for j in range(k)]
    return power_sum_from_sigma_h(sigma, h)


def s_odd_even_powers_poly(k: int, n: int) -> int:
    """Same odd-base power sum as a polynomial in n:
    (2^(2k)/(2k+1)) sum_j C(2k+1, 2j+1) B_{2k-2j}(1/2) n^(2j+1)."""
    _check_query("odd-bernoulli-poly", k, n)
    half = Fraction(1, 2)
    total = Fraction(0)
    for j in range(0, k + 1):
        total += comb(2 * k + 1, 2 * j + 1) \
            * bernoulli_polynomial(2 * k - 2 * j)(half) * n ** (2 * j + 1)
    total *= Fraction(2 ** (2 * k), 2 * k + 1)
    return _as_int(total, "odd-power Bernoulli polynomial form")


def triangular_sum_ls(k: int, n: int) -> int:
    """T_1^k + ... + T_n^k via Legendre-Stirling numbers:
    -(1/2^k) sum_m m Ps_{n+1}^(n+1-m) PS_{n+k-m}^(n)."""
    _check_query("triangular-ls", k, n)
    sigma = [(-1) ** m * legendre_stirling_first(n + 1, n + 1 - m)
             for m in range(1, k + 1)]
    h = [legendre_stirling_second(n + j, n) for j in range(k)]
    return _as_int(Fraction(power_sum_from_sigma_h(sigma, h), 2 ** k),
                   "Legendre-Stirling triangular sum")


def triangular_sum_binomial(k: int, n: int) -> int:
    """T_1^k + ... + T_n^k as (1/2^k) sum_j C(k, j) S_{k+j}(n), with the
    Bernoulli-polynomial form of S_{k+j}(n) computed alongside and the two
    asserted equal."""
    _check_query("triangular-binomial", k, n)
    via_sums = Fraction(0)
    via_bernoulli = Fraction(0)
    for j in range(0, k + 1):
        c = comb(k, j)
        via_sums += c * s_brute(k + j, n)
        bp = bernoulli_polynomial(k + j + 1)
        via_bernoulli += c * (bp(n + 1) - bp(1)) / (k + j + 1)
    if via_sums != via_bernoulli:
        raise ConsistencyError(
            "binomial and Bernoulli forms of the triangular sum disagree")
    return _as_int(via_sums / 2 ** k, "triangular binomial sum")


def ones_identity_residual(k: int, n: int) -> int:
    """sum_{m=1}^{k} (-1)^(m-1) m C(n,m) C(n+k-m-1, k-m) minus n; zero."""
    _check_int("k", k, 1)
    _check_int("n", n, 1)
    sigma = [comb(n, m) for m in range(1, k + 1)]
    h = [comb(n + j - 1, j) for j in range(k)]
    return power_sum_from_sigma_h(sigma, h) - n


# -- dispatch ---------------------------------------------------------------

# Method -> (function, whether it takes r, least k): first the methods that
# compute r^k + ... + n^k, which concordance cross-checks, then the others
_PLAIN_SUMS = {
    Method.BRUTE: (s_brute, True, 0),
    Method.LANG_ORIGINAL: (s_lang_original, False, 0),
    Method.LANG_REFINED: (s_lang_refined, False, 0),
    Method.NEWTON_RECURRENCE: (s_newton_recurrence, False, 1),
    Method.BINOMIAL_RECURRENCE: (s_binomial_recurrence, False, 1),
    Method.RANGE_R_STIRLING: (s_range, True, 1),
}
_CONTRACTS = {
    **_PLAIN_SUMS,
    Method.EVEN_CENTRAL: (s_even_powers, False, 1),
    Method.ODD_CENTRAL: (s_odd_even_powers, False, 1),
    Method.ODD_BERNOULLI_POLY: (s_odd_even_powers_poly, False, 1),
    Method.TRIANGULAR_LS: (triangular_sum_ls, False, 1),
    Method.TRIANGULAR_BINOMIAL: (triangular_sum_binomial, False, 1),
}
# the function column alone, as plain values that perfbench/tracer.py can rebind
_METHODS = {method: fn for method, (fn, _, _) in _CONTRACTS.items()}


def compute(method: Method, k: int, n: int, r: int = 1):
    """Evaluate one method, given as a Method or its string value.
    Methods other than brute and range-r-stirling require r == 1."""
    fn = _METHODS.get(method)
    if fn is None:
        raise ValueError(f"unknown method {method!r}")
    if _CONTRACTS[method][1]:
        return fn(k, n, r)
    if type(r) is not int:
        _check_int("r", r)
    if r != 1:
        raise ValueError(f"method {Method(method).value} does not support r > 1")
    return fn(k, n)


def concordance(k: int, n: int, r: int = 1) -> Dict[Method, int]:
    """Every plain power-sum method that takes (k, n, r), after checking the
    query against brute's contract, the widest."""
    _check_query("brute", k, n, r)
    return {m: compute(m, k, n, r) for m, (_, takes_r, least_k) in _PLAIN_SUMS.items()
            if k >= least_k and (r == 1 or takes_r)}
