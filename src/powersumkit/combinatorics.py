"""Special-number families: binomials, Stirling numbers of both kinds,
r-Stirling numbers, central factorial numbers (even and odd index),
Legendre-Stirling numbers, and Bernoulli numbers / polynomials.

Triangle conventions: lookups outside 0 <= k <= n return 0 (matching the
summation limits the identities rely on); genuinely malformed inputs
(negative n, r outside [1, n]) raise ValueError.

The r-Stirling, central factorial, and Legendre-Stirling families are
defined through their symmetric-function characterizations, delegating to
symfuncs; the classical Stirling triangles use their own recurrences so
the sigma/h identities are real cross-checks.

All functions are pure.  The Stirling rows and the Bernoulli numbers are
built bottom-up in `tables.recurrence` tables; the sigma/h values are kept
in point caches of fixed size.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Tuple

from .exact import Poly, _as_int
from .sequences import SequenceSpec
from .symfuncs import complete_prefix, elementary_prefix
from .tables import POINT_CACHE_SIZE, recurrence

__all__ = [
    "Parity",
    "binomial",
    "stirling_first_unsigned",
    "stirling_second",
    "r_stirling_first",
    "r_stirling_second",
    "central_factorial_first",
    "central_factorial_second",
    "legendre_stirling_first",
    "legendre_stirling_second",
    "bernoulli_number",
    "bernoulli_polynomial",
]


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


def binomial(n: int, k: int) -> int:
    """C(n, k); zero for k < 0 or k > n, ValueError for negative n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


# -- classical Stirling triangles (own recurrences) -------------------------

@recurrence
def _stirling1_row(rows, n: int) -> Tuple[int, ...]:
    # c(n, k) = c(n-1, k-1) + (n-1) * c(n-1, k)
    if n == 0:
        return (1,)
    prev = rows[n - 1]
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        row[k] = prev[k - 1] + (0 if k == n else (n - 1) * prev[k])
    return tuple(row)


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind [n over k]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling1_row(n)[k]


@recurrence
def _stirling2_row(rows, n: int) -> Tuple[int, ...]:
    # S(n, k) = k * S(n-1, k) + S(n-1, k-1)
    if n == 0:
        return (1,)
    prev = rows[n - 1]
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        row[k] = prev[k - 1] + (0 if k == n else k * prev[k])
    return tuple(row)


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind {n over k}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return _stirling2_row(n)[k]


# -- symmetric-function-backed families -------------------------------------

@lru_cache(maxsize=POINT_CACHE_SIZE)
def _sigma_int(seq: SequenceSpec, m: int) -> int:
    return _as_int(elementary_prefix(seq, m)[m], f"sigma_{m} of {seq.tag}")


@lru_cache(maxsize=POINT_CACHE_SIZE)
def _h_int(seq: SequenceSpec, m: int) -> int:
    return _as_int(complete_prefix(seq, m)[m], f"h_{m} of {seq.tag}")


def r_stirling_first(n: int, k: int, r: int) -> int:
    """r-Stirling number of the first kind [n over k]_r, i.e. the
    elementary symmetric function sigma_{n-k}(r, r+1, ..., n-1)."""
    if r < 1 or r > n:
        raise ValueError("need 1 <= r <= n")
    if k < 0 or k > n:
        return 0
    return _sigma_int(SequenceSpec.naturals(n - 1, start=r), n - k)


def r_stirling_second(n: int, k: int, r: int) -> int:
    """r-Stirling number of the second kind {n over k}_r, i.e. the
    complete symmetric function h_{n-k}(r, r+1, ..., k)."""
    if r < 1 or r > n:
        raise ValueError("need 1 <= r <= n")
    if k < 0 or k > n:
        return 0
    return _h_int(SequenceSpec.naturals(k, start=r), n - k)


def central_factorial_first(n: int, k: int, parity: Parity) -> int:
    """Central factorial numbers of the first kind.

    EVEN: u(n, k) = (-1)^(n-k) sigma_{n-k}(1^2, ..., (n-1)^2).
    ODD:  v(n, k) = (-1)^(n-k) sigma_{n-k}(1^2, 3^2, ..., (2n-1)^2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    m = n - k
    if parity is Parity.EVEN:
        val = _sigma_int(SequenceSpec.squares(max(n - 1, 0)), m)
    else:
        val = _sigma_int(SequenceSpec.odd_squares(n), m)
    return -val if m % 2 else val


def central_factorial_second(n: int, k: int, parity: Parity) -> int:
    """Central factorial numbers of the second kind.

    EVEN: U(n, k) = h_{n-k}(1^2, ..., k^2).
    ODD:  V(n, k) = h_{n-k}(1^2, 3^2, ..., (2k+1)^2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    if parity is Parity.EVEN:
        return _h_int(SequenceSpec.squares(k), n - k)
    return _h_int(SequenceSpec.odd_squares(k + 1), n - k)


def legendre_stirling_first(n: int, j: int) -> int:
    """Legendre-Stirling number of the first kind
    Ps_n^(j) = (-1)^(n-j) sigma_{n-j}(2, 6, ..., (n-1)n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if j < 0 or j > n:
        return 0
    m = n - j
    val = _sigma_int(SequenceSpec.doubled_triangulars(max(n - 1, 0)), m)
    return -val if m % 2 else val


def legendre_stirling_second(n: int, j: int) -> int:
    """Legendre-Stirling number of the second kind
    PS_n^(j) = h_{n-j}(2, 6, ..., j(j+1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if j < 0 or j > n:
        return 0
    return _h_int(SequenceSpec.doubled_triangulars(j), n - j)


# -- Bernoulli numbers and polynomials --------------------------------------

@recurrence
def _bernoulli(terms, k: int) -> Fraction:
    if k == 0:
        return Fraction(1)
    s = sum(Fraction(comb(k + 1, j)) * terms[j] for j in range(k))
    return -s / (k + 1)


def bernoulli_number(k: int) -> Fraction:
    """B_k with the convention B_1 = -1/2, from the recurrence
    sum_{j=0}^{k} C(k+1, j) B_j = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _bernoulli(k)


def bernoulli_polynomial(k: int) -> Poly:
    """B_k(x) = sum_{i=0}^{k} C(k, i) B_i x^(k-i); B_k(0) = B_k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Poly(comb(k, d) * _bernoulli(k - d) for d in range(k + 1))
