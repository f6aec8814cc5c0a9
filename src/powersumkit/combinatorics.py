"""Special-number families: binomials, Stirling numbers of both kinds,
r-Stirling numbers, central factorial numbers (even and odd index),
Legendre-Stirling numbers, and Bernoulli numbers / polynomials.

Triangle rule, for the eight triangles and binomial: n and k are ints, a
negative n raises ValueError, and a lookup outside 0 <= k <= n returns 0
(matching the summation limits the identities rely on); the r-Stirling
families also raise ValueError for r outside [1, n].  Each cell function
tests ints and 0 <= k <= n inline, as every warm lookup passes there, and
hands any other cell to _outside, the rule itself; the central factorial
and Legendre-Stirling cells leave that test to _sigma_h_cell, after
resolving the parity.  A parity is a Parity or
its value, "even" or "odd".

The r-Stirling, central factorial, and Legendre-Stirling families are
defined through their symmetric-function characterizations, delegating to
symfuncs; both classical Stirling triangles come from one row step of
their own, T(n, k) = T(n-1, k-1) + w T(n-1, k) with weight w = n-1 (first
kind) or k (second), so the sigma/h identities are real cross-checks.

The Bernoulli numbers come from the tangent numbers (Brent and Harvey),
all in ints.  The `zeta classical-oracle` cells check them, through the
Bernoulli closed form of zeta(2k), against the zeta(2k) recursion in zeta,
which reads no Bernoulli number; the `bernoulli even-recursion` cells check
that recursion, read as B_2k, against the defining recurrence
sum_{j<=k} C(k+1, j) B_j = 0 written in verify.  A Bernoulli polynomial is
only ever evaluated, so bernoulli_polynomial takes its point.

All functions are pure.  Three `tables.recurrence` tables are built
bottom-up here: the two Stirling row tables, whose steps both call one
row step, _triangle_row, and _bernoulli, whose term k is (B_k, D_k) with
D_k the lcm of the denominators of B_0..B_k, at least doubling per step;
each step reads only its own table.  Only this module reads those terms:
bernoulli_number takes B_k, and _scaled_bernoulli gives D_k with the ints
D_k B_0..D_k B_k, over which bernoulli_polynomial and the two
Bernoulli-form power sums of powersums sum in ints.  The sigma/h values
are kept in one point cache of fixed size, _sigma_h_int, keyed on the
kind ("sigma" or "h"), the variable set (tag, n, start) and the index.
The triangle cells read it with an index shift, and _sigma_h_cell and
sigma_h_triangle give a sigma family its sign (-1)^m; the four sigma/h
power sums of powersums read it directly, so verify's `range` cells check
those signs and shifts.
SIGMA_H_FAMILIES gives each of the six sigma/h families of the `table`
command its kind, tag and shift, read by _sigma_h_cell and by
sigma_h_triangle, which reads a whole triangle off one pass of the symfuncs
prefix DP and no point cache: row n of a sigma family, or column k of an h
family, is the prefix after the variables it uses.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, lcm

from .exact import Poly, Scalar, _check_int, _quotient
from .sequences import sequence
from .symfuncs import complete_prefix, elementary_prefix, sigma_h_prefixes
from .tables import recurrence

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
    "sigma_h_triangle",
    "bernoulli_number",
    "bernoulli_polynomial",
]


class Parity(str, Enum):
    EVEN = "even"
    ODD = "odd"


def _outside(n: int, k: int, r: int | None = None) -> int:
    """The triangle rule for a cell that failed the inline test (ints and
    0 <= k <= n): TypeError or ValueError for a bad n, k or r, else 0."""
    _check_int("n", n, 0)
    _check_int("k", k)
    if r is not None:
        _check_int("r", r)
        if not 1 <= r <= n:
            raise ValueError("need 1 <= r <= n")
    return 0


def binomial(n: int, k: int) -> int:
    """C(n, k) under the triangle rule."""
    if type(n) is not int or type(k) is not int or not 0 <= k <= n:
        return _outside(n, k)
    return comb(n, k)


# -- classical Stirling triangles (one row step, weight n-1 or k) -----------

def _triangle_row(rows, weight) -> list[tuple[int, ...]]:
    # T(n, k) = T(n-1, k-1) + weight(n, k) * T(n-1, k), T(0, 0) = 1.  One
    # row, n = len(rows), per step: row n reads only row n-1, so a longer
    # block would save nothing
    n = len(rows)
    if n == 0:
        return [(1,)]
    prev = rows[n - 1] + (0,)  # T(n-1, n) = 0
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        row[k] = prev[k - 1] + weight(n, k) * prev[k]
    return [tuple(row)]


@recurrence
def _stirling1_row(rows, j: int) -> list[tuple[int, ...]]:
    return _triangle_row(rows, lambda n, k: n - 1)


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind [n over k]."""
    if type(n) is not int or type(k) is not int or not 0 <= k <= n:
        return _outside(n, k)
    return _stirling1_row(n)[k]


@recurrence
def _stirling2_row(rows, j: int) -> list[tuple[int, ...]]:
    return _triangle_row(rows, lambda n, k: k)


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind {n over k}."""
    if type(n) is not int or type(k) is not int or not 0 <= k <= n:
        return _outside(n, k)
    return _stirling2_row(n)[k]


# -- symmetric-function-backed families -------------------------------------

# entries in the sigma/h point cache: `verify --suite all` keeps 1.6k (84%
# hits) and a 5000-query session 2.8-3.2k (65-67% hits); the `table`
# command reads no point cache (sigma_h_triangle).  It is keyed on the
# kind, the arguments (tag, n, start) of sequence and m, so a hit builds no
# sequence.
POINT_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=POINT_CACHE_SIZE)
def _sigma_h_int(kind: str, tag: str, n: int, start: int, m: int) -> int:
    """sigma_m (kind "sigma") or h_m (kind "h") of sequence(tag, n, start)."""
    prefix = elementary_prefix if kind == "sigma" else complete_prefix
    x = prefix(sequence(tag, n, start), m)[m]
    return _quotient(x.numerator, x.denominator, f"{kind}_{m} of {tag}")


def r_stirling_first(n: int, k: int, r: int) -> int:
    """r-Stirling number of the first kind [n over k]_r, i.e. the
    elementary symmetric function sigma_{n-k}(r, r+1, ..., n-1)."""
    if type(n) is not int or type(k) is not int or not 0 <= k <= n \
            or type(r) is not int or not 1 <= r <= n:
        return _outside(n, k, r)
    return _sigma_h_int("sigma", "naturals", n - 1, r, n - k)


def r_stirling_second(n: int, k: int, r: int) -> int:
    """r-Stirling number of the second kind {n over k}_r, i.e. the
    complete symmetric function h_{n-k}(r, r+1, ..., k)."""
    if type(n) is not int or type(k) is not int or not 0 <= k <= n \
            or type(r) is not int or not 1 <= r <= n:
        return _outside(n, k, r)
    return _sigma_h_int("h", "naturals", k, r, n - k)


# family -> (kind, tag, extra).  Row n of a sigma family is (-1)^m sigma_m,
# m = n - k, of the first n-1+extra terms of `tag`; column k of an h family
# is h_m of its first k+extra terms.  The keys are the families of the
# CLI's `table`.
SIGMA_H_FAMILIES = {
    "ls1": ("sigma", "doubled_triangulars", 0),
    "ls2": ("h", "doubled_triangulars", 0),
    "central_u": ("sigma", "squares", 0),
    "central_U": ("h", "squares", 0),
    "central_v": ("sigma", "odd_squares", 1),
    "central_V": ("h", "odd_squares", 1),
}


def _sigma_h_cell(family: str, n: int, k: int) -> int:
    """Cell (n, k) of a family of SIGMA_H_FAMILIES under the triangle rule."""
    if type(n) is not int or type(k) is not int or not 0 <= k <= n:
        return _outside(n, k)
    kind, tag, extra = SIGMA_H_FAMILIES[family]
    m = n - k
    if kind == "h":
        return _sigma_h_int("h", tag, k + extra, 1, m)
    # row 0 is sigma_0 = 1 of no terms
    val = _sigma_h_int("sigma", tag, n - 1 + extra if n else 0, 1, m)
    return -val if m % 2 else val


def sigma_h_triangle(family: str, rows: int) -> list[list[int]]:
    """Rows 0..rows of a family of SIGMA_H_FAMILIES, read off one pass of
    its prefix DP cut at rows, each entry through _quotient."""
    if family not in SIGMA_H_FAMILIES:
        raise ValueError(f"unknown sigma/h family {family!r}")
    _check_int("rows", rows, 0)
    kind, tag, extra = SIGMA_H_FAMILIES[family]
    what = f"{kind} of {tag}"

    def entry(x: Fraction) -> int:
        return _quotient(x.numerator, x.denominator, what)

    if kind == "sigma":
        # row n reads the prefix after max(n - 1 + extra, 0) variables: one
        # more than row n - 1 reads whenever n - 1 + extra is positive
        prefixes = sigma_h_prefixes(sequence(tag, max(rows - 1 + extra, 0)), rows, kind)
        sig = next(prefixes)
        table = []
        for n in range(rows + 1):
            if n - 1 + extra > 0:
                sig = next(prefixes)
            table.append([(-1) ** m * entry(sig[m]) for m in range(n, -1, -1)])
        return table
    # column k reads the prefix after k + extra variables
    table = [[] for _ in range(rows + 1)]
    prefixes = islice(sigma_h_prefixes(sequence(tag, rows + extra), rows, kind), extra, None)
    for k, h in enumerate(prefixes):
        for n in range(k, rows + 1):
            table[n].append(entry(h[n - k]))
    return table


# parity -> the first- and second-kind central factorial families.  A Parity
# equals its value, so .get finds both; Parity() raises for the rest.
_CENTRAL = {Parity.EVEN: ("central_u", "central_U"), Parity.ODD: ("central_v", "central_V")}


def central_factorial_first(n: int, k: int, parity: Parity) -> int:
    """Central factorial numbers of the first kind.

    EVEN: u(n, k) = (-1)^(n-k) sigma_{n-k}(1^2, ..., (n-1)^2).
    ODD:  v(n, k) = (-1)^(n-k) sigma_{n-k}(1^2, 3^2, ..., (2n-1)^2).
    """
    return _sigma_h_cell((_CENTRAL.get(parity) or _CENTRAL[Parity(parity)])[0], n, k)


def central_factorial_second(n: int, k: int, parity: Parity) -> int:
    """Central factorial numbers of the second kind.

    EVEN: U(n, k) = h_{n-k}(1^2, ..., k^2).
    ODD:  V(n, k) = h_{n-k}(1^2, 3^2, ..., (2k+1)^2).
    """
    return _sigma_h_cell((_CENTRAL.get(parity) or _CENTRAL[Parity(parity)])[1], n, k)


def legendre_stirling_first(n: int, j: int) -> int:
    """Legendre-Stirling number of the first kind
    Ps_n^(j) = (-1)^(n-j) sigma_{n-j}(2, 6, ..., (n-1)n)."""
    return _sigma_h_cell("ls1", n, j)


def legendre_stirling_second(n: int, j: int) -> int:
    """Legendre-Stirling number of the second kind
    PS_n^(j) = h_{n-j}(2, 6, ..., j(j+1))."""
    return _sigma_h_cell("ls2", n, j)


# -- Bernoulli numbers and polynomials --------------------------------------

def _tangent_numbers(m: int) -> list[int]:
    """[T_0, T_1, ..., T_m] (T_0 = 0), the tangent numbers, by Brent and
    Harvey's in-place integer recurrence (arXiv:1108.0286, Algorithm
    TangentNumbers): O(m^2) small-by-large products, no division."""
    t = [0] * (m + 1)
    if m:
        t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        prev = t[k - 1]
        for j in range(k, m + 1):
            prev = t[j] = (j - k) * prev + (j - k + 2) * t[j]
    return t


@recurrence
def _bernoulli(terms, j: int) -> list[tuple[Fraction, int]]:
    # (B_k, D_k) with D_k = lcm(D_(k-1), den B_k), the lcm of the
    # denominators of B_0..B_k.  B_0 = 1, B_1 = -1/2, B_k = 0 for odd k > 1,
    # and from the tangent numbers B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).
    # A tangent pass is not incremental, so each block at least doubles the
    # table and keeps only the Bernoulli numbers and their lcms.
    start, stop = len(terms), max(j, 2 * len(terms)) + 1
    tangent = _tangent_numbers((stop - 1) // 2)
    d = terms[-1][1] if terms else 1
    block = []
    for k in range(start, stop):
        if k < 2:
            b = Fraction(1) if k == 0 else Fraction(-1, 2)
        elif k % 2:
            b = Fraction(0)
        else:
            m, four_m = k // 2, 4 ** (k // 2)
            b = Fraction((k if m % 2 else -k) * tangent[m], four_m * (four_m - 1))
        d = lcm(d, b.denominator)
        block.append((b, d))
    return block


def bernoulli_number(k: int) -> Fraction:
    """B_k with the convention B_1 = -1/2, from the tangent numbers (Brent
    and Harvey), an all-integer route; the `zeta classical-oracle` cells
    check it against the zeta(2k) recursion."""
    if type(k) is not int or k < 0:
        _check_int("k", k, 0)
    return _bernoulli(k)[0]


def _scaled_bernoulli(k: int) -> tuple[int, list[int]]:
    """(D, [D B_0, ..., D B_k]) with D the lcm of the denominators of
    B_0..B_k: the Bernoulli numbers as ints over one common denominator."""
    d = _bernoulli(k)[1]
    scaled = []
    for i in range(k + 1):
        b = _bernoulli(i)[0]
        scaled.append(b.numerator * (d // b.denominator))
    return d, scaled


def bernoulli_polynomial(k: int, x: Scalar) -> Fraction:
    """B_k(x) = sum_{i=0}^{k} C(k, i) B_i x^(k-i); B_k(0) = B_k.  With D the
    lcm of the denominators of B_0..B_k, the int polynomial D B_k(x) is
    evaluated at x and divided by D."""
    _check_int("k", k, 0)
    d, scaled = _scaled_bernoulli(k)
    return Poly([comb(k, i) * scaled[k - i] for i in range(k + 1)])(x) / d
