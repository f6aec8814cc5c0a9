"""Elementary / complete homogeneous symmetric functions, power sums, and
the Newton-Girard machinery over exact finite sequences.

Variable lists are any iterable of ints / Fractions, such as the tuples of
sequences.sequence (a float or a bool raises TypeError).  There is one
prefix DP, sigma_h_prefixes, a generator of the prefix after 0, 1, 2, ...
variables; sigma and h differ only in the order of its m loop.
elementary_prefix and complete_prefix are its last states, and
combinatorics.sigma_h_triangle reads a whole triangle off one pass.  The
generator is not exported: it checks nothing until it is first advanced,
so its callers check M.  The
prefix DP always gives Fractions, even when integer-valued, so Fraction
variables take the same code path; integer-valued callers check unit
denominators at their own boundary (exact._quotient, ConsistencyError).
power_sum_from_sigma_h is the one p/sigma/h relation: the Lang-type power
sums and h_inverse_squares_check only build its sigma and h, four of the
power sums straight off their variable sets, and verify's `range` cells
off the triangle cells those sigma and h equal;
newton_girard_power_sums is the one Newton-Girard recurrence, which
s_newton_recurrence feeds with its own sigma.  Both refuse floats and bools
and use the entries they are given unchanged, so int entries give ints.
orthogonality_residuals checks E(-t) H(t) = 1 for every k up to K off one
sigma prefix and one h prefix, which verify reads once per variable set.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .exact import Poly, Scalar, _check_int, _exact

__all__ = [
    "elementary_prefix",
    "complete_prefix",
    "power_sum_from_sigma_h",
    "newton_girard_power_sums",
    "orthogonality_residuals",
    "pn_polynomial_coeffs",
]


def sigma_h_prefixes(xs: Iterable[Scalar], M: int, kind: str) -> Iterator[list[Fraction]]:
    """[p_0, ..., p_M] of the first 0, 1, 2, ... variables of xs, with p_m
    sigma_m for kind "sigma" and h_m for kind "h".  One list is yielded,
    updated in place after each yield.

    Each variable x takes p_m <- p_m + x * p_{m-1}.  For sigma m runs down,
    so p_{m-1} is still the row before x; for h it runs up, so p_{m-1}
    already counts x and a variable may repeat.  Entries of sigma with
    index above the number of variables are zero.
    """
    order = {"sigma": range(M, 0, -1), "h": range(1, M + 1)}[kind]
    p = [Fraction(1)] + [Fraction(0)] * M
    yield p
    for x in xs:
        x = _exact(x)
        for m in order:
            p[m] += x * p[m - 1]
        yield p


def elementary_prefix(xs: Iterable[Scalar], M: int) -> list[Fraction]:
    """[sigma_0, ..., sigma_M] of all of xs: the last state of the DP."""
    _check_int("M", M, 0)
    for sig in sigma_h_prefixes(xs, M, "sigma"):
        pass
    return sig


def complete_prefix(xs: Iterable[Scalar], M: int) -> list[Fraction]:
    """[h_0, ..., h_M] of all of xs: the last state of the DP."""
    _check_int("M", M, 0)
    for h in sigma_h_prefixes(xs, M, "h"):
        pass
    return h


def power_sum_from_sigma_h(sigma: Sequence, h: Sequence):
    """p_k = sum_{m=1}^{k} (-1)^(m-1) m sigma_m h_{k-m} from sigma = [sigma_1..sigma_k]
    and h = [h_0..h_{k-1}]; values are used as given once _exact accepts them,
    so int inputs give an int."""
    k = len(sigma)
    if len(h) != k:
        raise ValueError(f"need as many h values as sigma values, got {len(h)} and {k}")
    total = 0
    for m in range(1, k + 1):
        s, t = sigma[m - 1], h[k - m]
        # inline test first: the power sums call this on every warm query
        if type(s) is not int and type(s) is not Fraction \
                or type(t) is not int and type(t) is not Fraction:
            _exact(s)
            _exact(t)
        term = m * s * t
        total += term if m % 2 else -term
    return total


def newton_girard_power_sums(sigma: Sequence[Fraction], K: int) -> list[Fraction]:
    """[p_1, ..., p_K] by forward substitution through the unit
    lower-triangular Newton-Girard system.

    ``sigma`` holds sigma_0..sigma_K (missing trailing entries are treated
    as zero); sigma_0 must be 1.  Entries are used as given once _exact
    accepts them, so int entries give int power sums.
    """
    _check_int("K", K, 1)
    sig = list(sigma)
    for s in sig:
        _exact(s)
    if not sig or sig[0] != 1:
        raise ValueError("sigma[0] must be 1")
    sig += [0] * (K + 1 - len(sig))

    p: list[Fraction] = []
    for m in range(1, K + 1):
        acc = m * sig[m] * (1 if (m - 1) % 2 == 0 else -1)
        # inner sum is empty when m = 1
        for j in range(1, m):
            term = sig[j] * p[m - j - 1]
            acc -= term if j % 2 == 0 else -term
        p.append(acc)
    return p


def orthogonality_residuals(xs: Iterable[Scalar], K: int) -> list[Fraction]:
    """[r_0, ..., r_K] with r_k = sum_{i=0}^{k} (-1)^i sigma_i h_{k-i}, so
    r_0 = 1 and every other r_k = 0 (E(-t) H(t) = 1).  One sigma prefix and
    one h prefix, both cut at K, serve every k: a prefix cut at K starts
    with the prefix cut at k."""
    _check_int("K", K, 0)
    vals = tuple(xs)
    sig = elementary_prefix(vals, K)
    h = complete_prefix(vals, K)
    residuals = []
    for k in range(K + 1):
        total = Fraction(0)
        for i in range(k + 1):
            term = sig[i] * h[k - i]
            total += term if i % 2 == 0 else -term
        residuals.append(total)
    return residuals


def pn_polynomial_coeffs(n: int) -> Poly:
    """The degree n-1 polynomial sum_{j=1}^{n} prod_{l != j} (1 - l*x),
    computed by literal expansion.

    Its x^m coefficient equals (n-m) * (-1)^m * sigma_m(1..n).
    """
    _check_int("n", n, 1)
    products = []
    for j in range(1, n + 1):
        prod = Poly([1])
        for l in range(1, n + 1):
            if l != j:
                prod = prod * Poly([1, -l])
        products.append(prod.coeffs)
    # each product has degree n-1, so all n coefficient lists are as long
    return Poly(map(sum, zip(*products)))
