"""Elementary / complete homogeneous symmetric functions, power sums, and
the Newton-Girard machinery over exact finite sequences.

Variable lists are a SequenceSpec or any iterable of ints / Fractions (a
float or a bool raises TypeError).  Values are always Fractions, even when
integer-valued, so the inverse-squares sequence flows through the same code
path; integer-valued callers check unit denominators at their own boundary
(ConsistencyError).  power_sum_from_sigma_h is the one p/sigma/h relation:
the Lang-type power sums and two zeta identities only build its sigma and h.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Union

from .exact import Poly, _check_int, _exact
from .sequences import SequenceSpec

Vars = Union[SequenceSpec, Iterable]

__all__ = [
    "elementary_prefix",
    "complete_prefix",
    "power_sums_direct",
    "power_sum_from_sigma_h",
    "power_sum_via_lang",
    "newton_girard_power_sums",
    "orthogonality_residual",
    "pn_polynomial_coeffs",
]


def _values(xs: Vars) -> Sequence[Fraction]:
    if isinstance(xs, SequenceSpec):
        return xs.values()
    return [_exact(v) for v in xs]


def elementary_prefix(xs: Vars, M: int) -> List[Fraction]:
    """[sigma_0, ..., sigma_M] by the one-variable-at-a-time product DP.

    Entries with index above the number of variables are zero.
    """
    _check_int("M", M, 0)
    sig = [Fraction(1)] + [Fraction(0)] * M
    for x in _values(xs):
        for m in range(M, 0, -1):
            sig[m] += x * sig[m - 1]
    return sig


def complete_prefix(xs: Vars, M: int) -> List[Fraction]:
    """[h_0, ..., h_M] by the DP h_m <- h_m + x * h_{m-1} (h from the
    current, already-updated row: each variable may repeat)."""
    _check_int("M", M, 0)
    h = [Fraction(1)] + [Fraction(0)] * M
    for x in _values(xs):
        for m in range(1, M + 1):
            h[m] += x * h[m - 1]
    return h


def power_sums_direct(xs: Vars, M: int) -> List[Fraction]:
    """[p_1, ..., p_M] by direct exponentiation and summation.

    This is the brute-force oracle everything else is compared against.
    """
    _check_int("M", M, 1)
    vals = _values(xs)
    return [sum((x ** m for x in vals), Fraction(0)) for m in range(1, M + 1)]


def power_sum_from_sigma_h(sigma: Sequence, h: Sequence):
    """p_k = sum_{m=1}^{k} (-1)^(m-1) m sigma_m h_{k-m} from sigma = [sigma_1..sigma_k]
    and h = [h_0..h_{k-1}]; values are used as given, so int inputs give an int."""
    k = len(sigma)
    if len(h) != k:
        raise ValueError(f"need as many h values as sigma values, got {len(h)} and {k}")
    total = 0
    for m in range(1, k + 1):
        term = m * sigma[m - 1] * h[k - m]
        total += term if m % 2 else -term
    return total


def power_sum_via_lang(xs: Vars, k: int) -> Fraction:
    """p_k from the sigma and h prefixes of xs (power_sum_from_sigma_h)."""
    _check_int("k", k, 1)
    vals = _values(xs)
    return power_sum_from_sigma_h(elementary_prefix(vals, k)[1:],
                                  complete_prefix(vals, k)[:k])


def newton_girard_power_sums(sigma: Sequence[Fraction], K: int) -> List[Fraction]:
    """[p_1, ..., p_K] by forward substitution through the unit
    lower-triangular Newton-Girard system.

    ``sigma`` holds sigma_0..sigma_K (missing trailing entries are treated
    as zero); sigma_0 must be 1.
    """
    _check_int("K", K, 1)
    sig = [_exact(s) for s in sigma]
    if not sig or sig[0] != 1:
        raise ValueError("sigma[0] must be 1")
    sig += [Fraction(0)] * (K + 1 - len(sig))

    p: List[Fraction] = []
    for m in range(1, K + 1):
        acc = m * sig[m] * (1 if (m - 1) % 2 == 0 else -1)
        # inner sum is empty when m = 1
        for j in range(1, m):
            term = sig[j] * p[m - j - 1]
            acc -= term if j % 2 == 0 else -term
        p.append(acc)
    return p


def orthogonality_residual(xs: Vars, k: int) -> Fraction:
    """sum_{i=0}^{k} (-1)^i sigma_i h_{k-i}; equals 1 at k=0 and 0 otherwise."""
    _check_int("k", k, 0)
    vals = _values(xs)
    sig = elementary_prefix(vals, k)
    h = complete_prefix(vals, k)
    total = Fraction(0)
    for i in range(k + 1):
        term = sig[i] * h[k - i]
        total += term if i % 2 == 0 else -term
    return total


def pn_polynomial_coeffs(n: int) -> Poly:
    """The degree n-1 polynomial sum_{j=1}^{n} prod_{l != j} (1 - l*x),
    computed by literal expansion.

    Its x^m coefficient equals (n-m) * (-1)^m * sigma_m(1..n).
    """
    _check_int("n", n, 1)
    total = Poly()
    for j in range(1, n + 1):
        prod = Poly([1])
        for l in range(1, n + 1):
            if l != j:
                prod = prod * Poly([1, -l])
        total = total + prod
    return total
