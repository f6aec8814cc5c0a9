"""Exact arithmetic substrate: dense rational polynomials and rational
multiples of even powers of pi.

Everything here is immutable and pure; no floating point appears in any
computation path: _exact turns away floats and bools with a TypeError.
_check_int is the one rule for the int arguments of the whole package, and
this is the only module that raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Union

Scalar = Union[int, Fraction]

__all__ = ["ConsistencyError", "Poly", "PiPower"]


class ConsistencyError(ArithmeticError):
    """An internal identity that must hold exactly failed to."""


def _exact(x: Scalar) -> Fraction:
    """x as a Fraction; only ints (not bools) and Fractions are exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


def _check_int(name: str, value: int, least: Optional[int] = None) -> None:
    """The rule for every int argument: an int and not a bool (nor any other
    subclass), else TypeError, and at least `least` when one is given, else
    ValueError.  Hot callers test `type(value) is int` inline first."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ConsistencyError(f"{what} produced non-integer value {x}")
    return x.numerator


class Poly:
    """Dense polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x**i.  Trailing zeros are trimmed,
    so the zero polynomial is canonically the empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def coeff(self, m: int) -> Fraction:
        """Coefficient of x**m, zero outside the stored range."""
        _check_int("m", m)
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        """P(p/q) by Horner's rule on ints: with D the lcm of the coefficient
        denominators, D q^n P(p/q) = sum_i (D c_i) p^i q^(n-i), one Fraction
        at the end."""
        x = _exact(x)
        cs = self.coeffs
        if not cs:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        d = lcm(*(c.denominator for c in cs))
        acc, q_power = 0, 1
        for c in reversed(cs):
            acc = acc * p + c.numerator * (d // c.denominator) * q_power
            q_power *= q
        return Fraction(acc, d * q ** (len(cs) - 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class PiPower:
    """Exact value ``coeff * pi**(2*half_exponent)``."""

    coeff: Fraction
    half_exponent: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", _exact(self.coeff))
        if type(self.half_exponent) is not int or self.half_exponent < 0:
            _check_int("half_exponent", self.half_exponent, 0)

    def __repr__(self) -> str:
        if self.half_exponent == 0:
            return f"PiPower({self.coeff})"
        return f"PiPower({self.coeff} * pi^{2 * self.half_exponent})"
