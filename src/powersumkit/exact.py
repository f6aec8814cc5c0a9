"""Exact arithmetic substrate: dense integer polynomials and rational
multiples of even powers of pi.

No value here is changed once built (Poly and PiPower are plain __slots__
classes, so the code keeps this rather than enforcing it), and every
function is pure; no floating point appears in any computation path:
_exact turns away floats and bools with a TypeError.  _check_int is the
one rule for the int arguments of the whole package, and this is the only
module that raises TypeError.  _quotient is the one integrality rule: an
exact division whose nonzero remainder raises ConsistencyError rather than
being rounded.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

Scalar = int | Fraction

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


def _check_int(name: str, value: int, least: int | None = None) -> None:
    """The rule for every int argument: an int and not a bool (nor any other
    subclass), else TypeError, and at least `least` when one is given, else
    ValueError.  Hot callers test `type(value) is int` inline first."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def _quotient(num: int, den: int, what: str) -> int:
    """num / den, which must be an int, else ConsistencyError."""
    q, rem = divmod(num, den)
    if rem:
        raise ConsistencyError(f"{what} produced non-integer value {Fraction(num, den)}")
    return q


class Poly:
    """Dense polynomial with int coefficients.

    ``coeffs[i]`` is the coefficient of x**i.  Trailing zeros are trimmed,
    so the zero polynomial is canonically the empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                _check_int("coefficient", c)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __call__(self, x: Scalar) -> Fraction:
        """P(p/q) by Horner's rule on ints, q^n P(p/q) = sum_i c_i p^i q^(n-i),
        one Fraction at the end."""
        x = _exact(x)
        if not self.coeffs:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, q_power = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc, q_power // q)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


class PiPower:
    """Exact value ``coeff * pi**(2*half_exponent)``.

    Equal to a PiPower with the same coeff and half_exponent, and to
    nothing else.  A plain class, neither hashable nor frozen; nothing
    assigns to its fields after __init__."""

    __slots__ = ("coeff", "half_exponent")

    def __init__(self, coeff: Scalar, half_exponent: int = 0):
        self.coeff = _exact(coeff)
        if type(half_exponent) is not int or half_exponent < 0:
            _check_int("half_exponent", half_exponent, 0)
        self.half_exponent = half_exponent

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiPower):
            return NotImplemented
        return self.coeff == other.coeff and self.half_exponent == other.half_exponent

    def __repr__(self) -> str:
        if self.half_exponent == 0:
            return f"PiPower({self.coeff})"
        return f"PiPower({self.coeff} * pi^{2 * self.half_exponent})"
