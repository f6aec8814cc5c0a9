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
    so the zero polynomial is canonically the empty coefficient tuple and
    ``degree`` is -1 for it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> Fraction:
        """Coefficient of x**m, zero outside the stored range."""
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        x = _exact(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        other = _exact(other)
        return Poly(c * other for c in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class PiPower:
    """Exact value ``coeff * pi**(2*half_exponent)``.

    Addition is defined only between values with equal half_exponent;
    mixing exponents is a hard error by design, so an algebra bug that
    would silently add incommensurable terms surfaces immediately.
    Multiplication adds half_exponents.
    """

    coeff: Fraction
    half_exponent: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", _exact(self.coeff))
        if type(self.half_exponent) is not int or self.half_exponent < 0:
            _check_int("half_exponent", self.half_exponent, 0)

    def __add__(self, other: "PiPower") -> "PiPower":
        if self.half_exponent != other.half_exponent:
            raise ValueError(
                f"cannot add pi^{2 * self.half_exponent} and "
                f"pi^{2 * other.half_exponent} terms"
            )
        return PiPower(self.coeff + other.coeff, self.half_exponent)

    def __neg__(self) -> "PiPower":
        return PiPower(-self.coeff, self.half_exponent)

    def __sub__(self, other: "PiPower") -> "PiPower":
        return self + (-other)

    def __mul__(self, other: Union["PiPower", Scalar]) -> "PiPower":
        if isinstance(other, PiPower):
            return PiPower(self.coeff * other.coeff,
                           self.half_exponent + other.half_exponent)
        return PiPower(self.coeff * _exact(other), self.half_exponent)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.half_exponent == 0:
            return f"PiPower({self.coeff})"
        return f"PiPower({self.coeff} * pi^{2 * self.half_exponent})"
