"""Named generators for the finite variable sets the symmetric functions
are evaluated over.

A SequenceSpec is a small frozen value (hashable, so usable as a cache key)
that expands to an exact tuple of Fractions on demand.  All tags except
``inverse_squares`` generate integer values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

__all__ = ["SequenceSpec"]

# tag -> term i; a spec holds terms start..n
_TERMS = {
    "naturals": Fraction,
    "ones": lambda i: Fraction(1),
    "squares": lambda i: Fraction(i * i),
    "odd_squares": lambda i: Fraction((2 * i - 1) ** 2),
    "doubled_triangulars": lambda i: Fraction(i * (i + 1)),
    "inverse_squares": lambda i: Fraction(1, i * i),
}


@dataclass(frozen=True)
class SequenceSpec:
    tag: str
    n: int = 0
    start: int = 1

    def __post_init__(self):
        if self.tag not in _TERMS:
            raise ValueError(f"unknown sequence tag {self.tag!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def naturals(cls, n: int, start: int = 1) -> "SequenceSpec":
        """start, start+1, ..., n (empty when n < start)."""
        return cls("naturals", n, start)

    @classmethod
    def ones(cls, n: int) -> "SequenceSpec":
        return cls("ones", n)

    @classmethod
    def squares(cls, n: int) -> "SequenceSpec":
        """1^2, 2^2, ..., n^2."""
        return cls("squares", n)

    @classmethod
    def odd_squares(cls, n: int) -> "SequenceSpec":
        """1^2, 3^2, ..., (2n-1)^2."""
        return cls("odd_squares", n)

    @classmethod
    def doubled_triangulars(cls, n: int) -> "SequenceSpec":
        """2, 6, ..., n(n+1), i.e. twice the first n triangular numbers."""
        return cls("doubled_triangulars", n)

    @classmethod
    def inverse_squares(cls, n: int) -> "SequenceSpec":
        """1/1^2, 1/2^2, ..., 1/n^2 (finite truncation)."""
        return cls("inverse_squares", n)

    # -- expansion ---------------------------------------------------------

    def values(self) -> Tuple[Fraction, ...]:
        if self.n < 0:
            raise ValueError("sequence length must be >= 0")
        return tuple(map(_TERMS[self.tag], range(self.start, self.n + 1)))

    def __len__(self) -> int:
        return len(self.values())
