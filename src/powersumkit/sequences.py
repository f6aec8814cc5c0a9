"""Named generators for the finite variable sets the symmetric functions
are evaluated over.

A SequenceSpec(tag, n, start) is a small frozen value (hashable, so usable
as a cache key) that expands on demand to the exact tuple of Fractions
term(start), ..., term(n) of its tag: for instance SequenceSpec("naturals",
n, r) is r, r+1, ..., n (empty when n < start) and SequenceSpec("odd_squares",
n) is 1^2, 3^2, ..., (2n-1)^2.  n >= 0 and start >= 1 are checked at
construction.  All tags except ``inverse_squares`` generate integer values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exact import _check_int

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


@dataclass(frozen=True, slots=True)
class SequenceSpec:
    tag: str
    n: int = 0
    start: int = 1

    def __post_init__(self):
        if self.tag not in _TERMS:
            raise ValueError(f"unknown sequence tag {self.tag!r}")
        # inline test first: the sigma/h cells build a spec per lookup
        if type(self.n) is not int or type(self.start) is not int \
                or self.n < 0 or self.start < 1:
            _check_int("n", self.n, 0)
            _check_int("start", self.start, 1)

    def values(self) -> Tuple[Fraction, ...]:
        return tuple(map(_TERMS[self.tag], range(self.start, self.n + 1)))

    def __len__(self) -> int:
        return len(self.values())
