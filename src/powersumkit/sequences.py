"""Named generators for the finite variable sets the symmetric functions
are evaluated over.

sequence(tag, n, start) is the tuple of terms term(start), ..., term(n) of
its tag: for instance sequence("naturals", n, r) is r, r+1, ..., n (empty
when n < start) and sequence("odd_squares", n) is 1^2, 3^2, ..., (2n-1)^2.
The terms are ints.  n >= 0 and start >= 1 are checked.
"""

from __future__ import annotations

from .exact import _check_int

__all__ = ["sequence"]

# tag -> term i; a sequence holds terms start..n
_TERMS = {
    "naturals": lambda i: i,
    "squares": lambda i: i * i,
    "odd_squares": lambda i: (2 * i - 1) ** 2,
    "doubled_triangulars": lambda i: i * (i + 1),
}


def sequence(tag: str, n: int, start: int = 1) -> tuple[int, ...]:
    """The terms start..n of the sequence named `tag`."""
    if tag not in _TERMS:
        raise ValueError(f"unknown sequence tag {tag!r}")
    _check_int("n", n, 0)
    _check_int("start", start, 1)
    return tuple(map(_TERMS[tag], range(start, n + 1)))
