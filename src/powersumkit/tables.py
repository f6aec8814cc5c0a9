"""Bottom-up tables for sequences defined from their own earlier terms.

The caching rule of the package: no function calls itself, and a cache
is kept only where the traffic hits it.  A sequence whose term j is built
from the terms before it lives in a `recurrence` table, filled bottom-up,
so no input is bounded by the interpreter's recursion limit.  There are
four: the two Stirling row tables and the Bernoulli numbers in
`combinatorics`, and the zeta(2k) recursion in `zeta`.  A step reads only
its own terms, so what a step needs from the terms before it (a running
lcm) is carried in each term, never in a second table that could go stale
when the first is cleared; a value only read off a term, such as the
coefficient of pi^(2k) off a zeta(2k) term, is formed where it is read.
Every step returns the block of terms that follows the ones it is given,
and its comment says why the block is as long as it is.  The only other
cache is the fixed-size point cache on sigma/h values in `combinatorics`.
"""

import threading
from collections import namedtuple

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def recurrence(step):
    """Turn ``step(terms, j)``, which returns a non-empty list of the terms
    that follow ``terms``, into a function of j >= 0 that keeps every term
    built, calling the step under a lock until term j exists.  Misses equal
    the size; hits go uncounted, to keep a hit one length check."""
    terms = []
    lock = threading.Lock()

    def term(j: int):
        if j < len(terms):
            return terms[j]
        with lock:
            while len(terms) <= j:
                terms.extend(step(terms, j))
        return terms[j]

    def cache_clear() -> None:
        with lock:
            terms.clear()

    term.cache_info = lambda: CacheInfo(0, len(terms), None, len(terms))
    term.cache_clear = cache_clear
    return term
