"""Bottom-up tables for sequences defined from their own earlier terms.

The caching rule of the package: no function calls itself, and a cache
is kept only where the traffic hits it.  A sequence whose term j is built
from the terms before it lives in a `recurrence` table, filled bottom-up,
so no input is bounded by the interpreter's recursion limit.  There are
four: the two Stirling row tables and the Bernoulli numbers in
`combinatorics`, and the zeta(2k) recursion in `zeta`.  A step reads only
its own terms, so what is derived from a term (a running lcm, a rescaled
coefficient) is carried in that term, never in a second table that could
go stale when the first is cleared.  Two are built a block at a time, for
different reasons: a tangent-number pass is not incremental, so the
Bernoulli table at least doubles; the zeta(2k) step keeps the numerators
of its earlier terms over one running lcm, which pays off across a block,
so it fills every term through the one asked for.  The only other caches
are the fixed-size point caches on sigma/h values in `combinatorics`.
"""

import threading
from collections import namedtuple

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def recurrence(step, *, blocks: bool = False):
    """Turn ``step(terms, j)``, which builds term j from ``terms[:j]``, into
    a function of j >= 0 that keeps every term built, under a lock.  With
    ``blocks=True``, ``step(terms, j)`` instead returns the list of terms
    from ``len(terms)`` through at least j, for sequences built a block at a
    time.  Misses equal the size; hits go uncounted, to keep a hit one
    length check."""
    terms = []
    lock = threading.Lock()

    def term(j: int):
        if j < len(terms):
            return terms[j]
        with lock:
            while len(terms) <= j:
                if blocks:
                    terms.extend(step(terms, j))
                else:
                    terms.append(step(terms, len(terms)))
        return terms[j]

    def cache_clear() -> None:
        with lock:
            terms.clear()

    term.cache_info = lambda: CacheInfo(0, len(terms), None, len(terms))
    term.cache_clear = cache_clear
    return term
