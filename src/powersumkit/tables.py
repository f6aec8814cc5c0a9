"""Bottom-up tables for sequences defined from their own earlier terms.

The caching rule of the package: no function calls itself.  A sequence
whose term j is built from the terms before it lives in a `recurrence`
table, filled bottom-up, so no input is bounded by the interpreter's
recursion limit.  Every other cache is an `lru_cache` of POINT_CACHE_SIZE.
"""

import threading
from collections import namedtuple

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])

# entries per point cache; a 64-row sigma/h table reads 2145 of them
POINT_CACHE_SIZE = 1 << 13


def recurrence(step):
    """Turn ``step(terms, j)``, which builds term j from ``terms[:j]``, into
    a function of j >= 0 that keeps every term built, under a lock.  Misses
    equal the size; hits go uncounted, to keep a hit one length check."""
    terms = []
    lock = threading.Lock()

    def term(j: int):
        if j < len(terms):
            return terms[j]
        with lock:
            while len(terms) <= j:
                terms.append(step(terms, len(terms)))
        return terms[j]

    def cache_clear() -> None:
        with lock:
            terms.clear()

    term.cache_info = lambda: CacheInfo(0, len(terms), None, len(terms))
    term.cache_clear = cache_clear
    return term
