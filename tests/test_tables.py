import inspect
import sys
import threading
import time
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from powersumkit import combinatorics, zeta
from powersumkit.combinatorics import (
    bernoulli_number,
    bernoulli_polynomial,
    central_factorial_first,
    central_factorial_second,
    legendre_stirling_first,
    legendre_stirling_second,
    r_stirling_first,
    r_stirling_second,
    stirling_first_unsigned,
    stirling_second,
)
from powersumkit.powersums import Method, compute, s_binomial_recurrence, s_newton_recurrence
from powersumkit.tables import recurrence
from powersumkit.zeta import bernoulli_even_recursion, zeta_even_classical, zeta_even_exact


def test_recurrence_builds_terms_bottom_up():
    built = []

    @recurrence
    def squares(terms, j):
        n = len(terms)
        built.append(n)
        return [0 if n == 0 else terms[n - 1] + 2 * n - 1]

    assert squares(5) == 25 and squares(3) == 9
    assert built == [0, 1, 2, 3, 4, 5]
    assert squares.cache_info().currsize == 6
    squares.cache_clear()
    assert squares.cache_info().currsize == 0 and squares(2) == 4


def test_recurrence_runs_one_step_at_a_time():
    """Four threads that ask a cold table for the same term together get
    one build of each term: the table's lock lets one step run at a time."""
    guard = threading.Lock()
    running, most_running, built = [0], [0], []

    @recurrence
    def squares(terms, j):
        n = len(terms)
        with guard:
            running[0] += 1
            most_running[0] = max(most_running[0], running[0])
        time.sleep(0.02)
        with guard:
            running[0] -= 1
            built.append(n)
        return [n * n]

    start = threading.Barrier(4, timeout=10)
    got = []

    def ask():
        start.wait()
        got.append(squares(5))

    threads = [threading.Thread(target=ask) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert most_running == [1]
    assert built == [0, 1, 2, 3, 4, 5]
    assert got == [25] * 4 and [squares(n) for n in range(6)] == [0, 1, 4, 9, 16, 25]


def test_deep_calls_need_no_recursion():
    """Cold tables answer deep queries under a recursion limit only a few
    dozen frames above the caller's."""
    for cached in (combinatorics._stirling1_row, combinatorics._stirling2_row,
                   combinatorics._bernoulli, zeta._zeta):
        cached.cache_clear()
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = [stirling_first_unsigned(200, 3), stirling_second(200, 3),
               zeta_even_exact(150), s_newton_recurrence(200, 4),
               s_binomial_recurrence(200, 4), bernoulli_even_recursion(60)]
        classical = zeta_even_classical(150)
        b1000 = bernoulli_number(1000)
        deep_zeta, deep_classical = zeta_even_exact(300), zeta_even_classical(300)
    finally:
        sys.setrecursionlimit(old_limit)
    h1 = sum(Fraction(1, i) for i in range(1, 200))
    h2 = sum(Fraction(1, i * i) for i in range(1, 200))
    s4 = sum(i ** 200 for i in range(1, 5))
    assert got == [factorial(199) * (h1 * h1 - h2) / 2,
                   (3 ** 200 - 3 * 2 ** 200 + 3) // 6,
                   classical, s4, s4, bernoulli_number(120)]
    assert deep_zeta == deep_classical
    # von Staudt-Clausen: B_1000 + sum of 1/p over primes p with (p-1) | 1000
    # is an integer, and B_1000 < 0
    primes = [p for p in range(2, 1002)
              if 1000 % (p - 1) == 0 and all(p % q for q in range(2, p))]
    assert (b1000 + sum(Fraction(1, p) for p in primes)).denominator == 1 and b1000 < 0


def test_zeta_table_keeps_one_running_lcm(monkeypatch):
    """A block keeps the earlier g numerators over one running lcm, read
    off the last term, and calls lcm only when a new g denominator does not
    divide it, on two arguments, so lcm sees at most two arguments per term,
    not every earlier denominator."""
    args = []

    def counting_lcm(*xs):
        args.extend(xs)
        return lcm(*xs)

    monkeypatch.setattr(zeta, "lcm", counting_lcm)
    zeta._zeta.cache_clear()
    try:
        zeta._zeta(60)
    finally:
        zeta._zeta.cache_clear()
    assert 0 < len(args) <= 2 * 61


# -- every growable table under any fill order -------------------------------
# The oracles below are written here and read no table of the library.

def _elementary(xs, m):
    """sigma_m(xs), the coefficient of t^m in prod (1 + x t)."""
    poly = [1]
    for x in xs:
        poly = [a + x * b for a, b in zip(poly + [0], [0] + poly)]
    return poly[m] if m < len(poly) else 0


def _complete(xs, m):
    """h_m(xs) of distinct xs by partial fractions:
    sum_i x_i^(m+k-1) / prod_(j != i) (x_i - x_j), k = len(xs)."""
    xs = list(xs)
    if not xs:
        return int(m == 0)
    return sum(Fraction(x ** (m + len(xs) - 1), prod(x - y for y in xs if y != x))
               for x in xs)


@cache
def _bernoulli_oracle(k_max):
    """B_0..B_k_max (B_1 = -1/2) by the Akiyama-Tanigawa algorithm."""
    a, b = [], []
    for m in range(k_max + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        b.append(a[0])
    b[1] = -b[1]
    return b


def _signed(n, k, xs):
    return (-1) ** (n - k) * _elementary(xs, n - k)


# family -> (cell of the library, its oracle), both of (n, k, r) with
# 0 <= k <= n, and 1 <= r <= n where r is read
CELLS = {
    "stirling1": (lambda n, k, r: stirling_first_unsigned(n, k),
                  lambda n, k, r: _elementary(range(n), n - k)),
    "stirling2": (lambda n, k, r: stirling_second(n, k),
                  lambda n, k, r: sum((-1) ** j * comb(k, j) * (k - j) ** n
                                      for j in range(k + 1)) // factorial(k)),
    "r_stirling1": (r_stirling_first, lambda n, k, r: _elementary(range(r, n), n - k)),
    "r_stirling2": (r_stirling_second, lambda n, k, r: _complete(range(r, k + 1), n - k)),
    "central_u": (lambda n, k, r: central_factorial_first(n, k, "even"),
                  lambda n, k, r: _signed(n, k, [i * i for i in range(1, n)])),
    "central_v": (lambda n, k, r: central_factorial_first(n, k, "odd"),
                  lambda n, k, r: _signed(n, k, [(2 * i - 1) ** 2 for i in range(1, n + 1)])),
    "central_U": (lambda n, k, r: central_factorial_second(n, k, "even"),
                  lambda n, k, r: _complete([i * i for i in range(1, k + 1)], n - k)),
    "central_V": (lambda n, k, r: central_factorial_second(n, k, "odd"),
                  lambda n, k, r: _complete([(2 * i + 1) ** 2 for i in range(k + 1)], n - k)),
    "ls1": (lambda n, k, r: legendre_stirling_first(n, k),
            lambda n, k, r: _signed(n, k, [i * (i + 1) for i in range(1, n)])),
    "ls2": (lambda n, k, r: legendre_stirling_second(n, k),
            lambda n, k, r: _complete([i * (i + 1) for i in range(1, k + 1)], n - k)),
}

# method -> its term at (i, k), summed over i = r..n; r > 1 only where read
POWER_SUM_TERMS = {
    **dict.fromkeys((Method.BRUTE, Method.LANG_ORIGINAL, Method.LANG_REFINED,
                     Method.NEWTON_RECURRENCE, Method.BINOMIAL_RECURRENCE,
                     Method.RANGE_R_STIRLING), lambda i, k: i ** k),
    Method.EVEN_CENTRAL: lambda i, k: i ** (2 * k),
    **dict.fromkeys((Method.ODD_CENTRAL, Method.ODD_BERNOULLI_POLY),
                    lambda i, k: (2 * i - 1) ** (2 * k)),
    **dict.fromkeys((Method.TRIANGULAR_LS, Method.TRIANGULAR_BINOMIAL),
                    lambda i, k: (i * (i + 1) // 2) ** k),
}

TABLES = [(combinatorics, "_stirling1_row"), (combinatorics, "_stirling2_row"),
          (combinatorics, "_bernoulli"), (zeta, "_zeta"), (combinatorics, "_sigma_h_int")]


class TableFillOrders(RuleBasedStateMachine):
    """Random reads of every public table-backed function, between random
    clears of the tables behind them, each answer checked against an oracle
    of this file: a step that depends on how its table was grown (a block,
    a running lcm, the zeta rescale) fails here under some fill order."""

    @rule(family=st.sampled_from(sorted(CELLS)), n=st.integers(0, 24),
          k=st.integers(0, 24), r=st.integers(1, 24))
    def read_cell(self, family, n, k, r):
        n = max(n, 1) if family.startswith("r_") else n
        k, r = k % (n + 1), 1 + (r - 1) % max(n, 1)
        cell, oracle = CELLS[family]
        assert cell(n, k, r) == oracle(n, k, r), (family, n, k, r)

    @rule(k=st.integers(0, 60), x=st.integers(-3, 3))
    def read_bernoulli(self, k, x):
        b = _bernoulli_oracle(60)
        assert bernoulli_number(k) == b[k]
        assert bernoulli_polynomial(k, x) == sum(comb(k, i) * b[i] * x ** (k - i)
                                                 for i in range(k + 1)), (k, x)

    @rule(k=st.integers(1, 30))
    def read_zeta(self, k):
        coeff = (-1) ** (k + 1) * _bernoulli_oracle(60)[2 * k] \
            * Fraction(2 ** (2 * k - 1), factorial(2 * k))
        value = zeta.zeta_even_exact(k)
        assert (value.coeff, value.half_exponent) == (coeff, k)

    @rule(method=st.sampled_from(sorted(POWER_SUM_TERMS)), k=st.integers(1, 12),
          n=st.integers(1, 15), r=st.integers(1, 15))
    def read_power_sum(self, method, k, n, r):
        r = 1 + (r - 1) % n if method in (Method.BRUTE, Method.RANGE_R_STIRLING) else 1
        term = POWER_SUM_TERMS[method]
        assert compute(method, k, n, r) == sum(term(i, k) for i in range(r, n + 1)), \
            (method, k, n, r)

    @rule(table=st.sampled_from(TABLES))
    def clear(self, table):
        module, name = table
        getattr(module, name).cache_clear()


TableFillOrders.TestCase.settings = settings(max_examples=40, stateful_step_count=40,
                                             deadline=None)
test_every_table_under_any_fill_order = TableFillOrders.TestCase
