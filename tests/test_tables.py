import inspect
import sys
import threading
import time
from fractions import Fraction
from math import factorial, lcm

from powersumkit import combinatorics, zeta
from powersumkit.combinatorics import bernoulli_number, stirling_first_unsigned, stirling_second
from powersumkit.powersums import s_binomial_recurrence, s_newton_recurrence
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
