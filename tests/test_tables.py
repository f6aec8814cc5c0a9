import inspect
import sys
from fractions import Fraction
from math import factorial

from powersumkit import combinatorics, zeta
from powersumkit.combinatorics import bernoulli_number, stirling_first_unsigned, stirling_second
from powersumkit.powersums import s_binomial_recurrence, s_newton_recurrence
from powersumkit.tables import recurrence
from powersumkit.zeta import bernoulli_even_recursion, zeta_even_classical, zeta_even_exact


def test_recurrence_builds_terms_bottom_up():
    calls = []

    @recurrence
    def squares(terms, j):
        calls.append(j)
        return 0 if j == 0 else terms[j - 1] + 2 * j - 1

    assert squares(5) == 25 and squares(3) == 9
    assert calls == [0, 1, 2, 3, 4, 5]
    assert squares.cache_info().currsize == 6
    squares.cache_clear()
    assert squares.cache_info().currsize == 0 and squares(2) == 4


def test_deep_calls_need_no_recursion():
    """Cold tables answer deep queries under a recursion limit only a few
    dozen frames above the caller's."""
    for cached in (combinatorics._stirling1_row, combinatorics._stirling2_row,
                   combinatorics._bernoulli, zeta._zeta_coeff,
                   s_newton_recurrence, s_binomial_recurrence):
        cached.cache_clear()
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = [stirling_first_unsigned(200, 3), stirling_second(200, 3),
               zeta_even_exact(150), s_newton_recurrence(200, 4),
               s_binomial_recurrence(200, 4), bernoulli_even_recursion(60)]
        classical = zeta_even_classical(150)
    finally:
        sys.setrecursionlimit(old_limit)
    h1 = sum(Fraction(1, i) for i in range(1, 200))
    h2 = sum(Fraction(1, i * i) for i in range(1, 200))
    s4 = sum(i ** 200 for i in range(1, 5))
    assert got == [factorial(199) * (h1 * h1 - h2) / 2,
                   (3 ** 200 - 3 * 2 ** 200 + 3) // 6,
                   classical, s4, s4, bernoulli_number(120)]
