from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersumkit import combinatorics, powersums, symfuncs
from powersumkit.powersums import (
    Method,
    compute,
    concordance,
    ones_identity_residual,
    s_binomial_recurrence,
    s_brute,
    s_even_powers,
    s_lang_original,
    s_lang_refined,
    s_newton_recurrence,
    s_odd_even_powers,
    s_odd_even_powers_poly,
    s_range,
    triangular_sum_binomial,
    triangular_sum_ls,
)


def test_brute_examples():
    assert s_brute(0, 7) == 7          # 0^0 = 1, so S_0(n) = n
    assert s_brute(3, 3) == 36
    assert s_brute(2, 4, r=2) == 29


def test_lang_original_examples():
    assert s_lang_original(2, 3) == 14
    assert s_lang_original(0, 5) == 5
    assert s_lang_original(5, 2) == 33


def test_lang_refined_examples():
    assert s_lang_refined(2, 2) == 5
    assert s_lang_refined(0, 9) == 9
    assert s_lang_refined(4, 10) == 25333


def test_newton_recurrence_examples():
    assert s_newton_recurrence(1, 4) == 10
    assert s_newton_recurrence(3, 4) == 100
    assert s_newton_recurrence(6, 6) == 67171
    assert type(s_newton_recurrence(6, 6)) is int


def test_binomial_recurrence_examples():
    assert s_binomial_recurrence(1, 5) == 15
    assert s_binomial_recurrence(2, 3) == 14
    assert s_binomial_recurrence(5, 5) == 4425


@pytest.mark.parametrize("fn", [s_newton_recurrence, s_binomial_recurrence])
def test_recurrences_reject_k0(fn):
    with pytest.raises(ValueError):
        fn(0, 4)


def test_range_examples():
    assert s_range(2, 4, 2) == 29
    assert s_range(3, 4, 4) == 64
    with pytest.raises(ValueError):
        s_range(2, 3, 4)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("k", range(1, 9))
def test_range_reduction_and_telescoping(k, n):
    assert s_range(k, n, 1) == s_lang_refined(k, n)
    for r in range(2, n + 1):
        assert s_range(k, n, r) == s_brute(k, n) - s_brute(k, r - 1)


def test_even_powers_examples():
    assert s_even_powers(1, 2) == 5
    assert s_even_powers(2, 3) == 98
    assert s_even_powers(3, 5) == 20515


def test_odd_even_powers_examples():
    assert s_odd_even_powers(1, 2) == 10
    assert s_odd_even_powers(2, 2) == 82
    assert s_odd_even_powers(2, 4) == 1 + 81 + 625 + 2401


def test_odd_even_powers_poly_examples():
    assert s_odd_even_powers_poly(1, 2) == 10
    assert s_odd_even_powers_poly(1, 1) == 1
    assert s_odd_even_powers_poly(3, 3) == 1 + 3 ** 6 + 5 ** 6


@pytest.mark.parametrize("k", range(1, 7))
def test_even_and_odd_sums_match_brute(k):
    for n in range(1, 16):
        assert s_even_powers(k, n) == s_brute(2 * k, n)
    for n in range(1, 13):
        direct = sum((2 * i - 1) ** (2 * k) for i in range(1, n + 1))
        assert s_odd_even_powers(k, n) == direct
        assert s_odd_even_powers_poly(k, n) == direct


def test_triangular_examples():
    assert triangular_sum_ls(1, 2) == 4
    assert triangular_sum_ls(1, 4) == 20
    assert triangular_sum_ls(2, 3) == 46
    assert triangular_sum_binomial(1, 3) == 10
    assert triangular_sum_binomial(2, 2) == 10
    assert triangular_sum_binomial(3, 1) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_triangular_sums_match_direct(k):
    for n in range(1, 13):
        direct = sum((i * (i + 1) // 2) ** k for i in range(1, n + 1))
        assert triangular_sum_ls(k, n) == direct
        assert triangular_sum_binomial(k, n) == direct


@pytest.mark.parametrize("k", [1, 2, 32, 52, 64])
@pytest.mark.parametrize("n", [1, 2, 45, 55])
def test_bernoulli_forms_match_direct_sums_at_depth(k, n):
    """Far past the verify grid (k <= 6, n <= 12): a slip in the common
    denominator or in an index of the int sums would show here."""
    odd = sum((2 * i - 1) ** (2 * k) for i in range(1, n + 1))
    triangular = sum((i * (i + 1) // 2) ** k for i in range(1, n + 1))
    assert s_odd_even_powers_poly(k, n) == odd
    assert triangular_sum_binomial(k, n) == triangular


SIGMA_H_CELLS = ("r_stirling_first", "r_stirling_second", "central_factorial_first",
                 "central_factorial_second", "legendre_stirling_first",
                 "legendre_stirling_second")


def test_bernoulli_forms_reach_no_formula_they_are_checked_against(monkeypatch):
    """A formula must not call one it is checked against: with every other
    method, the sigma/h relation, the sigma/h DPs, the sigma/h point cache
    and the sigma/h cell functions made to raise, and the Bernoulli table
    cold, both Bernoulli forms still give the right value at (5, 7)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a Bernoulli form reached a formula it is checked against")

    bernoulli_forms = (s_odd_even_powers_poly, triangular_sum_binomial)
    for fn in powersums._METHODS.values():
        if fn not in bernoulli_forms:
            monkeypatch.setattr(powersums, fn.__name__, forbidden)
    for name in ("power_sum_from_sigma_h", "newton_girard_power_sums", "_sigma_h_int"):
        monkeypatch.setattr(powersums, name, forbidden)
    for name in ("power_sum_from_sigma_h", "newton_girard_power_sums",
                 "elementary_prefix", "complete_prefix", "sigma_h_prefixes"):
        monkeypatch.setattr(symfuncs, name, forbidden)
    for name in ("elementary_prefix", "complete_prefix", "sigma_h_prefixes", *SIGMA_H_CELLS):
        monkeypatch.setattr(combinatorics, name, forbidden)
    combinatorics._bernoulli.cache_clear()
    assert s_odd_even_powers_poly(5, 7) == sum((2 * i - 1) ** 10 for i in range(1, 8))
    assert triangular_sum_binomial(5, 7) == sum((i * (i + 1) // 2) ** 5
                                                for i in range(1, 8))


def test_ones_identity_examples():
    assert ones_identity_residual(2, 3) == 0
    assert ones_identity_residual(1, 11) == 0
    assert ones_identity_residual(7, 4) == 0


@pytest.mark.parametrize("k", range(1, 16))
def test_ones_identity_sweep(k):
    for n in range(1, 16):
        assert ones_identity_residual(k, n) == 0


@pytest.mark.parametrize("n", range(1, 26))
def test_concordance_all_methods(n):
    """Every formula agrees with brute force for k <= 12."""
    for k in range(1, 13):
        values = concordance(k, n)
        assert set(values) == {
            Method.BRUTE, Method.LANG_ORIGINAL, Method.LANG_REFINED,
            Method.NEWTON_RECURRENCE, Method.BINOMIAL_RECURRENCE,
            Method.RANGE_R_STIRLING}
        assert len(set(values.values())) == 1
        assert values[Method.BRUTE] == s_brute(k, n)
    # k = 0: the Lang forms give n
    assert s_lang_original(0, n) == n
    assert s_lang_refined(0, n) == n


def test_compute_rejects_r_for_non_range_methods():
    for r in (0, -1, 2):
        with pytest.raises(ValueError, match=r"^method lang-refined supports only r = 1$"):
            compute(Method.LANG_REFINED, 2, 5, r=r)


@pytest.mark.parametrize("r", [1.0, True])
def test_a_non_int_r_is_a_type_error_at_the_least_n(r):
    """n = 1 is the least n, so at n = 1 only r is wrong: a float or a bool
    r is a TypeError, for s_brute and for compute of every method that
    takes r."""
    with pytest.raises(TypeError, match="^r must be an int"):
        s_brute(2, 1, r)
    for method, (_, takes_r, _) in powersums._CONTRACTS.items():
        if takes_r:
            with pytest.raises(TypeError, match="^r must be an int"):
                compute(method, 2, 1, r)


def test_compute_accepts_method_string_values():
    assert compute("brute", 3, 4) == 100
    assert compute("range-r-stirling", 2, 4, 2) == 29
    for method in Method:
        assert compute(method.value, 2, 3) == compute(method, 2, 3)
    with pytest.raises(ValueError):
        compute("bogus", 3, 4)


@pytest.mark.parametrize("method", list(Method))
def test_compute_rejects_non_int_arguments(method):
    """Floats, bools and Fractions are refused, not converted."""
    for bad in (2.5, 2.0, True, Fraction(2)):
        with pytest.raises(TypeError):
            compute(method, bad, 3)
        with pytest.raises(TypeError):
            compute(method, 2, bad)
        with pytest.raises(TypeError):
            compute(method, 2, 3, bad)


# the i-th term of the sum each method computes
_TERM = {
    Method.EVEN_CENTRAL: lambda i, k: i ** (2 * k),
    Method.ODD_CENTRAL: lambda i, k: (2 * i - 1) ** (2 * k),
    Method.ODD_BERNOULLI_POLY: lambda i, k: (2 * i - 1) ** (2 * k),
    Method.TRIANGULAR_LS: lambda i, k: (i * (i + 1) // 2) ** k,
    Method.TRIANGULAR_BINOMIAL: lambda i, k: (i * (i + 1) // 2) ** k,
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(Method)), st.integers(1, 40), st.data())
def test_every_method_equals_its_direct_sum(method, n, data):
    """Sizes beyond the verify grids (k <= 16, n <= 40)."""
    takes_k0 = method in (Method.BRUTE, Method.LANG_ORIGINAL, Method.LANG_REFINED)
    k = data.draw(st.integers(0 if takes_k0 else 1, 16), label="k")
    takes_r = method in (Method.BRUTE, Method.RANGE_R_STIRLING)
    r = data.draw(st.integers(1, n), label="r") if takes_r else 1
    term = _TERM.get(method, lambda i, k: i ** k)
    assert compute(method, k, n, r) == sum(term(i, k) for i in range(r, n + 1))
