import pytest

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
    with pytest.raises(ValueError):
        compute(Method.LANG_REFINED, 2, 5, r=2)


def test_compute_accepts_method_string_values():
    assert compute("brute", 3, 4) == 100
    assert compute("range-r-stirling", 2, 4, 2) == 29
    for method in Method:
        assert compute(method.value, 2, 3) == compute(method, 2, 3)
    with pytest.raises(ValueError):
        compute("bogus", 3, 4)
