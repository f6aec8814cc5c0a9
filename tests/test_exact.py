from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powersumkit.exact import PiPower, Poly
from powersumkit.symfuncs import (
    complete_prefix,
    elementary_prefix,
    newton_girard_power_sums,
    power_sum_from_sigma_h,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)
ints = st.integers(-10 ** 6, 10 ** 6)


class TestPoly:
    def test_eval_b2_at_half(self):
        # 6 B_2(x) = 6x^2 - 6x + 1 at 1/2
        p = Poly([1, -6, 6])
        assert p(Fraction(1, 2)) == Fraction(-1, 2)

    def test_eval_zero_poly(self):
        assert Poly()(Fraction(3, 7)) == 0
        assert Poly([0, 0]).coeffs == ()

    def test_eval_identity(self):
        assert Poly([0, 1])(5) == 5

    def test_degree_conventions(self):
        assert Poly().coeffs == ()
        assert Poly([2, 0, 0]).coeffs == (2,)
        assert Poly([1, 2, 3]).coeffs == (1, 2, 3)

    @pytest.mark.parametrize("bad", [True, 1.0, Fraction(1)])
    def test_coefficients_must_be_ints(self, bad):
        with pytest.raises(TypeError, match="coefficient must be an int"):
            Poly([1, bad])

    @given(st.lists(ints, max_size=8),
           st.one_of(rationals, st.integers(-10 ** 6, 10 ** 6)))
    @example([], Fraction(3, 7))
    @example([1, 2, 3], 0)
    @example([1, -6, 6], Fraction(-1, 2))
    @example([-8, 0, 15], -7)
    def test_eval_equals_fraction_horner(self, cs, x):
        """The integer Horner loop agrees with a plain Fraction loop and
        returns a reduced Fraction."""
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        got = Poly(cs)(x)
        assert type(got) is Fraction and got == acc

    def test_mul(self):
        # (1 - x)(1 - 2x) = 1 - 3x + 2x^2
        assert (Poly([1, -1]) * Poly([1, -2])).coeffs == (1, -3, 2)
        assert (Poly() * Poly([1, 2])).coeffs == ()

    @given(st.lists(ints, max_size=6), st.lists(ints, max_size=6), rationals)
    def test_eval_additive(self, a, b, x):
        """Evaluation is linear in the coefficients."""
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        summed = Poly([s + t for s, t in zip(a, b)])
        assert summed(x) == Poly(a)(x) + Poly(b)(x)

    @given(st.lists(ints, max_size=5), st.lists(ints, max_size=5), rationals)
    def test_eval_multiplicative(self, a, b, x):
        p, q = Poly(a), Poly(b)
        assert (p * q)(x) == p(x) * q(x)


class TestPiPower:
    def test_plain_rational_when_exponent_zero(self):
        v = PiPower(Fraction(3, 4))
        assert v.half_exponent == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PiPower(Fraction(1), -1)

    def test_equal_only_when_coeff_and_exponent_are(self):
        assert PiPower(Fraction(1, 6), 1) == PiPower(Fraction(1, 6), 1)
        assert PiPower(2, 1) == PiPower(Fraction(2), 1)
        assert PiPower(Fraction(1, 6), 1) != PiPower(Fraction(1, 6), 2)
        assert PiPower(Fraction(1, 6), 1) != PiPower(Fraction(1, 7), 1)
        assert not PiPower(Fraction(1, 6), 1) == PiPower(Fraction(1, 6), 0)

    @pytest.mark.parametrize("other", [Fraction(3, 4), (Fraction(3, 4), 1), (Fraction(3, 4),)])
    def test_unequal_to_a_plain_value(self, other):
        """A tuple or a Fraction holding the same value is not a PiPower."""
        for value in (PiPower(Fraction(3, 4)), PiPower(Fraction(3, 4), 1)):
            assert value != other and other != value
            assert not value == other and not other == value

    def test_repr(self):
        assert repr(PiPower(Fraction(3, 4))) == "PiPower(3/4)"
        assert repr(PiPower(-2)) == "PiPower(-2)"
        assert repr(PiPower(Fraction(1, 6), 1)) == "PiPower(1/6 * pi^2)"
        assert repr(PiPower(Fraction(1, 90), 2)) == "PiPower(1/90 * pi^4)"


@pytest.mark.parametrize("bad", [0.1, 2.0, True])
@pytest.mark.parametrize("make", [
    lambda x: Poly([1, x]),
    lambda x: Poly([1]) * x,
    lambda x: x * Poly([1]),
    lambda x: Poly([1, 2])(x),
    lambda x: PiPower(x, 1),
    lambda x: PiPower(Fraction(1), 1) * x,
    lambda x: PiPower(Fraction(1), x),
    lambda x: elementary_prefix([Fraction(1, 2), x], 2),
    lambda x: complete_prefix([x], 2),
    lambda x: newton_girard_power_sums([1, x], 2),
    lambda x: newton_girard_power_sums([x], 1),
    lambda x: power_sum_from_sigma_h([Fraction(1, 2), x], [1, 2]),
    lambda x: power_sum_from_sigma_h([1, 2], [x, 1]),
])
def test_floats_and_bools_are_refused(make, bad):
    """Only ints and Fractions enter exact values; nothing is converted."""
    with pytest.raises(TypeError):
        make(bad)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
