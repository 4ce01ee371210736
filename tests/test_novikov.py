import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from toricfloer.cli import render_novikov
from toricfloer.novikov import DEFAULT_CUTOFF, ONE, ZERO, NovikovElement, monomial

from conftest import assert_normal, oracle_render


def rand_element(rng: random.Random, max_terms: int = 5) -> NovikovElement:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = F(rng.randint(-9, 9), rng.randint(1, 9))
        t_exp = F(rng.randint(-6, 12), rng.choice([1, 2, 3, 4, 6]))
        q_exp = rng.randint(-3, 3)
        terms.append((coeff, t_exp, q_exp))
    return NovikovElement(terms)


class TestNormalization:
    def test_terms_sorted_and_combined(self):
        a = NovikovElement([(1, F(1, 2), 1), (2, 0, 0), (3, F(1, 2), 1)])
        assert a.terms == ((F(2), F(0), 0), (F(4), F(1, 2), 1))

    def test_zero_coefficients_dropped(self):
        a = NovikovElement([(1, 1, 0), (-1, 1, 0), (2, 0, 1)])
        assert a.terms == ((F(2), F(0), 1),)

    def test_same_t_different_q_kept_separate(self):
        a = NovikovElement([(1, 1, 0), (1, 1, 1)])
        assert len(a.terms) == 2

    def test_equality_and_hash(self):
        a = NovikovElement([(F(1, 2), F(1, 3), 1)])
        b = monomial(F(1, 2), F(1, 3), 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != monomial(F(1, 2), F(1, 3), 2)

    def test_int_coercion_in_equality(self):
        assert monomial(3, 0, 0) == 3
        assert ZERO == 0
        assert ONE == 1
        assert monomial(1, 1, 0) != 1

    def test_constants_hash_as_their_scalar(self):
        assert hash(ONE) == hash(1)
        assert hash(ZERO) == hash(0)
        assert hash(monomial(F(1, 2))) == hash(F(1, 2))
        assert len({ONE, 1}) == 1
        assert len({ZERO, 0, monomial(0, 1, 1)}) == 1

    def test_rejects_non_integer_q(self):
        with pytest.raises(TypeError):
            NovikovElement([(1, 0, F(1, 2))])

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            NovikovElement([(0.5, 0, 0)])
        with pytest.raises(TypeError):
            NovikovElement([(1, 0.5, 0)])


class TestArithmetic:
    def test_addition_cancels(self):
        a = monomial(1, F(1, 2), 1)
        assert a + (-a) == ZERO
        assert not (a - a)

    def test_multiplication_adds_exponents(self):
        a = monomial(2, F(1, 3), 1)
        b = monomial(F(1, 2), F(2, 3), -2)
        assert a * b == monomial(1, 1, -1)

    def test_difference_of_squares(self):
        t = monomial(1, F(1, 2), 1)
        assert (ONE - t) * (ONE + t) == ONE - t * t

    def test_scalar_operations(self):
        a = monomial(3, 1, 1)
        assert 2 * a == monomial(6, 1, 1)
        assert a * F(1, 3) == monomial(1, 1, 1)
        assert a + 1 == NovikovElement([(1, 0, 0), (3, 1, 1)])
        assert 1 - a == NovikovElement([(1, 0, 0), (-3, 1, 1)])
        assert 0 * a == ZERO

    def test_power(self):
        t = monomial(1, F(1, 2), 1)
        assert (ONE + t) ** 2 == ONE + 2 * t + monomial(1, 1, 2)
        assert t**0 == ONE
        with pytest.raises(ValueError):
            t ** (-1)

    def test_ring_axioms_random(self):
        rng = random.Random(20260815)
        for _ in range(500):
            a, b, c = (rand_element(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * ONE == a
            assert a + ZERO == a


class TestValuation:
    def test_examples(self):
        assert monomial(1, F(1, 2), 1).valuation() == F(1, 2)
        a = NovikovElement([(1, 2, 0), (1, F(-1, 3), 5)])
        assert a.valuation() == F(-1, 3)

    def test_zero_has_infinite_valuation(self):
        assert ZERO.valuation() == math.inf

    def test_multiplicative(self):
        # the lowest T-slice of a product is a product of nonzero Laurent
        # polynomials in q, so it cannot cancel
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            a, b = rand_element(rng), rand_element(rng)
            if not a or not b:
                continue
            assert (a * b).valuation() == a.valuation() + b.valuation()
            checked += 1

    def test_subadditive_under_addition(self):
        rng = random.Random(8)
        for _ in range(200):
            a, b = rand_element(rng), rand_element(rng)
            assert (a + b).valuation() >= min(a.valuation(), b.valuation())


class TestTruncate:
    def test_drops_high_terms_only(self):
        a = NovikovElement([(1, 0, 0), (1, 3, 1), (1, 7, 2)])
        assert a.truncate(3) == NovikovElement([(1, 0, 0), (1, 3, 1)])
        assert a.truncate(F(5, 2)) == NovikovElement([(1, 0, 0)])
        assert a.truncate(100) == a


class TestInvert:
    def test_monomial_inverse_is_exact(self):
        a = monomial(F(2, 3), F(5, 2), 3)
        assert a * a.invert(4) == ONE

    def test_golden_series(self):
        a = ONE + monomial(1, F(1, 2), 1)
        inv = a.invert(1)
        assert str(inv) == "1 - T^{1/2}*q + T*q^2"
        assert str(a * inv) == "1 + T^{3/2}*q^3"

    def test_remainder_valuation_beyond_cutoff(self):
        rng = random.Random(9)
        for _ in range(100):
            lead = monomial(F(rng.randint(1, 9)), F(rng.randint(-3, 3)), rng.randint(-2, 2))
            tail = NovikovElement(
                [
                    (rng.randint(-9, 9), F(rng.randint(1, 12), rng.choice([1, 2, 3])), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 3))
                ]
            )
            a = lead * (ONE + tail)
            cutoff = F(rng.randint(1, 6))
            rem = a * a.invert(cutoff) - ONE
            assert rem.valuation() > cutoff

    def test_default_cutoff(self):
        a = ONE - monomial(1, 1, 1)
        rem = a * a.invert() - ONE
        assert rem.valuation() > DEFAULT_CUTOFF

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.invert(1)

    def test_tied_least_exponent_raises(self):
        a = ONE + monomial(1, 0, 1)
        with pytest.raises(ArithmeticError):
            a.invert(1)

    def test_negative_exponents_allowed(self):
        a = monomial(1, -2, 0) + monomial(1, F(-3, 2), 1)
        inv = a.invert(0)
        assert (a * inv - ONE).valuation() > 0


class TestNumeric:
    def test_monomial(self):
        assert monomial(2, 1, 5).numeric() == pytest.approx(2 * math.exp(-1))

    def test_q_is_dropped_at_one(self):
        a = NovikovElement([(1, 1, 0), (-1, 1, 3)])
        assert a.numeric() == pytest.approx(0.0, abs=1e-15)

    def test_linear(self):
        rng = random.Random(10)
        for _ in range(50):
            a, b = rand_element(rng), rand_element(rng)
            assert (a + b).numeric() == pytest.approx(
                a.numeric() + b.numeric(), rel=1e-12, abs=1e-12
            )


class TestRendering:
    def test_golden_strings(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(monomial(1, F(1, 2), 1)) == "T^{1/2}*q"
        assert str(monomial(-1, 1, 2)) == "-T*q^2"
        assert str(monomial(F(3, 2), F(1, 3), 1)) == "3/2*T^{1/3}*q"
        a = ONE - monomial(2, F(1, 2), 1) + monomial(1, 2, 2)
        assert str(a) == "1 - 2*T^{1/2}*q + T^2*q^2"
        assert str(monomial(5, 0, -1)) == "5*q^{-1}"

    def test_repr_round_trip_readable(self):
        assert repr(monomial(1, 1, 1)) == "NovikovElement[T*q]"


# hypothesis sweeps over small elements; the seeded loops above cover the
# bigger exponent ranges
fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
elements = st.builds(
    NovikovElement,
    st.lists(st.tuples(fracs, fracs, st.integers(-2, 2)), max_size=4),
)


@given(elements, elements)
def test_commutativity_property(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(elements, elements, elements)
def test_distributivity_property(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(elements)
def test_truncation_splits_element(a):
    cut = F(1, 2)
    low = a.truncate(cut)
    high = a - low
    assert all(t <= cut for _, t, _ in low.terms)
    assert high.valuation() > cut or not high
    assert low + high == a


# the fast paths of + and * against the normalizing constructor
monomials = st.builds(monomial, fracs, fracs, st.integers(-2, 2))


@given(elements, elements)
def test_sum_merges_to_normal_form(a, b):
    total = a + b
    assert total == NovikovElement(a.terms + b.terms)
    assert_normal(total)
    assert_normal(a - b)
    assert_normal(-a)


@given(elements, monomials)
def test_product_with_one_term_shifts_in_place(a, m):
    expected = NovikovElement(
        [(c1 * c2, t1 + t2, q1 + q2) for c1, t1, q1 in a.terms for c2, t2, q2 in m.terms]
    )
    for product in (a * m, m * a):
        assert product == expected
        assert_normal(product)


@given(elements, elements, fracs, st.integers(-3, 3))
def test_products_stay_normal(a, b, s, k):
    assert_normal(a * b)
    assert_normal(a * s)
    assert_normal(a * k)
    assert_normal(a.truncate(s))


# the fast paths of * by 1, -1, ONE and a term with coefficient 1
unit_terms = st.builds(lambda t, m: monomial(1, t, m), fracs, st.integers(-2, 2))


@given(elements)
def test_product_by_unit_scalars(x):
    for one in (1, F(1), ONE):
        assert x * one == x
        assert one * x == x
    for minus_one in (-1, F(-1), -ONE):
        assert x * minus_one == -x
        assert minus_one * x == -x
    for result in (x * 1, x * -1, x * F(-1), x * ONE, ONE * x, x * -ONE):
        assert_normal(result)


@given(elements, unit_terms)
def test_product_with_unit_term_shifts_exponents(x, m):
    _c, dt, dq = m.terms[0]
    expected = NovikovElement([(c, t + dt, q + dq) for c, t, q in x.terms])
    for result in (x * m, m * x):
        assert result == expected
        assert_normal(result)


@given(elements)
def test_product_by_one_is_the_operand(x):
    # whichever side the unit is on, and however it was built; a unit
    # times a unit may return either operand
    assume(x != ONE)
    for one in (ONE, monomial(1)):
        assert (x * one) is x
        assert (one * x) is x


def test_one_term_times_one_is_not_rebuilt():
    c = monomial(2, 1, 1)
    assert (c * ONE) is c
    assert (ONE * c) is c


# rendering against the Fraction renderer it replaced: negative and
# fractional coefficients, exponents of one digit and of several, q^k
# for negative and multi-digit k, and the zero element
render_rationals = st.one_of(
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
)
render_elements = st.builds(
    NovikovElement,
    st.lists(st.tuples(render_rationals, render_rationals, st.integers(-12, 12)), max_size=5),
)


@given(render_elements)
def test_render_matches_fraction_oracle(x):
    assert str(x) == oracle_render(x)
    assert render_novikov(x) == oracle_render(x)
    two_pi = oracle_render(x, lambda t: f"T^{float(t) * 2 * math.pi:.6g}")
    assert render_novikov(x, two_pi=True) == two_pi


def test_render_of_zero():
    assert str(ZERO) == oracle_render(ZERO) == "0"
    assert render_novikov(ZERO, two_pi=True) == "0"
