import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer import (
    CliffordElement,
    DimensionMismatch,
    QuadraticForm,
    cl_grade,
    cl_mul,
    formal_hessian,
    load_toric,
)
from toricfloer.novikov import ONE, ZERO, NovikovElement, monomial

from conftest import assert_clifford_normal, balanced_fiber, oracle_cl_mul

T13 = monomial(1, F(1, 3), 1)


def cp2_form() -> QuadraticForm:
    X = load_toric("CP2")
    return formal_hessian(X, balanced_fiber(X))


def builtin_form(X) -> QuadraticForm:
    return formal_hessian(X, balanced_fiber(X))


def rand_clifford(rng: random.Random, n: int, max_terms: int = 3) -> CliffordElement:
    coeffs = {}
    subsets = [()] + [
        s for r in range(1, n + 1) for s in combinations(range(n), r)
    ]
    for _ in range(rng.randint(0, max_terms)):
        s = rng.choice(subsets)
        coeffs[s] = coeffs.get(s, ZERO) + monomial(
            F(rng.randint(-4, 4)), F(rng.randint(0, 4), rng.choice([1, 2, 3])), rng.randint(0, 2)
        )
    return CliffordElement(n, coeffs)


class TestElementBasics:
    def test_constructors(self):
        u = CliffordElement.unit(2)
        assert u.coefficient(()) == ONE
        g = CliffordElement.generator(2, 1)
        assert g.coefficient((1,)) == ONE
        b = CliffordElement.basis_element(2, (0, 1))
        assert b.coefficient((0, 1)) == ONE
        assert not CliffordElement.zero(2)

    def test_rejects_bad_subsets(self):
        with pytest.raises(ValueError):
            CliffordElement(2, {(1, 0): ONE})
        with pytest.raises(ValueError):
            CliffordElement(2, {(0, 0): ONE})
        with pytest.raises(DimensionMismatch):
            CliffordElement(2, {(2,): ONE})

    def test_zero_coefficients_dropped(self):
        x = CliffordElement(2, {(0,): ZERO, (1,): ONE})
        assert x.items() == [((1,), ONE)]

    def test_linear_ops(self):
        a = CliffordElement.generator(2, 0)
        b = CliffordElement.generator(2, 1)
        assert (a + b) - a == b
        assert a + (-a) == CliffordElement.zero(2)
        assert (a * 3).coefficient((0,)) == monomial(3)
        assert (F(1, 2) * a).coefficient((0,)) == monomial(F(1, 2))
        t = monomial(1, 1, 1)
        assert (a * t).coefficient((0,)) == t

    def test_addition_needs_same_dimension(self):
        with pytest.raises(DimensionMismatch):
            CliffordElement.unit(1) + CliffordElement.unit(2)

    def test_product_with_element_needs_form(self):
        a = CliffordElement.generator(2, 0)
        with pytest.raises(TypeError, match="cl_mul"):
            a * a

    def test_grades(self):
        x = CliffordElement(2, {(): ONE, (0, 1): ONE})
        assert x.grades() == {0, 2}
        assert x.grade(0) == CliffordElement.unit(2)
        assert cl_grade(x, 2).coefficient((0, 1)) == ONE
        assert not x.grade(1)


class TestResultsStayNormal:
    """Results are built without validating their keys again, so check
    the invariant directly, on inputs where terms cancel."""

    def test_products_sums_scalars_and_grades(self, builtin):
        Q = builtin_form(builtin)
        n = builtin.n
        rng = random.Random(36)
        scalars = [0, 1, -1, F(2, 3), ZERO, monomial(-1, F(1, 2), 1), ONE - monomial(1, 1, 1)]
        for _ in range(150):
            x = rand_clifford(rng, n)
            y = rand_clifford(rng, n)
            s = rng.choice(scalars)
            results = [
                cl_mul(Q, x, y),
                cl_mul(Q, x, x),
                x + y,
                x - y,
                x - x,
                -x,
                x * s,
                s * y,
                cl_grade(cl_mul(Q, x, y), rng.randint(0, n)),
            ]
            for r in results:
                assert_clifford_normal(r)
                assert CliffordElement(n, r.items()) == r
            assert not x - x


class TestGoldenProducts:
    def test_squares_halve_the_diagonal(self):
        Q = cp2_form()
        c1 = CliffordElement.generator(2, 0)
        sq = cl_mul(Q, c1, c1)
        assert sq == CliffordElement(2, {(): T13})

    def test_ordered_product_is_the_basis_word(self):
        Q = cp2_form()
        c1 = CliffordElement.generator(2, 0)
        c2 = CliffordElement.generator(2, 1)
        assert cl_mul(Q, c1, c2) == CliffordElement.basis_element(2, (0, 1))

    def test_reversed_product_picks_up_the_form(self):
        Q = cp2_form()
        c1 = CliffordElement.generator(2, 0)
        c2 = CliffordElement.generator(2, 1)
        p = cl_mul(Q, c2, c1)
        assert p.coefficient((0, 1)) == -ONE
        assert p.coefficient(()) == T13

    def test_anticommutator_equals_form_entry(self, builtin):
        Q = builtin_form(builtin)
        n = builtin.n
        for i in range(n):
            for j in range(n):
                ci = CliffordElement.generator(n, i)
                cj = CliffordElement.generator(n, j)
                anti = cl_mul(Q, ci, cj) + cl_mul(Q, cj, ci)
                assert anti == CliffordElement(n, {(): Q.entry(i, j)})

    def test_word_against_hand_reduction(self):
        # C2 C1 C2 = (Q_12 - C1 C2) C2 = Q_12 C2 - (1/2) Q_22 C1
        Q = cp2_form()
        c1 = CliffordElement.generator(2, 0)
        c2 = CliffordElement.generator(2, 1)
        lhs = cl_mul(Q, cl_mul(Q, c2, c1), c2)
        assert lhs == c2 * Q.entry(0, 1) + c1 * (F(-1, 2) * Q.entry(1, 1))


class TestAlgebraLaws:
    def test_unit_laws(self, builtin):
        Q = builtin_form(builtin)
        rng = random.Random(31)
        u = CliffordElement.unit(builtin.n)
        for _ in range(100):
            x = rand_clifford(rng, builtin.n)
            assert cl_mul(Q, u, x) == x
            assert cl_mul(Q, x, u) == x

    def test_associativity_random(self, builtin):
        Q = builtin_form(builtin)
        rng = random.Random(32)
        for _ in range(500):
            x = rand_clifford(rng, builtin.n, 2)
            y = rand_clifford(rng, builtin.n, 2)
            z = rand_clifford(rng, builtin.n, 2)
            assert cl_mul(Q, cl_mul(Q, x, y), z) == cl_mul(Q, x, cl_mul(Q, y, z))

    def test_bilinearity(self, builtin):
        Q = builtin_form(builtin)
        rng = random.Random(33)
        for _ in range(100):
            x = rand_clifford(rng, builtin.n)
            y = rand_clifford(rng, builtin.n)
            z = rand_clifford(rng, builtin.n)
            assert cl_mul(Q, x + y, z) == cl_mul(Q, x, z) + cl_mul(Q, y, z)
            assert cl_mul(Q, x, y + z) == cl_mul(Q, x, y) + cl_mul(Q, x, z)
            s = monomial(F(3, 2), 1, 1)
            assert cl_mul(Q, x * s, y) == cl_mul(Q, x, y) * s

    def test_dimension_mismatch(self):
        Q = cp2_form()
        with pytest.raises(DimensionMismatch):
            cl_mul(Q, CliffordElement.unit(1), CliffordElement.unit(2))
        with pytest.raises(DimensionMismatch):
            cl_mul(Q, CliffordElement.unit(3), CliffordElement.unit(3))


# disc-area form entries: 0 to 3 terms at distinct T exponents, each with q^1
form_entries = st.lists(
    st.tuples(
        st.integers(-3, 3).filter(bool),
        st.fractions(min_value=0, max_value=3, max_denominator=3),
    ),
    max_size=3,
    unique_by=lambda term: term[1],
).map(lambda terms: NovikovElement([(c, t, 1) for c, t in terms]))

# factor coefficients: T-exponents may be negative, and a denominator of 4,
# 5 or 7 does not divide a form's, so cl_mul has to rescale
coefficients = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
        st.integers(0, 2),
    ),
    max_size=3,
).map(NovikovElement)


@st.composite
def forms_and_factors(draw):
    """A random symmetric form with n <= 5, maybe with a zero diagonal, and
    two elements of its Clifford algebra with multi-term coefficients."""
    n = draw(st.integers(1, 5))
    zero_diagonal = draw(st.booleans())
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = draw(form_entries)
    Q = QuadraticForm(n, tuple(map(tuple, rows)))
    element = st.dictionaries(
        st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s))), coefficients, max_size=3
    ).map(lambda coeffs: CliffordElement(n, coeffs))
    return Q, draw(element), draw(element)


class TestAgainstRewritingOracle:
    """cl_mul multiplies on the right one generator at a time through a
    per-form table; the oracle bubble-sorts each joined word instead."""

    @settings(max_examples=100, deadline=None)
    @given(forms_and_factors())
    def test_random_forms(self, case):
        Q, x, y = case
        product = cl_mul(Q, x, y)
        assert_clifford_normal(product)
        assert product == oracle_cl_mul(Q, x, y)
        # a call at a finer scale leaves the form's own table as it was
        x1, y1 = (CliffordElement(Q.n, dict.fromkeys(z._coeffs, ONE)) for z in (x, y))
        assert cl_mul(Q, x1, y1) == oracle_cl_mul(Q, x1, y1)

    def test_cpn4_basis_table(self):
        X = load_toric("CPn(4)")
        Q = builtin_form(X)
        subsets = [s for r in range(5) for s in combinations(range(4), r)]
        for s1 in subsets:
            for s2 in subsets:
                x = CliffordElement.basis_element(4, s1)
                y = CliffordElement.basis_element(4, s2)
                assert cl_mul(Q, x, y) == oracle_cl_mul(Q, x, y)

    def test_table_belongs_to_its_form(self):
        Q = builtin_form(load_toric("CPn(3)"))
        rows = [list(row) for row in Q.entries]
        rows[0][1] = rows[1][0] = Q.entry(0, 1) + monomial(-2, F(1, 2), 1)
        R = QuadraticForm(Q.n, tuple(map(tuple, rows)))
        subsets = [s for r in range(4) for s in combinations(range(3), r)]
        for s1 in subsets:
            for s2 in subsets:
                x = CliffordElement.basis_element(3, s1)
                y = CliffordElement.basis_element(3, s2)
                for form in (Q, R):
                    assert cl_mul(form, x, y) == oracle_cl_mul(form, x, y)
        # every (w, i) is the basis pair (C_w, C_i), and no other key exists
        assert len(Q._generator_terms) == len(R._generator_terms) == 3 * 2**3
        assert QuadraticForm(Q.n, Q.entries)._generator_terms == {}


def wedge_sign(s1, s2):
    """Independent oracle: shuffle sign of concatenating two sorted subsets."""
    if set(s1) & set(s2):
        return 0
    inversions = sum(1 for a in s1 for b in s2 if a > b)
    return (-1) ** inversions


class TestExteriorDegeneration:
    def test_zero_form_squares_vanish(self):
        Q = QuadraticForm.zero(3)
        for i in range(3):
            g = CliffordElement.generator(3, i)
            assert not cl_mul(Q, g, g)

    def test_zero_form_matches_shuffle_signs(self):
        Q = QuadraticForm.zero(4)
        subsets = [s for r in range(5) for s in combinations(range(4), r)]
        for s1 in subsets:
            for s2 in subsets:
                prod = cl_mul(
                    Q,
                    CliffordElement.basis_element(4, s1),
                    CliffordElement.basis_element(4, s2),
                )
                sign = wedge_sign(s1, s2)
                if sign == 0:
                    assert not prod
                else:
                    merged = tuple(sorted(s1 + s2))
                    assert prod == CliffordElement(4, {merged: monomial(sign)})

    def test_clifford_product_deforms_the_wedge(self):
        # the top grade of a Clifford product never sees Q
        rng = random.Random(34)
        X = load_toric("CP1xCP1")
        Q = builtin_form(X)
        Q0 = QuadraticForm.zero(2)
        for _ in range(50):
            x = rand_clifford(rng, 2, 2)
            y = rand_clifford(rng, 2, 2)
            top = max(x.grades() or {0}) + max(y.grades() or {0})
            assert cl_mul(Q, x, y).grade(top) == cl_mul(Q0, x, y).grade(top)


class TestGrading:
    def test_product_of_generators_has_two_grades(self):
        Q = cp2_form()
        c2 = CliffordElement.generator(2, 1)
        c1 = CliffordElement.generator(2, 0)
        p = cl_mul(Q, c2, c1)
        assert p.grades() == {0, 2}

    def test_q_exponent_tracks_grade_drop(self, builtin):
        # each application of a Q entry trades two generators for one q
        Q = builtin_form(builtin)
        n = builtin.n
        rng = random.Random(35)
        for _ in range(50):
            word = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
            x = CliffordElement.unit(n)
            for i in word:
                x = cl_mul(Q, x, CliffordElement.generator(n, i))
            for subset, coeff in x.items():
                drops, rem = divmod(len(word) - len(subset), 2)
                assert rem == 0
                assert all(q == drops for _c, _t, q in coeff.terms)


class TestRendering:
    def test_golden_strings(self):
        Q = cp2_form()
        c1 = CliffordElement.generator(2, 0)
        c2 = CliffordElement.generator(2, 1)
        assert str(CliffordElement.zero(2)) == "0"
        assert str(CliffordElement.unit(2)) == "[L]"
        assert str(cl_mul(Q, c1, c2)) == "C_{1,2}"
        assert str(cl_mul(Q, c1, c1)) == "T^{1/3}*q*[L]"
        assert str(cl_mul(Q, c2, c1)) == "T^{1/3}*q*[L] - C_{1,2}"
        mixed = CliffordElement(2, {(0,): ONE - monomial(1, 1, 1)})
        assert str(mixed) == "(1 - T*q)*C_{1}"
