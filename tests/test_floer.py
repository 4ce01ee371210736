import dataclasses
import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer import (
    ChainAlgebra,
    CliffordElement,
    DimensionMismatch,
    Fiber,
    NotBalanced,
    NotInterior,
    boundary_pairing,
    cl_mul,
    disc_areas,
    disc_l_term,
    elimination_rank,
    find_critical_fiber,
    floer,
    formal_hessian,
    hf_rank,
    is_balanced,
    l_product,
    load_toric,
    m1_apply,
    m2_product,
    make_toric,
    novikov_rank,
    obstruction_form,
    potential,
    subsets_graded,
    superpotential_derivative,
    twisted_class_sums,
    wedge,
)
from toricfloer.floer import apply_differential, differential_matrix
from toricfloer.toric import _fiber_areas
from toricfloer.novikov import ONE, ZERO, NovikovElement, monomial

from strategies import sheared_fibers

from conftest import (
    BOX_123,
    BUILTIN_NAMES,
    HEXAGON,
    RECT,
    assert_normal,
    balanced_fiber,
    exact_differential_rank,
    oracle_formal_hessian,
    oracle_l_product,
    oracle_l_table,
    oracle_obstruction_form,
    random_interior_fiber,
)


def all_tuples(n, m):
    return list(iter_product(range(n), repeat=m))


class TestObstructionForm:
    def test_cp2_example(self):
        X = load_toric("CP2")
        alpha = obstruction_form(X, Fiber((F(1, 4), F(1, 4))))
        expected = monomial(1, F(1, 4), 1) - monomial(1, F(1, 2), 1)
        assert alpha == [expected, expected]

    def test_vanishes_exactly_at_balanced_fibers(self, builtin):
        rng = random.Random(41)
        center = balanced_fiber(builtin)
        assert all(a == ZERO for a in obstruction_form(builtin, center))
        for _ in range(25):
            f = random_interior_fiber(builtin, rng)
            vanishes = all(a == ZERO for a in obstruction_form(builtin, f))
            assert vanishes == is_balanced(builtin, f).balanced


class TestDifferential:
    def test_m1_of_unit_cp2(self):
        X = load_toric("CP2")
        out = m1_apply(X, Fiber((F(1, 4), F(1, 4))), CliffordElement.unit(2))
        c = monomial(1, F(1, 4), 1) - monomial(1, F(1, 2), 1)
        assert out == CliffordElement(2, {(0,): c, (1,): c})

    def test_m1_of_unit_cp1_carries_the_sign(self):
        X = load_toric("CP1")
        out = m1_apply(X, Fiber((F(1, 4),)), CliffordElement.unit(1))
        c = monomial(1, F(1, 4), 1) - monomial(1, F(3, 4), 1)
        assert out == CliffordElement(1, {(0,): -c})

    def test_top_class_is_closed(self, builtin):
        rng = random.Random(42)
        top = CliffordElement.basis_element(builtin.n, tuple(range(builtin.n)))
        for _ in range(5):
            f = random_interior_fiber(builtin, rng)
            assert not m1_apply(builtin, f, top)

    def test_m1_vanishes_at_center(self, builtin):
        center = balanced_fiber(builtin)
        for subset in subsets_graded(builtin.n):
            x = CliffordElement.basis_element(builtin.n, subset)
            assert not m1_apply(builtin, center, x)

    def test_matrix_convention(self):
        X = load_toric("CP2")
        f = Fiber((F(1, 4), F(1, 4)))
        basis, M = differential_matrix(X, f)
        assert basis == [(), (0,), (1,), (0, 1)]
        assert len(M) == len(M[0]) == 4
        alpha = obstruction_form(X, f)
        col = basis.index(())
        assert M[basis.index((0,))][col] == alpha[0]
        assert M[basis.index((1,))][col] == alpha[1]
        # wedging the one-form onto C_1 and C_2 lands on the top class
        assert M[basis.index((0, 1))][basis.index((0,))] == -alpha[1]
        assert M[basis.index((0, 1))][basis.index((1,))] == alpha[0]

    def test_matrix_matches_m1_apply(self, builtin):
        rng = random.Random(43)
        f = random_interior_fiber(builtin, rng)
        basis, M = differential_matrix(builtin, f)
        for col, subset in enumerate(basis):
            img = m1_apply(
                builtin, f, CliffordElement.basis_element(builtin.n, subset)
            )
            for row, target in enumerate(basis):
                assert img.coefficient(target) == M[row][col]

    def test_squares_to_zero(self, builtin):
        rng = random.Random(44)
        for _ in range(10):
            f = random_interior_fiber(builtin, rng)
            for subset in subsets_graded(builtin.n):
                x = CliffordElement.basis_element(builtin.n, subset)
                assert not m1_apply(builtin, f, m1_apply(builtin, f, x))

    def test_squares_to_zero_as_matrix(self):
        X = load_toric("CP1xCP1")
        _, M = differential_matrix(X, Fiber((F(1, 3), F(1, 5))))
        size = len(M)
        for i in range(size):
            for j in range(size):
                acc = ZERO
                for k in range(size):
                    acc = acc + M[i][k] * M[k][j]
                assert acc == ZERO

    def test_left_wedge_module_property(self, builtin):
        # wedging the obstruction form on the left slides past factors
        # one sign at a time: m1(ab) = m1(a)b = (-1)^{|a|} a m1(b)
        rng = random.Random(45)
        n = builtin.n
        f = random_interior_fiber(builtin, rng)
        for s1 in subsets_graded(n):
            for s2 in subsets_graded(n):
                a = CliffordElement.basis_element(n, s1)
                b = CliffordElement.basis_element(n, s2)
                lhs = m1_apply(builtin, f, wedge(a, b))
                assert lhs == wedge(m1_apply(builtin, f, a), b)
                assert lhs == wedge(a, m1_apply(builtin, f, b)) * ((-1) ** len(s1))


class TestRank:
    def test_small_matrices(self):
        one = monomial(1)
        t = monomial(1, F(1, 2), 1)
        assert elimination_rank([[one]], 10) == 1
        assert elimination_rank([[ZERO]], 10) == 0
        assert elimination_rank([[t, ZERO], [ZERO, ZERO]], 10) == 1
        # second row is T^{1/2}q times the first
        assert elimination_rank([[one, t], [t, t * t]], 10) == 1
        # invertible despite the low-valuation off-diagonal
        assert elimination_rank([[t, one], [one, t]], 10) == 2

    def test_cutoff_doubling_recovers_deep_cancellation(self):
        one = monomial(1)
        deep = monomial(1, 15, 1)
        M = [[one, one], [one, one + deep]]
        assert elimination_rank(M, 10) == 1
        assert elimination_rank(M, 20) == 2
        assert novikov_rank(M, initial_cutoff=10) == 2

    def test_rank_values(self):
        X = load_toric("CP2")
        assert hf_rank(X, Fiber((F(1, 3), F(1, 3)))) == 4
        assert hf_rank(X, Fiber((F(1, 4), F(1, 4)))) == 0
        Y = load_toric("CP1")
        assert hf_rank(Y, Fiber((F(1, 2),))) == 2
        assert hf_rank(Y, Fiber((F(1, 3),))) == 0
        Z = load_toric("CP1xCP1")
        assert hf_rank(Z, Fiber((F(1, 2), F(1, 2)))) == 4
        assert hf_rank(Z, Fiber((F(1, 2), F(1, 3)))) == 0
        W = load_toric("CPn(3)")
        assert hf_rank(W, balanced_fiber(W)) == 8
        assert hf_rank(W, Fiber((F(1, 4), F(1, 4), F(1, 3)))) == 0

    def test_dilated_cp1_unbalanced_fiber(self):
        # areas 30 and 70 lie far above any truncation cutoff
        X = make_toric("bigCP1", 1, [(1,), (-1,)], [0, -100])
        assert hf_rank(X, Fiber((30,))) == 0
        assert hf_rank(X, Fiber((50,))) == 2

    @pytest.mark.parametrize("n", [5, 6])
    def test_large_projective_spaces(self, n):
        X = load_toric(f"CPn({n})")
        center = balanced_fiber(X)
        off = Fiber((F(1, n + 2),) + center.u[1:])
        for f, expected in ((center, 2**n), (off, 0)):
            assert hf_rank(X, f) == expected
            _, M = differential_matrix(X, f)
            assert 2**n - 2 * exact_differential_rank(M) == expected

    def test_dichotomy_random(self, builtin):
        # a 1/6 grid holds the centers of CP1, CP2 and CP1xCP1, so balanced
        # fibers are drawn as well as unbalanced ones
        rng = random.Random(46)
        for _ in range(20):
            f = random_interior_fiber(builtin, rng, denom=6)
            expected = 2**builtin.n if is_balanced(builtin, f).balanced else 0
            _, M = differential_matrix(builtin, f)
            assert hf_rank(builtin, f) == expected
            assert 2**builtin.n - 2 * exact_differential_rank(M) == expected

    def test_rank_stable_across_cutoffs(self, builtin):
        rng = random.Random(47)
        f = random_interior_fiber(builtin, rng, denom=6)
        _, M = differential_matrix(builtin, f)
        r10 = elimination_rank(M, 10)
        assert r10 == elimination_rank(M, 20) == novikov_rank(M)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(BUILTIN_NAMES),
    k=st.integers(1, 200),
    shift=st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
    at_center=st.booleans(),
)
def test_rank_invariant_under_dilation_and_translation(name, k, shift, seed, at_center):
    X = load_toric(name)
    n = X.n
    if at_center:
        f = balanced_fiber(X)
    else:
        f = random_interior_fiber(X, random.Random(seed), denom=12)
    c = shift[:n]
    offsets = [
        k * lam + sum(ci * vi for ci, vi in zip(c, v))
        for v, lam in zip(X.normals, X.offsets)
    ]
    Y = make_toric(f"{name}x{k}", n, X.normals, offsets)
    g = Fiber(tuple(k * ui + ci for ui, ci in zip(f.u, c)))
    rank = hf_rank(Y, g)
    assert rank == hf_rank(X, f)
    assert is_balanced(Y, g).balanced == is_balanced(X, f).balanced
    _, M = differential_matrix(Y, g)
    assert rank == 2**n - 2 * exact_differential_rank(M)


RECT_CENTER = Fiber((F(1), F(1, 2)))


def assert_matches_per_disc_sums(X, f):
    """The area-grouped obstruction form, Hessian and l(idx), len(idx) <= 3,
    equal the per-disc oracle sums and are in normal form."""
    alpha = obstruction_form(X, f)
    assert alpha == oracle_obstruction_form(X, f)
    # analyze reads its rank off the l-table's degree-1 row, the library off
    # _alpha: the row is (-1)^n alpha
    row = potential._l_table(X, _fiber_areas(X, f)[1], 1)
    assert [a * (-1) ** X.n for a in alpha] == [row[(i,)] for i in range(X.n)]
    Q = formal_hessian(X, f)
    assert [list(row) for row in Q.entries] == oracle_formal_hessian(X, f)
    for m in range(4):
        for idx in all_tuples(X.n, m):
            value = l_product(X, f, idx)
            assert value == oracle_l_product(X, f, idx)
            assert_normal(value)
    for entry in alpha + [e for row in Q.entries for e in row]:
        assert_normal(entry)


class TestAreaGroupedSums:
    def test_weights_cancelling_within_a_class(self):
        # rectangle centre: both classes hold opposite normals; CP1xCP1 at
        # (1/3, 1/2): the class of area 1/2 does
        for X, f in (
            (RECT, RECT_CENTER),
            (load_toric("CP1xCP1"), Fiber((F(1, 3), F(1, 2)))),
        ):
            assert obstruction_form(X, f)[1] == ZERO
            assert l_product(X, f, (0, 1)) == ZERO
            assert_matches_per_disc_sums(X, f)

    def test_cpn4_and_rectangle_fibers(self):
        rng = random.Random(51)
        for X in (load_toric("CPn(4)"), RECT):
            for _ in range(4):
                assert_matches_per_disc_sums(X, random_interior_fiber(X, rng, denom=6))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(BUILTIN_NAMES + ["rect"]),
    k=st.integers(1, 60),
    shift=st.lists(st.integers(-20, 20), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
    at_center=st.booleans(),
)
def test_grouped_sums_match_per_disc_oracle(name, k, shift, seed, at_center):
    X = RECT if name == "rect" else load_toric(name)
    n = X.n
    if at_center:
        f = RECT_CENTER if name == "rect" else balanced_fiber(X)
    else:
        f = random_interior_fiber(X, random.Random(seed), denom=6)
    c = shift[:n]
    offsets = [
        k * lam + sum(ci * vi for ci, vi in zip(c, v))
        for v, lam in zip(X.normals, X.offsets)
    ]
    Y = make_toric(f"{name}x{k}", n, X.normals, offsets)
    g = Fiber(tuple(k * ui + ci for ui, ci in zip(f.u, c)))
    assert_matches_per_disc_sums(Y, g)


class TestLProducts:
    def test_cp2_center_goldens(self):
        X = load_toric("CP2")
        f = Fiber((F(1, 3), F(1, 3)))
        t = monomial(1, F(1, 3), 1)
        assert l_product(X, f) == 3 * t
        assert l_product(X, f, (0,)) == ZERO
        assert l_product(X, f, (0, 1)) == t
        assert l_product(X, f, (0, 0)) == 2 * t
        assert l_product(X, f, (0, 0, 0)) == ZERO
        assert l_product(X, f, (0, 0, 1)) == -t

    def test_cp1_goldens(self):
        X = load_toric("CP1")
        f = Fiber((F(1, 2),))
        t = monomial(1, F(1, 2), 1)
        assert l_product(X, f) == 2 * t
        assert l_product(X, f, (0,)) == ZERO
        assert l_product(X, f, (0, 0)) == 2 * t

    def test_symmetric_in_the_arguments(self, builtin):
        rng = random.Random(48)
        f = random_interior_fiber(builtin, rng)
        for _ in range(20):
            idx = [rng.randrange(builtin.n) for _ in range(rng.randint(2, 4))]
            shuffled = list(idx)
            rng.shuffle(shuffled)
            assert l_product(builtin, f, tuple(idx)) == l_product(
                builtin, f, tuple(shuffled)
            )

    def test_index_out_of_range(self):
        X = load_toric("CP1")
        with pytest.raises(IndexError):
            l_product(X, Fiber((F(1, 2),)), (1,))

    def test_matches_formal_hessian_in_two_slots(self, builtin):
        rng = random.Random(49)
        for f in (balanced_fiber(builtin), random_interior_fiber(builtin, rng)):
            Q = formal_hessian(builtin, f)
            for i in range(builtin.n):
                for j in range(builtin.n):
                    assert l_product(builtin, f, (i, j)) == Q.entry(i, j)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(BUILTIN_NAMES + ["rect"]),
    seed=st.integers(0, 2**16),
    idx=st.lists(st.integers(0, 2), max_size=4),
)
def test_l_product_unchanged_under_every_permutation(name, seed, idx):
    X = RECT if name == "rect" else load_toric(name)
    f = random_interior_fiber(X, random.Random(seed), denom=12)
    idx = tuple(i % X.n for i in idx)
    value = l_product(X, f, idx)
    for perm in permutations(idx):
        assert l_product(X, f, perm) == value


def assert_l_table_matches_l_product(X, f, lmax=4):
    """_l_table holds l_product(X, f, key) for each sorted key of length at
    most lmax, in order of length, then lexicographically, and is the
    prefix-product oracle_l_table key for key."""
    partition = _fiber_areas(X, f)[1]
    table = potential._l_table(X, partition, lmax)
    keys = [k for m in range(lmax + 1) for k in combinations_with_replacement(range(X.n), m)]
    assert list(table) == keys
    oracle = oracle_l_table(X, partition, lmax)
    assert list(oracle) == keys
    for key, value in table.items():
        assert value == l_product(X, f, key) == oracle[key]
        assert_normal(value)


class TestLTable:
    @pytest.mark.parametrize("X", [load_toric(name) for name in BUILTIN_NAMES] + [RECT, HEXAGON])
    def test_matches_l_product_at_solver_and_unbalanced_fibers(self, X):
        rng = random.Random(53)
        fibers = [find_critical_fiber(X)] + [random_interior_fiber(X, rng, denom=12) for _ in range(3)]
        assert not all(is_balanced(X, f).balanced for f in fibers)
        for f in fibers:
            assert_l_table_matches_l_product(X, f)

    def test_lmax_zero_is_the_obstruction_term(self):
        X = load_toric("CP2")
        f = Fiber((F(1, 4), F(1, 3)))
        assert potential._l_table(X, _fiber_areas(X, f)[1], 0) == {(): l_product(X, f)}


@settings(max_examples=40, deadline=None)
@given(
    sides=st.lists(
        st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**16),
    at_solver=st.booleans(),
)
def test_l_table_matches_l_product_on_rational_boxes(sides, seed, at_solver):
    n = len(sides)
    normals = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    X = make_toric("box", n, normals, [c for side in sides for c in (0, -side)])
    f = find_critical_fiber(X) if at_solver else random_interior_fiber(X, random.Random(seed), denom=24)
    assert_l_table_matches_l_product(X, f)


@settings(max_examples=80, deadline=None)
@given(case=sheared_fibers(), lmax=st.integers(0, 4))
def test_l_table_matches_l_product_on_sheared_normals(case, lmax):
    # the normals' supports take every size from 1 to n, and the per-facet
    # walk over sorted keys must still give every entry
    X, f, Y, g = case
    assert [d.area for d in disc_areas(Y, g)] == [d.area for d in disc_areas(X, f)]
    assert_l_table_matches_l_product(Y, g, lmax)


@settings(max_examples=80, deadline=None)
@given(case=sheared_fibers(), lmax=st.integers(0, 4))
def test_l_table_shares_one_element_per_value(case, lmax):
    # on inputs whose values are mostly distinct: two keys hold one object
    # exactly when their values are equal, and a zero value is ZERO
    _X, _f, Y, g = case
    partition = _fiber_areas(Y, g)[1]
    table = potential._l_table(Y, partition, lmax)
    assert list(table.items()) == list(oracle_l_table(Y, partition, lmax).items())
    values = list(table.values())
    for a, b in combinations_with_replacement(values, 2):
        assert (a is b) == (a == b)
    assert all(value is ZERO for value in values if value == ZERO)


class TestDivisorRelation:
    def test_on_builtin_discs(self, builtin):
        rng = random.Random(50)
        f = random_interior_fiber(builtin, rng)
        n = builtin.n
        for d in disc_areas(builtin, f):
            for m in range(1, 5):
                for idx in all_tuples(n, m):
                    lhs = disc_l_term(n, d.normal, d.area, idx)
                    rhs = boundary_pairing(n, d.normal, idx[0]) * disc_l_term(
                        n, d.normal, d.area, idx[1:]
                    )
                    assert lhs == rhs

    def test_on_synthetic_discs(self):
        rng = random.Random(51)
        for _ in range(100):
            n = rng.randint(1, 4)
            normal = tuple(rng.randint(-3, 3) for _ in range(n))
            area = F(rng.randint(1, 9), rng.randint(1, 9))
            m = rng.randint(1, 4)
            idx = tuple(rng.randrange(n) for _ in range(m))
            lhs = disc_l_term(n, normal, area, idx)
            rhs = boundary_pairing(n, normal, idx[0]) * disc_l_term(
                n, normal, area, idx[1:]
            )
            assert lhs == rhs

    def test_pairing_values(self):
        assert boundary_pairing(1, (-1,), 0) == 1
        assert boundary_pairing(2, (-1, -1), 0) == -1
        assert boundary_pairing(2, (0, 1), 1) == 1


class TestPotentialCorrespondence:
    def test_numeric_match(self, builtin):
        rng = random.Random(52)
        n = builtin.n
        fibers = [balanced_fiber(builtin)] + [
            random_interior_fiber(builtin, rng) for _ in range(2)
        ]
        for f in fibers:
            theta = [float(x) for x in f.u]
            for m in range(0, 5):
                for idx in all_tuples(n, m):
                    lhs = l_product(builtin, f, idx).numeric()
                    rhs = (-1) ** ((n - 1) * m) * superpotential_derivative(
                        builtin, theta, idx
                    )
                    assert abs(rhs.imag) < 1e-14
                    assert lhs == pytest.approx(rhs.real, rel=1e-10, abs=1e-12)


class TestM2:
    def test_cp1_point_squares_to_area_monomial(self):
        X = load_toric("CP1")
        f = Fiber((F(1, 2),))
        p = CliffordElement.generator(1, 0)
        assert m2_product(X, f, p, p) == CliffordElement(
            1, {(): monomial(1, F(1, 2), 1)}
        )

    def test_unit_laws(self, builtin):
        center = balanced_fiber(builtin)
        u = CliffordElement.unit(builtin.n)
        for subset in subsets_graded(builtin.n):
            x = CliffordElement.basis_element(builtin.n, subset)
            assert m2_product(builtin, center, u, x) == x
            assert m2_product(builtin, center, x, u) == x

    def test_associative_on_basis(self):
        X = load_toric("CP2")
        f = balanced_fiber(X)
        basis = [CliffordElement.basis_element(2, s) for s in subsets_graded(2)]
        for a in basis:
            for b in basis:
                for c in basis:
                    left = m2_product(X, f, m2_product(X, f, a, b), c)
                    right = m2_product(X, f, a, m2_product(X, f, b, c))
                    assert left == right

    def test_anticommutator_recovers_two_slot_product(self, builtin):
        center = balanced_fiber(builtin)
        n = builtin.n
        for i in range(n):
            for j in range(n):
                ci = CliffordElement.generator(n, i)
                cj = CliffordElement.generator(n, j)
                anti = m2_product(builtin, center, ci, cj) + m2_product(
                    builtin, center, cj, ci
                )
                expected = CliffordElement(n, {(): l_product(builtin, center, (i, j))})
                assert anti == expected

    def test_rejects_unbalanced_fiber(self):
        X = load_toric("CP2")
        u = CliffordElement.unit(2)
        with pytest.raises(NotBalanced, match="not.*balanced"):
            m2_product(X, Fiber((F(1, 4), F(1, 4))), u, u)

    def test_disc_areas_computed_once_per_product(self, disc_area_calls):
        """At most once per product, and once per fiber while it is
        remembered: an unbalanced fiber's areas are remembered too."""
        floer._fiber_ring.cache_clear()
        X = load_toric("CP2")
        x = CliffordElement.generator(2, 0)
        f, g = balanced_fiber(X), Fiber((F(1, 4), F(1, 4)))
        m2_product(X, f, x, x)
        m2_product(X, f, x, x)
        for _ in range(2):
            with pytest.raises(NotBalanced):
                m2_product(X, g, x, x)
        assert disc_area_calls == [f, g]

    def test_rejects_holonomy(self):
        X = load_toric("CP1")
        u = CliffordElement.unit(1)
        with pytest.raises(ValueError, match="holonomy"):
            m2_product(X, Fiber((F(1, 2),), holonomy=(F(1, 4),)), u, u)


class TestM2FiberMemo:
    """m2_product remembers the balance and Hessian of recent fibers,
    keyed by the value of (X, f); every check still runs per call."""

    def setup_method(self):
        floer._fiber_ring.cache_clear()

    def test_interleaved_fibers_match_a_fresh_product(self):
        cp2 = load_toric("CP2")
        dilated = make_toric("CP2x3", 2, cp2.normals, [0, 0, -3])
        fibers = [(cp2, balanced_fiber(cp2)), (dilated, Fiber((F(1), F(1))))]
        basis = [CliffordElement.basis_element(2, s) for s in subsets_graded(2)]
        for X, f in (fibers[0], fibers[1], fibers[0]):
            Q = formal_hessian(X, f)
            for x in basis:
                for y in basis:
                    assert m2_product(X, f, x, y) == cl_mul(Q, x, y)
        assert floer._fiber_ring.cache_info().misses == 2

    def test_equal_points_share_an_entry(self):
        X = make_toric("CP2x3", 2, load_toric("CP2").normals, [0, 0, -3])
        x = CliffordElement.generator(2, 1)
        products = [
            m2_product(X, f, x, x)
            for f in ((1, 1), (F(1), F(1)), Fiber((F(1), F(1))))
        ]
        assert products[0] == products[1] == products[2]
        info = floer._fiber_ring.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_dilated_offsets_get_their_own_hessian(self):
        X = make_toric("CP2x3", 2, load_toric("CP2").normals, [0, 0, -3])
        dilated = dataclasses.replace(X, offsets=tuple(2 * lam for lam in X.offsets))
        assert dilated != X
        x = CliffordElement.generator(2, 0)
        f, g = Fiber((F(1), F(1))), Fiber((F(2), F(2)))
        assert m2_product(X, f, x, x) == cl_mul(formal_hessian(X, f), x, x)
        assert m2_product(dilated, g, x, x) == cl_mul(formal_hessian(dilated, g), x, x)
        assert m2_product(X, f, x, x) != m2_product(dilated, g, x, x)
        # f is balanced in X but not in dilated: X's entry is not reused
        with pytest.raises(NotBalanced):
            m2_product(dilated, f, x, x)
        assert floer._fiber_ring.cache_info().misses == 3

    def test_rejections_repeat_on_every_call(self):
        X = load_toric("CP2")
        u = CliffordElement.unit(2)
        for _ in range(3):
            with pytest.raises(NotBalanced, match=r"\('1/4', '1/4'\)"):
                m2_product(X, Fiber((F(1, 4), F(1, 4))), u, u)
            with pytest.raises(NotBalanced, match=r"\('1/4', '1/4'\)"):
                m2_product(X, (F(1, 4), F(1, 4)), u, u)
            with pytest.raises(ValueError, match="holonomy"):
                m2_product(X, TWISTED_CP2, u, u)
            with pytest.raises(NotInterior):
                m2_product(X, (F(1), F(1)), u, u)
            with pytest.raises(DimensionMismatch):
                m2_product(X, balanced_fiber(X), u, CliffordElement.unit(3))

    def test_memo_is_bounded(self):
        assert floer._fiber_ring.cache_info().maxsize is not None

    @pytest.mark.parametrize("holonomy", [None, (0, 0), [0, 0]], ids=["none", "tuple", "list"])
    @pytest.mark.parametrize("u", [(F(1, 3), F(1, 3)), [F(1, 3), F(1, 3)]], ids=["tuple", "list"])
    def test_list_valued_fibers_are_accepted(self, u, holonomy):
        X = load_toric("CP2")
        c1 = CliffordElement.generator(2, 0)
        product = m2_product(X, Fiber(u, holonomy=holonomy), c1, c1)
        assert product == CliffordElement.unit(2) * monomial(1, F(1, 3), 1)
        assert str(product) == "T^{1/3}*q*[L]"

    def test_nontrivial_list_holonomy_still_raises(self):
        X = load_toric("CP2")
        with pytest.raises(ValueError, match="holonomy"):
            m2_product(X, Fiber([F(1, 3), F(1, 3)], holonomy=[F(1, 4), 0]), UNIT2, UNIT2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_direct_differential_matches_wedge(n):
    """apply_differential spells out sign * alpha wedge e_S; compare it
    with the Clifford product over the zero form, on every subset."""
    X = load_toric(f"CPn({n})")
    rng = random.Random(90 + n)
    choices = [
        ZERO,
        monomial(1, F(1, 3), 1),
        monomial(-2, F(1, 2), 1) + monomial(3, 1, 1),
    ]
    for _ in range(8):
        alpha = [rng.choice(choices) for _ in range(n)]
        a = CliffordElement.zero(n)
        for i, a_i in enumerate(alpha):
            a = a + CliffordElement.generator(n, i) * a_i
        for sign in (1, -1):
            for subset in subsets_graded(n):
                e_S = CliffordElement.basis_element(n, subset)
                expected = wedge(a, e_S) * sign
                assert apply_differential(X, alpha, subset, sign) == expected


def test_apply_differential_validates_the_callers_subset():
    with pytest.raises(DimensionMismatch):
        apply_differential(load_toric("CP2"), [ONE, ONE], (5,), 1)


# The exact side is only defined at trivial holonomy.  At the CP2
# barycenter the holonomy (1/4, 0) leaves a nonzero twisted class sum,
# so the twisted potential is not critical there and an untwisted answer
# (rank 4, alpha = 0) would be wrong.
TWISTED_CP2 = Fiber((F(1, 3), F(1, 3)), holonomy=(F(1, 4), F(0)))
UNIT2 = CliffordElement.unit(2)
EXACT_ENTRY_POINTS = {
    "hf_rank": hf_rank,
    "obstruction_form": obstruction_form,
    "l_product": lambda X, f: l_product(X, f, (0, 1)),
    "formal_hessian": formal_hessian,
    "is_balanced": is_balanced,
    "m2_product": lambda X, f: m2_product(X, f, UNIT2, UNIT2),
    "ChainAlgebra.for_fiber": ChainAlgebra.for_fiber,
}


class TestExactSideRejectsHolonomy:
    def test_twisted_potential_is_not_critical(self):
        (s,) = twisted_class_sums(load_toric("CP2"), TWISTED_CP2)
        assert abs(np.asarray(s)).max() > 1

    @pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
    def test_nontrivial_holonomy_raises(self, entry):
        X = load_toric("CP2")
        with pytest.raises(ValueError, match="holonomy") as info:
            EXACT_ENTRY_POINTS[entry](X, TWISTED_CP2)
        assert "twisted_class_sums" in str(info.value)

    @pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
    def test_zero_holonomy_is_trivial(self, entry):
        X = load_toric("CP2")
        fn = EXACT_ENTRY_POINTS[entry]
        untwisted = fn(X, Fiber(TWISTED_CP2.u))
        assert fn(X, Fiber(TWISTED_CP2.u, holonomy=(F(0), F(0)))) == untwisted
