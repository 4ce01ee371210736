import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce
from itertools import combinations, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer import (
    ChainAlgebra,
    ChainExpression,
    DimensionMismatch,
    Fiber,
    NotBalanced,
    boundary,
    chain_map_certificate,
    cli,
    corrected_cycle,
    floer_differential,
    load_toric,
    make_toric,
    subsets_graded,
    verify_chain_map,
)
from toricfloer.chains import _degree
from toricfloer.novikov import ONE, ZERO, monomial

from conftest import (
    BUILTIN_NAMES,
    assert_chain_normal,
    balanced_fiber,
    chain_map_block,
    closed_form_chain_map,
    oracle_boundary,
    oracle_chain_map_certificate,
    oracle_corrected_cycle,
    oracle_floer_differential,
    oracle_reduce_degenerate_pairs,
    oracle_summed_certificate,
)

RECT = make_toric("rect", 2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -2, 0, -1])
RECT_CENTER = Fiber((F(1), F(1, 2)))


def cube(m):
    """(CP1)^m, the unit m-cube."""
    return make_toric(
        f"CP1^{m}",
        m,
        [tuple(s if j == i else 0 for j in range(m)) for i in range(m) for s in (1, -1)],
        [0, -1] * m,
    )


def algebra(name):
    X = load_toric(name)
    return X, balanced_fiber(X), ChainAlgebra.for_fiber(X, balanced_fiber(X))


def rand_chain(A, rng, max_terms=3, with_evens=True):
    n, N, l = A.dims
    odd_pool = [("d", j) for j in range(N)] + [("l", i) for i in range(n)]
    out = A.zero()
    for _ in range(rng.randint(0, max_terms)):
        evens = (
            tuple(sorted(rng.choices(range(l), k=rng.randint(0, 2))))
            if with_evens
            else ()
        )
        odds = tuple(sorted(rng.sample(odd_pool, rng.randint(0, 3))))
        coeff = monomial(
            F(rng.randint(-3, 3)), F(rng.randint(0, 3), 2), rng.randint(0, 2)
        )
        out = out + ChainExpression(A.dims, {(evens, odds): coeff})
    return out


class TestExpressionBasics:
    def test_factories_and_strings(self):
        _, _, A = algebra("CP2")
        assert str(A.one()) == "1"
        assert str(A.zero()) == "0"
        assert str(A.l(0)) == "l_1"
        assert str(A.d(2)) == "d_3"
        assert str(A.Q(0)) == "Q_1"
        assert str(A.l_monomial((0, 1))) == "l_1*l_2"

    def test_odd_square_vanishes(self):
        _, _, A = algebra("CP2")
        assert not A.l(0) * A.l(0)
        assert not A.d(1) * A.d(1)

    def test_q_symbols_commute_and_repeat(self):
        _, _, A = algebra("CP2")
        sq = A.Q(0) * A.Q(0)
        assert sq.coefficient(((0, 0), ())) == ONE

    def test_disc_symbols_sort_before_cycles(self):
        _, _, A = algebra("CP2")
        p = A.l(0) * A.d(0)
        assert p.coefficient(((), (("d", 0), ("l", 0)))) == -ONE
        assert str(p) == "-d_1*l_1"

    def test_graded_commutativity(self):
        _, _, A = algebra("CPn(3)")
        rng = random.Random(61)
        for _ in range(100):
            a = rand_chain(A, rng, 1)
            b = rand_chain(A, rng, 1)
            monos_a = a.monomials()
            monos_b = b.monomials()
            if not monos_a or not monos_b:
                continue
            da, db = _degree(monos_a[0]), _degree(monos_b[0])
            assert a * b == b * a * ((-1) ** (da * db))

    def test_validation(self):
        _, _, A = algebra("CP2")
        with pytest.raises(DimensionMismatch):
            ChainExpression(A.dims, {((), (("d", 7),)): ONE})
        with pytest.raises(DimensionMismatch):
            ChainExpression(A.dims, {((5,), ()): ONE})
        with pytest.raises(ValueError):
            ChainExpression(A.dims, {((), (("l", 1), ("l", 0))): ONE})
        with pytest.raises(ValueError):
            ChainExpression(A.dims, {((), (("l", 0), ("l", 0))): ONE})

    def test_factories_validate(self):
        _, _, A = algebra("CP2")
        for make, index in ((A.l, 2), (A.d, 3), (A.Q, 1), (A.l, -1)):
            with pytest.raises(DimensionMismatch):
                make(index)

    def test_mixed_dims_rejected(self):
        _, _, A = algebra("CP2")
        _, _, B = algebra("CP1")
        with pytest.raises(DimensionMismatch):
            A.one() + B.one()
        with pytest.raises(DimensionMismatch):
            B.boundary(A.Q(0))

    def test_degree_helpers(self):
        _, _, A = algebra("CP2")
        e = A.Q(0) * A.l(0) + A.l_monomial((0, 1))
        assert e.max_degree() == 3
        above = e.part_above_degree(2)
        assert above.monomials() == [((0,), (("l", 0),))]
        assert A.l_monomial((0, 1)).is_classical()
        assert not (A.Q(0) * A.l(0)).is_classical()
        assert not A.d(0).is_classical()


class TestBoundary:
    def test_boundary_of_correction_chain(self):
        _, _, A = algebra("CP2")
        b = A.boundary(A.Q(0))
        assert str(b) == "-d_1 - d_2 - d_3"

    def test_boundary_kills_odd_generators(self):
        _, _, A = algebra("CP2")
        assert not A.boundary(A.l(0))
        assert not A.boundary(A.d(1))
        assert not A.boundary(A.l_monomial((0, 1)))

    def test_boundary_squares_to_zero(self):
        _, _, A = algebra("CPn(3)")
        rng = random.Random(62)
        for _ in range(200):
            e = rand_chain(A, rng)
            assert not A.boundary(A.boundary(e))

    def test_leibniz(self):
        _, _, A = algebra("CP1xCP1")
        rng = random.Random(63)
        for _ in range(200):
            a = rand_chain(A, rng, 1)
            b = rand_chain(A, rng)
            if not a.monomials():
                continue
            deg = _degree(a.monomials()[0])
            lhs = A.boundary(a * b)
            rhs = A.boundary(a) * b + (a * A.boundary(b)) * ((-1) ** deg)
            assert lhs == rhs


class TestFloerDifferential:
    def test_point_class_cp2(self):
        _, _, A = algebra("CP2")
        out = A.floer_differential(A.one())
        t = monomial(1, F(1, 3), 1)
        for j in range(3):
            assert out.coefficient(((), (("d", j),))) == t
        assert len(out.monomials()) == 3

    def test_sign_in_odd_dimension(self):
        _, _, A = algebra("CP1")
        out = A.floer_differential(A.one())
        t = monomial(-1, F(1, 2), 1)
        assert out.coefficient(((), (("d", 0),))) == t
        assert out.coefficient(((), (("d", 1),))) == t

    def test_correction_chain_golden(self):
        _, _, A = algebra("CP2")
        out = A.floer_differential(A.Q(0))
        assert str(out) == (
            "-d_1 - d_2 - d_3 + T^{1/3}*q*Q_1*d_1 + T^{1/3}*q*Q_1*d_2"
            " + T^{1/3}*q*Q_1*d_3"
        )

    def test_squares_to_zero_identically(self):
        # not only on classical inputs: the disc insertion anticommutes
        # with the boundary on every monomial
        rng = random.Random(64)
        for name in ["CP1", "CP2", "CP1xCP1", "CPn(3)"]:
            _, _, A = algebra(name)
            for _ in range(100):
                e = rand_chain(A, rng)
                assert not A.floer_differential(A.floer_differential(e))

    def test_squares_to_zero_on_classical_inputs(self, builtin):
        A = ChainAlgebra.for_fiber(builtin, balanced_fiber(builtin))
        for r in range(builtin.n + 1):
            for subset in combinations(range(builtin.n), r):
                P = A.l_monomial(subset)
                assert not A.floer_differential(A.floer_differential(P))


class TestCorrectedCycle:
    def test_point_class_cp2(self):
        _, _, A = algebra("CP2")
        psi = A.corrected_cycle(A.one())
        assert str(psi) == "1 + T^{1/3}*q*Q_1"

    def test_one_cycle_square(self):
        _, _, A = algebra("CP1xCP1")
        psi = A.corrected_cycle(A.l(0))
        assert str(psi) == "l_1 + T^{1/2}*q*Q_1*l_1"

    def test_two_classes_rectangle(self):
        A = ChainAlgebra.for_fiber(RECT, RECT_CENTER)
        assert A.class_areas == (F(1, 2), F(1))
        assert A.class_members == ((2, 3), (0, 1))
        psi = A.corrected_cycle(A.one())
        assert psi.coefficient(((), ())) == ONE
        assert psi.coefficient(((0,), ())) == monomial(1, F(1, 2), 1)
        assert psi.coefficient(((1,), ())) == monomial(1, F(1), 1)
        assert psi.coefficient(((0, 1), ())) == monomial(1, F(3, 2), 2)
        assert len(psi.monomials()) == 4

    def test_classical_input_required(self):
        _, _, A = algebra("CP2")
        with pytest.raises(ValueError, match="l-generators"):
            A.corrected_cycle(A.d(0))
        with pytest.raises(ValueError, match="l-generators"):
            A.corrected_cycle(A.Q(0))

    def test_needs_balanced_fiber(self):
        X = load_toric("CP2")
        f = Fiber((F(1, 4), F(1, 4)))
        B = ChainAlgebra.for_fiber(X, f)
        with pytest.raises(NotBalanced):
            B.corrected_cycle(B.one())


class TestDegeneratePairReduction:
    def test_full_class_sum_dies(self):
        _, _, A = algebra("CP2")
        e = (A.d(0) + A.d(1) + A.d(2)) * A.Q(0)
        assert not A.reduce_degenerate_pairs(e)

    def test_leader_rewrites_to_minus_the_rest(self):
        _, _, A = algebra("CP2")
        red = A.reduce_degenerate_pairs(A.d(2) * A.Q(0))
        assert red == -(A.d(0) + A.d(1)) * A.Q(0)

    def test_non_leader_and_q_free_untouched(self):
        _, _, A = algebra("CP2")
        for e in (A.d(0) * A.Q(0), A.d(2), A.d(2) * A.l(0), A.Q(0)):
            assert A.reduce_degenerate_pairs(e) == e

    def test_no_redex_survives(self):
        rng = random.Random(65)
        for name in ["CP2", "CPn(3)", "CP1xCP1"]:
            _, _, A = algebra(name)
            leaders = {m[-1]: t for t, m in enumerate(A.class_members)}
            for _ in range(100):
                red = A.reduce_degenerate_pairs(rand_chain(A, rng))
                for evens, odds in red.monomials():
                    for kind, j in odds:
                        if kind == "d" and j in leaders:
                            assert leaders[j] not in evens

    def test_linear_and_idempotent(self):
        _, _, A = algebra("CPn(3)")
        rng = random.Random(66)
        for _ in range(50):
            a = rand_chain(A, rng)
            b = rand_chain(A, rng)
            ra = A.reduce_degenerate_pairs(a)
            rb = A.reduce_degenerate_pairs(b)
            assert A.reduce_degenerate_pairs(a + b) == ra + rb
            assert A.reduce_degenerate_pairs(ra) == ra


class TestChainMapCertificate:
    def test_point_class_cp2(self):
        _, _, A = algebra("CP2")
        cert = A.chain_map_certificate(A.one())
        assert cert.holds and cert.reduced_to_zero and cert.filtration_ok
        assert cert.residual_terms == 3
        assert cert.overdimension_terms == 3
        assert cert.square_rule_terms == 0
        assert cert.correction_terms_above_n == 0

    def test_top_class_cp2(self):
        _, _, A = algebra("CP2")
        cert = A.chain_map_certificate(A.l_monomial((0, 1)))
        assert cert.holds
        assert cert.residual_terms == 3
        assert cert.overdimension_terms == 3
        assert cert.correction_terms_above_n == 1

    def test_square_rule_needed_in_dimension_three(self):
        # over the three-fold, the point-class residual sits exactly in
        # dimension n, so only the degenerate-square rule kills it
        _, _, A = algebra("CPn(3)")
        cert = A.chain_map_certificate(A.one())
        assert cert.holds
        assert cert.residual_terms == 4
        assert cert.overdimension_terms == 0
        assert cert.square_rule_terms == 4

    def test_rectangle_two_classes(self):
        A = ChainAlgebra.for_fiber(RECT, RECT_CENTER)
        cert = A.chain_map_certificate(A.one())
        assert cert.holds
        assert cert.residual_terms == 8
        assert cert.overdimension_terms == 8

    def test_all_basis_monomials(self, builtin):
        A = ChainAlgebra.for_fiber(builtin, balanced_fiber(builtin))
        for r in range(builtin.n + 1):
            for subset in combinations(range(builtin.n), r):
                cert = A.chain_map_certificate(A.l_monomial(subset))
                assert cert.holds, (builtin.name, subset)

    def test_filtration_respects_scaling(self):
        _, _, A = algebra("CP2")
        P = A.l(0) * monomial(1, 2, 0)
        cert = A.chain_map_certificate(P)
        assert cert.holds and cert.filtration_ok

    def test_linear_combination(self):
        _, _, A = algebra("CP1xCP1")
        P = A.l(0) * monomial(3, F(1, 2), 0) - A.l_monomial((0, 1))
        assert A.verify_chain_map(P)


class TestModuleLevelHelpers:
    def test_delegation_matches_algebra(self):
        X, f, A = algebra("CP2")
        e = A.Q(0) * A.l(0) + A.one()
        assert boundary(X, f, e) == A.boundary(e)
        assert floer_differential(X, f, e) == A.floer_differential(e)
        P = A.l(0)
        assert corrected_cycle(X, f, P) == A.corrected_cycle(P)
        assert chain_map_certificate(X, f, P) == A.chain_map_certificate(P)
        assert verify_chain_map(X, f, P)

    def test_unbalanced_fiber_raises_through_helpers(self):
        X = load_toric("CP2")
        f = Fiber((F(1, 4), F(1, 4)))
        B = ChainAlgebra.for_fiber(X, f)
        with pytest.raises(NotBalanced):
            corrected_cycle(X, f, B.one())

    def test_for_fiber_rejects_holonomy(self):
        X = load_toric("CP1")
        with pytest.raises(ValueError, match="holonomy"):
            ChainAlgebra.for_fiber(X, Fiber((F(1, 2),), holonomy=(F(1, 4),)))


def rand_classical(A, rng, max_terms=3):
    """A random expression in the l-generators alone."""
    cycles = [("l", i) for i in range(A.n)]
    out = A.zero()
    for _ in range(rng.randint(0, max_terms)):
        odds = tuple(sorted(rng.sample(cycles, rng.randint(0, A.n))))
        coeff = monomial(
            F(rng.randint(-3, 3)), F(rng.randint(0, 3), 2), rng.randint(0, 2)
        )
        out = out + ChainExpression(A.dims, {((), odds): coeff})
    return out


# the built-ins at their balanced fibers, and the rectangle, whose two
# area classes make the correction tower a product of two factors
ORACLE_CASES = BUILTIN_NAMES + ["rect"]


def oracle_case(name):
    if name == "rect":
        return ChainAlgebra.for_fiber(RECT, RECT_CENTER)
    if name.startswith("(CP1)^"):
        m = int(name[len("(CP1)^"):])
        return ChainAlgebra.for_fiber(cube(m), Fiber((F(1, 2),) * m))
    return algebra(name)[2]


# the certificate is also compared on CPn(5), (CP1)^3 and (CP1)^4, where
# up to 2^4 basis monomials share one area class
CERTIFICATE_CASES = ORACLE_CASES + ["CPn(5)", "(CP1)^3", "(CP1)^4"]

# algebras whose areas disagree with their partition: the two of
# TestCertificateCanFail, and a negative class area, which lowers the
# valuation of every correction and so fails the filtration check
REPLACED_CP2 = {
    "class_area_off": {"class_areas": (F(1, 2),)},
    "facet_area_off": {"facet_areas": (F(1, 3), F(1, 3), F(1, 2))},
    "negative_class_area": {"class_areas": (F(-1, 2),)},
}


def rand_mixed_degree(A, rng):
    """A random classical P with one monomial in each degree 0..n."""
    out = A.zero()
    for r in range(A.n + 1):
        coeff = monomial(F(rng.choice([-2, -1, 1, 3])), F(rng.randint(0, 3), 2), rng.randint(0, 2))
        out = out + A.l_monomial(sorted(rng.sample(range(A.n), r))) * coeff
    return out


def assert_certificates_match_oracle(A, rng, random_inputs=40):
    """Every basis monomial, P = 0, random classical P with Novikov
    coefficients, and random P with a term in every degree."""
    inputs = [A.l_monomial(s) for r in range(A.n + 1) for s in combinations(range(A.n), r)]
    inputs += [A.zero()] + [rand_classical(A, rng) for _ in range(random_inputs)]
    inputs += [rand_mixed_degree(A, rng) for _ in range(random_inputs // 4)]
    for P in inputs:
        assert A.chain_map_certificate(P) == oracle_chain_map_certificate(A, P), str(P)


class TestCertificateMatchesOracle:
    """The certificate read off the algebra's tower against the full
    path of correcting, differentiating and reducing each P."""

    @pytest.mark.parametrize("name", CERTIFICATE_CASES)
    def test_fiber_algebras(self, name):
        assert_certificates_match_oracle(oracle_case(name), random.Random(78))

    @pytest.mark.parametrize("case", sorted(REPLACED_CP2))
    def test_replaced_algebras(self, case):
        B = replace(oracle_case("CP2"), **REPLACED_CP2[case])
        assert_certificates_match_oracle(B, random.Random(79))

    @pytest.mark.parametrize("name", ["CPn(6)", "(CP1)^5"])
    def test_summed_oracle_matches_analyze(self, name, capsys):
        # beyond the golden files: analyze's chain_map block against the
        # oracle certificates of every basis monomial at the solver fiber
        if name.startswith("(CP1)^"):
            X = cube(5)
            source = json.dumps(
                {
                    "name": X.name,
                    "dim": X.n,
                    "facets": [
                        {"normal": list(v), "offset": str(lam)}
                        for v, lam in zip(X.normals, X.offsets)
                    ],
                }
            )
        else:
            X, source = load_toric(name), name
        assert cli.main(["analyze", "--input", source, "--format", "json", "--lmax", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        A = ChainAlgebra.for_fiber(X, Fiber(tuple(F(u) for u in doc["fiber"]["u"])))
        certs = [
            oracle_chain_map_certificate(A, A.l_monomial(s))
            for r in range(X.n + 1)
            for s in combinations(range(X.n), r)
        ]
        assert doc["chain_map"] == {
            "monomials_checked": 2**X.n,
            "all_hold": all(c.holds for c in certs),
            "correction_terms_above_dim": sum(c.correction_terms_above_n for c in certs),
            "residual_terms_above_dim": sum(c.overdimension_terms for c in certs),
            "residual_terms_square_rule": sum(c.square_rule_terms for c in certs),
        }

    def test_filtration_can_fail(self):
        B = replace(oracle_case("CP2"), **REPLACED_CP2["negative_class_area"])
        cert = B.chain_map_certificate(B.l(0))
        assert not cert.filtration_ok and not cert.holds
        assert oracle_chain_map_certificate(B, B.l(0)) == cert
        assert B.chain_map_certificate(B.zero()).filtration_ok


def basis_sum(A):
    """The sum of the 2^n basis monomials l_S."""
    return sum((A.l_monomial(S) for S in subsets_graded(A.n)), A.zero())


def polytope_json(name, normals, offsets):
    facets = [{"normal": list(v), "offset": str(c)} for v, c in zip(normals, offsets)]
    return json.dumps({"name": name, "dim": len(normals[0]), "facets": facets})


def box_json(sides):
    """The box [0, s_1] x ... x [0, s_n]: one area class per distinct side."""
    n = len(sides)
    normals = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    offsets = [c for side in sides for c in (0, -side)]
    return polytope_json("box" + "".join(map(str, sides)), normals, offsets)


# the built-ins, CPn(1..7), the hexagon (CP2 blown up at three points),
# the rectangle, and n-boxes with l = 1..n distinct side lengths
ANALYZE_CHAIN_MAP_INPUTS = {
    **{name: name for name in BUILTIN_NAMES},
    **{f"CPn({k})": f"CPn({k})" for k in range(1, 8)},
    "hexagon": polytope_json(
        "hexagon", [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], [-1] * 6
    ),
    "rect": polytope_json("rect", RECT.normals, RECT.offsets),
    **{
        f"box(n={n},l={l})": box_json([1] * (n - l + 1) + list(range(2, l + 1)))
        for n in range(1, 6)
        for l in range(1, n + 1)
    },
}


HEXAGON_NORMALS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
positive_fractions = st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12)


@st.composite
def moved_polytopes(draw):
    """(polytope JSON, balanced fiber, number of area classes) for a box
    with rational sides, CPn(1..5) or the hexagon, dilated by a positive
    rational and translated by a rational vector."""
    kind = draw(st.sampled_from(["box", "CPn", "hexagon"]))
    if kind == "box":
        # l distinct sides, each used at least once: l runs from 1 to n
        n = draw(st.integers(1, 5))
        classes = draw(st.integers(1, n))
        pool = draw(st.lists(positive_fractions, min_size=classes, max_size=classes, unique=True))
        repeats = draw(st.lists(st.sampled_from(pool), min_size=n - classes, max_size=n - classes))
        sides = draw(st.permutations(pool + repeats))
        normals = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
        offsets = [c for side in sides for c in (0, -side)]
        center = [side / 2 for side in sides]
    elif kind == "CPn":
        n = draw(st.integers(1, 5))
        X = load_toric(f"CPn({n})")
        normals, offsets = X.normals, X.offsets
        center, classes = [F(1, n + 1)] * n, 1
    else:
        n, normals, offsets, center, classes = 2, HEXAGON_NORMALS, [-1] * 6, [0, 0], 1
    scale = draw(st.one_of(st.sampled_from([1, 2, 7, 60, 3000]), positive_fractions))
    shift = draw(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=12),
            min_size=n,
            max_size=n,
        )
    )
    # x -> scale * x + shift moves the facet <v, x> >= c to offset
    # scale * c + <v, shift>, and the balanced fiber with it
    moved = [scale * c + sum(map(mul, v, shift)) for v, c in zip(normals, offsets)]
    fiber = [scale * u + t for u, t in zip(center, shift)]
    return polytope_json(kind, normals, moved), fiber, classes


class TestAnalyzeChainMapBlock:
    """analyze writes its chain_map block in closed form in (n, N, l): it
    must equal the sum of the 2^n per-monomial certificates of the general
    path, and the binomial sums of the tests' own oracle."""

    @pytest.mark.parametrize("name", sorted(ANALYZE_CHAIN_MAP_INPUTS))
    def test_block_matches_both_oracles(self, name, capsys):
        source = ANALYZE_CHAIN_MAP_INPUTS[name]
        assert cli.main(["analyze", "--input", source, "--format", "json", "--lmax", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["balanced"] and doc["fiber"]["exact"]
        X = load_toric(source)
        A = ChainAlgebra.for_fiber(X, Fiber(tuple(F(u) for u in doc["fiber"]["u"])))
        if name.startswith("box"):
            assert len(A.class_areas) == int(name.split("l=")[1][:-1])
        assert doc["chain_map"] == chain_map_block(oracle_summed_certificate(A), X.n)
        assert doc["chain_map"] == closed_form_chain_map(X.n, X.num_facets, len(A.class_areas))

    # at the balanced fiber given with --fiber: the solver is tested on its own
    @settings(max_examples=100, deadline=None)
    @given(moved_polytopes())
    def test_block_matches_both_oracles_on_moved_polytopes(self, case):
        source, fiber, classes = case
        fiber_arg = f"--fiber={','.join(map(str, fiber))}"
        out = io.StringIO()
        with redirect_stdout(out):
            argv = ["analyze", "--input", source, fiber_arg, "--format", "json", "--lmax", "0"]
            assert cli.main(argv) == 0
        doc = json.loads(out.getvalue())
        assert doc["balanced"]
        X = load_toric(source)
        A = ChainAlgebra.for_fiber(X, Fiber(tuple(fiber)))
        assert len(A.class_areas) == classes
        assert doc["chain_map"] == closed_form_chain_map(X.n, X.num_facets, classes)
        assert doc["chain_map"] == chain_map_block(oracle_summed_certificate(A), X.n)

    @pytest.mark.parametrize("name", CERTIFICATE_CASES)
    def test_basis_sum_is_the_summed_one(self, name):
        A = oracle_case(name)
        assert A.chain_map_certificate(basis_sum(A)) == oracle_summed_certificate(A)


class TestAlgebraFormsMatchOracle:
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_floer_differential_and_boundary(self, name):
        A = oracle_case(name)
        rng = random.Random(71)
        for _ in range(100):
            e = rand_chain(A, rng)
            assert A.boundary(e) == oracle_boundary(A, e)
            assert A.floer_differential(e) == oracle_floer_differential(A, e)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_corrected_cycle(self, name):
        A = oracle_case(name)
        rng = random.Random(72)
        for _ in range(100):
            P = rand_classical(A, rng)
            assert A.corrected_cycle(P) == oracle_corrected_cycle(A, P)
        for r in range(A.n + 1):
            for subset in combinations(range(A.n), r):
                P = A.l_monomial(subset)
                assert A.corrected_cycle(P) == oracle_corrected_cycle(A, P)


class TestResultsInNormalForm:
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_every_operation(self, name):
        A = oracle_case(name)
        rng = random.Random(73)
        scalar = monomial(-2, F(1, 2), 1) + monomial(1, 1, 0)
        for _ in range(60):
            a = rand_chain(A, rng)
            b = rand_chain(A, rng)
            for e in (
                a + b,
                a - b,
                a - a,
                -a,
                a * b,
                a * scalar,
                a * -1,
                A.boundary(a),
                A.floer_differential(a),
                A.reduce_degenerate_pairs(a),
                A.corrected_cycle(rand_classical(A, rng)),
            ):
                assert_chain_normal(e)

    def test_cancellation_leaves_no_zero_coefficient(self):
        _, _, A = algebra("CP2")
        x = A.l(0) + A.l(1)
        for e in (x * x, x - x, A.Q(0) * x * 0):
            assert not e
            assert e.items() == []


class TestCertificateCanFail:
    """An algebra whose areas disagree with its own partition: the
    corrected cycle is then not closed, and the certificate says so."""

    def test_class_area_off_the_partition(self):
        _, _, A = algebra("CP2")
        B = replace(A, class_areas=(F(1, 2),))
        cert = B.chain_map_certificate(B.l(0))
        assert not cert.holds and not cert.reduced_to_zero and cert.filtration_ok
        assert cert.residual_terms == 6
        assert cert.overdimension_terms == 3
        assert cert.square_rule_terms == 3

    def test_facet_area_off_the_partition(self):
        _, _, A = algebra("CP2")
        B = replace(A, facet_areas=(F(1, 3), F(1, 3), F(1, 2)))
        cert = B.chain_map_certificate(B.one())
        assert not cert.holds and not cert.reduced_to_zero and cert.filtration_ok
        assert cert.residual_terms == 4
        assert cert.overdimension_terms == 3
        assert cert.square_rule_terms == 1
        assert not B.verify_chain_map(B.one())

    @pytest.mark.parametrize("case", ["class_area_off", "facet_area_off"])
    def test_basis_sum_fails_like_the_summed_one(self, case):
        B = replace(oracle_case("CP2"), **REPLACED_CP2[case])
        cert = B.chain_map_certificate(basis_sum(B))
        assert cert == oracle_summed_certificate(B)
        assert not cert.holds and not cert.reduced_to_zero


def test_module_level_helpers_read_the_fiber_each_call(disc_area_calls):
    X, f, A = algebra("CP2")
    disc_area_calls.clear()
    P = A.l(0)
    corrected_cycle(X, f, P)
    chain_map_certificate(X, f, P)
    assert disc_area_calls == [f, f]


class TestReductionMatchesOracle:
    """The one-pass worklist reduction against the sorted-redex loop."""

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_random_expressions(self, name):
        A = oracle_case(name)
        rng = random.Random(74)
        for _ in range(150):
            e = rand_chain(A, rng, max_terms=5)
            assert A.reduce_degenerate_pairs(e) == oracle_reduce_degenerate_pairs(A, e)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_rewrites_that_cancel(self, name):
        # a class disc sum next to its Q is in the ideal, and so is x
        # minus its normal form: every rewrite of the redex terms must
        # cancel against the other terms
        A = oracle_case(name)
        rng = random.Random(75)
        for _ in range(40):
            y = rand_chain(A, rng)
            x = rand_chain(A, rng, max_terms=5)
            for t, members in enumerate(A.class_members):
                class_sum = reduce(lambda a, b: a + b, (A.d(j) for j in members))
                e = class_sum * A.Q(t) * y
                assert not A.reduce_degenerate_pairs(e)
                assert not oracle_reduce_degenerate_pairs(A, e)
            e = x - oracle_reduce_degenerate_pairs(A, x)
            assert not A.reduce_degenerate_pairs(e)
            e = x + e * monomial(2, F(1, 2), 1)
            assert A.reduce_degenerate_pairs(e) == oracle_reduce_degenerate_pairs(A, e)

    def test_two_redexes_in_one_monomial(self):
        # the rectangle's leaders d_4 (class 1) and d_2 (class 2) in one
        # monomial with both correction chains
        A = oracle_case("rect")
        e = A.Q(0) * A.Q(1) * A.d(1) * A.d(3) * A.l(0)
        red = A.reduce_degenerate_pairs(e)
        assert red == oracle_reduce_degenerate_pairs(A, e)
        assert red == A.Q(0) * A.Q(1) * A.d(0) * A.d(2) * A.l(0)


class TestDerivedValuesFollowTheFields:
    """D and the tower T are derived from the algebra's own areas, so a
    replaced algebra does not reuse the values of the original."""

    def test_replaced_facet_areas(self):
        _, _, A = algebra("CP2")
        rng = random.Random(76)
        e = rand_chain(A, rng, max_terms=5)
        A.floer_differential(e)  # derive A's values first
        B = replace(A, facet_areas=(F(1, 3), F(1, 3), F(1, 2)))
        for _ in range(30):
            e = rand_chain(B, rng)
            assert B.floer_differential(e) == oracle_floer_differential(B, e)
            assert A.floer_differential(e) == oracle_floer_differential(A, e)
        assert B.floer_differential(B.one()) != A.floer_differential(A.one())

    def test_replaced_class_areas(self):
        A = oracle_case("rect")
        A.corrected_cycle(A.one())
        B = replace(A, class_areas=(F(1), F(1, 2)))
        rng = random.Random(77)
        for _ in range(30):
            P = rand_classical(B, rng)
            assert B.corrected_cycle(P) == oracle_corrected_cycle(B, P)
            assert A.corrected_cycle(P) == oracle_corrected_cycle(A, P)

    @pytest.mark.parametrize(
        "fields",
        [
            {"class_areas": (F(1), F(1, 2))},
            {"facet_areas": (F(1), F(1), F(1, 2), F(1))},
        ],
        ids=["class_areas", "facet_areas"],
    )
    def test_replaced_tower_and_its_differential(self, fields):
        A = oracle_case("rect")
        A.chain_map_certificate(A.one())  # derive A's T and D first
        B = replace(A, **fields)
        for C in (B, A):
            T = oracle_corrected_cycle(C, C.one())
            assert C._tower == T
            assert C._disc_sum == oracle_floer_differential(C, C.one())  # n = 2
            assert C.floer_differential(C._tower) == oracle_floer_differential(C, T)
        assert (B._tower, B._disc_sum) != (A._tower, A._disc_sum)
        assert_certificates_match_oracle(B, random.Random(80), random_inputs=10)


class TestLMonomial:
    def test_every_ordering_matches_the_product(self):
        X = load_toric("CPn(4)")
        A = ChainAlgebra.for_fiber(X, balanced_fiber(X))
        for k in range(5):
            for idx in product(range(4), repeat=k):
                expected = reduce(lambda a, i: a * A.l(i), idx, A.one())
                got = A.l_monomial(idx)
                assert got == expected, idx
                assert_chain_normal(got)
                if len(set(idx)) < k:
                    assert not got
                else:
                    assert len(got.monomials()) == 1

    def test_generator_input(self):
        _, _, A = algebra("CP2")
        assert A.l_monomial(i for i in (1, 0)) == A.l(1) * A.l(0)
        assert A.l_monomial(()) == A.one()

    def test_out_of_range_raises(self):
        _, _, A = algebra("CP2")
        for idx in ((2,), (0, 2), (2, 2), (-1,), (1, 1, 5)):
            with pytest.raises(DimensionMismatch):
                A.l_monomial(idx)
