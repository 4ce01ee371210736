import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer import (
    DimensionMismatch,
    Fiber,
    NoConvergence,
    NotInterior,
    QuadraticForm,
    disc_areas,
    find_critical_fiber,
    formal_hessian,
    load_toric,
    make_toric,
    superpotential_derivative,
    theta_of_fiber,
    twisted_class_sums,
)
from toricfloer.novikov import ZERO, monomial
from toricfloer import potential
from toricfloer.potential import _gradient, _solve, _w_grad_hess

from toricfloer.toric import ToricFano, _fiber_areas

from conftest import (
    BUILTIN_NAMES,
    balanced_fiber,
    oracle_find_critical_fiber,
    oracle_w_grad_hess_at,
    random_interior_fiber,
)

# critical point ((1 + ln 2)/2, (1 - ln 2)/2) is irrational, and no
# rational point of this triangle is balanced, so the solver must return
# exact=False here
SKEW_TRIANGLE = make_toric(
    "skew", 2, [(1, 0), (0, 1), (-1, -2)], [0, 0, -2]
)
RECT = make_toric("rect", 2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -2, 0, -1])
CP1_CUBED = make_toric(
    "CP1^3",
    3,
    [tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)],
    [0, -1] * 3,
)
NUMERIC_POLYTOPES = [load_toric(name) for name in BUILTIN_NAMES] + [RECT, CP1_CUBED]
HEXAGON_NORMALS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
# the hexagon with a balanced fiber of two area classes, 4/3 and 5/3 at
# (1/3, 1/3)
HEXAGON2_OFFSETS = [-1, -1, -1, -2, -2, -2]
Q = 10**6 + 3
# the hexagons whose balanced fiber has two area classes, with that fiber:
# areas 4/3 and 5/3 at (1/3, 1/3), and 2 and 1 at (0, 0)
TWO_CLASS_HEXAGONS = [
    (HEXAGON2_OFFSETS, (F(1, 3), F(1, 3))),
    ([-2, -1, -2, -1, -2, -1], (F(0), F(0))),
]


class TestDerivatives:
    def test_value_cp1(self):
        X = load_toric("CP1")
        w = superpotential_derivative(X, [0.5])
        assert w == pytest.approx(2 * math.exp(-0.5))

    def test_value_cp2(self):
        X = load_toric("CP2")
        w = superpotential_derivative(X, [0.25, 0.25])
        assert w == pytest.approx(2 * math.exp(-0.25) + math.exp(-0.5))

    def test_first_partial_signs(self):
        X = load_toric("CP2")
        d0 = superpotential_derivative(X, [0.25, 0.25], (0,))
        # -(1*e^{-1/4} + 0 + (-1)*e^{-1/2})
        assert d0 == pytest.approx(-(math.exp(-0.25) - math.exp(-0.5)))

    def test_gradient_vanishes_at_center(self, builtin):
        theta = theta_of_fiber(builtin, balanced_fiber(builtin))
        for i in range(builtin.n):
            assert abs(superpotential_derivative(builtin, theta, (i,))) < 1e-14

    def test_matches_finite_differences(self, builtin):
        rng = random.Random(21)
        h = 1e-5
        for _ in range(10):
            f = random_interior_fiber(builtin, rng)
            theta = [float(x) for x in f.u]
            order = rng.randint(1, 3)
            idx = tuple(rng.randrange(builtin.n) for _ in range(order))
            tp = list(theta)
            tm = list(theta)
            tp[idx[0]] += h
            tm[idx[0]] -= h
            fd = (
                superpotential_derivative(builtin, tp, idx[1:])
                - superpotential_derivative(builtin, tm, idx[1:])
            ) / (2 * h)
            exact = superpotential_derivative(builtin, theta, idx)
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_axis_out_of_range(self):
        X = load_toric("CP1")
        with pytest.raises(IndexError):
            superpotential_derivative(X, [0.5], (1,))

    def test_dimension_mismatch(self):
        X = load_toric("CP2")
        with pytest.raises(DimensionMismatch):
            superpotential_derivative(X, [0.5])

    def test_far_outside_overflows(self):
        # the facet at offset -1 has weight exp(999) at theta = 1000
        with pytest.raises(OverflowError):
            superpotential_derivative(load_toric("CP1"), [1000.0])


class TestStdlibNumerics:
    """The plain-float W, gradient, Hessian and Newton solve, against numpy."""

    @pytest.mark.parametrize("X", NUMERIC_POLYTOPES, ids=lambda X: X.name)
    def test_matches_vectorised_formulas(self, X):
        rng = random.Random(24)
        V = np.array(X.normals, dtype=float)
        lam = np.array([float(c) for c in X.offsets])
        for _ in range(10):
            u = [float(x) for x in random_interior_fiber(X, rng).u]
            weights = np.exp(-(V @ np.array(u) - lam))
            w, grad, hess = _w_grad_hess(X, u)
            assert w == pytest.approx(weights.sum(), rel=1e-12)
            np.testing.assert_allclose(grad, -V.T @ weights, rtol=1e-12)
            np.testing.assert_allclose(hess, (V.T * weights) @ V, rtol=1e-12)
            b = [rng.uniform(-1, 1) for _ in range(X.n)]
            np.testing.assert_allclose(_solve(hess, b), np.linalg.solve(hess, b), rtol=1e-12)

    @pytest.mark.parametrize("X", NUMERIC_POLYTOPES, ids=lambda X: X.name)
    def test_gradient_is_the_first_derivative_bit_for_bit(self, X):
        # the solver's gradient, and so analyze's gradient norm (the next
        # test), is the same number the public superpotential_derivative gives
        rng = random.Random(25)
        for _ in range(10):
            u = [float(x) for x in random_interior_fiber(X, rng).u]
            _, grad, _ = _w_grad_hess(X, u)
            assert grad == [superpotential_derivative(X, u, (i,)).real for i in range(X.n)]

    @pytest.mark.parametrize("X", NUMERIC_POLYTOPES + [SKEW_TRIANGLE], ids=lambda X: X.name)
    def test_gradient_only_evaluation_is_bit_for_bit(self, X):
        # analyze reads its gradient norm from _gradient, which must give the
        # solver's _w_grad_hess gradient exactly, inside and outside
        rng = random.Random(26)
        points = [[float(x) for x in random_interior_fiber(X, rng).u] for _ in range(20)]
        points += [[rng.uniform(-3, 3) for _ in range(X.n)] for _ in range(20)]
        for u in points:
            assert _gradient(X, u) == _w_grad_hess(X, u)[1]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sparse_kernel_is_the_dense_one_bit_for_bit(self, data):
        # the kernels skip the zero normal entries; W, every gradient entry
        # and every Hessian entry must keep the dense sum's bits, on
        # zero-heavy and on fully dense normals alike
        n = data.draw(st.integers(1, 6), label="n")
        N = data.draw(st.integers(n + 1, 3 * n), label="N")
        entries = st.integers(-100, 100)
        if data.draw(st.booleans(), label="dense"):
            entries = entries.filter(bool)
        else:
            entries = st.one_of(st.just(0), entries)
        normals = data.draw(
            st.lists(st.tuples(*[entries] * n), min_size=N, max_size=N), label="normals"
        )
        distance = st.floats(0, 700, exclude_min=True)
        distances = data.draw(st.lists(distance, min_size=N, max_size=N), label="distances")

        # a polytope with these normals (unvalidated: only the normals and
        # offsets are read), its facet distances at a drawn point u about
        # the drawn ones
        u = data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n), label="u")
        dots = [sum(t * c for t, c in zip(u, v)) for v in normals]
        offsets = tuple(F(dot - d) for dot, d in zip(dots, distances))
        X = ToricFano("drawn", n, tuple(normals), offsets, ())

        def bits(w, grad, hess):
            return w.hex(), [g.hex() for g in grad], [[h.hex() for h in row] for row in hess]

        expected = bits(*oracle_w_grad_hess_at(normals, distances))
        assert bits(*potential._w_grad_hess_at(X._supports, n, distances)) == expected
        # _gradient reads the distances at u off the offsets
        _, grad, _ = oracle_w_grad_hess_at(normals, potential._distances(X, u))
        assert [g.hex() for g in _gradient(X, u)] == [g.hex() for g in grad]

    def test_supports_are_the_nonzero_entries(self):
        X = load_toric("CPn(3)")
        assert X._supports == (
            ((0, 1),),
            ((1, 1),),
            ((2, 1),),
            ((0, -1), (1, -1), (2, -1)),
        )
        assert X._supports is X._supports

    @pytest.mark.parametrize("X", NUMERIC_POLYTOPES)
    def test_a_constructor_built_polytope_matches_its_make_toric_twin(self, X):
        # list normals and offsets, as a caller of the constructor may pass
        Y = ToricFano(X.name, X.n, [list(v) for v in X.normals], list(X.offsets), X.interior_point)
        assert Y._supports == X._supports
        for f in (find_critical_fiber(X), Fiber(X.interior_point)):
            classes, partition, balance = _fiber_areas(Y, f)
            assert [(d.index, tuple(d.normal), d.area) for d in classes] == [
                (d.index, d.normal, d.area) for d in _fiber_areas(X, f)[0]
            ]
            assert (partition, balance) == _fiber_areas(X, f)[1:]
            for lmax in (2, 3):
                want = list(potential._l_table(X, partition, lmax).items())
                # the twin's supports are a tuple of their own, equal in
                # value, so its table is X's cached class totals
                hits = potential._l_totals.cache_info().hits
                assert list(potential._l_table(Y, partition, lmax).items()) == want
                assert potential._l_totals.cache_info().hits == hits + 1
            assert formal_hessian(Y, f) == formal_hessian(X, f)

    def test_class_sums_are_complex_tuples(self, builtin):
        f = Fiber(balanced_fiber(builtin).u, holonomy=(F(1, 4),) * builtin.n)
        for s in twisted_class_sums(builtin, f):
            assert type(s) is tuple and len(s) == builtin.n
            assert all(type(c) is complex for c in s)


class TestHolonomy:
    def test_theta_embedding(self):
        X = load_toric("CP1")
        f = Fiber((F(1, 2),), holonomy=(F(1, 4),))
        (theta,) = theta_of_fiber(X, f)
        assert theta == pytest.approx(0.5 + 1j * math.pi / 2)

    def test_half_turn_holonomy_still_critical_on_cp1(self):
        # both facet weights flip sign together, so the sums still cancel
        X = load_toric("CP1")
        f = Fiber((F(1, 2),), holonomy=(F(1, 2),))
        (s,) = twisted_class_sums(X, f)
        assert np.allclose(s, 0)

    def test_quarter_turn_holonomy_not_critical(self):
        X = load_toric("CP1")
        f = Fiber((F(1, 2),), holonomy=(F(1, 4),))
        (s,) = twisted_class_sums(X, f)
        assert np.abs(s).max() > 1.9

    def test_trivial_holonomy_reduces_to_integer_sums(self):
        X = load_toric("CP2")
        sums = twisted_class_sums(X, Fiber((F(1, 4), F(1, 4))))
        assert np.allclose(sums[0], [1, 1])
        assert np.allclose(sums[1], [-1, -1])

    def test_sums_assemble_the_gradient(self, builtin):
        rng = random.Random(22)
        f = random_interior_fiber(builtin, rng)
        hol = tuple(F(rng.randint(0, 3), 4) for _ in range(builtin.n))
        f = Fiber(f.u, holonomy=hol)
        areas = sorted({d.area for d in disc_areas(builtin, f)})
        sums = twisted_class_sums(builtin, f)
        grad_from_sums = -sum(
            math.exp(-float(a)) * np.asarray(s) for a, s in zip(areas, sums)
        )
        theta = theta_of_fiber(builtin, f)
        grad = np.array(
            [superpotential_derivative(builtin, theta, (i,)) for i in range(builtin.n)]
        )
        assert np.allclose(grad_from_sums, grad, atol=1e-12)


class TestSolver:
    def test_cp2_lands_exactly_on_center(self):
        f = find_critical_fiber(load_toric("CP2"), init=(F(1, 10), F(1, 10)))
        assert f.exact
        assert f.u == (F(1, 3), F(1, 3))

    def test_default_start_is_the_witness(self, builtin):
        f = find_critical_fiber(builtin)
        assert f.exact
        assert f.u == balanced_fiber(builtin).u

    def test_irrational_critical_point_flagged(self):
        f = find_critical_fiber(SKEW_TRIANGLE)
        assert not f.exact
        theta = [float(x) for x in f.u]
        for i in range(2):
            assert abs(superpotential_derivative(SKEW_TRIANGLE, theta, (i,))) < 1e-10

    def test_bad_start_raises(self):
        X = load_toric("CP2")
        with pytest.raises(NotInterior):
            find_critical_fiber(X, init=(F(2), F(2)))
        with pytest.raises(NotInterior):
            find_critical_fiber(X, init=(F(0), F(0)))
        with pytest.raises(NotInterior):
            find_critical_fiber(X, init=(F(1, 2),))

    def test_no_convergence_raises(self):
        X = load_toric("CP2")
        with pytest.raises(NoConvergence):
            find_critical_fiber(X, init=(F(1, 10), F(1, 10)), max_iters=1)
        with pytest.raises(NoConvergence):
            find_critical_fiber(X, tol=0.0, max_iters=5)

    @pytest.mark.parametrize("A", [[[0.0]], [[1.0, 1.0], [1.0, 1.0]]], ids=["first", "second"])
    def test_zero_pivot_raises(self, A):
        # a singular float Hessian: NoConvergence, not ZeroDivisionError
        with pytest.raises(NoConvergence, match="zero pivot"):
            _solve(A, [1.0] * len(A))

    def test_bad_start_is_printed_with_str(self):
        with pytest.raises(NotInterior, match=r"^initial point \(2, 1/2\) is not strictly interior$"):
            find_critical_fiber(load_toric("CP2"), init=(F(2), F(1, 2)))

    def test_polytope_too_small_for_floats_overflows(self):
        # the witness 10^-400 / 2 is strictly interior, but its float image
        # is 0.0, on the facet: the polytope is outside the float range,
        # not a bad starting point, which the caller did not give
        X = make_toric("CP1_tiny", 1, [(1,), (-1,)], [0, -F(1, 10**400)])
        with pytest.raises(OverflowError):
            find_critical_fiber(X)
        with pytest.raises(NotInterior):
            find_critical_fiber(X, init=(X.interior_point[0],))

    def test_one_evaluation_per_iterate(self, monkeypatch):
        # every step of this solve is taken whole, no halving rejected, so
        # the bound is one (W, gradient, Hessian) evaluation per iterate:
        # the witness and the point each Newton step lands on.  The witness
        # is passed as init, so Newton runs: without init, the exact centre
        # is accepted before it
        evaluations, steps = [], []
        kernel, solve = potential._w_grad_hess_at, potential._solve
        monkeypatch.setattr(
            potential, "_w_grad_hess_at", lambda *a: evaluations.append(a) or kernel(*a)
        )
        monkeypatch.setattr(potential, "_solve", lambda *a: steps.append(a) or solve(*a))
        X = load_toric("CPn(3)")
        assert find_critical_fiber(X, init=X.interior_point).u == balanced_fiber(X).u
        assert len(steps) == 4
        assert len(evaluations) == len(steps) + 1

    def test_exact_centre_takes_no_newton_step(self, monkeypatch):
        # the witness of CPn(3) is not balanced; the equal-area point is, and
        # its float gradient is below tol, so no Newton step is solved for
        steps = []
        solve = potential._solve
        monkeypatch.setattr(potential, "_solve", lambda *a: steps.append(a) or solve(*a))
        X = load_toric("CPn(3)")
        f = find_critical_fiber(X)
        assert f.exact and f.u == balanced_fiber(X).u
        assert steps == []

    def test_zero_tol_refuses_the_exact_centre(self):
        # no float gradient is below 0, so Newton runs and cannot stop
        with pytest.raises(NoConvergence):
            find_critical_fiber(load_toric("CP2"), tol=0.0)

    def test_zero_iterations_answer_with_the_exact_centre(self):
        f = find_critical_fiber(load_toric("CP2"), max_iters=0)
        assert f.exact and f.u == (F(1, 3), F(1, 3))

    # The hexagon's normals sum to 0, but with these offsets its witness is
    # not balanced and no point is at one distance from every facet: the
    # solver falls through to Newton, whose answer stays the oracle's.  The
    # first has no balanced fiber; the second has one with two area classes,
    # (1/3, 1/3), which is read off Newton's iterate exactly.  The third is
    # the second translated by (-5/q, 7/q), q = 10^6 + 3: its fiber's
    # denominator is past any bound a rounding of the iterate would use.
    @pytest.mark.parametrize(
        "offsets, fiber",
        [
            ([-1, -1, -1, -1, -1, -2], None),
            (HEXAGON2_OFFSETS, (F(1, 3), F(1, 3))),
            (
                [c + F(-5 * a + 7 * b, Q) for (a, b), c in zip(HEXAGON_NORMALS, HEXAGON2_OFFSETS)],
                (F(1, 3) - F(5, Q), F(1, 3) + F(7, Q)),
            ),
        ],
        ids=["unbalanced", "two_classes", "two_classes_shifted"],
    )
    def test_no_exact_candidate_falls_through_to_newton(self, monkeypatch, offsets, fiber):
        X = make_toric("hexagon", 2, HEXAGON_NORMALS, offsets)
        steps = []
        solve = potential._solve
        monkeypatch.setattr(potential, "_solve", lambda *a: steps.append(a) or solve(*a))
        f = find_critical_fiber(X)
        assert f == oracle_find_critical_fiber(X)
        assert f.exact is (fiber is not None) and steps
        if fiber is not None:
            assert f.u == fiber

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_two_evaluation_oracle(self, data):
        X, kwargs = data.draw(solver_cases())
        assert _solver_outcome(find_critical_fiber, X, kwargs) == _solver_outcome(
            oracle_find_critical_fiber, X, kwargs
        )

    # Newton alone stops short of the exact centre at scale 60, and at
    # scale 3000 exp underflows, the gradient reads 0 and the starting
    # witness comes back; the exact equal-area point is the centre at every
    # scale, and is accepted before Newton runs.
    @pytest.mark.parametrize("scale", [60, 3000])
    def test_dilated_cp2_lands_exactly_on_center(self, scale):
        X = make_toric(f"CP2x{scale}", 2, [(1, 0), (0, 1), (-1, -1)], [0, 0, -scale])
        f = find_critical_fiber(X)
        assert f.exact
        assert f.u == (F(scale, 3), F(scale, 3))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_two_class_hexagon_fiber_is_read_off_exactly(self, data):
        """The two hexagons whose balanced fiber has two area classes, moved
        by a translation of denominator 1, 12, 97 or 10^6 + 3, a facet
        permutation and a dilation by 1, 2, 5 or 7, at tol 1e-12, 1e-8 or
        1e-4: neither exact candidate is the fiber, so it is read off
        Newton's iterate, and it moves exactly with the polytope.  At a
        dilation by 60 or 3000 the gradient at the witness is below tol and
        Newton stops there, which test_cli's strict xfail
        test_dilated_two_class_hexagon_lands_on_its_balanced_fiber records."""
        offsets, centre = data.draw(st.sampled_from(TWO_CLASS_HEXAGONS), label="hexagon")
        q = data.draw(st.sampled_from([1, 12, 97, Q]), label="denominator")
        shift = [F(data.draw(st.integers(-q, q), label="numerator"), q) for _ in range(2)]
        scale = data.draw(st.sampled_from([1, 2, 5, 7]), label="dilation")
        facets = data.draw(st.permutations(range(6)), label="facets")
        tol = data.draw(st.sampled_from([1e-12, 1e-8, 1e-4]), label="tol")
        normals = [HEXAGON_NORMALS[k] for k in facets]
        X = _moved("hexagon", normals, [offsets[k] for k in facets], scale, shift)
        f = find_critical_fiber(X, tol=tol)
        assert f.exact and f.u == tuple(scale * c + t for c, t in zip(centre, shift))

    def test_hessian_positive_definite_at_solution(self, builtin):
        from toricfloer.potential import _w_grad_hess

        f = find_critical_fiber(builtin)
        _, _, hess = _w_grad_hess(builtin, np.array([float(x) for x in f.u]))
        assert np.linalg.eigvalsh(hess).min() > 0


def _moved(name, normals, offsets, scale, shift):
    """The polytope with x -> scale * x + shift applied: the facet
    <v, x> >= c moves to offset scale * c + <v, shift>."""
    moved = [scale * c + sum(vi * ti for vi, ti in zip(v, shift)) for v, c in zip(normals, offsets)]
    return make_toric(name, len(normals[0]), normals, moved)


@st.composite
def solver_cases(draw):
    """(polytope, solver keywords): CPn(1..6), (CP1)^1..6, the rectangle or
    the skew triangle, the last also at tol=0, max_iters=5 where it cannot
    converge; dilated by 1..5 and translated; from the witness or from a
    drawn starting point."""
    kind = draw(st.sampled_from(["CPn", "cube", "rect", "skew"]))
    kwargs = {}
    if kind == "skew":
        X = SKEW_TRIANGLE
        if draw(st.booleans()):
            kwargs = {"tol": 0.0, "max_iters": 5}
    elif kind == "rect":
        X = RECT
    else:
        n = draw(st.integers(1, 6))
        X = load_toric(f"CPn({n})") if kind == "CPn" else _cube(n)
    scale = draw(st.integers(1, 5))
    shift = draw(st.lists(st.fractions(-9, 9, max_denominator=6), min_size=X.n, max_size=X.n))
    if draw(st.booleans()):
        # the witness, moved by up to 1/4 on each axis: a start inside, on
        # the boundary or outside
        kwargs["init"] = tuple(
            scale * (x + draw(st.fractions(F(-1, 4), F(1, 4), max_denominator=16))) + t
            for x, t in zip(X.interior_point, shift)
        )
    return _moved(X.name, X.normals, X.offsets, scale, shift), kwargs


def _cube(n):
    normals = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    return make_toric(f"(CP1)^{n}", n, normals, [0, -1] * n)


def _solver_outcome(solver, X, kwargs):
    """The solver's Fiber, or the class of the error it raised."""
    try:
        return solver(X, **kwargs)
    except (NotInterior, NoConvergence) as exc:
        return type(exc)


class TestFormalHessian:
    def test_cp1(self):
        X = load_toric("CP1")
        Q = formal_hessian(X, Fiber((F(1, 2),)))
        assert Q.entry(0, 0) == 2 * monomial(1, F(1, 2), 1)

    def test_cp2(self):
        X = load_toric("CP2")
        Q = formal_hessian(X, balanced_fiber(X))
        t = monomial(1, F(1, 3), 1)
        assert Q.entry(0, 0) == 2 * t
        assert Q.entry(0, 1) == t
        assert Q.entry(1, 0) == t
        assert Q.entry(1, 1) == 2 * t

    def test_square(self):
        X = load_toric("CP1xCP1")
        Q = formal_hessian(X, balanced_fiber(X))
        t = monomial(1, F(1, 2), 1)
        assert Q.entry(0, 0) == 2 * t
        assert Q.entry(0, 1) == ZERO
        assert Q.entry(1, 1) == 2 * t

    def test_simplex_off_center(self):
        X = load_toric("CPn(3)")
        Q = formal_hessian(X, Fiber((F(1, 8), F(1, 8), F(1, 2))))
        # e = (1/8, 1/8, 1/2, 1/4); entry (0,2) only sees the last facet
        assert Q.entry(0, 2) == monomial(1, F(1, 4), 1)
        assert Q.entry(0, 0) == monomial(1, F(1, 8), 1) + monomial(1, F(1, 4), 1)

    def test_numeric_hessian_agreement(self, builtin):
        from toricfloer.potential import _w_grad_hess

        rng = random.Random(23)
        f = random_interior_fiber(builtin, rng)
        Q = formal_hessian(builtin, f)
        _, _, hess = _w_grad_hess(builtin, np.array([float(x) for x in f.u]))
        for i in range(builtin.n):
            for j in range(builtin.n):
                assert Q.entry(i, j).numeric() == pytest.approx(hess[i][j], rel=1e-12)

    def test_not_interior_propagates(self):
        X = load_toric("CP2")
        with pytest.raises(NotInterior):
            formal_hessian(X, Fiber((F(0), F(1, 2))))


class TestQuadraticFormValidation:
    def test_rejects_asymmetric(self):
        a = monomial(1, 1, 1)
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticForm(2, ((ZERO, a), (ZERO, ZERO)))

    def test_rejects_wrong_q_degree(self):
        a = monomial(1, 1, 2)
        with pytest.raises(ValueError, match="exactly one q"):
            QuadraticForm(1, ((a,),))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="matrix"):
            QuadraticForm(2, ((ZERO,),))

    def test_zero_form(self):
        Q = QuadraticForm.zero(3)
        assert all(Q.entry(i, j) == ZERO for i in range(3) for j in range(3))

    def test_zero_form_is_built_once_per_dimension(self):
        assert QuadraticForm.zero(3) is QuadraticForm.zero(3)
        assert QuadraticForm.zero(2) is not QuadraticForm.zero(3)
