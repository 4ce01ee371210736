"""Hypothesis strategies shared by the test modules.  conftest.py imports
no hypothesis, so that the golden and API tests run without it."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from toricfloer import Fiber, find_critical_fiber, load_toric, make_toric

from conftest import BOX_123, BUILTIN_NAMES, HEXAGON, RECT, random_interior_fiber, shear


@st.composite
def sheared_fibers(draw):
    """(X, f, Y, g): X a built-in, the rectangle, the hexagon or the box
    [0,1]x[0,2]x[0,3], f its solver fiber or a drawn interior one, and
    (Y, g) = shear(X, f, ...) under up to 2n random unimodular shears
    v_i += c * v_j, |c| <= 5, which keep every disc area.  The normals'
    supports then take every size from 1 to n, and their l-table values
    are mostly distinct."""
    X = draw(
        st.sampled_from([load_toric(name) for name in BUILTIN_NAMES] + [RECT, HEXAGON, BOX_123]),
        label="X",
    )
    if draw(st.booleans(), label="at_solver"):
        f = find_critical_fiber(X)
    else:
        f = random_interior_fiber(X, random.Random(draw(st.integers(0, 2**16))), denom=12)
    shears = []
    for _ in range(draw(st.integers(0, 2 * X.n), label="shears") if X.n > 1 else 0):
        i, j = draw(st.permutations(range(X.n)), label="axes")[:2]
        shears.append((i, j, draw(st.integers(-5, 5), label="multiplier")))
    return (X, f, *shear(X, f, shears))


def _cube(n):
    normals = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    return make_toric(f"(CP1)^{n}", n, normals, [0, -1] * n)


@st.composite
def transported_balanced(draw):
    """(X, u): a polytope with a balanced fiber, moved by a transport g,
    and g applied to that fiber, exactly.  The base is CPn(1..5), (CP1)^1..6,
    the rectangle, the hexagon or the box [0,1]x[0,2]x[0,3], at its balanced
    fiber; g is up to two shears v_i += c * v_j, |c| <= 5, for n <= 5, then a
    dilation by 1, 7, 60 or 3000, a translation by t, |t_i| <= 1, and a
    permutation of the facets.  The float gradient at the moved fiber is
    rounding noise that grows with the normals and the coordinates.  Within
    these bounds it stayed below 7.4e-13, under the solver's default tol of
    1e-12, over every two-shear product of the bases with n <= 3 at the
    translations {-2, 0, 2}^n and 112,000 random draws with n = 4, 5 and
    |t_i| <= 2, dilations 1 and 7; beyond them it can exceed tol, as on the
    sheared CP2 of test_cli.test_sheared_solver_lands_on_the_balanced_fiber."""
    X = draw(
        st.sampled_from(
            [load_toric(f"CPn({n})") for n in range(1, 6)]
            + [_cube(n) for n in range(1, 7)]
            + [RECT, HEXAGON, BOX_123]
        ),
        label="X",
    )
    shears = []
    for _ in range(draw(st.integers(0, 2), label="shears") if 1 < X.n <= 5 else 0):
        i, j = draw(st.permutations(range(X.n)), label="axes")[:2]
        shears.append((i, j, draw(st.integers(-5, 5), label="multiplier")))
    # the simplex's centre; the boxes' and the hexagon's is their witness
    centre = (Fraction(1, X.n + 1),) * X.n if X.name.startswith("CPn") else X.interior_point
    Y, g = shear(X, Fiber(centre), shears)
    k = draw(st.sampled_from([1, 7, 60, 3000]), label="dilation")
    t = draw(st.lists(st.fractions(-1, 1, max_denominator=12), min_size=X.n, max_size=X.n), label="t")
    facets = draw(st.permutations(range(Y.num_facets)), label="facets")
    normals = [Y.normals[p] for p in facets]
    offsets = [k * Y.offsets[p] + sum(a * b for a, b in zip(v, t)) for p, v in zip(facets, normals)]
    return make_toric(X.name, X.n, normals, offsets), tuple(k * x + s for x, s in zip(g.u, t))
