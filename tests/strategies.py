"""Hypothesis strategies shared by the test modules.  conftest.py imports
no hypothesis, so that the golden and API tests run without it."""

import random

from hypothesis import strategies as st

from toricfloer import find_critical_fiber, load_toric

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
