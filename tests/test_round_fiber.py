"""The solver's rounding of a float coordinate against Fraction's.

potential._limit_denominator runs Fraction.limit_denominator's continued
fraction on the integers of the float's ratio; it must return the same
bound, ties included, on every interpreter, although Python 3.12
rewrote the comparison that picks between the two bounds.  This file
imports no numpy, so it runs on an interpreter without the test extras.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricfloer.potential import _ROUND_DENOMINATOR, _limit_denominator

from conftest import oracle_limit_denominator

SMALLEST_NORMAL = sys.float_info.min


def _ulp_from(x: float, step: int) -> float:
    return x if step == 0 else math.nextafter(x, math.copysign(math.inf, step))


finite = st.floats(allow_nan=False, allow_infinity=False)
floats = st.one_of(
    finite,
    st.integers(-(2**70), 2**70).map(float),
    st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL),
    st.floats(min_value=1e300, allow_infinity=False).flatmap(lambda x: st.sampled_from([x, -x])),
    # k/7 and its two neighbours: the solver's fiber of CPn(6) is (1/7, ...)
    st.builds(_ulp_from, st.integers(-(10**7), 10**7).map(lambda k: k / 7), st.integers(-1, 1)),
    # dyadic points, halfway between two fractions of small denominator
    st.builds(lambda k, j: k / 2**j, st.integers(-(2**12), 2**12), st.integers(0, 12)),
)


@settings(max_examples=2000, deadline=None)
@given(x=floats, bound=st.one_of(st.just(_ROUND_DENOMINATOR), st.integers(1, 64)))
# ties, where the convergent is kept: 1/2 between 0 and 1, 3/4 between
# 1/2 and 1, -5/2 between -3 and -2
@example(x=0.5, bound=1)
@example(x=0.75, bound=2)
@example(x=-2.5, bound=1)
def test_matches_fraction_limit_denominator(x, bound):
    got = _limit_denominator(x, bound)
    want = oracle_limit_denominator(x, bound)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_ties_keep_the_convergent():
    assert _limit_denominator(0.5, 1) == 0
    assert _limit_denominator(0.75, 2) == 1
    assert _limit_denominator(-2.5, 1) == -3


@pytest.mark.parametrize("x, error", [(math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError)])
@pytest.mark.parametrize("rounding", [_limit_denominator, oracle_limit_denominator])
def test_non_finite_raise_as_fraction_does(x, error, rounding):
    with pytest.raises(error):
        rounding(x, _ROUND_DENOMINATOR)
