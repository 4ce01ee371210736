"""The Floer complex of a torus fiber and its cohomology rank.

The complex is modelled on the exterior algebra of the fiber torus with
Novikov coefficients.  The differential is wedging with the obstruction
one-form alpha = sum_k T^{e_k} q * (sum_i v_ki l_i), carrying a global
sign (-1)^n so printed chains match the expected formulas; alpha wedge
alpha = 0 makes it square to zero for every interior fiber.

The rank is read off alpha, as in the 2^n/0 dichotomy of Cho-Oh (Asian
J. Math. 2006) used by arXiv math/0412414.  Over a field, wedging with
a nonzero one-form is the Koszul complex of a nonzero vector, which is
exact, so the cohomology is 0; when alpha = 0 the differential vanishes
and all 2^n classes survive.  alpha = 0 exactly at balanced fibers,
since terms of distinct area cannot cancel.  The answer is exact
and involves no truncation.

elimination_rank and novikov_rank are general helpers for the rank of a
Novikov matrix by truncated Gaussian elimination; hf_rank does not use
them.  The l-table, whose degree-2 row is the Hessian behind m2_product,
lives in potential, beside the class sums it is built from.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .clifford import CliffordElement, cl_mul
from .errors import NotBalanced
from .novikov import DEFAULT_CUTOFF, ZERO, NovikovElement, monomial
from .potential import QuadraticForm, _alpha, _class_terms, _hessian, boundary_pairing
from .toric import BalanceResult, Fiber, ToricFano, _as_fiber, _fiber_areas

#: cohomology classes of the fiber torus, wedge products of the degree-1
#: generators; the same container as CliffordElement, multiplied with Q = 0
ExteriorClass = CliffordElement

_MAX_REFINEMENTS = 8  # cutoff doublings before novikov_rank gives up


def subsets_graded(n: int) -> list[tuple[int, ...]]:
    """All index subsets of {0..n-1}, sorted by size then lexicographically."""
    out = [()]
    for s in range(1, 2**n):
        out.append(tuple(i for i in range(n) if s >> i & 1))
    out.sort(key=lambda t: (len(t), t))
    return out


def wedge(x: ExteriorClass, y: ExteriorClass) -> ExteriorClass:
    return cl_mul(QuadraticForm.zero(x.n), x, y)


# ---------------------------------------------------------------------------
# the differential


def obstruction_form(X: ToricFano, f: Fiber) -> list[NovikovElement]:
    """Coefficients alpha_i = sum_k v_ki * T^{e_k} q of the one-form alpha,
    summed per class of equal disc area."""
    _classes, partition, (_balanced, class_sums) = _fiber_areas(X, f)
    return _alpha(partition, class_sums)


def differential_matrix(
    X: ToricFano, f: Fiber
) -> tuple[list[tuple[int, ...]], list[list[NovikovElement]]]:
    """Matrix of x -> (-1)^n alpha wedge x in the graded subset basis.

    Returns (basis, matrix) with matrix[row][col] the coefficient of
    basis[row] in the image of basis[col].
    """
    basis = subsets_graded(X.n)
    index = {s: r for r, s in enumerate(basis)}
    alpha = obstruction_form(X, f)
    sign = (-1) ** X.n
    size = len(basis)
    matrix = [[ZERO for _ in range(size)] for _ in range(size)]
    for col, subset in enumerate(basis):
        image = apply_differential(X, alpha, subset, sign)
        for target, coeff in image.items():
            matrix[index[target]][col] = coeff
    return basis, matrix


def apply_differential(X, alpha, subset, sign) -> CliffordElement:
    """sign * alpha wedge e_S: e_{S+i} has coefficient
    sign * (-1)^{#{j in S : j < i}} * alpha_i."""
    out = {}
    for i, a_i in enumerate(alpha):
        if a_i and i not in subset:
            before = sum(j < i for j in subset)
            out[tuple(sorted((*subset, i)))] = a_i * (sign * (-1) ** before)
    return CliffordElement(X.n, out)


def m1_apply(X: ToricFano, f: Fiber, x: ExteriorClass) -> ExteriorClass:
    """The differential applied to an arbitrary exterior class."""
    alpha = obstruction_form(X, f)
    sign = (-1) ** X.n
    out = CliffordElement.zero(X.n)
    for subset, c in x.items():
        out = out + apply_differential(X, alpha, subset, sign) * c
    return out


# ---------------------------------------------------------------------------
# rank over the Novikov field


def elimination_rank(matrix: Sequence[Sequence[NovikovElement]], cutoff) -> int:
    """Rank by least-valuation-pivot elimination, truncated at cutoff."""
    cutoff = Fraction(cutoff)
    rows = [[e.truncate(cutoff) for e in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    act_rows = list(range(nrows))
    act_cols = list(range(ncols))
    rank = 0
    while True:
        pivot = None
        best = None
        for r in act_rows:
            for c in act_cols:
                e = rows[r][c]
                if e:
                    v = e.valuation()
                    if best is None or v < best:
                        best, pivot = v, (r, c)
        if pivot is None:
            return rank
        rank += 1
        pr, pc = pivot
        inv = rows[pr][pc].invert(cutoff)
        for r in act_rows:
            if r == pr or not rows[r][pc]:
                continue
            factor = (rows[r][pc] * inv).truncate(cutoff)
            for c in act_cols:
                if c == pc:
                    continue
                rows[r][c] = (rows[r][c] - factor * rows[pr][c]).truncate(cutoff)
            # exact in untruncated arithmetic, and every truncation error
            # lives above the cutoff, so the entry is zero at this level
            rows[r][pc] = ZERO
        act_rows.remove(pr)
        act_cols.remove(pc)


def novikov_rank(
    matrix: Sequence[Sequence[NovikovElement]],
    initial_cutoff=DEFAULT_CUTOFF,
) -> int:
    """Elimination rank, with the cutoff doubled until the answer repeats."""
    cutoff = Fraction(initial_cutoff)
    prev = elimination_rank(matrix, cutoff)
    for _ in range(_MAX_REFINEMENTS):
        cutoff *= 2
        cur = elimination_rank(matrix, cutoff)
        if cur == prev:
            return cur
        prev = cur
    raise ArithmeticError("rank did not stabilize while doubling the cutoff")


def hf_rank(X: ToricFano, f: Fiber) -> int:
    """Rank of ker(m1)/im(m1) over the Novikov field: 2^n at balanced
    fibers and 0 everywhere else.

    m1 is x -> (-1)^n alpha wedge x.  A nonzero one-form alpha makes this
    an exact Koszul complex, so the rank is 0 unless every coefficient of
    alpha vanishes, in which case m1 = 0.  Exact for every interior
    rational fiber; no cutoff is involved.
    """
    return _hf_rank(X.n, obstruction_form(X, f))


def _hf_rank(n: int, alpha: Sequence[NovikovElement]) -> int:
    """hf_rank from the coefficients of the obstruction form."""
    return 0 if any(alpha) else 2**n


# ---------------------------------------------------------------------------
# products


def disc_l_term(
    n: int, normal: Sequence[int], area, idx: Sequence[int]
) -> NovikovElement:
    """Contribution (-1)^{n*m} v_{i_1} ... v_{i_m} T^{area} q of one disc,
    its weight the product of its boundary pairings (the divisor equation)."""
    weight = math.prod(boundary_pairing(n, normal, i) for i in idx)
    return monomial(weight, Fraction(area), 1)


def l_product(X: ToricFano, f: Fiber, idx: Sequence[int] = ()) -> NovikovElement:
    """The symmetrized m-ary product on degree-1 generators:

    l(i_1, ..., i_m) = (-1)^{n*m} sum_k v_{k i_1} ... v_{k i_m} T^{e_k} q.

    idx = () gives the obstruction term sum_k T^{e_k} q.  Axis indices
    are 0-based.  Numerically (T^e -> exp(-e), q -> 1) this equals
    (-1)^{(n-1)m} times the m-th derivative of the superpotential.
    The discs are summed per class of equal area, each weighted by the
    product of its boundary pairings.
    """
    for i in idx:
        if not 0 <= i < X.n:
            raise IndexError(f"axis {i} out of range for dimension {X.n}")
    weights = [math.prod(boundary_pairing(X.n, v, i) for i in idx) for v in X.normals]
    partition = _fiber_areas(X, f)[1]
    return _class_terms(partition, [sum(weights[k] for k in idxs) for _area, idxs in partition])


def m2_product(
    X: ToricFano, f: Fiber, x: ExteriorClass, y: ExteriorClass
) -> CliffordElement:
    """The associative product on the Floer cohomology of a balanced fiber.

    Identifies exterior classes with Clifford elements basis-by-basis and
    multiplies in the Clifford algebra of the formal Hessian.  Raises
    NotBalanced when the fiber is not balanced (the cohomology is zero
    there and carries no ring).  The balance and Hessian of recently used
    fibers are remembered, keyed by the value of (X, f).
    """
    (ok, sums), Q = _fiber_ring(X, _as_fiber(f))
    if not ok:
        raise NotBalanced(
            f"fiber {tuple(map(str, f.u if isinstance(f, Fiber) else f))} is not "
            f"balanced: class normal sums {sums}"
        )
    return cl_mul(Q, x, y)


@functools.lru_cache
def _fiber_ring(X: ToricFano, f: Fiber) -> tuple[BalanceResult, QuadraticForm]:
    """The balance and formal Hessian of one fiber, the data every m2_product
    there shares.  A raised exception (NotInterior, the holonomy ValueError)
    is not remembered, so it is raised again on every call."""
    _classes, partition, balance = _fiber_areas(X, f)
    return balance, _hessian(X, partition)
