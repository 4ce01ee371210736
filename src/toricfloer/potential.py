"""The Landau-Ginzburg superpotential of a moment polytope.

W(theta) = sum_k exp(-ell_k(theta)) where ell_k(theta) = <theta, v_k> -
lambda_k is the affine distance to facet k.  Real theta ranges over the
polytope interior; an imaginary part encodes the holonomy of a flat line
bundle and is confined to this numeric module.

The module has two halves that the test suite plays against each other:
a numeric one (derivatives of W, a damped Newton search for the critical
fiber) and an exact one: the l-table of a fiber, whose degree-m row is
the exact counterpart of the m-th derivatives of W.  Its degree-1 row is
(-1)^n times the obstruction form and its degree-2 row is the formal
Hessian, the quadratic form Q_ij = sum_k v_ki * v_kj * T^{e_k} q.
The numeric half needs only the standard library: floats in lists.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch, NoConvergence, NotInterior
from .novikov import ZERO, NovikovElement, _from_normal
from .toric import AreaClass, Fiber, ToricFano, _fiber_partition, area_partition, disc_areas, is_balanced

Rational = Union[int, Fraction]

_MAX_HALVINGS = 40
_ROUND_DENOMINATOR = 10**6


# ---------------------------------------------------------------------------
# numeric side


def _distances(X: ToricFano, theta: Sequence[complex]) -> list[complex]:
    """ell_k(theta) = <theta, v_k> - lambda_k for every facet k, in order."""
    return [
        sum(t * c for t, c in zip(theta, v)) - float(lam)
        for v, lam in zip(X.normals, X.offsets)
    ]


def superpotential_derivative(
    X: ToricFano,
    theta: Sequence[complex],
    idx: Sequence[int] = (),
) -> complex:
    """Partial derivative of W along the axes in idx, evaluated at theta.

    idx = () gives W itself; idx = (i,) the i-th first partial, and so
    on.  Axis indices are 0-based.  theta may be complex; its imaginary
    part is the holonomy angle vector (radians).  Far enough outside the
    polytope a facet weight exp(-ell_k) exceeds the float range and
    OverflowError is raised.
    """
    if len(theta) != X.n:
        raise DimensionMismatch(f"theta has length {len(theta)}, expected {X.n}")
    for i in idx:
        if not 0 <= i < X.n:
            raise IndexError(f"axis {i} out of range for dimension {X.n}")
    total = 0j
    for v, ell in zip(X.normals, _distances(X, theta)):
        w = cmath.exp(-ell)
        for i in idx:
            w *= v[i]
        total += w
    return (-1) ** len(idx) * total


def theta_of_fiber(X: ToricFano, f: Fiber) -> tuple[complex, ...]:
    """Embed a fiber as a complex point, holonomy turns -> imaginary part."""
    hol = f.holonomy or tuple(Fraction(0) for _ in range(X.n))
    return tuple(float(u) + 2j * math.pi * float(h) for u, h in zip(f.u, hol))


def twisted_class_sums(X: ToricFano, f: Fiber) -> list[tuple[complex, ...]]:
    """Holonomy-weighted normal sums, one complex n-tuple per area class.

    The fiber is critical for the holonomy-twisted potential exactly when
    every one of these vanishes; with trivial holonomy they reduce to the
    integer class sums of the balancedness test.
    """
    classes = disc_areas(X, f)
    hol = f.holonomy or tuple(Fraction(0) for _ in range(X.n))
    sums = []
    for _area, idxs in area_partition(classes):
        acc = [0j] * X.n
        for k in idxs:
            v = X.normals[k]
            phase = cmath.exp(-2j * math.pi * float(sum(h * c for h, c in zip(hol, v))))
            acc = [a + phase * c for a, c in zip(acc, v)]
        sums.append(tuple(acc))
    return sums


def _w_grad_hess(X: ToricFano, u: Sequence[float]):
    """W, its gradient and its Hessian at a real interior point u."""
    n = X.n
    w, grad, hess = 0.0, [0.0] * n, [[0.0] * n for _ in range(n)]
    for v, ell in zip(X.normals, _distances(X, u)):
        e = math.exp(-ell)
        w += e
        for i in range(n):
            grad[i] -= e * v[i]
            for j in range(n):
                hess[i][j] += e * v[i] * v[j]
    return w, grad, hess


def _solve(A: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """x with A x = b for symmetric positive definite A, so no pivoting."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for p in range(n):
        for r in range(p + 1, n):
            f = rows[r][p] / rows[p][p]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[p])]
    x = [0.0] * n
    for p in reversed(range(n)):
        x[p] = (rows[p][n] - sum(rows[p][c] * x[c] for c in range(p + 1, n))) / rows[p][p]
    return x


def find_critical_fiber(
    X: ToricFano,
    init: Optional[Sequence[Rational]] = None,
    tol: float = 1e-12,
    max_iters: int = 50,
) -> Fiber:
    """Newton search for the critical point of W over the interior.

    Steps are halved (at most 40 times each) until the iterate stays
    strictly interior and W does not increase; W is strictly convex on
    the interior so the critical point is unique.  The result is rounded
    by continued fractions with denominators up to 10**6 and returned as
    an exact Fiber when the rounding is exactly balanced; otherwise the
    float iterate is wrapped with exact=False.

    Raises NotInterior for a bad starting point and NoConvergence when
    the gradient is still not below tol after max_iters Newton steps.
    """
    start = X.interior_point if init is None else tuple(init)
    if len(start) != X.n:
        raise NotInterior(f"initial point has dimension {len(start)}, expected {X.n}")
    u = [float(x) for x in start]
    if not min(_distances(X, u)) > 0:
        raise NotInterior(f"initial point {start} is not strictly interior")

    for _ in range(max_iters):
        w, grad, hess = _w_grad_hess(X, u)
        if max(map(abs, grad)) < tol:
            return _round_fiber(X, u)
        step = _solve(hess, [-g for g in grad])
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = [x + t * s for x, s in zip(u, step)]
            if min(_distances(X, cand)) > 0:
                w_cand, _, _ = _w_grad_hess(X, cand)
                if w_cand <= w * (1 + 1e-12):
                    u = cand
                    break
            t /= 2
        else:
            raise NoConvergence(
                "step damping failed to find an interior descent point"
            )
    grad_norm = max(map(abs, _w_grad_hess(X, u)[1]))
    if grad_norm < tol:
        return _round_fiber(X, u)
    raise NoConvergence(
        f"gradient norm {grad_norm:.3e} not below tol={tol} "
        f"after {max_iters} iterations"
    )


def _round_fiber(X: ToricFano, u: Sequence[float]) -> Fiber:
    rounded = tuple(
        Fraction(x).limit_denominator(_ROUND_DENOMINATOR) for x in u
    )
    candidate = Fiber(rounded)
    try:
        if is_balanced(X, candidate).balanced:
            return candidate
    except NotInterior:
        pass
    return Fiber(tuple(Fraction(x) for x in u), exact=False)


# ---------------------------------------------------------------------------
# exact side


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric n x n form with Novikov entries, homogeneous of q-degree 1."""

    n: int
    entries: tuple[tuple[NovikovElement, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.n or any(
            len(row) != self.n for row in self.entries
        ):
            raise ValueError(f"entries must form an {self.n} x {self.n} matrix")
        for i in range(self.n):
            for j in range(self.n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("quadratic form must be symmetric")
                for _c, _t, q in self.entries[i][j].terms:
                    if q != 1:
                        raise ValueError(
                            "every term of a disc-area form carries exactly one q"
                        )

    @classmethod
    def zero(cls, n: int) -> "QuadraticForm":
        return cls(n, tuple(tuple(ZERO for _ in range(n)) for _ in range(n)))

    def entry(self, i: int, j: int) -> NovikovElement:
        return self.entries[i][j]

    @functools.cached_property
    def _half_diagonal(self) -> tuple[NovikovElement, ...]:
        """Q_ii / 2 for each i, the square of the Clifford generator C_i."""
        return tuple(self.entries[i][i] * Fraction(1, 2) for i in range(self.n))


def _class_sum(partition: Sequence[AreaClass], weights: Sequence[int]) -> NovikovElement:
    """sum_k weights[k] * T^{e_k} q, added up within each area class.

    The partition is sorted by area and every term carries q^1, so the
    nonzero class totals are already in the Novikov normal form.
    """
    terms = []
    for area, idxs in partition:
        w = sum(weights[k] for k in idxs)
        if w:
            terms.append((Fraction(w), area, 1))
    return _from_normal(tuple(terms))


def boundary_pairing(n: int, normal: Sequence[int], i: int) -> int:
    """Intersection number of the generator C_i with the disc boundary."""
    return (-1) ** n * normal[i]


def _l_table(
    X: ToricFano, partition: Sequence[AreaClass], lmax: int
) -> dict[tuple[int, ...], NovikovElement]:
    """l(i_1, ..., i_m) for every sorted index tuple of length m <= lmax,
    keyed and ordered by length, then lexicographically.

    A disc's weight is the product of its boundary pairings, the divisor
    equation taken as the definition.  Each key extends its prefix's weights
    by one column of pairings, so it costs one product per facet and one
    _class_sum.
    """
    pairings = [[boundary_pairing(X.n, v, i) for v in X.normals] for i in range(X.n)]
    table = {}
    level = {(): [1] * X.num_facets}
    for m in range(lmax + 1):
        for key, weights in level.items():
            table[key] = _class_sum(partition, weights)
        if m < lmax:
            level = {
                (*key, i): [w * p for w, p in zip(weights, pairings[i])]
                for key, weights in level.items()
                for i in range(key[-1] if key else 0, X.n)
            }
    return table


def formal_hessian(X: ToricFano, f: Fiber) -> QuadraticForm:
    """Q_ij = sum_k v_ki * v_kj * T^{e_k(u)} q, exact in the fiber point.

    Each entry is summed per class of equal disc area, not per disc.
    """
    return _hessian(X, _fiber_partition(X, f))


def _hessian(X: ToricFano, partition: Sequence[AreaClass]) -> QuadraticForm:
    """formal_hessian on an area partition already computed for the fiber:
    the degree-2 row of its l-table, Q_ij = l(i, j)."""
    table = _l_table(X, partition, 2)
    rows = [[table[min(i, j), max(i, j)] for j in range(X.n)] for i in range(X.n)]
    return QuadraticForm(X.n, tuple(map(tuple, rows)))
