"""The Landau-Ginzburg superpotential of a moment polytope.

W(theta) = sum_k exp(-ell_k(theta)) where ell_k(theta) = <theta, v_k> -
lambda_k is the affine distance to facet k.  Real theta ranges over the
polytope interior; an imaginary part encodes the holonomy of a flat line
bundle and is confined to this numeric module.

The module has two halves that the test suite plays against each other:
a numeric one (derivatives of W in plain floats, a damped Newton search
for the critical fiber) and an exact one: the l-table of a fiber, whose
degree-m row is the exact counterpart of the m-th derivatives of W.  Its
degree-1 row is (-1)^n times the obstruction form and its degree-2 row is
the formal Hessian, Q_ij = sum_k v_ki * v_kj * T^{e_k} q.  Every term of
either carries one normal entry per index, so both visit only the nonzero
entries (ToricFano._supports), the floats with the dense sums' bits.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch, NoConvergence, NotInterior
from .novikov import ZERO, NovikovElement, _from_normal
from .toric import AreaClass, Fiber, ToricFano, _fiber_areas, area_partition, disc_areas

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
    return _w_grad_hess_at(X._supports, X.n, _distances(X, u))


def _w_grad_hess_at(supports, n: int, distances: Sequence[float]):
    """W, its gradient and its Hessian from the facet distances at a point.

    In facet order, facet k adds e = exp(-ell) to W, then -e*v_i and
    (e*v_i)*v_j in place on its support supports[k] (ToricFano._supports)
    only.  A skipped term would add +-0.0 to a sum that is never -0.0, so
    this is the dense conftest.oracle_w_grad_hess_at bit for bit."""
    w, grad, hess = 0.0, [0.0] * n, [[0.0] * n for _ in range(n)]
    for support, ell in zip(supports, distances):
        e = math.exp(-ell)
        w += e
        for i, a in support:
            ev = e * a
            grad[i] -= ev
            row = hess[i]
            for j, c in support:
                row[j] += ev * c
    return w, grad, hess


def _gradient(X: ToricFano, u: Sequence[float]) -> list[float]:
    """The gradient of _w_grad_hess(X, u), bit for bit, without W or the
    Hessian: the same distances, exponentials, supports and sum order."""
    grad = [0.0] * X.n
    for support, ell in zip(X._supports, _distances(X, u)):
        e = math.exp(-ell)
        for i, a in support:
            grad[i] -= e * a
    return grad


def _solve(A: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """x with A x = b for symmetric positive definite A, so no pivoting.

    A is positive definite in exact arithmetic; a float pivot of exactly 0
    means the float model broke down, and NoConvergence is raised.
    """
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for p in range(n):
        if rows[p][p] == 0:
            raise NoConvergence(
                f"the float Hessian of W has a zero pivot in row {p + 1}; "
                "the solver cannot take a Newton step"
            )
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

    Each point is evaluated once: the offsets are converted to floats
    once per solve, and W, its gradient and its Hessian at an accepted
    step are those of the next iterate, so a solve makes one evaluation
    per iterate and one per interior step it rejects.

    Raises NotInterior for a bad starting point and NoConvergence when
    the gradient is still not below tol after max_iters Newton steps.
    Without init, the polytope's own interior point is the start; when
    its float image is not strictly interior, the polytope is too small
    or too thin for floats and OverflowError is raised.
    """
    return _critical_fiber(X, init, tol, max_iters)[0]


def _critical_fiber(X: ToricFano, init, tol: float, max_iters: int) -> tuple[Fiber, Optional[tuple]]:
    """find_critical_fiber's fiber, with toric._fiber_areas of it when it
    is an exactly balanced rounding, else None."""
    start = X.interior_point if init is None else tuple(init)
    if len(start) != X.n:
        raise NotInterior(f"initial point has dimension {len(start)}, expected {X.n}")
    u = [float(x) for x in start]
    offsets = [float(lam) for lam in X.offsets]

    def evaluate(point: list[float]):
        """W, its gradient and its Hessian at point, or None when the point
        is not strictly interior."""
        distances = [sum(map(mul, point, v)) - lam for v, lam in zip(X.normals, offsets)]
        if not min(distances) > 0:
            return None
        return _w_grad_hess_at(X._supports, X.n, distances)

    current = evaluate(u)
    if current is None:
        if init is None:
            raise OverflowError(
                "the polytope's interior point is not strictly interior "
                "once its coordinates and offsets are rounded to floats"
            )
        coords = ", ".join(map(str, start))
        raise NotInterior(f"initial point ({coords}) is not strictly interior")

    for _ in range(max_iters):
        w, grad, hess = current
        if max(map(abs, grad)) < tol:
            return _round_fiber(X, u)
        step = _solve(hess, [-g for g in grad])
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = [x + t * s for x, s in zip(u, step)]
            evaluated = evaluate(cand)
            if evaluated is not None and evaluated[0] <= w * (1 + 1e-12):
                u, current = cand, evaluated
                break
            t /= 2
        else:
            raise NoConvergence(
                "step damping failed to find an interior descent point"
            )
    grad_norm = max(map(abs, current[1]))
    if grad_norm < tol:
        return _round_fiber(X, u)
    raise NoConvergence(
        f"gradient norm {grad_norm:.3e} not below tol={tol} "
        f"after {max_iters} iterations"
    )


def _round_fiber(X: ToricFano, u: Sequence[float]) -> tuple[Fiber, Optional[tuple]]:
    """(the rounding of u, toric._fiber_areas of it) when it is exactly
    balanced, else (the float iterate u, None)."""
    candidate = Fiber(tuple(_limit_denominator(x, _ROUND_DENOMINATOR) for x in u))
    try:
        areas = _fiber_areas(X, candidate)
        if areas[2].balanced:
            return candidate, areas
    except NotInterior:
        pass
    return Fiber(tuple(Fraction(x) for x in u), exact=False), None


def _limit_denominator(x: float, bound: int) -> Fraction:
    """Fraction(x).limit_denominator(bound), bit for bit, without building
    a Fraction until the end: the same continued fraction, run on the
    integers of x.as_integer_ratio()."""
    num, den = x.as_integer_ratio()
    if den <= bound:
        return Fraction(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    # x lies between the convergent p1/q1 and the other bound, d/(q1*den)
    # from the first and 1/(q1*(q0 + k*q1)) apart from each other: the
    # convergent is kept when it is no farther, ties included, as in Fraction
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


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
    @functools.lru_cache
    def zero(cls, n: int) -> "QuadraticForm":
        return cls(n, tuple(tuple(ZERO for _ in range(n)) for _ in range(n)))

    def entry(self, i: int, j: int) -> NovikovElement:
        return self.entries[i][j]

    @functools.cached_property
    def _t_scale(self) -> int:
        """The lcm D of the entries' T-exponent denominators."""
        return math.lcm(1, *(t.denominator for row in self.entries for e in row for _c, t, _q in e.terms))

    @functools.cached_property
    def _generator_terms(self) -> dict:
        """C_w * C_i in Cl(Q) for each (w, i) a product has needed: (subset,
        factor) terms, factor None for +1 or the signed coefficient as
        ((t * D, q), coeff) pairs, D = _t_scale.  At most n * 2^n entries."""
        return {}

    @functools.cached_property
    def _coefficients(self) -> dict:
        """Coefficients cl_mul has returned, keyed by their sorted ((t * D, q),
        coeff) items: at most n * 2^n of them."""
        return {}


def _class_terms(partition: Sequence[AreaClass], totals: Sequence[int]) -> NovikovElement:
    """sum_t totals[t] * T^{a_t} q over the area classes t: the partition is
    sorted by area and every term carries q^1, so this is the normal form."""
    terms = []
    for (area, _idxs), w in zip(partition, totals):
        if w:
            terms.append((Fraction(w), area, 1))
    return _from_normal(tuple(terms))


def _alpha(
    partition: Sequence[AreaClass], class_sums: Sequence[Sequence[int]]
) -> list[NovikovElement]:
    """The obstruction form alpha_i = sum_k v_ki * T^{e_k} q from the
    normal sums of the area classes, one _class_terms per axis."""
    return [_class_terms(partition, axis) for axis in zip(*class_sums)]


def boundary_pairing(n: int, normal: Sequence[int], i: int) -> int:
    """Intersection number of the generator C_i with the disc boundary."""
    return (-1) ** n * normal[i]


def _l_table(
    X: ToricFano, partition: Sequence[AreaClass], lmax: int
) -> dict[tuple[int, ...], NovikovElement]:
    """l(i_1, ..., i_m) for every sorted index tuple of length m <= lmax,
    keyed and ordered by length, then lexicographically.

    A disc's weight is the product of its boundary pairings, the divisor
    equation taken as the definition, so it is 0 on a key with an axis where
    the disc's normal is 0.  Each facet walks only the sorted keys over its
    support, extending a key's weight by one pairing, and adds it into its
    area class's total for that key: conftest.oracle_l_table key for key.

    The class totals fix the value, so keys with equal totals share one
    element, built by one _class_terms; all-zero totals, or a key no
    facet reaches, give ZERO.  Two keys of the table hold one object
    exactly when their values are equal.
    """
    sign = (-1) ** X.n  # boundary_pairing(n, v, i) is sign * v[i]
    totals: dict = defaultdict(lambda: [0] * len(partition))
    for t, (_area, idxs) in enumerate(partition):
        for k in idxs:
            pairings = [(i, sign * a) for i, a in X._supports[k]]
            level = [((), 1, 0)]  # (key, its weight, its last axis's place in pairings)
            for m in range(lmax + 1):
                for key, w, _last in level:
                    totals[key][t] += w
                if m < lmax:
                    level = [
                        ((*key, i), w * p, s)
                        for key, w, last in level
                        for s, (i, p) in enumerate(pairings[last:], last)
                    ]
    zero = (0,) * len(partition)
    values = {zero: ZERO}  # each distinct totals tuple's element
    table = {}
    for m in range(lmax + 1):
        for key in combinations_with_replacement(range(X.n), m):
            sums = tuple(totals.get(key, zero))
            value = values.get(sums)
            if value is None:
                value = values[sums] = _class_terms(partition, sums)
            table[key] = value
    return table


def formal_hessian(X: ToricFano, f: Fiber) -> QuadraticForm:
    """Q_ij = sum_k v_ki * v_kj * T^{e_k(u)} q, exact in the fiber point.

    Each entry is summed per class of equal disc area, not per disc.
    """
    return _hessian(X, _fiber_areas(X, f)[1])


def _hessian(X: ToricFano, partition: Sequence[AreaClass]) -> QuadraticForm:
    """formal_hessian on an area partition already computed for the fiber:
    the degree-2 row of its l-table, Q_ij = l(i, j)."""
    table = _l_table(X, partition, 2)
    rows = [[table[min(i, j), max(i, j)] for j in range(X.n)] for i in range(X.n)]
    return QuadraticForm(X.n, tuple(map(tuple, rows)))
