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

The search tries exact candidates before Newton and reads one off its
iterate after: a balanced fiber is critical for W at every scale and W is
strictly convex, so a rational point that passes the exact balance test is
the critical fiber, whatever proposed it (find_critical_fiber).
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from itertools import chain, combinations_with_replacement, repeat
from operator import add, neg
from typing import Optional, Sequence, Union

from .errors import DimensionMismatch, NoConvergence, NotInterior
from .novikov import ZERO, NovikovElement, _from_normal
from .toric import (
    AreaClass,
    Fiber,
    ToricFano,
    _balanced_at,
    _class_point,
    _fiber_areas,
    _Frozen,
    area_partition,
    disc_areas,
)

Rational = Union[int, Fraction]

_MAX_HALVINGS = 40


# ---------------------------------------------------------------------------
# numeric side


def _distances(
    X: ToricFano, theta: Sequence[complex], offsets: Optional[Sequence[float]] = None
) -> list[complex]:
    """ell_k(theta) = <theta, v_k> - lambda_k for every facet k, in order;
    offsets, when given, are the floats of X.offsets.

    <theta, v_k> adds theta_i * v_ki over the support of v_k
    (ToricFano._supports) to 0.0, left to right.  A skipped term would add
    +-0.0 to a sum that is never -0.0, so for finite theta these are the
    bits of 3.11's sum() of the dense terms, on every version: 3.12's sum()
    of floats is compensated and would round differently."""
    if offsets is None:
        offsets = [float(lam) for lam in X.offsets]
    out = []
    for support, lam in zip(X._supports, offsets):
        d = 0.0
        for i, c in support:
            d += theta[i] * c
        out.append(d - lam)
    return out


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


def _gradient(
    X: ToricFano, u: Sequence[float], distances: Optional[Sequence[float]] = None
) -> list[float]:
    """The gradient of _w_grad_hess(X, u), bit for bit, without W or the
    Hessian: the same distances, exponentials, supports and sum order;
    distances, when given, are _distances(X, u)."""
    grad = [0.0] * X.n
    for support, ell in zip(X._supports, distances or _distances(X, u)):
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
    """The critical point of W over the interior, exact when it is balanced.

    Without init, two exact candidates come first when the normals sum to
    0, which every balanced fiber needs: the polytope's own interior point,
    then the point at equal distance from every facet.  A balanced fiber is
    critical for W at every scale, since its gradient is a positive
    combination of class normal sums that are all 0, and W is strictly
    convex, so it is the one critical point, whatever proposed it.  A
    candidate is returned, with no Newton step, when it is balanced and
    its float image passes Newton's own stopping test: strictly interior,
    with every gradient entry below tol.

    Otherwise Newton searches.  Steps are halved (at most 40 times each)
    until the iterate stays strictly interior and W does not increase; W is
    strictly convex on the interior so the critical point is unique.  The
    last iterate proposes area classes and one exact solve gives their
    point, returned when it is balanced; otherwise the float iterate is
    wrapped with exact=False.

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


def _critical_fiber(
    X: ToricFano, init, tol: float, max_iters: int
) -> tuple[Fiber, Optional[tuple], Optional[float]]:
    """find_critical_fiber's fiber, with toric._fiber_areas of it when it
    is exact and balanced, else None, and the gradient norm that accepted
    an exact candidate, else None."""
    start = X.interior_point if init is None else tuple(init)
    if len(start) != X.n:
        raise NotInterior(f"initial point has dimension {len(start)}, expected {X.n}")
    u = [float(x) for x in start]
    offsets = [float(lam) for lam in X.offsets]

    # the exact candidates of find_critical_fiber; no fiber is balanced
    # unless the normals sum to 0
    if init is None and not any(map(sum, zip(*X.normals))):
        areas = _balanced_at(X, start)
        point = start if areas else _class_point(X, [range(X.num_facets)])
        if point is not None:
            floats = [float(x) for x in point]
            distances = _distances(X, floats, offsets)
            if min(distances) > 0 and (norm := max(map(abs, _gradient(X, floats, distances)))) < tol:
                fiber = Fiber(point)
                return fiber, areas or _fiber_areas(X, fiber), norm

    def evaluate(point: list[float]):
        """W, its gradient and its Hessian at point, or None when the point
        is not strictly interior."""
        distances = _distances(X, point, offsets)
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
            return (*_read_off(X, u), None)
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
        return (*_read_off(X, u), None)
    raise NoConvergence(
        f"gradient norm {grad_norm:.3e} not below tol={tol} "
        f"after {max_iters} iterations"
    )


def _read_off(X: ToricFano, u: Sequence[float]) -> tuple[Fiber, Optional[tuple]]:
    """(the balanced fiber read off Newton's iterate u, toric._fiber_areas
    of it), else (the float iterate u with exact=False, None).  No fiber is
    balanced unless the normals sum to 0.  Sorted by float distance at u,
    the facets close a class wherever the running sum of their normals is 0:
    at a balanced fiber every class boundary is such a place, whatever the
    order inside a class, and a cut inside a class only drops equations."""
    if not any(map(sum, zip(*X.normals))):
        classes, total = [[]], (0,) * X.n
        for k in sorted(range(X.num_facets), key=_distances(X, u).__getitem__):
            classes[-1].append(k)
            total = tuple(map(add, total, X.normals[k]))
            if not any(total):
                classes.append([])
        point = _class_point(X, classes)
        if point is not None:
            fiber = Fiber(point)
            try:
                areas = _fiber_areas(X, fiber)
                if areas[2].balanced:
                    return fiber, areas
            except NotInterior:
                pass
    return Fiber(tuple(Fraction(x) for x in u), exact=False), None


# ---------------------------------------------------------------------------
# exact side


class QuadraticForm(_Frozen):
    """Symmetric n x n form with Novikov entries, homogeneous of q-degree 1."""

    __match_args__ = ("n", "entries")

    def __init__(self, n: int, entries: tuple[tuple[NovikovElement, ...], ...]):
        self.__dict__.update(n=n, entries=entries)
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


def _hf_rank(n: int, alpha: Sequence[NovikovElement]) -> int:
    """floer.hf_rank from the coefficients of the obstruction form."""
    return 0 if any(alpha) else 2**n


def boundary_pairing(n: int, normal: Sequence[int], i: int) -> int:
    """Intersection number of the generator C_i with the disc boundary."""
    return (-1) ** n * normal[i]


# the l-table totals _l_totals keeps: one per recently used fan, area
# class structure and lmax, since a process may analyze many polytopes of
# few fans, and only those of at most _L_TOTALS_KEYS keys, since a table
# grows as n^lmax
_L_TOTALS = 32
_L_TOTALS_KEYS = 1024


def _l_table(
    X: ToricFano, partition: Sequence[AreaClass], lmax: int
) -> dict[tuple[int, ...], NovikovElement]:
    """l(i_1, ..., i_m) for every sorted index tuple of length m <= lmax,
    keyed and ordered by length, then lexicographically.

    l(key) is sum_t totals[t] * T^{a_t} q over the area classes t, where
    totals[t] sums the disc weights of class t.  A disc's weight is the
    product of its boundary pairings, the divisor equation taken as the
    definition, so the totals depend on the normals, the facets each class
    holds and the key, and on no area: every polytope of one fan with one
    class structure has the same totals, whatever its translation or
    dilation.  _l_totals computes them, as integers, once for the
    _L_TOTALS most recent such (fan, classes, lmax) of at most
    _L_TOTALS_KEYS keys; this call puts in the areas.

    Keys with equal totals share one element, built by one _class_terms;
    all-zero totals give ZERO.  Two keys of the table hold one object
    exactly when their values are equal, and the dict is new on every
    call.
    """
    totals = _l_totals if math.comb(X.n + lmax, lmax) <= _L_TOTALS_KEYS else _l_totals.__wrapped__
    keys, vectors, index = totals(X._supports, X.n, tuple([idxs for _area, idxs in partition]), lmax)
    values = [_class_terms(partition, v) if any(v) else ZERO for v in vectors]
    return dict(zip(keys, map(values.__getitem__, index)))


@functools.lru_cache(maxsize=_L_TOTALS)
def _l_totals(
    supports: tuple[tuple[tuple[int, int], ...], ...],
    n: int,
    classes: tuple[tuple[int, ...], ...],
    lmax: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(the sorted keys of _l_table in table order, the distinct vectors of
    area class totals, each key's index into those vectors), all tuples.

    A disc's weight on a key is the product of its boundary pairings
    (-1)^n v_i over the key's axes, so it is 0 on a key with an axis where
    the normal is 0.  Each facet visits only the sorted keys over its
    support (ToricFano._supports): itertools gives them, with their
    pairings' products in the same order, and each weight is added into
    its class's column at the key's place in the table:
    conftest.oracle_l_table key for key.  A key no facet reaches has
    all-zero totals."""
    keys = tuple(chain.from_iterable(map(combinations_with_replacement, repeat(range(n)), range(lmax + 1))))
    place = dict(zip(keys, range(len(keys))))
    degrees = range(lmax + 1)
    columns = []
    for idxs in classes:
        column = [0] * len(keys)
        for k in idxs:
            axes, entries = zip(*supports[k]) if supports[k] else ((), ())
            pairings = entries if n % 2 == 0 else tuple(map(neg, entries))
            for j, w in zip(
                map(place.__getitem__, chain.from_iterable(map(combinations_with_replacement, repeat(axes), degrees))),
                map(math.prod, chain.from_iterable(map(combinations_with_replacement, repeat(pairings), degrees))),
            ):
                column[j] += w
        columns.append(column)
    sums = list(zip(*columns))
    vectors = tuple(dict.fromkeys(sums))  # in order of first appearance
    where = {v: j for j, v in enumerate(vectors)}
    return keys, vectors, tuple(map(where.__getitem__, sums))


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
