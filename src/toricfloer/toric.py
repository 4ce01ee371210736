"""Moment polytopes of toric Fano manifolds and their torus fibers.

A polytope is stored by its facet data {u : <u, v_k> >= lambda_k} with
primitive integer normals v_k and rational offsets lambda_k.  The key
derived quantities are the affine distances e_k(u) = <u, v_k> - lambda_k
to the facets (the disc areas, in affine units), the partition of facets
into classes of equal distance, and the balancedness test: every class
of equidistant facets has normals summing to zero.

The geometry runs on integer numerators and builds one Fraction per
result (an area, a grid point, a bound), not one per term.  Validation
and interior-point witnesses use exact Fourier-Motzkin elimination on the
integer normals with rational right-hand sides, so no tolerance and no
float enters any decision.
Boundedness is read off the n per-axis projections that also give the
coordinate bounds: eliminating every other variable combines rows by
their coefficients alone, so axis i lacks a lower or an upper bound
exactly when the recession cone {d : <d, v_k> >= 0} holds a d with
d_i != 0, whatever the offsets, and even when the polytope is empty.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InvalidPolytope, NotInterior, ParseError

Rational = Union[int, Fraction]

# A linear row  sum_i a_i x_i >= b  (strict when the flag is set).
_Row = tuple[tuple[int, ...], Fraction, bool]


# ---------------------------------------------------------------------------
# exact Fourier-Motzkin elimination


def _eliminate_last(rows: list[_Row], nvars: int) -> list[_Row]:
    pos, neg, rest = [], [], []
    for a, b, s in rows:
        c = a[nvars - 1]
        if c > 0:
            pos.append((a, b, s))
        elif c < 0:
            neg.append((a, b, s))
        else:
            rest.append((a[: nvars - 1], b, s))
    for ap, bp, sp in pos:
        cp = ap[nvars - 1]
        for an, bn, sn in neg:
            cn = an[nvars - 1]
            # cp*x + ap'.u >= bp  and  cn*x + an'.u >= bn  with cp>0>cn
            coeffs = tuple(
                cp * an[i] - cn * ap[i] for i in range(nvars - 1)
            )
            rhs = cp * bn - cn * bp
            rest.append((coeffs, rhs, sp or sn))
    return rest


def _stages(rows: list[_Row], nvars: int) -> list[list[_Row]]:
    """systems[k] constrains variables x_0..x_{k-1}; systems[nvars] = input."""
    systems = [rows]
    for k in range(nvars, 0, -1):
        systems.append(_eliminate_last(systems[-1], k))
    systems.reverse()
    return systems


def _consistent(constants: list[_Row]) -> bool:
    for _a, b, strict in constants:
        if (b > 0) or (strict and b == 0):
            return False
    return True


def _pick_inside(lowers, uppers) -> Optional[Fraction]:
    lo = max((v for v, _ in lowers), default=None)
    hi = min((v for v, _ in uppers), default=None)
    if lo is not None and hi is not None:
        if lo < hi:
            return (lo + hi) / 2
        lo_strict = any(s for v, s in lowers if v == lo)
        hi_strict = any(s for v, s in uppers if v == hi)
        if lo == hi and not lo_strict and not hi_strict:
            return lo
        return None
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return Fraction(0)


def _solve_strict(rows: list[_Row], nvars: int) -> Optional[tuple[Fraction, ...]]:
    """A point satisfying all rows, or None; exact back substitution."""
    systems = _stages(rows, nvars)
    if not _consistent(systems[0]):
        return None
    values: list[Fraction] = []
    for k in range(1, nvars + 1):
        lowers, uppers = [], []
        for a, b, strict in systems[k]:
            c = a[k - 1]
            if c == 0:
                continue
            r = b - sum(a[i] * values[i] for i in range(k - 1))
            if c > 0:
                lowers.append((r / c, strict))
            else:
                uppers.append((r / c, strict))
        v = _pick_inside(lowers, uppers)
        if v is None:
            return None
        values.append(v)
    return tuple(values)


def _coordinate_bounds(rows: list[_Row], nvars: int) -> list[tuple[Fraction, Fraction]]:
    """Exact [min, max] of each coordinate over {x : rows}, one projection
    per axis; raises InvalidPolytope when an axis is unbounded, which the
    module docstring shows is decided by the normals alone."""
    bounds = []
    for i in range(nvars):
        perm = [i] + [j for j in range(nvars) if j != i]
        single = [(tuple(a[p] for p in perm), b, s) for a, b, s in rows]
        for k in range(nvars, 1, -1):  # down to x_i alone, not on to constants
            single = _eliminate_last(single, k)
        lowers = [b / a[0] for a, b, _s in single if a[0] > 0]
        uppers = [b / a[0] for a, b, _s in single if a[0] < 0]
        if not lowers or not uppers:
            raise InvalidPolytope("normals do not positively span, polytope is unbounded")
        bounds.append((max(lowers), min(uppers)))
    return bounds


# ---------------------------------------------------------------------------
# polytope data


@dataclass(frozen=True)
class ToricFano:
    """Facet presentation {u : <u, v_k> >= lambda_k} of a moment polytope."""

    name: str
    n: int
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]
    interior_point: tuple[Fraction, ...] = field(compare=False)
    bounds: tuple[tuple[Fraction, Fraction], ...] = field(compare=False)

    @property
    def num_facets(self) -> int:
        return len(self.normals)

    def coordinate_bounds(self) -> list[tuple[Fraction, Fraction]]:
        """Exact [min, max] of each coordinate over the closed polytope,
        as make_toric computed them."""
        return list(self.bounds)

    def __str__(self) -> str:
        return f"{self.name}: {self.num_facets} facets in dim {self.n}"


@dataclass(frozen=True)
class Fiber:
    """A torus fiber over an interior point of the polytope.

    u is always exact rational.  Solver output that could not be rounded
    to an exactly balanced point carries the binary expansion of the
    float iterate and exact=False.  Holonomy angles are in turns and are
    only consumed by the numeric side of the potential module; the exact
    side raises ValueError on a nontrivial holonomy.
    """

    u: tuple[Fraction, ...]
    holonomy: Optional[tuple[Fraction, ...]] = None
    exact: bool = True

    def has_trivial_holonomy(self) -> bool:
        return self.holonomy is None or all(h == 0 for h in self.holonomy)


@dataclass(frozen=True)
class DiscClass:
    """Basic holomorphic disc class meeting facet `index` once."""

    index: int
    normal: tuple[int, ...]
    area: Fraction
    maslov: int = 2


class AreaClass(NamedTuple):
    area: Fraction
    indices: tuple[int, ...]


class BalanceResult(NamedTuple):
    balanced: bool
    class_sums: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# construction and validation


def make_toric(
    name: str,
    n: int,
    normals: Iterable[Sequence[int]],
    offsets: Iterable[Rational],
) -> ToricFano:
    """Validate facet data and attach an exact interior witness."""
    vs = tuple(tuple(int(c) for c in v) for v in normals)
    lams = tuple(Fraction(x) for x in offsets)
    if n < 1:
        raise InvalidPolytope("dimension must be at least 1")
    if len(vs) != len(lams):
        raise InvalidPolytope("normals and offsets differ in length")
    if len(vs) < n + 1:
        raise InvalidPolytope("need at least n+1 facets to bound a polytope")
    for v in vs:
        if len(v) != n:
            raise InvalidPolytope(f"normal {v} does not have dimension {n}")
        if math.gcd(*v) != 1:
            raise InvalidPolytope(f"facet normal {v} is not primitive")

    # raises when the normals do not positively span
    bounds = _coordinate_bounds([(v, lam, False) for v, lam in zip(vs, lams)], n)
    witness = _solve_strict([(v, lam, True) for v, lam in zip(vs, lams)], n)
    if witness is None:
        raise InvalidPolytope("polytope has empty interior")
    # of two facets with one normal, one is redundant: its disc would count twice
    for k, v in enumerate(vs):
        if v in vs[:k]:
            raise InvalidPolytope(f"facets {vs.index(v) + 1} and {k + 1} share the normal {v}")
    return ToricFano(name, n, vs, lams, witness, tuple(bounds))


def _builtin(name: str) -> Optional[ToricFano]:
    if name == "CP1":
        return make_toric("CP1", 1, [(1,), (-1,)], [0, -1])
    if name == "CP2":
        return make_toric("CP2", 2, [(1, 0), (0, 1), (-1, -1)], [0, 0, -1])
    if name == "CP1xCP1":
        return make_toric(
            "CP1xCP1",
            2,
            [(1, 0), (-1, 0), (0, 1), (0, -1)],
            [0, -1, 0, -1],
        )
    m = re.fullmatch(r"CPn\((\d+)\)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ParseError("CPn(n) needs n >= 1")
        normals = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        normals.append(tuple(-1 for _ in range(n)))
        return make_toric(name, n, normals, [0] * n + [-1])
    return None


def _from_json_dict(doc: dict) -> ToricFano:
    if not isinstance(doc, dict):
        raise ParseError("polytope document must be a JSON object")
    for key in ("name", "dim", "facets"):
        if key not in doc:
            raise ParseError(f"polytope document lacks '{key}'")
    name = doc["name"]
    dim = doc["dim"]
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError("'dim' must be an integer")
    facets = doc["facets"]
    if not isinstance(facets, list) or not facets:
        raise ParseError("'facets' must be a non-empty list")
    normals, offsets = [], []
    for fct in facets:
        if not isinstance(fct, dict) or "normal" not in fct or "offset" not in fct:
            raise ParseError("each facet needs 'normal' and 'offset'")
        normal = fct["normal"]
        if not isinstance(normal, list):
            raise ParseError("'normal' must be a list of integers")
        for c in normal:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ParseError(
                    "normals must be exact integers, floats are rejected"
                )
        offset = fct["offset"]
        if isinstance(offset, float):
            raise ParseError(
                "offsets must be rational strings like '-1/3', floats are rejected"
            )
        if isinstance(offset, str):
            try:
                offset = Fraction(offset)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"cannot parse offset {offset!r}") from exc
        elif not isinstance(offset, int) or isinstance(offset, bool):
            raise ParseError("offsets must be rational strings or integers")
        normals.append(tuple(normal))
        offsets.append(Fraction(offset))
    return make_toric(name, dim, normals, offsets)


def load_toric(source: Union[str, dict]) -> ToricFano:
    """Load a polytope from a built-in name, JSON text, file path or dict.

    Built-ins: CP1, CP2, CPn(n), CP1xCP1.
    """
    if isinstance(source, dict):
        return _from_json_dict(source)
    if not isinstance(source, str):
        raise ParseError(f"cannot load a polytope from {type(source).__name__}")
    builtin = _builtin(source.strip())
    if builtin is not None:
        return builtin
    text = source
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read polytope file {source!r}: {exc}") from exc
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        raise ParseError(
            f"unknown polytope {source!r}: not a built-in name, file or JSON object"
        )
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return _from_json_dict(doc)


# ---------------------------------------------------------------------------
# fibers, disc areas, balancedness


def _as_fiber(f: Union[Fiber, Sequence[Rational]]) -> Fiber:
    """f with every coordinate read as Fraction(x), a Fiber's as a sequence's,
    and u and the holonomy as tuples, so that the result hashes."""
    if not isinstance(f, Fiber):
        return Fiber(tuple(Fraction(x) for x in f))
    hol = None if f.holonomy is None else tuple(f.holonomy)
    if type(f.u) is tuple and all(type(x) is Fraction for x in f.u) and hol == f.holonomy:
        return f
    return replace(f, u=tuple(Fraction(x) for x in f.u), holonomy=hol)


def disc_areas(X: ToricFano, f: Union[Fiber, Sequence[Rational]]) -> tuple[DiscClass, ...]:
    """Areas e_k(u) = <u, v_k> - lambda_k of the basic disc classes.

    Raises NotInterior unless every distance is strictly positive.
    """
    fiber = _as_fiber(f)
    if len(fiber.u) != X.n:
        raise NotInterior(f"fiber point has dimension {len(fiber.u)}, expected {X.n}")
    # u = U/D over one common denominator, lambda_k = p/q: e_k = num/(D*q)
    D = math.lcm(*(x.denominator for x in fiber.u))
    U = [x.numerator * (D // x.denominator) for x in fiber.u]
    out = []
    for k, (v, lam) in enumerate(zip(X.normals, X.offsets)):
        q = lam.denominator
        num = q * sum(a * b for a, b in zip(U, v)) - D * lam.numerator
        if num <= 0:
            raise NotInterior(
                f"point {tuple(map(str, fiber.u))} is not strictly inside: "
                f"facet {k + 1} has distance {Fraction(num, D * q)}"
            )
        out.append(DiscClass(k, v, Fraction(num, D * q)))
    return tuple(out)


def area_partition(classes: Sequence[DiscClass]) -> tuple[AreaClass, ...]:
    """Group facet indices by exactly equal area, sorted by area."""
    groups: dict[Fraction, list[int]] = {}
    for d in classes:
        groups.setdefault(d.area, []).append(d.index)
    return tuple(
        AreaClass(area, tuple(sorted(idxs))) for area, idxs in sorted(groups.items())
    )


def _fiber_partition(
    X: ToricFano, f: Union[Fiber, Sequence[Rational]]
) -> tuple[AreaClass, ...]:
    """area_partition(disc_areas(X, f)) for the exact side, which is only
    defined at trivial holonomy: every exact per-fiber entry point starts here.
    """
    fiber = _as_fiber(f)
    if not fiber.has_trivial_holonomy():
        raise ValueError(
            "the exact side assumes trivial holonomy; "
            "use potential.twisted_class_sums for the weighted test"
        )
    return area_partition(disc_areas(X, fiber))


def is_balanced(X: ToricFano, f: Union[Fiber, Sequence[Rational]]) -> BalanceResult:
    """Whether every class of equidistant facets has normals summing to zero.

    Requires trivial holonomy; the holonomy-weighted variant lives in the
    potential module and is numeric.
    """
    return _balance(X, _fiber_partition(X, f))


def _balance(X: ToricFano, partition: Sequence[AreaClass]) -> BalanceResult:
    """is_balanced on an area partition already computed for the fiber."""
    sums = []
    for _area, idxs in partition:
        total = [0] * X.n
        for k in idxs:
            for i, c in enumerate(X.normals[k]):
                total[i] += c
        sums.append(tuple(total))
    return BalanceResult(all(all(c == 0 for c in s) for s in sums), tuple(sums))


def interior_grid(X: ToricFano, step: Fraction) -> Iterable[tuple[Fraction, ...]]:
    """Rational grid points with spacing `step` > 0 strictly inside the polytope."""
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    # with step = a/b and lambda_k = p/q, step*j is inside iff a*q*<j, v_k> > b*p
    a, b = step.numerator, step.denominator
    rows = [(v, a * lam.denominator, b * lam.numerator) for v, lam in zip(X.normals, X.offsets)]
    # a point on a bound is never strictly inside
    ranges = [range(math.floor(lo / step) + 1, math.ceil(hi / step)) for lo, hi in X.bounds]
    for j in iter_product(*ranges):
        if all(c * sum(ji * vi for ji, vi in zip(j, v)) > r for v, c, r in rows):
            yield tuple(Fraction(a * ji, b) for ji in j)
