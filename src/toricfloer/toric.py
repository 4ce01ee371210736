"""Moment polytopes of toric Fano manifolds and their torus fibers.

A polytope is stored by its facet data {u : <u, v_k> >= lambda_k} with
primitive integer normals v_k and rational offsets lambda_k.  The key
derived quantities are the affine distances e_k(u) = <u, v_k> - lambda_k
to the facets (the disc areas, in affine units), the partition of facets
into classes of equal distance, and the balancedness test: every class
of equidistant facets has normals summing to zero.

The geometry runs on integer numerators and builds one Fraction per
result (an area, a grid point, a bound), not one per term; scan counts
each line of its grid on the area numerators, building none.
Validation is exact Fourier-Motzkin elimination on integer rows: in
y = L*x, L the lcm of the offset denominators, facet k reads
<v_k, y> >= L*lambda_k.  A combination of strict rows is strict, so the
bounds read every row as non-strict and the interior witness every row
as strict, with no flag per row and no float or tolerance in any
decision.  The tests check it against a Fraction elimination with a
strictness flag per row, the oracle in tests/conftest.py.
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
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import InvalidPolytope, NotInterior, ParseError

Rational = Union[int, Fraction]

# A linear row  sum_i a_i y_i >= b  in y = L*x: integer a and b.
_Row = tuple[tuple[int, ...], int]


# ---------------------------------------------------------------------------
# exact Fourier-Motzkin elimination on integer rows


def _eliminate_last(rows: list[_Row], nvars: int) -> list[_Row]:
    last = nvars - 1
    pos, neg, rest = [], [], []
    for a, b in rows:
        c = a[last]
        if c > 0:
            pos.append((a, b))
        elif c < 0:
            neg.append((a, b))
        else:
            rest.append((a[:last], b))
    for ap, bp in pos:
        cp = ap[last]
        for an, bn in neg:
            cn = an[last]
            # cp*y + ap'.y' >= bp  and  cn*y + an'.y' >= bn  with cp > 0 > cn
            rest.append((tuple([cp * an[i] - cn * ap[i] for i in range(last)]), cp * bn - cn * bp))
    return rest


def _stages(rows: list[_Row], nvars: int) -> list[list[_Row]]:
    """systems[k] constrains y_0..y_k; systems[nvars - 1] = rows."""
    systems = [rows]
    for k in range(nvars, 1, -1):
        systems.append(_eliminate_last(systems[-1], k))
    return systems[::-1]


def _interval(rows: list[_Row], Y: list[int], D: int):
    """The tightest lower and upper bounds R/(c*D), c > 0, that rows put on
    y_k, k = len(Y), at y_i = Y[i]/D for i < k: as (R, c), None if absent."""
    lo = hi = None
    for a, b in rows:
        c = a[len(Y)]
        R = b * D - sum(map(mul, a, Y))
        if c > 0 and (lo is None or R * lo[1] > lo[0] * c):
            lo = (R, c)
        elif c < 0 and (hi is None or R * hi[1] > hi[0] * c):  # -R/-c below hi
            hi = (-R, -c)
    return lo, hi


def _coordinate_bounds(rows: list[_Row], nvars: int):
    """The exact [min, max] of each coordinate over {y : rows}, one
    projection per axis, as ((R_lo, c_lo), (R_hi, c_hi)) for R/c, and axis
    0's stages, which the witness reads; raises InvalidPolytope when an
    axis is unbounded, which the module docstring shows the normals decide."""
    stages = _stages(rows, nvars)
    singles = [stages[0]]
    for i in range(1, nvars):
        perm = [i] + [j for j in range(nvars) if j != i]
        singles.append(_stages([(tuple([a[p] for p in perm]), b) for a, b in rows], nvars)[0])
    bounds = [_interval(single, [], 1) for single in singles]
    if any(lo is None or hi is None for lo, hi in bounds):
        raise InvalidPolytope("normals do not positively span, polytope is unbounded")
    return bounds, stages


def _interior_witness(stages: list[list[_Row]]) -> Optional[tuple[list[int], int]]:
    """A point strictly inside {y : stages[-1]}, as numerators Y over one
    denominator D, or None when the interior is empty.  Each y_k is the
    midpoint of its interval given y_0..y_{k-1}, bounded on both sides when
    the polytope is.  Every row is strict, and so is every combination, so
    the interior is empty exactly when an interval is."""
    Y: list[int] = []
    D = 1
    for system in stages:
        (Rl, cl), (Ru, cu) = _interval(system, Y, D)
        if Rl * cu >= Ru * cl:
            return None
        # (Rl/cl + Ru/cu) / (2*D) over the denominator 2*cl*cu*D
        m = 2 * cl * cu
        Y = [y * m for y in Y] + [Rl * cu + Ru * cl]
        D *= m
        g = math.gcd(D, *Y)
        Y = [y // g for y in Y]
        D //= g
    return Y, D


# ---------------------------------------------------------------------------
# polytope data


def _state_without_hash(self) -> dict:
    """The pickled state of an instance that caches its hash: the cache
    stays behind, since a str or None hashes differently in another
    process."""
    return {k: v for k, v in self.__dict__.items() if k != "_hash"}


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

    # m2_product hashes (X, f) on every call to key its memo
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the compared fields, once per instance."""
        return hash((self.name, self.n, self.normals, self.offsets))

    @cached_property
    def _supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each normal's nonzero (axis, entry) pairs, in axis order, once."""
        return tuple(tuple((i, c) for i, c in enumerate(v) if c) for v in self.normals)

    __getstate__ = _state_without_hash


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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the compared fields, once per instance."""
        return hash((self.u, self.holonomy, self.exact))

    @cached_property
    def _normal(self) -> bool:
        """Whether _as_fiber returns this fiber as it is, checked once per
        instance: u a tuple of Fractions, the holonomy None or a tuple."""
        hol = self.holonomy
        return type(self.u) is tuple and all(type(x) is Fraction for x in self.u) and (
            hol is None or tuple(hol) == hol
        )

    __getstate__ = _state_without_hash


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
    # a Fraction as such is kept: Fraction(x) would check it against the
    # numbers.Rational ABC again
    lams = tuple(x if type(x) is Fraction else Fraction(x) for x in offsets)
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

    # in y = L*x facet k reads <v_k, y> >= L*lambda_k, an integer row
    L = math.lcm(*(lam.denominator for lam in lams))
    rows = [(v, lam.numerator * (L // lam.denominator)) for v, lam in zip(vs, lams)]
    # raises when the normals do not positively span
    bounds, stages = _coordinate_bounds(rows, n)
    witness = _interior_witness(stages)
    if witness is None:
        raise InvalidPolytope("polytope has empty interior")
    # of two facets with one normal, one is redundant: its disc would count twice
    for k, v in enumerate(vs):
        if v in vs[:k]:
            raise InvalidPolytope(f"facets {vs.index(v) + 1} and {k + 1} share the normal {v}")
    Y, D = witness
    box = tuple((Fraction(Rl, cl * L), Fraction(Ru, cu * L)) for (Rl, cl), (Ru, cu) in bounds)
    return ToricFano(name, n, vs, lams, tuple(Fraction(y, D * L) for y in Y), box)


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


_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _digit_limit() -> int:
    """The most digits int() reads from a string or str() writes
    (sys.get_int_max_str_digits()); 0, also before 3.10.7, is no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _over_digit_limit(x: Fraction, limit: int) -> bool:
    """Whether x's numerator or denominator has more than limit digits, so
    that no report could print it; limit 0 is no limit."""
    m = max(abs(x.numerator), x.denominator)
    # 2^(3 * limit) < 10^limit, so only a longer m can have too many digits
    return bool(limit) and m.bit_length() > 3 * limit and m >= 10**limit


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), refused with ValueError when its numerator or
    denominator is over the digit limit (_over_digit_limit).  Without an
    exponent, no such number has more digits than the text has
    characters.  An exponent of 3 * limit or more is refused before
    Fraction builds its power of ten: it leaves more than limit digits
    unless the mantissa, of at most 2 * limit digits, is 0."""
    limit = _digit_limit()
    exponent = _EXPONENT.search(text)
    if limit and exponent and abs(int(exponent.group(1))) >= 3 * limit:
        raise ValueError(f"exponent beyond the {limit}-digit limit")
    x = Fraction(text)
    if (exponent or len(text) > limit) and _over_digit_limit(x, limit):
        raise ValueError(f"numerator or denominator has more than {limit} digits")
    return x


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
                offset = _parse_rational(offset)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"cannot parse offset {offset!r}: {exc}") from exc
        elif not isinstance(offset, int) or isinstance(offset, bool):
            raise ParseError("offsets must be rational strings or integers")
        normals.append(tuple(normal))
        # an int, or the Fraction _parse_rational returned: make_toric
        # converts only the int
        offsets.append(offset)
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
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer beyond the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    return _from_json_dict(doc)


# ---------------------------------------------------------------------------
# fibers, disc areas, balancedness


def _as_fiber(f: Union[Fiber, Sequence[Rational]]) -> Fiber:
    """f with every coordinate read as Fraction(x), a Fiber's as a sequence's,
    and u and the holonomy as tuples, so that the result hashes."""
    if not isinstance(f, Fiber):
        return Fiber(tuple(Fraction(x) for x in f))
    if f._normal:
        return f
    hol = None if f.holonomy is None else tuple(f.holonomy)
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


def _fiber_areas(
    X: ToricFano, f: Union[Fiber, Sequence[Rational]]
) -> tuple[tuple[DiscClass, ...], tuple[AreaClass, ...], BalanceResult]:
    """The disc classes at f, their area partition and its balance, for the
    exact side, which is only defined at trivial holonomy: every exact
    per-fiber entry point starts here.
    """
    fiber = _as_fiber(f)
    if not fiber.has_trivial_holonomy():
        raise ValueError(
            "the exact side assumes trivial holonomy; "
            "use potential.twisted_class_sums for the weighted test"
        )
    classes = disc_areas(X, fiber)
    partition = area_partition(classes)
    return classes, partition, _balance(X, partition)


def is_balanced(X: ToricFano, f: Union[Fiber, Sequence[Rational]]) -> BalanceResult:
    """Whether every class of equidistant facets has normals summing to zero.

    Requires trivial holonomy; the holonomy-weighted variant lives in the
    potential module and is numeric.
    """
    return _fiber_areas(X, f)[2]


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
    """Rational grid points with spacing `step` > 0 strictly inside the
    polytope, in lexicographic order: t walks lo..hi on each line of
    _grid_lines."""
    step = Fraction(step)
    for head, lo, hi, *_areas in _grid_lines(X, step):
        prefix = tuple(step * h for h in head)
        for t in range(lo, hi + 1):
            yield (*prefix, step * t)


def _grid_lines(
    X: ToricFano, step: Fraction
) -> Iterator[tuple[tuple[int, ...], int, int, list[int], list[int], int]]:
    """(head, lo, hi, base, slopes, den) for each line of the last axis that
    has grid points strictly inside X, in lexicographic order of head.

    With step = a/b, lambda_k = p_k/q_k and L the lcm of the q_k, facet k
    has area (base[k] + t*slopes[k]) / den at the grid index (*head, t),
    with den = b*L, base[k] = a*L*<head, v_k> - b*p_k*(L/q_k) over the
    first n-1 axes and slopes[k] = a*L*v_k[-1].  So two areas are equal
    exactly when their numerators are (_line_balance groups them), and the
    point is inside exactly when every numerator is positive, which is
    lo <= t <= hi, read off with floor division.  The head walks the
    coordinate bounds of the first n-1 axes, on which no point is strictly
    inside; an axis with more than sys.maxsize of them is a ParseError.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    a, b = step.numerator, step.denominator
    L = math.lcm(*(lam.denominator for lam in X.offsets))
    scale, den = a * L, b * L
    shifts = [b * lam.numerator * (L // lam.denominator) for lam in X.offsets]
    slopes = [scale * v[-1] for v in X.normals]
    heads = [range(math.floor(lo / step) + 1, math.ceil(hi / step)) for lo, hi in X.bounds[:-1]]
    for axis, r in enumerate(heads, 1):
        if r.stop - r.start > sys.maxsize:
            raise ParseError(
                f"the grid has too many lines to walk: axis {axis} holds more "
                f"than {sys.maxsize} grid indices"
            )
    for head in _walk(heads):
        # the normals that make the polytope bounded give every last axis a
        # lower and an upper row
        base = [scale * sum(map(mul, head, v)) - s for v, s in zip(X.normals, shifts)]
        lo = max(-e // d + 1 for e, d in zip(base, slopes) if d > 0)
        hi = min((e - 1) // -d for e, d in zip(base, slopes) if d < 0)
        if lo <= hi and all(e > 0 for e, d in zip(base, slopes) if d == 0):
            yield head, lo, hi, base, slopes, den


def _walk(ranges: Sequence[range]) -> Iterator[tuple[int, ...]]:
    """The points of the product of ranges in lexicographic order, as
    itertools.product yields them, but lazily: product first copies every
    range into a tuple, which costs memory in proportion to its length."""
    if not ranges:
        yield ()
        return
    for head in _walk(ranges[:-1]):
        for h in ranges[-1]:
            yield (*head, h)


def _line_balance(
    X: ToricFano, base: Sequence[int], slopes: Sequence[int], den: int, t: int
) -> tuple[tuple[AreaClass, ...], BalanceResult]:
    """_fiber_areas's partition and balance at the grid index (*head, t) of a
    _grid_lines line: the facets grouped by their area numerators, which
    are all positive for lo <= t <= hi, with one Fraction per class."""
    groups: dict[int, list[int]] = {}
    for k, (e, d) in enumerate(zip(base, slopes)):
        groups.setdefault(e + t * d, []).append(k)
    partition = tuple(
        AreaClass(Fraction(num, den), tuple(idxs)) for num, idxs in sorted(groups.items())
    )
    return partition, _balance(X, partition)
