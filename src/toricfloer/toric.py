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
make_toric eliminates along the spine only: stages[k] over y_0..y_k,
k = n-1..0, n - 1 eliminations, which the witness back-substitutes
through.  The polytope is unbounded exactly when a stage k lacks a
positive or a negative y_k coefficient, whatever the offsets and even
when it is empty, so "unbounded" comes before "empty interior".
Eliminating combines rows by their coefficients alone, so the
homogeneous rows of stage k cut out the projection of the recession
cone {d : <d, v_k> >= 0}: a d != 0 in it, d_k its first nonzero entry,
projects to (0, ..., 0, d_k), leaving no y_k coefficient of the other
sign, and a stage lacking one sign holds (0, ..., 0, -+1), which some
d projects to.  Each elimination drops the all-zero rows it makes, and
when it grows the system it keeps, of rows with one coefficient tuple,
only the one with the largest right-hand side; both keep every
coefficient vector, and both are exact.  A zero row puts no bound on
any variable and combines with no row, and the stage where its two
parent rows meet already holds its verdict: their interval for the
eliminated variable is empty exactly when the zero row fails.  Of
a.y >= b and a.y >= b' with b >= b', the first implies the second,
non-strict or strict, and every combination is increasing in both
right-hand sides, so no tightest bound moves.  ToricFano.bounds, which
neither analyze nor scan reads, is computed on the first read off one
elimination tree: a system over a run of axes reaches its left half by
eliminating the right half's variables, last first, and its right half
by eliminating the left half's, first first, down to n single-axis
leaves, n + T(n//2) + T(n - n//2) eliminations, 16 at n = 6.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import pairwise
from operator import mul, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import InvalidPolytope, NotInterior, ParseError

Rational = Union[int, Fraction]

# A linear row  sum_i a_i y_i >= b  in y = L*x: integer a and b.
_Row = tuple[tuple[int, ...], int]


# ---------------------------------------------------------------------------
# exact Fourier-Motzkin elimination on integer rows


def _eliminate(rows: list[_Row], k: int) -> list[_Row]:
    """The rows with their variable k, the first (0) or the last (-1),
    eliminated: no all-zero row, and one row per coefficient tuple, the one
    with the largest right-hand side, when the step grows the system."""
    keep = slice(1, None) if k == 0 else slice(None, -1)
    pos, neg, rest = [], [], []
    for a, b in rows:
        c = a[k]
        if c > 0:
            pos.append((c, a[keep], b))
        elif c < 0:
            neg.append((c, a[keep], b))
        else:
            rest.append((a[keep], b))
    for cp, ap, bp in pos:
        for cn, an, bn in neg:
            # cp*y + ap.y' >= bp  and  cn*y + an.y' >= bn  with cp > 0 > cn
            a = tuple([cp * x - cn * z for x, z in zip(an, ap)])
            if any(a):
                rest.append((a, cp * bn - cn * bp))
    if len(pos) * len(neg) <= len(pos) + len(neg):
        return rest
    tightest: dict[tuple[int, ...], int] = {}
    for a, b in rest:
        if tightest.get(a, b) <= b:
            tightest[a] = b
    return list(tightest.items())


def _split(system: list[_Row], width: int) -> list[list[_Row]]:
    """The `width` single-axis projections of a system over `width` axes,
    in axis order."""
    if width == 1:
        return [system]
    half = width // 2
    left = right = system
    for _ in range(width - half):
        left = _eliminate(left, -1)
    for _ in range(half):
        right = _eliminate(right, 0)
    return _split(left, half) + _split(right, width - half)


def _stages(rows: list[_Row], n: int) -> list[list[_Row]]:
    """The spine: stages[k] over y_0..y_k, each the next with y_{k+1} eliminated."""
    stages = [rows]
    for _ in range(n - 1):
        stages.append(_eliminate(stages[-1], -1))
    return stages[::-1]


def _bounded_stages(rows: list[_Row], n: int) -> list[list[_Row]]:
    """_stages of the rows, refused with InvalidPolytope when the polytope
    is unbounded: when some stage lacks a positive or a negative
    coefficient on its last variable."""
    stages = _stages(rows, n)
    for stage in stages:
        if len({a[-1] > 0 for a, _b in stage if a[-1]}) < 2:
            raise InvalidPolytope("normals do not positively span, polytope is unbounded")
    return stages


def _integer_rows(normals: Sequence[tuple[int, ...]], offsets: Sequence[Fraction]) -> tuple[int, list[_Row]]:
    """L, the lcm of the offset denominators, and the integer row
    <v_k, y> >= L*lambda_k of each facet k in y = L*x."""
    L = math.lcm(*(lam.denominator for lam in offsets))
    return L, [(v, lam.numerator * (L // lam.denominator)) for v, lam in zip(normals, offsets)]


def _interval(rows: list[_Row], Y: list[int], D: int):
    """The tightest lower and upper bounds R/(c*D), c > 0, that rows put on
    y_k, k = len(Y), at y_i = Y[i]/D for i < k: as (R, c), None if absent."""
    lo = hi = None
    k = len(Y)
    for a, b in rows:
        c = a[k]
        if not c:
            continue
        R = b * D - sum(map(mul, a, Y))
        if c > 0:
            if lo is None or R * lo[1] > lo[0] * c:
                lo = (R, c)
        elif hi is None or R * hi[1] > hi[0] * c:  # -R/-c below hi
            hi = (-R, -c)
    return lo, hi


def _coordinate_bounds(rows: list[_Row], nvars: int):
    """The exact [min, max] of each coordinate over a bounded {y : rows},
    read off the leaves of one elimination tree, as ((R_lo, c_lo),
    (R_hi, c_hi)) for R/c."""
    return [_interval(leaf, [], 1) for leaf in _split(rows, nvars)]


def _interior_witness(stages: list[list[_Row]]) -> Optional[tuple[list[int], int]]:
    """A point strictly inside {y : stages[-1]}, as numerators Y over one
    denominator D, reduced by one joint gcd, or None when the interior is
    empty.  Each y_k is the midpoint of its interval given y_0..y_{k-1},
    bounded on both sides when the polytope is.  Every row is strict, and
    so is every combination, so the interior is empty exactly when an
    interval is.  The point depends only on the intervals' values, which
    the rows the eliminations drop or merge never set."""
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
    return [y // g for y in Y], D // g


def _solve_rows(rows: Iterable[_Row], n: int) -> Optional[tuple[list[int], int]]:
    """The y with <a, y> = b for every integer row (a, b) over n variables,
    as numerators Y over one denominator D > 0, reduced by one joint gcd, or
    None when no single y solves them all.  The first n independent rows,
    in order, fix y by one fraction-free Gauss-Jordan elimination, each row
    kept primitive; None when fewer than n are independent.  Then every row
    is checked in integers, so None also when they are inconsistent."""
    rows = list(rows)
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, [*a, b]), a zero off it
    for a, b in rows:
        r = [*a, b]
        for c, p in pivots:
            h = r[c]
            if h:
                f = p[c]
                r = [f * x - h * y for x, y in zip(r, p)]
        c = next(filter(r.__getitem__, range(n)), None)
        if c is None:
            continue
        g = math.gcd(*r)
        if g != 1:
            r = [x // g for x in r]
        for k, (ck, p) in enumerate(pivots):
            h = p[c]
            if h:
                f = r[c]
                p = [f * x - h * y for x, y in zip(p, r)]
                g = math.gcd(*p)
                pivots[k] = (ck, [x // g for x in p])
        pivots.append((c, r))
        if len(pivots) == n:
            break
    else:
        return None
    D = math.lcm(*(p[c] for c, p in pivots))
    Y = [0] * n
    for c, p in pivots:
        Y[c] = p[n] * (D // p[c])
    g = math.gcd(D, *Y)
    Y, D = [y // g for y in Y], D // g
    if any(sum(map(mul, a, Y)) != b * D for a, b in rows):
        return None
    return Y, D


# ---------------------------------------------------------------------------
# polytope data


class _Frozen:
    """A value class as @dataclass(frozen=True) would make it, without
    importing dataclasses.  Its fields are __match_args__, in __init__'s
    order, as a dataclass names them for match patterns: __init__ writes
    them into __dict__ once, and assigning or deleting an attribute raises
    AttributeError.  == and hash read the first _compared fields (all when
    None), the hash once per instance, and repr names every field."""

    __match_args__: tuple[str, ...]
    _compared: Optional[int] = None

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__[: self._compared]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    # m2_product hashes (X, f) on every call to key its memo
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._key())

    def __getstate__(self) -> dict:
        """The pickled state: the cached hash stays behind, since a str or
        None hashes differently in another process."""
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ToricFano(_Frozen):
    """Facet presentation {u : <u, v_k> >= lambda_k} of a moment polytope."""

    __match_args__ = ("name", "n", "normals", "offsets", "interior_point")
    _compared = 4  # interior_point follows from the rest

    def __init__(
        self,
        name: str,
        n: int,
        normals: tuple[tuple[int, ...], ...],
        offsets: tuple[Fraction, ...],
        interior_point: tuple[Fraction, ...],
    ):
        self.__dict__.update(name=name, n=n, normals=normals, offsets=offsets, interior_point=interior_point)

    @property
    def num_facets(self) -> int:
        return len(self.normals)

    @cached_property
    def bounds(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Exact [min, max] of each coordinate over the closed polytope, on
        the first read; InvalidPolytope when it is unbounded (_spine)."""
        self._spine
        L, rows = self._rows
        pairs = _coordinate_bounds(rows, self.n)
        return tuple((Fraction(Rl, cl * L), Fraction(Ru, cu * L)) for (Rl, cl), (Ru, cu) in pairs)

    def coordinate_bounds(self) -> list[tuple[Fraction, Fraction]]:
        """Exact [min, max] of each coordinate over the closed polytope."""
        return list(self.bounds)

    def __str__(self) -> str:
        return f"{self.name}: {self.num_facets} facets in dim {self.n}"

    @cached_property
    def _supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each normal's nonzero (axis, entry) pairs, in axis order.  They
        depend on the normals alone, so each instance reads them once from
        _fan_supports, and the polytopes of one recent fan share one
        tuple."""
        return _fan_supports(tuple(map(tuple, self.normals)))

    @cached_property
    def _rows(self) -> tuple[int, list[_Row]]:
        """_integer_rows of the facet data."""
        return _integer_rows(self.normals, self.offsets)

    @cached_property
    def _spine(self) -> list[list[_Row]]:
        """_bounded_stages of the integer rows, which make_toric validates on
        and seeds; computed here only for an instance the constructor built."""
        return _bounded_stages(self._rows[1], self.n)


# the fans whose supports _fan_supports keeps: a process may build many
# polytopes of few fans, and a supports tuple depends on the normals alone
_FANS = 64


@lru_cache(maxsize=_FANS)
def _fan_supports(normals: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """ToricFano._supports of the normals, a tuple of tuples."""
    return tuple(tuple((i, c) for i, c in enumerate(v) if c) for v in normals)


class Fiber(_Frozen):
    """A torus fiber over an interior point of the polytope.

    u is always exact rational.  Solver output from which no exactly
    balanced point could be read carries the binary expansion of the float
    iterate and exact=False.  Holonomy angles are in turns and are
    only consumed by the numeric side of the potential module; the exact
    side raises ValueError on a nontrivial holonomy.
    """

    __match_args__ = ("u", "holonomy", "exact")

    def __init__(
        self,
        u: tuple[Fraction, ...],
        holonomy: Optional[tuple[Fraction, ...]] = None,
        exact: bool = True,
    ):
        self.__dict__.update(u=u, holonomy=holonomy, exact=exact)

    def has_trivial_holonomy(self) -> bool:
        return self.holonomy is None or all(h == 0 for h in self.holonomy)

    @cached_property
    def _normal(self) -> bool:
        """Whether _as_fiber returns this fiber as it is, checked once per
        instance: u a tuple of Fractions, the holonomy None or a tuple."""
        hol = self.holonomy
        return type(self.u) is tuple and all(type(x) is Fraction for x in self.u) and (
            hol is None or tuple(hol) == hol
        )


class DiscClass(_Frozen):
    """Basic holomorphic disc class meeting facet `index` once."""

    __match_args__ = ("index", "normal", "area", "maslov")

    def __init__(self, index: int, normal: tuple[int, ...], area: Fraction, maslov: int = 2):
        self.__dict__.update(index=index, normal=normal, area=area, maslov=maslov)


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

    L, rows = presentation = _integer_rows(vs, lams)
    stages = _bounded_stages(rows, n)
    witness = _interior_witness(stages)
    if witness is None:
        raise InvalidPolytope("polytope has empty interior")
    # of two facets with one normal, one is redundant: its disc would count twice
    for k, v in enumerate(vs):
        if v in vs[:k]:
            raise InvalidPolytope(f"facets {vs.index(v) + 1} and {k + 1} share the normal {v}")
    Y, D = witness
    X = ToricFano(name, n, vs, lams, tuple(Fraction(y, D * L) for y in Y))
    X.__dict__.update(_rows=presentation, _spine=stages)  # the cached properties, built here
    return X


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
    unless the mantissa, of at most 2 * limit digits, is 0.  An integer
    text, an optional "-" and at most limit ASCII digits (any number when
    limit is 0), is read by int() alone, at about a third of the cost of
    Fraction's parser: no such text is refused, and its value is the same."""
    limit = _digit_limit()
    digits = text[1:] if text[:1] == "-" else text
    if digits.isdigit() and digits.isascii() and (not limit or len(digits) <= limit):
        return Fraction(int(text))
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
    return Fiber(tuple(Fraction(x) for x in f.u), hol, f.exact)


def _area_numerators(X: ToricFano, u: Sequence[Fraction]) -> tuple[list[int], int]:
    """The areas e_k(u) = <u, v_k> - lambda_k as integer numerators over one
    denominator: u = U/D over one common denominator and lambda_k = P_k/L, L
    the lcm of the offset denominators, give e_k = (L*<U, v_k> - D*P_k)/(D*L).

    Raises NotInterior unless every area is strictly positive.
    """
    if len(u) != X.n:
        raise NotInterior(f"fiber point has dimension {len(u)}, expected {X.n}")
    D = math.lcm(*(x.denominator for x in u))
    U = [x.numerator * (D // x.denominator) for x in u]
    L, rows = X._rows
    den = D * L
    nums = []
    for k, (support, (_v, P)) in enumerate(zip(X._supports, rows)):
        num = L * sum([U[i] * c for i, c in support]) - D * P
        if num <= 0:
            raise NotInterior(
                f"point {tuple(map(str, u))} is not strictly inside: "
                f"facet {k + 1} has distance {Fraction(num, den)}"
            )
        nums.append(num)
    return nums, den


def _area_groups(nums: Iterable[int]) -> dict[int, list[int]]:
    """The facet indices grouped by their area numerators, over one
    denominator: two areas are equal exactly when their numerators are."""
    groups: dict[int, list[int]] = {}
    for k, e in enumerate(nums):
        groups.setdefault(e, []).append(k)
    return groups


def _partition(groups: dict[int, list[int]], den: int) -> tuple[AreaClass, ...]:
    """The _area_groups of numerators over den as an area partition, sorted
    by area, with one Fraction per class."""
    return tuple(AreaClass(Fraction(e, den), tuple(idxs)) for e, idxs in sorted(groups.items()))


def _area_classes(X: ToricFano, fiber: Fiber) -> tuple[tuple[DiscClass, ...], tuple[AreaClass, ...]]:
    """disc_areas and area_partition at a fiber, from its integer area
    numerators."""
    nums, den = _area_numerators(X, fiber.u)
    return _grouped_classes(X, _area_groups(nums), den)


def _grouped_classes(X: ToricFano, groups: dict[int, list[int]], den: int):
    """_area_classes from the _area_groups of numerators over den: the
    DiscClasses of one area class share its Fraction."""
    partition = _partition(groups, den)
    area = [None] * X.num_facets
    for a, idxs in partition:
        for k in idxs:
            area[k] = a
    return tuple(map(DiscClass, range(X.num_facets), X.normals, area)), partition


def disc_areas(X: ToricFano, f: Union[Fiber, Sequence[Rational]]) -> tuple[DiscClass, ...]:
    """Areas e_k(u) = <u, v_k> - lambda_k of the basic disc classes.

    Raises NotInterior unless every distance is strictly positive.
    """
    return _area_classes(X, _as_fiber(f))[0]


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
    classes, partition = _area_classes(X, fiber)
    return classes, partition, _balance(X, partition)


def _balanced_at(X: ToricFano, u: Sequence[Fraction]) -> Optional[tuple]:
    """_fiber_areas at u when its fiber is balanced, else None, decided on
    its integer area numerators: Fractions are built only for a balanced
    fiber, whose class sums are all 0 in any order of the classes."""
    nums, den = _area_numerators(X, u)
    groups = _area_groups(nums)
    balance = _balance(X, groups.items())
    if not balance.balanced:
        return None
    return (*_grouped_classes(X, groups, den), balance)


def _class_point(X: ToricFano, classes: Iterable[Sequence[int]]) -> Optional[tuple[Fraction, ...]]:
    """The one point at which the facets of each class are at one distance,
    or None.  In y = L*u, lambda_k = P_k/L, consecutive facets j, k of a
    class give the integer row <v_k - v_j, y> = P_k - P_j for _solve_rows.
    For classes [range(N)] and normals that sum to 0, the N areas sum to
    -sum_k lambda_k at every u, positive inside, so the point, when it
    exists, is interior and balanced: one class, whose normals sum to 0."""
    L, facets = X._rows
    rows = [
        (tuple(map(sub, vk, vj)), pk - pj)
        for idxs in classes
        for (vj, pj), (vk, pk) in pairwise(map(facets.__getitem__, idxs))
    ]
    solution = _solve_rows(rows, X.n)
    if solution is None:
        return None
    Y, D = solution
    return tuple(Fraction(y, D * L) for y in Y)


def is_balanced(X: ToricFano, f: Union[Fiber, Sequence[Rational]]) -> BalanceResult:
    """Whether every class of equidistant facets has normals summing to zero.

    Requires trivial holonomy; the holonomy-weighted variant lives in the
    potential module and is numeric.
    """
    return _fiber_areas(X, f)[2]


def _balance(X: ToricFano, partition: Iterable[tuple[object, Sequence[int]]]) -> BalanceResult:
    """is_balanced on an area partition already computed for the fiber, or
    on any (area, facet indices) pairs."""
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

    With step = a/b and lambda_k = P_k/L (ToricFano._rows), facet k has
    area (base[k] + t*slopes[k]) / den at the grid index (*head, t), with
    den = b*L, base[k] = a*L*<head, v_k> - b*P_k over the first n-1 axes
    and slopes[k] = a*L*v_k[-1].  So two areas are equal exactly when their
    numerators are (_line_balance groups them), and the point is inside
    exactly when every numerator is positive, which is lo <= t <= hi, read
    off with floor division.  The heads are _heads on the spine, strictly
    inside X's projection onto the first n-1 axes, so every row without
    the last axis is positive on their lines.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    a, b = step.numerator, step.denominator
    L, rows = X._rows
    scale, den = a * L, b * L
    shifts = [b * P for _v, P in rows]
    slopes = [scale * v[-1] for v in X.normals]
    for head in _heads(X._spine, scale, b, ()):
        # the normals that make the polytope bounded give every last axis a
        # lower and an upper row
        base = [scale * sum(map(mul, head, v)) - s for v, s in zip(X.normals, shifts)]
        lo = max(-e // d + 1 for e, d in zip(base, slopes) if d > 0)
        hi = min((e - 1) // -d for e, d in zip(base, slopes) if d < 0)
        if lo <= hi:
            yield head, lo, hi, base, slopes, den


def _heads(stages: list[list[_Row]], scale: int, b: int, prefix: tuple) -> Iterator[tuple[int, ...]]:
    """The heads (*prefix, h_j, ..., h_{n-2}) strictly inside stage n-2's
    projection, n = len(stages), at y_i = scale*h_i/b, in lexicographic
    order: inside stage j-1's, which implies every row of stage j without
    y_j, h_j ranges over stage j's open interval.  A range of more than
    sys.maxsize indices is a ParseError."""
    j = len(prefix)
    if j == len(stages) - 1:
        yield prefix
        return
    (Rl, cl), (Ru, cu) = _interval(stages[j], [scale * h for h in prefix], b)
    heads = range(Rl // (cl * scale) + 1, -(-Ru // (cu * scale)))
    if heads.stop - heads.start > sys.maxsize:
        raise ParseError(
            f"the grid has too many lines to walk: axis {j + 1} holds more "
            f"than {sys.maxsize} grid indices"
        )
    for h in heads:
        yield from _heads(stages, scale, b, (*prefix, h))


def _line_balance(
    X: ToricFano, base: Sequence[int], slopes: Sequence[int], den: int, t: int
) -> tuple[tuple[AreaClass, ...], BalanceResult]:
    """_fiber_areas's partition and balance at the grid index (*head, t) of a
    _grid_lines line: the facets grouped by their area numerators, which
    are all positive for lo <= t <= hi, with one Fraction per class."""
    partition = _partition(_area_groups([e + t * d for e, d in zip(base, slopes)]), den)
    return partition, _balance(X, partition)
