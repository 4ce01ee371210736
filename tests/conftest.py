import math
import random
from fractions import Fraction

import pytest

from toricfloer import Fiber, load_toric

BUILTIN_NAMES = ["CP1", "CP2", "CP1xCP1", "CPn(3)"]


@pytest.fixture(params=BUILTIN_NAMES)
def builtin(request):
    return load_toric(request.param)


def balanced_fiber(X):
    """The balanced fiber of a built-in (center of the simplex or square)."""
    if X.name == "CP1xCP1":
        return Fiber((Fraction(1, 2), Fraction(1, 2)))
    return Fiber(tuple(Fraction(1, X.n + 1) for _ in range(X.n)))


def random_interior_fiber(X, rng: random.Random, denom: int = 60) -> Fiber:
    bounds = X.coordinate_bounds()
    for _ in range(1000):
        u = []
        for lo, hi in bounds:
            low = math.floor(lo * denom) + 1
            high = math.ceil(hi * denom) - 1
            u.append(Fraction(rng.randint(low, high), denom))
        point = tuple(u)
        if all(
            sum(ui * vi for ui, vi in zip(point, v)) - lam > 0
            for v, lam in zip(X.normals, X.offsets)
        ):
            return Fiber(point)
    raise RuntimeError(f"could not sample an interior point of {X.name}")


def _evaluate(entry, s: int, denom: int) -> Fraction:
    """The value of a Novikov element at q = 1, T^(1/denom) = s."""
    return sum(
        (c * Fraction(s) ** int(t * denom) for c, t, _q in entry.terms),
        Fraction(0),
    )


def _fraction_rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                factor = rows[r][c] / rows[rank][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exact_differential_rank(matrix) -> int:
    """Exact rank over the Novikov field of a square matrix with d^2 = 0.

    Test oracle, independent of the obstruction-form closed form.  The
    entries are polynomials in t = T^(1/D) once q = 1, and evaluating at
    t = s can only lower the rank, while d^2 = 0 bounds it by half the
    size.  So a zero matrix has rank 0, and an evaluation whose exact
    Fraction rank reaches half the size certifies that value.  A nonzero
    entry with m terms has at most m - 1 positive roots (Descartes), so
    s = 2..m+2 includes a point where it does not vanish; for the Floer
    differential the rank reaches the bound there.
    """
    entries = [e for row in matrix for e in row if e]
    if not entries:
        return 0
    denom = math.lcm(*(t.denominator for e in entries for _c, t, _q in e.terms))
    bound = len(matrix) // 2
    m = min(len(e.terms) for e in entries)
    for s in range(2, m + 3):
        values = [[_evaluate(e, s, denom) for e in row] for row in matrix]
        if _fraction_rank(values) == bound:
            return bound
    raise AssertionError(f"rank not certified at s = 2..{m + 2}")
