import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from toricfloer import (
    CliffordElement,
    Fiber,
    NoConvergence,
    NotInterior,
    chains,
    disc_areas,
    floer,
    load_toric,
    make_toric,
    potential,
    subsets_graded,
    toric,
)
from toricfloer.novikov import ONE, ZERO, monomial

BUILTIN_NAMES = ["CP1", "CP2", "CP1xCP1", "CPn(3)"]


@pytest.fixture(params=BUILTIN_NAMES)
def builtin(request):
    return load_toric(request.param)


@pytest.fixture
def disc_area_calls(monkeypatch):
    """The fibers passed to disc_areas, through every module that binds it."""
    original = toric.disc_areas
    calls = []

    def counting(X, f):
        calls.append(f)
        return original(X, f)

    for module in (toric, potential):
        monkeypatch.setattr(module, "disc_areas", counting)
    return calls


@pytest.fixture
def digit_limit():
    """sys.get_int_max_str_digits() pinned to its default, 4300, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def balanced_fiber(X):
    """The balanced fiber of a built-in (center of the simplex or square)."""
    if X.name == "CP1xCP1":
        return Fiber((Fraction(1, 2), Fraction(1, 2)))
    return Fiber(tuple(Fraction(1, X.n + 1) for _ in range(X.n)))


def random_interior_fiber(X, rng: random.Random, denom: int = 60) -> Fiber:
    """A point of the 1/denom grid strictly inside X.  Each coordinate is
    drawn on the grid strictly inside its interval given the earlier ones,
    which Fourier-Motzkin elimination of the later ones gives, so a draw
    starts again only when an interval holds no grid point."""
    stages = _sampling_stages(X)
    for _ in range(1000):
        u = []
        for k in range(1, X.n + 1):
            lo, hi = -math.inf, math.inf
            for a, b, _strict in stages[k]:
                c = a[k - 1]
                if c:
                    r = (b - sum(ai * ui for ai, ui in zip(a, u))) / c
                    lo, hi = (max(lo, r), hi) if c > 0 else (lo, min(hi, r))
            low, high = math.floor(lo * denom) + 1, math.ceil(hi * denom) - 1
            if low > high:
                break
            u.append(Fraction(rng.randint(low, high), denom))
        else:
            return Fiber(tuple(u))
    raise RuntimeError(f"could not sample an interior point of {X.name}")


# Polytopes beyond the built-ins: the rectangle [0,2]x[0,1] (two area
# classes at its centre), the hexagon (CP2 blown up at three points) and
# the box [0,1]x[0,2]x[0,3] (three classes at its centre).
RECT = make_toric("rect", 2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -2, 0, -1])
HEXAGON = make_toric(
    "hexagon", 2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], [-1] * 6
)
BOX_123 = make_toric(
    "box123",
    3,
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [0, -1, 0, -2, 0, -3],
)


def shear(X, f, shears):
    """X and the fiber f under the unimodular shears (i, j, c), in order:
    v_i += c * v_j on every normal and u_j -= c * u_i on the fiber, so
    that every disc area stays."""
    normals, u = [list(v) for v in X.normals], list(f.u)
    for i, j, c in shears:
        for v in normals:
            v[i] += c * v[j]
        u[j] -= c * u[i]
    Y = make_toric(f"{X.name}_sheared", X.n, [tuple(v) for v in normals], X.offsets)
    return Y, Fiber(tuple(u))


@functools.lru_cache
def _sampling_stages(X):
    return _oracle_stages(oracle_fraction_rows(X, True), X.n)


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


def assert_normal(x) -> None:
    """x's terms are in the Novikov normal form: nonzero Fraction
    coefficients, Fraction T-exponents, int q-exponents, strictly
    increasing in (t, q)."""
    keys = [(t, q) for _c, t, q in x.terms]
    assert keys == sorted(set(keys))
    for c, t, q in x.terms:
        assert type(c) is Fraction and c != 0
        assert type(t) is Fraction and type(q) is int


# Test oracle: the per-disc sums of the obstruction form, the formal
# Hessian and the l-products, one monomial per basic disc class, as the
# library defined them before it grouped the discs by area class.


def oracle_obstruction_form(X, f):
    classes = disc_areas(X, f)
    return [
        sum((monomial(d.normal[i], d.area, 1) for d in classes), ZERO)
        for i in range(X.n)
    ]


def oracle_formal_hessian(X, f):
    classes = disc_areas(X, f)
    return [
        [
            sum((monomial(d.normal[i] * d.normal[j], d.area, 1) for d in classes), ZERO)
            for j in range(X.n)
        ]
        for i in range(X.n)
    ]


def oracle_l_product(X, f, idx):
    classes = disc_areas(X, f)
    sign = (-1) ** (X.n * len(idx))
    return sum(
        (
            monomial(sign * math.prod(d.normal[i] for i in idx), d.area, 1)
            for d in classes
        ),
        ZERO,
    )


# Test oracle: the chain-level operations as the library spelled them out
# before they became sums and products in the chain algebra: the boundary
# and the Floer differential insert one disc symbol at a time, facet by
# facet, and the correction tower is summed over every set of classes.


def _oracle_insert_odd(odds, g):
    """Left-multiply a sorted odd tuple by g: (sign, new tuple), or None."""
    if g in odds:
        return None
    before = sum(1 for o in odds if o < g)
    return (-1) ** before, tuple(sorted(odds + (g,)))


def _oracle_accumulate(A, terms):
    out = {}
    for key, c in terms:
        out[key] = out.get(key, ZERO) + c
    return chains.ChainExpression(A.dims, out)


def oracle_boundary(A, e):
    terms = []
    for (evens, odds), c in e.items():
        for p, t in enumerate(evens):
            rest = evens[:p] + evens[p + 1 :]
            for j in A.class_members[t]:
                ins = _oracle_insert_odd(odds, ("d", j))
                if ins is not None:
                    sign, new_odds = ins
                    terms.append(((rest, new_odds), c * (-sign)))
    return _oracle_accumulate(A, terms)


def oracle_floer_differential(A, e):
    sign_n = (-1) ** A.n
    terms = [(m, c * sign_n) for m, c in oracle_boundary(A, e).items()]
    for j, area in enumerate(A.facet_areas):
        weight = monomial(sign_n, area, 1)
        for (evens, odds), c in e.items():
            ins = _oracle_insert_odd(odds, ("d", j))
            if ins is not None:
                sign, new_odds = ins
                terms.append(((evens, new_odds), c * weight * sign))
    return _oracle_accumulate(A, terms)


def oracle_corrected_cycle(A, P):
    num_classes = len(A.class_areas)
    terms = []
    for (_, odds), c in P.items():
        for mask in range(2**num_classes):
            S = tuple(t for t in range(num_classes) if mask >> t & 1)
            area = sum((A.class_areas[t] for t in S), Fraction(0))
            terms.append(((S, odds), c * monomial(1, area, len(S))))
    return _oracle_accumulate(A, terms)


def assert_chain_normal(e) -> None:
    """e is what the validating constructor would build from its own
    terms, and no coefficient is zero or out of Novikov normal form."""
    assert chains.ChainExpression(e.dims, e.items()) == e
    for _mono, c in e.items():
        assert c
        assert_normal(c)


def assert_clifford_normal(x) -> None:
    """x's keys are strictly increasing index tuples in range(x.n), and
    every coefficient is nonzero and in Novikov normal form."""
    for subset, c in x._coeffs.items():
        assert type(subset) is tuple
        assert all(type(i) is int and 0 <= i < x.n for i in subset)
        assert all(a < b for a, b in zip(subset, subset[1:]))
        assert c
        assert_normal(c)


# Test oracle: the Clifford product as clifford.py first ran it.  Each
# pair of basis words is joined and bubble-sorted on a stack: swapping a
# descent flips the pending sign and leaves a Q_ab term without the pair,
# and a repeated generator becomes Q_aa / 2.


def _oracle_word_normal_form(Q, word):
    half = [Q.entry(a, a) * Fraction(1, 2) for a in range(Q.n)]
    out = {}
    stack = [(list(word), ONE, 1)]
    while stack:
        w, c, sign = stack.pop()
        pos = next((p for p in range(len(w) - 1) if w[p] >= w[p + 1]), None)
        if pos is None:
            key = tuple(w)
            acc = out.get(key, ZERO) + (c if sign > 0 else -c)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
            continue
        a, b = w[pos], w[pos + 1]
        rest = w[:pos] + w[pos + 2 :]
        if a == b:
            if half[a]:
                stack.append((rest, c * half[a], sign))
        else:
            stack.append((w[:pos] + [b, a] + w[pos + 2 :], c, -sign))
            q = Q.entry(a, b)
            if q:
                stack.append((rest, c * q, sign))
    return sorted(out.items())


def oracle_cl_mul(Q, x, y):
    """x * y in Cl(Q), one rewritten word per pair of basis words."""
    out = {}
    for sx, cx in x.items():
        for sy, cy in y.items():
            c = cx * cy
            for subset, unit_coeff in _oracle_word_normal_form(Q, sx + sy):
                out[subset] = out.get(subset, ZERO) + c * unit_coeff
    return CliffordElement(x.n, out)


def oracle_reduce_degenerate_pairs(A, e):
    """The degenerate-pair normal form as first written: rewrite the
    least redex monomial in sorted order, merge its images into the
    expression at once, and search again from the start."""
    leaders = {members[-1]: t for t, members in enumerate(A.class_members)}
    coeffs = {m: c for m, c in e.items()}
    while True:
        redex = None
        for mono in sorted(coeffs):
            evens, odds = mono
            for kind, j in odds:
                if kind == "d" and j in leaders and leaders[j] in evens:
                    redex = (mono, j, leaders[j])
                    break
            if redex:
                break
        if redex is None:
            break
        (evens, odds), jstar, t = redex
        c = coeffs.pop((evens, odds))
        p = odds.index(("d", jstar))
        sign_out = -1 if p % 2 else 1
        stripped = odds[:p] + odds[p + 1 :]
        for j in A.class_members[t]:
            if j == jstar:
                continue
            ins = _oracle_insert_odd(stripped, ("d", j))
            if ins is None:
                continue
            sign_in, new_odds = ins
            key = (evens, new_odds)
            acc = coeffs.get(key, ZERO) + c * (-sign_out * sign_in)
            if acc:
                coeffs[key] = acc
            else:
                coeffs.pop(key, None)
    return chains.ChainExpression(A.dims, coeffs)


def oracle_chain_map_certificate(A, P):
    """The chain-map certificate along its full path, once per P: build
    the corrected cycle, differentiate and reduce it, and check the
    filtration on every set of classes against every coefficient of P."""
    corrected = oracle_corrected_cycle(A, P)
    diff = oracle_floer_differential(A, corrected)
    residual = len(diff.items())
    overdim = sum(1 for mono, _ in diff.items() if chains._degree(mono) > A.n)
    reduced_to_zero = not oracle_reduce_degenerate_pairs(A, diff)
    filtration_ok = True
    num_classes = len(A.class_areas)
    for (_, odds), c in P.items():
        for mask in range(2**num_classes):
            S = tuple(t for t in range(num_classes) if mask >> t & 1)
            if corrected.coefficient((S, odds)).valuation() < c.valuation():
                filtration_ok = False
    return chains.ChainMapCertificate(
        holds=reduced_to_zero and filtration_ok,
        residual_terms=residual,
        overdimension_terms=overdim,
        square_rule_terms=residual - overdim,
        reduced_to_zero=reduced_to_zero,
        filtration_ok=filtration_ok,
        correction_terms_above_n=len(corrected.part_above_degree(A.n).items()),
    )


# Test oracles: analyze's chain_map block as first written, one
# certificate per basis monomial l_S, and the same block as binomial sums
# in (n, N, l) at a balanced fiber with N facets and l area classes.


def oracle_summed_certificate(A):
    """The certificates of the 2^n basis monomials l_S, summed field by
    field; the verdicts hold when they hold for every l_S."""
    certs = [A.chain_map_certificate(A.l_monomial(S)) for S in subsets_graded(A.n)]
    return chains.ChainMapCertificate(
        holds=all(c.holds for c in certs),
        residual_terms=sum(c.residual_terms for c in certs),
        overdimension_terms=sum(c.overdimension_terms for c in certs),
        square_rule_terms=sum(c.square_rule_terms for c in certs),
        reduced_to_zero=all(c.reduced_to_zero for c in certs),
        filtration_ok=all(c.filtration_ok for c in certs),
        correction_terms_above_n=sum(c.correction_terms_above_n for c in certs),
    )


def chain_map_block(cert, n):
    """analyze's chain_map block for the summed certificate of dimension n."""
    return {
        "monomials_checked": 2**n,
        "all_hold": cert.holds,
        "correction_terms_above_dim": cert.correction_terms_above_n,
        "residual_terms_above_dim": cert.overdimension_terms,
        "residual_terms_square_rule": cert.square_rule_terms,
    }


def closed_form_chain_map(n, N, l):
    """The chain_map block at a balanced fiber.  E = d(T) has one term
    d_j * Q_R for each facet j and each set R of r >= 1 classes holding
    j's class, N * C(l - 1, r - 1) of degree 1 + 2r; T has C(l, r) terms
    Q_R of degree 2r; and C(n, k) basis monomials l_S have degree k."""
    def above(count, degree):
        return sum(math.comb(n, k) * count for k in range(n + 1) if degree + k > n)

    residual = 2**n * N * 2 ** (l - 1)
    overdim = sum(above(N * math.comb(l - 1, r - 1), 1 + 2 * r) for r in range(1, l + 1))
    return {
        "monomials_checked": 2**n,
        "all_hold": True,
        "correction_terms_above_dim": sum(above(math.comb(l, r), 2 * r) for r in range(l + 1)),
        "residual_terms_above_dim": overdim,
        "residual_terms_square_rule": residual - overdim,
    }


# Test oracle: Fourier-Motzkin elimination as toric.py first ran it, on
# rows  sum_i a_i x_i >= b  (strict when the flag is set) with Fraction
# right-hand sides, every combination and every back-substituted bound a
# Fraction, and no row ever dropped.


def _oracle_eliminate_last(rows, nvars):
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
            coeffs = tuple(cp * an[i] - cn * ap[i] for i in range(nvars - 1))
            rest.append((coeffs, cp * bn - cn * bp, sp or sn))
    return rest


def _oracle_stages(rows, nvars):
    """systems[k] constrains variables x_0..x_{k-1}; systems[nvars] = input."""
    systems = [rows]
    for k in range(nvars, 0, -1):
        systems.append(_oracle_eliminate_last(systems[-1], k))
    systems.reverse()
    return systems


def _oracle_consistent(constants):
    for _a, b, strict in constants:
        if (b > 0) or (strict and b == 0):
            return False
    return True


def _oracle_pick_inside(lowers, uppers):
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


def oracle_solve_strict(rows, nvars):
    """A point satisfying all rows, or None; exact back substitution."""
    systems = _oracle_stages(rows, nvars)
    if not _oracle_consistent(systems[0]):
        return None
    values = []
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
        v = _oracle_pick_inside(lowers, uppers)
        if v is None:
            return None
        values.append(v)
    return tuple(values)


# Test oracle: polytope validation as first written.  Boundedness is one
# exact feasibility solve per signed axis on the recession cone
# {d : <d, v_k> >= 0}, and the coordinate bounds are read per axis.


def _oracle_coordinate_bounds(normals, offsets, n):
    bounds = []
    for i in range(n):
        perm = [i] + [j for j in range(n) if j != i]
        rows = [
            (tuple(Fraction(v[p]) for p in perm), Fraction(lam), False)
            for v, lam in zip(normals, offsets)
        ]
        lo, hi = None, None
        for a, b, _s in _oracle_stages(rows, n)[1]:
            c = a[0]
            if c > 0:
                lo = b / c if lo is None else max(lo, b / c)
            elif c < 0:
                hi = b / c if hi is None else min(hi, b / c)
        bounds.append((lo, hi))
    return bounds


def oracle_validate(normals, offsets, n):
    """("unbounded" | "empty" | "ok", interior witness, coordinate bounds)
    for primitive normals of dimension n, as make_toric first decided it."""
    cone = [(tuple(Fraction(c) for c in v), Fraction(0), False) for v in normals]
    for i in range(n):
        for sign in (1, -1):
            axis = tuple(Fraction(sign if j == i else 0) for j in range(n))
            if oracle_solve_strict(cone + [(axis, Fraction(0), True)], n) is not None:
                return "unbounded", None, None
    witness = oracle_solve_strict(
        [(tuple(Fraction(c) for c in v), Fraction(lam), True) for v, lam in zip(normals, offsets)],
        n,
    )
    if witness is None:
        return "empty", None, None
    return "ok", witness, _oracle_coordinate_bounds(normals, offsets, n)


# Test oracle: the geometry of toric.py as written before it moved to
# integer numerators.  Every product <u_i * v_ki>, every partial sum and
# every Fourier-Motzkin coefficient is a Fraction.


def oracle_disc_areas(X, f):
    u = tuple(Fraction(x) for x in (f.u if isinstance(f, Fiber) else f))
    if len(u) != X.n:
        raise toric.NotInterior(f"fiber point has dimension {len(u)}, expected {X.n}")
    out = []
    for k, (v, lam) in enumerate(zip(X.normals, X.offsets)):
        e = sum(ui * vi for ui, vi in zip(u, v)) - lam
        if e <= 0:
            raise toric.NotInterior(
                f"point {tuple(map(str, u))} is not strictly inside: "
                f"facet {k + 1} has distance {e}"
            )
        out.append(toric.DiscClass(k, v, e))
    return tuple(out)


def oracle_interior_grid(X, step):
    ranges = []
    for lo, hi in X.bounds:
        start = math.floor(lo / step)
        stop = math.ceil(hi / step)
        ranges.append([step * k for k in range(start, stop + 1)])
    for point in itertools.product(*ranges):
        if all(
            sum(ui * vi for ui, vi in zip(point, v)) - lam > 0
            for v, lam in zip(X.normals, X.offsets)
        ):
            yield point


def oracle_fraction_rows(X, strict):
    """X's facet inequalities as Fourier-Motzkin rows of Fractions."""
    return [
        (tuple(Fraction(c) for c in v), Fraction(lam), strict)
        for v, lam in zip(X.normals, X.offsets)
    ]


def oracle_coordinate_bounds(rows, nvars):
    bounds = []
    for i in range(nvars):
        perm = [i] + [j for j in range(nvars) if j != i]
        single = _oracle_stages([(tuple(a[p] for p in perm), b, s) for a, b, s in rows], nvars)[1]
        lowers = [b / a[0] for a, b, _s in single if a[0] > 0]
        uppers = [b / a[0] for a, b, _s in single if a[0] < 0]
        if not lowers or not uppers:
            raise toric.InvalidPolytope("normals do not positively span, polytope is unbounded")
        bounds.append((max(lowers), min(uppers)))
    return bounds


# Test oracle: scan as first written.  Every grid point from the Fraction
# grid above goes through the exact path: disc areas, the area partition,
# the class normal sums and the Novikov obstruction form.


def oracle_scan(X, grid):
    """scan's document for X at grid step 1/grid."""
    scanned = 0
    balanced_fibers = []
    nonzero_unbalanced = 0
    for point in oracle_interior_grid(X, Fraction(1, grid)):
        scanned += 1
        partition = toric.area_partition(disc_areas(X, Fiber(point)))
        ok = toric._balance(X, partition).balanced
        rank = floer._hf_rank(X.n, oracle_obstruction_form(X, Fiber(point)))
        if ok:
            balanced_fibers.append({"u": [str(u) for u in point], "hf_rank": rank})
        elif rank != 0:
            nonzero_unbalanced += 1
    return {
        "polytope": {"name": X.name, "dim": X.n},
        "grid": grid,
        "points_scanned": scanned,
        "balanced_fibers": balanced_fibers,
        "unbalanced_points_with_nonzero_rank": nonzero_unbalanced,
    }


# Test oracle: W, its gradient and its Hessian as the solver first built
# them, over every normal entry, zeros included, each Hessian row a new
# list per facet.


def oracle_w_grad_hess_at(normals, distances):
    """W, its gradient and its Hessian from the facet distances at a point."""
    n = len(normals[0])
    w, grad, hess = 0.0, [0.0] * n, [[0.0] * n for _ in range(n)]
    for v, ell in zip(normals, distances):
        e = math.exp(-ell)
        w += e
        for i, row in enumerate(hess):
            ev = e * v[i]
            grad[i] -= ev
            hess[i] = [h + ev * c for h, c in zip(row, v)]
    return w, grad, hess


def _oracle_w_grad_hess(X, u):
    return oracle_w_grad_hess_at(X.normals, potential._distances(X, u))


# Test oracle: the l-table from prefix products over every facet: each
# sorted key extends its prefix's weights by one column of boundary
# pairings, and every key's weights are summed per area class.


def oracle_l_table(X, partition, lmax):
    pairings = [[potential.boundary_pairing(X.n, v, i) for v in X.normals] for i in range(X.n)]
    table = {}
    level = {(): [1] * X.num_facets}
    for m in range(lmax + 1):
        for key, weights in level.items():
            table[key] = sum(
                (monomial(sum(weights[k] for k in idxs), area, 1) for area, idxs in partition),
                ZERO,
            )
        if m < lmax:
            level = {
                (*key, i): [w * p for w, p in zip(weights, pairings[i])]
                for key, weights in level.items()
                for i in range(key[-1] if key else 0, X.n)
            }
    return table


# Test oracle: the solver's rounding of a float coordinate, the library's
# continued fraction.


def oracle_limit_denominator(x, bound=10**6):
    return Fraction(x).limit_denominator(bound)


def oracle_round_fiber(X, u):
    """The rounding of u when it is exactly balanced, else the float iterate."""
    candidate = Fiber(tuple(oracle_limit_denominator(x) for x in u))
    try:
        if toric.is_balanced(X, candidate).balanced:
            return candidate
    except NotInterior:
        pass
    return Fiber(tuple(Fraction(x) for x in u), exact=False)


# Test oracle: the Newton solver as first written.  Each line-search
# candidate is tested for interiority, then W, its gradient and its
# Hessian are built there (by the dense oracle_w_grad_hess_at) to read W
# alone, and the next iteration builds all three again at the accepted
# point.


def oracle_find_critical_fiber(X, init=None, tol=1e-12, max_iters=50):
    """find_critical_fiber with two evaluations per accepted point."""
    start = X.interior_point if init is None else tuple(init)
    if len(start) != X.n:
        raise NotInterior(f"initial point has dimension {len(start)}, expected {X.n}")
    u = [float(x) for x in start]
    if not min(potential._distances(X, u)) > 0:
        raise NotInterior(f"initial point {start} is not strictly interior")

    for _ in range(max_iters):
        w, grad, hess = _oracle_w_grad_hess(X, u)
        if max(map(abs, grad)) < tol:
            return oracle_round_fiber(X, u)
        step = potential._solve(hess, [-g for g in grad])
        t = 1.0
        for _ in range(potential._MAX_HALVINGS):
            cand = [x + t * s for x, s in zip(u, step)]
            if min(potential._distances(X, cand)) > 0:
                w_cand, _, _ = _oracle_w_grad_hess(X, cand)
                if w_cand <= w * (1 + 1e-12):
                    u = cand
                    break
            t /= 2
        else:
            raise NoConvergence("step damping failed to find an interior descent point")
    grad_norm = max(map(abs, _oracle_w_grad_hess(X, u)[1]))
    if grad_norm < tol:
        return oracle_round_fiber(X, u)
    raise NoConvergence(
        f"gradient norm {grad_norm:.3e} not below tol={tol} after {max_iters} iterations"
    )


# Test oracle: Novikov rendering as first written, with Fraction
# arithmetic on every term: abs, a comparison with 1 and str.


def oracle_fmt_exp(x) -> str:
    s = str(x)
    if len(s) == 1 and s.isdigit():
        return s
    return "{" + s + "}"


def oracle_t_text(t) -> str:
    """str's spelling of T^t."""
    return "T" if t == 1 else f"T^{oracle_fmt_exp(t)}"


def oracle_render(x, t_text=oracle_t_text) -> str:
    """x as a signed sum of terms; t_text(t) spells T^t for t != 0."""
    if not x.terms:
        return "0"
    pieces = []
    for coeff, t, q in x.terms:
        tpart = "" if t == 0 else t_text(t)
        qpart = "" if q == 0 else ("q" if q == 1 else f"q^{oracle_fmt_exp(q)}")
        core = "*".join(p for p in (tpart, qpart) if p)
        mag = abs(coeff)
        if core and mag == 1:
            body = core
        elif core:
            body = f"{mag}*{core}"
        else:
            body = str(mag)
        pieces.append((coeff < 0, body))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


# Test oracle: analyze's l_products rows as cmd_analyze first built them,
# one dict and one indices list per ordered index tuple, each value looked
# up by its sorted tuple.


def oracle_l_rows(n, lmax, text, numeric=None):
    """The rows from rendered values (and numeric columns) keyed by sorted
    0-based index tuples."""
    keys = [key for key in text if len(key) <= lmax]
    value = {tuple(i + 1 for i in key): text[key] for key in keys}
    rows = [
        (list(idx), tuple(sorted(idx)))
        for m in range(lmax + 1)
        for idx in itertools.product(range(1, n + 1), repeat=m)
    ]
    if numeric is not None:
        numbers = {tuple(i + 1 for i in key): numeric[key] for key in keys}
        return [
            {"indices": idx, "numeric": numbers[key], "value": value[key]}
            for idx, key in rows
        ]
    return [{"indices": idx, "value": value[key]} for idx, key in rows]


def oracle_l_products(X, f, lmax, numeric=False, two_pi=False):
    """analyze's l_products at the fiber f, from the per-disc sums of
    oracle_l_product rendered by oracle_render."""
    t_text = (lambda t: f"T^{float(t) * 2 * math.pi:.6g}") if two_pi else oracle_t_text
    table = {
        key: oracle_l_product(X, f, key)
        for m in range(lmax + 1)
        for key in itertools.combinations_with_replacement(range(X.n), m)
    }
    text = {key: oracle_render(value, t_text) for key, value in table.items()}
    numbers = {key: repr(value.numeric()) for key, value in table.items()} if numeric else None
    return oracle_l_rows(X.n, lmax, text, numbers)


def oracle_l_product_lines(rows):
    """The text report's l(...) lines for these rows."""
    lines = []
    for row in rows:
        label = ",".join(str(i) for i in row["indices"]) or "-"
        extra = f"   numeric {row['numeric']}" if "numeric" in row else ""
        lines.append(f"  l({label}) = {row['value']}{extra}")
    return lines
