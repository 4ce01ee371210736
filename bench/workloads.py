"""Seeded jobs for the three workloads and the references that check them.

A job is one call into the program. The program sees only generated
inputs: polytope JSON text, fiber strings and basis pairs. Every
expected answer is computed here from the polytope data, with no call
into toricfloer, so a defect in the library cannot hide in its own
reference.

Each pass of a workload holds the same families of jobs; the seed (and
the pass index) choose translations, dilations and job order. The cost of
a pass therefore hardly depends on the seed, which keeps run-to-run spread
small, while the program never sees the same input twice in a row.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

# Failure reason tags, in the order the checks apply them.
TIMEOUT = "timeout"
EXIT_CODE = "exit_code"
EXCEPTION = "exception"
WRONG_FIBER = "wrong_fiber"
WRONG_RANK = "wrong_rank"
WRONG_CHAIN_MAP = "wrong_chain_map"
WRONG_PRODUCT = "wrong_product"


# ---------------------------------------------------------------------------
# polytopes, built and solved by the benchmark itself


@dataclass(frozen=True)
class Polytope:
    """{u : <u, v_k> >= lambda_k} with its exact critical point and bounding box."""

    name: str
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]
    centre: tuple[Fraction, ...]
    box: tuple[tuple[Fraction, Fraction], ...]

    @property
    def n(self) -> int:
        return len(self.centre)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "dim": self.n,
                "facets": [
                    {"normal": list(v), "offset": str(lam)}
                    for v, lam in zip(self.normals, self.offsets)
                ],
            }
        )

    def areas(self, u) -> list[Fraction]:
        return [
            sum(ui * vi for ui, vi in zip(u, v)) - lam
            for v, lam in zip(self.normals, self.offsets)
        ]


def simplex(n: int, k: int = 1, t=None) -> Polytope:
    """CPn(n) dilated by k and translated by t: every area is k/(n+1) at t + k/(n+1)."""
    t = tuple(Fraction(x) for x in (t or (0,) * n))
    normals = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    normals.append((-1,) * n)
    offsets = list(t) + [-(k + sum(t))]
    centre = tuple(ti + Fraction(k, n + 1) for ti in t)
    box = tuple((ti, ti + k) for ti in t)
    return Polytope(f"CPn({n})x{k}", tuple(normals), tuple(offsets), centre, box)


def cube(m: int, k: int = 1, t=None) -> Polytope:
    """(CP1)^m dilated by k and translated by t, centred at t + k/2."""
    t = tuple(Fraction(x) for x in (t or (0,) * m))
    normals, offsets = [], []
    for i in range(m):
        e = tuple(int(j == i) for j in range(m))
        normals += [e, tuple(-c for c in e)]
        offsets += [t[i], -(t[i] + k)]
    centre = tuple(ti + Fraction(k, 2) for ti in t)
    box = tuple((ti, ti + k) for ti in t)
    return Polytope(f"(CP1)^{m}x{k}", tuple(normals), tuple(offsets), centre, box)


def rectangle(k: int = 1, t=(0, 0)) -> Polytope:
    """[0,2k] x [0,k] translated by t; critical at t + (k, k/2), two area classes."""
    t0, t1 = (Fraction(x) for x in t)
    normals = ((1, 0), (-1, 0), (0, 1), (0, -1))
    offsets = (t0, -(t0 + 2 * k), t1, -(t1 + k))
    centre = (t0 + k, t1 + Fraction(k, 2))
    box = ((t0, t0 + 2 * k), (t1, t1 + k))
    return Polytope(f"rect x{k}", normals, offsets, centre, box)


def grid_points(P: Polytope, g: int) -> list[tuple[Fraction, ...]]:
    """Points of the lattice (1/g)Z^n strictly inside P, by brute force over the box."""
    axes = [
        range(math.ceil(lo * g), math.floor(hi * g) + 1) for lo, hi in P.box
    ]
    out = []
    for js in itertools.product(*axes):
        u = tuple(Fraction(j, g) for j in js)
        if all(a > 0 for a in P.areas(u)):
            out.append(u)
    return out


def _fracs(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


# ---------------------------------------------------------------------------
# checks of one job's output; each returns None or a reason tag


def check_analyze(P: Polytope, doc: dict) -> Optional[str]:
    fiber = doc["fiber"]
    if fiber["exact"] is not True or _fracs(fiber["u"]) != list(P.centre):
        return WRONG_FIBER
    if doc["balanced"] is not True:
        return WRONG_FIBER
    if doc["hf_rank"] != 2**P.n:
        return WRONG_RANK
    cm = doc.get("chain_map")
    if cm is None or cm["all_hold"] is not True or cm["monomials_checked"] != 2**P.n:
        return WRONG_CHAIN_MAP
    return None


def check_scan(P: Polytope, g: int, doc: dict) -> Optional[str]:
    if doc["points_scanned"] != len(grid_points(P, g)):
        return WRONG_FIBER
    on_grid = all((c * g).denominator == 1 for c in P.centre)
    expected = [list(P.centre)] if on_grid else []
    if [_fracs(b["u"]) for b in doc["balanced_fibers"]] != expected:
        return WRONG_FIBER
    if any(b["hf_rank"] != 2**P.n for b in doc["balanced_fibers"]):
        return WRONG_RANK
    if doc["unbalanced_points_with_nonzero_rank"] != 0:
        return WRONG_RANK
    return None


# ---------------------------------------------------------------------------
# reference Clifford algebra
#
# A Novikov polynomial is a dict {(t_exp, q_exp): coeff}; an algebra element
# a dict {sorted index tuple: polynomial}. The product is built by
# left-multiplying one generator at a time, which shares no code or
# algorithm with the library's rewriting of concatenated words.

Poly = dict
Elem = dict


def _padd(acc: Poly, p: Poly, scale=1) -> None:
    for key, c in p.items():
        v = acc.get(key, 0) + c * scale
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (t1, q1), c1 in a.items():
        for (t2, q2), c2 in b.items():
            _padd(out, {(t1 + t2, q1 + q2): c1 * c2})
    return out


def _eadd(acc: Elem, word: tuple, p: Poly) -> None:
    cur = dict(acc.get(word, {}))
    _padd(cur, p)
    if cur:
        acc[word] = cur
    else:
        acc.pop(word, None)


class ReferenceClifford:
    """Clifford algebra of Q_ij = sum_k v_ki v_kj T^{e_k} q at the point u,
    with C_i C_j + C_j C_i = Q_ij and C_i^2 = Q_ii / 2."""

    def __init__(self, P: Polytope, u):
        self.n = P.n
        areas = P.areas(u)
        self.Q = [
            [{} for _ in range(self.n)] for _ in range(self.n)
        ]
        for i in range(self.n):
            for j in range(self.n):
                for v, e in zip(P.normals, areas):
                    _padd(self.Q[i][j], {(e, 1): Fraction(v[i] * v[j])})
        self._memo: dict = {}

    def left(self, i: int, word: tuple) -> Elem:
        """C_i times the basis word C_word (word sorted)."""
        key = (i, word)
        if key not in self._memo:
            if not word or i < word[0]:
                out = {(i,) + word: {(Fraction(0), 0): Fraction(1)}}
            elif i == word[0]:
                half = {k: c / 2 for k, c in self.Q[i][i].items()}
                out = {word[1:]: half} if half else {}
            else:
                # C_i C_w0 = -C_w0 C_i + Q_{i w0}; every word of C_i*rest is > w0
                out = {}
                for w, c in self.left(i, word[1:]).items():
                    _eadd(out, (word[0],) + w, {k: -v for k, v in c.items()})
                if self.Q[i][word[0]]:
                    _eadd(out, word[1:], self.Q[i][word[0]])
            self._memo[key] = out
        return self._memo[key]

    def product(self, S: tuple, T: tuple) -> Elem:
        cur: Elem = {T: {(Fraction(0), 0): Fraction(1)}}
        for i in reversed(S):
            nxt: Elem = {}
            for w, c in cur.items():
                for w2, c2 in self.left(i, w).items():
                    _eadd(nxt, w2, _pmul(c, c2))
            cur = nxt
        return cur


def clifford_as_dict(x) -> Elem:
    """A library CliffordElement in the reference representation."""
    return {
        tuple(s): {(t, q): c for c, t, q in coeff.terms} for s, coeff in x.items()
    }


# ---------------------------------------------------------------------------
# jobs and workloads


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    inputs: tuple = field(default=())


def _run_cli(argv: list[str]):
    from toricfloer import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(check_doc):
    def check(result) -> Optional[str]:
        code, text = result
        if code != 0:
            return EXIT_CODE
        return check_doc(json.loads(text))

    return check


def _translation(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(-9, 9) for _ in range(n))


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


# Grid densities per family. The density sets the fiber denominators and so
# the length of each inversion series: cost per job spans 0.002 s to 0.9 s.
# The list is fixed (the seed moves the polytopes and the order) so every
# pass costs about the same; 15 jobs keep p50 and p90 inside one job family.
SCAN_FAMILIES = (  # (maker, dimension, grid densities)
    (simplex, 1, (2, 3, 4, 5, 6, 7, 8)),  # CP1
    (simplex, 2, (3, 4, 5)),  # CP2
    (cube, 2, (2, 3, 4)),  # CP1xCP1
    (simplex, 3, (4, 5)),  # CPn(3)
)


def _label(P: Polytope) -> str:
    return f"{P.name} centre ({','.join(map(str, P.centre))})"


def scan_job(P: Polytope, g: int) -> Job:
    argv = ["scan", "--input", P.to_json(), "--grid", str(g), "--format", "json"]
    return Job(
        f"scan {_label(P)} g={g}",
        lambda: _run_cli(argv),
        _cli_check(lambda doc: check_scan(P, g, doc)),
        tuple(argv),
    )


def scan_pass(seed: int, pass_index: int) -> list[Job]:
    rng = _rng("scan", seed, pass_index)
    jobs = []
    for make, n, grids in SCAN_FAMILIES:
        for g in grids:
            jobs.append(scan_job(make(n, 1, _translation(rng, n)), g))
    rng.shuffle(jobs)
    return jobs


def analyze_job(P: Polytope) -> Job:
    argv = ["analyze", "--input", P.to_json(), "--format", "json"]
    return Job(
        f"analyze {_label(P)}",
        lambda: _run_cli(argv),
        _cli_check(lambda doc: check_analyze(P, doc)),
        tuple(argv),
    )


def analyze_pass(seed: int, pass_index: int) -> list[Job]:
    """CPn(1..6), (CP1)^1..6 and the rectangle at the solver fiber.

    Dilations stay in 1..5, where the solver rounds to the exact point;
    the larger dilations that break it are in known_defects().
    """
    rng = _rng("analyze", seed, pass_index)
    polys = []
    for n in range(1, 7):
        polys.append(simplex(n, rng.randint(1, 5), _translation(rng, n)))
        polys.append(cube(n, rng.randint(1, 5), _translation(rng, n)))
    polys.append(rectangle(rng.randint(1, 5), _translation(rng, 2)))
    jobs = [analyze_job(P) for P in polys]
    rng.shuffle(jobs)
    return jobs


RING_FAMILIES = (  # (maker, dimension): CPn(1..5), (CP1)^1..4, rectangle
    [(simplex, n) for n in range(1, 6)]
    + [(cube, m) for m in range(1, 5)]
    + [(lambda _n, k, t: rectangle(k, t), 2)]
)


def ring_jobs_for(P: Polytope) -> list[Job]:
    """The full basis table of m2_product at the critical fiber of P."""
    from toricfloer import CliffordElement, Fiber, floer, load_toric

    X = load_toric(P.to_json())
    fiber_text = ",".join(map(str, P.centre))
    f = Fiber(tuple(Fraction(s) for s in fiber_text.split(",")))
    ref = ReferenceClifford(P, P.centre)
    subsets = [
        tuple(i for i in range(P.n) if mask >> i & 1) for mask in range(2**P.n)
    ]
    basis = {S: CliffordElement.basis_element(P.n, S) for S in subsets}

    def job(S, T) -> Job:
        x, y = basis[S], basis[T]

        def check(out) -> Optional[str]:
            return None if clifford_as_dict(out) == ref.product(S, T) else WRONG_PRODUCT

        return Job(
            f"ring {_label(P)}: C{S} * C{T}",
            lambda: floer.m2_product(X, f, x, y),
            check,
            (P.to_json(), fiber_text, S, T),
        )

    return [job(S, T) for S, T in itertools.product(subsets, repeat=2)]


def ring_pass(seed: int, pass_index: int) -> list[Job]:
    """Every product of basis words for ten polytopes.

    Each polytope gets a dilation no other polytope of the run has, so no
    two share a formal Hessian and a cache keyed by it grows with the run.
    """
    rng = _rng("ring", seed, pass_index)
    # pass p draws its dilations from the block 100p + 1 .. 100p + 99
    dilations = rng.sample(range(1, 100), len(RING_FAMILIES))
    jobs = []
    for (make, n), k in zip(RING_FAMILIES, dilations):
        P = make(n, k + 100 * pass_index, _translation(rng, n))
        jobs.extend(ring_jobs_for(P))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"scan": scan_pass, "analyze": analyze_pass, "ring": ring_pass}


# ---------------------------------------------------------------------------
# known defects at the seed of this benchmark: not part of any workload,
# because every workload job must pass; run them with `run.py --defects`


def known_defects() -> list[tuple[Job, str]]:
    """(job, reason the job fails with while the defect stands)."""
    return [
        # the float iterate is not exact, and inverting at its binary
        # denominators does not finish
        (analyze_job(simplex(2, 60)), TIMEOUT),
        # exp underflows, the solver stops at (1500, 750) and calls it rank 4
        (analyze_job(simplex(2, 3000)), WRONG_FIBER),
        # areas above both rank cutoffs truncate to a zero matrix: 58 points
        # report rank 2 although they are unbalanced
        (scan_job(simplex(1, 100), 1), WRONG_RANK),
    ]
