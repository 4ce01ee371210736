"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import json
import math
import random
from argparse import Namespace
from fractions import Fraction as F
from itertools import combinations, product as iter_product

import pytest

from toricfloer import (
    ChainAlgebra,
    CliffordElement,
    Fiber,
    InvalidPolytope,
    NotInterior,
    boundary_pairing,
    cl_mul,
    disc_areas,
    disc_l_term,
    find_critical_fiber,
    formal_hessian,
    hf_rank,
    interior_grid,
    is_balanced,
    l_product,
    load_toric,
    m1_apply,
    m2_product,
    make_toric,
    subsets_graded,
    superpotential_derivative,
)
from toricfloer.cli import CONVENTION_NOTE, cmd_analyze, main
from toricfloer.floer import differential_matrix
from toricfloer.novikov import ONE, ZERO, monomial

from conftest import balanced_fiber, exact_differential_rank, random_interior_fiber

BUILTINS = ["CP1", "CP2", "CP1xCP1", "CPn(3)"]


def check(num: int, desc: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num:02d} [{desc}]: FAIL")
        raise
    print(f"criterion {num:02d} [{desc}]: PASS")


def coarse_fiber(X, rng):
    """Interior point with one small denominator, so centers get drawn."""
    return random_interior_fiber(X, rng, denom=rng.choice([4, 5, 6, 7, 8]))


# ---------------------------------------------------------------------------


def test_criterion_01_cp1_equator():
    def body():
        X = load_toric("CP1")
        equator = Fiber((F(1, 2),))
        assert hf_rank(X, equator) == 2
        point = CliffordElement.generator(1, 0)
        assert m2_product(X, equator, point, point) == CliffordElement(
            1, {(): monomial(1, F(1, 2), 1)}
        )

    check(1, "CP1 equator rank and point squared", body)


def test_criterion_02_cp2_solver_rank_scan():
    def body():
        X = load_toric("CP2")
        f = find_critical_fiber(X, max_iters=50)
        assert f.exact and f.u == (F(1, 3), F(1, 3))
        theta = [float(u) for u in f.u]
        grad = max(
            abs(superpotential_derivative(X, theta, (i,))) for i in range(2)
        )
        assert grad < 1e-12
        assert hf_rank(X, f) == 4

        rng = random.Random(101)
        rejected = 0
        while rejected < 100:
            g = coarse_fiber(X, rng)
            if is_balanced(X, g).balanced:
                continue
            assert hf_rank(X, g) == 0
            rejected += 1

        hits = [
            p for p in interior_grid(X, F(1, 12)) if is_balanced(X, p).balanced
        ]
        assert hits == [(F(1, 3), F(1, 3))]

    check(2, "CP2 critical fiber, rank dichotomy, unique balanced point", body)


def test_criterion_03_product_hessian():
    def body():
        X = load_toric("CP1xCP1")
        Q = formal_hessian(X, Fiber((F(1, 2), F(1, 2))))
        t = monomial(2, F(1, 2), 1)
        assert Q.entry(0, 0) == t and Q.entry(1, 1) == t
        assert Q.entry(0, 1) == ZERO and Q.entry(1, 0) == ZERO

    check(3, "CP1xCP1 diagonal hessian", body)


def test_criterion_04_simplex_family():
    def body():
        for n in range(1, 7):
            X = load_toric(f"CPn({n})")
            center = tuple(F(1, n + 1) for _ in range(n))
            f = find_critical_fiber(X)
            assert f.exact and f.u == center
            assert is_balanced(X, f).balanced
            assert hf_rank(X, f) == 2**n
            Q = formal_hessian(X, f)
            t = monomial(1, F(1, n + 1), 1)
            for i in range(n):
                for j in range(n):
                    assert Q.entry(i, j) == (2 * t if i == j else t)
        # the report prints full off-diagonal entries and flags the
        # halved-entry display convention
        doc = cmd_analyze(
            Namespace(
                input="CPn(3)", fiber=None, lmax=0, numeric=False,
                tol=1e-12, max_iters=50, two_pi=False,
            )
        )
        assert "halved off-diagonal" in CONVENTION_NOTE
        assert CONVENTION_NOTE in doc["notes"]
        assert doc["hessian"][0][1] == "T^{1/4}*q"

    check(4, "CPn family up to n=6 with convention flag", body)


def test_criterion_05_superpotential_oracle():
    def body():
        for name in BUILTINS:
            X = load_toric(name)
            n = X.n
            rng = random.Random(102)
            fibers = [balanced_fiber(X)] + [
                random_interior_fiber(X, rng) for _ in range(3)
            ]
            for f in fibers:
                theta = [float(u) for u in f.u]
                for m in range(0, 6):
                    for idx in iter_product(range(n), repeat=m):
                        lhs = l_product(X, f, idx).numeric()
                        rhs = (-1) ** ((n - 1) * m) * superpotential_derivative(
                            X, theta, idx
                        )
                        assert abs(rhs.imag) < 1e-14
                        err = abs(lhs - rhs.real)
                        assert err <= 1e-10 * max(1.0, abs(rhs.real))

            # central differences reproduce one more derivative order
            checked = 0
            h = 1e-5
            while checked < 20:
                f = random_interior_fiber(X, rng)
                theta = [float(u) for u in f.u]
                m = rng.randint(1, 5)
                idx = tuple(rng.randrange(n) for _ in range(m))
                exact = superpotential_derivative(X, theta, idx)
                if abs(exact) < 1e-8:
                    continue
                tp, tm = list(theta), list(theta)
                tp[idx[0]] += h
                tm[idx[0]] -= h
                fd = (
                    superpotential_derivative(X, tp, idx[1:])
                    - superpotential_derivative(X, tm, idx[1:])
                ) / (2 * h)
                assert abs(exact - fd) <= 1e-6 * abs(exact)
                checked += 1

    check(5, "l products match superpotential derivatives", body)


def test_criterion_06_divisor_equation():
    def body():
        rng = random.Random(103)

        def oracle(n, normal, area, idx):
            coeff = F((-1) ** (n * len(idx)))
            for i in idx:
                coeff *= normal[i]
            return monomial(coeff, area, 1)

        for name in BUILTINS:
            X = load_toric(name)
            f = balanced_fiber(X)
            for d in disc_areas(X, f):
                for m in range(1, 5):
                    for idx in iter_product(range(X.n), repeat=m):
                        lhs = disc_l_term(X.n, d.normal, d.area, idx)
                        assert lhs == oracle(X.n, d.normal, d.area, idx)
                        assert lhs == boundary_pairing(
                            X.n, d.normal, idx[0]
                        ) * disc_l_term(X.n, d.normal, d.area, idx[1:])

        for _ in range(120):
            n = rng.randint(1, 5)
            normal = tuple(rng.randint(-4, 4) for _ in range(n))
            area = F(rng.randint(1, 12), rng.randint(1, 12))
            m = rng.randint(1, 4)
            idx = tuple(rng.randrange(n) for _ in range(m))
            lhs = disc_l_term(n, normal, area, idx)
            assert lhs == oracle(n, normal, area, idx)
            assert lhs == boundary_pairing(n, normal, idx[0]) * disc_l_term(
                n, normal, area, idx[1:]
            )

    check(6, "divisor drop-one identity", body)


def test_criterion_07_clifford_suite():
    def body():
        rng = random.Random(104)
        for name in BUILTINS:
            X = load_toric(name)
            n = X.n
            Q = formal_hessian(X, balanced_fiber(X))
            subsets = [s for r in range(n + 1) for s in combinations(range(n), r)]

            def rand_elt(max_terms=2):
                coeffs = {}
                for _ in range(rng.randint(0, max_terms)):
                    s = rng.choice(subsets)
                    coeffs[s] = coeffs.get(s, ZERO) + monomial(
                        F(rng.randint(-4, 4)),
                        F(rng.randint(0, 4), rng.choice([1, 2, 3])),
                        rng.randint(0, 2),
                    )
                return CliffordElement(n, coeffs)

            for _ in range(500):
                x, y, z = rand_elt(), rand_elt(), rand_elt()
                assert cl_mul(Q, cl_mul(Q, x, y), z) == cl_mul(Q, x, cl_mul(Q, y, z))
            unit = CliffordElement.unit(n)
            for _ in range(100):
                x = rand_elt(3)
                assert cl_mul(Q, unit, x) == x
                assert cl_mul(Q, x, unit) == x
            for i in range(n):
                for j in range(n):
                    ci = CliffordElement.generator(n, i)
                    cj = CliffordElement.generator(n, j)
                    assert cl_mul(Q, ci, cj) + cl_mul(Q, cj, ci) == CliffordElement(
                        n, {(): Q.entry(i, j)}
                    )

    check(7, "clifford associativity, unit, anticommutator", body)


def test_criterion_08_differential_suite():
    def body():
        rng = random.Random(105)
        for name in BUILTINS:
            X = load_toric(name)
            n = X.n
            for _ in range(50):
                f = coarse_fiber(X, rng)
                for subset in subsets_graded(n):
                    x = CliffordElement.basis_element(n, subset)
                    assert not m1_apply(X, f, m1_apply(X, f, x))
                _, M = differential_matrix(X, f)
                rank = 2**n - 2 * exact_differential_rank(M)
                expected = 2**n if is_balanced(X, f).balanced else 0
                assert rank == expected == hf_rank(X, f)

    check(8, "differential squares to zero, exact rank dichotomy", body)


def test_criterion_09_chain_map_suite():
    def body():
        for name in BUILTINS:
            X = load_toric(name)
            A = ChainAlgebra.for_fiber(X, balanced_fiber(X))
            for r in range(X.n + 1):
                for subset in combinations(range(X.n), r):
                    cert = A.chain_map_certificate(A.l_monomial(subset))
                    assert cert.holds, (name, subset)
                    assert cert.reduced_to_zero
                    assert cert.filtration_ok

    check(9, "corrected cycles close and respect the filtration", body)


def test_criterion_10_robustness(capsys):
    def body():
        with pytest.raises(InvalidPolytope):
            make_toric("bad", 2, [(2, 0), (0, 1), (-1, -1)], [0, 0, -1])
        with pytest.raises(InvalidPolytope):
            make_toric("bad", 2, [(1, 0), (0, 1), (1, 1)], [0, 0, 0])
        with pytest.raises(NotInterior):
            disc_areas(load_toric("CP2"), (F(0), F(1, 2)))

        nonprimitive = json.dumps(
            {
                "name": "bad",
                "dim": 2,
                "facets": [
                    {"normal": [2, 0], "offset": 0},
                    {"normal": [0, 1], "offset": 0},
                    {"normal": [-1, -1], "offset": -1},
                ],
            }
        )
        unbounded = json.dumps(
            {
                "name": "bad",
                "dim": 2,
                "facets": [
                    {"normal": [1, 0], "offset": 0},
                    {"normal": [0, 1], "offset": 0},
                    {"normal": [1, 1], "offset": 0},
                ],
            }
        )
        skew = json.dumps(
            {
                "name": "skew",
                "dim": 2,
                "facets": [
                    {"normal": [1, 0], "offset": 0},
                    {"normal": [0, 1], "offset": 0},
                    {"normal": [-1, -2], "offset": -2},
                ],
            }
        )
        assert main(["analyze", "--input", nonprimitive]) == 2
        assert main(["analyze", "--input", unbounded]) == 2
        assert main(["analyze", "--input", "CP7"]) == 2
        assert main(["analyze", "--input", "CP2", "--fiber", "0,0"]) == 3
        assert main(["analyze", "--input", "CP2", "--fiber", "3,3"]) == 3
        assert main(
            ["analyze", "--input", skew, "--tol", "0", "--max-iters", "5"]
        ) == 4
        capsys.readouterr()

    check(10, "documented errors and exit codes", body)
