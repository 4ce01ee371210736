"""Byte-for-byte regression of the CLI's text and JSON reports.

Each file under tests/golden/ is the standard output of
`python -m toricfloer <argv>` for the argv listed in CASES, recorded
before the per-fiber Novikov sums were regrouped by area class.  The
JSON-input cases (the rectangle, whose balanced fiber has two area
classes, and (CP1)^3) were recorded before the chain-level operations
were rewritten as products in the chain algebra.  CPn(5) and (CP1)^4,
the largest certificate counts in the corpus, were recorded before the
certificate's coefficient arithmetic was streamlined.  The translated
rectangle with rational offsets was recorded before the disc areas, the
grid test and the Fourier-Motzkin rows moved to integer numerators.  The
box [0,1]x[0,2]x[0,3], whose solver fiber has three area classes, was
recorded before analyze read its chain-map block off one degree
histogram per fiber instead of one certificate per basis monomial.  The
scans of a translated CPn(3) and of F1 with a corner cut at 1/3 were
recorded before scan decided each grid point on integer area numerators.  The
scan of the 26-facet polytope with every nonzero normal in {-1,0,1}^3 was
recorded before validation ran Fourier-Motzkin on integer right-hand sides; its
80-facet twin in dimension 4, which did not validate within 120 s until
validation ran one elimination tree with merged rows, was recorded after and
checked against the closed form (nine points, one balanced centre).  The
ring tables, str(m2_product(X, f, C_S, C_T)) for every pair of basis words
at the solver fiber of CPn(3) (one area class) and of the rectangle (two),
were recorded before cl_mul moved to integer T-exponents.  CP2 in the
sheared basis with normals (5, 3), (3, 2), (-8, -5), whose normals have
no zero entry, was recorded before the solver, the gradient and the
l-table skipped zero normal entries.  CPn(6) as JSON and (CP1)^6 as
text, where the most l-table keys share one value, were recorded before
analyze built, rendered and wrote each distinct l-table value once.  The
scans of the hexagon and of CPn(3) in a sheared basis, 33 and 47 tie points
at grid 12, were recorded before scan decided each tie point on the integer
area numerators of its grid line.  CP2 dilated by 3000 was recorded when
the solver began to try exact balanced candidates before Newton, which
alone returned the wrong fiber there.  The hexagon whose balanced fiber has
two area classes, translated by (-5/q, 7/q) with q = 10^6 + 3, is analyze
--fiber at that fiber, (999988/3000009, 1000024/3000009), with its "source"
read "solver": it was recorded when the solver still rounded Newton's
iterate, which missed the fiber, before the solver read it off the
iterate's area classes.  (CP1)^3 in the sheared basis with normals +-e_1,
+-(-K, 1, 0), +-e_3 at K = 10^20, whose bounding box holds about 10^21 grid
lines at grid 4 where the polytope holds 9, was recorded when scan began to
walk its heads inside the projections of the polytope, and checked against
the closed form (27 points, one balanced centre).  A
refactor that keeps the mathematics must keep every byte; a deliberate
change of output re-records the affected files and says why.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from toricfloer import CliffordElement, cli, find_critical_fiber, load_toric, m2_product, potential, toric
from toricfloer.cli import main
from toricfloer.floer import subsets_graded

GOLDEN = Path(__file__).parent / "golden"

# one unbalanced fiber per built-in; CP1xCP1 at (1/3, 1/2) has a class
# whose normals cancel, so alpha's second coefficient is 0
UNBALANCED = {
    "CP1": "1/4",
    "CP2": "1/5,2/5",
    "CP1xCP1": "1/3,1/2",
    "CPn(3)": "1/5,1/5,2/5",
    "CPn(4)": "1/6,1/6,1/6,1/3",
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, fiber in UNBALANCED.items():
        stem = name.replace("(", "").replace(")", "")
        for fmt in ("text", "json"):
            base = ["analyze", "--input", name, "--format", fmt]
            cases[f"analyze_{stem}_solver.{fmt}"] = base
            cases[f"analyze_{stem}_unbalanced.{fmt}"] = base + ["--fiber", fiber]
    for fmt in ("text", "json"):
        cases[f"analyze_CP2_numeric_two_pi.{fmt}"] = [
            "analyze", "--input", "CP2", "--fiber", "1/4,1/3", "--numeric",
            "--two-pi", "--lmax", "2", "--format", fmt,
        ]
        cases[f"scan_CP2_grid6.{fmt}"] = [
            "scan", "--input", "CP2", "--grid", "6", "--format", fmt,
        ]
    # polytopes given as JSON text: the rectangle [0,2]x[0,1] has two
    # area classes at its balanced fiber (1, 1/2), so the correction
    # tower there has four terms
    for fmt in ("text", "json"):
        cases[f"analyze_rect_solver.{fmt}"] = [
            "analyze", "--input", RECT_JSON, "--format", fmt,
        ]
    cases["analyze_rect_two_pi.json"] = [
        "analyze", "--input", RECT_JSON, "--two-pi", "--format", "json",
    ]
    cases["analyze_CP1cubed_solver.json"] = [
        "analyze", "--input", CP1_CUBED_JSON, "--format", "json",
    ]
    # the only certificates above n = 4, and the only cube above n = 3
    cases["analyze_CPn5_solver.json"] = [
        "analyze", "--input", "CPn(5)", "--format", "json",
    ]
    cases["analyze_CP1fourth_solver.json"] = [
        "analyze", "--input", CP1_FOURTH_JSON, "--format", "json",
    ]
    # n = 6, the largest benchmark inputs: 84 sorted keys up to --lmax 3
    # take 5 distinct values on CPn(6) and 3 on (CP1)^6
    cases["analyze_CPn6_solver.json"] = [
        "analyze", "--input", "CPn(6)", "--format", "json",
    ]
    cases["analyze_CP1sixth_solver.text"] = [
        "analyze", "--input", CP1_SIXTH_JSON,
    ]
    # three area classes (1/2, 1, 3/2) at the centre (1/2, 1, 3/2): the
    # correction tower has eight terms
    cases["analyze_box123_solver.json"] = [
        "analyze", "--input", BOX_123_JSON, "--format", "json",
    ]
    # rational offsets: the rectangle dilated by 2 and translated by
    # (1/3, -2/5) has its centre (7/3, 3/5) on the grid of step 1/15 and
    # off the grid of step 1/10; at (4/3, 3/5) three facets share area 1
    # and their normals sum to (1, 0)
    for fmt in ("text", "json"):
        for grid in ("15", "10"):
            cases[f"scan_rect_shifted_grid{grid}.{fmt}"] = [
                "scan", "--input", RECT_SHIFTED_JSON, "--grid", grid, "--format", fmt,
            ]
        cases[f"analyze_rect_shifted_unbalanced.{fmt}"] = [
            "analyze", "--input", RECT_SHIFTED_JSON, "--fiber", "4/3,3/5",
            "--format", fmt,
        ]
    # CPn(3) translated by (1/2, 1/3, 1/5): its balanced fiber (3/4, 7/12,
    # 9/20) lies on the grid of step 1/60, among 32,509 interior points
    cases["scan_CPn3_shifted_grid60.json"] = [
        "scan", "--input", CPN3_SHIFTED_JSON, "--grid", "60", "--format", "json",
    ]
    # CP2 with one corner cut at 1/3 (F1@1/3): the normals do not sum to
    # zero, so no fiber is balanced
    for fmt in ("text", "json"):
        cases[f"scan_F1_third_grid12.{fmt}"] = [
            "scan", "--input", F1_THIRD_JSON, "--grid", "12", "--format", fmt,
        ]
    # 26 facets in dimension 3, beyond the 3n of a smooth Fano polytope:
    # validation eliminates across every pair of rows, and the seven grid
    # points hold the balanced centre
    cases["scan_all26_grid2.json"] = [
        "scan", "--input", ALL26_JSON, "--grid", "2", "--format", "json",
    ]
    # the same in dimension 4, 80 facets: the cross-polytope |u|_1 <= 1,
    # whose nine grid points are the centre, balanced, and the eight
    # points u_i = +-1/2
    cases["scan_all80_grid2.json"] = [
        "scan", "--input", ALL80_JSON, "--grid", "2", "--format", "json",
    ]
    # CP2 in a sheared lattice basis: every normal entry is nonzero, so the
    # float bits of W's derivatives and every l-table entry sum over all
    # facets on every axis
    for fmt in ("text", "json"):
        cases[f"analyze_CP2_sheared_solver.{fmt}"] = [
            "analyze", "--input", CP2_SHEARED_JSON, "--format", fmt,
        ]
    # many tie points per scan: the hexagon's (1, 1) and the sheared CPn(3)'s
    # (1, 1, 2) each have two facets whose normals end negative, so a grid
    # line can hold two; 33 and 47 ties, one balanced fiber each
    cases["scan_hexagon_grid12.json"] = [
        "scan", "--input", HEXAGON_JSON, "--grid", "12", "--format", "json",
    ]
    for fmt in ("text", "json"):
        cases[f"scan_CPn3_sheared_grid12.{fmt}"] = [
            "scan", "--input", CPN3_SHEARED_JSON, "--grid", "12", "--format", fmt,
        ]
    # CP2 dilated by 3000: every weight exp(-1000) underflows, so Newton
    # alone stopped at its witness (1500, 750); the exact centre (1000, 1000)
    # is balanced, with a float gradient of exactly 0
    cases["analyze_CP2x3000_solver.json"] = [
        "analyze", "--input", CP2_X3000_JSON, "--format", "json",
    ]
    # the two-class hexagon translated by (-5/q, 7/q), q = 10^6 + 3: no
    # exact candidate, so the solver reads the fiber off Newton's iterate
    cases["analyze_hexagon2_shifted_solver.json"] = [
        "analyze", "--input", HEXAGON2_SHIFTED_JSON, "--format", "json",
    ]
    # (CP1)^3 sheared by K = 10^20: scan walks only the 9 head lines inside
    # the polytope, not the about 4 * 10^21 of its bounding box
    cases["scan_cube_sheared_grid4.json"] = [
        "scan", "--input", CUBE_SHEARED_JSON, "--grid", "4", "--format", "json",
    ]
    return cases


def _polytope_json(name: str, normals, offsets) -> str:
    facets = [{"normal": list(v), "offset": str(c)} for v, c in zip(normals, offsets)]
    return json.dumps({"name": name, "dim": len(normals[0]), "facets": facets})


RECT_JSON = _polytope_json(
    "rect", [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -2, 0, -1]
)
RECT_SHIFTED_JSON = _polytope_json(
    "rect_shifted",
    [(1, 0), (-1, 0), (0, 1), (0, -1)],
    [Fraction(1, 3), Fraction(-13, 3), Fraction(-2, 5), Fraction(-8, 5)],
)


def _cube_json(k: int) -> str:
    """(CP1)^k as the unit cube [0,1]^k."""
    normals = [
        tuple(s if j == i else 0 for j in range(k)) for i in range(k) for s in (1, -1)
    ]
    return _polytope_json(f"CP1^{k}", normals, [0, -1] * k)


CP1_CUBED_JSON = _cube_json(3)
BOX_123_JSON = _polytope_json(
    "box123",
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [0, -1, 0, -2, 0, -3],
)
CP1_FOURTH_JSON = _cube_json(4)
CP1_SIXTH_JSON = _cube_json(6)
CPN3_SHIFTED_JSON = _polytope_json(
    "CPn3_shifted",
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(-61, 30)],
)
F1_THIRD_JSON = _polytope_json(
    "F1_third", [(1, 0), (1, 1), (0, 1), (-1, -1)], [0, Fraction(1, 3), 0, -1]
)
ALL26_JSON = _polytope_json(
    "all26",
    [v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)],
    [-1] * 26,
)
ALL80_JSON = _polytope_json(
    "all80",
    [v for v in itertools.product((-1, 0, 1), repeat=4) if any(v)],
    [-1] * 80,
)
CP2_SHEARED_JSON = _polytope_json(
    "CP2_sheared", [(5, 3), (3, 2), (-8, -5)], [0, 0, -1]
)
HEXAGON_JSON = _polytope_json(
    "hexagon", [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], [-1] * 6
)
CPN3_SHEARED_JSON = _polytope_json(
    "CPn3_sheared", [(1, 1, 2), (0, 1, -1), (0, 0, 1), (-1, -2, -2)], [0, 0, 0, -1]
)
CP2_X3000_JSON = _polytope_json("CP2x3000", [(1, 0), (0, 1), (-1, -1)], [0, 0, -3000])
_Q = 10**6 + 3
HEXAGON2_SHIFTED_JSON = _polytope_json(
    "hexagon2_shifted",
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [
        Fraction(-1) - Fraction(5, _Q),
        Fraction(-1) + Fraction(2, _Q),
        Fraction(-1) + Fraction(7, _Q),
        Fraction(-2) + Fraction(5, _Q),
        Fraction(-2) - Fraction(2, _Q),
        Fraction(-2) - Fraction(7, _Q),
    ],
)
CUBE_SHEARED_K = 10**20
CUBE_SHEARED_JSON = _polytope_json(
    "cube_sheared",
    [(1, 0, 0), (-1, 0, 0), (-CUBE_SHEARED_K, 1, 0), (CUBE_SHEARED_K, -1, 0), (0, 0, 1), (0, 0, -1)],
    [0, -1, 0, -1, 0, -1],
)
CASES = _cases()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_output_matches_golden(stem, capsys):
    assert main(CASES[stem]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / stem).read_text(encoding="utf-8")


def test_sheared_cube_golden_is_the_closed_form():
    # the cube [0,1]^3 in the basis u_1, u_2 - K*u_1, u_3: at grid g its
    # (g - 1)^3 points are the cube's, and only the centre (1/2, (K + 1)/2,
    # 1/2) is balanced, with the rank 2^3 of a balanced fiber
    K, g = CUBE_SHEARED_K, 4
    doc = json.loads((GOLDEN / "scan_cube_sheared_grid4.json").read_text(encoding="utf-8"))
    assert doc == {
        "polytope": {"name": "cube_sheared", "dim": 3},
        "grid": g,
        "points_scanned": (g - 1) ** 3,
        "balanced_fibers": [{"u": ["1/2", str(Fraction(K + 1, 2)), "1/2"], "hf_rank": 8}],
        "unbalanced_points_with_nonzero_rank": 0,
    }


# main builds its parser once per process, so no parsed value may reach
# the next call: an analyze with --fiber and every display flag, a scan
# and an analyze at the solver fiber, one after another
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_consecutive_calls_match_their_goldens(fmt, capsys):
    for stem in ("analyze_CP2_numeric_two_pi", "scan_CP2_grid6", "analyze_CP2_solver"):
        assert main(CASES[f"{stem}.{fmt}"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"{stem}.{fmt}").read_text(encoding="utf-8")


# main also keeps the l-product row layouts, the l-table class totals and
# the normals' supports it has used: the whole corpus from empty caches,
# then again in reverse order against warm ones
def test_corpus_twice_in_one_process_matches_its_goldens(capsys):
    cli._LProducts.layout.cache_clear()
    potential._l_totals.cache_clear()
    toric._fan_supports.cache_clear()
    stems = sorted(CASES)
    for stem in stems + stems[::-1]:
        assert main(CASES[stem]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / stem).read_text(encoding="utf-8"), stem


RING_CASES = {"ring_CPn3_solver.txt": "CPn(3)", "ring_rect_solver.txt": RECT_JSON}


def _ring_table(spec: str) -> str:
    """One line "x * y = m2_product(x, y)" per ordered pair of basis words."""
    X = load_toric(spec)
    f = find_critical_fiber(X)
    assert f.exact
    basis = [CliffordElement.basis_element(X.n, s) for s in subsets_graded(X.n)]
    return "".join(f"{x} * {y} = {m2_product(X, f, x, y)}\n" for x in basis for y in basis)


@pytest.mark.parametrize("stem", sorted(RING_CASES))
def test_ring_matches_golden(stem):
    assert _ring_table(RING_CASES[stem]) == (GOLDEN / stem).read_text(encoding="utf-8")
