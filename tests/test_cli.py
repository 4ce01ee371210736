import argparse
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricfloer import ChainAlgebra, cli, floer, potential, toric
from toricfloer.cli import CONVENTION_NOTE, main
from toricfloer.novikov import ZERO, monomial

from conftest import (
    oracle_formal_hessian,
    oracle_l_product,
    oracle_l_product_lines,
    oracle_l_products,
    oracle_l_rows,
    oracle_l_table,
    oracle_scan,
    shear,
)
from strategies import sheared_fibers

SKEW_JSON = json.dumps(
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

BIG_CP1_JSON = json.dumps(
    {
        "name": "bigCP1",
        "dim": 1,
        "facets": [
            {"normal": [1], "offset": 0},
            {"normal": [-1], "offset": -100},
        ],
    }
)

UNBOUNDED_JSON = json.dumps(
    {
        "name": "halfplane",
        "dim": 2,
        "facets": [
            {"normal": [1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 0},
            {"normal": [1, 1], "offset": 0},
        ],
    }
)


# the rectangle [0,2]x[0,1]: two area classes at its solver fiber
RECT_JSON = json.dumps(
    {
        "name": "rect",
        "dim": 2,
        "facets": [
            {"normal": [1, 0], "offset": "0"},
            {"normal": [-1, 0], "offset": "-2"},
            {"normal": [0, 1], "offset": "0"},
            {"normal": [0, -1], "offset": "-1"},
        ],
    }
)

REPEATED_CP1_JSON = json.dumps(
    {
        "name": "CP1 with a repeated facet",
        "dim": 1,
        "facets": [
            {"normal": [1], "offset": "0"},
            {"normal": [1], "offset": "0"},
            {"normal": [-1], "offset": "-1"},
        ],
    }
)


# CP1 as [-10^-5000, 1]: the offset is exact, but has 5001 digits
CP1_TINY_OFFSET_JSON = json.dumps(
    {
        "name": "CP1 tiny offset",
        "dim": 1,
        "facets": [
            {"normal": [1], "offset": "-1e-5000"},
            {"normal": [-1], "offset": "-1"},
        ],
    }
)

# the same length as an integer: the JSON parser's int() meets the limit
CP1_HUGE_INT_OFFSET_JSON = (
    '{"name": "CP1 huge", "dim": 1, "facets": [{"normal": [1], "offset": 0}, '
    '{"normal": [-1], "offset": -1' + "0" * 5000 + "}]}"
)


# CP2 and CPn(3) in a sheared lattice basis, u -> M u with M in GL(n, Z):
# the exact paths find their balanced fibers, the float solver does not
CP2_SHEARED_JSON = json.dumps(
    {
        "name": "CP2 sheared",
        "dim": 2,
        "facets": [
            {"normal": list(v), "offset": c}
            for v, c in zip([(1, -16), (-7, 113), (6, -97)], ["0", "0", "-1"])
        ],
    }
)
CP2_SHEARED_FIBER = ["43", "8/3"]

CPN3_SHEARED_JSON = json.dumps(
    {
        "name": "CPn(3) sheared",
        "dim": 3,
        "facets": [
            {"normal": list(v), "offset": c}
            for v, c in zip(
                [(391, 5, 78), (22, 111, 1443), (30, 0, 1), (-443, -116, -1522)],
                ["0", "0", "0", "-1"],
            )
        ],
    }
)
CPN3_SHEARED_FIBER = ["-1337/4", "-260589/2", "40111/4"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeText:
    def test_cp2_solver_report(self, capsys):
        code, out, err = run(capsys, "analyze", "--input", "CP2")
        assert code == 0 and not err
        assert "polytope CP2 (dim 2)" in out
        assert "fiber (1/3, 1/3)  [solver, exact]" in out
        assert "balanced: True" in out
        assert "hf_rank: 4" in out
        assert "  [2*T^{1/3}*q, T^{1/3}*q]" in out
        assert "C_1^2 = T^{1/3}*q" in out
        assert "C_1*C_2 + C_2*C_1 = T^{1/3}*q" in out
        assert "l(-) = 3*T^{1/3}*q" in out
        assert "l(1,2) = T^{1/3}*q" in out
        assert "chain map: 4 monomials checked, all_hold=True" in out
        assert "anticommutator convention" in out

    def test_given_unbalanced_fiber(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "CP2", "--fiber", "1/4,1/4")
        assert code == 0
        assert "fiber (1/4, 1/4)  [given, exact]" in out
        assert "balanced: False" in out
        assert "hf_rank: 0" in out
        assert "clifford relations" not in out
        assert "chain map" not in out

    def test_fiber_argument_tolerates_spaces(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "CP2", "--fiber", "1/3, 1/3")
        assert code == 0
        assert "balanced: True" in out

    def test_lmax_controls_table_size(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--input", "CP1", "--fiber", "1/2", "--lmax", "1"
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("  l(")]
        assert len(rows) == 2

    def test_one_l_product_per_index_multiset(self, capsys, monkeypatch):
        # l is symmetric: the 85 ordered index tuples of length <= 3 over
        # four axes fall into 35 multisets, and the table builds one element
        # per distinct nonzero vector of area class totals: at the solver
        # fiber of CPn(4) the 35 keys take 5 values, one of them 0
        tables, sums_per_table, sums = [], [], []
        original_table, original_sum = cli._l_table, potential._class_terms

        def recording(X, partition, lmax):
            start = len(sums)
            tables.append(original_table(X, partition, lmax))
            sums_per_table.append(len(sums) - start)
            return tables[-1]

        def counting(partition, totals):
            sums.append(totals)
            return original_sum(partition, totals)

        monkeypatch.setattr(cli, "_l_table", recording)
        monkeypatch.setattr(potential, "_class_terms", counting)
        code, out, _ = run(
            capsys, "analyze", "--input", "CPn(4)", "--lmax", "3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["l_products"]
        assert len(rows) == 85
        assert len(tables) == 1 and len(tables[0]) == 35
        assert {tuple(sorted(i - 1 for i in r["indices"])) for r in rows} == set(tables[0])
        assert len(set(map(tuple, sums))) == len(sums) == sums_per_table[0] == 4
        assert all(map(any, sums))
        X = toric.load_toric("CPn(4)")
        partition = toric._fiber_areas(X, toric.Fiber((Fraction(1, 5),) * 4))[1]
        values = set(map(str, oracle_l_table(X, partition, 3).values()))
        assert values == {str(value) for value in tables[0].values()} and len(values) == 5

    def test_numeric_column(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--input", "CP1", "--fiber", "1/2", "--numeric"
        )
        assert code == 0
        assert "numeric" in out

    def test_two_pi_display(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "CP2", "--two-pi")
        assert code == 0
        assert "T^2.0944" in out
        assert "angular units" in out

    def test_float_fiber_from_solver(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", SKEW_JSON)
        assert code == 0
        assert "[solver, float]" in out
        assert "float iterate" in out
        assert "balanced: False" in out


class TestAnalyzeJson:
    def test_document_fields(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "CP2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["polytope"]["name"] == "CP2"
        assert doc["polytope"]["facets"][2] == {"normal": [-1, -1], "offset": "-1"}
        assert doc["fiber"] == {
            "u": ["1/3", "1/3"],
            "exact": True,
            "source": "solver",
            "gradient_norm": doc["fiber"]["gradient_norm"],
        }
        assert float(doc["fiber"]["gradient_norm"]) < 1e-12
        assert doc["balanced"] is True
        assert doc["hf_rank"] == 4
        assert doc["area_classes"] == [
            {"area": "1/3", "facets": [1, 2, 3], "normal_sum": [0, 0]}
        ]
        assert doc["hessian"][0] == ["2*T^{1/3}*q", "T^{1/3}*q"]
        assert doc["chain_map"]["all_hold"] is True
        assert doc["chain_map"]["monomials_checked"] == 4
        assert CONVENTION_NOTE in doc["notes"]

    def test_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "CP2", "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) == out.strip()

    @pytest.mark.parametrize("fiber", ["1/4,1/4", "1/3,1/3"])
    def test_disc_areas_computed_once(self, capsys, disc_area_calls, fiber):
        code, _, _ = run(
            capsys, "analyze", "--input", "CP2", "--fiber", fiber, "--format", "json"
        )
        assert code == 0
        assert len(disc_area_calls) == 1

    def test_solver_fiber_areas_computed_once(self, capsys, disc_area_calls):
        # the solver accepts its rounding on the areas analyze then prints
        code, out, _ = run(capsys, "analyze", "--input", "CPn(3)", "--format", "json")
        assert code == 0
        assert json.loads(out)["fiber"]["source"] == "solver"
        assert len(disc_area_calls) == 1

    def test_one_tower_per_fiber(self, capsys, monkeypatch):
        # the chain_map block of CPn(4) is the closed form in (n, N, l):
        # analyze builds no chain algebra, so no differential, reduction,
        # monomial or certificate
        calls = {
            "floer_differential": 0,
            "reduce_degenerate_pairs": 0,
            "l_monomial": 0,
            "chain_map_certificate": 0,
        }
        for name in calls:
            original = getattr(ChainAlgebra, name)

            def counting(self, e, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, e)

            monkeypatch.setattr(ChainAlgebra, name, counting)
        code, out, _ = run(capsys, "analyze", "--input", "CPn(4)", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fiber"]["source"] == "solver"
        assert doc["chain_map"]["monomials_checked"] == 16
        assert doc["chain_map"]["all_hold"] is True
        assert calls == {
            "floer_differential": 0,
            "reduce_degenerate_pairs": 0,
            "l_monomial": 0,
            "chain_map_certificate": 0,
        }

    def test_one_l_table_per_run(self, capsys, monkeypatch):
        # the rank, the Hessian, the Clifford relations and the printed rows
        # all come from one table; neither per-row helper runs
        calls = {"_l_table": 0, "_hessian": 0, "_alpha": 0}
        for module in (potential, floer, cli):
            for name in calls:
                if hasattr(module, name):
                    original = getattr(module, name)

                    def counting(*args, _name=name, _original=original):
                        calls[_name] += 1
                        return _original(*args)

                    monkeypatch.setattr(module, name, counting)
        # a renamed or deleted helper would count 0 without being checked
        assert all(any(hasattr(m, name) for m in (potential, floer, cli)) for name in calls)
        code, out, _ = run(capsys, "analyze", "--input", "CP2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["hf_rank"] == 4 and doc["hessian"][0] == ["2*T^{1/3}*q", "T^{1/3}*q"]
        assert calls == {"_l_table": 1, "_hessian": 0, "_alpha": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ("--input", "CP2"),
            ("--input", "CPn(3)", "--fiber", "1/5,1/4,1/3"),
            ("--input", RECT_JSON),
        ],
        ids=["CP2-solver", "CPn3-unbalanced", "rect-solver"],
    )
    @pytest.mark.parametrize("lmax", [0, 1])
    def test_small_lmax_changes_only_the_l_products(self, capsys, argv, lmax):
        # below lmax 2 the Hessian and relations come from a table built
        # deeper than the rows printed
        code, out, _ = run(capsys, "analyze", *argv, "--format", "json")
        assert code == 0
        default = json.loads(out)
        code, out, _ = run(capsys, "analyze", *argv, "--lmax", str(lmax), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rows = doc.pop("l_products")
        assert rows == [r for r in default.pop("l_products") if len(r["indices"]) <= lmax]
        assert len(rows) == sum(doc["polytope"]["dim"] ** m for m in range(lmax + 1))
        assert doc == default

    def test_rationals_are_strings(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--input", "CP2", "--fiber", "1/4,1/4",
            "--format", "json", "--numeric",
        )
        assert code == 0
        doc = json.loads(out)
        assert all(isinstance(d["area"], str) for d in doc["disc_areas"])
        assert all(isinstance(r["numeric"], str) for r in doc["l_products"])

    @pytest.mark.parametrize("flags", [[], ["--lmax", "1"], ["--two-pi"]])
    def test_each_table_value_is_rendered_once(self, capsys, monkeypatch, flags):
        # the Hessian, the off-diagonal Clifford relations and the printed
        # rows share one rendering per distinct value over the sorted keys
        # of length <= max(lmax, 2); the diagonal halves Q_ii/2 of the
        # balanced fiber add one per distinct value
        calls = []
        original = cli.render_novikov

        def counting(e, two_pi=False):
            calls.append((str(e), two_pi))
            return original(e, two_pi)

        monkeypatch.setattr(cli, "render_novikov", counting)
        code, out, _ = run(capsys, "analyze", "--input", "CPn(4)", "--format", "json", *flags)
        assert code == 0
        doc = json.loads(out)
        assert doc["balanced"] is True
        X = toric.load_toric("CPn(4)")
        f = toric.Fiber(tuple(Fraction(u) for u in doc["fiber"]["u"]))
        lmax = int(flags[1]) if "--lmax" in flags else 3
        two_pi = "--two-pi" in flags
        keys = [
            key
            for m in range(max(lmax, 2) + 1)
            for key in itertools.combinations_with_replacement(range(X.n), m)
        ]
        Q = oracle_formal_hessian(X, f)
        values = {str(oracle_l_product(X, f, key)) for key in keys}
        halves = {str(Q[i][i] * Fraction(1, 2)) for i in range(X.n)}
        expected = [(text, two_pi) for text in [*values, *halves]]
        # at the solver fiber of CPn(4): l(-), l(i) = 0, l(i,i) and l(i,j),
        # at lmax 3 also l(i,i,j) = l(i,j,k), then one half Q_ii/2 = l(i,j)
        assert len(calls) == len(expected) == (5 if lmax < 3 else 6)
        assert Counter(calls) == Counter(expected)
        assert max(len(row["indices"]) for row in doc["l_products"]) == lmax


def _box_json(n: int) -> str:
    """(CP1)^n as the cube [0, 1]^n."""
    facets = [
        {"normal": [s * (j == i) for j in range(n)], "offset": "0" if s == 1 else "-1"}
        for i in range(n)
        for s in (1, -1)
    ]
    return json.dumps({"name": f"(CP1)^{n}", "dim": n, "facets": facets})


def _toric_json(X) -> str:
    facets = [{"normal": list(v), "offset": str(c)} for v, c in zip(X.normals, X.offsets)]
    return json.dumps({"name": X.name, "dim": X.n, "facets": facets})


@st.composite
def _l_product_cases(draw):
    """analyze argv with --lmax 0..4, with or without --numeric and
    --two-pi, on CPn(n) or (CP1)^n, n in 1..6, at the solver fiber or at a
    drawn interior one, or on a sheared_fibers polytope at its given fiber,
    where the l-table's values are mostly distinct."""
    if draw(st.booleans()):
        _X, _f, Y, g = draw(sheared_fibers())
        n, source = Y.n, _toric_json(Y)
        fiber = "--fiber=" + ",".join(map(str, g.u))
    else:
        n = draw(st.integers(1, 6))
        source = draw(st.sampled_from([f"CPn({n})", _box_json(n)]))
        fiber = None
    argv = ["analyze", "--input", source, "--lmax", str(draw(st.integers(0, 4)))]
    argv += [flag for flag in ("--numeric", "--two-pi") if draw(st.booleans())]
    if fiber:
        argv.append(fiber)
    elif draw(st.booleans()):
        # u_i = a_i / (a_1 + ... + a_{n+1}) with every a_i >= 1 is inside both
        a = draw(st.lists(st.integers(1, 9), min_size=n + 1, max_size=n + 1))
        argv.append("--fiber=" + ",".join(str(Fraction(ai, sum(a))) for ai in a[:n]))
    return argv


def _main_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(_l_product_cases())
def test_l_product_rows_match_the_oracle(argv):
    out = _main_stdout([*argv, "--format", "json"])
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    doc = json.loads(out)
    X = toric.load_toric(argv[2])
    f = toric.Fiber(tuple(Fraction(u) for u in doc["fiber"]["u"]))
    rows = oracle_l_products(X, f, int(argv[4]), "--numeric" in argv, "--two-pi" in argv)
    assert doc["l_products"] == rows
    lines = [line for line in _main_stdout(argv).splitlines() if line.startswith("  l(")]
    assert lines == oracle_l_product_lines(rows)


def test_cpn6_text_rows_at_lmax_4_match_the_oracle():
    # the largest layout the property above reaches, every row of it: 1,555
    # l(...) lines with the numeric column, in the text renderer
    lines = [
        line
        for line in _main_stdout(["analyze", "--input", "CPn(6)", "--lmax", "4", "--numeric"]).splitlines()
        if line.startswith("  l(")
    ]
    X = toric.load_toric("CPn(6)")
    rows = oracle_l_products(X, toric.Fiber((Fraction(1, 7),) * 6), 4, numeric=True)
    assert len(lines) == len(rows) == 1 + 6 + 6**2 + 6**3 + 6**4
    assert lines == oracle_l_product_lines(rows)


def _f1_json(s: int) -> str:
    """The monotone blow-up of CP2 at a point, every offset -s."""
    normals = [(1, 0), (1, 1), (0, 1), (-1, -1)]
    return json.dumps(
        {
            "name": f"F1x{s}",
            "dim": 2,
            "facets": [{"normal": list(v), "offset": -s} for v in normals],
        }
    )


def _analyzed_fiber(capsys, source: str) -> list[Fraction]:
    code, out, _ = run(capsys, "analyze", "--input", source, "--format", "json", "--lmax", "0")
    assert code == 0
    return [Fraction(u) for u in json.loads(out)["fiber"]["u"]]


# Along the diagonal of F1, Newton solves a^3 + a^4 = 1 with a = e^{-x},
# which does not involve s: at s = 1 and s = 3 the solver returns the
# same float point, and at s = 60 the Fourier-Motzkin starting witness.
# Strict, so the fix that makes the fiber move with the polytope has to
# remove the marker.
@pytest.mark.xfail(strict=True, reason="the solver's fiber does not dilate with F1")
@pytest.mark.parametrize("s", [3, 60])
def test_f1_fiber_dilates_with_the_polytope(capsys, s):
    reference = _analyzed_fiber(capsys, _f1_json(1))
    got = _analyzed_fiber(capsys, _f1_json(s))
    for u, r in zip(got, reference):
        assert u == pytest.approx(s * r, rel=1e-9, abs=1e-9)


# F1 with one corner of CP2 cut at 1/3.  W has no critical point inside:
# on the diagonal x = y = s/2 one would solve e^(s-1) = e^(-s/2) + e^(1/3-s),
# whose left side is below 1 and right side above e^(-1/2) + e^(-2/3) > 1
# for 1/3 < s < 1, so Newton runs into the facet x + y = 1 and step
# damping fails.  The max-min LP point (1/3, 1/3) is the exact answer.
F1_THIRD_JSON = json.dumps(
    {
        "name": "F1_third",
        "dim": 2,
        "facets": [
            {"normal": list(v), "offset": c}
            for v, c in zip([(1, 0), (1, 1), (0, 1), (-1, -1)], ["0", "1/3", "0", "-1"])
        ],
    }
)


@pytest.mark.xfail(strict=True, reason="analyze exits 4: W has no interior critical point")
def test_f1_third_analyzes_at_the_lp_fiber(capsys):
    code, out, err = run(capsys, "analyze", "--input", F1_THIRD_JSON, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["fiber"]["u"] == ["1/3", "1/3"]
    assert doc["balanced"] is False
    assert doc["hf_rank"] == 0


SHEARED = [
    pytest.param(CP2_SHEARED_JSON, CP2_SHEARED_FIBER, 4, id="CP2"),
    pytest.param(CPN3_SHEARED_JSON, CPN3_SHEARED_FIBER, 8, id="CPn3"),
]


@pytest.mark.parametrize("source, fiber, rank", SHEARED)
def test_sheared_fiber_is_balanced_on_the_exact_path(capsys, source, fiber, rank):
    # --fiber=: a point that starts with a minus sign is not an option
    code, out, err = run(
        capsys, "analyze", "--input", source, "--fiber=" + ",".join(fiber),
        "--lmax", "0", "--format", "json",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["fiber"]["u"] == fiber
    assert doc["balanced"] is True
    assert doc["hf_rank"] == rank


# The solver runs Newton in the input's coordinates, so a change of
# lattice basis changes its float iterates: the sheared CP2 stops at a
# gradient norm of 2.4e-12 after 50 steps (exit 4), and the sheared CPn(3)
# meets a zero pivot (exit 4).  Strict, so the vertex-chart solver that
# makes the answer basis-independent has to remove the marker.
@pytest.mark.xfail(strict=True, reason="the solver's answer depends on the lattice basis")
@pytest.mark.parametrize("source, fiber, rank", SHEARED)
def test_sheared_solver_lands_on_the_balanced_fiber(capsys, source, fiber, rank):
    code, out, err = run(capsys, "analyze", "--input", source, "--lmax", "0", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["fiber"]["u"] == fiber and doc["fiber"]["exact"] is True
    assert doc["balanced"] is True
    assert doc["hf_rank"] == rank


# A loose --tol stops Newton 1e-5 from the centre, and the iterate does not
# round to it, so analyze reports a float fiber, balanced False and rank 0.
# Strict, so the solver whose rank does not move with --tol removes them.
@pytest.mark.xfail(strict=True, reason="a loose --tol leaves the solver's fiber unrounded, rank 0")
@pytest.mark.parametrize(
    "source, tol, rank", [("CP2", "1e-4", 4), ("CPn(5)", "1e-6", 32)], ids=["CP2", "CPn5"]
)
def test_loose_tol_keeps_the_exact_fiber(capsys, source, tol, rank):
    code, out, err = run(
        capsys, "analyze", "--input", source, "--tol", tol, "--lmax", "0", "--format", "json"
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["fiber"]["exact"] is True
    assert doc["balanced"] is True
    assert doc["hf_rank"] == rank


def _scan_bases():
    """(name, normals, offsets, balanced fiber or None): the built-ins, two
    boxes, CP2 x CP1, the hexagon, CP2 and CPn(3) in sheared lattice bases,
    F1, F1 cut at 1/3, CP2 blown up at two points and the skew triangle.  The
    last four have normals that do not sum to zero, so no fiber of theirs is
    balanced.  The hexagon's (1, 1) and the sheared CPn(3)'s (1, 1, 2), the
    facets scan fixes, each have two facets whose normals end negative, so a
    line can hold two tie points."""
    F = Fraction
    cp3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    square = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cube = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    f1 = [(1, 0), (1, 1), (0, 1), (-1, -1)]
    return [
        ("CP1", [(1,), (-1,)], [0, -1], (F(1, 2),)),
        ("CP2", [(1, 0), (0, 1), (-1, -1)], [0, 0, -1], (F(1, 3), F(1, 3))),
        ("CP1xCP1", square, [0, -1, 0, -1], (F(1, 2), F(1, 2))),
        ("CPn(3)", cp3, [0, 0, 0, -1], (F(1, 4),) * 3),
        ("rect", square, [0, -2, 0, -1], (F(1), F(1, 2))),
        ("box", cube, [0, -1, 0, -2, 0, -1], (F(1, 2), F(1), F(1, 2))),
        # the facet x + y <= 1 cuts grid points off the bounding box without
        # bounding the last axis
        (
            "CP2xCP1",
            [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
            [0, 0, -1, 0, -1],
            (F(1, 3), F(1, 3), F(1, 2)),
        ),
        ("hexagon", [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], [-1] * 6, (F(0), F(0))),
        # CP2 in the golden's sheared basis, and CPn(3) with v -> (v1, v1 + v2, 2v1 - v2 + v3)
        ("CP2_sheared", [(5, 3), (3, 2), (-8, -5)], [0, 0, -1], (F(-1, 3), F(2, 3))),
        (
            "CPn3_sheared",
            [(1, 1, 2), (0, 1, -1), (0, 0, 1), (-1, -2, -2)],
            [0, 0, 0, -1],
            (F(-3, 4), F(1, 2), F(1, 4)),
        ),
        ("F1", f1, [-1, -1, -1, -1], None),
        ("F1_third", f1, [0, F(1, 3), 0, -1], None),
        ("Bl2", [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)], [-1] * 5, None),
        ("skew", [(1, 0), (0, 1), (-1, -2)], [0, 0, -2], None),
    ]


@st.composite
def _scan_inputs(draw, hit: bool):
    """(polytope JSON, grid, its balanced fiber or None): a base dilated by
    s and translated by t, offsets s*lambda_k + <t, v_k>.  With hit set, t
    puts the balanced fiber on the grid; otherwise it lies off the grid."""
    name, normals, offsets, centre = draw(st.sampled_from(_scan_bases()))
    n = len(normals[0])
    s = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(2, 3)]))
    grid = draw(st.integers(1, 12 if n <= 2 else 4))
    t = [
        Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6))) for _ in range(n)
    ]
    fiber = None
    if centre is not None:
        fiber = [s * c + ti for c, ti in zip(centre, t)]
        on_grid = all((x * grid).denominator == 1 for x in fiber)
        if hit and not on_grid:
            snapped = [Fraction(math.floor(x * grid), grid) for x in fiber]
            t = [ti + y - x for ti, x, y in zip(t, fiber, snapped)]
            fiber = snapped
        elif not hit:
            assume(not on_grid)
    facets = [
        {"normal": list(v), "offset": str(s * lam + sum(ti * vi for ti, vi in zip(t, v)))}
        for v, lam in zip(normals, offsets)
    ]
    doc = {"name": name, "dim": n, "facets": facets}
    return json.dumps(doc), grid, fiber


class TestScan:
    @pytest.mark.parametrize("hit", [True, False])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_point_oracle(self, hit, data):
        text, grid, fiber = data.draw(_scan_inputs(hit))
        doc = cli.cmd_scan(argparse.Namespace(input=text, grid=grid))
        assert doc == oracle_scan(toric.load_toric(text), grid)
        expected = [] if fiber is None or not hit else [[str(x) for x in fiber]]
        assert [b["u"] for b in doc["balanced_fibers"]] == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_tie_partition_matches_the_exact_path(self, data):
        # wherever two facets' area numerators tie on a line, scan's partition
        # and balance are those of disc_areas at the point; points_scanned and
        # the per-point oracle alone would not see a wrong class area
        text, grid, _fiber = data.draw(_scan_inputs(data.draw(st.booleans())))
        X = toric.load_toric(text)
        step = Fraction(1, grid)
        for head, lo, hi, base, slopes, den in toric._grid_lines(X, step):
            for t in range(lo, hi + 1):
                nums = [e + t * d for e, d in zip(base, slopes)]
                if len(set(nums)) == len(nums):
                    continue
                point = [step * j for j in (*head, t)]
                partition, balance = toric._line_balance(X, base, slopes, den, t)
                assert partition == toric._fiber_areas(X, point)[1]
                assert balance == toric.is_balanced(X, point)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_counts_and_fibers_follow_permutation_translation_and_shear(self, data):
        # a facet permutation, an integer translation w and unimodular shears
        # map the grid (1/g)Z^n onto itself, so the scan of the moved polytope
        # has the same counts and the moved balanced fibers
        text, grid, _fiber = data.draw(_scan_inputs(data.draw(st.booleans())))
        X = toric.load_toric(text)
        n = X.n
        moves = [(i, j, c) for i in range(n) for j in range(n) if i != j for c in (-1, 1)]
        shears = data.draw(st.lists(st.sampled_from(moves), max_size=2)) if moves else []
        w = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(X.num_facets)))
        Y, _origin = shear(X, toric.Fiber((Fraction(0),) * n), shears)
        facets = [
            {
                "normal": list(Y.normals[k]),
                "offset": str(Y.offsets[k] + sum(a * b for a, b in zip(w, Y.normals[k]))),
            }
            for k in order
        ]
        moved = json.dumps({"name": X.name, "dim": n, "facets": facets})
        before = cli.cmd_scan(argparse.Namespace(input=text, grid=grid))
        after = cli.cmd_scan(argparse.Namespace(input=moved, grid=grid))
        for key in ("points_scanned", "unbalanced_points_with_nonzero_rank"):
            assert after[key] == before[key]

        def fibers(doc):
            rows = doc["balanced_fibers"]
            return sorted((tuple(map(Fraction, b["u"])), b["hf_rank"]) for b in rows)

        expected = []
        for u, rank in fibers(before):
            sheared = shear(X, toric.Fiber(u), shears)[1].u
            expected.append((tuple(x + wi for x, wi in zip(sheared, w)), rank))
        assert fibers(after) == sorted(expected)

    def test_cp2_grid(self, capsys):
        code, out, _ = run(capsys, "scan", "--input", "CP2", "--grid", "12")
        assert code == 0
        assert "points scanned: 55" in out
        assert "balanced fibers: 1" in out
        assert "(1/3, 1/3)  hf_rank 4" in out
        assert "unbalanced points with nonzero rank: 0" in out

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--input", "CP2", "--grid", "12", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["points_scanned"] == 55
        assert doc["balanced_fibers"] == [{"hf_rank": 4, "u": ["1/3", "1/3"]}]
        assert doc["unbalanced_points_with_nonzero_rank"] == 0
        assert json.dumps(doc, indent=2, sort_keys=True) == out.strip()

    def test_dilated_cp1_has_no_spurious_rank(self, capsys):
        # disc areas far above any truncation cutoff must not read as zero
        code, out, _ = run(
            capsys, "scan", "--input", BIG_CP1_JSON, "--grid", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["points_scanned"] == 99
        assert doc["balanced_fibers"] == [{"hf_rank": 2, "u": ["50"]}]
        assert doc["unbalanced_points_with_nonzero_rank"] == 0

    def test_cp1_dilated_by_10_400_is_counted_not_walked(self, capsys):
        # the last axis's interior points are counted in closed form
        doc = {
            "name": "CP1 [0, 10^400]",
            "dim": 1,
            "facets": [
                {"normal": [1], "offset": "0"},
                {"normal": [-1], "offset": "-1e400"},
            ],
        }
        code, out, err = run(
            capsys, "scan", "--input", json.dumps(doc), "--grid", "1", "--format", "json"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["points_scanned"] == 10**400 - 1
        assert doc["balanced_fibers"] == [{"hf_rank": 2, "u": [str(5 * 10**399)]}]

    def test_square_of_side_10_400_names_the_axis_it_cannot_walk(self, capsys):
        # the first axis holds 10^400 - 1 lines, more than a walk can index:
        # a bad input, not a float that the numeric side cannot hold
        doc = {
            "name": "square [0, 10^400]^2",
            "dim": 2,
            "facets": [
                {"normal": v, "offset": c}
                for v, c in zip([[1, 0], [-1, 0], [0, 1], [0, -1]], ["0", "-1e400"] * 2)
            ],
        }
        code, out, err = run(capsys, "scan", "--input", json.dumps(doc), "--grid", "1")
        assert (code, out) == (2, "")
        assert "float range" not in err
        assert err.startswith("error: ") and "axis 1" in err and "too many lines" in err

    @pytest.mark.parametrize(
        "grid, ties, balanced",
        [("6", [("1/3", "1/3"), ("2/3", "1/6")], 1), ("5", [("1/5", "2/5"), ("3/5", "1/5")], 0)],
        ids=["6", "5"],
    )
    def test_one_check_per_tie(self, capsys, monkeypatch, disc_area_calls, grid, ties, balanced):
        # on CP2's line j1 the areas of (0, 1) and (-1, -1) tie at j2 = (g - j1)/2:
        # 2 of the 4 lines at grid 6 and 2 of the 3 at grid 5 have a grid tie,
        # and only those points are decided, once each, on the line's area
        # numerators: no disc areas, and the exact path's partition
        checked = []
        original = toric._balance

        def recording(X, partition):
            checked.append(partition)
            return original(X, partition)

        monkeypatch.setattr(toric, "_balance", recording)
        code, out, _ = run(capsys, "scan", "--input", "CP2", "--grid", grid, "--format", "json")
        assert code == 0
        assert disc_area_calls == []
        X = toric.load_toric("CP2")
        assert checked == [
            toric.area_partition(toric.disc_areas(X, [Fraction(x) for x in u])) for u in ties
        ]
        assert len({u[0] for u in ties}) == len(ties)
        assert len(json.loads(out)["balanced_fibers"]) == balanced

    def test_rank_is_not_read_off_the_balance_test(self, capsys, monkeypatch):
        # a rank that ignores alpha must show in the count of unbalanced
        # points with nonzero rank: at grid 6 one tie, (2/3, 1/6), is unbalanced
        monkeypatch.setattr(cli, "_hf_rank", lambda n, alpha: 2**n)
        code, out, _ = run(capsys, "scan", "--input", "CP2", "--grid", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["unbalanced_points_with_nonzero_rank"] == 1

    def test_coordinate_bounds_computed_once(self, capsys, monkeypatch):
        # make_toric's per-axis projections also give the grid's ranges
        calls = []
        original = toric._coordinate_bounds

        def counting(rows, nvars):
            calls.append(nvars)
            return original(rows, nvars)

        monkeypatch.setattr(toric, "_coordinate_bounds", counting)
        code, out, _ = run(capsys, "scan", "--input", "CPn(3)", "--grid", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["points_scanned"] == 1
        assert calls == [3]

    def test_grid_validation(self, capsys):
        code, _, err = run(capsys, "scan", "--input", "CP2", "--grid", "0")
        assert code == 2
        assert "error:" in err


class TestExitCodes:
    def test_bad_input(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "CP5")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "analyze", "--input", "{broken")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "analyze", "--input", UNBOUNDED_JSON)
        assert code == 2 and "error:" in err

    def test_unreadable_input_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", "--input", str(tmp_path))
        assert code == 2 and err.startswith("error:") and out == ""
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        for command in (("analyze",), ("scan", "--grid", "2")):
            code, out, err = run(capsys, *command, "--input", str(latin1))
            assert code == 2 and err.startswith("error:") and out == ""

    def test_bad_fiber_argument(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "CP2", "--fiber", "x,y")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "analyze", "--input", "CP2", "--fiber", "1/2")
        assert code == 2 and "error:" in err

    def test_not_interior(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "CP2", "--fiber", "0,0")
        assert code == 3 and "error:" in err
        code, _, err = run(capsys, "analyze", "--input", "CP2", "--fiber", "2,2")
        assert code == 3 and "error:" in err

    def test_no_convergence(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--input", SKEW_JSON, "--tol", "0", "--max-iters", "5"
        )
        assert code == 4 and "error:" in err

    def test_zero_float_pivot(self, capsys):
        # Newton's float Hessian on the sheared CPn(3) eliminates to an
        # exactly zero pivot: the float model broke down, so exit 4
        code, out, err = run(capsys, "analyze", "--input", CPN3_SHEARED_JSON)
        assert code == 4 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--lmax", "--max-iters"])
    def test_negative_count_rejected(self, capsys, flag):
        code, out, err = run(capsys, "analyze", "--input", "CP2", flag, "-1")
        assert code == 2 and "error:" in err and flag in err
        assert out == ""
        code, out, err = run(
            capsys, "analyze", "--input", "CP2", "--fiber", "1/3,1/3", flag, "-1"
        )
        assert code == 2 and "error:" in err

    # --tol=VALUE, since argparse would read a separate "-inf" as an option
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-0.5"])
    def test_bad_tol_rejected(self, capsys, tol):
        for fiber in ((), ("--fiber", "1/3,1/3")):
            code, out, err = run(capsys, "analyze", "--input", "CP2", *fiber, f"--tol={tol}")
            assert code == 2 and "error:" in err and "--tol" in err
            assert out == ""

    def test_deeply_nested_json(self, capsys, tmp_path):
        # json.loads recurses once per bracket
        path = tmp_path / "nested.json"
        path.write_text('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # CP1 as [0, 10^400]: every exact step succeeds, but no float holds
    # the offset; TestScan scans it
    @pytest.mark.parametrize("fiber", [(), ("--fiber", "1")], ids=["solver", "given"])
    def test_offsets_beyond_float_range(self, capsys, fiber):
        doc = {
            "name": "CP1 [0, 10^400]",
            "dim": 1,
            "facets": [
                {"normal": [1], "offset": "0"},
                {"normal": [-1], "offset": "-1e400"},
            ],
        }
        code, out, err = run(capsys, "analyze", "--input", json.dumps(doc), *fiber)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "outside the float range" in err

    # CP1 as [0, 10^-400]: the polytope's own interior point, 10^-400 / 2,
    # becomes the float 0.0, on a facet; that is the float range of the
    # input, not a bad starting point, and no Fraction repr is printed
    def test_polytope_below_float_range(self, capsys):
        doc = {
            "name": "CP1 [0, 10^-400]",
            "dim": 1,
            "facets": [
                {"normal": [1], "offset": "0"},
                {"normal": [-1], "offset": "-1e-400"},
            ],
        }
        code, out, err = run(capsys, "analyze", "--input", json.dumps(doc))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "outside the float range" in err and "Fraction" not in err

    # Fraction reads "1e-5000" without the digit limit that int() and str()
    # apply to decimal text, so no report could print such a number; an
    # exponent that size is refused before Fraction builds its power of ten
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--input", "CP1", "--fiber", "1e-5000"),
            ("analyze", "--input", "CP2", "--fiber", "1/3,1e-5000"),
            ("analyze", "--input", "CP1", "--fiber", "1e-10000000"),
            ("analyze", "--input", "CP1", "--fiber", "0e99999999"),
            # no exponent: 4300 decimals, over a denominator of 10^4300
            ("analyze", "--input", "CP1", "--fiber", "0." + "0" * 4299 + "1"),
            ("analyze", "--input", CP1_TINY_OFFSET_JSON),
            ("analyze", "--input", CP1_TINY_OFFSET_JSON, "--fiber", "1/2"),
            ("scan", "--input", CP1_TINY_OFFSET_JSON, "--grid", "2"),
            ("analyze", "--input", CP1_HUGE_INT_OFFSET_JSON),
        ],
        ids=[
            "fiber", "second-coordinate", "fiber-exponent", "zero-exponent", "long-decimal",
            "offset-solver", "offset-given", "offset-scan", "int-offset",
        ],
    )
    def test_rationals_beyond_the_digit_limit(self, capsys, digit_limit, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # every number of the input has at most limit digits, but the second
    # disc's area, 1/33...31 - 1/77...7, has a denominator of about
    # 2 * limit digits: refused before any rendering
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_disc_area_beyond_the_digit_limit(self, capsys, digit_limit, fmt):
        doc = {
            "name": "CP1_near_limit",
            "dim": 1,
            "facets": [
                {"normal": [1], "offset": "0"},
                {"normal": [-1], "offset": "-1/" + "3" * (digit_limit - 1) + "1"},
            ],
        }
        fiber = "1/" + "7" * digit_limit
        code, out, err = run(capsys, "analyze", "--input", json.dumps(doc), "--fiber", fiber, "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"disc area at this fiber has more than {digit_limit} digits" in err

    def test_digit_limit_is_inclusive(self, capsys, digit_limit):
        # 10^(limit - 1) has limit digits, 10^limit one more
        code, out, err = run(
            capsys, "analyze", "--input", "CP1", "--fiber", f"1e-{digit_limit - 1}", "--format", "json"
        )
        assert code == 0 and not err
        assert json.loads(out)["fiber"]["u"] == [f"1/1{'0' * (digit_limit - 1)}"]
        code, out, err = run(capsys, "analyze", "--input", "CP1", "--fiber", f"1e-{digit_limit}")
        assert (code, out) == (2, "")
        assert f"more than {digit_limit} digits" in err

    def test_no_digit_limit(self, capsys, digit_limit):
        sys.set_int_max_str_digits(0)
        code, out, err = run(capsys, "analyze", "--input", "CP1", "--fiber", "1e-5000", "--format", "json")
        assert code == 0 and not err
        assert json.loads(out)["fiber"]["u"] == [f"1/1{'0' * 5000}"]

    def test_zero_tol_accepted(self, capsys):
        # the solver decides whether it can meet tol 0; it is not bad input
        code, _, _ = run(capsys, "analyze", "--input", "CP2", "--tol", "0")
        assert code in (0, 4)
        code, _, _ = run(capsys, "analyze", "--input", "CP2", "--fiber", "1/3,1/3", "--tol", "0")
        assert code == 0

    def test_zero_tol_message(self, capsys):
        # the solver's test is strict, so a zero gradient does not meet tol 0;
        # the message must not call 0 above 0
        code, out, err = run(capsys, "analyze", "--input", "CP2", "--tol", "0")
        assert code == 4 and out == ""
        assert "not below tol=0.0" in err and "above" not in err

    def test_repeated_normal_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "--input", REPEATED_CP1_JSON, "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: facets 1 and 2 share the normal (1,)\n"

    def test_scan_has_no_two_pi_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--input", "CP2", "--grid", "4", "--two-pi"])
        assert info.value.code == 2
        assert "unrecognized arguments: --two-pi" in capsys.readouterr().err

    def test_zero_counts_accepted(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--input", "CP2", "--lmax", "0", "--format", "json"
        )
        assert code == 0
        assert [r["indices"] for r in json.loads(out)["l_products"]] == [[]]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "toricfloer", "analyze", "--input", "CP1",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["hf_rank"] == 2
    assert doc["balanced"] is True


def test_reader_closing_the_pipe_gets_no_traceback():
    """`analyze ... | head -n 1`: the 150 KB report overflows the pipe, the
    reader leaves after one line, and main ends quietly with exit 1."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricfloer", "analyze", "--input", "CPn(4)",
         "--lmax", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"polytope CPn(4) (dim 4)\n"
    assert err == b""


class TestWithoutNumpy:
    """The package and its CLI run on the standard library alone."""

    @staticmethod
    def python(code: str) -> subprocess.CompletedProcess:
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )

    def test_import_leaves_numpy_unloaded(self):
        proc = self.python("import sys, toricfloer.cli; print('numpy' in sys.modules)")
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("analyze_CP2_solver.json", ["analyze", "--input", "CP2", "--format", "json"]),
            ("scan_CP2_grid6.json", ["scan", "--input", "CP2", "--grid", "6", "--format", "json"]),
        ],
    )
    def test_main_reproduces_golden_with_numpy_blocked(self, golden, argv):
        # a None entry in sys.modules makes every `import numpy` fail
        proc = self.python(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from toricfloer.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        expected = Path(__file__).parent / "golden" / golden
        assert proc.stdout == expected.read_text(encoding="utf-8")


# strings over every code point, lone surrogates included, weighted toward
# the characters JSON escapes
json_strings = st.text(
    alphabet=st.one_of(
        st.integers(0, 0x10FFFF).map(chr),
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\ud800", "\udfff"]),
    ),
    max_size=8,
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | json_strings,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=25,
)


def _l_products_case(n, lmax, numeric, strings):
    """_LProducts over n axes up to lmax, its values (and numeric column)
    drawn from strings, with the row dicts oracle_l_rows gives for it."""
    keys = [
        key
        for m in range(max(lmax, 2) + 1)
        for key in itertools.combinations_with_replacement(range(n), m)
    ]
    text = {key: strings[k % len(strings)] for k, key in enumerate(keys)}
    numbers = (
        {key: strings[-1 - k % len(strings)] for k, key in enumerate(keys) if len(key) <= lmax}
        if numeric
        else None
    )
    return cli._LProducts(n, lmax, text, numbers), oracle_l_rows(n, lmax, text, numbers)


def assert_same_lines(got, want) -> None:
    """got == want, two strings or two lists of lines.  The test is a bool,
    and a mismatch reports only its first differing line: pytest's diff of
    two long reports would run at every step of hypothesis's shrinking."""
    same = got == want
    assert same, _first_difference(got, want)


def _first_difference(got, want) -> str:
    if isinstance(got, str):
        got, want = got.split("\n"), want.split("\n")
    for k, (a, b) in enumerate(itertools.zip_longest(got, want)):
        if a != b:
            return f"line {k + 1} is {a!r}, expected {b!r}"
    return "no line differs"


def _l_products_json(n, lmax, numeric, strings, depth):
    """(the writer's JSON, json.dumps of the oracle's rows), nested depth deep."""
    rows, expected = _l_products_case(n, lmax, numeric, strings)
    for _ in range(depth):
        rows, expected = {"x": [rows], "a": 1}, {"x": [expected], "a": 1}
    return cli._json_text(rows), json.dumps(expected, indent=2, sort_keys=True)


def _l_products_text(n, lmax, numeric, strings):
    """(the text renderer's l(...) lines, the oracle's)."""
    rows, expected = _l_products_case(n, lmax, numeric, strings)
    # a report with nothing but its l products
    doc = {
        "polytope": {"name": "p", "dim": n, "facets": []},
        "fiber": {"u": [], "source": "given", "exact": True, "gradient_norm": "0.0"},
        "disc_areas": [],
        "area_classes": [],
        "balanced": False,
        "hf_rank": 0,
        "hessian": [],
        "notes": [],
        "l_products": rows,
    }
    lines = cli._analysis_text(doc)
    return lines[lines.index("l products:") + 1 : lines.index("notes:")], oracle_l_product_lines(expected)


class TestJsonText:
    """main writes its documents with cli._json_text, which must match
    json.dumps(doc, indent=2, sort_keys=True) byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_empty_containers_and_wide_ints(self):
        for value in ({}, [], {"a": {}, "b": []}, [[], {}], 2**64, -(2**200), [0, True, None]):
            assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [0.0]}, [{"b": ()}]])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 6),
        lmax=st.integers(0, 4),
        numeric=st.booleans(),
        strings=st.lists(json_strings, min_size=1),
        depth=st.integers(0, 3),
    )
    def test_l_products_write_as_their_rows(self, n, lmax, numeric, strings, depth):
        # the one leaf that is not plain data, at any indent, with values
        # that need escaping: the bytes json.dumps gives for its row dicts
        got, want = _l_products_json(n, lmax, numeric, strings, depth)
        assert_same_lines(got, want)

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda rows: {"l_products": rows, "x": 1.5},
            lambda rows: [rows, (1, 2)],
            lambda rows: {"l_products": rows, 1: "a"},
        ],
        ids=["float", "tuple", "int-key"],
    )
    def test_other_types_beside_l_products_raise(self, wrap):
        rows = cli._LProducts(2, 1, {(): "1", (0,): "q", (1,): "q"})
        assert json.loads(cli._json_text({"l_products": rows}))["l_products"] == [
            {"indices": [], "value": "1"},
            {"indices": [1], "value": "q"},
            {"indices": [2], "value": "q"},
        ]
        with pytest.raises(TypeError):
            cli._json_text(wrap(rows))

    def test_name_with_escapes_round_trips(self, capsys):
        name = 'caf\u00e9 "quoted" back\\slash\nnext line'
        source = json.dumps(
            {
                "name": name,
                "dim": 1,
                "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": -1}],
            }
        )
        code, out, _ = run(capsys, "analyze", "--input", source, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert json.loads(out)["polytope"]["name"] == name



class TestRowLayoutCache:
    """_LProducts.layout keeps the row layouts of recently used n, lmax
    and formats for the life of the process: no report may reach a later
    one, whatever came before it."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.integers(0, 4),
                st.booleans(),
                st.lists(json_strings, min_size=1, max_size=3),
                # JSON at three nesting depths, each its own layout, or text
                st.sampled_from([0, 1, 2, "text"]),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_interleaved_calls_match_the_oracle(self, calls):
        layout = cli._LProducts.layout
        for n, lmax, numeric, strings, depth in calls:
            if depth == "text":
                got, want = _l_products_text(n, lmax, numeric, strings)
            else:
                got, want = _l_products_json(n, lmax, numeric, strings, depth)
            assert_same_lines(got, want)
            assert layout.cache_info().currsize <= layout.cache_info().maxsize

    def test_layout_is_tuples_and_reused(self):
        pieces, frame = ("1", "2", "3"), ("  l(", ") = ", "  l(-) = ")
        prefixes, keys = layout = cli._LProducts.layout(2, pieces, frame)
        assert type(prefixes) is tuple and type(keys) is tuple
        assert all(type(key) is tuple for key in keys)
        assert prefixes[:6] == ("  l(-) = ", "  l(1) = ", "  l(2) = ", "  l(3) = ", "  l(1,1) = ", "  l(1,2) = ")
        assert keys[:6] == ((), (0,), (1,), (2,), (0, 0), (0, 1))
        assert keys[7] == (0, 1)  # l(2,1)
        assert cli._LProducts.layout(2, pieces, frame) is layout

    def test_layouts_over_the_row_bound_are_not_kept(self):
        # over two axes lmax 11 has 4,095 rows and is kept, in each format;
        # lmax 12 has 8,191, built for the one call
        assert 2**12 - 1 <= cli._LAYOUT_ROWS < 2**13 - 1
        layout = cli._LProducts.layout
        layout.cache_clear()
        for lmax in (11, 12):
            assert_same_lines(*_l_products_json(2, lmax, True, ["a", 'b"\n'], 1))
            assert_same_lines(*_l_products_text(2, lmax, False, ["x", "y"]))
            assert layout.cache_info().currsize == 2
        assert layout.cache_info().misses == 2

    def test_cache_stays_within_its_bound(self):
        layout = cli._LProducts.layout
        maxsize = layout.cache_info().maxsize
        for lmax in range(maxsize + 5):
            layout(lmax, ("1",), ("(", ")", "()"))
        assert layout.cache_info().currsize == maxsize


def test_render_novikov_spells_terms_like_str():
    e = monomial(2) + monomial(-1, Fraction(1, 2), 1) + monomial(Fraction(3, 2), 1, 1)
    assert cli.render_novikov(e) == str(e) == "2 - T^{1/2}*q + 3/2*T*q"
    assert cli.render_novikov(e, two_pi=True) == "2 - T^3.14159*q + 3/2*T^6.28319*q"
    assert cli.render_novikov(-monomial(1, 1, 1), two_pi=True) == "-T^6.28319*q"
    assert cli.render_novikov(ZERO, two_pi=True) == "0"
