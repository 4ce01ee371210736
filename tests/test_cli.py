import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer import ChainAlgebra, cli, floer, potential, toric
from toricfloer.cli import CONVENTION_NOTE, main
from toricfloer.novikov import ZERO, monomial

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
        # four axes fall into 35 multisets, one class sum each
        tables, sums_per_table, sums = [], [], []
        original_table, original_sum = cli._l_table, potential._class_sum

        def recording(X, partition, lmax):
            start = len(sums)
            tables.append(original_table(X, partition, lmax))
            sums_per_table.append(len(sums) - start)
            return tables[-1]

        def counting(partition, weights):
            sums.append(weights)
            return original_sum(partition, weights)

        monkeypatch.setattr(cli, "_l_table", recording)
        monkeypatch.setattr(potential, "_class_sum", counting)
        code, out, _ = run(
            capsys, "analyze", "--input", "CPn(4)", "--lmax", "3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["l_products"]
        assert len(rows) == 85
        assert len(tables) == 1 and len(tables[0]) == 35 and sums_per_table == [35]
        assert {tuple(sorted(i - 1 for i in r["indices"])) for r in rows} == set(tables[0])

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
        calls = {"_l_table": 0, "_hessian": 0, "_obstruction_form": 0}
        for module in (potential, floer, cli):
            for name in calls:
                if hasattr(module, name):
                    original = getattr(module, name)

                    def counting(*args, _name=name, _original=original):
                        calls[_name] += 1
                        return _original(*args)

                    monkeypatch.setattr(module, name, counting)
        code, out, _ = run(capsys, "analyze", "--input", "CP2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["hf_rank"] == 4 and doc["hessian"][0] == ["2*T^{1/3}*q", "T^{1/3}*q"]
        assert calls == {"_l_table": 1, "_hessian": 0, "_obstruction_form": 0}

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


class TestScan:
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

    def test_disc_areas_computed_once_per_point(self, capsys, disc_area_calls):
        code, out, _ = run(capsys, "scan", "--input", "CP2", "--grid", "6", "--format", "json")
        assert code == 0
        assert len(disc_area_calls) == json.loads(out)["points_scanned"] == 10

    def test_rank_is_not_read_off_the_balance_test(self, capsys, monkeypatch):
        # a rank that ignores alpha must show in the count of unbalanced
        # points with nonzero rank
        monkeypatch.setattr(cli, "_hf_rank", lambda n, alpha: 2**n)
        code, out, _ = run(capsys, "scan", "--input", "CP2", "--grid", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["unbalanced_points_with_nonzero_rank"] == 9

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


def test_render_novikov_spells_terms_like_str():
    e = monomial(2) + monomial(-1, Fraction(1, 2), 1) + monomial(Fraction(3, 2), 1, 1)
    assert cli.render_novikov(e) == str(e) == "2 - T^{1/2}*q + 3/2*T*q"
    assert cli.render_novikov(e, two_pi=True) == "2 - T^3.14159*q + 3/2*T^6.28319*q"
    assert cli.render_novikov(-monomial(1, 1, 1), two_pi=True) == "-T^6.28319*q"
    assert cli.render_novikov(ZERO, two_pi=True) == "0"
