import itertools
import json
import math
import operator
import pickle
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from toricfloer import (
    DiscClass,
    Fiber,
    InvalidPolytope,
    NotInterior,
    ParseError,
    QuadraticForm,
    ToricFano,
    area_partition,
    disc_areas,
    formal_hessian,
    interior_grid,
    is_balanced,
    load_toric,
    make_toric,
    toric,
)

from conftest import (
    balanced_fiber,
    dataclass_twin,
    oracle_coordinate_bounds,
    oracle_disc_areas,
    oracle_fraction_rows,
    oracle_grid_lines,
    oracle_interior_grid,
    oracle_parse_rational,
    oracle_solve_rows,
    oracle_solve_strict,
    oracle_validate,
    random_interior_fiber,
    shear,
)

RECT_DOC = {
    "name": "rect",
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "offset": 0},
        {"normal": [-1, 0], "offset": -2},
        {"normal": [0, 1], "offset": 0},
        {"normal": [0, -1], "offset": "-1"},
    ],
}


class TestBuiltins:
    def test_cp2_data(self):
        X = load_toric("CP2")
        assert X.n == 2
        assert X.normals == ((1, 0), (0, 1), (-1, -1))
        assert X.offsets == (F(0), F(0), F(-1))
        assert X.num_facets == 3

    def test_cp1_interval(self):
        X = load_toric("CP1")
        assert X.normals == ((1,), (-1,))
        assert X.coordinate_bounds() == [(F(0), F(1))]

    def test_product_square(self):
        X = load_toric("CP1xCP1")
        assert X.num_facets == 4
        assert X.coordinate_bounds() == [(F(0), F(1)), (F(0), F(1))]

    def test_simplex_family(self):
        X = load_toric("CPn(3)")
        assert X.n == 3
        assert X.num_facets == 4
        assert X.normals[-1] == (-1, -1, -1)
        assert X.offsets == (F(0), F(0), F(0), F(-1))
        # CPn(1) carries the same facet data as the interval
        Y = load_toric("CPn(1)")
        assert Y.normals == load_toric("CP1").normals
        assert Y.offsets == load_toric("CP1").offsets

    def test_witness_is_interior(self, builtin):
        disc_areas(builtin, builtin.interior_point)

    def test_bad_simplex_size(self):
        with pytest.raises(ParseError):
            load_toric("CPn(0)")


class TestValidation:
    def test_non_primitive_normal(self):
        with pytest.raises(InvalidPolytope, match="primitive"):
            make_toric("bad", 2, [(2, 0), (0, 1), (-1, -1)], [0, 0, -1])

    def test_unbounded(self):
        with pytest.raises(InvalidPolytope, match="unbounded"):
            make_toric("bad", 2, [(1, 0), (0, 1), (1, 1)], [0, 0, 0])

    def test_unbounded_from_the_constructor(self):
        # the constructor validates nothing, so the bounds and the grid walk
        # name the fault on their first read, not a bare TypeError or
        # ValueError from an interval with one side missing
        message = r"^normals do not positively span, polytope is unbounded$"
        X = ToricFano("strip", 2, ((1, 0), (0, 1), (-1, 0)), (F(0), F(0), F(-1)), (F(1, 2), F(1)))
        with pytest.raises(InvalidPolytope, match=message):
            X.bounds
        with pytest.raises(InvalidPolytope, match=message):
            X.coordinate_bounds()
        with pytest.raises(InvalidPolytope, match=message):
            list(interior_grid(X, F(1, 2)))

    def test_empty_interior(self):
        with pytest.raises(InvalidPolytope, match="empty interior"):
            make_toric("bad", 2, [(1, 0), (0, 1), (-1, -1)], [0, 0, 1])

    def test_repeated_normal(self):
        with pytest.raises(InvalidPolytope, match=r"^facets 1 and 2 share the normal \(1,\)$"):
            make_toric("bad", 1, [(1,), (1,), (-1,)], [0, 0, -1])
        with pytest.raises(InvalidPolytope, match=r"^facets 2 and 4 share the normal \(0, 1\)$"):
            make_toric("bad", 2, [(1, 0), (0, 1), (-1, -1), (0, 1)], [0, 0, -1, -1])
        # the unbounded and empty-interior verdicts come first
        with pytest.raises(InvalidPolytope, match="unbounded"):
            make_toric("bad", 1, [(1,), (1,)], [0, 1])
        with pytest.raises(InvalidPolytope, match="empty interior"):
            make_toric("bad", 1, [(1,), (1,), (-1,)], [0, 2, -1])

    def test_too_few_facets(self):
        with pytest.raises(InvalidPolytope, match="n\\+1"):
            make_toric("bad", 2, [(1, 0), (-1, 0)], [0, -1])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidPolytope):
            make_toric("bad", 2, [(1,), (0, 1), (-1, -1)], [0, 0, -1])

    def test_length_mismatch(self):
        with pytest.raises(InvalidPolytope):
            make_toric("bad", 2, [(1, 0), (0, 1), (-1, -1)], [0, 0])

    def test_bad_dimension(self):
        with pytest.raises(InvalidPolytope):
            make_toric("bad", 0, [], [])


class TestValidationMatchesOracle:
    """make_toric's verdict, witness and bounds against the recession-cone
    check it replaced, on random normal sets; many are unbounded, many
    empty, and some both, which must still read as unbounded.  A valid
    polytope with a repeated normal, which the oracle accepts, is rejected
    after both of those checks."""

    @staticmethod
    def _verdict(normals, offsets, n):
        try:
            X = make_toric("random", n, normals, offsets)
        except InvalidPolytope as exc:
            if "unbounded" in str(exc):
                return "unbounded", None, None
            if "share the normal" in str(exc):
                return "repeated", str(exc), None
            assert "empty interior" in str(exc)
            return "empty", None, None
        return "ok", X.interior_point, X.coordinate_bounds()

    @staticmethod
    def _repeated(normals):
        """The message for the first facet whose normal an earlier one has."""
        for k, v in enumerate(normals):
            if v in normals[:k]:
                return f"facets {normals.index(v) + 1} and {k + 1} share the normal {v}"
        return None

    def test_random_normal_sets(self):
        rng = random.Random(7)
        seen = {"unbounded": 0, "empty": 0, "ok": 0, "repeated": 0}
        for _ in range(400):
            n = rng.randint(1, 3)
            size = n + rng.randint(1, 3)
            normals = []
            while len(normals) < size:
                v = tuple(rng.randint(-2, 2) for _ in range(n))
                if math.gcd(*v) == 1:
                    normals.append(v)
            offsets = [F(rng.randint(-6, 3), rng.randint(1, 3)) for _ in normals]
            got = self._verdict(normals, offsets, n)
            expected = oracle_validate(normals, offsets, n)
            repeated = self._repeated(normals)
            if expected[0] == "ok" and repeated is not None:
                expected = "repeated", repeated, None
            assert got == expected, (normals, offsets)
            seen[got[0]] += 1
        assert seen == {"unbounded": 230, "empty": 61, "ok": 67, "repeated": 42}
        assert min(seen.values()) >= 40, seen

    def test_empty_and_unbounded_reads_unbounded(self):
        normals, offsets = [(1, 0), (-1, 0), (0, 1)], [0, 1, 0]
        assert oracle_validate(normals, offsets, 2)[0] == "unbounded"
        with pytest.raises(InvalidPolytope, match="do not positively span"):
            make_toric("bad", 2, normals, offsets)


class TestJsonLoading:
    def test_dict_and_text_and_path_agree(self, tmp_path):
        from_dict = load_toric(RECT_DOC)
        from_text = load_toric(json.dumps(RECT_DOC))
        p = tmp_path / "rect.json"
        p.write_text(json.dumps(RECT_DOC))
        from_path = load_toric(str(p))
        assert from_dict == from_text == from_path
        assert from_dict.offsets == (F(0), F(-2), F(0), F(-1))

    def test_fraction_offset_string(self):
        doc = dict(RECT_DOC, facets=list(RECT_DOC["facets"]))
        doc["facets"][3] = {"normal": [0, -1], "offset": "-3/2"}
        assert load_toric(doc).offsets[3] == F(-3, 2)

    def test_float_offset_rejected(self):
        doc = json.loads(json.dumps(RECT_DOC))
        doc["facets"][0]["offset"] = 0.5
        with pytest.raises(ParseError, match="floats are rejected"):
            load_toric(doc)

    def test_float_normal_rejected(self):
        doc = json.loads(json.dumps(RECT_DOC))
        doc["facets"][0]["normal"] = [1.0, 0]
        with pytest.raises(ParseError, match="floats are rejected"):
            load_toric(doc)

    def test_bool_entries_rejected(self):
        doc = json.loads(json.dumps(RECT_DOC))
        doc["facets"][0]["normal"] = [True, 0]
        with pytest.raises(ParseError):
            load_toric(doc)
        doc = json.loads(json.dumps(RECT_DOC))
        doc["facets"][0]["offset"] = True
        with pytest.raises(ParseError):
            load_toric(doc)

    def test_unparseable_offset_string(self):
        doc = json.loads(json.dumps(RECT_DOC))
        doc["facets"][0]["offset"] = "1/0"
        with pytest.raises(ParseError, match="cannot parse offset"):
            load_toric(doc)

    @pytest.mark.parametrize("offset", ["-1e-5000", "1e5000", "-1e-10000000"])
    def test_offset_beyond_the_digit_limit(self, digit_limit, offset):
        doc = json.loads(json.dumps(RECT_DOC))
        doc["facets"][0]["offset"] = offset
        with pytest.raises(ParseError, match="cannot parse offset"):
            load_toric(doc)

    @pytest.mark.parametrize("key", ["name", "dim", "facets"])
    def test_missing_keys(self, key):
        doc = json.loads(json.dumps(RECT_DOC))
        del doc[key]
        with pytest.raises(ParseError, match=key):
            load_toric(doc)

    def test_malformed_documents(self):
        with pytest.raises(ParseError):
            load_toric("CP5")
        with pytest.raises(ParseError):
            load_toric("{not json")
        with pytest.raises(ParseError):
            load_toric(12)
        with pytest.raises(ParseError):
            load_toric(dict(RECT_DOC, dim=True))
        with pytest.raises(ParseError):
            load_toric(dict(RECT_DOC, facets=[]))
        with pytest.raises(ParseError):
            load_toric(dict(RECT_DOC, facets=[{"normal": [1, 0]}]))


# an integer text of about 640 digits, the least digit limit, with a sign, a
# character spliced in and a suffix drawn from what Fraction's parser, int()
# or the exponent check treat apart: Arabic-Indic digits and a superscript
# two (digits to str.isdigit, not ASCII), "+", "_", spaces, "/", "." and "e".
# No "e" is spliced into the run: at limit 0 nothing refuses the power of
# ten that a 600-digit exponent asks for.
_DIGITS = "0123456789"
_SPLICED = "٠١٢٣٤٥٦٧٨٩²+-_ /."


@st.composite
def _rational_texts(draw):
    if draw(st.booleans(), label="short"):
        # at most 6 characters, so an exponent has at most 4 digits
        return draw(st.text(_DIGITS + _SPLICED + "eE", max_size=6), label="text")
    length = draw(st.integers(636, 644), label="length")
    body = draw(st.text(_DIGITS, min_size=length, max_size=length), label="digits")
    if draw(st.booleans(), label="splice"):
        at = draw(st.integers(0, length), label="at")
        body = body[:at] + draw(st.sampled_from(_SPLICED), label="char") + body[at:]
    sign = draw(st.sampled_from(["", "-", "+", " ", " -", "--"]), label="sign")
    suffix = draw(
        st.sampled_from(["", " ", "/3", "/0", ".5", "_1", "e5", "E-3", "e700", "e-2000", "e1_9"]),
        label="suffix",
    )
    return sign + body + suffix


def _parse_outcome(parse, text):
    """(type, value) of parse(text), or (exception type, message)."""
    try:
        x = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(x), x


@pytest.mark.parametrize("digit_limit", [640, 0], indirect=True)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_rational_texts())
@example(text="-" + "9" * 640)
@example(text="9" * 641)
@example(text="-" + "0" * 641)
@example(text="١٢")
@example(text="²")
@example(text="+5")
@example(text="-")
@example(text="")
@example(text="1_000")
def test_parse_rational_matches_the_oracle(digit_limit, text):
    # the int() path of integer texts gives the value Fraction's parser
    # gives, and every other text the same value or the same error
    assert _parse_outcome(toric._parse_rational, text) == _parse_outcome(oracle_parse_rational, text)


class TestDiscAreas:
    def test_cp2_example(self):
        X = load_toric("CP2")
        ds = disc_areas(X, (F(1, 4), F(1, 4)))
        assert [d.area for d in ds] == [F(1, 4), F(1, 4), F(1, 2)]
        assert [d.index for d in ds] == [0, 1, 2]
        assert all(d.maslov == 2 for d in ds)
        assert ds[2].normal == (-1, -1)

    def test_boundary_and_outside_rejected(self):
        X = load_toric("CP2")
        with pytest.raises(NotInterior):
            disc_areas(X, (F(0), F(1, 2)))
        with pytest.raises(NotInterior):
            disc_areas(X, (F(2), F(2)))
        with pytest.raises(NotInterior):
            disc_areas(X, (F(1, 2),))

    def test_accepts_fiber_and_sequence(self):
        X = load_toric("CP1")
        a = disc_areas(X, Fiber((F(1, 3),)))
        b = disc_areas(X, [F(1, 3)])
        assert a == b
        assert [d.area for d in a] == [F(1, 3), F(2, 3)]

    def test_areas_affine_in_the_point(self, builtin):
        rng = random.Random(11)
        for _ in range(20):
            f1 = random_interior_fiber(builtin, rng)
            f2 = random_interior_fiber(builtin, rng)
            mid = tuple((a + b) / 2 for a, b in zip(f1.u, f2.u))
            e1 = [d.area for d in disc_areas(builtin, f1)]
            e2 = [d.area for d in disc_areas(builtin, f2)]
            em = [d.area for d in disc_areas(builtin, mid)]
            assert em == [(a + b) / 2 for a, b in zip(e1, e2)]


class TestPartitionAndBalance:
    def test_partition_square(self):
        X = load_toric("CP1xCP1")
        part = area_partition(disc_areas(X, (F(1, 2), F(1, 3))))
        assert part == (
            (F(1, 3), (2,)),
            (F(1, 2), (0, 1)),
            (F(2, 3), (3,)),
        )

    def test_partition_merges_exact_ties_only(self):
        X = load_toric("CP2")
        part = area_partition(disc_areas(X, (F(1, 3), F(1, 3))))
        assert part == ((F(1, 3), (0, 1, 2)),)
        part = area_partition(disc_areas(X, (F(1, 3), F(1, 3) + F(1, 10**9))))
        assert len(part) == 3

    def test_balanced_center(self, builtin):
        res = is_balanced(builtin, balanced_fiber(builtin))
        assert res.balanced
        assert all(all(c == 0 for c in s) for s in res.class_sums)

    def test_unbalanced_point_sums(self):
        X = load_toric("CP2")
        res = is_balanced(X, (F(1, 4), F(1, 4)))
        assert not res.balanced
        assert res.class_sums == ((1, 1), (-1, -1))

    def test_rectangle_balanced_line_point(self):
        X = load_toric(RECT_DOC)
        res = is_balanced(X, (F(1), F(1, 2)))
        assert res.balanced
        assert len(res.class_sums) == 2

    def test_holonomy_must_be_trivial(self):
        X = load_toric("CP1")
        with pytest.raises(ValueError, match="twisted_class_sums"):
            is_balanced(X, Fiber((F(1, 2),), holonomy=(F(1, 4),)))
        res = is_balanced(X, Fiber((F(1, 2),), holonomy=(F(0),)))
        assert res.balanced


class TestGrid:
    def test_cp2_grid_count(self):
        X = load_toric("CP2")
        pts = list(interior_grid(X, F(1, 12)))
        assert len(pts) == 55
        assert all(len(p) == 2 for p in pts)

    @pytest.mark.parametrize(
        "name,step",
        [("CP1", F(1, 20)), ("CP2", F(1, 12)), ("CPn(3)", F(1, 20)), ("CP1xCP1", F(1, 20))],
    )
    def test_unique_balanced_point_on_fine_grid(self, name, step):
        X = load_toric(name)
        hits = [p for p in interior_grid(X, step) if is_balanced(X, p).balanced]
        assert hits == [balanced_fiber(X).u]

    def test_grid_missing_the_center_finds_nothing(self):
        # 1/3 is not a multiple of 1/20, and no other point balances CP2
        X = load_toric("CP2")
        assert not any(is_balanced(X, p).balanced for p in interior_grid(X, F(1, 20)))

    def test_random_points_balanced_only_at_center(self, builtin):
        rng = random.Random(12)
        target = balanced_fiber(builtin).u
        for _ in range(100):
            f = random_interior_fiber(builtin, rng)
            if is_balanced(builtin, f).balanced:
                assert f.u == target


def test_str_and_fiber_defaults():
    X = load_toric("CP2")
    assert str(X) == "CP2: 3 facets in dim 2"
    f = Fiber((F(1, 3), F(1, 3)))
    assert f.exact and f.holonomy is None and f.has_trivial_holonomy()


class TestHashComputedOnce:
    """ToricFano and Fiber hash by the value of their compared fields, as
    the dataclass hash does, and compute it once per instance."""

    def test_equal_instances_hash_equal(self):
        X, Y = load_toric("CP2"), load_toric("CP2")
        f, g = Fiber((F(1, 3), F(1, 3))), Fiber((F(1, 3), F(1, 3)))
        assert X is not Y and f is not g
        assert hash(X) == hash(Y) == hash((X.name, X.n, X.normals, X.offsets))
        assert hash(f) == hash(g) == hash((f.u, f.holonomy, f.exact))

    def test_replaced_fields_hash_by_their_new_value(self):
        X = load_toric("CP2")
        hash(X)
        offsets = (F(1, 2), F(0), F(-3))
        Y = ToricFano(X.name, X.n, X.normals, offsets, X.interior_point)
        assert hash(Y) == hash((X.name, X.n, X.normals, offsets)) != hash(X)
        f = Fiber((F(1, 3), F(1, 3)))
        hash(f)
        g = Fiber((F(1, 4), F(1, 3)), f.holonomy, f.exact)
        assert hash(g) == hash(((F(1, 4), F(1, 3)), None, True)) != hash(f)

    def test_pickled_copies_leave_the_hash_behind(self):
        # a str or None hashes differently in another process
        for x in (load_toric("CP2"), Fiber((F(1, 3), F(1, 3)))):
            h = hash(x)
            y = pickle.loads(pickle.dumps(x))
            assert y == x and "_hash" not in vars(y)
            assert hash(y) == h


def _frozen_values(kind: str) -> list:
    """Instances of one frozen value class, equal and unequal pairs among
    them, and for ToricFano two that differ only outside == and hash."""
    X, f, g = load_toric("CP2"), Fiber((F(1, 3), F(1, 3))), Fiber((F(1, 4), F(1, 3)))
    if kind == "ToricFano":
        moved = ToricFano(X.name, X.n, X.normals, X.offsets, (F(1, 5), F(1, 5)))
        renamed = ToricFano("P2", X.n, X.normals, X.offsets, X.interior_point)
        return [X, load_toric("CP2"), moved, renamed, load_toric("CP1xCP1")]
    if kind == "Fiber":
        return [f, Fiber((F(1, 3), F(1, 3))), g, Fiber(f.u, (F(1, 2), F(0))), Fiber(f.u, exact=False)]
    if kind == "DiscClass":
        return [*disc_areas(X, f), *disc_areas(load_toric("CP2"), g), DiscClass(0, (1, 0), F(1, 3), 4)]
    return [formal_hessian(X, f), formal_hessian(load_toric("CP2"), f), formal_hessian(X, g), QuadraticForm.zero(2)]


@pytest.mark.parametrize("kind", ["ToricFano", "Fiber", "DiscClass", "QuadraticForm"])
class TestFrozenValueClasses:
    """The frozen value classes behave as their @dataclass(frozen=True)
    twins in conftest: equality, hash, repr, pickling, refused assignment."""

    def test_equality_and_hash(self, kind):
        values = _frozen_values(kind)
        for a, b in itertools.product(values, repeat=2):
            assert (a == b) is (dataclass_twin(a) == dataclass_twin(b))
            assert (a != b) is (dataclass_twin(a) != dataclass_twin(b))
        for a in values:
            assert hash(a) == hash(dataclass_twin(a))
            assert a != dataclass_twin(a) and a != None  # noqa: E711

    def test_repr(self, kind):
        for a in _frozen_values(kind):
            assert repr(a) == repr(dataclass_twin(a)).removeprefix("Dataclass")

    def test_match_pattern(self, kind):
        a = _frozen_values(kind)[0]
        cls = type(a)
        assert cls.__match_args__ == type(dataclass_twin(a)).__match_args__
        match a:
            case cls(first, second):
                assert (first, second) == tuple(getattr(a, name) for name in cls.__match_args__[:2])
            case _:
                pytest.fail(f"{a!r} does not match a positional pattern")

    def test_pickled_copy(self, kind):
        for a in _frozen_values(kind):
            hash(a)
            b, twin = pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(dataclass_twin(a)))
            assert "_hash" not in vars(b) and b == a and hash(b) == hash(a)
            assert repr(b) == repr(twin).removeprefix("Dataclass")

    def test_assignment_is_refused(self, kind):
        for a in _frozen_values(kind):
            before, twin = repr(a), dataclass_twin(a)
            for name in (*vars(twin), "other"):
                for change in (lambda x: setattr(x, name, 0), lambda x: delattr(x, name)):
                    with pytest.raises(AttributeError) as ours:
                        change(a)
                    with pytest.raises(AttributeError) as theirs:
                        change(twin)
                    assert str(ours.value) == str(theirs.value)
            assert repr(a) == before


class TestFiberCoordinatesBecomeFractions:
    """A Fiber's coordinates are read as Fraction(x), like a plain sequence's."""

    def test_float_fiber_gives_the_exact_areas(self):
        X = load_toric("CP2")
        got = disc_areas(X, Fiber((0.25, 0.25)))
        assert got == disc_areas(X, (F(1, 4), F(1, 4)))
        assert all(type(d.area) is F for d in got)
        assert is_balanced(X, Fiber((0.25, 0.25))) == is_balanced(X, (F(1, 4), F(1, 4)))

    def test_integer_coordinates(self):
        X = make_toric("interval", 1, [(1,), (-1,)], [0, -4])
        for f in (Fiber((1,)), (1,)):
            got = disc_areas(X, f)
            assert [d.area for d in got] == [1, 3]
            assert all(type(d.area) is F for d in got)


class TestNormalFiberCheckedOnce:
    """_as_fiber returns a Fiber that is already normal as it is, and
    checks that once per instance."""

    def test_accepted_fiber_is_returned_as_it_is(self):
        f = Fiber((F(1, 3), F(1, 3)), holonomy=(F(1, 2), F(0)))
        assert toric._as_fiber(f) is f
        assert vars(f)["_normal"] is True
        assert toric._as_fiber(f) is f
        assert toric._as_fiber(Fiber((F(1, 4),))).u == (F(1, 4),)

    @pytest.mark.parametrize("u", [(1, F(1, 3)), (F(1, 3), 0.25), [F(1, 3), F(1, 3)]])
    def test_int_float_or_list_coordinates_are_normalized(self, u):
        f = Fiber(u)
        for _ in range(2):
            g = toric._as_fiber(f)
            assert g is not f and type(g.u) is tuple
            assert all(type(x) is F for x in g.u) and g.u == tuple(F(x) for x in u)
            assert toric._as_fiber(g) is g
        assert vars(f)["_normal"] is False

    def test_list_holonomy_becomes_a_tuple(self):
        f = Fiber((F(1, 3), F(1, 3)), holonomy=[F(1, 2), F(0)])
        g = toric._as_fiber(f)
        assert g is not f and g.holonomy == (F(1, 2), F(0)) and hash(g) == hash(g)

    def test_pickled_accepted_fiber_hashes_equal(self):
        f = Fiber((F(1, 3), F(2, 5)))
        assert toric._as_fiber(f) is f
        h = hash(f)
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == h
        assert toric._as_fiber(g) is g


def _box(lows, highs):
    n = len(lows)
    normals = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    offsets = [c for lo, hi in zip(lows, highs) for c in (lo, -hi)]
    return make_toric("box", n, normals, offsets)


def brute_force_grid(X, step):
    """Every multiple of step in the bounding box padded by three steps at
    each end of every axis, kept when it is strictly inside."""
    axes = [
        [step * j for j in range(math.floor(lo / step) - 3, math.ceil(hi / step) + 4)]
        for lo, hi in X.bounds
    ]
    return [
        p
        for p in itertools.product(*axes)
        if all(sum(ui * vi for ui, vi in zip(p, v)) > lam for v, lam in zip(X.normals, X.offsets))
    ]


class TestGridRange:
    """interior_grid walks exactly the indices that can be inside: a grid
    point on a bound is never strictly inside, and the first and last
    index strictly within the bounds are, for a box."""

    @pytest.mark.parametrize(
        "lows,highs,step",
        [
            # bounds on the grid
            ((0, 0), (1, 2), F(1, 4)),
            ((F(-1, 2), F(1, 3)), (F(3, 2), 2), F(1, 6)),
            ((0,), (10,), 2),
            ((-3, 0, 6), (3, 9, 12), 3),
            # bounds off the grid
            ((F(1, 3), F(-2, 7)), (F(7, 5), 1), F(1, 4)),
            ((F(1, 3),), (F(5, 3),), F(1, 2)),
            ((F(1, 2), -1, F(-7, 3)), (10, F(5, 2), F(1, 9)), 3),
            ((F(-5, 2), F(1, 10)), (F(13, 4), F(29, 10)), F(2, 3)),
        ],
    )
    def test_box_matches_brute_force(self, lows, highs, step):
        X = _box(lows, highs)
        got = list(interior_grid(X, step))
        assert got == brute_force_grid(X, step)
        # the first and last index within the bounds are taken on every axis
        for i, (lo, hi) in enumerate(X.bounds):
            coords = [p[i] for p in got]
            assert min(coords) == step * (math.floor(lo / step) + 1)
            assert max(coords) == step * (math.ceil(hi / step) - 1)

    @pytest.mark.parametrize("name", ["CP1", "CP2", "CP1xCP1", "CPn(3)"])
    @pytest.mark.parametrize("shift", [F(0), F(1, 3), F(-5, 7)])
    def test_translated_builtins_match_brute_force(self, name, shift):
        Y = load_toric(name)
        X = make_toric(
            name,
            Y.n,
            Y.normals,
            [lam + shift * sum(v) for v, lam in zip(Y.normals, Y.offsets)],
        )
        for step in (F(1, 6), F(1, 7), F(2, 5)):
            assert list(interior_grid(X, step)) == brute_force_grid(X, step)

    def test_head_walk_holds_no_copy_of_an_axis(self):
        # [0, 10^4] x [0, 1] at step 1 has 10^4 - 1 head indices and no line
        # with an interior point: walking them must not first store them all
        X = _box((0, 0), (10**4, 1))
        tracemalloc.start()
        try:
            assert list(toric._grid_lines(X, F(1))) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


_WALKED = {
    **{f"CPn({n})": (load_toric(f"CPn({n})").normals, [0] * n + [-1]) for n in range(1, 5)},
    "rect": ([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -2, 0, -1]),
    "box123": (
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [0, -1, 0, -2, 0, -3],
    ),
    "cube4": (
        [tuple(s * (j == i) for j in range(4)) for i in range(4) for s in (1, -1)],
        [0, -1] * 4,
    ),
    "hexagon": ([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)], [-1] * 6),
    "F1_third": ([(1, 0), (1, 1), (0, 1), (-1, -1)], [0, F(1, 3), 0, -1]),
}


def _box_points(X, step):
    """The grid indices in X's bounding box, which the oracle walks."""
    return math.prod(math.ceil(hi / step) - math.floor(lo / step) + 1 for lo, hi in X.bounds)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(_WALKED)),
    moves=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)), max_size=2
    ),
    k=st.sampled_from([1, 7, 60]),
    shift=st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 12)), min_size=4, max_size=4),
    grid=st.integers(1, 12),
)
def test_head_walk_matches_the_bounding_box_walk(name, moves, k, shift, grid):
    """_grid_lines and interior_grid, which walk their heads inside the
    projections, against the walk of the bounding box that they replaced,
    on dilated, translated and sheared polytopes.  The grid is coarsened
    until the box holds at most 20,000 points, so that the oracle ends."""
    normals, offsets = _WALKED[name]
    n = len(normals[0])
    lams = [k * lam + sum(map(operator.mul, shift, v)) for v, lam in zip(normals, offsets)]
    shears = [(i, j, c) for i, j, c in moves if i < n and j < n and i != j]
    X = shear(make_toric(name, n, normals, lams), Fiber((F(0),) * n), shears)[0]
    while grid > 1 and _box_points(X, F(1, grid)) > 20_000:
        grid -= 1
    step = F(1, grid)
    assume(_box_points(X, step) <= 20_000)
    expected = list(oracle_grid_lines(X, step))
    assert list(toric._grid_lines(X, step)) == expected
    points = [
        (*(step * h for h in head), step * t) for head, lo, hi, *_ in expected for t in range(lo, hi + 1)
    ]
    assert list(interior_grid(X, step)) == points


class TestGridStepMustBePositive:
    @pytest.mark.parametrize("step", [F(0), 0, F(-1, 3), -1])
    def test_nonpositive_step_rejected(self, step):
        X = load_toric("CP2")
        with pytest.raises(ValueError, match="step must be positive"):
            list(interior_grid(X, step))


# the built-ins, the rectangle [0,2]x[0,1] and the cubes [0,1]^k, k <= 4,
# as (normals, offsets)
def _cube(k):
    normals = [tuple(s if j == i else 0 for j in range(k)) for i in range(k) for s in (1, -1)]
    return normals, [0, -1] * k


_SHAPES = {
    name: (load_toric(name).normals, load_toric(name).offsets)
    for name in ("CP1", "CP2", "CP1xCP1", "CPn(3)")
}
_SHAPES["rect"] = ([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -2, 0, -1])
_SHAPES.update({f"cube{k}": _cube(k) for k in range(1, 5)})
_SHIFT = st.builds(F, st.integers(-30, 30), st.integers(2, 12))
_OFFSET = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(_SHAPES)),
    k=st.sampled_from([1, 60, 3000]),
    shift=st.lists(_SHIFT, min_size=4, max_size=4),
    points=st.lists(st.lists(_OFFSET, min_size=4, max_size=4), max_size=6),
    step=st.tuples(st.integers(1, 5), st.integers(1, 12)),
)
def test_geometry_matches_fraction_oracle(name, k, shift, points, step):
    """Areas, NotInterior messages, grid points, bounds and the interior
    witness of a dilated, rationally translated polytope against the
    Fraction-per-term versions they replaced."""
    normals, offsets = _SHAPES[name]
    n = len(normals[0])
    t = shift[:n]
    lams = [k * lam + sum(ti * vi for ti, vi in zip(t, v)) for v, lam in zip(normals, offsets)]
    X = make_toric(name, n, normals, lams)
    assert X.bounds == tuple(oracle_coordinate_bounds(oracle_fraction_rows(X, False), n))
    assert X.interior_point == oracle_solve_strict(oracle_fraction_rows(X, True), n)

    # points near the box, scaled with it, inside and outside
    centre = [(lo + hi) / 2 for lo, hi in X.bounds]
    for p in points:
        u = tuple(c + k * x / 10 for c, x in zip(centre, p[:n]))
        for f in (u, Fiber(u)):
            try:
                expected = oracle_disc_areas(X, f)
            except NotInterior as exc:
                with pytest.raises(NotInterior) as got:
                    disc_areas(X, f)
                assert str(got.value) == str(exc)
            else:
                assert disc_areas(X, f) == expected
    with pytest.raises(NotInterior) as got:
        disc_areas(X, centre + [F(0)])
    with pytest.raises(NotInterior) as exc:
        oracle_disc_areas(X, centre + [F(0)])
    assert str(got.value) == str(exc.value)

    # steps k*p/q and k/q, at most `cap` of them per unit of k along an axis
    cap = 12 if n <= 2 else 4
    p, q = step
    for s in (F(k * p, min(q, cap * p)), F(k, min(q, cap))):
        assert list(interior_grid(X, s)) == list(oracle_interior_grid(X, s))


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(_SHAPES)),
    k=st.sampled_from([1, 60, 3000]),
    shift=st.lists(_SHIFT, min_size=4, max_size=4),
    points=st.lists(st.lists(st.sampled_from([F(0), F(1, 2), F(-1, 3)]) | _OFFSET, min_size=4, max_size=4), max_size=6),
)
def test_fiber_areas_group_on_integer_numerators(name, k, shift, points):
    """_fiber_areas, which groups the facets on integer area numerators,
    against area_partition of disc_areas and of the Fraction oracle, with
    one Fraction per class and the oracle's NotInterior message; and the
    integer balance test against the partition's."""
    normals, offsets = _SHAPES[name]
    n = len(normals[0])
    t = shift[:n]
    lams = [k * lam + sum(ti * vi for ti, vi in zip(t, v)) for v, lam in zip(normals, offsets)]
    X = make_toric(name, n, normals, lams)
    centre = [(lo + hi) / 2 for lo, hi in X.bounds]
    for u in [X.interior_point, tuple(centre)] + [
        tuple(c + k * x / 10 for c, x in zip(centre, p[:n])) for p in points
    ]:
        try:
            expected = oracle_disc_areas(X, u)
        except NotInterior as exc:
            with pytest.raises(NotInterior) as got:
                toric._fiber_areas(X, u)
            assert str(got.value) == str(exc)
            continue
        classes, partition, balance = toric._fiber_areas(X, u)
        assert classes == expected == disc_areas(X, u)
        assert partition == area_partition(expected) == area_partition(disc_areas(X, u))
        for area, idxs in partition:
            assert all(classes[i].area is area for i in idxs)
        sums = tuple(
            tuple(sum(X.normals[i][j] for i in idxs) for j in range(n)) for _a, idxs in partition
        )
        assert balance == (not any(map(any, sums)), sums)
        assert toric._balanced_at(X, u) == ((classes, partition, balance) if balance.balanced else None)


def _system(data, n, kind):
    """Integer rows (a, b) over n variables with entries in [-5, 5]: up to
    n + 2 drawn rows and up to two integer combinations of them.  The
    right-hand sides are drawn ("any"), or read off a rational point
    ("consistent"), each row then scaled by its denominator."""
    entry = st.integers(-5, 5)
    coefficients = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n + 2))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(coefficients) - 1))
        j = data.draw(st.integers(0, len(coefficients) - 1))
        c, d = data.draw(entry), data.draw(entry)
        coefficients.append([c * x + d * y for x, y in zip(coefficients[i], coefficients[j])])
    if kind == "any":
        return [(tuple(a), data.draw(entry)) for a in coefficients]
    Y = data.draw(st.lists(entry, min_size=n, max_size=n))
    D = data.draw(st.integers(1, 5))
    return [(tuple(D * c for c in a), sum(map(operator.mul, a, Y))) for a in coefficients]


@pytest.mark.parametrize("kind", ["any", "consistent"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_rows_matches_the_fraction_oracle(kind, data):
    n = data.draw(st.integers(1, 6))
    rows = _system(data, n, kind)
    got = toric._solve_rows(rows, n)
    expected = oracle_solve_rows(rows, n)
    if got is None:
        assert expected is None
    else:
        Y, D = got
        assert D > 0 and math.gcd(D, *Y) == 1
        assert tuple(F(y, D) for y in Y) == expected


@pytest.mark.parametrize(
    "rows, n, expected",
    [
        ([((2, 1), 3), ((1, -1), 0)], 2, (F(1), F(1))),
        # a dependent row that agrees, then one that does not
        ([((1, 1), 1), ((2, 2), 2), ((1, -1), 0)], 2, (F(1, 2), F(1, 2))),
        ([((1, 1), 1), ((1, -1), 0), ((2, 2), 3)], 2, None),
        # inconsistent on one variable, and too few independent rows
        ([((1,), 1), ((1,), 2)], 1, None),
        ([((1, 1), 1), ((2, 2), 2)], 2, None),
        ([((0, 0, 3), -2), ((0, 5, 0), 1), ((-1, 0, 0), 4)], 3, (F(-4), F(1, 5), F(-2, 3))),
    ],
    ids=["unique", "dependent", "inconsistent", "contradiction", "rank_deficient", "permuted"],
)
def test_solve_rows_examples(rows, n, expected):
    got = toric._solve_rows(rows, n)
    assert oracle_solve_rows(rows, n) == expected
    assert (None if got is None else tuple(F(y, got[1]) for y in got[0])) == expected


def _equal_area_point(X):
    """The point at one distance from every facet: one class of all N."""
    return toric._class_point(X, [range(X.num_facets)])


@pytest.mark.parametrize("n", range(1, 7))
def test_equal_area_point_of_the_simplex_is_its_centre(n):
    assert _equal_area_point(load_toric(f"CPn({n})")) == (F(1, n + 1),) * n


def test_equal_area_point_needs_one_distance_to_every_facet():
    # the rectangle [0,2]x[0,1]: no point is at one distance from all four
    assert _equal_area_point(load_toric(RECT_DOC)) is None
    assert _equal_area_point(load_toric("CP1xCP1")) == (F(1, 2), F(1, 2))


def test_class_point_of_the_rectangle_is_its_centre():
    # facets 0, 1 bound x and 2, 3 bound y: one distance per class at (1, 1/2)
    assert toric._class_point(load_toric(RECT_DOC), [[0, 1], [2, 3]]) == (F(1), F(1, 2))


def test_class_point_needs_n_independent_rows():
    # the x facets alone fix x = 1 and leave y free
    assert toric._class_point(load_toric(RECT_DOC), [[0, 1], [2], [3]]) is None


def _hard_rational(low: int, high: int):
    """Rationals in [low, high] with denominators up to 10^12."""
    return st.integers(1, 10**12).flatmap(
        lambda q: st.integers(low * q, high * q).map(lambda p: F(p, q))
    )


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    frame=st.booleans(),
    k=st.integers(1, 10**40),
)
def test_validation_matches_oracle_on_hard_rationals(data, n, frame, k):
    """make_toric's verdict, bounds and witness against the Fraction
    elimination on primitive normals with entries in [-5, 5], offsets with
    denominators up to 10^12, dilated by k <= 10^40 and translated by a
    rational vector.  With the simplex frame e_1..e_n, -(1..1) most draws
    are bounded; without it most are not.  Facets stay few in dimension 4,
    where the oracle's elimination to constants grows fastest."""
    primitive = st.tuples(*[st.integers(-5, 5)] * n).filter(any).map(
        lambda v: tuple(c // math.gcd(*v) for c in v)
    )
    extra = 3 if n < 4 else 1
    if frame:
        normals = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
        normals += data.draw(st.lists(primitive, max_size=extra))
    else:
        normals = data.draw(st.lists(primitive, min_size=n + 1, max_size=n + 1 + extra))
    size = len(normals)
    offsets = data.draw(st.lists(_hard_rational(-3, 1), min_size=size, max_size=size))
    t = data.draw(st.lists(_hard_rational(-10**6, 10**6), min_size=n, max_size=n))
    lams = [k * lam + sum(map(operator.mul, t, v)) for v, lam in zip(normals, offsets)]

    got = TestValidationMatchesOracle._verdict(normals, lams, n)
    expected = oracle_validate(normals, lams, n)
    repeated = TestValidationMatchesOracle._repeated(normals)
    if expected[0] == "ok" and repeated is not None:
        expected = "repeated", repeated, None
    assert got == expected, (normals, lams)
    if got[0] == "ok":
        X = make_toric("hard", n, normals, lams)
        assert len(disc_areas(X, X.interior_point)) == len(normals)


# every nonzero normal in {-1,0,1}^n with offset -k + <v, t> cuts out the
# cross-polytope |u - t|_1 <= k, since <v, u - t> >= -|u - t|_1 with
# equality at v = -sign(u - t); its section at u_0..u_{i-1} = t_0..t_{i-1}
# is the interval [t_i - k, t_i + k], so the witness is t
@pytest.mark.parametrize("k, t", [(1, (0, 0, 0, 0)), (5, (2, -3, 1, 7)), (60, (-11, 0, 4, -1))])
@pytest.mark.parametrize("n", [3, 4])
def test_many_facets_in_closed_form(n, k, t):
    """The 26- and 80-facet cross-polytopes, dilated and translated: bounds
    and witness read off the centre and radius, with no elimination, and
    the 80-facet one validated within a second of CPU time."""
    t = t[:n]
    normals = [v for v in itertools.product((-1, 0, 1), repeat=n) if any(v)]
    lams = [-k + sum(map(operator.mul, v, t)) for v in normals]
    start = time.process_time()
    X = make_toric(f"all{len(normals)}", n, normals, lams)
    assert time.process_time() - start < 1.0
    assert X.bounds == tuple((F(ti - k), F(ti + k)) for ti in t)
    assert X.interior_point == tuple(map(F, t))


_FAMILIES = [load_toric(f"CPn({n})") for n in range(1, 7)] + [
    make_toric(f"CP1^{n}", n, *_cube(n)) for n in range(1, 7)
]


@pytest.mark.parametrize("k", [1, 60])
@pytest.mark.parametrize("X", _FAMILIES, ids=lambda X: X.name)
def test_every_split_matches_the_oracle(X, k):
    """Bounds and witness against the Fraction elimination in dimensions 1
    to 6, where the elimination tree splits every width up to 6, dilated
    by k and translated by a rational vector."""
    t = [F(2 * i - 5, i + 2) for i in range(X.n)]
    lams = [k * lam + sum(map(operator.mul, t, v)) for v, lam in zip(X.normals, X.offsets)]
    Y = make_toric(X.name, X.n, X.normals, lams)
    assert Y.bounds == tuple(oracle_coordinate_bounds(oracle_fraction_rows(Y, False), X.n))
    assert Y.interior_point == oracle_solve_strict(oracle_fraction_rows(Y, True), X.n)


@pytest.mark.parametrize("X", _FAMILIES, ids=lambda X: X.name)
def test_elimination_tree_size(X, monkeypatch):
    """make_toric eliminates along the spine, n - 1 times; the first read
    of the bounds runs the tree, n + T(floor(n/2)) + T(ceil(n/2))
    eliminations, 16 at n = 6, where one chain per axis would take
    n(n - 1), and a second read runs none."""
    calls = []
    original = toric._eliminate
    monkeypatch.setattr(toric, "_eliminate", lambda rows, k: calls.append(k) or original(rows, k))
    Y = make_toric(X.name, X.n, X.normals, X.offsets)
    assert calls == [-1] * (X.n - 1)
    calls.clear()
    Y.bounds
    assert len(calls) == [0, 2, 5, 8, 12, 16][X.n - 1]
    calls.clear()
    assert Y.coordinate_bounds() == list(Y.bounds)
    assert calls == []


def test_elimination_drops_zero_rows_and_keeps_the_tightest():
    # y0 + y1 >= 1, 2, 3 against -y1 >= -4 and -y0 - y1 >= -9: eliminating
    # y1 makes six rows of three, y0 >= -3, -2, -1, kept as y0 >= -1, and
    # 0 >= -8, -7, -6, dropped
    rows = [((1, 1), 1), ((1, 1), 2), ((1, 1), 3), ((0, -1), -4), ((-1, -1), -9)]
    assert toric._eliminate(rows, -1) == [((1,), -1)]
    # one row against one does not grow the system: nothing is merged
    rows = [((0, 1), 5), ((1, 2), 0), ((0, 1), 7), ((-1, 2), 0)]
    assert toric._eliminate(rows, 0) == [((1,), 5), ((1,), 7), ((4,), 0)]


# conftest.random_interior_fiber draws coordinate by coordinate, so it
# reaches the interior of CPn(6), about 1/720 of its bounding box
@pytest.mark.parametrize(
    "X",
    [load_toric(f"CPn({n})") for n in range(1, 7)]
    + [make_toric(f"CP1^{k}", k, *_cube(k)) for k in range(1, 7)],
    ids=lambda X: X.name,
)
def test_random_interior_fiber_is_interior(X):
    for seed in range(50):
        f = random_interior_fiber(X, random.Random(seed))
        assert all(u.denominator <= 60 and 60 % u.denominator == 0 for u in f.u)
        assert len(disc_areas(X, f)) == X.num_facets  # raises unless strictly inside
