import dataclasses
import itertools
import json
import math
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfloer import (
    Fiber,
    InvalidPolytope,
    NotInterior,
    ParseError,
    ToricFano,
    area_partition,
    disc_areas,
    interior_grid,
    is_balanced,
    load_toric,
    make_toric,
    toric,
)

from conftest import (
    balanced_fiber,
    oracle_coordinate_bounds,
    oracle_disc_areas,
    oracle_fraction_rows,
    oracle_interior_grid,
    oracle_solve_strict,
    oracle_validate,
    random_interior_fiber,
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
        Y = dataclasses.replace(X, offsets=offsets)
        assert hash(Y) == hash((X.name, X.n, X.normals, offsets)) != hash(X)
        f = Fiber((F(1, 3), F(1, 3)))
        hash(f)
        g = dataclasses.replace(f, u=(F(1, 4), F(1, 3)))
        assert hash(g) == hash(((F(1, 4), F(1, 3)), None, True)) != hash(f)

    def test_pickled_copies_leave_the_hash_behind(self):
        # a str or None hashes differently in another process
        for x in (load_toric("CP2"), Fiber((F(1, 3), F(1, 3)))):
            h = hash(x)
            y = pickle.loads(pickle.dumps(x))
            assert y == x and "_hash" not in vars(y)
            assert hash(y) == h


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
