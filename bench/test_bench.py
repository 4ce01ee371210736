"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from toricfloer import formal_hessian, load_toric  # noqa: E402
from workloads import ReferenceClifford, cube, rectangle, simplex  # noqa: E402


def _inputs(jobs):
    return [(job.label, job.inputs) for job in jobs]


@pytest.mark.parametrize("name", ["scan", "analyze"])
def test_same_seed_same_jobs(name):
    make = workloads.WORKLOADS[name]
    assert _inputs(make(7, 0)) == _inputs(make(7, 0))
    assert _inputs(make(7, 0)) != _inputs(make(8, 0))
    assert _inputs(make(7, 0)) != _inputs(make(7, 1))


def test_same_seed_same_ring_jobs():
    first = _inputs(workloads.ring_pass(7, 0))
    assert first == _inputs(workloads.ring_pass(7, 0))
    assert first != _inputs(workloads.ring_pass(8, 0))


def test_ring_hessians_distinct_across_passes():
    def hessians(p):
        seen = {job.inputs[:2] for job in workloads.ring_pass(3, p)}
        return {
            formal_hessian(load_toric(P_json), [Fraction(s) for s in fiber.split(",")])
            for P_json, fiber in seen
        }

    first, second = hessians(0), hessians(1)
    assert len(first) == len(workloads.RING_FAMILIES)
    assert not first & second


# -- references ---------------------------------------------------------------


def _run(job):
    return worker.run_job(job)[1]


def _tampered(job, edit):
    def run():
        code, text = job.run()
        doc = json.loads(text)
        edit(doc)
        return code, json.dumps(doc)

    return workloads.Job(job.label, run, job.check)


def test_analyze_reference_accepts_and_rejects():
    job = workloads.analyze_job(simplex(2, 3, (1, -2)))
    assert _run(job) is None

    def flip_rank(doc):
        doc["hf_rank"] = 0

    def move_fiber(doc):
        doc["fiber"]["u"] = ["1", "1"]

    def break_chain_map(doc):
        doc["chain_map"]["all_hold"] = False

    assert _run(_tampered(job, flip_rank)) == workloads.WRONG_RANK
    assert _run(_tampered(job, move_fiber)) == workloads.WRONG_FIBER
    assert _run(_tampered(job, break_chain_map)) == workloads.WRONG_CHAIN_MAP
    bad_exit = workloads.Job(job.label, lambda: (2, ""), job.check)
    assert _run(bad_exit) == workloads.EXIT_CODE


def test_scan_reference_accepts_and_rejects():
    job = workloads.scan_job(cube(2, 1, (3, -4)), 4)
    assert _run(job) is None

    def flip_rank(doc):
        doc["balanced_fibers"][0]["hf_rank"] = 0

    def lose_point(doc):
        doc["points_scanned"] -= 1

    def nonzero_unbalanced(doc):
        doc["unbalanced_points_with_nonzero_rank"] = 1

    assert _run(_tampered(job, flip_rank)) == workloads.WRONG_RANK
    assert _run(_tampered(job, lose_point)) == workloads.WRONG_FIBER
    assert _run(_tampered(job, nonzero_unbalanced)) == workloads.WRONG_RANK


def test_grid_points_counts_simplex_lattice():
    # positive integer solutions of j_1 + ... + j_n < g: binomial(g - 1, n)
    assert len(workloads.grid_points(simplex(3, 1, (2, -1, 5)), 5)) == 4
    assert len(workloads.grid_points(simplex(2, 1), 6)) == 10
    assert len(workloads.grid_points(cube(2, 1, (-3, 0)), 4)) == 9


def test_ring_reference_accepts_and_rejects():
    jobs = workloads.ring_jobs_for(rectangle(3, (1, 2)))
    assert all(_run(job) is None for job in jobs)
    job = jobs[5]

    def doubled():
        return job.run() * 2

    assert _run(workloads.Job(job.label, doubled, job.check)) == workloads.WRONG_PRODUCT


@pytest.mark.parametrize("P", [simplex(3, 2), cube(2, 3), rectangle(1)])
def test_reference_clifford_relations(P):
    ref = ReferenceClifford(P, P.centre)
    one = {(Fraction(0), 0): Fraction(1)}
    for i in range(P.n):
        half = {k: c / 2 for k, c in ref.Q[i][i].items()}
        assert ref.product((i,), (i,)) == {(): half}
        for j in range(i + 1, P.n):
            ij, ji = ref.product((i,), (j,)), ref.product((j,), (i,))
            assert ij == {(i, j): one}
            assert ji.get((), {}) == ref.Q[i][j]
            assert ji.get((i, j)) == {(Fraction(0), 0): Fraction(-1)}
    words = [(), (0,), tuple(range(P.n))]
    for S in words:
        assert ref.product((), S) == {S: one} == ref.product(S, ())
        for T in words:
            grades = {len(w) for w in ref.product(S, T)}
            assert all(g <= P.n and (g - len(S) - len(T)) % 2 == 0 for g in grades)


# -- tracer ----------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [
        (0, 0.0, 10.0, -1, 0, False),
        (1, 1.0, 4.0, 0, 0, False),
        (2, 2.0, 3.0, 1, 0, False),
        (1, 5.0, 9.0, 0, 0, True),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = tracer.layer_metrics(spans, jobs=2)
    name0, name1 = tracer.LAYERS[0][0], tracer.LAYERS[1][0]
    assert m[f"{name1}.calls"] == 1.0
    assert m[f"{name1}.self_s"] == 3.0
    assert m[f"{name1}.errors"] == 0.5
    assert m[f"{name0}.self_s"] == 1.5


def _callables(modules):
    return {
        (mod.__name__, attr): value
        for mod in modules
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_restores_originals_everywhere():
    import toricfloer
    from toricfloer import chains, cli, floer, novikov, potential, toric

    modules = (toricfloer, chains, cli, floer, novikov, potential, toric)
    before = _callables(modules)
    invert = novikov.NovikovElement.__dict__["invert"]
    certificate = chains.ChainAlgebra.__dict__["chain_map_certificate"]
    t = tracer.Tracer()
    with t:
        assert cli.hf_rank is not before["toricfloer.floer", "hf_rank"]
        assert cli.hf_rank is floer.hf_rank is toricfloer.hf_rank
        assert floer.disc_areas is toric.disc_areas is potential.disc_areas
        assert novikov.NovikovElement.__dict__["invert"] is not invert
        assert cli.main(["scan", "--input", "CP2", "--grid", "4", "--format", "json"]) == 0
    assert t.spans and all(span is not None for span in t.spans)
    names = {tracer.LAYERS[s[0]][0] for s in t.spans}
    assert {"cli.main", "floer.hf_rank", "novikov.invert", "toric.disc_areas"} <= names
    assert _callables(modules) == before
    assert novikov.NovikovElement.__dict__["invert"] is invert
    assert chains.ChainAlgebra.__dict__["chain_map_certificate"] is certificate


def test_normalised_rescales_by_local_kernel_time():
    # kernel took 2 and 4 reference units around the first job, 4 and 4 around the second
    ref = calibrate.CAL_REF_S
    samples = [(0.0, 2 * ref), (1.0, 4 * ref), (2.0, 4 * ref)]
    assert calibrate.normalised([0.5, 1.5], [3.0, 4.0], samples) == [1.0, 1.0]


# -- cap ------------------------------------------------------------------------------


def test_cap_turns_busy_loop_into_timeout():
    def spin():
        while True:
            pass

    job = workloads.Job("spin", spin, lambda out: None)
    start = time.perf_counter()
    elapsed, reason = worker.run_job(job, cap=0.2)
    assert reason == workloads.TIMEOUT
    assert elapsed == 0.2
    assert time.perf_counter() - start < 2.0
