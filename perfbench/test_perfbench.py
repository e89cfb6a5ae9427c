"""Tests of the benchmark itself: seeded inputs, output checks, the
module -> layer map and the metric names.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import cProfile
import dataclasses
import json
import math
import pathlib
import pstats
import random
import sys
import types

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


# -- generators are pure functions of the seed --------------------------

def test_plan_deck_is_seeded():
    a = workloads.plan_deck(random.Random(7))
    assert a == workloads.plan_deck(random.Random(7))
    assert a != workloads.plan_deck(random.Random(8))
    assert len(a) == (len(workloads.PLAN_PLATFORMS) * len(workloads.PLAN_PS)
                      * len(workloads.PLAN_NS))
    assert all(q.n % 256 == 0 and 64 <= q.p <= 4096 for q in a)


def test_multiply_inputs_are_seeded():
    deck = workloads.multiply_deck(random.Random(7))
    assert deck == workloads.multiply_deck(random.Random(7))
    assert deck != workloads.multiply_deck(random.Random(8))
    desc = min(deck, key=lambda d: d[0][2])
    A1, B1, _ = workloads.multiply_prepare(desc)
    A2, B2, _ = workloads.multiply_prepare(desc)
    assert np.array_equal(A1, A2) and np.array_equal(B1, B2)


def test_stream_inputs_are_seeded():
    seeds = workloads.stream_deck(random.Random(7))
    assert seeds == workloads.stream_deck(random.Random(7))
    assert seeds != workloads.stream_deck(random.Random(8))
    assert workloads.stream_prepare(seeds[0]) == workloads.stream_prepare(seeds[0])
    assert workloads.stream_prepare(seeds[0]) != workloads.stream_prepare(seeds[1])


def test_every_stream_holds_the_same_size_mix():
    mix = sorted(size for size, count in workloads.STREAM_MIX
                 for _ in range(count))
    for seed in workloads.stream_deck(random.Random(3)):
        jobs, _ = workloads.stream_prepare(seed)
        assert sorted((job.n, job.p) for job in jobs) == mix


def test_multiply_deck_only_tiles():
    assert all(workloads.tiles(*cfg) for cfg in workloads.MULTIPLY_DECK)
    assert not workloads.tiles("cannon", 32, 1024, "grid5000-graphene", None)
    assert not workloads.tiles("summa", 96, 1000, "grid5000-graphene", None)
    assert not workloads.tiles("hsumma", 64, 1024, "grid5000-graphene", 3)
    assert not workloads.tiles("summa", 18, 576, "bluegene-p", None)


# -- each check accepts a right output and rejects a wrong one ----------

def test_check_product():
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((64, 32)), rng.standard_normal((32, 48))
    workloads.check_product(A, B, A @ B)
    C = A @ B
    C[3, 5] += 1e-6
    with pytest.raises(CheckFailed):
        workloads.check_product(A, B, C)
    with pytest.raises(CheckFailed):
        workloads.check_product(A, B, (A @ B)[:, :47])
    C = A @ B
    C[0, 0] = np.nan
    with pytest.raises(CheckFailed):
        workloads.check_product(A, B, C)


def test_multiply_op_passes_its_check():
    wl = workloads.WORKLOADS["multiply_data"]
    inputs = wl.prepare(wl.warmup)
    wl.check(inputs, wl.op(inputs))


@pytest.fixture(scope="module")
def plan_and_query():
    from repro.planner import PlanQuery

    query = PlanQuery(n=1024, p=64, platform="bluegene-p")
    return query, workloads.plan_op(query)


def test_check_plan_accepts_a_real_plan(plan_and_query):
    workloads.check_plan(*plan_and_query)


@pytest.mark.parametrize("change", [
    {"predicted_time": math.inf},
    {"lower_bound_gap": math.nan},
    {"predicted_time": 0.0},
    {"candidates": 0},
    {"params": {"grid": {1, 2}}},
    {"advisory": {"25d": {"predicted_time": math.inf}}},
])
def test_check_plan_rejects(plan_and_query, change):
    query, plan = plan_and_query
    with pytest.raises(CheckFailed):
        workloads.check_plan(query, dataclasses.replace(plan, **change))


def test_check_plan_rejects_an_answer_to_another_query(plan_and_query):
    query, plan = plan_and_query
    with pytest.raises(CheckFailed):
        workloads.check_plan(dataclasses.replace(query, n=2048), plan)


def _stream(completed, failed, rejected, statuses):
    report = types.SimpleNamespace(jobs=len(statuses), completed=completed,
                                   failed=failed, rejected=rejected)
    records = [types.SimpleNamespace(status=s) for s in statuses]
    return types.SimpleNamespace(report=report, records=records)


def test_check_stream():
    workloads.check_stream(3, _stream(1, 1, 1, ["done", "failed", "rejected"]))
    with pytest.raises(CheckFailed):
        workloads.check_stream(3, _stream(2, 1, 1, ["done", "failed", "rejected"]))
    with pytest.raises(CheckFailed):
        workloads.check_stream(3, _stream(1, 1, 1, ["done", "failed", "queued"]))
    with pytest.raises(CheckFailed):
        workloads.check_stream(4, _stream(1, 1, 1, ["done", "failed", "rejected"]))


def test_stream_is_checked_and_replays_identically():
    wl = workloads.WORKLOADS["serve_stream"]
    inputs = wl.prepare(wl.warmup)
    first = wl.op(inputs)
    wl.check(inputs, first)
    assert wl.fingerprint(first) == wl.fingerprint(wl.op(inputs))


# -- only the known refusal leaves a run correct -------------------------

def _raising(exc):
    def op(inputs):
        raise exc
    return op


def test_deadlock_in_a_multiply_makes_the_run_incorrect():
    from repro.errors import DeadlockError

    wl = workloads.WORKLOADS["multiply_data"]
    ok = run.execute(wl, wl.warmup)
    assert ok["status"] == "ok" and run.is_correct([ok])
    broken = dataclasses.replace(wl, op=_raising(DeadlockError("stuck")))
    rec = run.execute(broken, wl.warmup)
    assert rec["status"] == "crashed"
    assert not run.is_correct([ok, rec])


# -- rounds keep each operation's fastest time ---------------------------

def _rounds_workload(results):
    """A workload whose operation ``i`` returns ``results[i]`` in turn:
    ``(seconds, output)``, or an exception to raise."""
    calls = {}

    def op(i):
        calls[i] = calls.get(i, -1) + 1
        seconds, out = results[i][calls[i]]
        if isinstance(out, Exception):
            raise out
        run.time.sleep(seconds)
        return out

    def check(i, out):
        if out == "bad":
            raise CheckFailed("bad output")

    return workloads.Workload(
        "fake", tail_q=50, deck=lambda rng: [0, 1, 2], warmup=0,
        prepare=lambda i: i, op=op, check=check,
        counters=lambda i, out: {}, fingerprint=str, rounds=2)


def test_rounds_keep_the_fastest_time_and_flag_failures():
    from repro.errors import DeadlockError

    wl = _rounds_workload({
        0: [(0.03, "a"), (0.001, "a")],
        1: [(0.001, "b"), (0.001, "c")],
        2: [(0.001, "d"), (0.001, DeadlockError("stuck"))],
    })
    descs = [0, 1, 2]
    recs = [run.execute(wl, i) for i in descs]
    first = recs[0]["op_s"]
    run.best_of_rounds(wl, descs, recs, random.Random(0))
    assert recs[0]["status"] == "ok" and recs[0]["op_s"] < first
    assert recs[1]["status"] == "wrong"
    assert recs[2]["status"] == "crashed"
    assert not run.is_correct(recs)


@pytest.mark.parametrize("workload", ["multiply_data", "serve_stream"])
def test_no_refusal_is_tolerated(workload):
    from repro.errors import ConfigurationError

    exc = ConfigurationError("SUMMA: grid rows into C rows: 3 does not divide 512")
    assert not workloads.WORKLOADS[workload].refused(exc)


def test_plan_cold_tolerates_only_the_grid_refusal():
    from repro.errors import ConfigurationError, DeadlockError, SimulationError

    refused = workloads.WORKLOADS["plan_cold"].refused
    assert refused(ConfigurationError(
        "HSUMMA: grid cols into C cols: 3 does not divide 1024"))
    assert refused(ConfigurationError(
        "grid rows into C rows: 6 does not divide 2048"))
    assert not refused(ConfigurationError("groups must divide the grid"))
    assert not refused(DeadlockError("grid rows into C rows"))
    assert not refused(SimulationError("stuck"))
    assert not refused(ValueError("grid rows into C rows"))


def test_plan_cold_refusal_is_failed_but_correct():
    from repro.planner import PlanQuery

    wl = workloads.WORKLOADS["plan_cold"]
    # A deck entry: the 3 * 2^k grids of 96 ranks do not tile n = 512.
    rec = run.execute(wl, PlanQuery(n=512, p=96, platform="bluegene-p"))
    assert rec["status"] == "refused", rec
    assert run.is_correct([rec])


# -- layers --------------------------------------------------------------

def test_layer_map_covers_every_module():
    pkg = ROOT / "src" / "repro"
    unmapped = [str(path.relative_to(pkg)) for path in pkg.rglob("*.py")
                if layers.layer_of(path.relative_to(pkg).as_posix()) is None]
    assert unmapped == []
    subpackages = {p.name for p in pkg.iterdir() if (p / "__init__.py").exists()}
    listed = {prefix.split("/")[0] for prefix in layers.MODULE_LAYERS
              if "/" in prefix}
    assert subpackages <= listed
    assert set(layers.MODULE_LAYERS.values()) <= set(layers.LAYERS)


def test_layer_self_times_keep_all_self_time():
    from repro import multiply

    A = np.ones((32, 32))
    profiler = cProfile.Profile()
    profiler.enable()
    multiply(A, A, nprocs=4, algorithm="summa")
    profiler.disable()
    stats = pstats.Stats(profiler)
    split = layers.layer_self_times(stats)
    assert set(split) == set(layers.LAYERS)
    total = sum(entry[2] for entry in stats.stats.values())
    assert sum(split.values()) == pytest.approx(total)
    assert split["simulator.engine"] > 0 and split["blocks"] > 0
    assert layers.call_count(stats, "core/api.py", ("multiply",)) == 1


@pytest.mark.parametrize("helper_first", [True, False])
def test_recursive_stdlib_time_goes_to_its_repro_caller(helper_first):
    # blocks -> h <-> g: a recursive non-repro helper called from one
    # repro module.  All of its time is that module's, whichever of the
    # two frames the walk meets first.
    caller = (layers.package_root() + "blocks/local.py", 10, "gemm")
    h = ("/usr/lib/python3/helper.py", 1, "h")
    g = ("/usr/lib/python3/helper.py", 9, "g")
    table = {
        h: (3, 3, 2.0, 5.0, {caller: (1, 1, 0.5, 5.0),
                             g: (2, 2, 1.5, 3.0)}),
        g: (2, 2, 3.0, 4.0, {h: (2, 2, 3.0, 4.0)}),
        caller: (1, 1, 1.0, 6.0, {}),
    }
    if not helper_first:
        table = dict(reversed(table.items()))
    split = layers.layer_self_times(types.SimpleNamespace(stats=table))
    assert split["blocks"] == pytest.approx(6.0)
    assert split["other"] == 0.0


# -- metric names --------------------------------------------------------

def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(
        run.END_TO_END_UNITS.items())
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(
        run.per_layer_units(layers.LAYERS).items())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tail_percentile_has_ten_samples_beyond():
    assert run.samples_beyond(40, 75) == 10
    assert run.samples_beyond(39, 75) == 9
    assert run.percentile(list(range(1, 101)), 90) == 90
