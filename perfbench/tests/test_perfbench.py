"""Tests of the benchmark harness itself, on a few cheap items.

    python3 -m pytest perfbench/tests -q
"""

import copy
import gc
import json
import random
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import calibration  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCES = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
PIPELINE_ITEM = "P^1 O(-1)+O(-1)"
VERIFY_ITEMS = ("local-p2 gluing dmax=4", "multicover reciprocity dmax=8")


@pytest.fixture
def monitor():
    with calibration.SpeedMonitor() as m:
        yield m


def subset(name, ids):
    wl = workloads.build(name)
    return workloads.Workload(name, [u for u in wl.units if u[0].id in ids], wl.check)


def probe_workload(seen):
    """One item that records which wrappers are installed while it runs."""
    def call(ctx):
        seen.append(len(tracing.installed_wrappers()))
        return "ok"
    item = workloads.Item("probe", "probe", call, lambda out: out, "probe")
    return workloads.Workload("probe", [[item]], workloads._check_equal)


def test_untraced_pass_installs_no_wrapper(tmp_path, monitor):
    seen = []
    ctx = workloads.Context(run.ROOT, tmp_path)
    records = run.run_pass(probe_workload(seen), ctx, {"probe": {"probe": "ok"}},
                           random.Random(0), monitor)
    assert seen == [0]
    assert [r.problem for r in records] == [None]


def test_wrappers_are_removed_after_traced_pass(tmp_path, monitor):
    import mirrorcalc.cli
    import mirrorcalc.pipeline
    originals = (mirrorcalc.pipeline.run_pipeline, mirrorcalc.cli.run_pipeline,
                 mirrorcalc.algebra.Polynomial.__dict__["__rmul__"])
    seen = []
    with tracing.Tracer() as tracer:
        run.run_pass(probe_workload(seen), workloads.Context(run.ROOT, tmp_path),
                     {"probe": {"probe": "ok"}}, random.Random(0), monitor, tracer)
        assert mirrorcalc.cli.run_pipeline is mirrorcalc.pipeline.run_pipeline
        assert mirrorcalc.pipeline.run_pipeline is not originals[0]
    assert seen and seen[0] > 0
    assert tracing.installed_wrappers() == []
    assert (mirrorcalc.pipeline.run_pipeline, mirrorcalc.cli.run_pipeline,
            mirrorcalc.algebra.Polynomial.__dict__["__rmul__"]) == originals


def test_corrupted_reference_counts_as_failed_op(tmp_path, monitor):
    wl = subset("pipeline", {PIPELINE_ITEM})
    refs = copy.deepcopy(REFERENCES)
    refs["pipeline"][PIPELINE_ITEM]["n_d"][0] = "2/1"
    records = run.run_pass(wl, workloads.Context(run.ROOT, tmp_path), refs,
                           random.Random(0), monitor)
    assert [r.problem for r in records] == ["n_d differs from the reference"]
    del refs["pipeline"][PIPELINE_ITEM]
    records = run.run_pass(wl, workloads.Context(run.ROOT, tmp_path), refs,
                           random.Random(0), monitor)
    assert [r.problem for r in records] == ["no reference output"]


def test_raising_item_counts_as_failed_op(tmp_path, monitor):
    def call(ctx):
        raise ValueError("boom")
    bad = workloads.Item("bad", "probe", call, lambda out: out, "bad")
    wl = subset("pipeline", {PIPELINE_ITEM})
    wl.units.append([bad])
    records = run.run_pass(wl, workloads.Context(run.ROOT, tmp_path), REFERENCES,
                           random.Random(0), monitor)
    problems = {r.item.id: r.problem for r in records}
    assert problems == {PIPELINE_ITEM: None, "bad": "raised ValueError: boom"}


def test_known_defect_is_excused_only_for_its_documented_problem():
    item_id, problem = next(iter(workloads.KNOWN_DEFECTS.items()))
    item = workloads.Item(item_id, "compute_hit", None, None, None)
    as_documented = run.Record(item, 0.1, 1.0, problem)
    crashed = run.Record(item, 0.1, 1.0, "exit code 1")
    assert run.unexpected_failures([as_documented]) == []
    assert run.unexpected_failures([as_documented, crashed]) == [crashed]


def test_quintic_anchor_is_checked():
    item = next(i for i in workloads.build("pipeline").items if i.id == workloads.QUINTIC_ID)
    ref = copy.deepcopy(REFERENCES["pipeline"][item.id])
    assert workloads._check_pipeline(item, ref, ref) is None
    ref["n_d"][1] = "609251/1"
    assert "published" in workloads._check_pipeline(item, ref, ref)


def traced_counts(wl, seed, tmp_path, monitor):
    with tracing.Tracer() as tracer:
        records = run.run_pass(wl, workloads.Context(run.ROOT, tmp_path), REFERENCES,
                               random.Random(seed), monitor, tracer)
    assert all(r.problem is None for r in records)
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    return calls, dict(tracer.counts)


def test_two_traced_runs_give_identical_counts(tmp_path, monitor):
    wl = subset("verify", set(VERIFY_ITEMS))
    first = traced_counts(wl, 1, tmp_path, monitor)
    assert first == traced_counts(wl, 2, tmp_path, monitor)
    assert first[0]["algebra.Polynomial.mul"] > 0
    assert first[1]["eulerdata.results"] > 0


def test_rational_subtraction_is_one_add_call():
    from mirrorcalc import algebra
    ring = algebra.weight_ring(1)
    f = algebra.RationalFunction(ring.const(1))
    with tracing.Tracer() as tracer:
        f - f
        1 - f
        f + f
    assert tracer.summary()["algebra.RationalFunction.add"]["calls"] == 3


def test_calibration_loop_leaves_the_collector_alone(monitor):
    before = gc.get_count()[0]
    calibration._work()
    assert gc.get_count()[0] - before <= 2
    monitor._sample()
    assert gc.isenabled()


def test_calibration_loop_takes_about_reference_seconds(monitor):
    t0 = time.perf_counter()
    calibration._work()
    seconds, factor = monitor.scaled(t0, time.perf_counter())
    assert factor > 0
    assert 0.5 < seconds / calibration.REFERENCE_S < 2


def test_monitor_takes_no_background_sample_while_paused(monitor):
    with monitor.paused():
        t0 = time.perf_counter()
        time.sleep(4 * calibration.PERIOD_S)
        t1 = time.perf_counter()
    assert not [s for s in monitor.starts if t0 <= s <= t1]
