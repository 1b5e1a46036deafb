"""Tests of the benchmark's own logic: output check, self time, missing names."""

import dataclasses
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from metaborrow import pipeline  # noqa: E402


def _scaled(res, field, factor):
    rec = res.pooled
    return dataclasses.replace(res, pooled=dataclasses.replace(
        rec, **{field: getattr(rec, field) * factor}))


def test_perturbed_result_counts_as_failure():
    wl = workloads.make("sim-k5-ctrl", workloads.DEFAULT_SEED)
    assert len(wl.reference) > 2
    results = {i: wl.run(i) for i in range(3)}
    assert all(wl.check(i, res) == "" for i, res in results.items())

    bad = _scaled(results[1], "estimate", 1 + 1e-6)
    assert "pooled.estimate" in wl.check(1, bad)
    # a difference at the last digits still passes
    assert wl.check(1, _scaled(results[1], "se", 1 + 1e-13)) == ""

    ops = {**results, 1: bad}
    times, cal_times, failures, _ = worker.timed_loop(ops.__getitem__, wl.check, 0, 3)
    assert len(times) == len(cal_times) == 3
    assert [i for i, _ in failures] == [1]


def test_invariants_apply_to_any_seed():
    wl = workloads.make("sim-k5-ctrl", workloads.DEFAULT_SEED + 1)
    assert wl.reference == []
    res = wl.run(0)
    assert wl.check(0, res) == ""
    assert "outside CI" in wl.check(0, _scaled(res, "ci_high", -1.0))
    assert "not finite" in wl.check(0, _scaled(res, "se", float("nan")))
    failed = dataclasses.replace(res, ok=False, error="NumericalError: boom")
    assert "failed" in wl.check(0, failed)


def test_pipeline_artifact_left_by_an_earlier_op_fails(tmp_path, monkeypatch):
    wl = workloads.make("pipeline-egfr", workloads.DEFAULT_SEED)
    wl.setup(tmp_path)
    assert wl.check(0, wl.run(0)) == ""

    # an op that no longer writes weighted.csv must not pass on op 0's file
    write_subjects = pipeline.write_subjects

    def skip_weighted(dataset, path, **kwargs):
        if Path(path).name != "weighted.csv":
            write_subjects(dataset, path, **kwargs)

    monkeypatch.setattr(pipeline, "write_subjects", skip_weighted)
    assert "weighted.csv" in wl.check(1, wl.run(1))


def test_self_time_subtracts_covered_child_time():
    # op 7: root [0, 100] has children a [10, 40] and the overlapping b [50, 70],
    # c [60, 80]; a has child d [15, 25].  op 8: root [200, 230] calls e twice
    spans = [
        ["root", 0, 100, -1, 7],
        ["a", 10, 40, 0, 7],
        ["d", 15, 25, 1, 7],
        ["b", 50, 70, 0, 7],
        ["c", 60, 80, 0, 7],
        ["root", 200, 230, -1, 8],
        ["e", 205, 210, 5, 8],
        ["e", 215, 225, 5, 8],
    ]
    assert tracer.self_times_ns(spans) == [100 - 30 - 30, 30 - 10, 10, 20, 20, 15, 5, 10]
    totals = tracer.totals_by_name(spans)
    assert totals == {"root": [40 + 15, 2], "a": [20, 1], "d": [10, 1], "b": [20, 1],
                      "c": [20, 1], "e": [15, 2]}
    # in serial code the self times of one op add up to its root span
    assert sum(tracer.self_times_ns(spans)[5:]) == 30


def test_missing_name_is_reported_not_raised(monkeypatch):
    fake = types.ModuleType("fake_program")

    def double(x):
        return 2 * x

    class Box:
        def size(self):
            return 3

    fake.double, fake.Box = double, Box
    size = Box.__dict__["size"]
    monkeypatch.setitem(sys.modules, "fake_program", fake)

    def bad_counter(t, args, kwargs, result):
        return result.no_such_field

    t = tracer.Tracer()
    restore, missing = tracer.install(t, [
        ("fake_program", "double", "fake.double", None),
        ("fake_program", "removed", "fake.removed", None),
        ("fake_program", "Box.size", "fake.size", bad_counter),
        ("fake_program", "Box.removed", "fake.box_removed", None),
        ("no_such_module_for_perfbench", "f", "gone.f", None),
    ])
    assert missing == ["fake_program:removed", "fake_program:Box.removed",
                       "no_such_module_for_perfbench:f"]
    t.op = 0
    assert fake.double(4) == 8
    assert Box().size() == 3
    assert [s[0] for s in t.spans] == ["fake.double", "fake.size"]
    assert t.counter_errors == {"fake.size"}
    restore()
    assert fake.double is double
    assert Box.__dict__["size"] is size


def test_every_listed_metric_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = set(worker.layer_metrics(tracer.Tracer(), 1, []))
    layer |= {"trace.op_ms", "trace.untraced_op_p50_ms", "trace.overhead_ms"}
    assert {m["name"] for m in spec["per_layer"]} <= layer
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
