"""Tests of the benchmark's own arithmetic, tracing and output contract.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy.random
import pytest

import run
import spans
from workloads import WORKLOADS, Scenario, Workload

ROOT = Path(__file__).resolve().parents[2]


def _execution(scenario, seconds, round_=0, ref=1.0):
    return run.Execution(0, scenario, round_, seconds, work=1, problems=[], ref=ref)


class TestTailRule:
    def test_needs_ten_samples_beyond(self):
        assert run.tail_index(10) is None
        assert run.tail_index(11) == 0
        assert run.tail_index(100) == 89

    def test_single_scenario_tail_is_plain_percentile(self):
        times = [float(t) for t in range(1, 31)]
        s = run.summarize([_execution("a", t) for t in times], ["a"])
        assert s.p50 == pytest.approx(15.5)
        assert s.tail == pytest.approx(20.0)
        assert s.tail_beyond == 10
        assert sum(t > s.tail for t in times) == 10
        assert s.tail_percentile == pytest.approx(100 * 20 / 30)

    def test_mixed_round_scales_relative_tail(self):
        # b takes ten times as long as a; each pools as ratios to its median
        execs = [_execution("a", t) for t in [1.0] * 6 + [2.0] * 6]
        execs += [_execution("b", t) for t in [10.0] * 6 + [20.0] * 6]
        s = run.summarize(execs, ["a", "b"])
        assert s.p50 == pytest.approx(1.5 + 15.0)
        assert s.work_per_s == pytest.approx(2 / 16.5)
        # 24 ratios, twelve of 2/3 then twelve of 4/3; index 13 has ten beyond
        assert s.tail_beyond == 10
        assert s.tail == pytest.approx(16.5 * 4.0 / 3.0)

    def test_failed_executions_are_not_timed(self):
        execs = [_execution("a", 1.0), run.Execution(1, "a", 1, 100.0, 0, ["boom"])]
        assert run.summarize(execs, ["a"]).p50 == 1.0
        assert run.summarize(execs[1:], ["a"]) is None


class TestReference:
    def test_reference_takes_out_host_speed(self):
        # the host runs at speed 1, then 2/3: both times grow, their ratio not
        execs = [_execution("a", 2.0 * f, ref=0.1 * f) for f in [1.0] * 5 + [1.5] * 6]
        execs += [_execution("b", 3.0 * f, ref=0.1 * f) for f in [1.0] * 5 + [1.5] * 6]
        s = run.summarize(execs, ["a", "b"])
        assert s.p50 == pytest.approx(7.5)
        assert s.p50_ref == pytest.approx(50.0)

    def test_reference_is_timed_beside_every_execution(self, tmp_path):
        runner = run.Runner(SMALL, 3, tmp_path)
        executions = runner.rounds(0.0)
        assert runner.failed == 0, runner.problems
        assert all(0 < e.ref < 10 for e in executions)


def _span(id_, name, parent, start, end):
    return spans.Span(id_, name, parent, 1, start, end)


class TestSelfTime:
    def test_union_of_children_is_subtracted(self):
        tree = [
            _span(1, "cli.main", None, 0.0, 10.0),
            # two overlapping children, as pool threads produce
            _span(2, "events.EventTable.sample", 1, 1.0, 4.0),
            _span(3, "events.EventTable.sample", 1, 3.0, 6.0),
            _span(4, "quantum.apply_unitary", 2, 2.0, 3.0),
            # a child that outlives its parent only counts inside it
            _span(5, "harness.emit_report", 1, 8.0, 12.0),
        ]
        assert spans.covered_length([(1.0, 10.0), (2.0, 3.0), (12.0, 13.0)]) == 10.0
        own = spans.self_times(tree)
        assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(3.0)
        assert own[4] == pytest.approx(1.0)
        assert own[5] == pytest.approx(4.0)

    def test_layer_metrics_sum_self_time_by_module(self):
        tree = [
            _span(1, "harness.run_scenario", None, 0.0, 10.0),
            _span(2, "events.build_event_tables", 1, 1.0, 5.0),
            _span(3, "quantum.DensityMatrix", 2, 2.0, 3.0),
            _span(4, "quantum.DensityMatrix", 2, 3.5, 4.0),
            _span(5, "harness.curve_fit", 1, 6.0, 7.0),
        ]
        m = spans.layer_metrics(tree, {"harness.rng_streams": 7})
        assert m["quantum.DensityMatrix.calls"] == 2
        assert m["quantum.DensityMatrix.s"] == pytest.approx(1.5)
        assert m["quantum.self_s"] == pytest.approx(1.5)
        assert m["events.self_s"] == pytest.approx(2.5)
        # run_scenario minus its children; curve_fit's own time is not harness code
        assert m["harness.self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
        assert m["harness.curve_fit.s"] == pytest.approx(1.0)
        assert m["harness.rng_streams"] == 7
        assert m["optics.averaged_swap_fidelity.calls"] == 0


def _installed():
    import importlib

    out = {}
    for module, cls, attr, name, _ in spans.TARGETS:
        owner = importlib.import_module(f"memnet_sim.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        out[name] = vars(owner)[attr]
    out["Philox"] = numpy.random.Philox
    return out


class TestWrappers:
    def test_restored_after_tracing(self):
        before = _installed()
        with spans.traced(spans.Recorder()):
            during = _installed()
            assert all(during[k] is not before[k] for k in before)
        after = _installed()
        assert all(after[k] is before[k] for k in before)

    def test_restored_after_an_error(self):
        before = _installed()
        with pytest.raises(RuntimeError):
            with spans.traced(spans.Recorder()):
                raise RuntimeError("stop")
        after = _installed()
        assert all(after[k] is before[k] for k in before)

    def test_missing_target_is_named_absent(self, monkeypatch):
        from memnet_sim import detection

        monkeypatch.delattr(detection, "visibility_raw")
        rec = spans.Recorder()
        with spans.traced(rec):
            pass
        assert rec.absent == ["detection.visibility_raw"]
        assert not hasattr(detection, "visibility_raw")

    def test_spans_nest_and_count(self):
        from memnet_sim import config, node

        rec = spans.Recorder()
        with spans.traced(rec):
            rec.begin_execution(1)
            node_cfg = config.preset("paper").nodes[0]
            node.storage_channel(node_cfg, node.entangled_pair_state(node_cfg), 1.0)
        names = Counter(s.name for s in rec.spans)
        assert names["config.preset"] == 1
        assert names["node.storage_channel"] == 1
        by_id = {s.id: s for s in rec.spans}
        unitary = next(s for s in rec.spans if s.name == "quantum.apply_unitary")
        assert by_id[unitary.parent].name == "node.storage_channel"


SMALL = Workload(
    "small",
    "test-sized executions of every layer",
    "units/s",
    (
        Scenario("ghz6", 4000, work=lambda b: b["heralded_samples"], check=lambda b: [], check_workers=2),
        Scenario("lifetime_sweep", 5000, work=lambda b: 1, check=lambda b: []),
        Scenario("two_node_swap", None, work=lambda b: 1, check=lambda b: []),
    ),
)


def _traced_counts(tmp_path, seed):
    runner = run.Runner(SMALL, seed, tmp_path)
    recorder = spans.Recorder()
    with spans.traced(recorder):
        executions = runner.rounds(0.0, recorder=recorder)
    assert runner.failed == 0, runner.problems
    assert len(executions) == 3
    counts = Counter()
    for (_, name), n in recorder.counts.items():
        counts[name] += n
    metrics = spans.layer_metrics(recorder.spans, counts)
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in spans.COUNTERS}


def test_counts_repeat_across_traced_runs(tmp_path):
    first = _traced_counts(tmp_path, seed=5)
    second = _traced_counts(tmp_path, seed=5)
    assert first == second
    assert first["events.build_event_tables.calls"] == 1
    assert first["events.classes"] > 0
    assert first["harness.rng_streams"] > 0
    assert first["harness.emit_report.bytes"] > 0
    assert first["optics.averaged_swap_fidelity.calls"] == 52


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        p[:3] for p in run.PER_LAYER
    ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swap_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
