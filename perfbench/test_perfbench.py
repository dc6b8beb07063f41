"""Tests of the benchmark itself (not of the library).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, generate, get_workload  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _raw_attributes():
    return [
        (owner, attr, vars(owner).get(attr, spans._ABSENT))
        for owner, attr, _name, _measure in spans.targets()
    ]


class TestTracer:
    def test_self_time_is_duration_minus_children(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)
        tracer.enter("outer")
        clock.now = 1.0
        tracer.enter("inner")
        clock.now = 3.0
        tracer.exit()
        clock.now = 3.5
        tracer.enter("inner")
        clock.now = 4.0
        tracer.exit()
        clock.now = 6.0
        tracer.exit()
        assert tracer.total_seconds == {"outer": 6.0, "inner": 2.5}
        assert tracer.self_seconds == {"outer": 3.5, "inner": 2.5}
        assert tracer.calls == {"outer": 1, "inner": 2}

    def test_categories_sum_to_at_most_wall_time(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)
        tracer.enter("root")
        for step, name in enumerate(("a", "b", "a", "c")):
            clock.now += 0.25
            tracer.enter(name)
            clock.now += 1.0 + step
            tracer.enter("leaf")
            clock.now += 0.5
            tracer.exit()
            tracer.exit()
        clock.now += 0.25
        tracer.exit()
        wall = tracer.total_seconds["root"]
        assert sum(tracer.self_seconds.values()) == pytest.approx(wall)
        assert all(v >= 0 for v in tracer.self_seconds.values())

    def test_reentrant_span_is_counted_once(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)
        assert tracer.enter("x")
        assert not tracer.enter("x")
        clock.now = 2.0
        tracer.exit()
        assert tracer.calls == {"x": 1}
        assert tracer.total_seconds == {"x": 2.0}


class TestInstallation:
    def test_uninstall_restores_every_attribute_and_the_profiler(self):
        from repro.engine.profile import PROFILER

        before = _raw_attributes()
        wrapped = spans.install(spans.Tracer())
        assert PROFILER.enabled
        changed = [
            (owner, attr)
            for owner, attr, raw in before
            if vars(owner).get(attr, spans._ABSENT) is raw
        ]
        assert changed == []
        spans.uninstall(wrapped)
        for owner, attr, raw in before:
            assert vars(owner).get(attr, spans._ABSENT) is raw, (owner, attr)
        assert not PROFILER.enabled
        assert PROFILER.seconds == {} and PROFILER.calls == {}

    @pytest.mark.parametrize("name", ["ref-merged", "large-domain"])
    def test_traced_repetition_leaves_nothing_behind(self, name, tmp_path):
        from repro.engine.profile import PROFILER

        workload = get_workload(name, tiny=True)
        meta = generate(workload, 3, tmp_path / "s.npz")
        factory = measure.algorithm_factory(workload, meta["seeds"])
        before = _raw_attributes()
        traced = measure.repetition(
            workload, factory, tmp_path / "s.npz", spans.Tracer()
        )
        for owner, attr, raw in before:
            assert vars(owner).get(attr, spans._ABSENT) is raw, (owner, attr)
        assert not PROFILER.enabled and PROFILER.seconds == {}
        plain = measure.repetition(workload, factory, tmp_path / "s.npz", None)
        assert plain["estimate"] == traced["estimate"]
        layers = traced["layers"]
        per_layer = run.declared_metrics()[1]
        assert set(layers) | {"trace.overhead_pct"} == set(per_layer)
        # Horner runs only where a domain is too large to tabulate.
        assert (layers["engine.horner_calls"] > 0) == (workload.n > 1 << 16)
        merged = workload.executor == "merged"
        assert (layers["serialize.dumps_calls"] > 0) == merged
        assert (layers["parallel.merge_s"] > 0) == merged


class TestGeneration:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_stream(self, name, tmp_path):
        from repro import EdgeStream

        workload = get_workload(name, tiny=True)
        metas, columns = [], []
        for index, seed in enumerate((5, 5, 6)):
            path = tmp_path / f"{index}.npz"
            metas.append(generate(workload, seed, path))
            columns.append(EdgeStream.load_binary(path).as_arrays())
        assert metas[0] == metas[1]
        assert all(np.array_equal(a, b) for a, b in zip(columns[0], columns[1]))
        assert metas[2]["seeds"] != metas[0]["seeds"]
        assert not all(
            np.array_equal(a, b) for a, b in zip(columns[0], columns[2])
        )


class TestChecks:
    META = {"planted_coverage": 3200, "edges": 20}

    def _rec(self, **overrides):
        rec = {
            "estimate": 100.0,
            "state_bytes": 10,
            "space_words": 5,
            "tokens": 20,
        }
        rec.update(overrides)
        return rec

    def test_sound_repetitions_pass(self):
        workload = get_workload("ref-single")
        records = [self._rec(), self._rec()]
        assert run.check_records(records, workload, self.META, None) == [[], []]

    def test_each_failure_is_reported_against_its_repetition(self):
        workload = get_workload("ref-single")
        records = [
            self._rec(),
            self._rec(state_bytes=11),
            self._rec(estimate=50.0),
            {"error": "ValueError: boom"},
            self._rec(tokens=19),
        ]
        problems = run.check_records(records, workload, self.META, None)
        assert problems[0] == []
        assert "state_bytes" in problems[1][0]
        # 50 differs from the first repetition and is below 3200 / 32.
        assert len(problems[2]) == 2
        assert "ValueError" in problems[3][0]
        assert problems[4] == ["ingested 19 of 20 edges"]

    def test_merged_must_match_the_single_pass(self):
        workload = get_workload("ref-merged")
        records = [self._rec()]
        same = {"estimate": 100.0, "space_words": 5, "state_bytes": 12}
        assert run.check_records(records, workload, self.META, same) == [[]]
        for key in ("estimate", "space_words"):
            other = {**same, key: same[key] - 1}
            found = run.check_records(records, workload, self.META, other)[0]
            assert len(found) == 1 and key in found[0]


def test_end_to_end_times_are_run_means():
    timing = ("setup_s", "ingest_s", "estimate_s", "answer_s")
    records = [
        dict(zip(timing, (1.0, 2.0, 1.0, 4.0)), traced=False,
             state_bytes=10, space_words=5),
        dict(zip(timing, (2.0, 3.0, 1.0, 6.0)), traced=False,
             state_bytes=10, space_words=5),
        dict(zip(timing, (3.0, 5.0, 4.0, 12.0)), traced=False,
             state_bytes=10, space_words=5),
    ]
    units = run.declared_metrics()[0]
    metrics = run.summarize(records, [6.0], 50.0, 100, units)
    values = {name: metric["value"] for name, metric in metrics.items()}
    assert set(values) == set(units)
    assert values["setup_s"] == pytest.approx(3.0)
    # All edges over all ingest time, not the mean of per-repetition rates.
    assert values["ingest_tokens_per_s"] == pytest.approx(300 / 10.0)
    assert values["estimate_s"] == pytest.approx(2.0)
    assert values["answer_s"] == pytest.approx(22.0 / 3)


@pytest.mark.parametrize(
    "name,trace",
    [("ref-single", 0), ("large-domain", 1), ("ref-merged", 0)],
)
def test_tiny_mode_runs_the_whole_pipeline(name, trace):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", "2", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.declared_metrics()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key in ("n", "m", "k", "alpha", "edges", "nproc", "numpy",
                "array_backend", "chunk_size", "derived_seeds"):
        assert context[key] is not None, key


def test_refuses_to_run_without_the_library(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/ fails."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    benchmark_json = HERE.parent / "BENCHMARK.json"
    (tmp_path / "BENCHMARK.json").write_text(benchmark_json.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
