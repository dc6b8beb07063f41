"""The measuring process: repeated full runs of one workload.

Started by ``run.py`` as ``python3 perfbench/measure.py SPEC OUT`` in a
fresh interpreter, so the program's timings and peak memory exclude
input generation.  ``SPEC`` is a JSON file naming the workload, the
binary stream to load and the time budget; ``OUT`` receives one record
per repetition plus the extra set-up samples and the process's peak
resident memory.

One repetition is the user's whole job: load the stream, construct the
algorithm (or start the shard executor), ingest every edge, and call
``estimate()``.  Repetitions run back to back until the budget is spent,
each preceded by one set-up-only sample.
In a traced run, even-numbered repetitions run with the wrappers of
:mod:`spans` installed and odd-numbered ones without, so the traced and
untraced answer times give the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import spans
from workloads import get_workload

# PROFILER categories recorded inside the ingest window.
KERNELS = {
    "plan-build": "engine.plan_build_s",
    "hash-eval": "engine.hash_eval_s",
    "horner": "engine.horner_s",
    "pool": "sketch.pool_s",
    "scatter": "sketch.scatter_s",
    "l0-insert": "sketch.l0_insert_s",
    "group-split": "core.group_split_s",
}
# Tracer spans that do their own work (no kernel runs inside them).
# Inside the ingest window their self time is attributed; everything
# else there that no kernel covers is ``ingest.unattributed_s``.
WORK_SPANS = (
    "serialize.dumps",
    "serialize.loads",
    "parallel.merge",
    "core.construct",
)
# Set-up-only samples taken before each repetition, on top of the
# repetition's own set-up, so set-up is sampled across the whole run.
SETUPS_PER_REPETITION = 1


def algorithm_factory(workload, seeds):
    """Zero-argument constructor of the workload's seeded algorithm."""
    from repro import EstimateMaxCover

    return partial(
        EstimateMaxCover,
        m=workload.m,
        n=workload.n,
        k=workload.k,
        alpha=workload.alpha,
        seed=seeds["algorithm"],
    )


def shard_executor(factory):
    """The in-process two-shard executor the merged workload runs on."""
    from repro import PersistentShardExecutor

    return PersistentShardExecutor(
        factory,
        workers=2,
        backend="serial",
        array_backend="numpy",
    )


def setup_only(workload, factory, stream_path) -> float:
    """Time the set-up phase alone and tear it down again."""
    from repro import EdgeStream

    start = time.perf_counter()
    EdgeStream.load_binary(stream_path)
    if workload.executor == "merged":
        executor = shard_executor(factory).start()
        seconds = time.perf_counter() - start
        executor.close()
    else:
        factory()
        seconds = time.perf_counter() - start
    gc.collect()
    return seconds


def state_layers(algo) -> dict:
    """Serialised-array bytes per oracle arm, and the share of zeros."""
    per_arm = dict.fromkeys(spans.ARMS, 0)
    zeros = elements = 0
    for key, array in algo.state_arrays().items():
        # Keys are "branches/<i>/<arm>/...": see repro.base.pack_state.
        parts = key.split("/")
        if len(parts) > 2 and parts[2] in per_arm:
            per_arm[parts[2]] += array.nbytes
        zeros += array.size - int(array.astype(bool).sum())
        elements += array.size
    out = {f"state.{arm}_bytes": float(b) for arm, b in per_arm.items()}
    out["state.zero_fraction"] = zeros / max(1, elements)
    return out


def layer_metrics(marks, algo, report, ingest_seconds) -> dict:
    """Per-layer metrics of one traced repetition.

    ``marks`` maps each phase boundary (``start``, ``setup``, ``ingest``,
    ``end``) to the tracer snapshot and profiler state taken there.
    """

    def delta(kind, name, first="start", last="end"):
        after, before = marks[last], marks[first]
        return after[kind].get(name, 0) - before[kind].get(name, 0)

    out = {
        "streams.load_s": delta("self", "streams.load"),
        "core.construct_s": delta("self", "core.construct"),
        "core.construct_calls": delta("calls", "core.construct"),
        "core.branches": len(algo.z_guesses) * algo.repetitions,
        "engine.horner_calls": delta("kernel_calls", "horner"),
        "sketch.pool_calls": delta("kernel_calls", "pool"),
        "sketch.heavy_hitters_s": delta("self", "sketch.heavy_hitters"),
        "serialize.loads_s": delta("self", "serialize.loads"),
        "serialize.blob_bytes": delta("values", "serialize.dumps"),
        "parallel.merge_s": delta("self", "parallel.merge"),
        "parallel.shard_ingest_s": sum(
            s.seconds for s in getattr(report, "shards", ())
        ),
        "parallel.dispatch_bytes": getattr(report, "dispatch_bytes", 0),
    }
    for category, metric in KERNELS.items():
        out[metric] = delta("kernel_seconds", category)
    for span in (
        "sketch.cs_query",
        "coverage.from_edges",
        "coverage.greedy",
        "serialize.dumps",
    ):
        out[f"{span}_s"] = delta("self", span)
        out[f"{span}_calls"] = delta("calls", span)
    for arm in spans.ARMS:
        out[f"core.{arm}.ingest_s"] = delta(
            "total", f"core.{arm}.ingest", "setup", "ingest"
        )
        out[f"core.{arm}.estimate_s"] = delta(
            "total", f"core.{arm}.estimate", "ingest", "end"
        )
    attributed = sum(
        delta("kernel_seconds", category, "setup", "ingest")
        for category in KERNELS
    ) + sum(delta("self", name, "setup", "ingest") for name in WORK_SPANS)
    out["ingest.unattributed_s"] = ingest_seconds - attributed
    out.update(state_layers(algo))
    return {key: float(value) for key, value in out.items()}


def repetition(workload, factory, stream_path, tracer) -> dict:
    """One full run; its phase times, answer and (if traced) layers."""
    from repro import EdgeStream, StreamRunner
    from repro.sketch.serialize import dumps_state

    marks: dict = {}

    def mark(name):
        if tracer is not None:
            from repro.engine.profile import PROFILER

            marks[name] = {
                **tracer.snapshot(),
                "kernel_seconds": dict(PROFILER.seconds),
                "kernel_calls": dict(PROFILER.calls),
            }

    wrapped = spans.install(tracer) if tracer is not None else None
    executor = None
    try:
        mark("start")
        start = time.perf_counter()
        stream = EdgeStream.load_binary(stream_path)
        if workload.executor == "merged":
            executor = shard_executor(factory).start()
        else:
            algo = factory()
        setup_end = time.perf_counter()
        mark("setup")
        if executor is not None:
            algo, report = executor.run(stream)
        else:
            report = StreamRunner(array_backend="numpy").run(algo, stream)
        ingest_end = time.perf_counter()
        mark("ingest")
        estimate = algo.estimate()
        end = time.perf_counter()
        mark("end")
    finally:
        if wrapped is not None:
            spans.uninstall(wrapped)
        if executor is not None:
            executor.close()
    record = {
        "setup_s": setup_end - start,
        "ingest_s": ingest_end - setup_end,
        "estimate_s": end - ingest_end,
        "answer_s": end - start,
        "traced": tracer is not None,
        "tokens": report.tokens,
        "chunk_size": report.chunk_size,
        "backend": report.backend,
        "estimate": float(estimate),
        "space_words": int(algo.space_words()),
        "state_bytes": len(dumps_state(algo)),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            marks, algo, report, record["ingest_s"]
        )
    return record


def main(spec_path: str, out_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    workload = get_workload(spec["workload"], tiny=spec["tiny"])
    factory = algorithm_factory(workload, spec["seeds"])
    stream_path = spec["stream"]
    traced = bool(spec["trace"])

    budget_start = time.perf_counter()
    setup_samples = []
    records = []
    index = 0
    # A traced run needs at least one traced and one untraced repetition.
    while index < (2 if traced else 1) or (
        time.perf_counter() - budget_start < spec["seconds"]
    ):
        setup_samples.extend(
            setup_only(workload, factory, stream_path)
            for _ in range(SETUPS_PER_REPETITION)
        )
        tracer = spans.Tracer() if traced and index % 2 == 0 else None
        try:
            records.append(repetition(workload, factory, stream_path, tracer))
        except Exception:  # noqa: BLE001 - reported as a failed repetition
            records.append({"error": traceback.format_exc()})
        index += 1
        gc.collect()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out_path).write_text(
        json.dumps(
            {
                "records": records,
                "setup_samples": setup_samples,
                "peak_rss_mb": peak_kib / 1024.0,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
