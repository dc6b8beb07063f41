"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ref-single --seed 1 --seconds 30 --trace 0

The command generates the workload's stream from ``--seed``, writes it in
the library's binary format, and starts ``measure.py`` in a fresh
interpreter to run the workload repeatedly for ``--seconds``.  It then
checks every answer and prints two lines: the run's context (instance
shape, seeds, host and library settings) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of
the traced repetitions.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_tmp"
# A measuring process this late is hung; it is killed and the run fails.
CHILD_TIMEOUT_S = 150


def declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics, as
    ``BENCHMARK.json`` at the repository root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every instance so the whole pipeline runs in seconds",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def reference_single_pass(workload, seeds, stream_path) -> dict:
    """Answer and state sizes of one plain single pass (untimed)."""
    from measure import algorithm_factory
    from repro import EdgeStream, StreamRunner
    from repro.sketch.serialize import dumps_state

    algo = algorithm_factory(workload, seeds)()
    StreamRunner(array_backend="numpy").run(
        algo, EdgeStream.load_binary(stream_path)
    )
    out = {
        "estimate": float(algo.estimate()),
        "space_words": int(algo.space_words()),
        "state_bytes": len(dumps_state(algo)),
    }
    del algo
    gc.collect()
    return out


def check_records(records, workload, meta, reference) -> list:
    """The problems found in each repetition's answer (empty when sound).

    Every repetition must ingest every edge of the stream and give the
    first one's estimate, ``state_bytes`` and ``space_words``; each
    estimate must lie in ``[planted_coverage / (8 alpha), n]``; on a
    merged workload the estimate and ``space_words`` must equal the single pass's on the same
    seed.  ``state_bytes`` is not compared with the single pass: merging
    re-prunes heavy-hitter candidate pools at the merged token offset, so
    where a scheduled prune evicts, the merged pools hold different
    candidates (see ``F2HeavyHitter._merge``).  A repetition that raised
    fails with its exception.
    """
    first = next((r for r in records if "error" not in r), None)
    low = meta["planted_coverage"] / (8.0 * workload.alpha)
    out = []
    for rec in records:
        if "error" in rec:
            out.append([f"raised {rec['error']}"])
            continue
        found = [
            f"{key} {rec[key]} != first repetition's {first[key]}"
            for key in ("estimate", "state_bytes", "space_words")
            if rec[key] != first[key]
        ]
        if rec["tokens"] != meta["edges"]:
            found.append(f"ingested {rec['tokens']} of {meta['edges']} edges")
        if not low <= rec["estimate"] <= workload.n:
            found.append(
                f"estimate {rec['estimate']} outside [{low}, {workload.n}]"
            )
        if reference is not None:
            found.extend(
                f"{key} {rec[key]} != single pass's {reference[key]}"
                for key in ("estimate", "space_words")
                if rec[key] != reference[key]
            )
        out.append(found)
    return out


def summarize(records, setup_samples, peak_rss_mb, edges, units) -> dict:
    """Metrics over the repetitions that passed every check.

    ``units`` names the metrics to report: the per-layer set when the
    records include traced repetitions, else the end-to-end set.  Per-layer
    values are medians over the traced repetitions.  End-to-end times are
    means over the whole run, and the ingest rate is all edges ingested
    over all ingest time: the host's speed switches between a fast and a
    slow phase that each outlast a repetition, and a median snaps to
    whichever phase held most repetitions, where a mean weighs each phase
    by its share of the run (see README.md, "Bounds and noise").
    """
    traced = [r for r in records if r["traced"]]
    if traced:
        plain = [r for r in records if not r["traced"]]
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in units
            if name != "trace.overhead_pct"
        }
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["answer_s"] for r in traced)
            / statistics.median(r["answer_s"] for r in plain)
            - 1.0
        )
    else:
        values = {
            "setup_s": statistics.fmean(
                setup_samples + [r["setup_s"] for r in records]
            ),
            "ingest_tokens_per_s": edges
            * len(records)
            / math.fsum(r["ingest_s"] for r in records),
            "estimate_s": statistics.fmean(r["estimate_s"] for r in records),
            "answer_s": statistics.fmean(r["answer_s"] for r in records),
            "state_bytes": float(records[0]["state_bytes"]),
            "peak_rss_mb": peak_rss_mb,
            "space_words": float(records[0]["space_words"]),
        }
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, generate, get_workload

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = get_workload(args.workload, tiny=args.tiny)

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        stream_path = scratch / "stream.npz"
        meta = generate(workload, args.seed, stream_path)
        reference = (
            reference_single_pass(workload, meta["seeds"], stream_path)
            if workload.executor == "merged"
            else None
        )
        spec_path, out_path = scratch / "spec.json", scratch / "out.json"
        spec_path.write_text(
            json.dumps(
                {
                    "src": str(SRC),
                    "workload": workload.name,
                    "tiny": args.tiny,
                    "seeds": meta["seeds"],
                    "stream": str(stream_path),
                    "seconds": args.seconds,
                    "trace": args.trace,
                }
            )
        )
        subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(spec_path), str(out_path)],
            check=True,
            timeout=CHILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
        measured = json.loads(out_path.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    records = measured["records"]
    problems = check_records(records, workload, meta, reference)
    for index, found in enumerate(problems):
        for problem in found:
            print(f"check failed, repetition {index}: {problem}", file=sys.stderr)
    good = [rec for rec, found in zip(records, problems) if not found]
    context = {
        "workload": workload.name,
        "n": workload.n,
        "m": workload.m,
        "k": workload.k,
        "alpha": workload.alpha,
        "coverage_frac": workload.coverage_frac,
        "edges": meta["edges"],
        "planted_coverage": meta["planted_coverage"],
        "seed": args.seed,
        "derived_seeds": meta["seeds"],
        "executor": workload.executor,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "array_backend": good[0]["backend"] if good else None,
        "chunk_size": good[0]["chunk_size"] if good else None,
        "repetitions": len(records),
        "setup_samples": len(measured["setup_samples"]) + len(records),
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "single_pass_reference": reference,
    }
    print(json.dumps({"context": context}))
    metrics = {}
    # The overhead needs one good repetition of each kind in a traced run.
    if {r["traced"] for r in good} == ({True, False} if args.trace else {False}):
        metrics = summarize(
            good,
            measured["setup_samples"],
            measured["peak_rss_mb"],
            meta["edges"],
            declared_metrics()[args.trace],
        )
    result = {
        "correct": len(good) == len(records),
        "attempted": len(records),
        "failed": len(records) - len(good),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
