"""CI smoke check: ``estimate()`` is cheap next to ingest and exact.

Runs the reference instance (``planted_cover(n=4000, m=400, k=10)``,
the ``BENCH_throughput.json`` one) through one planned pass, times the
finalize, and then replays the finalize per item -- a scalar
``CountSketch.query`` per heavy-hitter candidate and
``SetSystem.from_edges`` per stored ``SmallSet`` run -- on the same
state.  It requires

* the estimate and every branch's oracle answer and best ``SmallSet``
  cover to equal that per-item reference exactly, and
* ``estimate()`` to take at most ``MAX_RATIO`` times the ingest wall
  time (a ratio of two timings on the same box, never an absolute rate;
  the per-item finalize took about 1.4 times ingest).

Exits non-zero on any regression; finishes in about 15 seconds.

Run:  PYTHONPATH=src python benchmarks/smoke_estimate.py
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from repro import EdgeStream, EstimateMaxCover, StreamRunner, planted_cover
from repro.core.small_set import SmallSet
from repro.coverage.greedy import lazy_greedy
from repro.coverage.setsystem import SetSystem
from repro.sketch.countsketch import F2HeavyHitter

N, M, K, ALPHA = 4000, 400, 10, 4.0
MAX_RATIO = 0.5
ESTIMATE_REPEATS = 3


def scalar_peek_heavy_hitters(self):
    """Per-item reference for ``F2HeavyHitter.peek_heavy_hitters``."""
    f2 = self._sketch.f2_estimate()
    if f2 <= 0:
        return {}
    threshold = self.slack * np.sqrt(self.phi * f2)
    result = {}
    for item in self._candidates:
        estimate = self._sketch.query(item)
        if estimate >= threshold:
            result[item] = estimate
    return result


def from_edges_run_value(self, run):
    """Per-edge reference for ``SmallSet._run_value``."""
    if not run.alive or not run.edges:
        return None
    stride = run._stride
    pairs = [(edge // stride, edge % stride) for edge in run.edges]
    system = SetSystem.from_edges(pairs, n=self.params.n)
    result = lazy_greedy(system, self.cover_size)
    if result.coverage < self.min_support:
        return None
    scaled = 2.0 * run.element_sampler.scale_to_universe(
        result.coverage
    ) / 3.0
    return min(float(self.params.n), scaled), result.chosen


def answers(algo: EstimateMaxCover) -> list:
    out = [algo.estimate()]
    for _z, _reducer, oracle in algo._branches:
        out.append(oracle.peek_oracle_estimate())
        if oracle.small_set is not None:
            out.append(oracle.small_set.best_cover())
    return out


def main() -> int:
    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=99)
    stream = EdgeStream.from_system(workload.system, order="random", seed=2)
    algo = EstimateMaxCover(m=M, n=N, k=K, alpha=ALPHA, seed=7)
    report = StreamRunner(chunk_size=4096).run(algo, stream)

    timings = []
    for _ in range(ESTIMATE_REPEATS):
        start = time.perf_counter()
        algo.estimate()
        timings.append(time.perf_counter() - start)
    estimate_seconds = statistics.median(timings)
    batched = answers(algo)

    originals = (
        F2HeavyHitter.peek_heavy_hitters,
        SmallSet._run_value,
    )
    F2HeavyHitter.peek_heavy_hitters = scalar_peek_heavy_hitters
    SmallSet._run_value = from_edges_run_value
    try:
        start = time.perf_counter()
        reference = answers(algo)
        reference_seconds = time.perf_counter() - start
    finally:
        F2HeavyHitter.peek_heavy_hitters, SmallSet._run_value = originals

    ratio = estimate_seconds / report.seconds
    print(
        f"ingest: {report.tokens} tokens in {report.seconds:.2f}s\n"
        f"estimate(): {estimate_seconds:.3f}s (median of "
        f"{ESTIMATE_REPEATS}), per-item reference finalize "
        f"{reference_seconds:.2f}s\n"
        f"estimate / ingest: {ratio:.2f} (ceiling {MAX_RATIO})\n"
        f"estimate: {batched[0]}"
    )
    if batched != reference:
        print("FAIL: finalize answers differ from the per-item reference")
        return 1
    if ratio > MAX_RATIO:
        print("FAIL: estimate() too slow relative to ingest")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
