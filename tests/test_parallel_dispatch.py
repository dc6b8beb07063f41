"""Tests for shard dispatch: bounds edge cases, shared memory, cleanup.

Complements ``tests/test_shard_equivalence.py`` (which proves the merged
*answers* match a single pass): this file covers the data plane itself
-- shard-bound pathologies, the pickled vs shared-memory vs mmap
dispatch paths returning identical bits, O(1) dispatch payloads, and
shared-memory teardown when a worker dies mid-shard.
"""

from __future__ import annotations

import os
from functools import partial

import pytest

from repro import (
    EdgeStream,
    EstimateMaxCover,
    FactoryPicklingError,
    PersistentShardExecutor,
    ShardedStreamRunner,
    StreamRunner,
    planted_cover,
)
from repro.parallel import compute_shard_bounds

M, N, K, ALPHA = 60, 120, 4, 3.0
FACTORY = partial(EstimateMaxCover, m=M, n=N, k=K, alpha=ALPHA, seed=7)


def _boom_factory():
    raise RuntimeError("worker construction failed")


@pytest.fixture(scope="module")
def small_stream() -> EdgeStream:
    workload = planted_cover(n=N, m=M, k=K, coverage_frac=0.9, seed=5)
    return EdgeStream.from_system(workload.system, order="random", seed=2)


@pytest.fixture(scope="module")
def reference(small_stream) -> float:
    algo = FACTORY()
    StreamRunner(path="scalar").run(algo, small_stream)
    return algo.estimate()


def _shm_segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except OSError:  # pragma: no cover - non-POSIX shm layout
        return set()


class TestShardBounds:
    def test_more_workers_than_tokens(self):
        runner = ShardedStreamRunner(workers=5, backend="serial")
        bounds = runner.shard_bounds(2)
        assert len(bounds) == 5
        assert bounds[0] == (0, 0)
        assert bounds[-1] == (1, 2)
        assert sum(hi - lo for lo, hi in bounds) == 2
        assert all(lo <= hi for lo, hi in bounds)

    def test_empty_stream_bounds(self):
        runner = ShardedStreamRunner(workers=3, backend="serial")
        assert runner.shard_bounds(0) == [(0, 0)] * 3

    def test_unsorted_boundaries_rejected(self):
        runner = ShardedStreamRunner(workers=3, backend="serial")
        with pytest.raises(ValueError, match="boundaries"):
            runner.shard_bounds(10, boundaries=[7, 3])

    def test_wrong_boundary_count_rejected(self):
        runner = ShardedStreamRunner(workers=3, backend="serial")
        with pytest.raises(ValueError, match="boundaries"):
            runner.shard_bounds(10, boundaries=[5])

    def test_out_of_range_boundary_rejected(self):
        runner = ShardedStreamRunner(workers=2, backend="serial")
        with pytest.raises(ValueError, match="boundaries"):
            runner.shard_bounds(10, boundaries=[11])

    def test_more_workers_than_tokens_runs(self, reference):
        """A run with mostly-empty shards still merges to the answer."""
        tiny = EdgeStream([(0, 1), (2, 3)], m=M, n=N)
        tiny_ref = FACTORY()
        StreamRunner(path="scalar").run(tiny_ref, tiny)
        merged, report = ShardedStreamRunner(
            workers=5, backend="serial"
        ).run(FACTORY, tiny)
        assert merged.estimate() == tiny_ref.estimate()
        assert sum(t.tokens for t in report.shards) == 2

    def test_empty_stream_runs(self):
        empty = EdgeStream([], m=M, n=N)
        fresh = FACTORY()
        merged, report = ShardedStreamRunner(
            workers=3, backend="serial"
        ).run(FACTORY, empty)
        assert report.tokens == 0
        assert merged.estimate() == fresh.estimate()


class TestConfigEdgeCases:
    """Constructor and boundary validation fails loudly and specifically."""

    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            ShardedStreamRunner(workers=workers)

    def test_float_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedStreamRunner(workers=2.5)

    def test_wrong_count_message_names_the_counts(self):
        """The error must say how many cuts were expected and given, so
        an off-by-one in a driver script is a one-read fix."""
        with pytest.raises(ValueError, match="exactly 2"):
            compute_shard_bounds(10, 3, boundaries=[5])

    def test_unsorted_message_says_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            compute_shard_bounds(10, 3, boundaries=[7, 3])

    def test_non_covering_message_says_cover(self):
        with pytest.raises(ValueError, match="cover"):
            compute_shard_bounds(10, 2, boundaries=[11])
        with pytest.raises(ValueError, match="cover"):
            compute_shard_bounds(10, 2, boundaries=[-1])

    def test_balanced_bounds_partition_the_stream(self):
        for total, workers in [(0, 3), (2, 5), (10, 3), (100, 7)]:
            bounds = compute_shard_bounds(total, workers)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == total
            assert all(lo <= hi for lo, hi in bounds)
            assert all(
                bounds[i][1] == bounds[i + 1][0]
                for i in range(len(bounds) - 1)
            )

    def test_explicit_boundaries_round_trip(self):
        assert compute_shard_bounds(10, 3, boundaries=[2, 7]) == [
            (0, 2),
            (2, 7),
            (7, 10),
        ]

    def test_report_labels_the_per_run_executor(self, small_stream):
        _, report = ShardedStreamRunner(workers=2, backend="serial").run(
            FACTORY, small_stream
        )
        assert report.executor == "per-run"


class TestDispatchEquivalence:
    @pytest.mark.parametrize("dispatch", ["pickle", "shared_memory"])
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_dispatch_paths_bit_identical(
        self, small_stream, reference, backend, dispatch
    ):
        merged, report = ShardedStreamRunner(
            workers=2, chunk_size=128, backend=backend, dispatch=dispatch
        ).run(FACTORY, small_stream)
        assert merged.estimate() == reference
        assert report.dispatch == dispatch

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mmap_dispatch_bit_identical(
        self, small_stream, reference, tmp_path, backend
    ):
        path = tmp_path / "s.npz"
        small_stream.save_binary(path)
        mapped = EdgeStream.load_binary(path, mmap=True)
        merged, report = ShardedStreamRunner(
            workers=2, chunk_size=128, backend=backend
        ).run(FACTORY, mapped)
        assert report.dispatch == "mmap"
        assert merged.estimate() == reference

    def test_mmap_dispatch_requires_file_backing(self, small_stream):
        runner = ShardedStreamRunner(
            workers=2, backend="serial", dispatch="mmap"
        )
        with pytest.raises(ValueError, match="mmap"):
            runner.run(FACTORY, small_stream)

    def test_auto_prefers_shared_memory_on_process_backend(
        self, small_stream, reference
    ):
        merged, report = ShardedStreamRunner(
            workers=2, chunk_size=128, backend="process"
        ).run(FACTORY, small_stream)
        assert report.dispatch == "shared_memory"
        assert merged.estimate() == reference

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            ShardedStreamRunner(dispatch="carrier_pigeon")


class TestDispatchBytes:
    def test_shared_memory_payload_independent_of_stream_length(
        self, small_stream
    ):
        """The tentpole property: shard descriptors are O(1), so bytes
        shipped do not grow with the stream."""
        short = small_stream
        long_edges = short.edges * 4
        long = EdgeStream(long_edges, m=short.m, n=short.n)

        def bytes_for(stream, dispatch):
            _, report = ShardedStreamRunner(
                workers=2, backend="serial", dispatch=dispatch
            ).run(FACTORY, stream)
            return report.dispatch_bytes

        shm_short = bytes_for(short, "shared_memory")
        shm_long = bytes_for(long, "shared_memory")
        # O(1) descriptors: a 4x longer stream costs the same payload
        # give or take a few bytes of integer width in the range fields.
        assert abs(shm_long - shm_short) <= 8
        assert shm_long < 1024
        assert bytes_for(long, "pickle") > 4 * shm_long
        # Pickle payloads scale with the stream.
        assert bytes_for(long, "pickle") == pytest.approx(
            4 * bytes_for(short, "pickle"), rel=0.01
        )

    def test_mmap_payload_is_constant_size(self, small_stream, tmp_path):
        path = tmp_path / "s.npz"
        small_stream.save_binary(path)
        mapped = EdgeStream.load_binary(path, mmap=True)
        _, report = ShardedStreamRunner(
            workers=2, backend="serial"
        ).run(FACTORY, mapped)
        assert report.dispatch == "mmap"
        assert report.dispatch_bytes < 1024


class TestSharedMemoryCleanup:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_segment_released_after_run(self, small_stream, backend):
        before = _shm_segments()
        ShardedStreamRunner(
            workers=2, backend=backend, dispatch="shared_memory"
        ).run(FACTORY, small_stream)
        assert _shm_segments() <= before

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_segment_released_on_worker_failure(self, small_stream, backend):
        before = _shm_segments()
        runner = ShardedStreamRunner(
            workers=2, backend=backend, dispatch="shared_memory"
        )
        with pytest.raises(RuntimeError, match="worker construction failed"):
            runner.run(_boom_factory, small_stream)
        assert _shm_segments() <= before


class TestUnpicklableFactory:
    """A factory worker processes cannot receive fails before any spawn."""

    @staticmethod
    def _local_factory():
        def factory():
            return FACTORY()

        return factory

    def test_sharded_runner_names_the_fix(self, small_stream):
        before = _shm_segments()
        runner = ShardedStreamRunner(workers=2, backend="process")
        with pytest.raises(FactoryPicklingError, match="functools.partial"):
            runner.run(self._local_factory(), small_stream)
        assert _shm_segments() <= before

    def test_persistent_executor_refuses_before_spawning(self):
        executor = PersistentShardExecutor(
            lambda: FACTORY(), workers=2, backend="process"
        )
        with pytest.raises(FactoryPicklingError, match="module-level"):
            executor.start()
        assert not executor.running
        executor.close()

    def test_serial_backends_accept_local_factories(
        self, small_stream, reference
    ):
        factory = self._local_factory()
        algo, _ = ShardedStreamRunner(workers=2, backend="serial").run(
            factory, small_stream
        )
        assert algo.estimate() == reference
        with PersistentShardExecutor(
            factory, workers=2, backend="serial"
        ) as pool:
            merged, _ = pool.run(small_stream)
        assert merged.estimate() == reference
