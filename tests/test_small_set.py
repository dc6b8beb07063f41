"""Tests for the SmallSet subroutine (Section 4.3, Figure 5)."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.base import StreamConsumedError, StreamRunner
from repro.core.estimate import EstimateMaxCover
from repro.core.parameters import Parameters
from repro.core.small_set import SmallSet
from repro.coverage.greedy import lazy_greedy
from repro.coverage.setsystem import SetSystem
from repro.parallel import ShardedStreamRunner
from repro.sketch.contributing import F2Contributing
from repro.sketch.countsketch import F2HeavyHitter
from repro.streams.edge_stream import EdgeStream
from repro.streams.generators import planted_cover


def _params(workload, k, alpha):
    system = workload.system
    return Parameters.practical(m=system.m, n=system.n, k=k, alpha=alpha)


def _stream(workload, seed=1):
    return EdgeStream.from_system(workload.system, order="random", seed=seed)


class TestEstimation:
    def test_fires_on_many_small_sets(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        hits = 0
        for seed in range(5):
            algo = SmallSet(params, seed=seed)
            algo.process_stream(_stream(planted_workload))
            if algo.estimate() is not None:
                hits += 1
        assert hits >= 4

    def test_sound_and_useful(self, planted_workload):
        k, alpha = 6, 3.0
        params = _params(planted_workload, k=k, alpha=alpha)
        opt = lazy_greedy(planted_workload.system, k).coverage
        values = []
        for seed in range(6):
            algo = SmallSet(params, seed=seed)
            algo.process_stream(_stream(planted_workload))
            est = algo.estimate()
            if est is not None:
                values.append(est)
        assert values
        for value in values:
            assert value <= 1.3 * opt            # soundness
        assert max(values) >= opt / (4 * alpha)  # usefulness

    def test_cover_size_respects_k(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        algo = SmallSet(params, seed=1)
        assert algo.cover_size <= 6

    def test_best_cover_returns_original_ids(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        algo = SmallSet(params, seed=2)
        algo.process_stream(_stream(planted_workload))
        best = algo.best_cover()
        assert best is not None
        value, ids = best
        system = planted_workload.system
        assert all(0 <= j < system.m for j in ids)
        assert len(ids) <= algo.cover_size
        # The reported sets genuinely cover a related amount.
        true_cov = system.coverage(ids)
        assert true_cov >= value / 3

    def test_estimate_finalises(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        algo = SmallSet(params, seed=1)
        algo.process_stream(_stream(planted_workload))
        algo.estimate()
        with pytest.raises(StreamConsumedError):
            algo.process(0, 0)


class TestBudget:
    def test_runs_die_when_budget_exceeded(self):
        """A run with a microscopic budget must terminate, not grow."""
        workload = planted_cover(n=200, m=100, k=6, seed=3)
        params = _params(workload, k=6, alpha=2.0)
        algo = SmallSet(params, seed=1)
        for run in algo._runs:
            run.budget = 2
        algo.process_stream(_stream(workload))
        assert all(not run.alive or not run.edges for run in algo._runs)
        assert algo.estimate() is None

    def test_space_counts_stored_edges(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        algo = SmallSet(params, seed=1)
        before = algo.space_words()
        algo.process_stream(_stream(planted_workload))
        assert algo.space_words() > before

    def test_space_shrinks_with_alpha(self, planted_workload):
        system = planted_workload.system
        spaces = []
        for alpha in (2.0, 6.0):
            params = Parameters.practical(system.m, system.n, 6, alpha)
            algo = SmallSet(params, seed=1)
            algo.process_stream(_stream(planted_workload))
            spaces.append(algo.space_words())
        assert spaces[1] < spaces[0]


class TestValidation:
    def test_rejects_bad_repetitions(self, planted_workload):
        params = _params(planted_workload, k=6, alpha=3.0)
        with pytest.raises(ValueError):
            SmallSet(params, repetitions=0)

    def test_gamma_ladder_stops_at_saturation(self, planted_workload):
        """The ladder starts at 1 and is truncated at the first guess
        whose element sample saturates the universe (higher guesses are
        duplicate runs -- the Lemma 4.21 space discipline)."""
        params = _params(planted_workload, k=6, alpha=8.0)
        algo = SmallSet(params, seed=1)
        assert min(algo.gammas) == 1.0
        assert algo.gammas == sorted(algo.gammas)
        import math

        log_m = max(1.0, math.log2(params.m))
        for gamma in algo.gammas[:-1]:
            assert 4.0 * gamma * algo.cover_size * log_m < params.n


# -- the finalize path against its per-item reference ----------------------


def _scalar_peek_heavy_hitters(self):
    """Per-candidate reference: one scalar ``query`` per pool item."""
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


def _from_edges_run_value(self, run):
    """Per-edge reference: decode each packed edge, ``from_edges``."""
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


def _components(root, kinds):
    """Every instance of ``kinds`` reachable from ``root``'s attributes."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__") and type(obj).__module__.startswith(
            "repro."
        ):
            stack.extend(vars(obj).values())
    return found


def _finalize_answers(algo):
    """The estimate plus every arm's ``peek_*`` answer, in tree order."""
    answers = [algo.estimate()]
    for _z, _reducer, oracle in algo._branches:
        answers.append(oracle.peek_oracle_estimate())
        if oracle.large_common is not None:
            answers.append(oracle.large_common.peek_estimate())
        if oracle.large_set is not None:
            best = oracle.large_set.peek_best_outcome()
            answers.append(None if best is None else best[0])
            answers.append(oracle.large_set.peek_estimate())
        if oracle.small_set is not None:
            answers.append(oracle.small_set.peek_estimate())
            answers.append(oracle.small_set.best_cover())
    for contributing in _components(algo, F2Contributing):
        answers.append(contributing.peek_contributing())
    for sketch in _components(algo, F2HeavyHitter):
        answers.append(sketch.peek_heavy_hitters())
    return answers


class TestFinalizeMatchesPerItemReference:
    """The batched query and array-built sub-instances change no answer.

    The reference re-creates the per-item finalize -- a scalar
    ``CountSketch.query`` per candidate and ``SetSystem.from_edges`` per
    stored run -- and every finalize answer must equal it exactly on
    the scalar, planned and two-shard merged runs of one stream.
    """

    M, N, K, ALPHA = 60, 120, 4, 3.0

    @pytest.fixture(scope="class")
    def stream(self):
        workload = planted_cover(
            n=self.N, m=self.M, k=self.K, coverage_frac=0.9, seed=5
        )
        return EdgeStream.from_system(workload.system, order="random", seed=2)

    def _factory(self):
        return partial(
            EstimateMaxCover,
            m=self.M,
            n=self.N,
            k=self.K,
            alpha=self.ALPHA,
            seed=7,
        )

    def _run(self, how, stream):
        factory = self._factory()
        if how == "merged":
            algo, _ = ShardedStreamRunner(workers=2, backend="serial").run(
                factory, stream
            )
            return algo
        algo = factory()
        StreamRunner(chunk_size=64, path=how).run(algo, stream)
        return algo

    @pytest.mark.parametrize("how", ["scalar", "vectorized", "merged"])
    def test_answers_equal_reference(self, how, stream, monkeypatch):
        algo = self._run(how, stream)
        answers = _finalize_answers(algo)
        monkeypatch.setattr(
            F2HeavyHitter, "peek_heavy_hitters", _scalar_peek_heavy_hitters
        )
        monkeypatch.setattr(SmallSet, "_run_value", _from_edges_run_value)
        reference = _finalize_answers(algo)
        assert answers == reference
        # Not vacuous: heavy hitters were reported and a stored
        # sub-instance was solved.
        assert any(isinstance(a, dict) and a for a in reference)
        assert any(isinstance(a, tuple) and a[1] for a in reference)
