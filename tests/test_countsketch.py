"""Tests for CountSketch and F2 heavy hitters (Theorem 2.10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.base import StreamConsumedError
from repro.engine.plan import EvalPlan
from repro.sketch.countsketch import CountSketch, F2HeavyHitter


class TestCountSketch:
    def test_single_item_exact(self):
        cs = CountSketch(width=64, depth=5, seed=1)
        for _ in range(37):
            cs.update(9)
        assert cs.query(9) == pytest.approx(37.0)

    def test_absent_item_near_zero(self):
        cs = CountSketch(width=256, depth=5, seed=2)
        for x in range(50):
            cs.update(x)
        assert abs(cs.query(10**6)) <= 10

    def test_heavy_item_recovered_among_noise(self):
        cs = CountSketch(width=256, depth=5, seed=3)
        for _ in range(1000):
            cs.update(7)
        for x in range(500):
            cs.update(1000 + x)
        assert cs.query(7) == pytest.approx(1000, rel=0.25)

    def test_count_argument(self):
        a = CountSketch(width=32, depth=3, seed=4)
        b = CountSketch(width=32, depth=3, seed=4)
        for _ in range(15):
            a.update(2)
        b.update(2, 15)
        assert a.query(2) == b.query(2)

    def test_f2_estimate_single_item(self):
        cs = CountSketch(width=64, depth=5, seed=5)
        cs.update(1, 40)
        assert cs.f2_estimate() == pytest.approx(1600.0)

    def test_f2_estimate_uniform_within_factor_two(self):
        cs = CountSketch(width=512, depth=5, seed=6)
        for x in range(300):
            cs.update(x, 4)
        truth = 300 * 16
        assert truth / 2 <= cs.f2_estimate() <= truth * 2

    def test_process_protocol(self):
        cs = CountSketch(width=16, depth=3, seed=1)
        cs.process(5)
        cs.finalize()
        with pytest.raises(StreamConsumedError):
            cs.process(5)

    def test_space_words_structure(self):
        cs = CountSketch(width=10, depth=4, seed=1)
        # 40 counters plus 8 hash functions of degree 4.
        assert cs.space_words() == 40 + 8 * 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CountSketch(width=0)
        with pytest.raises(ValueError):
            CountSketch(depth=0)

    def test_median_robust_to_one_bad_row(self):
        """Depth 5 medians tolerate collisions in a minority of rows."""
        errors = []
        for seed in range(10):
            cs = CountSketch(width=128, depth=5, seed=seed)
            cs.update(0, 500)
            for x in range(1, 400):
                cs.update(x)
            errors.append(abs(cs.query(0) - 500))
        assert np.median(errors) < 60


def _loaded_sketch(depth, seed=0, lo=0, hi=3000, tokens=4000):
    cs = CountSketch(width=41, depth=depth, seed=seed)
    cs.update_batch(
        np.random.default_rng(seed).integers(lo, hi, tokens).astype(np.int64)
    )
    return cs


def _assert_matches_scalar(cs, items):
    batched = cs.query_many(np.asarray(items, dtype=np.int64))
    assert batched.dtype == np.float64
    assert batched.tolist() == [cs.query(i) for i in items]


class TestQueryMany:
    """``query_many`` is exactly the scalar ``query``, item by item."""

    @pytest.mark.parametrize("depth", [4, 5])
    def test_equals_scalar_query(self, depth):
        cs = _loaded_sketch(depth, seed=depth)
        # Touched, untouched and repeated items; even depth takes the
        # mean of the two middle rows, odd depth the middle row.
        _assert_matches_scalar(cs, list(range(3100)) + [7, 7, 0])

    def test_empty_input(self):
        cs = _loaded_sketch(5)
        out = cs.query_many(np.empty(0, dtype=np.int64))
        assert out.shape == (0,) and out.dtype == np.float64
        assert cs.query_many([]).shape == (0,)

    @pytest.mark.parametrize("depth", [4, 5])
    def test_items_above_table_domain(self, depth):
        base = 1 << 16
        cs = _loaded_sketch(depth, lo=base, hi=base + 500_000, tokens=3000)
        items = np.random.default_rng(9).integers(
            base, base + 500_000, 1000
        )
        _assert_matches_scalar(cs, items.tolist() + [(1 << 31) + 5])

    @pytest.mark.parametrize("depth", [4, 5])
    def test_tabulated_items(self, depth):
        """Counters scattered through the plan's domain tables."""
        cs = CountSketch(width=41, depth=depth, seed=3)
        plan = EvalPlan(500, 10)
        cs._register_plan(plan, plan.sets)
        unique = np.arange(0, 500, 3, dtype=np.int64)
        cs.update_grouped(unique, unique % 7 + 1)
        assert cs._bucket_tables is not None
        _assert_matches_scalar(cs, list(range(500)))

    @pytest.mark.parametrize("depth", [4, 5])
    def test_after_merge(self, depth):
        merged = _loaded_sketch(depth, seed=11)
        other = CountSketch(width=41, depth=depth, seed=11)
        other.update_batch(np.arange(2000, 2600, dtype=np.int64))
        merged.merge(other)
        _assert_matches_scalar(merged, list(range(3100)))

    @pytest.mark.parametrize("depth", [4, 5])
    def test_after_load_state_arrays(self, depth):
        source = _loaded_sketch(depth, seed=12)
        restored = CountSketch(width=41, depth=depth, seed=12)
        restored.load_state_arrays(source.state_arrays())
        items = list(range(3100))
        _assert_matches_scalar(restored, items)
        assert restored.query_many(items).tolist() == (
            source.query_many(items).tolist()
        )


class TestF2HeavyHitter:
    def test_finds_dominant_item(self):
        hh = F2HeavyHitter(phi=0.1, seed=1)
        for _ in range(1000):
            hh.process(3)
        for x in range(200):
            hh.process(100 + x)
        out = hh.heavy_hitters()
        assert 3 in out
        assert out[3] == pytest.approx(1000, rel=0.5)

    def test_empty_stream(self):
        assert F2HeavyHitter(phi=0.1, seed=1).heavy_hitters() == {}

    def test_uniform_stream_reports_nothing_heavy(self):
        hh = F2HeavyHitter(phi=0.5, seed=2)
        for x in range(2000):
            hh.process(x)
        out = hh.heavy_hitters()
        # No coordinate holds 50% of F2 = 2000, sqrt(0.5*2000) ~ 31.
        assert all(v < 40 for v in out.values())

    def test_multiple_heavy_items(self):
        hh = F2HeavyHitter(phi=0.05, seed=3)
        for _ in range(800):
            hh.process(1)
        for _ in range(600):
            hh.process(2)
        for x in range(300):
            hh.process(100 + x)
        out = hh.heavy_hitters()
        assert 1 in out and 2 in out

    def test_frequencies_within_factor_two(self):
        """Theorem 2.10's (1 +/- 1/2) frequency guarantee."""
        hh = F2HeavyHitter(phi=0.05, seed=4)
        for _ in range(1000):
            hh.process(11)
        for _ in range(400):
            hh.process(22)
        out = hh.heavy_hitters()
        assert 500 <= out[11] <= 1500
        if 22 in out:
            assert 200 <= out[22] <= 600

    def test_candidate_pool_survives_pruning(self):
        """A heavy item seen early must survive a long noise tail."""
        hh = F2HeavyHitter(phi=0.1, seed=5)
        for _ in range(2000):
            hh.process(42)
        for x in range(5000):
            hh.process(10**6 + x)
        assert 42 in hh.heavy_hitters()

    def test_space_scales_inverse_phi(self):
        small = F2HeavyHitter(phi=0.5, seed=1)
        large = F2HeavyHitter(phi=0.01, seed=1)
        assert small.space_words() < large.space_words()

    def test_heavy_hitters_finalises(self):
        hh = F2HeavyHitter(phi=0.1, seed=1)
        hh.process(1)
        hh.heavy_hitters()
        with pytest.raises(StreamConsumedError):
            hh.process(2)

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            F2HeavyHitter(phi=0.0)
        with pytest.raises(ValueError):
            F2HeavyHitter(phi=1.5)
