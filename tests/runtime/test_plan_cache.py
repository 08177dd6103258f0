"""Plan-cache hit/invalidation and EncodedLayer gather-plan caching tests."""

import numpy as np
import pytest

from repro.core import SPMCodebook, encode_layer, enumerate_patterns, project_to_patterns
from repro.runtime import ExecutionPlan, PlanCache, dispatch


def make_encoded(rng, n=2, shape=(8, 4, 3, 3), num_patterns=4):
    patterns = enumerate_patterns(n)[:num_patterns]
    weight = project_to_patterns(rng.normal(size=shape), patterns)
    return weight, encode_layer(weight, SPMCodebook(patterns))


class TestPlanCache:
    def test_repeated_dispatch_hits(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(8, 4, 3, 3))
        cache = PlanCache()
        for _ in range(5):
            dispatch(rng.normal(size=(2, 4, 8, 8)), weight, padding=1, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 4
        assert len(cache) == 1

    def test_distinct_geometry_distinct_plans(self):
        rng = np.random.default_rng(1)
        weight = rng.normal(size=(8, 4, 3, 3))
        cache = PlanCache()
        dispatch(rng.normal(size=(1, 4, 8, 8)), weight, padding=1, cache=cache)
        dispatch(rng.normal(size=(1, 4, 8, 8)), weight, padding=0, cache=cache)
        dispatch(rng.normal(size=(1, 4, 10, 10)), weight, padding=1, cache=cache)
        dispatch(rng.normal(size=(2, 4, 8, 8)), weight, padding=1, cache=cache)
        assert cache.stats.misses == 4
        assert cache.stats.hits == 0

    def test_invalidate_and_clear(self):
        rng = np.random.default_rng(3)
        weight = rng.normal(size=(8, 4, 3, 3))
        x = rng.normal(size=(1, 4, 8, 8))
        cache = PlanCache()
        dispatch(x, weight, padding=1, cache=cache)
        (key,) = list(cache._plans)
        assert cache.invalidate(key)
        assert not cache.invalidate(key)  # already gone
        dispatch(x, weight, padding=1, cache=cache)
        assert cache.stats.misses == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_lru_eviction(self):
        rng = np.random.default_rng(4)
        weight = rng.normal(size=(4, 2, 3, 3))
        cache = PlanCache(maxsize=2)
        for h in (6, 7, 8):
            dispatch(rng.normal(size=(1, 2, h, h)), weight, padding=1, cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # Oldest geometry (h=6) was evicted: dispatching it misses again.
        dispatch(rng.normal(size=(1, 2, 6, 6)), weight, padding=1, cache=cache)
        assert cache.stats.misses == 4

    def test_bytes_tracked_on_add_invalidate_clear(self):
        rng = np.random.default_rng(5)
        weight = rng.normal(size=(8, 4, 3, 3))
        cache = PlanCache()
        assert cache.nbytes == 0
        dispatch(rng.normal(size=(1, 4, 8, 8)), weight, padding=1, cache=cache)
        (key,) = list(cache._plans)
        per_plan = cache._plans[key].nbytes
        assert per_plan > 0
        assert cache.nbytes == per_plan
        dispatch(rng.normal(size=(1, 4, 10, 10)), weight, padding=1, cache=cache)
        assert cache.nbytes > per_plan
        cache.invalidate(key)
        assert cache.nbytes == cache.stats.bytes > 0
        freed = cache.clear()
        assert freed > 0
        assert cache.nbytes == 0

    def test_byte_budget_evicts_lru(self):
        rng = np.random.default_rng(6)
        weight = rng.normal(size=(4, 2, 3, 3))
        probe = PlanCache()
        dispatch(rng.normal(size=(1, 2, 8, 8)), weight, padding=1, cache=probe)
        one_plan = probe.nbytes
        # Budget for ~1.5 plans: every second distinct geometry must
        # evict the previous one, but the MRU plan always survives.
        cache = PlanCache(max_bytes=int(one_plan * 1.5))
        for h in (8, 9, 10):
            dispatch(rng.normal(size=(1, 2, h, h)), weight, padding=1, cache=cache)
        assert len(cache) == 1
        assert cache.stats.evictions == 2
        assert 0 < cache.nbytes <= int(one_plan * 1.5) + one_plan

    def test_plan_geometry(self):
        plan = ExecutionPlan.build(
            key=("k",), x_shape=(2, 3, 8, 8), weight_shape=(4, 3, 3, 3),
            stride=2, padding=1,
        )
        assert plan.out_hw == (4, 4)
        assert plan.windows == 2 * 4 * 4
        assert plan.im2col_elements == plan.windows * 3 * 9

    def test_collapsed_geometry_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            ExecutionPlan.build(
                key=("k",), x_shape=(1, 3, 2, 2), weight_shape=(4, 3, 3, 3),
                stride=1, padding=0,
            )


class TestEncodedLayerCaches:
    def test_gather_plan_computed_once(self):
        rng = np.random.default_rng(5)
        _, encoded = make_encoded(rng)
        plan_a = encoded.gather_plan()
        plan_b = encoded.gather_plan()
        assert plan_a is plan_b
        assert plan_a.col_idx().shape == (encoded.num_kernels, encoded.values.shape[1])

    def test_gather_plan_matches_codes(self):
        rng = np.random.default_rng(6)
        _, encoded = make_encoded(rng)
        plan = encoded.gather_plan()
        c_out, c_in, kh, kw = encoded.shape
        col_idx = plan.col_idx()
        for k in (0, encoded.num_kernels // 2, encoded.num_kernels - 1):
            positions = plan.positions_by_code[encoded.codes[k]]
            np.testing.assert_array_equal(
                col_idx[k], (k % c_in) * kh * kw + positions
            )

    def test_grouped_weight_matrix_cached_and_shaped(self):
        rng = np.random.default_rng(7)
        _, encoded = make_encoded(rng, num_patterns=4)
        grouped = encoded.grouped_weight_matrix()
        c_out, c_in, _, _ = encoded.shape
        assert grouped.shape == (4 * c_in * encoded.values.shape[1], c_out)
        assert encoded.grouped_weight_matrix() is grouped

    def test_eager_predict_leaves_no_decoded_weight(self):
        """An eager predict on a model whose codebooks exceed the grouped
        expansion limit (|P|=32, n=2, like the VGG-16 flagship) decodes
        each layer for the call only: nothing stays memoized."""
        from repro import runtime
        from repro.core import PCNNConfig, PCNNPruner
        from repro.models import patternnet
        from repro.runtime.engine import GROUPED_EXPANSION_LIMIT, gather_width_ratio

        model = patternnet(rng=np.random.default_rng(10))
        pruner = PCNNPruner(model, PCNNConfig.uniform(2, 3))
        pruner.apply()
        x = np.random.default_rng(11).normal(size=(2, 3, 16, 16))
        reference = runtime.predict(model, x)  # dense weights, no encoding
        encodings = pruner.attach_encodings()
        for enc in encodings.values():
            ratio = gather_width_ratio(len(enc.codebook), enc.codebook.n_nonzero, 9)
            assert ratio > GROUPED_EXPANSION_LIMIT
        out = runtime.predict(model, x)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)
        assert sum(enc.cached_nbytes for enc in encodings.values()) == 0

    def test_invalidate_caches(self):
        rng = np.random.default_rng(8)
        _, encoded = make_encoded(rng)
        plan = encoded.gather_plan()
        grouped = encoded.grouped_weight_matrix()
        assert encoded.invalidate_caches() == plan.positions_by_code.nbytes + grouped.nbytes
        assert encoded.cached_nbytes == 0
        assert encoded.gather_plan() is not plan
        assert encoded.grouped_weight_matrix() is not grouped

    def test_stale_cache_detected_by_invalidation(self):
        """Mutating values + invalidating re-derives the grouped matrix."""
        rng = np.random.default_rng(9)
        _, encoded = make_encoded(rng)
        before = encoded.grouped_weight_matrix().copy()
        encoded.values[...] *= 2.0
        encoded.invalidate_caches()
        np.testing.assert_allclose(encoded.grouped_weight_matrix(), before * 2.0)
