"""Tests for the Theorem 2 L0-sampler (core/l0_sampler.py)."""

import numpy as np
import pytest

from repro.core import L0Sampler
from repro.streams import sparse_vector, vector_to_stream


def run_samplers(vector, trials, delta=0.25, mode="kwise", seed_base=0):
    stream = vector_to_stream(vector, seed=77)
    results = []
    for t in range(trials):
        sampler = L0Sampler(vector.size, delta=delta, seed=seed_base + t,
                            mode=mode)
        stream.apply_to(sampler)
        results.append(sampler.sample())
    return results


class TestValidation:
    def test_bad_delta(self):
        with pytest.raises(ValueError):
            L0Sampler(100, delta=0.0)
        with pytest.raises(ValueError):
            L0Sampler(100, delta=1.0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            L0Sampler(100, mode="oracle")

    def test_sparsity_follows_delta(self):
        loose = L0Sampler(100, delta=0.5)
        tight = L0Sampler(100, delta=0.01)
        assert tight.sparsity > loose.sparsity


class TestCorrectness:
    def test_zero_vector_fails(self):
        sampler = L0Sampler(128, seed=1)
        assert sampler.sample().failed

    def test_cancellation_fails(self):
        sampler = L0Sampler(128, seed=2)
        sampler.update(3, 5)
        sampler.update(3, -5)
        assert sampler.sample().failed

    def test_single_coordinate(self):
        sampler = L0Sampler(128, seed=3)
        sampler.update(42, -9)
        result = sampler.sample()
        assert not result.failed
        assert result.index == 42 and result.estimate == -9

    @pytest.mark.parametrize("support", [2, 10, 50])
    def test_samples_land_in_support_with_exact_values(self, support):
        n = 256
        vec = sparse_vector(n, support, seed=support)
        results = run_samplers(vec, trials=40, seed_base=support * 100)
        hits = [r for r in results if not r.failed]
        assert len(hits) >= 30
        for r in hits:
            assert vec[r.index] != 0
            assert r.estimate == vec[r.index]  # ZERO relative error

    def test_failure_rate_below_delta(self):
        n = 512
        vec = sparse_vector(n, 100, seed=5)
        results = run_samplers(vec, trials=60, delta=0.2, seed_base=900)
        failure_rate = sum(r.failed for r in results) / len(results)
        assert failure_rate <= 0.2 + 0.1  # delta plus sampling slack


class TestUniformity:
    """Uniformity checks via the shared chi-square harness
    (tests/_stattools.py) rather than per-test absolute tolerances."""

    def test_small_support_uniform(self):
        """|J| <= s: recovery is exact, choice must be uniform."""
        from _stattools import assert_uniform_over

        n = 256
        vec = np.zeros(n, dtype=np.int64)
        support = [3, 50, 200]
        for i in support:
            vec[i] = 1
        results = run_samplers(vec, trials=240, seed_base=111)
        indices = [r.index for r in results if not r.failed]
        assert_uniform_over(indices, support, min_samples=200)

    def test_large_support_roughly_uniform(self):
        from _stattools import assert_binomial_fraction

        n = 512
        vec = sparse_vector(n, 120, seed=7)
        vec[vec != 0] = np.abs(vec[vec != 0])  # magnitudes irrelevant
        huge = np.flatnonzero(vec)[:5]
        vec[huge] = 10**6                      # huge values, same L0 law
        results = run_samplers(vec, trials=150, seed_base=222)
        indices = [r.index for r in results if not r.failed]
        assert len(indices) >= 100
        # under uniform support sampling the 5 huge coordinates draw a
        # Binomial(successes, 5/120) share of the samples — magnitudes
        # must not inflate it.
        hits = sum(int(i) in set(huge.tolist()) for i in indices)
        assert_binomial_fraction(hits, len(indices), 5 / 120)


class TestFullSupportRecovery:
    def test_exact_support_when_sparse(self):
        n = 128
        vec = sparse_vector(n, 4, seed=9)
        sampler = L0Sampler(n, delta=0.1, seed=10)
        vector_to_stream(vec, seed=1).apply_to(sampler)
        support = sampler.recover_full_support()
        assert support is not None
        assert set(support.tolist()) == set(np.flatnonzero(vec).tolist())

    def test_none_when_dense(self):
        n = 128
        vec = sparse_vector(n, 64, seed=11)
        sampler = L0Sampler(n, delta=0.5, seed=12)
        vector_to_stream(vec, seed=2).apply_to(sampler)
        assert sampler.recover_full_support() is None


class TestSpace:
    def test_space_scales_log_squared(self):
        small = L0Sampler(1 << 8, delta=0.25, seed=1)
        large = L0Sampler(1 << 16, delta=0.25, seed=1)
        ratio = large.space_report().counter_total \
            / small.space_report().counter_total
        assert 2.5 < ratio < 6.5

    def test_nisan_seed_is_log_squared(self):
        sampler = L0Sampler(1 << 10, delta=0.25, seed=1, mode="nisan")
        seed_bits = sampler.space_report().seed_total
        # (2 * 10 + 1) * 61 for the PRG plus recovery fingerprints
        assert seed_bits >= (2 * 10 + 1) * 61


class TestSampleCount:
    """``sample(count=k)`` decodes once and draws k times: the same
    answers, field for field, as k sequential ``sample()`` calls, and
    the same choice-RNG state afterwards."""

    @staticmethod
    def _filled(support, mode="kwise", seed=5, universe=2048):
        sampler = L0Sampler(universe, delta=0.1, seed=seed, mode=mode)
        rng = np.random.default_rng(seed)
        coords = rng.choice(universe, size=support, replace=False)
        sampler.update_many(coords, rng.integers(1, 9, size=support))
        return sampler

    @pytest.mark.parametrize("support", [0, 1, 7, 300])
    @pytest.mark.parametrize("mode", ["kwise", "nisan"])
    def test_count_equals_sequential_samples(self, support, mode):
        from repro.engine import clone

        batched = self._filled(support, mode=mode)
        sequential = clone(batched)
        drawn = batched.sample(count=5)
        assert isinstance(drawn, tuple) and len(drawn) == 5
        assert list(drawn) == [sequential.sample() for _ in range(5)]
        assert (batched._choice_rng.bit_generator.state
                == sequential._choice_rng.bit_generator.state)
        if support == 0:
            assert all(r.failed for r in drawn)
            assert drawn[0].reason == "all-levels-zero-or-dense"
        # ... and the next draws stay in lockstep.
        assert batched.sample() == sequential.sample()

    def test_every_level_dense_fails_without_drawing(self):
        """A support too wide for every level: each draw fails and the
        choice RNG is never consumed, exactly as sequential calls."""
        sampler = L0Sampler(64, seed=2, sparsity=1)
        sampler.update_many(np.arange(64), np.ones(64, dtype=np.int64))
        before = sampler._choice_rng.bit_generator.state
        assert sampler.sample().failed
        drawn = sampler.sample(count=3)
        assert all(r.failed for r in drawn)
        assert sampler._choice_rng.bit_generator.state == before

    def test_count_edge_values(self):
        sampler = self._filled(5)
        assert sampler.sample(count=0) == ()
        assert len(sampler.sample(count=1)) == 1
        with pytest.raises(ValueError, match="count"):
            sampler.sample(count=-1)


class TestLevelSubsetDecode:
    """Each level's root search runs over its own coordinate set I_k.

    The oracle is the full-universe search (``recover()`` with no
    candidates): on every level, and through ``sample(count=k)``, the
    restricted search must give the same answers and consume the choice
    RNG identically.
    """

    UNIVERSES = [1, 3, 1000, 4099, (1 << 17) + 5]

    @staticmethod
    def _filled(universe, mode, support):
        """Support 0 leaves every level zero; a small support makes the
        shallow levels sparse; a wide one makes them dense."""
        sampler = L0Sampler(universe, delta=0.1, seed=universe % 97,
                            mode=mode)
        rng = np.random.default_rng(universe)
        coords = rng.choice(universe, size=min(support, universe),
                            replace=False)
        if coords.size:
            sampler.update_many(coords, rng.integers(1, 9,
                                                     size=coords.size))
        return sampler

    @pytest.mark.parametrize("universe", UNIVERSES)
    @pytest.mark.parametrize("mode", ["kwise", "nisan"])
    def test_level_sets_are_the_survival_sets(self, universe, mode):
        sampler = L0Sampler(universe, delta=0.1, seed=3, mode=mode)
        depth = sampler._survival_depth(np.arange(universe))
        for level in range(sampler.levels):
            members = sampler._level_set(level)
            assert members.dtype == np.int32
            assert np.array_equal(np.sort(members),
                                  np.flatnonzero(depth >= level))

    @pytest.mark.parametrize("universe", UNIVERSES)
    @pytest.mark.parametrize("mode", ["kwise", "nisan"])
    @pytest.mark.parametrize("support", [0, 6, 40, 3000])
    def test_restricted_recover_equals_full(self, universe, mode, support):
        sampler = self._filled(universe, mode, support)
        outcomes = set()
        for level, recovery in enumerate(sampler._recoveries):
            full = recovery.recover()
            restricted = recovery.recover(
                candidates=sampler._level_set(level))
            assert restricted.dense == full.dense
            if not full.dense:
                assert np.array_equal(restricted.indices, full.indices)
                assert np.array_equal(restricted.values, full.values)
                assert restricted.indices.dtype == np.int64
            outcomes.add("dense" if full.dense else
                         "zero" if full.is_zero else "sparse")
        if support == 0:
            assert outcomes == {"zero"}
        elif universe > 3000 and support == 3000:
            assert {"dense", "sparse"} <= outcomes

    @pytest.mark.parametrize("universe", UNIVERSES)
    @pytest.mark.parametrize("mode", ["kwise", "nisan"])
    @pytest.mark.parametrize("support", [0, 6, 3000])
    def test_sample_equals_full_universe_decode(self, universe, mode,
                                                support, monkeypatch):
        from repro.engine.checkpoint import _reference_clone

        restricted = self._filled(universe, mode, support)
        full = _reference_clone(restricted)
        drawn = restricted.sample(count=4)
        with monkeypatch.context() as patch:
            patch.setattr(L0Sampler, "_level_set",
                          lambda self, level: None)
            oracle = full.sample(count=4)
        assert drawn == oracle
        assert (restricted._choice_rng.bit_generator.state
                == full._choice_rng.bit_generator.state)

    @pytest.fixture
    def builds(self, monkeypatch):
        """An empty level-index cache; records the map of each build."""
        import repro.core.l0_sampler as l0_module

        monkeypatch.setattr(l0_module, "_LEVEL_INDEXES",
                            l0_module.OrderedDict())
        calls = []
        real = L0Sampler._build_level_index

        def counting(sampler):
            calls.append((sampler.mode, sampler.universe, sampler.seed))
            return real(sampler)

        monkeypatch.setattr(L0Sampler, "_build_level_index", counting)
        return calls

    def test_index_is_outside_params_state_and_bytes(self, builds):
        from repro.engine import checkpoint, state_arrays

        sampler = self._filled(4099, "kwise", 40)
        params = sampler._params()
        arrays = len(state_arrays(sampler))
        blob = checkpoint(sampler)
        sampler._level_set(1)                   # builds the index
        assert builds == [("kwise", 4099, 4099 % 97)]
        assert sampler._params() == params
        assert len(state_arrays(sampler)) == arrays
        assert checkpoint(sampler) == blob

    def test_index_is_built_once_per_map(self, builds):
        from repro.engine import checkpoint, clone, restore
        from repro.engine.checkpoint import _reference_clone

        sampler = self._filled(4099, "kwise", 40)
        table = sampler._level_set(0)
        same_map = [clone(sampler), _reference_clone(sampler),
                    restore(checkpoint(sampler)),
                    L0Sampler(4099, delta=0.3, seed=sampler.seed)]
        for twin in same_map:
            twin.sample(count=2)
            assert np.shares_memory(twin._level_set(0), table)
        assert len(builds) == 1
        other = L0Sampler(4099, delta=0.1, seed=sampler.seed + 1)
        assert not np.shares_memory(other._level_set(0), table)
        assert len(builds) == 2

    def test_cache_keeps_the_most_recent_maps(self, builds):
        import repro.core.l0_sampler as l0_module

        maps = l0_module._LEVEL_INDEX_MAPS
        samplers = [L0Sampler(64, seed=seed) for seed in range(maps + 1)]
        for sampler in samplers:
            sampler._level_set(1)
        assert len(l0_module._LEVEL_INDEXES) == maps
        samplers[-1]._level_set(1)              # still cached
        assert len(builds) == maps + 1
        samplers[0]._level_set(1)               # evicted: rebuilt
        assert len(builds) == maps + 2
        assert len(l0_module._LEVEL_INDEXES) == maps
