"""Unit tests for Nisan's PRG (hashing/nisan.py)."""

import numpy as np
import pytest

from repro.hashing.nisan import NisanPRG, prg_for_universe


class TestBlocks:
    def test_block_count(self, rng):
        g = NisanPRG(6, rng)
        assert g.num_blocks == 64

    def test_random_access_matches_enumeration(self, rng):
        g = NisanPRG(7, rng)
        blocks = [g.block(j) for j in range(g.num_blocks)]
        again = g.blocks(np.arange(g.num_blocks))
        assert blocks == [int(v) for v in again]

    def test_vectorised_blocks_match_scalar_at_the_field_edges(self, rng):
        """Extreme seeds exercise every limb of the uint64 arithmetic."""
        g = NisanPRG(6, rng)
        top = (1 << 61) - 2
        g.start = top
        g.mults = [top, 1, 1 << 32, (1 << 32) - 1, 1 << 60, top - 1]
        g.adds = [top, 0, 5, 1 << 60, top, 1]
        blocks = [g.block(j) for j in range(g.num_blocks)]
        assert blocks == [int(v) for v in g.blocks(np.arange(64))]

    def test_vectorised_blocks_match_scalar_on_random_indices(self, rng):
        g = NisanPRG(20, rng)
        indices = rng.integers(0, g.num_blocks, size=500)
        assert [g.block(int(j)) for j in indices] \
            == [int(v) for v in g.blocks(indices)]

    def test_affine_step_is_exact(self, rng):
        from repro.hashing.nisan import _affine61

        prime = (1 << 61) - 1
        xs = rng.integers(0, prime, size=2000, dtype=np.uint64)
        xs[:4] = [0, 1, prime - 1, (1 << 32) - 1]
        for mult, add in [(prime - 1, prime - 1), (1, 0), (1 << 32, 7),
                          (int(rng.integers(1, prime)),
                           int(rng.integers(0, prime)))]:
            got = _affine61(xs, mult, add)
            assert [int(v) for v in got] \
                == [(mult * int(x) + add) % prime for x in xs]

    def test_vectorised_blocks_reject_out_of_range(self, rng):
        g = NisanPRG(3, rng)
        for bad in ([0, 8], [-1]):
            with pytest.raises(IndexError):
                g.blocks(np.array(bad))

    def test_block_zero_is_seed(self, rng):
        g = NisanPRG(5, rng)
        assert g.block(0) == g.start

    def test_out_of_range_rejected(self, rng):
        g = NisanPRG(3, rng)
        with pytest.raises(IndexError):
            g.block(8)
        with pytest.raises(IndexError):
            g.block(-1)

    def test_depth_zero_single_block(self, rng):
        g = NisanPRG(0, rng)
        assert g.num_blocks == 1
        assert g.block(0) == g.start

    def test_excessive_depth_rejected(self, rng):
        with pytest.raises(ValueError):
            NisanPRG(64, rng)

    def test_recursive_structure(self, rng):
        """Block 2^i + j applies h_{i+1} once more than block j does
        at the deepest level — check the defining recursion directly."""
        g = NisanPRG(4, rng)
        from repro.hashing.field import MERSENNE61
        for j in range(8):
            expected = g.block(j)
            # block (8 + j) = same walk but starting from h_4(start)
            start_hashed = (g.mults[3] * g.start + g.adds[3]) % MERSENNE61
            walked = start_hashed
            for i in range(2, -1, -1):
                if (j >> i) & 1:
                    walked = (g.mults[i] * walked + g.adds[i]) % MERSENNE61
            assert g.block(8 + j) == walked
            assert isinstance(expected, int)


class TestStatistics:
    def test_bits_balanced(self):
        g = NisanPRG(9, np.random.default_rng(3))
        bits = g.bit_string(20000)
        assert abs(bits.mean() - 0.5) < 0.02

    def test_uniform_blocks(self):
        g = NisanPRG(10, np.random.default_rng(5))
        u = g.uniform(np.arange(1024))
        assert 0.0 < u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.05

    def test_bit_string_requires_depth(self):
        g = NisanPRG(2, np.random.default_rng(1))
        with pytest.raises(ValueError):
            g.bit_string(61 * 5)

    def test_no_short_cycles(self):
        """Adjacent output blocks should essentially never repeat."""
        g = NisanPRG(10, np.random.default_rng(7))
        vals = g.blocks(np.arange(1024))
        assert np.unique(vals).size > 1000


class TestSeedSize:
    def test_space_is_logsquared(self):
        g = NisanPRG(10, np.random.default_rng(1))
        assert g.space_bits() == (2 * 10 + 1) * 61

    def test_prg_for_universe_depth(self):
        g = prg_for_universe(1000, 4, np.random.default_rng(1))
        assert g.num_blocks >= 4000
        assert g.num_blocks <= 2 * 4096


class TestDerandomizedSampling:
    def test_l0_sampler_nisan_mode_agrees_with_kwise(self):
        """Both modes must be valid samplers on the same input."""
        from repro.core import L0Sampler
        from repro.streams import sparse_vector, vector_to_stream

        n = 128
        vec = sparse_vector(n, 10, seed=3)
        stream = vector_to_stream(vec, seed=4)
        hits = {"kwise": 0, "nisan": 0}
        for mode in hits:
            for seed in range(10):
                sampler = L0Sampler(n, delta=0.25, seed=seed, mode=mode)
                stream.apply_to(sampler)
                result = sampler.sample()
                if not result.failed:
                    assert vec[result.index] != 0
                    assert result.estimate == vec[result.index]
                    hits[mode] += 1
        assert hits["kwise"] >= 8
        assert hits["nisan"] >= 8
