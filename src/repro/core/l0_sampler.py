"""The zero-relative-error L0-sampler of Theorem 2.

Precision sampling collapses as ``p -> 0`` (the scaling factors
``t^(-1/p)`` blow up), so the paper switches strategy entirely:

* Let ``I_k``, ``k = 1 .. floor(log n)``, be random subsets of ``[n]``
  of size ``2^k``, and ``I_0 = [n]``.
* For each level run the *exact* sparse recovery of Lemma 5 on the
  restriction of ``x`` to ``I_k``, with sparsity ``s = ceil(4 log(1/delta))``.
* Return a uniformly random non-zero coordinate of the first recovery
  that yields a non-zero s-sparse vector; FAIL if every level returns
  zero or DENSE.

For support size ``|J| <= s`` the full-universe level recovers ``x``
exactly, so the output is a perfectly uniform support sample — zero
relative error.  For ``|J| > s`` some level has ``E|I_k ∩ J|`` between
s/3 and 2s/3 and succeeds with probability ``1 - delta`` by Chernoff.

Derandomization: the random sets (and the final uniform choice) are
driven either by k-wise independent subsampling (`mode="kwise"`,
DESIGN.md substitution 2 — the concentration the proof needs only
requires limited independence) or by an actual Nisan PRG
(`mode="nisan"`), mirroring the paper's O(log^2 n)-seed derandomization
of the random-oracle algorithm.

Space: ``O(log n)`` levels x ``O(s)`` field counters of O(log n) bits
= ``O(log^2 n log(1/delta))`` bits — Theorem 2's bound, a log factor
below Frahling–Indyk–Sohler.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..hashing.field import mod_inplace
from ..hashing.kwise import SubsetHash, derive_rngs
from ..hashing.nisan import NisanPRG
from ..recovery.syndrome import SyndromeSparseRecovery
from ..space.accounting import SpaceReport
from .base import SampleResult, StreamingSampler

#: Items per fused ingest block: bounds the ``(2s, block)`` uint64
#: power-term scratch (2.8 MiB at s = 11) and keeps every prefix sum
#: far below the ``2**33``-term exactness limit.
_FUSED_BLOCK = 1 << 14

#: Level indexes (see ``L0Sampler._level_set``) by level map
#: ``(mode, universe, seed)``, least recently used first.  An index is
#: a function of the map alone, so every sampler with that map (shards,
#: folds, clones, restored twins) shares one; at most
#: ``_LEVEL_INDEX_MAPS`` maps are kept.
_LEVEL_INDEXES: OrderedDict = OrderedDict()
_LEVEL_INDEX_MAPS = 8
_LEVEL_INDEX_LOCK = threading.Lock()


class L0Sampler(StreamingSampler):
    """Zero relative error L0 sampling with failure probability delta."""

    def __init__(self, universe: int, delta: float = 0.25, seed: int = 0,
                 mode: str = "kwise", sparsity: int | None = None):
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if mode not in ("kwise", "nisan"):
            raise ValueError("mode must be 'kwise' or 'nisan'")
        self.universe = int(universe)
        self.delta = float(delta)
        self.seed = int(seed)
        self.mode = mode
        self.sparsity = (int(np.ceil(4.0 * np.log(1.0 / delta))) + 1
                         if sparsity is None else int(sparsity))
        self.levels = max(1, int(np.floor(np.log2(max(2, universe))))) + 1

        rngs = derive_rngs(np.random.SeedSequence((self.seed, 0x105)), 3)
        if mode == "kwise":
            self._subset = SubsetHash(2, rngs[0])
            self._prg = None
        else:
            # Depth covers one 61-bit block per universe element; the
            # block's bits give the element's geometric survival depth.
            depth = int(np.ceil(np.log2(max(2, universe))))
            self._prg = NisanPRG(depth, rngs[0])
            self._subset = None
        self._choice_rng = rngs[1]
        self._recoveries = [
            SyndromeSparseRecovery(universe, self.sparsity,
                                   seed=int(rngs[2].integers(2**62)) + level)
            for level in range(self.levels)
        ]
        # Fingerprint power tables: derived from the recoveries' seeds,
        # built by the first ``update_many`` (never here: clones,
        # snapshots and query copies never ingest, so ``copy`` drops
        # them), and never part of params or state.
        self._fp_tables = None

    # -- level membership ----------------------------------------------------------

    def _survival_depth(self, indices: np.ndarray) -> np.ndarray:
        """Deepest level each coordinate belongs to (levels are nested).

        Level 0 is the full universe; level k keeps each coordinate with
        probability ~2^-k.  Nested geometric levels satisfy the same
        per-level Chernoff bound as the paper's independent size-2^k
        sets (the proof only uses one level at a time).
        """
        idx = np.asarray(indices, dtype=np.int64)
        if self.mode == "kwise":
            # Depth from the k-wise hash value: count leading "survivals".
            vals = self._subset._h(idx.astype(np.uint64))
            frac = (np.asarray(vals, dtype=np.float64) + 1.0) \
                / float(self._subset.field.p)
        else:
            frac = self._prg.uniform(idx)
        with np.errstate(divide="ignore"):
            depth = np.floor(-np.log2(frac)).astype(np.int64)
        return np.clip(depth, 0, self.levels - 1)

    def _level_set(self, level: int) -> np.ndarray:
        """``I_level`` as int32 coordinates (unsorted), from the index.

        The index holds every coordinate sorted deepest-first (ascending
        within a depth) plus ``reach[L]``, the number of coordinates at
        depth ``>= L``, so ``I_L`` is the prefix ``table[:reach[L]]``.
        It is built by the first decode of any sampler with this level
        map and kept in ``_LEVEL_INDEXES``, never in params or state.
        """
        key = (self.mode, self.universe, self.seed)
        with _LEVEL_INDEX_LOCK:
            index = _LEVEL_INDEXES.get(key)
            if index is not None:
                _LEVEL_INDEXES.move_to_end(key)
        if index is None:
            index = self._build_level_index()
            with _LEVEL_INDEX_LOCK:
                _LEVEL_INDEXES[key] = index
                while len(_LEVEL_INDEXES) > _LEVEL_INDEX_MAPS:
                    _LEVEL_INDEXES.popitem(last=False)
        table, reach = index
        return table[:reach[level]]

    def _build_level_index(self) -> tuple:
        """``(table, reach)`` of :meth:`_level_set`, built in blocks of
        ``_FUSED_BLOCK`` coordinates, so the only full-universe arrays
        are the int8 depths and the int32 table (320 KiB at
        ``n = 2**16``)."""
        n = self.universe
        depth = np.empty(n, dtype=np.int8)
        for lo in range(0, n, _FUSED_BLOCK):
            depth[lo:lo + _FUSED_BLOCK] = self._survival_depth(
                np.arange(lo, min(n, lo + _FUSED_BLOCK)))
        counts = np.bincount(depth, minlength=self.levels)
        reach = np.cumsum(counts[::-1])[::-1]
        cursor = reach - counts           # next free slot of each depth
        table = np.empty(n, dtype=np.int32)
        for lo in range(0, n, _FUSED_BLOCK):
            block = depth[lo:lo + _FUSED_BLOCK]
            for d in range(self.levels):
                members = np.flatnonzero(block == d) + lo
                table[cursor[d]:cursor[d] + members.size] = members
                cursor[d] += members.size
        return table, reach

    # -- streaming -------------------------------------------------------------------

    def update_many(self, indices, deltas) -> None:
        """Feed updates to every level the coordinates survive to.

        One fused pass over all levels, byte-identical to
        :meth:`_reference_update_many`.  Levels are nested, so once the
        batch is sorted deepest-first the items of level ``L`` are a
        prefix of length ``n_L``.  The syndrome terms ``u * a^j`` do not
        depend on the level (locators are ``i + 1`` everywhere), so they
        are built once as a ``(2s, n)`` table, summed per survival-depth
        bucket and suffix-summed across buckets: level ``L`` gets every
        bucket at depth ``>= L``.  Each term is below ``p < 2**31`` and
        a block holds far fewer than ``2**33`` items, so the uint64 sums
        are exact.  The fingerprints ``u * b^i`` use per-level points:
        they are evaluated for all (level, item) pairs of the prefixes
        at once, with ``b^i`` read from byte-window power tables instead
        of square-and-multiply, and summed per level.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        dlt = np.asarray(deltas, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= self.universe:
            raise ValueError(
                f"indices must lie in [0, {self.universe})")
        for lo in range(0, idx.size, _FUSED_BLOCK):
            self._fused_block(idx[lo:lo + _FUSED_BLOCK],
                              dlt[lo:lo + _FUSED_BLOCK])

    def _fused_block(self, idx: np.ndarray, dlt: np.ndarray) -> None:
        p = self._recoveries[0].field.p
        depth = self._survival_depth(idx)
        order = np.argsort(-depth.astype(np.int8), kind="stable")
        idx = np.take(idx, order)
        dlt = np.mod(np.take(dlt, order), np.int64(p)).astype(np.uint64)
        counts = np.bincount(depth, minlength=self.levels)
        reach = np.cumsum(counts[::-1])[::-1]     # n_L: items at depth >= L
        active = int(np.count_nonzero(reach))     # levels with any item

        # Syndromes: terms[j] = u * a^j, then one exact sum per non-empty
        # depth bucket (deepest first) and a suffix sum over buckets.
        terms = np.empty((2 * self.sparsity, idx.size), dtype=np.uint64)
        scratch = np.empty(idx.size, dtype=np.uint64)
        terms[0] = dlt
        locators = (idx + 1).astype(np.uint64)
        for j in range(1, terms.shape[0]):
            np.multiply(terms[j - 1], locators, out=terms[j])
            mod_inplace(terms[j], p, scratch)
        deep_first = np.flatnonzero(counts)[::-1]
        buckets = np.add.reduceat(
            terms, reach[deep_first] - counts[deep_first], axis=1)
        suffix = np.cumsum(buckets, axis=1) % p
        column = np.cumsum(counts[::-1] > 0)[::-1] - 1

        # Fingerprints: every (level L, item in L's prefix) pair.
        tables = self._fingerprint_tables()
        stride = tables.shape[1] // self.levels   # windows * 256
        heads = reach[:active]
        starts = np.cumsum(heads) - heads
        item = np.arange(int(heads.sum())) - np.repeat(starts, heads)
        base = np.repeat(np.arange(active) * stride, heads)
        key = np.take(idx, item)
        powers = np.take(tables, base + (key & 0xFF), axis=1)  # (F, pairs)
        scratch = np.empty_like(powers)
        for w in range(1, stride // 256):
            powers *= np.take(tables, base + 256 * w
                              + ((key >> (8 * w)) & 0xFF), axis=1)
            mod_inplace(powers, p, scratch)
        powers *= np.take(dlt, item)
        mod_inplace(powers, p, scratch)
        fingerprints = np.add.reduceat(powers, starts, axis=1) % p

        for level in range(active):
            recovery = self._recoveries[level]
            recovery.syndromes[:] = (recovery.syndromes
                                     + suffix[:, column[level]]) % p
            recovery.fp_values[:] = (recovery.fp_values
                                     + fingerprints[:, level]) % p

    def _fingerprint_tables(self) -> np.ndarray:
        """Fingerprint powers by byte window, ``(F, levels * W * 256)``.

        Entry ``[r, (L * W + w) * 256 + v]`` is ``b^(v * 256^w) mod p``
        for level ``L``'s ``r``-th fingerprint point ``b``, so ``b^i`` is
        the product of one entry per byte of ``i``.  Built on first use;
        about 200 KiB at ``n = 2**16`` (3 points x 17 levels x 2
        windows x 256).
        """
        if self._fp_tables is None:
            p = self._recoveries[0].field.p
            windows = max(1, -(-(self.universe - 1).bit_length() // 8))
            step = np.stack([rec._fp_points for rec in self._recoveries],
                            axis=1)                    # (F, levels)
            tables = np.empty(step.shape + (windows, 256), dtype=np.uint64)
            for w in range(windows):
                table = tables[:, :, w]
                table[..., 0] = 1
                width = 1
                while width < 256:         # step holds b^(width * 256^w)
                    table[..., width:2 * width] = \
                        table[..., :width] * step[..., None] % p
                    step = step * step % p
                    width *= 2
            self._fp_tables = tables.reshape(step.shape[0], -1)
        return self._fp_tables

    def _reference_update_many(self, indices, deltas) -> None:
        """Oracle for the fused path: one recovery update per level."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        dlt = np.asarray(deltas, dtype=np.int64)
        depth = self._survival_depth(idx)
        for level in range(self.levels):
            mask = depth >= level
            if not mask.any():
                break
            self._recoveries[level]._reference_update_many(idx[mask],
                                                           dlt[mask])

    def update(self, index: int, delta) -> None:
        """Apply a single turnstile update."""
        self.update_many(np.array([index], dtype=np.int64),
                         np.array([delta], dtype=np.int64))

    def _params(self) -> dict:
        """Constructor kwargs rebuilding an empty twin (same linear map).

        Engine contract (see :mod:`repro.engine.checkpoint`): equal
        params imply identically-seeded levels and recoveries.
        """
        return dict(universe=self.universe, delta=self.delta,
                    seed=self.seed, mode=self.mode, sparsity=self.sparsity)

    def copy(self) -> "L0Sampler":
        """An independent copy sharing the immutable linear map.

        The level hash (or PRG) is shared; the choice RNG restarts from
        the same PCG64 state and every recovery gets its own counters,
        so the copy's state, checkpoint bytes and draws equal those of a
        build-and-load clone.  The power tables
        are dropped: copies serve queries and rarely ingest.
        """
        twin = type(self).__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._choice_rng = np.random.Generator(np.random.PCG64(0))
        twin._choice_rng.bit_generator.state = \
            self._choice_rng.bit_generator.state
        twin._recoveries = [rec.copy() for rec in self._recoveries]
        twin._fp_tables = None
        return twin

    # -- sampling ---------------------------------------------------------------------

    def sample(self, count: int | None = None):
        """Scan levels sparsest-first; uniform choice from the first hit.

        With ``count``, returns a tuple of ``count`` samples from one
        decode: the recoveries do not change between draws, so this
        equals ``count`` sequential ``sample()`` calls, field for field,
        and consumes the choice RNG exactly as they would.

        Level ``k``'s recovery sketches ``x`` restricted to ``I_k``, so
        its root search runs over ``I_k`` only (about ``n / 2^k``
        locators).  Every s-sparse level vector lies in ``I_k`` and is
        found there; a full-universe search could differ only by
        accepting a support outside ``I_k``, i.e. on a fingerprint
        collision.
        """
        draws = 1 if count is None else int(count)
        if draws < 0:
            raise ValueError("count must be >= 0")
        samples = None
        for level in range(self.levels - 1, -1, -1):
            result = self._recoveries[level].recover(
                candidates=self._level_set(level) if level else None)
            if result.dense or result.is_zero:
                continue
            support = result.indices
            samples = []
            for _ in range(draws):
                pos = int(self._choice_rng.integers(support.size))
                samples.append(SampleResult.ok(
                    int(support[pos]), float(int(result.values[pos])),
                    level=level, support_size=int(support.size)))
            break
        if samples is None:
            samples = [SampleResult.fail("all-levels-zero-or-dense")
                       for _ in range(draws)]
        return samples[0] if count is None else tuple(samples)

    # -- distributed use ------------------------------------------------------------

    def _map_mismatches(self, other) -> list[str]:
        """The fields preventing a merge/subtract, human-readable.

        Two samplers share a linear map iff every map-defining field
        matches: universe (locator range), seed (level sets and
        recovery hashes), mode (level derivation), sparsity (syndrome
        count) and levels (recovery list length).  ``delta`` only
        enters through ``sparsity``, so it is deliberately not
        compared: explicitly-equal sparsities share a map even when
        the deltas that suggested them differ.
        """
        if not isinstance(other, L0Sampler):
            return [f"type: L0Sampler != {type(other).__name__}"]
        return [f"{name}: {getattr(self, name)!r} != {getattr(other, name)!r}"
                for name in ("universe", "seed", "mode", "sparsity", "levels")
                if getattr(self, name) != getattr(other, name)]

    def _require_same_map(self, other, verb: str) -> None:
        mismatches = self._map_mismatches(other)
        if mismatches:
            raise ValueError(
                f"cannot {verb} L0 samplers with different maps "
                f"({'; '.join(mismatches)})")

    def merge(self, other: "L0Sampler") -> None:
        """In-place addition: afterwards this samples from ``x + y``.

        Linearity of every level recovery makes the sampler mergeable,
        which powers multi-party reconciliation (k sites each sketch
        their vector; the coordinator merges and samples the union's
        support).  Requires identically seeded samplers; anything else
        raises with the exact mismatched fields rather than silently
        zipping incompatible level recoveries.
        """
        self._require_same_map(other, "merge")
        for mine, theirs in zip(self._recoveries, other._recoveries):
            mine.merge(theirs)

    def subtract(self, other: "L0Sampler") -> None:
        """In-place subtraction: afterwards this samples from ``x - y``."""
        self._require_same_map(other, "subtract")
        for mine, theirs in zip(self._recoveries, other._recoveries):
            mine.subtract(theirs)

    def recover_full_support(self) -> np.ndarray | None:
        """The exact support when it is s-sparse (level 0), else None."""
        result = self._recoveries[0].recover()
        if result.dense:
            return None
        return result.indices

    # -- space -------------------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Itemised space: level recoveries plus the PRG/hash seed."""
        prg_bits = (self._prg.space_bits() if self._prg is not None
                    else self._subset.space_bits())
        report = SpaceReport(label=f"l0-sampler(delta={self.delta}, "
                                   f"mode={self.mode})",
                             seed_bits=prg_bits)
        for recovery in self._recoveries:
            report.add(recovery.space_report())
        return report

    def space_bits(self) -> int:
        """Total space in bits (paper accounting)."""
        return self.space_report().total
