"""Delta checkpoints and the warm-standby follower.

The contract under test is byte-identity: restoring a base checkpoint
plus an ordered delta chain yields exactly the state of a full
checkpoint at the final epoch, and a follower that tailed the same
frames promotes to a pipeline whose ``merged()`` equals the leader's —
for every shardable structure, across ``reshard()``, with typed errors
for corrupted, out-of-order and wrong-base frames.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (DELTA_BASE_RETENTION, FORMAT_VERSION,
                          FollowerPipeline, DeltaError, OutOfOrderDelta,
                          ShardedPipeline, WrongBaseDelta, checkpoint as
                          snapshot_structure, params_of, state_arrays,
                          state_digest)
from repro.engine.delta import encode as encode_delta
from repro.sketch import CountMin, CountSketch

from _engine_cases import (SHARDABLE, SHARDABLE_IDS, random_turnstile,
                           states_equal)

N = 256


def _batches(parts: int, length: int = 1200, seed: int = 5):
    indices, deltas = random_turnstile(N, length, seed)
    return list(zip(np.array_split(indices, parts),
                    np.array_split(deltas, parts)))


def _leader(case, shards: int = 3, seed: int = 7) -> ShardedPipeline:
    return ShardedPipeline(lambda: case.factory(N, seed), shards=shards,
                           chunk_size=64)


def _merged_bytes(pipeline) -> bytes:
    return snapshot_structure(pipeline.merged())


class TestDeltaChain:

    @pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
    def test_chain_restores_byte_identical(self, case):
        batches = _batches(3)
        with _leader(case) as leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint()
            epochs = [leader.updates_ingested]
            chain = []
            for idx, dlt in batches[1:]:
                leader.ingest(idx, dlt)
                chain.append(leader.checkpoint(since=epochs[-1]))
                epochs.append(leader.updates_ingested)
            full = leader.checkpoint()
            leader_bytes = _merged_bytes(leader)
            final_epoch = leader.updates_ingested

        with ShardedPipeline.restore(base, deltas=chain) as restored:
            assert restored.updates_ingested == final_epoch
            assert _merged_bytes(restored) == leader_bytes
        with ShardedPipeline.restore(full) as from_full:
            assert _merged_bytes(from_full) == leader_bytes

    @pytest.mark.parametrize("compress", ["none", "zlib"])
    def test_compression_choices_round_trip(self, compress):
        batches = _batches(2)
        with ShardedPipeline(lambda: CountMin(N, buckets=16, rows=5),
                             shards=2, chunk_size=64) as leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint(compress=compress)
            epoch = leader.updates_ingested
            leader.ingest(*batches[1])
            delta = leader.checkpoint(since=epoch, compress=compress)
            expect = _merged_bytes(leader)
        with ShardedPipeline.restore(base, deltas=[delta]) as restored:
            assert _merged_bytes(restored) == expect

    def test_delta_survives_reshard_between_epochs(self):
        batches = _batches(2)
        with ShardedPipeline(lambda: CountSketch(N, m=6, rows=5),
                             shards=2, chunk_size=64) as leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint()
            epoch = leader.updates_ingested
            leader.reshard(5)     # the delta is of the *merged* state
            leader.ingest(*batches[1])
            delta = leader.checkpoint(since=epoch)
            expect = _merged_bytes(leader)
        with ShardedPipeline.restore(base, deltas=[delta]) as restored:
            assert _merged_bytes(restored) == expect

    def test_restore_with_deltas_accepts_new_shard_count(self):
        batches = _batches(2)
        with ShardedPipeline(lambda: CountMin(N, buckets=16, rows=5),
                             shards=2, chunk_size=64) as leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint()
            epoch = leader.updates_ingested
            leader.ingest(*batches[1])
            delta = leader.checkpoint(since=epoch)
            expect = _merged_bytes(leader)
        with ShardedPipeline.restore(base, shards=5,
                                     deltas=[delta]) as restored:
            assert restored.shards == 5
            assert _merged_bytes(restored) == expect

    def test_sparse_delta_much_smaller_than_full(self):
        # ~1% churn between the epochs: the delta frame (zlib over
        # mostly-zero sections) must undercut the full checkpoint.
        with ShardedPipeline(lambda: CountMin(N, buckets=512, rows=7),
                             shards=2, chunk_size=64) as leader:
            indices, deltas = random_turnstile(N, 2000, 11)
            leader.ingest(indices, deltas)
            base = leader.checkpoint()
            epoch = leader.updates_ingested
            leader.ingest(np.array([3, 9], dtype=np.int64),
                          np.array([1, 1], dtype=np.int64))
            delta = leader.checkpoint(since=epoch)
            full = leader.checkpoint()
        assert len(delta) < len(full) / 2


class TestDeltaBases:

    def test_unretained_epoch_is_loud(self):
        with ShardedPipeline(lambda: CountMin(N, buckets=16, rows=5),
                             shards=2) as leader:
            leader.checkpoint()
            with pytest.raises(ValueError, match="retained"):
                leader.checkpoint(since=12345)

    def test_base_ring_evicts_oldest(self):
        with ShardedPipeline(lambda: CountMin(N, buckets=16, rows=5),
                             shards=2, chunk_size=8) as leader:
            epochs = []
            for round_ in range(DELTA_BASE_RETENTION + 2):
                leader.ingest(np.array([round_], dtype=np.int64),
                              np.array([1], dtype=np.int64))
                leader.checkpoint()
                epochs.append(leader.updates_ingested)
            assert len(leader.delta_epochs) == DELTA_BASE_RETENTION
            assert epochs[0] not in leader.delta_epochs
            with pytest.raises(ValueError, match="retained"):
                leader.checkpoint(since=epochs[0])


class TestRetainedBases:
    """Delta bases are the memoized fold's arrays, kept by reference,
    each with the digest the previous delta already computed."""

    @pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
    def test_retained_base_survives_later_epochs(self, case):
        batches = _batches(4)
        with _leader(case) as leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint()
            epoch = leader.updates_ingested
            frozen = [np.array(a, copy=True)
                      for a in state_arrays(leader.merged())]
            for idx, dlt in batches[1:]:
                leader.ingest(idx, dlt)
                leader.merged()
                leader.checkpoint(since=leader.delta_epochs[-1])
            # The base at ``epoch`` still holds exactly that state, so a
            # delta spanning every later batch restores the leader.
            delta = leader.checkpoint(since=epoch)
            leader_bytes = _merged_bytes(leader)
            retained, _ = leader._delta_bases[epoch]
            assert len(retained) == len(frozen)
            for kept, copy in zip(retained, frozen):
                assert kept.dtype == copy.dtype
                assert kept.tobytes() == copy.tobytes()
        with ShardedPipeline.restore(base, deltas=[delta]) as restored:
            assert _merged_bytes(restored) == leader_bytes

    @pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
    def test_frames_equal_encode_with_fresh_digests(self, case):
        """Every ``checkpoint(since=)`` frame is byte for byte the frame
        ``delta.encode`` builds from independent copies of both states
        with freshly computed digests: from a base retained by a full
        checkpoint, by a previous delta, and from an older epoch."""
        batches = _batches(5)
        copies = {}

        def remember(pipeline):
            copies[pipeline.updates_ingested] = [
                np.array(a, copy=True)
                for a in state_arrays(pipeline.merged())]

        with _leader(case) as leader:
            leader.ingest(*batches[0])
            leader.checkpoint()
            remember(leader)
            plan = [lambda: leader.delta_epochs[-1],   # full-checkpoint base
                    lambda: leader.delta_epochs[-1],   # previous delta's target
                    lambda: leader.delta_epochs[0],    # an older base
                    lambda: leader.delta_epochs[-1]]
            for (idx, dlt), since in zip(batches[1:], plan):
                leader.ingest(idx, dlt)
                base_epoch = since()
                frame = leader.checkpoint(since=base_epoch)
                remember(leader)
                folded = leader.merged()
                meta = {"format": FORMAT_VERSION,
                        "class": type(folded).__name__,
                        "params": params_of(folded),
                        "base_epoch": base_epoch,
                        "epoch": leader.updates_ingested}
                base = copies[base_epoch]
                now = copies[leader.updates_ingested]
                expected = encode_delta(meta, base, now, state_digest(base),
                                        state_digest(now))
                assert frame == expected


class TestDeltaErrors:

    def _base_and_chain(self, seed=5):
        batches = _batches(3, seed=seed)
        leader = ShardedPipeline(lambda: CountMin(N, buckets=16, rows=5),
                                 shards=2, chunk_size=64)
        with leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint()
            epochs = [leader.updates_ingested]
            chain = []
            for idx, dlt in batches[1:]:
                leader.ingest(idx, dlt)
                chain.append(leader.checkpoint(since=epochs[-1]))
                epochs.append(leader.updates_ingested)
        return base, chain

    def test_out_of_order_chain_rejected(self):
        base, chain = self._base_and_chain()
        with pytest.raises(OutOfOrderDelta):
            ShardedPipeline.restore(base, deltas=[chain[1]])
        with pytest.raises(OutOfOrderDelta):
            ShardedPipeline.restore(base, deltas=[chain[1], chain[0]])

    def test_repeated_delta_rejected(self):
        base, chain = self._base_and_chain()
        with pytest.raises(OutOfOrderDelta):
            ShardedPipeline.restore(base, deltas=[chain[0], chain[0]])

    def test_wrong_base_rejected(self):
        base, _ = self._base_and_chain(seed=5)
        other_base, other_chain = self._base_and_chain(seed=99)
        # same epochs (same batch sizes), different state bytes
        with pytest.raises(WrongBaseDelta):
            ShardedPipeline.restore(base, deltas=[other_chain[0]])

    def test_corrupted_delta_rejected(self):
        base, chain = self._base_and_chain()
        mangled = bytearray(chain[0])
        mangled[-1] ^= 0xFF
        with pytest.raises(DeltaError):
            ShardedPipeline.restore(base, deltas=[bytes(mangled)])

    def test_foreign_structure_delta_rejected(self):
        base, _ = self._base_and_chain()
        batches = _batches(2)
        with ShardedPipeline(lambda: CountSketch(N, m=6, rows=5),
                             shards=2, chunk_size=64) as other:
            other.ingest(*batches[0])
            other.checkpoint()
            epoch = other.updates_ingested
            other.ingest(*batches[1])
            foreign = other.checkpoint(since=epoch)
        with pytest.raises(DeltaError):
            ShardedPipeline.restore(base, deltas=[foreign])

    def test_non_delta_frame_in_chain_rejected(self):
        base, _ = self._base_and_chain()
        with pytest.raises(DeltaError):
            ShardedPipeline.restore(base, deltas=[base])


class TestFollower:

    def _stream(self, case, parts=4, shards=3):
        """(base blob, delta frames, leader merged bytes, final epoch)."""
        batches = _batches(parts)
        with _leader(case, shards=shards) as leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint()
            epoch = leader.updates_ingested
            chain = []
            for idx, dlt in batches[1:]:
                leader.ingest(idx, dlt)
                chain.append(leader.checkpoint(since=epoch))
                epoch = leader.updates_ingested
            return base, chain, _merged_bytes(leader), epoch

    @pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
    def test_follower_matches_leader_at_every_ack(self, case):
        base, chain, leader_bytes, final_epoch = self._stream(case)
        follower = FollowerPipeline(base)
        assert follower.follow(chain) == len(chain)
        assert follower.epoch == final_epoch
        assert snapshot_structure(follower.merged()) == leader_bytes

    @pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
    def test_promotion_equals_offline_pipeline(self, case):
        base, chain, leader_bytes, _ = self._stream(case)
        follower = FollowerPipeline(base)
        follower.follow(chain)
        with follower.promote(shards=2) as promoted:
            assert snapshot_structure(promoted.merged()) == leader_bytes
            # The promoted pipeline is live: it keeps ingesting.
            promoted.ingest(np.array([1], dtype=np.int64),
                            np.array([1], dtype=np.int64))

    def test_follow_is_idempotent(self):
        case = SHARDABLE[0]
        base, chain, leader_bytes, _ = self._stream(case)
        follower = FollowerPipeline(base)
        assert follower.follow(chain) == len(chain)
        assert follower.follow(chain) == 0          # re-read acked frames
        assert snapshot_structure(follower.merged()) == leader_bytes

    def test_strict_apply_rejects_gaps(self):
        base, chain, _, _ = self._stream(SHARDABLE[0])
        follower = FollowerPipeline(base)
        with pytest.raises(OutOfOrderDelta):
            follower.apply(chain[1])

    def test_follow_file_tails_partial_writes(self, tmp_path):
        base, chain, leader_bytes, final_epoch = self._stream(SHARDABLE[0])
        path = tmp_path / "stream.wire"
        path.write_bytes(chain[0] + chain[1][:9])   # mid-append tail
        follower = FollowerPipeline(base)
        applied, offset = follower.follow_file(path)
        assert applied == 1
        assert offset == len(chain[0])
        path.write_bytes(chain[0] + b"".join(chain[1:]))
        applied, offset = follower.follow_file(path, start=offset)
        assert applied == len(chain) - 1
        assert offset == path.stat().st_size
        assert follower.epoch == final_epoch
        assert snapshot_structure(follower.merged()) == leader_bytes

    def test_acked_epochs_recorded(self):
        base, chain, _, final_epoch = self._stream(SHARDABLE[0])
        follower = FollowerPipeline(base)
        follower.follow(chain)
        assert follower.acked_epochs[-1] == final_epoch
        assert len(follower.acked_epochs) == len(chain) + 1


class TestFollowerDecodesOnce:
    """Each delta frame is decoded (and inflated) once per apply, on
    every path that applies deltas, and the typed errors survive."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        import repro.engine.delta as delta_module

        calls = []
        real = delta_module.decode_frame

        def counting(blob, *args, **kwargs):
            calls.append(len(blob))
            return real(blob, *args, **kwargs)

        monkeypatch.setattr(delta_module, "decode_frame", counting)
        return calls

    def test_one_decode_per_applied_delta(self, decodes):
        base, chain, leader_bytes, _ = TestFollower()._stream(
            SHARDABLE[0], parts=5)
        follower = FollowerPipeline(base)
        assert decodes == []
        follower.apply(chain[0])
        assert len(decodes) == 1
        decodes.clear()
        # follow() skips the acked frame: still one decode per frame.
        assert follower.follow(chain) == len(chain) - 1
        assert len(decodes) == len(chain)
        assert snapshot_structure(follower.merged()) == leader_bytes
        decodes.clear()
        with ShardedPipeline.restore(base, deltas=chain) as restored:
            assert _merged_bytes(restored) == leader_bytes
        assert len(decodes) == len(chain)

    def test_typed_errors_survive(self, decodes):
        from repro.wire import decode_frame, encode_frame

        base, chain = TestDeltaErrors()._base_and_chain(seed=5)
        other_base, _ = TestDeltaErrors()._base_and_chain(seed=99)
        with pytest.raises(OutOfOrderDelta):
            FollowerPipeline(base).apply(chain[1])
        with pytest.raises(WrongBaseDelta):      # same epochs, other state
            FollowerPipeline(other_base).follow(chain[:1])
        # A well-formed frame whose payload was altered: decodes fine,
        # fails the target digest.
        frame = decode_frame(chain[0])
        sections = [np.array(section) for section in frame.sections]
        sections[0].reshape(-1)[0] ^= 1
        forged = encode_frame(frame.kind, frame.header, sections,
                              compress="zlib")
        with pytest.raises(DeltaError, match="digest does not match"):
            FollowerPipeline(base).apply(forged)


class TestFollowerCachedDigest:
    """The follower hashes its state once per delta (to verify the
    target); the base check reuses the previous apply's digest and
    still rejects wrong-base and corrupted frames."""

    @pytest.fixture
    def digests(self, monkeypatch):
        import repro.engine.delta as delta_module

        calls = []
        real = delta_module.state_digest

        def counting(arrays):
            calls.append(1)
            return real(arrays)

        monkeypatch.setattr(delta_module, "state_digest", counting)
        return calls

    def test_one_hash_per_apply_after_the_first(self, digests):
        base, chain, leader_bytes, _ = TestFollower()._stream(
            SHARDABLE[0], parts=5)
        follower = FollowerPipeline(base)
        follower.apply(chain[0])
        assert len(digests) == 2          # boot state unhashed: base + target
        digests.clear()
        assert follower.follow(chain[1:]) == len(chain) - 1
        assert len(digests) == len(chain) - 1
        assert snapshot_structure(follower.merged()) == leader_bytes

    def test_cached_digest_rejects_wrong_base(self, digests):
        base, chain = TestDeltaErrors()._base_and_chain(seed=5)
        _, other_chain = TestDeltaErrors()._base_and_chain(seed=99)
        follower = FollowerPipeline(base)
        follower.apply(chain[0])
        digests.clear()
        # Same epochs, another stream's state: caught on the cached
        # digest alone, before any hashing.
        with pytest.raises(WrongBaseDelta):
            follower.apply(other_chain[1])
        assert digests == []
        assert follower.apply(chain[1]) == follower.epoch

    def test_cached_digest_rejects_corrupted_frame(self):
        from repro.wire import decode_frame, encode_frame

        base, chain = TestDeltaErrors()._base_and_chain(seed=5)
        follower = FollowerPipeline(base)
        follower.apply(chain[0])
        before = snapshot_structure(follower.merged())
        frame = decode_frame(chain[1])
        sections = [np.array(section) for section in frame.sections]
        sections[0].reshape(-1)[0] ^= 1
        forged = encode_frame(frame.kind, frame.header, sections,
                              compress="zlib")
        with pytest.raises(DeltaError, match="digest does not match"):
            follower.apply(forged)
        # The failed apply left both the state and its cached digest
        # alone: the genuine frame still chains on.
        assert snapshot_structure(follower.merged()) == before
        follower.apply(chain[1])
        with ShardedPipeline.restore(base, deltas=chain) as restored:
            assert snapshot_structure(follower.merged()) \
                == _merged_bytes(restored)


class TestDeltaProcessBackend:
    """Delta restore and promotion under the process backend (runs in
    the CI worker lane; deselected from the fast lane)."""

    def test_chain_restores_into_process_backend(self):
        batches = _batches(2)
        with ShardedPipeline(lambda: CountMin(N, buckets=16, rows=5),
                             shards=2, chunk_size=64) as leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint()
            epoch = leader.updates_ingested
            leader.ingest(*batches[1])
            delta = leader.checkpoint(since=epoch)
            expect = _merged_bytes(leader)
        with ShardedPipeline.restore(base, backend="process",
                                     deltas=[delta]) as restored:
            assert _merged_bytes(restored) == expect

    def test_follower_promotes_to_process_backend(self):
        batches = _batches(2)
        with ShardedPipeline(lambda: CountMin(N, buckets=16, rows=5),
                             shards=2, chunk_size=64) as leader:
            leader.ingest(*batches[0])
            base = leader.checkpoint()
            epoch = leader.updates_ingested
            leader.ingest(*batches[1])
            delta = leader.checkpoint(since=epoch)
            expect = _merged_bytes(leader)
        follower = FollowerPipeline(base)
        follower.follow([delta])
        with follower.promote(backend="process", shards=2) as promoted:
            assert _merged_bytes(promoted) == expect
