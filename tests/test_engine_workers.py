"""The execution-backend layer: process workers vs the serial reference.

The load-bearing property: for every shardable registered type, a
``backend="process"`` pipeline produces *byte-identical* merged state
to the ``backend="serial"`` pipeline (same routing, same chunk
boundaries, bit-exact checkpoint transport — even float state sees the
identical operation sequence), which in turn equals the
single-instance run exactly for integer-state structures.  Plus the
lifecycle contract: checkpoints interoperate across backends, close()
is graceful and idempotent, and a dead worker raises
:class:`WorkerCrashed` instead of hanging.
"""

import numpy as np
import pytest

from repro.core import L0Sampler
from repro.engine import (IncompatibleShards, ShardedPipeline,
                          WorkerCrashed, checkpoint, state_arrays)

from _engine_cases import (SHARDABLE, SHARDABLE_IDS, EngineCase,
                           random_turnstile, states_equal)


def _pipeline(case: EngineCase, backend: str, universe=128, shards=3,
              chunk=32, seed=5, partition="hash") -> ShardedPipeline:
    return ShardedPipeline(lambda: case.factory(universe, seed),
                           shards=shards, partition=partition,
                           chunk_size=chunk, backend=backend)


@pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
class TestProcessMatchesSerial:
    def test_merged_state_identical_across_backends(self, case):
        """process == serial == single instance, for every shardable
        registered type (byte-identical between backends; exactness vs
        the single run per the registry's own claim)."""
        universe, chunk = 128, 32
        indices, deltas = random_turnstile(universe, 4 * chunk, 11)

        single = case.factory(universe, 5)
        single.update_many(indices, deltas)

        serial = _pipeline(case, "serial")
        serial.ingest(indices, deltas)

        with _pipeline(case, "process") as process:
            process.ingest(indices, deltas)
            merged_process = process.merged()

        merged_serial = serial.merged()
        # Same routing, same chunks, bit-exact transport: the backends
        # must agree to the last bit even for float-state structures.
        assert states_equal(merged_serial, merged_process, exact=True)
        assert states_equal(single, merged_process, case.exact)

    def test_checkpoints_interoperate_across_backends(self, case):
        """A blob written under one backend resumes under the other and
        finishes byte-identical to the uninterrupted serial run."""
        universe, chunk = 128, 32
        indices, deltas = random_turnstile(universe, 4 * chunk, 3)
        split = 2 * chunk

        plain = _pipeline(case, "serial", seed=9)
        plain.ingest(indices, deltas)

        with _pipeline(case, "process", seed=9) as first:
            first.ingest(indices[:split], deltas[:split])
            blob = first.checkpoint()
        resumed = ShardedPipeline.restore(blob, backend="serial")
        assert resumed.backend == "serial"
        assert resumed.updates_ingested == split
        resumed.ingest(indices[split:], deltas[split:])
        assert states_equal(plain.merged(), resumed.merged(), exact=True)

        serial_start = _pipeline(case, "serial", seed=9)
        serial_start.ingest(indices[:split], deltas[:split])
        with ShardedPipeline.restore(serial_start.checkpoint(),
                                     backend="process") as other_way:
            assert other_way.backend == "process"
            other_way.ingest(indices[split:], deltas[split:])
            assert states_equal(plain.merged(), other_way.merged(),
                                exact=True)


class TestLifecycle:
    FACTORY = staticmethod(lambda: L0Sampler(64, delta=0.2, seed=1))

    def test_context_manager_closes(self):
        with ShardedPipeline(self.FACTORY, shards=2,
                             backend="process") as pipeline:
            pipeline.ingest([1, 2, 3], [1, -1, 2])
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.ingest([1], [1])
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.checkpoint()

    def test_close_is_idempotent_and_workers_exit(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2,
                                   backend="process")
        workers = [worker.process for worker in pipeline._pool._workers]
        pipeline.close()
        pipeline.close()
        assert all(not process.is_alive() for process in workers)
        assert all(process.exitcode == 0 for process in workers)

    def test_close_with_backlogged_queue_still_graceful(self):
        """close() right after a large ingest: the workers drain their
        backlog, receive the stop message, and exit cleanly — no
        SIGTERM for a merely busy worker."""
        indices, deltas = random_turnstile(64, 6000, 13)
        pipeline = ShardedPipeline(self.FACTORY, shards=2, chunk_size=64,
                                   backend="process")
        workers = [worker.process for worker in pipeline._pool._workers]
        pipeline.ingest(indices, deltas)   # no flush: queues backlogged
        pipeline.close()
        assert all(process.exitcode == 0 for process in workers)

    def test_serial_close_also_finalizes(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        pipeline.close()
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.merged()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ShardedPipeline(self.FACTORY, shards=2, backend="threads")
        blob = ShardedPipeline(self.FACTORY, shards=2).checkpoint()
        with pytest.raises(ValueError, match="backend"):
            ShardedPipeline.restore(blob, backend="threads")

    def test_mismatched_shard_blob_rejected_under_both_backends(self):
        """A pipeline blob whose shard blobs carry different maps must
        be rejected at restore time — under the process backend this
        happens from the blob headers alone, before workers touch it."""
        from repro.wire import KIND_PIPELINE, decode_frame, encode_frame

        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        blob = pipeline.checkpoint()
        alien = checkpoint(L0Sampler(64, delta=0.2, seed=99))
        frame = decode_frame(blob, expect_kind=KIND_PIPELINE)
        tampered = encode_frame(
            KIND_PIPELINE, frame.header,
            [frame.sections[0], np.frombuffer(alien, dtype=np.uint8)])
        for backend in ("serial", "process"):
            with pytest.raises(IncompatibleShards, match="seed|map"):
                ShardedPipeline.restore(tampered, backend=backend)

    def test_flush_is_a_barrier(self):
        indices, deltas = random_turnstile(64, 400, 7)
        single = L0Sampler(64, delta=0.2, seed=1)
        single.update_many(indices, deltas)
        with ShardedPipeline(self.FACTORY, shards=2, chunk_size=16,
                             backend="process") as pipeline:
            pipeline.ingest(indices, deltas)
            pipeline.flush()
            # post-flush snapshots must already hold every update
            merged = pipeline.merged()
            assert states_equal(single, merged, exact=True)


@pytest.mark.parametrize("shards", [2, 3], ids=lambda k: f"K{k}")
class TestMergedIsIdempotentUnderProcessBackend:
    """merged() consumes worker snapshot *copies*; two consecutive
    calls, and a merged() followed by more ingestion, must leave the
    workers' live state untouched (regression companion to the serial
    suite in test_engine_properties.py)."""

    FACTORY = staticmethod(lambda: L0Sampler(96, delta=0.2, seed=6))

    def test_repeated_merged_and_continue(self, shards):
        single = self.FACTORY()
        indices, deltas = random_turnstile(96, 64, 21)
        single.update_many(indices, deltas)
        with ShardedPipeline(self.FACTORY, shards=shards, chunk_size=16,
                             backend="process") as pipeline:
            pipeline.ingest(indices[:32], deltas[:32])
            first = state_arrays(pipeline.merged())
            second = state_arrays(pipeline.merged())
            assert all(np.array_equal(a, b)
                       for a, b in zip(first, second))
            pipeline.ingest(indices[32:], deltas[32:])
            merged = pipeline.merged()
        assert states_equal(single, merged, exact=True)


class TestLevelIndexBuiltOncePerPipeline:
    def test_every_epoch_reuses_the_first_decodes_index(self, monkeypatch):
        """Each process-backend ``merged()`` restores new twins from the
        worker snapshots; their decodes find the L0 level index of the
        pipeline's map instead of rebuilding it per epoch."""
        import repro.core.l0_sampler as l0_module

        monkeypatch.setattr(l0_module, "_LEVEL_INDEXES",
                            l0_module.OrderedDict())
        builds = []
        real = L0Sampler._build_level_index
        monkeypatch.setattr(L0Sampler, "_build_level_index",
                            lambda self: builds.append(1) or real(self))
        indices, deltas = random_turnstile(512, 200, 3)
        single = L0Sampler(512, delta=0.2, seed=6)
        single.update_many(indices, deltas)
        with ShardedPipeline(lambda: L0Sampler(512, delta=0.2, seed=6),
                             shards=2, chunk_size=50,
                             backend="process") as pipeline:
            for lo in (0, 100):
                pipeline.ingest(indices[lo:lo + 100], deltas[lo:lo + 100])
                pipeline.merged().sample(count=2)
            assert len(builds) == 1
            assert checkpoint(pipeline.merged()) == checkpoint(single)


class TestWorkerCrash:
    FACTORY = staticmethod(lambda: L0Sampler(64, delta=0.2, seed=1))

    def test_killed_worker_raises_not_hangs(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2,
                                   backend="process")
        try:
            pipeline.ingest([1, 2, 3, 4], [1, 1, 1, 1])
            pipeline.flush()
            victim = pipeline._pool._workers[0].process
            victim.terminate()
            victim.join(10)
            with pytest.raises(WorkerCrashed, match="died"):
                pipeline.flush()
            # the pipeline is poisoned: no checkpoint can be taken that
            # would misreport the dead worker's lost state
            with pytest.raises(WorkerCrashed):
                pipeline.checkpoint()
            with pytest.raises(WorkerCrashed):
                pipeline.ingest([1], [1])
        finally:
            pipeline.close()       # close after a crash must not raise

    def test_worker_exception_ships_the_traceback(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2,
                                   backend="process")
        try:
            # mismatched shapes blow up inside the worker's update_many
            pipeline._pool._workers[0].inbox.put(
                ("ingest", np.arange(4), np.arange(3)))
            with pytest.raises(WorkerCrashed, match="Traceback"):
                pipeline.flush()
        finally:
            pipeline.close()


class TestUpdateCounterHonesty:
    """`updates_ingested` advances per applied chunk, never past a
    failure — so checkpoints after a partial ingest tell the truth."""

    def test_counter_stops_at_last_complete_chunk(self):
        # round_robin: exactly one submit per chunk, so the failure
        # point is deterministic — chunk 1 applies, chunk 2 raises
        pipeline = ShardedPipeline(lambda: L0Sampler(64, delta=0.2,
                                                     seed=1),
                                   shards=2, chunk_size=4,
                                   partition="round_robin")
        calls = {"n": 0}
        original = pipeline._pool.submit

        def failing_submit(shard, idx, dlt):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated mid-batch failure")
            original(shard, idx, dlt)

        pipeline._pool.submit = failing_submit
        with pytest.raises(RuntimeError, match="mid-batch"):
            pipeline.ingest(np.arange(8), np.ones(8, dtype=np.int64))
        # only the chunk that fully applied is counted ...
        assert pipeline.updates_ingested == 4
        # ... and the pipeline is poisoned: the failed chunk may have
        # partially mutated a shard, so no checkpoint may claim it
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.checkpoint()

    def test_partial_hash_fanout_poisons_checkpoint(self):
        """Under hash partitioning one chunk fans out to K shards; if
        that fails partway some shards hold the chunk and others do
        not — checkpoint() must refuse rather than snapshot the lie."""
        pipeline = ShardedPipeline(lambda: L0Sampler(64, delta=0.2,
                                                     seed=1),
                                   shards=2, chunk_size=8,
                                   partition="hash")
        original = pipeline._pool.submit
        calls = {"n": 0}

        def failing_submit(shard, idx, dlt):
            calls["n"] += 1
            if calls["n"] >= 2:    # second shard of the same chunk
                raise RuntimeError("fan-out interrupted")
            original(shard, idx, dlt)

        pipeline._pool.submit = failing_submit
        # indices 0..7 mix onto both shards, so the chunk fans out twice
        with pytest.raises(RuntimeError, match="interrupted"):
            pipeline.ingest(np.arange(8), np.ones(8, dtype=np.int64))
        assert calls["n"] == 2
        assert pipeline.updates_ingested == 0
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.checkpoint()
        # merged() and shard_instances would serve the same torn
        # state; further ingestion could never repair it
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.merged()
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.shard_instances
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.ingest([1], [1])
        pipeline._pool.submit = original
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.checkpoint()  # poisoning is permanent

    def test_pre_failure_checkpoint_remains_an_honest_resume_point(self):
        pipeline = ShardedPipeline(lambda: L0Sampler(64, delta=0.2,
                                                     seed=1),
                                   shards=1, chunk_size=4)
        pipeline.ingest(np.arange(4), np.ones(4, dtype=np.int64))
        blob = pipeline.checkpoint()   # clean chunk boundary

        def failing_submit(shard, idx, dlt):
            raise RuntimeError("boom")

        pipeline._pool.submit = failing_submit
        with pytest.raises(RuntimeError, match="boom"):
            pipeline.ingest(np.arange(8), np.ones(8, dtype=np.int64))
        assert pipeline.updates_ingested == 4   # counter did not lie
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.checkpoint()               # poisoned from here on
        # the snapshot taken before the failure restores and resumes
        restored = ShardedPipeline.restore(blob)
        assert restored.updates_ingested == 4
        restored.ingest(np.arange(4), np.ones(4, dtype=np.int64))
        assert restored.updates_ingested == 8


class TestDeltaRangeGuards:
    """uint64 >= 2^63 passed the old ``kind in 'iu'`` check and wrapped
    negative under ``astype(np.int64)``; now it raises."""

    FACTORY = staticmethod(lambda: L0Sampler(64, delta=0.2, seed=1))

    def test_uint64_delta_overflow_rejected(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        huge = np.array([1, 2 ** 63], dtype=np.uint64)
        with pytest.raises(ValueError, match="wrap"):
            pipeline.ingest([1, 2], huge)
        assert pipeline.updates_ingested == 0

    def test_uint64_index_overflow_rejected(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        huge = np.array([1, 2 ** 63 + 5], dtype=np.uint64)
        with pytest.raises(ValueError, match="wrap"):
            pipeline.ingest(huge, [1, 1])

    def test_small_uint64_still_accepted(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        small = np.array([3, 7], dtype=np.uint64)
        assert pipeline.ingest(small, small) == 2
        assert pipeline.updates_ingested == 2

    def test_stream_path_cannot_smuggle_wrapped_deltas(self):
        """`ingest_stream` trusts UpdateStream's arrays, so the wrap
        guard must live in UpdateStream itself — a uint64 >= 2^63
        delta is rejected at stream construction, closing the same
        hole on the second ingestion entry point."""
        from repro.streams.model import UpdateStream

        with pytest.raises(ValueError, match="wrap"):
            UpdateStream(64, np.array([5], dtype=np.uint64),
                         np.array([2 ** 63], dtype=np.uint64))
        with pytest.raises(ValueError, match="int64"):
            UpdateStream(64, np.array([5]), np.array([2.0 ** 63]))
        # in-range uint64 still constructs
        stream = UpdateStream(64, np.array([5], dtype=np.uint64),
                              np.array([3], dtype=np.uint64))
        pipeline = ShardedPipeline(self.FACTORY, shards=2, chunk_size=4)
        assert pipeline.ingest_stream(stream) == 1

    def test_huge_float_delta_rejected(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        with pytest.raises(ValueError, match="int64"):
            pipeline.ingest([1], np.array([1e30]))

    def test_fractional_float_indices_rejected(self):
        """Truncating 1.5 -> coordinate 1 silently is the same
        corruption class as the delta guards close; indices get the
        integral check too."""
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        with pytest.raises(ValueError, match="integral"):
            pipeline.ingest(np.array([1.5]), [1])
        # integral float indices remain fine (producer artefact)
        assert pipeline.ingest(np.array([2.0, 3.0]), [1, 1]) == 2

    def test_float_exactly_2_63_rejected(self):
        """float64 2^63 slips past a `<= iinfo(int64).max` comparison
        (the bound promotes to float 2^63) and wraps to INT64_MIN
        under astype; the guard must be a strict `< 2^63`."""
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        with pytest.raises(ValueError, match="int64"):
            pipeline.ingest([1], np.array([2.0 ** 63]))
        with pytest.raises(ValueError, match="int64"):
            pipeline.ingest(np.array([2.0 ** 63]), [1])
