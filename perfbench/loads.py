"""The load generator: one load per workload, all against one daemon.

Every load is a closed loop: one connection sends the next request only
once the previous one has been answered.  A load connects (at most two
connections, the second being ``l0-turnstile``'s follower), does the
workload's warm or baseline load, measures for a fixed number of seconds
and then runs the correctness gates.  Every request attempted in the
timed window is counted; a request that errors or times out counts as
failed and takes the client timeout as its latency, so it misses any
latency limit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cli import _service_structures
from repro.engine import FollowerPipeline, ShardedPipeline
from repro.engine import checkpoint as structure_blob
from repro.net import NetError, ReproClient, SocketFollower
from repro.net.protocol import ProtocolError, to_jsonable

import workloads
from tracing import Recorder

CLIENT_TIMEOUT_S = 30.0

#: First request id of the load's connection, so a request id names one
#: request across the daemon's spans and the generator's.
INGEST_IDS = 1_000_001

_REQUEST_ERRORS = (NetError, ProtocolError, ConnectionError, TimeoutError,
                   OSError)


@dataclass
class Phase:
    """What one timed window measured."""

    ingest_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    lag_s: list = field(default_factory=list)
    updates: int = 0
    elapsed_s: float = 0.0
    window_ns: tuple = (0, 0)
    attempted: int = 0
    failed: int = 0
    sampler_answers: int = 0
    sampler_failures: int = 0
    resyncs: int = 0
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    rss_mb: float = 0.0


def _connect(daemon, first_id: int) -> ReproClient:
    client = ReproClient(daemon.host, daemon.port, timeout=CLIENT_TIMEOUT_S,
                         client_id=f"perfbench{first_id}")
    client._next_id = first_id       # no public knob for the id base
    return client


class Load:
    """Shared plumbing: request accounting and the library oracle."""

    def __init__(self, spec, seed: int, daemon):
        self.spec = spec
        self.seed = seed
        self.daemon = daemon
        self.phase = Phase()
        self.acked: list = []        # ingest batches in ack order
        self.epoch = 0
        self._lock = threading.Lock()

    def _request(self, fn, *args, **kwargs):
        """``(reply or None, seconds)`` with the attempt counted."""
        start = time.perf_counter()
        try:
            reply = fn(*args, **kwargs)
        except _REQUEST_ERRORS:
            reply, seconds = None, CLIENT_TIMEOUT_S
        else:
            seconds = time.perf_counter() - start
        with self._lock:
            self.phase.attempted += 1
            self.phase.failed += reply is None
        self.last_done = time.perf_counter()
        return reply, seconds

    def _ingest(self, client, batch):
        """One ingest; an ack must advance the epoch by the batch size
        (one ingest connection, so acks form the whole total order)."""
        reply, seconds = self._request(client.ingest, *batch)
        if reply is not None:
            expected = self.epoch + len(batch[0])
            if reply.result["epoch"] != expected:
                self.phase.violations.append(
                    f"ingest acked epoch {reply.result['epoch']}, "
                    f"expected {expected}")
            self.epoch = reply.result["epoch"]
            self.acked.append(batch)
        return reply, seconds

    def _library_pipeline(self) -> ShardedPipeline:
        factories, _ = _service_structures(self.spec.universe, 0)
        return ShardedPipeline(factories[self.spec.structure],
                               shards=workloads.SHARDS, chunk_size=4096,
                               backend="serial")

    def _check_final(self, client) -> bytes | None:
        """The daemon's checkpoint must equal a library pipeline fed
        the same acked batches in ack order."""
        blob, _ = self._request(client.checkpoint)
        stats, _ = self._request(client.stats)
        self.phase.stats = stats or {}
        if blob is None:
            self.phase.violations.append("checkpoint request failed")
            return None
        with self._library_pipeline() as oracle:
            self.replay(oracle)
            if blob != oracle.checkpoint():
                self.phase.violations.append(
                    "daemon checkpoint differs from the library pipeline "
                    "fed the same acked batches")
        return blob

    def replay(self, oracle: ShardedPipeline) -> None:
        for batch in self.acked:
            oracle.ingest(*batch)

    def _rss(self) -> None:
        self.phase.rss_mb = self.daemon.peak_rss_mb()


class _ClosedLoop(Load):
    """One connection sends a fixed batch sequence back to back, with a
    round of queries after every ``query_every``-th batch."""

    query_every: int

    def measure(self, seconds: float) -> Phase:
        phase = self.phase = Phase(violations=self.phase.violations)
        start = self.last_done = time.perf_counter()
        start_ns = time.perf_counter_ns()
        sent = 0
        while self.last_done < start + seconds:
            batch = self.generator.next()
            phase.late_s.append(time.perf_counter() - self.last_done)
            reply, latency = self._ingest(self.client, batch)
            phase.ingest_s.append(latency)
            if reply is not None:
                phase.updates += len(batch[0])
                self.after_ack(batch)
            sent += 1
            if sent % self.query_every == 0:
                self.query_round()
        phase.elapsed_s = self.last_done - start
        phase.window_ns = (start_ns, time.perf_counter_ns())
        self._rss()
        return phase

    def after_ack(self, batch) -> None:
        """Book an acked batch in the generator's own exact state."""

    def warm(self, batches: int) -> None:
        """Warm batches, then one round of queries: its answers seed the
        cache that prewarm carries from epoch to epoch, so the timed
        window starts in steady state."""
        for _ in range(batches):
            batch = self.generator.next()
            if self._ingest(self.client, batch)[0] is not None:
                self.after_ack(batch)
        self.query_round()

    def _sampler(self, op: str, **args):
        reply, seconds = self._request(self.client.query, op, **args)
        self.phase.query_s.append(seconds)
        if reply is not None and reply.epoch != self.epoch:
            self.phase.violations.append(
                f"{op} answered at epoch {reply.epoch}, last ack "
                f"{self.epoch}")
        return reply


class L0Turnstile(_ClosedLoop):
    """Closed-loop turnstile batches, ``sample_l0`` checks against the
    exact vector, and a live ``SocketFollower`` on a second connection."""

    query_every = workloads.L0_QUERY_EVERY

    def setup(self) -> None:
        self.client = _connect(self.daemon, INGEST_IDS)
        self.follower = SocketFollower(self.daemon.host, self.daemon.port,
                                       timeout=CLIENT_TIMEOUT_S)
        self.generator = workloads.TurnstileBatches(self.seed,
                                                    self.spec.universe)
        self.x = np.zeros(self.spec.universe, dtype=np.int64)
        self.acks: list = []            # (epoch, ack time)
        self.reached: list = []         # (follower epoch, time)
        self.progress: threading.Condition | None = None
        self.warm(2)

    def after_ack(self, batch) -> None:
        np.add.at(self.x, *batch)
        self.acks.append((self.epoch, self.last_done))

    def query_round(self) -> None:
        if self.progress is not None:
            # Ask once the follower holds the acked epoch: its delta
            # apply would otherwise hold this process's GIL while the
            # reply is read, timing the generator instead of the daemon.
            with self.progress:
                self.progress.wait_for(
                    lambda: self.follower.epoch >= self.epoch,
                    timeout=CLIENT_TIMEOUT_S)
        reply = self._sampler("sample_l0", count=workloads.L0_SAMPLES)
        if reply is None:
            return
        for answer in reply.result:
            self.phase.sampler_answers += 1
            if answer["failed"]:
                self.phase.sampler_failures += 1
                continue
            index, value = answer["index"], answer["estimate"]
            if self.x[index] == 0 or value != self.x[index]:
                self.phase.violations.append(
                    f"sample_l0 returned x[{index}]={value}, exact "
                    f"value {int(self.x[index])}")

    def measure(self, seconds: float) -> Phase:
        """The closed loop, with the follower tailing in a thread; each
        applied delta's arrival time is recorded for the lag."""
        recorder = Recorder()
        follow = FollowerPipeline.follow
        reached = self.reached
        progress = self.progress = threading.Condition()

        def timed_follow(pipeline, frames):
            applied = follow(pipeline, frames)
            reached.append((pipeline.epoch, time.perf_counter()))
            with progress:
                progress.notify_all()
            return applied

        recorder.patch(FollowerPipeline, "follow", timed_follow)
        self.acks.clear()
        stop = threading.Event()
        errors: list = []

        def tail() -> None:
            try:
                while not stop.is_set():
                    self.follower.poll(timeout=0.05)
            except Exception as exc:     # reported as a gate failure
                errors.append(exc)

        thread = threading.Thread(target=tail, name="perfbench-follower")
        thread.start()
        try:
            phase = super().measure(seconds)
        finally:
            stop.set()
            thread.join(timeout=CLIENT_TIMEOUT_S)
            self.progress = None
        try:
            if errors:
                phase.violations.append(f"follower failed: {errors[0]!r}")
            else:
                self.follower.wait_for_epoch(self.epoch,
                                             timeout=CLIENT_TIMEOUT_S)
        finally:
            recorder.unpatch()
        phase.resyncs = self.follower.resyncs
        phase.lag_s = _lags(self.acks, reached)
        return phase

    def replay(self, oracle: ShardedPipeline) -> None:
        """Feed the acked batches' sum, the exact vector x.  The L0
        sampler's state is linear over GF(p) and hash partitioning keeps
        each coordinate on one shard, so the shard states must still match
        byte for byte; the sum keeps this gate near a second instead of
        half the run.  The oracle's update count is the acked epoch."""
        support = np.flatnonzero(self.x)
        oracle.ingest(support, self.x[support])
        oracle.updates_ingested = self.epoch

    def verify(self) -> None:
        blob = self._check_final(self.client)
        if blob is None:
            return
        with ShardedPipeline.restore(blob) as leader:
            if (structure_blob(leader.merged())
                    != structure_blob(self.follower.merged())):
                self.phase.violations.append(
                    "follower state differs from the daemon checkpoint")
        if self.follower.resyncs:
            self.phase.violations.append(
                f"follower resynced {self.follower.resyncs} times in a "
                f"calm run")

    def close(self) -> None:
        self.follower.close()
        self.client.close()


def _lags(acks: list, reached: list) -> list:
    """Seconds from each ack to the follower first holding its epoch
    (negative when the delta beat the ack to the generator)."""
    lags = []
    position = 0
    for epoch, acked_at in acks:
        while position < len(reached) and reached[position][0] < epoch:
            position += 1
        if position == len(reached):
            break
        lags.append(reached[position][1] - acked_at)
    return lags


class DuplicatesL1(_ClosedLoop):
    """Theorem 3 through the serving path: a -1 baseline over every
    letter, then uniform letters; a positive ``sample_lp`` answer must
    name a letter the exact recount shows repeated."""

    query_every = workloads.L1_QUERY_EVERY

    def setup(self) -> None:
        self.client = _connect(self.daemon, INGEST_IDS)
        self.generator = workloads.LetterBatches(self.seed,
                                                 self.spec.universe)
        self.counts = np.zeros(self.spec.universe, dtype=np.int64)
        self._ingest(self.client,
                     workloads.LetterBatches.baseline(self.spec.universe))
        self.warm(1)

    def after_ack(self, batch) -> None:
        np.add.at(self.counts, *batch)

    def query_round(self) -> None:
        reply = self._sampler("sample_lp")
        if reply is None:
            return
        answer = reply.result
        self.phase.sampler_answers += 1
        if answer["failed"] or answer["estimate"] <= 0:
            self.phase.sampler_failures += 1
            return
        if self.counts[answer["index"]] < 2:
            self.phase.violations.append(
                f"sample_lp named letter {answer['index']} as a "
                f"duplicate; it occurred {self.counts[answer['index']]} "
                f"times")

    def verify(self) -> None:
        self._check_final(self.client)

    def close(self) -> None:
        self.client.close()


class DashboardMix(_ClosedLoop):
    """One connection, closed loop: a 64-update ingest batch, then
    ``DASH_QUERIES_PER_BATCH`` point/top queries, back to back.  Each
    answer is kept with the epoch it was answered at and checked
    against the library at the end."""

    query_every = 1

    def setup(self) -> None:
        self.client = _connect(self.daemon, INGEST_IDS)
        self.generator = workloads.Dashboard(self.seed, self.spec.universe)
        self.answers: list = []          # (epoch, op, args, result)
        self._ingest(self.client, self.generator.warm_batch())
        self.warm(1)

    def query_round(self) -> None:
        for _ in range(workloads.DASH_QUERIES_PER_BATCH):
            op, args = self.generator.query()
            reply, seconds = self._request(self.client.query, op, **args)
            self.phase.query_s.append(seconds)
            if reply is not None:
                self.answers.append((reply.epoch, op, args, reply.result))

    def replay(self, oracle: ShardedPipeline) -> None:
        """Feed the acked batches and, at every epoch a query was
        answered at, recompute those answers from the library's merged
        state: they must match the daemon's exactly.  The batches between
        two such epochs go in as one concatenated ingest, which leaves
        the same state (the sketch is linear) in far fewer calls."""
        pending: dict = {}
        for epoch, op, args, result in self.answers:
            pending.setdefault(epoch, []).append((op, args, result))
        epoch = 0
        run: list = []
        for batch in [None, *self.acked]:
            if batch is not None:
                run.append(batch)
                epoch += len(batch[0])
            answered = pending.pop(epoch, ())
            if not answered:
                continue
            if run:
                oracle.ingest(np.concatenate([b[0] for b in run]),
                              np.concatenate([b[1] for b in run]))
                run = []
            merged = oracle.merged()
            top = None
            for op, args, result in answered:
                if op == "point":
                    expected = float(merged.estimate(args["index"]))
                else:
                    if top is None:
                        top = to_jsonable(merged.best_sparse_approximation())
                    expected = top
                if result != expected:
                    self.phase.violations.append(
                        f"{op}({args}) at epoch {epoch} differs from the "
                        f"library's answer")
        if run:
            oracle.ingest(np.concatenate([b[0] for b in run]),
                          np.concatenate([b[1] for b in run]))
        if pending:
            self.phase.violations.append(
                f"queries answered at epochs no ingest ack produced: "
                f"{sorted(pending)[:5]}")

    def verify(self) -> None:
        self._check_final(self.client)

    def close(self) -> None:
        self.client.close()


LOADS = {
    "l0-turnstile": L0Turnstile,
    "duplicates-l1": DuplicatesL1,
    "dashboard-mix": DashboardMix,
}
