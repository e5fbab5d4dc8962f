"""The asyncio daemon: one :class:`QueryService` behind a socket.

:class:`ReproServer` is deliberately a *shell*: every byte of state it
serves lives in the :class:`~repro.service.service.QueryService` it
wraps, and every blob it sends is one the library already produces —
responses are protocol envelopes, replication messages are the
pipeline's own ``checkpoint(since=...)`` delta frames.

Concurrency model
-----------------
One event loop, one service lock.  Each connection gets a reader task
(decode frames, execute requests) and a writer ("pump") task draining
a bounded :class:`asyncio.Queue` — the per-connection backpressure
boundary: when a client stops reading, its queue fills, its handler
blocks on ``put`` and stops reading *that* socket; everyone else keeps
being served.  All service access is serialized under one
:class:`asyncio.Lock`, so a request is atomic against every other
request — which is exactly what makes the epochs in ingest acks a
total order an offline oracle can replay.

Ack first, then turn the epoch over: an ingest is acked as soon as its
batch is applied and flushed, and the epoch turnover — the snapshot
capture (with its cache prewarm), then the delta broadcast — runs
right after the ack is on the socket, under the same lock and before
any other request is served.  The client does not wait for the
turnover, and nothing else moves: acks form a total order, ``at=E``
works for every later request on any connection, and a turnover
failure is counted in ``stats.errors`` rather than answered (the ack,
and its dedup entry, already exist).  A failed capture is retried by
the next query's capture or, at the latest, before the next ingest is
applied; only if that retry fails as well is the epoch never
queryable with ``at=``.

Replication invariant: while subscribers exist, *every* epoch advance
broadcasts one delta frame under the same lock that applied it, so the
delta chain has no gaps and a new subscriber's full base checkpoint is
always a node of that chain.  Epoch E's delta follows E's ack, so a
follower waiting for an acked epoch uses ``wait_for_epoch``.  A
subscriber too slow to drain its queue is disconnected (it can
resubscribe from a fresh base) rather than allowed to stall ingestion.

Shutdown (SIGTERM via :meth:`request_shutdown`): stop accepting, let
connections finish the requests they have already received (up to
``drain_timeout``), cancel stragglers, flush the pipeline and write a
final full checkpoint frame to ``checkpoint_out``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..faults import ACK_DELAY, DELTA_TRUNCATE, NO_FAULTS
from ..wire import WireError
from .protocol import (FrameDecoder, ProtocolError, decode_request,
                       encode_error, encode_event, encode_response,
                       to_jsonable)

#: Ops the server answers itself (everything else goes to the query
#: algebra, whose registry rejects unknown ops loudly).
CONTROL_OPS = ("ping", "health", "ready", "stats", "operations",
               "checkpoint", "ingest", "subscribe")


class ReproServer:
    """Serve one :class:`QueryService` to concurrent socket clients.

    Parameters
    ----------
    service:
        The (already built) query service; the caller owns its
        lifecycle.
    host, port:
        Listen address; port 0 picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    queue_depth:
        Per-connection outbound queue bound — the backpressure knob.
    checkpoint_out:
        Path for the final full checkpoint frame written on shutdown
        (None: keep it only in :attr:`checkpoint_blob`).
    checkpoint_compress / replicate_compress:
        Frame compression for the shutdown checkpoint and for the
        delta frames streamed at subscribers.
    max_subscribers:
        Refuse ``subscribe`` beyond this many live followers (None:
        unlimited).
    drain_timeout:
        Seconds shutdown waits for connections to finish in-flight
        requests before cancelling them.
    faults:
        A :class:`~repro.faults.FaultPlan` for deterministic injection
        of ack delays and truncated replication frames (inert by
        default).
    dedup_window:
        How many recent ingest request ids (``rid``) the server
        remembers; a replayed ``rid`` inside the window returns the
        original ``(epoch_before, epoch)`` ack without re-applying the
        batch, which is what makes client retries idempotent.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 *, queue_depth: int = 64,
                 checkpoint_out: str | None = None,
                 checkpoint_compress: str = "none",
                 replicate_compress: str = "zlib",
                 max_subscribers: int | None = None,
                 drain_timeout: float = 5.0,
                 faults=NO_FAULTS, dedup_window: int = 1024):
        if queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, not {queue_depth}")
        if max_subscribers is not None and max_subscribers < 1:
            raise ValueError(
                f"max_subscribers must be >= 1, not {max_subscribers}")
        if drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0, not {drain_timeout}")
        if dedup_window < 1:
            raise ValueError(
                f"dedup_window must be >= 1, not {dedup_window}")
        self.service = service
        self.host = host
        self.port = int(port)
        self.checkpoint_out = (Path(checkpoint_out)
                               if checkpoint_out is not None else None)
        self.checkpoint_blob: bytes | None = None
        self._queue_depth = int(queue_depth)
        self._checkpoint_compress = checkpoint_compress
        self._replicate_compress = replicate_compress
        self._max_subscribers = max_subscribers
        self._drain_timeout = float(drain_timeout)
        self._server: asyncio.AbstractServer | None = None
        self._lock: asyncio.Lock | None = None
        self._stopped: asyncio.Event | None = None
        self._tasks: set[asyncio.Task] = set()
        #: subscriber out-queue -> its connection's writer (to close a
        #: follower that falls behind).
        self._subscribers: dict[asyncio.Queue, asyncio.StreamWriter] = {}
        self._repl_epoch: int | None = None
        self._draining = False
        self._shutdown_started = False
        self._faults = faults if faults is not None else NO_FAULTS
        self._dedup_window = int(dedup_window)
        #: rid -> the original ingest ack (bounded, LRU on replay).
        self._dedup: OrderedDict[str, dict] = OrderedDict()
        #: The last turnover's capture failed: retry it before the next
        #: ingest moves the epoch on.
        self._capture_owed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ReproServer":
        """Bind and start accepting; resolves :attr:`host`/:attr:`port`
        to the actual bound address."""
        self._lock = asyncio.Lock()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        return self

    async def wait_stopped(self) -> None:
        """Block until a shutdown (requested or awaited) completes."""
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        """Signal-handler-safe: schedule :meth:`shutdown` once."""
        if not self._shutdown_started:
            self._shutdown_started = True
            asyncio.ensure_future(self.shutdown())

    async def shutdown(self) -> bytes:
        """Stop accepting, drain, flush, checkpoint; returns the final
        checkpoint frame (also written to ``checkpoint_out``)."""
        if self._draining:
            await self._stopped.wait()
            return self.checkpoint_blob
        self._shutdown_started = True
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        # Announce the drain to live subscribers right away: their
        # handlers sit blocked in read() and would otherwise be cut
        # at the drain deadline without ever seeing the event.  The
        # pump flushes the event before the connection closes, so the
        # follower reads "draining" then a clean EOF — not a
        # mid-stream break it would burn a resync on.
        for queue in list(self._subscribers):
            _offer(queue, encode_event("draining", {
                "epoch": self.service.pipeline.updates_ingested}))
        if self._tasks:
            _, pending = await asyncio.wait(
                set(self._tasks), timeout=self._drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        async with self._lock:
            pipeline = self.service.pipeline
            if pipeline.healthy:
                pipeline.flush()
                blob = pipeline.checkpoint(
                    compress=self._checkpoint_compress)
            else:
                # Degraded to the end: the live pipeline is poisoned
                # and cannot flush.  Checkpoint the last good snapshot
                # instead of crashing the drain — a degraded daemon
                # still shuts down cleanly.
                blob = None
                newest = self.service.snapshots.newest()
                if newest is not None:
                    blob = self.service.snapshot_frame(
                        newest, compress=self._checkpoint_compress)
        self.checkpoint_blob = blob
        if self.checkpoint_out is not None:
            self.checkpoint_out.write_bytes(blob)
        self._stopped.set()
        return blob

    # -- connections ---------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        out: asyncio.Queue = asyncio.Queue(maxsize=self._queue_depth)
        pump = asyncio.create_task(self._pump(out, writer))
        decoder = FrameDecoder()
        try:
            while not self._draining:
                try:
                    data = await reader.read(65536)
                except (ConnectionError, OSError):
                    # Abrupt peer reset: not an error worth a log line,
                    # just this connection's end.
                    return
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except WireError as exc:
                    self.service.stats.errors += 1
                    await out.put(encode_error(0, "",
                                               type(exc).__name__,
                                               str(exc)))
                    break
                # Every decoded frame is a fully received request:
                # answer them all, even if a drain started meanwhile.
                for blob in frames:
                    await self._serve_frame(blob, out, writer)
            if self._draining:
                await out.put(encode_event("draining", {
                    "epoch": self.service.pipeline.updates_ingested}))
        finally:
            self._subscribers.pop(out, None)
            _offer_sentinel(out)
            try:
                await asyncio.wait_for(pump, timeout=2.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pump.cancel()
            writer.close()
            self._tasks.discard(task)

    async def _pump(self, out: asyncio.Queue, writer) -> None:
        """The connection's single writer: drain the bounded queue."""
        while True:
            blob = await out.get()
            if blob is None:
                break
            try:
                writer.write(blob)
                await writer.drain()
            except (ConnectionError, OSError):
                break

    async def _serve_frame(self, blob: bytes, out: asyncio.Queue,
                           writer) -> None:
        try:
            request = decode_request(blob)
        except WireError as exc:
            self.service.stats.errors += 1
            await out.put(encode_error(0, "", type(exc).__name__,
                                       str(exc)))
            return
        acked = delayed = False
        try:
            async with self._lock:
                if request.op == "subscribe":
                    self._subscribe(request, out, writer)
                    return
                meta, result, sections = self._execute(request)
                if request.op == "ingest":
                    # Ack first, then turn the epoch over: the client
                    # need not wait for the snapshot and the delta.
                    delayed = (self._faults.active
                               and self._faults.maybe_fire(ACK_DELAY))
                    if not delayed:
                        acked = _send_now(out, writer, encode_response(
                            request.id, request.op, result, meta=meta))
                    self._turnover()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # A bad request must answer, never kill the connection (or
            # the server): surface the exception type + message.
            self.service.stats.errors += 1
            await out.put(encode_error(request.id, request.op,
                                       type(exc).__name__, str(exc)))
            return
        if acked:
            return
        if delayed:
            # Stall the ack past the client's timeout, *outside* the
            # lock (other connections keep being served): the batch is
            # applied but the client never hears it, so the retry it
            # provokes must land in the dedup window, not re-apply.
            await asyncio.sleep(self._faults.ack_delay_s)
        await out.put(encode_response(request.id, request.op, result,
                                      meta=meta, sections=sections))

    # -- request execution (service lock held) -------------------------------

    def _execute(self, request) -> tuple:
        """Run one non-subscribe op; returns (meta, result, sections)."""
        op, args = request.op, dict(request.args)
        svc = self.service
        pipeline = svc.pipeline
        if op == "ping":
            return ({"epoch": pipeline.updates_ingested}, "pong", ())
        if op == "health":
            status, reason = svc.status
            payload = {
                "status": ("draining" if self._draining
                           else "degraded" if status != "ok"
                           else "serving"),
                "structure": svc.served_type.__name__,
                "epoch": pipeline.updates_ingested,
                "shards": pipeline.shards,
                "connections": len(self._tasks),
                "subscribers": len(self._subscribers),
            }
            if status != "ok":
                payload["reason"] = reason
            return ({}, payload, ())
        if op == "ready":
            ok = not self._draining and svc.status[0] == "ok"
            return ({}, {"ready": ok}, ())
        if op == "stats":
            return ({"epoch": pipeline.updates_ingested},
                    svc.stats.snapshot().to_dict(), ())
        if op == "operations":
            return ({}, svc.operations(), ())
        if op == "checkpoint":
            compress = str(args.pop("compress", "none"))
            pipeline.flush()
            blob = pipeline.checkpoint(compress=compress)
            return ({"epoch": pipeline.updates_ingested},
                    {"bytes": len(blob)},
                    (np.frombuffer(blob, dtype=np.uint8),))
        if op == "ingest":
            if len(request.sections) != 2:
                raise ProtocolError(
                    f"ingest carries exactly two array sections "
                    f"(indices, deltas), got {len(request.sections)}")
            rid = args.pop("rid", None)
            if rid is not None:
                cached = self._dedup.get(rid)
                if cached is not None:
                    # A replayed batch (its ack was lost; the client
                    # retried): hand back the original ack without
                    # touching the pipeline.
                    self._dedup.move_to_end(rid)
                    return ({"epoch": cached["epoch"]},
                            dict(cached, deduped=True), ())
            if self._capture_owed:
                # The last turnover's capture failed: take it now,
                # before this batch moves the epoch past it.
                self._capture_owed = False
                try:
                    svc.current()
                except Exception:
                    svc.stats.errors += 1
            before = pipeline.updates_ingested
            count = svc.ingest(request.sections[0],
                               request.sections[1])
            # Ingest may have swapped in a recovered pipeline: re-read
            # it before flushing or reading the acked epoch.
            pipeline = svc.pipeline
            pipeline.flush()
            epoch = pipeline.updates_ingested
            result = {"count": count, "epoch": epoch,
                      "epoch_before": before}
            if rid is not None:
                self._dedup[rid] = result
                while len(self._dedup) > self._dedup_window:
                    self._dedup.popitem(last=False)
            return ({"epoch": epoch}, result, ())
        # Everything else is the query algebra; the registry rejects
        # unknown/unsupported ops with a message listing what works.
        at = args.pop("at", None)
        snapshot = (svc.snapshots.snapshot_at(int(at)) if at is not None
                    else svc.serving_snapshot())
        result = svc.router.query(snapshot, op, **args)
        return ({"epoch": snapshot.epoch}, to_jsonable(result), ())

    # -- epoch turnover (service lock held, after the ack) -------------------

    def _turnover(self) -> None:
        """Capture the acked epoch and ship its delta.

        Runs after an ingest's ack is on its way and before the lock
        is released, so no other request is served in between: an
        ``at=`` query for the acked epoch finds it, and the delta chain
        stays gapless.  The snapshot policy advances at every batch
        boundary — snapshots otherwise only capture lazily on the next
        query, which would skip epochs.  A failing step is counted in
        ``stats.errors``, never answered: the ack already went out (and
        sits in the dedup window).  A failed capture is owed: the next
        query's ``current()`` takes it, or else the next ingest retries
        it before applying its batch.  A failed broadcast needs no
        retry: the next delta starts from the last epoch shipped.
        """
        try:
            self.service.current()
        except Exception:
            self.service.stats.errors += 1
            self._capture_owed = True
        try:
            self._replicate()
        except Exception:
            self.service.stats.errors += 1

    # -- replication ---------------------------------------------------------

    def _subscribe(self, request, out: asyncio.Queue, writer) -> None:
        """Register a follower: full base now, one delta per epoch
        after (the base is checkpointed under the same lock, so it is
        a node of the delta chain every later frame extends)."""
        if (self._max_subscribers is not None
                and len(self._subscribers) >= self._max_subscribers):
            _offer(out, encode_error(
                request.id, request.op, "SubscriberLimit",
                f"subscriber limit ({self._max_subscribers}) reached"))
            return
        pipeline = self.service.pipeline
        pipeline.flush()
        base = pipeline.checkpoint(compress="none")
        epoch = pipeline.updates_ingested
        if not self._subscribers:
            self._repl_epoch = epoch
        ok = _offer(out, encode_response(
            request.id, request.op,
            {"epoch": epoch,
             "structure": self.service.served_type.__name__},
            meta={"epoch": epoch}))
        ok = ok and _offer(out, base)
        if ok:
            self._subscribers[out] = writer

    def _replicate(self) -> None:
        """Broadcast one delta frame covering everything since the
        last broadcast.  Called under the lock after every ingest, so
        the chain is gapless while subscribers exist."""
        if not self._subscribers:
            return
        pipeline = self.service.pipeline
        epoch = pipeline.updates_ingested
        if self._repl_epoch is None or epoch <= self._repl_epoch:
            return
        if self._repl_epoch not in pipeline.delta_epochs:
            # The pipeline was rebuilt (service recovery): the delta
            # chain the subscribers were following no longer exists.
            # Drop them all — an auto-resyncing follower reconnects
            # and restarts from a fresh base of the new chain.
            for queue, writer in list(self._subscribers.items()):
                del self._subscribers[queue]
                _hangup(writer)
            self._repl_epoch = None
            return
        frame = pipeline.checkpoint(since=self._repl_epoch,
                                    compress=self._replicate_compress)
        self._repl_epoch = epoch
        for queue in list(self._subscribers):
            if (self._faults.active
                    and self._faults.maybe_fire(DELTA_TRUNCATE)):
                # Ship a torn frame, then kill the connection: the
                # follower sees a partial tail plus EOF and must
                # resync from a fresh base.  Write the tail directly
                # (not via the pump) so it lands before the hangup.
                writer = self._subscribers.pop(queue)
                writer.transport.write(frame[:max(1, len(frame) // 2)])
                _hangup(writer)
                continue
            if not _offer(queue, frame):
                # A follower that cannot drain its queue must not
                # stall ingestion: drop it (a resubscribe gets a
                # fresh base).
                writer = self._subscribers.pop(queue)
                _hangup(writer)


def _hangup(writer) -> None:
    """Cut a subscriber connection so the peer sees EOF *now*.

    ``transport.close()`` alone only drops this process's reference to
    the fd — worker processes forked after the connection was accepted
    (a supervised restart mid-stream) hold inherited duplicates, and no
    FIN goes out until every copy closes.  ``shutdown()`` acts on the
    connection itself, cutting through the duplicates.  The transport
    stays open here on purpose: the connection's own handler wakes on
    the EOF this sends and runs the one teardown path (pump sentinel,
    then ``writer.close()``).
    """
    sock = writer.transport.get_extra_info("socket")
    if sock is not None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass                    # already dead: nothing to cut


def _send_now(queue: asyncio.Queue, writer, blob) -> bool:
    """Put a reply on the socket without awaiting (the lock is held).

    With nothing queued for the pump, every earlier reply has already
    been handed to the transport, so writing directly keeps replies in
    order.  Otherwise the reply joins the pump's queue behind them;
    ``False`` (the queue is full) leaves the caller to send it once the
    lock is released.
    """
    if queue.empty() and not writer.is_closing():
        writer.write(blob)
        return True
    return _offer(queue, blob)


def _offer(queue: asyncio.Queue, blob) -> bool:
    """Non-blocking put (the lock-held send path must never await)."""
    try:
        queue.put_nowait(blob)
        return True
    except asyncio.QueueFull:
        return False


def _offer_sentinel(queue: asyncio.Queue) -> None:
    """Guarantee the pump's stop sentinel lands even on a full queue
    (dropping queued responses for a connection that is closing)."""
    while True:
        try:
            queue.put_nowait(None)
            return
        except asyncio.QueueFull:
            try:
                queue.get_nowait()
            except asyncio.QueueEmpty:
                return


class ServerThread:
    """Run a :class:`ReproServer` on a private event loop in a daemon
    thread — in-process embedding for tests, benchmarks and examples
    (blocking clients in the calling thread talk to it over real
    sockets).  ``stop()`` performs the same graceful drain as SIGTERM
    and returns the final checkpoint frame.
    """

    def __init__(self, service, **server_kwargs):
        self._service = service
        self._kwargs = server_kwargs
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: ReproServer | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-net-server",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = ReproServer(self._service, **self._kwargs)
        try:
            await self.server.start()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.server.wait_stopped()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> bytes | None:
        """Graceful drain; returns the final checkpoint frame."""
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(
                    self.server.request_shutdown)
            except RuntimeError:
                pass               # loop already closed: nothing to do
        if self._thread is not None:
            self._thread.join(timeout=60)
        return self.server.checkpoint_blob if self.server else None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
