"""A small blocking client for the repro daemon.

One socket, one request in flight at a time (the server answers in
order).  Server-side failures come back as :class:`NetError` carrying
the exception type name and message from the error envelope; transport
failures surface as the usual :class:`ConnectionError` /
:class:`TimeoutError`.  Used by the ``repro client`` CLI, the tests
and the benchmarks; :class:`~repro.net.replication.SocketFollower`
drives one of these for the subscription stream.

Idempotent retry
----------------

Constructed with a :class:`RetryPolicy`, the client survives dropped
connections and ack timeouts: a failed request reconnects and resends
the *same* encoded payload after seeded-jitter exponential backoff,
under a monotonic-clock deadline.  Retrying an ingest is safe because
every ingest is stamped with a client-generated request id (``rid``)
and the server keeps a dedup window keyed on it — a replayed batch
returns the original ``(epoch_before, epoch)`` ack without being
applied twice, so retry-under-fault ends byte-identical to the serial
oracle.  The jitter comes from the policy's own seeded RNG and the
clock/sleep are injectable, so retry schedules are as replayable as
everything else in this library.
"""

from __future__ import annotations

import secrets
import socket
import time
from typing import NamedTuple

import numpy as np

from ..faults import NO_FAULTS, SOCKET_DROP
from ..wire import KIND_ERROR, KIND_PIPELINE, KIND_RESPONSE, peek_kind
from .protocol import (FrameDecoder, ProtocolError, Reply, decode_reply,
                       encode_request)


class NetError(RuntimeError):
    """The server answered with an error envelope."""

    def __init__(self, error: str, message: str, op: str = ""):
        super().__init__(f"{error}: {message}" if message else error)
        self.error = error
        self.detail = message
        self.op = op


class Answer(NamedTuple):
    """A query result plus the epoch of the snapshot that answered."""

    result: object
    epoch: int


class RetryPolicy:
    """Seeded-jitter exponential backoff for idempotent request retry.

    Parameters
    ----------
    attempts:
        Retries after the first try (so ``attempts + 1`` sends total).
    base_s / factor / max_s:
        The n-th retry (n from 0) waits
        ``min(max_s, base_s * factor**n)`` plus jitter.
    jitter:
        Fraction of the delay added uniformly at random, drawn from
        this policy's own seeded RNG stream — retry schedules decohere
        between clients but replay exactly under one seed.
    deadline_s:
        Total budget per request, measured on ``clock``; once spent,
        the last transport error is raised.
    retry_errors:
        Server error-envelope types treated as transient (by default
        the typed retryable ``ServiceDegraded`` the service raises
        while it is healing).
    clock / sleep:
        Injectable monotonic clock and sleep, for deterministic tests.
    """

    def __init__(self, attempts: int = 4, base_s: float = 0.05,
                 factor: float = 2.0, max_s: float = 1.0,
                 deadline_s: float = 30.0, jitter: float = 0.5,
                 seed: int = 0,
                 retry_errors: tuple = ("ServiceDegraded",),
                 clock=time.monotonic, sleep=time.sleep):
        if attempts < 0:
            raise ValueError("attempts must be >= 0")
        if base_s < 0 or max_s < 0 or factor < 1.0 or jitter < 0:
            raise ValueError("backoff parameters must be non-negative "
                             "and non-shrinking")
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.attempts = int(attempts)
        self.base_s = float(base_s)
        self.factor = float(factor)
        self.max_s = float(max_s)
        self.deadline_s = float(deadline_s)
        self.jitter = float(jitter)
        self.retry_errors = tuple(retry_errors)
        self.clock = clock
        self.sleep = sleep
        self._rng = np.random.default_rng(
            np.random.SeedSequence((int(seed), 0x9E72)))

    def delay(self, attempt: int) -> float:
        """Jittered backoff before retry number ``attempt`` (0-based)."""
        base = min(self.max_s, self.base_s * self.factor ** attempt)
        return base * (1.0 + self.jitter * float(self._rng.random()))


class ReproClient:
    """Connect/ingest/query/stats/subscribe against one daemon.

    ``retry`` (a :class:`RetryPolicy`) makes every request survive
    connection loss and timeouts by reconnecting and resending;
    ``faults`` (a :class:`~repro.faults.FaultPlan`) lets tests inject
    deterministic socket drops into the send path; ``client_id``
    namespaces the ingest dedup ids (a random token by default — pass
    one explicitly to make wire traces reproducible).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 retry: RetryPolicy | None = None, faults=NO_FAULTS,
                 client_id: str | None = None):
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self.retry = retry
        self._faults = faults if faults is not None else NO_FAULTS
        self._client_id = client_id or secrets.token_hex(8)
        self._next_id = 1
        self._ingest_seq = 0
        self._sock = None
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout)
        self._decoder = FrameDecoder()
        self._pending: list[bytes] = []

    def _reconnect(self) -> None:
        """Fresh socket, fresh decoder: any half-read frame or stale
        pushed frame from the dead connection is discarded."""
        self.close()
        self._connect()

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            # shutdown() before close(): a worker process forked while
            # this connection was open holds an inherited duplicate of
            # the fd, and close() alone would leave the connection live
            # (no FIN) until that worker exits.  shutdown() cuts the
            # connection itself, so the server sees EOF now.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass                    # never connected, or already dead
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- frame transport -----------------------------------------------------

    def next_frame(self, timeout: float | None = None) -> bytes | None:
        """The next complete frame from the socket.

        With a ``timeout``, returns None if no frame completes in
        time (``timeout=0`` polls without blocking); with
        ``timeout=None`` blocks under the connection's default timeout
        (raising :class:`TimeoutError` if even that expires).  Raises
        :class:`ConnectionError` on EOF.
        """
        if self._pending:
            return self._pending.pop(0)
        self._sock.settimeout(self._timeout if timeout is None
                              else timeout)
        while True:
            try:
                data = self._sock.recv(65536)
            except (TimeoutError, BlockingIOError):
                # A zero timeout makes the socket non-blocking, and an
                # empty one raises BlockingIOError: no frame ready yet.
                if timeout is None:
                    raise
                frame = None
                break
            if not data:
                raise ConnectionError("server closed the connection")
            self._pending.extend(self._decoder.feed(data))
            if self._pending:
                frame = self._pending.pop(0)
                break
        # Requests send on this socket too: never leave it non-blocking
        # (or on a poll's short timeout) for them.
        self._sock.settimeout(self._timeout)
        return frame

    def request(self, op: str, args: dict | None = None,
                sections=()) -> Reply:
        """Send one request; block for its response.

        Stream frames (deltas/events pushed at a subscribed
        connection) arriving in between are queued for
        :meth:`next_frame`, not lost.  With a :class:`RetryPolicy`,
        transport failures (and retryable server errors) reconnect and
        resend the identical payload — same request id, same ``rid`` —
        so the server can deduplicate replays.
        """
        request_id = self._next_id
        self._next_id += 1
        payload = encode_request(request_id, op, args, sections)
        policy = self.retry
        if policy is None:
            return self._exchange(request_id, payload)
        deadline = policy.clock() + policy.deadline_s
        last_error: Exception | None = None
        for attempt in range(policy.attempts + 1):
            if attempt:
                remaining = deadline - policy.clock()
                if remaining <= 0:
                    break
                policy.sleep(min(policy.delay(attempt - 1), remaining))
                try:
                    self._reconnect()
                except OSError as exc:
                    last_error = exc
                    continue
            try:
                return self._exchange(request_id, payload)
            except (ConnectionError, TimeoutError) as exc:
                last_error = exc
            except NetError as exc:
                if exc.error not in policy.retry_errors:
                    raise
                last_error = exc
        raise last_error

    def _exchange(self, request_id: int, payload: bytes) -> Reply:
        """One send + receive attempt for an already-encoded request."""
        self._send_payload(payload)
        scanned = 0
        while True:
            # Scan queued frames first, then pull from the socket —
            # directly, never via next_frame (which serves the queue
            # we are scanning and would hand the same stream frame
            # back forever).
            while scanned < len(self._pending):
                blob = self._pending[scanned]
                if _is_reply(blob):
                    del self._pending[scanned]
                    reply = decode_reply(blob)
                    if reply.id != request_id:
                        raise ProtocolError(
                            f"response for request {reply.id}, "
                            f"expected {request_id}")
                    if not reply.ok:
                        raise NetError(reply.error, reply.message,
                                       op=reply.op)
                    return reply
                scanned += 1
            self._recv_into_pending()

    def _send_payload(self, payload: bytes) -> None:
        if self._faults.active and self._faults.maybe_fire(SOCKET_DROP):
            # Half-write the frame, then die: the server sees a torn
            # tail followed by EOF, the caller sees connection loss.
            cut = max(0, min(int(self._faults.drop_after_bytes),
                             len(payload) - 1))
            try:
                self._sock.sendall(payload[:cut])
            finally:
                self.close()
            raise ConnectionError(
                f"injected fault: socket dropped after {cut} bytes")
        self._sock.sendall(payload)

    def _recv_into_pending(self) -> None:
        """Block (connection timeout) until at least one more complete
        frame lands on the queue; ConnectionError on EOF."""
        self._sock.settimeout(self._timeout)
        while True:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            frames = self._decoder.feed(data)
            if frames:
                self._pending.extend(frames)
                return

    # -- operations ----------------------------------------------------------

    def ping(self) -> Reply:
        return self.request("ping")

    def health(self) -> dict:
        return self.request("health").result

    def ready(self) -> bool:
        return bool(self.request("ready").result["ready"])

    def stats(self) -> dict:
        return self.request("stats").result

    def operations(self) -> dict:
        return self.request("operations").result

    def ingest(self, indices, deltas) -> Reply:
        """Ship one update batch; the reply's result carries ``count``,
        ``epoch_before`` and ``epoch`` (the ack's position in the
        server's total ingest order).

        Each batch is stamped with a client-unique ``rid``; a retried
        send reuses it, so the server's dedup window can return the
        original ack instead of applying the batch twice.
        """
        sections = (np.ascontiguousarray(indices, dtype=np.int64),
                    np.ascontiguousarray(deltas, dtype=np.int64))
        rid = f"{self._client_id}:{self._ingest_seq}"
        self._ingest_seq += 1
        return self.request("ingest", {"rid": rid}, sections=sections)

    def query(self, op: str, *, at: int | None = None,
              **args) -> Answer:
        """One query-algebra call; returns ``(result, epoch)``."""
        if at is not None:
            args["at"] = int(at)
        reply = self.request(op, args)
        return Answer(reply.result, int(reply.meta.get("epoch", -1)))

    def checkpoint(self, compress: str = "none") -> bytes:
        """A full pipeline checkpoint frame, fetched over the wire."""
        reply = self.request("checkpoint", {"compress": compress})
        return reply.sections[0].astype(np.uint8).tobytes()

    def subscribe(self) -> tuple[int, bytes]:
        """Register as a follower: ``(epoch, base checkpoint frame)``.

        After this, the connection receives one delta frame per epoch
        advance via :meth:`next_frame` — feed them to a
        :class:`~repro.engine.follower.FollowerPipeline` (or use
        :class:`~repro.net.replication.SocketFollower`, which does).
        """
        reply = self.request("subscribe")
        base = self.next_frame()
        if base is None or peek_kind(base) != KIND_PIPELINE:
            raise ProtocolError(
                "subscribe must be followed by a full pipeline "
                "checkpoint frame")
        return int(reply.result["epoch"]), base


def _is_reply(blob: bytes) -> bool:
    return peek_kind(blob) in (KIND_RESPONSE, KIND_ERROR)
