"""Spans recorded from outside the program, by wrapping public functions.

A span is one call of a wrapped function: its name, start and end on
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so the daemon's and
the load generator's spans share one time base), the span that was open
when it started (its parent), the request id it served and a small
integer payload (bytes produced, updates applied, a cache-hit flag).

Parent and request id live in context variables: the daemon runs one
asyncio task per connection, so a request's spans are exactly the spans
opened in the task that decoded it.  Spans stay in memory and are
written out once, when the traced process ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=-1)
_REQUEST = contextvars.ContextVar("perfbench_request", default=-1)

#: Record layout: [name, start_ns, end_ns, parent, request_id, payload].
NAME, START, END, PARENT, RID, PAYLOAD = range(6)


class Recorder:
    """An append-only in-memory span list plus a few named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._patched: list[tuple] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, payload=None, request=None,
             binds_request=False):
        """``fn`` timed as span ``name``.  ``payload(args, kwargs,
        result)`` gives the span's integer payload and ``request(args,
        result)`` its request id; ``binds_request`` also makes that id
        the request of every later span in the same context (the
        server's request decoder)."""
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, _CURRENT.get(), _REQUEST.get(), 0]
            index = len(spans)
            spans.append(record)
            token = _CURRENT.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                record[END] = clock()
            if request is not None:
                record[RID] = request(args, result)
                if binds_request:
                    _REQUEST.set(record[RID])
            if payload is not None:
                record[PAYLOAD] = int(payload(args, kwargs, result))
            return result

        return traced

    def mark(self, value: int) -> None:
        """Set the payload of the innermost open span."""
        index = _CURRENT.get()
        if index >= 0:
            self.spans[index][PAYLOAD] = value

    def patch(self, owner, attr: str, replacement) -> None:
        """Swap ``owner.attr`` (a module global or a class attribute,
        classmethods included), remembering the original."""
        self._patched.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, **options) -> None:
        raw = _raw(owner, attr)
        if isinstance(raw, classmethod):
            self.patch(owner, attr,
                       classmethod(self.wrap(raw.__func__, name, **options)))
        else:
            self.patch(owner, attr, self.wrap(raw, name, **options))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters},
                      handle)


def _raw(owner, attr: str):
    """The attribute as stored: a class's own entry keeps a classmethod
    wrapper that ``getattr`` would bind away."""
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def _resolve(dotted: str):
    module, _, qualname = dotted.partition(":")
    owner = importlib.import_module(module)
    for part in qualname.split(".") if qualname else ():
        owner = getattr(owner, part)
    return owner


def _nbytes(args, kwargs, result):
    return len(result)


def _delta_bytes(args, kwargs, result):
    # checkpoint(since=E) is a delta frame; a full frame reads as -1.
    since = kwargs.get("since", args[1] if len(args) > 1 else None)
    return len(result) if since is not None else -1


def _reply_id(args, result):
    return result.id


def _batch_size(args, kwargs, result):
    return len(args[1])


#: (owner, attribute, span name, options) — the daemon's layer
#: boundaries.  The server's codec functions are patched at their import
#: site in ``repro.net.server``, where the request loop looks them up.
DAEMON_SPANS = (
    ("repro.net.server", "decode_request", "net.server.decode",
     {"request": _reply_id, "binds_request": True}),
    ("repro.net.server", "encode_response", "net.server.encode",
     {"payload": _nbytes}),
    ("repro.service.service:QueryService", "ingest", "service.ingest", {}),
    ("repro.service.snapshot:Snapshot", "capture",
     "service.snapshot.capture", {}),
    ("repro.service.router:QueryRouter", "query", "service.router.query",
     {}),
    ("repro.service.router:QueryRouter", "prewarm", "service.prewarm", {}),
    ("repro.engine.pipeline:ShardedPipeline", "ingest",
     "engine.pipeline.ingest", {"payload": _batch_size}),
    ("repro.engine.pipeline:ShardedPipeline", "flush",
     "engine.pipeline.flush", {}),
    ("repro.engine.pipeline:ShardedPipeline", "merged",
     "engine.pipeline.merged", {}),
    ("repro.engine.pipeline:ShardedPipeline", "checkpoint",
     "engine.pipeline.checkpoint", {"payload": _delta_bytes}),
    ("repro.core.l0_sampler:L0Sampler", "update_many",
     "core.l0.update_many", {"payload": _batch_size}),
    ("repro.core.l0_sampler:L0Sampler", "sample", "core.l0.sample", {}),
    ("repro.core.lp_sampler:LpSampler", "update_many",
     "core.lp.update_many", {"payload": _batch_size}),
    ("repro.core.lp_sampler:LpSampler", "sample", "core.lp.sample", {}),
    ("repro.recovery.syndrome:SyndromeSparseRecovery", "update_many",
     "recovery.syndrome.update_many", {}),
    ("repro.recovery.syndrome:SyndromeSparseRecovery", "recover",
     "recovery.syndrome.recover", {}),
    ("repro.sketch.count_sketch:CountSketch", "update_many",
     "sketch.count_sketch.update_many", {"payload": _batch_size}),
    ("repro.sketch.count_sketch:CountSketch", "best_sparse_approximation",
     "sketch.count_sketch.top", {}),
    ("repro.sketch.ams:AMSSketch", "update_many", "sketch.ams.update_many",
     {}),
    ("repro.sketch.stable:StableSketch", "update_many",
     "sketch.stable.update_many", {}),
    ("repro.hashing.kwise:KWiseHash", "__call__", "hashing.kwise", {}),
    ("repro.hashing.kwise:StackedKWiseHash", "__call__",
     "hashing.kwise.stacked", {}),
)

#: The generator's side of the wire, patched where the client calls it.
CLIENT_SPANS = (
    ("repro.net.client", "encode_request", "net.client.encode",
     {"payload": _nbytes, "request": lambda args, result: args[0]}),
    ("repro.net.client", "decode_reply", "net.client.decode",
     {"payload": lambda args, kwargs, result: len(args[0]),
      "request": _reply_id}),
    ("repro.engine.follower:FollowerPipeline", "follow",
     "net.replication.apply", {}),
)


def install(recorder: Recorder, table) -> None:
    for owner, attr, name, options in table:
        recorder.patch_span(_resolve(owner), attr, name, **options)


def install_cache_counters(recorder: Recorder) -> None:
    """Cache outcomes as counters and span payloads: a lookup marks its
    router span 1 on a hit and 2 on a miss; a prewarmed entry counts as
    useful the first time a lookup hits it."""
    from repro.service.cache import ResultCache
    from repro.service.router import QueryRouter

    get, put = ResultCache.get, ResultCache.put
    prewarm = QueryRouter.__dict__["prewarm"]     # already span-wrapped
    warmed: set = set()
    state = {"prewarming": False}

    def counted_get(self, key):
        hit, value = get(self, key)
        recorder.mark(1 if hit else 2)
        if hit and key in warmed:
            warmed.discard(key)
            recorder.count("prewarm.useful")
        return hit, value

    def counted_put(self, key, value):
        if state["prewarming"] and self.capacity:
            warmed.add(key)
            recorder.count("prewarm.entries")
        return put(self, key, value)

    def flagged_prewarm(self, *args, **kwargs):
        state["prewarming"] = True
        try:
            return prewarm(self, *args, **kwargs)
        finally:
            state["prewarming"] = False

    recorder.patch(ResultCache, "get", counted_get)
    recorder.patch(ResultCache, "put", counted_put)
    recorder.patch(QueryRouter, "prewarm", flagged_prewarm)


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the time its children cover (children
    of a synchronous call never overlap one another)."""
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        parent = record[PARENT]
        if parent >= 0:
            own[parent] -= record[END] - record[START]
    return own
