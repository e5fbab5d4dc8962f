"""Per-layer metrics from one traced window.

Inputs are the daemon's span dump, the generator's own spans (client
codec, follower apply) and the load's :class:`~loads.Phase`.  Only
spans whose root call started inside the timed window count.  Busy
shares are self time (a span's duration minus its children's) over the
window's wall time, so the layer shares add up to ``daemon.busy_share``.
A metric whose layer does not run on a workload reads 0.
"""

from __future__ import annotations

import numpy as np

from tracing import END, NAME, PARENT, PAYLOAD, RID, START, self_times

#: Span-name prefix -> the busy-share metric its self time counts to.
BUSY_LAYERS = (
    ("net.server.", "net.server.busy_share"),
    ("service.", "service.busy_share"),
    ("engine.", "engine.pipeline.busy_share"),
    ("core.", "core.busy_share"),
    ("recovery.", "recovery.syndrome.busy_share"),
    ("sketch.", "sketch.busy_share"),
    ("hashing.", "hashing.kwise.busy_share"),
)


def p50(values) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def p95(values) -> float:
    return float(np.percentile(values, 95)) if len(values) else 0.0


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _in_window(spans: list, window: tuple) -> list:
    """Indices of spans whose root call started inside the window."""
    root = [0] * len(spans)
    keep = []
    for i, record in enumerate(spans):
        parent = record[PARENT]
        root[i] = i if parent < 0 else root[parent]
        if window[0] <= spans[root[i]][START] <= window[1]:
            keep.append(i)
    return keep


def per_layer(dump: dict, client_spans: list, phase) -> dict:
    spans = dump["spans"]
    counters = dump["counters"]
    own = self_times(spans)
    keep = _in_window(spans, phase.window_ns)

    durations: dict[str, list] = {}
    payloads: dict[str, list] = {}
    self_ns: dict[str, list] = {}
    for i in keep:
        record = spans[i]
        name = record[NAME]
        durations.setdefault(name, []).append(record[END] - record[START])
        payloads.setdefault(name, []).append(record[PAYLOAD])
        self_ns.setdefault(name, []).append(own[i])

    def ms(name, pick=None):
        values = durations.get(name, [])
        if pick is not None:
            values = [v for v, p in zip(values, payloads.get(name, []))
                      if pick(p)]
        return [v / 1e6 for v in values]

    def rate(name):
        busy = sum(durations.get(name, [])) / 1e9
        return sum(payloads.get(name, [])) / busy if busy else 0.0

    window_ns = phase.window_ns[1] - phase.window_ns[0]
    out = {}
    for prefix, metric in BUSY_LAYERS:
        out[metric] = sum(sum(v) for n, v in self_ns.items()
                          if n.startswith(prefix)) / window_ns
    roots = [i for i in keep if spans[i][PARENT] < 0]
    out["daemon.busy_share"] = sum(
        spans[i][END] - spans[i][START] for i in roots) / window_ns
    out["service.prewarm.busy_share"] = (
        sum(durations.get("service.prewarm", [])) / window_ns)

    out["core.l0.update_many_ms_p50"] = p50(ms("core.l0.update_many"))
    out["core.l0.updates_per_busy_s"] = rate("core.l0.update_many")
    out["core.l0.sample_ms_p50"] = p50(ms("core.l0.sample"))
    out["core.lp.update_many_ms_p50"] = p50(ms("core.lp.update_many"))
    out["core.lp.updates_per_busy_s"] = rate("core.lp.update_many")
    out["core.lp.sample_ms_p50"] = p50(ms("core.lp.sample"))

    entries = counters.get("prewarm.entries", 0)
    out["service.prewarm.entries"] = entries
    out["service.prewarm.useful_ratio"] = (
        counters.get("prewarm.useful", 0) / entries if entries else 0.0)
    out["service.snapshot.capture_ms_p50"] = p50(
        ms("service.snapshot.capture"))
    out["service.snapshot.captures"] = len(
        durations.get("service.snapshot.capture", []))
    out["engine.pipeline.merged_ms_p50"] = p50(ms("engine.pipeline.merged"))
    # Payload 1 marks a cache hit; misses and uncacheable ops compute.
    out["service.router.miss_ms_p50"] = p50(
        ms("service.router.query", lambda p: p != 1))
    hits = phase.stats.get("cache_hits", 0)
    cacheable = hits + phase.stats.get("cache_misses", 0)
    out["service.cache.cacheable_queries"] = cacheable
    out["service.cache.hit_ratio"] = hits / cacheable if cacheable else 0.0

    out["sketch.count_sketch.top_ms_p50"] = p50(ms("sketch.count_sketch.top"))
    out["sketch.count_sketch.update_many_us_p50"] = 1e3 * p50(
        ms("sketch.count_sketch.update_many"))

    out.update(_wire(spans, keep, client_spans, phase.window_ns))
    out["net.server.decode_us_p50"] = 1e3 * p50(ms("net.server.decode"))
    out["net.server.encode_us_p50"] = 1e3 * p50(ms("net.server.encode"))

    deltas = [i for i in keep if spans[i][NAME] == "engine.pipeline.checkpoint"
              and spans[i][PAYLOAD] >= 0]
    out["engine.delta.frame_ms_p50"] = p50(
        [(spans[i][END] - spans[i][START]) / 1e6 for i in deltas])
    out["engine.delta.bytes_mean"] = mean([spans[i][PAYLOAD] for i in deltas])

    out["engine.pipeline.route_ms_p50"] = p50(
        [v / 1e6 for v in self_ns.get("engine.pipeline.ingest", [])])
    out["engine.pipeline.flush_ms_p50"] = p50(ms("engine.pipeline.flush"))
    out["engine.pipeline.shard_skew"] = _shard_skew(spans, keep)
    return out


def _wire(spans, keep, client_spans, window) -> dict:
    """Client codec costs, and what of each round trip no span covers."""
    encode = {r[RID]: r for r in client_spans
              if r[NAME] == "net.client.encode"
              and window[0] <= r[START] <= window[1]}
    decode = {r[RID]: r for r in client_spans
              if r[NAME] == "net.client.decode" and r[RID] in encode}
    covered: dict[int, int] = {}
    for i in keep:
        record = spans[i]
        if record[PARENT] < 0 and record[RID] in decode:
            covered[record[RID]] = (covered.get(record[RID], 0)
                                    + record[END] - record[START])
    unattributed, attributed, total = [], 0, 0
    for rid, reply in decode.items():
        if rid not in covered:
            continue
        sent = encode[rid]
        round_trip = reply[END] - sent[START]
        spanned = (covered[rid] + sent[END] - sent[START]
                   + reply[END] - reply[START])
        unattributed.append((round_trip - spanned) / 1e3)
        attributed += spanned
        total += round_trip
    return {
        "net.client.encode_us_p50": p50(
            [(r[END] - r[START]) / 1e3 for r in encode.values()]),
        "net.client.decode_us_p50": p50(
            [(r[END] - r[START]) / 1e3 for r in decode.values()]),
        "net.client.request_bytes_mean": mean(
            [r[PAYLOAD] for r in encode.values()]),
        "net.client.reply_bytes_mean": mean(
            [r[PAYLOAD] for r in decode.values()]),
        "net.unattributed_us_p50": p50(unattributed),
        "daemon.attributed_share": attributed / total if total else 0.0,
    }


def _shard_skew(spans, keep) -> float:
    """Busiest shard's updates over the mean shard's: the serial backend
    applies a routed batch shard by shard, so the n-th structure update
    under a pipeline ingest is shard n's."""
    per_shard: dict[int, int] = {}
    seen: dict[int, int] = {}
    for i in keep:
        record = spans[i]
        parent = record[PARENT]
        if (parent >= 0 and spans[parent][NAME] == "engine.pipeline.ingest"
                and record[NAME].endswith(".update_many")):
            shard = seen.get(parent, 0)
            seen[parent] = shard + 1
            per_shard[shard] = per_shard.get(shard, 0) + record[PAYLOAD]
    if not per_shard:
        return 0.0
    counts = list(per_shard.values())
    return max(counts) / (sum(counts) / len(counts))
