"""E-SRV: query service throughput — snapshot refresh x result cache.

Measured, on an ingest-while-query loop over the sharded engine:

1. **Sustained serving** — queries/sec while a turnstile stream is
   ingested in batches, swept over the snapshot refresh interval
   (every batch / every few batches / manual) with the result cache on
   and off.  Coarser refresh means more queries land on an already-
   captured epoch; the cache then collapses repeats into LRU hits, so
   the two axes together map the service's operating envelope.
2. **The cache-safety dividend** — per-query latency of a repeated
   query served from the epoch-keyed cache vs the same query recomputed
   from a fresh fold (the ``merged()``-per-call pattern the service
   replaces).  Snapshot immutability makes the cached answer *provably
   equal* to the recomputed one, so this speedup is free correctness-
   wise; the report asserts it is at least 10x.
3. **Epoch turnover** — the per-epoch work an L0 snapshot pays for
   ``L0Sampler(65536, delta=0.1)``: µs per ``clone`` (map-sharing copy)
   against ``_reference_clone`` (rebuild from params, then load state),
   and µs per decode with each level's root search restricted to its
   set ``I_k`` against the full-universe search.  Each row carries
   ``byte_identical`` (equal checkpoint bytes; equal samples)
   and must clear :data:`TURNOVER_FLOOR`.

Run as a script to emit a machine-readable ``BENCH_service.json``:

    PYTHONPATH=src python benchmarks/bench_service.py
"""

import argparse
import json
import os
import time

import numpy as np

from repro.apps.heavy_hitters import CountMedianHeavyHitters
from repro.core import L0Sampler
from repro.engine import ShardedPipeline, checkpoint, clone
from repro.engine.checkpoint import _reference_clone
from repro.service import QueryService

from _common import print_table

#: Snapshot refresh intervals swept (as multiples of the batch size).
REFRESH_BATCHES = (1, 4)

HEADER = ["structure", "refresh/batches", "cache", "queries/s",
          "hit rate", "ingest upd/s"]

#: Bumped when the BENCH_service.json layout changes.
REPORT_SCHEMA = 2

#: Minimum fast/reference speedup of each turnover row.
TURNOVER_FLOOR = 2.0

TURNOVER_UNIVERSE = 1 << 16

TURNOVER_HEADER = ["op", "fast us", "reference us", "speedup",
                   "byte-identical"]

#: The sustained-serving loop issues this many queries per batch —
#: a phi sweep so some queries repeat across rounds (cache food) and
#: some are distinct.
PHI_SWEEP = (0.1, 0.12, 0.15, 0.2)


def _workload(universe: int, updates: int, seed: int = 0):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E4)))
    indices = rng.integers(0, universe, size=updates, dtype=np.int64)
    deltas = rng.integers(1, 8, size=updates, dtype=np.int64)
    hot = rng.choice(universe, size=4, replace=False)
    hot_mask = rng.random(updates) < 0.25
    indices[hot_mask] = rng.choice(hot, size=int(hot_mask.sum()))
    return indices, deltas


def _factory(universe: int, seed: int = 5):
    return lambda: CountMedianHeavyHitters(universe, phi=0.1, seed=seed,
                                           strict=False)


def _serving_records(universe, updates, shards, chunk, batches):
    indices, deltas = _workload(universe, updates)
    batch = updates // batches
    records = []
    for refresh_batches in REFRESH_BATCHES:
        for cache_size in (256, 0):
            pipeline = ShardedPipeline(_factory(universe), shards=shards,
                                       chunk_size=chunk)
            with QueryService(pipeline,
                              refresh_every=refresh_batches * batch,
                              cache_size=cache_size) as service:
                query_s = 0.0
                queries = 0
                for start in range(0, batches * batch, batch):
                    service.ingest(indices[start:start + batch],
                                   deltas[start:start + batch])
                    begin = time.perf_counter()
                    for phi in PHI_SWEEP:
                        service.query("heavy_hitters", phi=phi)
                        service.query("norm", p=1)
                    query_s += time.perf_counter() - begin
                    queries += 2 * len(PHI_SWEEP)
                stats = service.stats
                records.append({
                    "structure": "cm-heavy-hitters",
                    "refresh_batches": refresh_batches,
                    "cache": cache_size > 0,
                    "queries": queries,
                    "queries_per_s": queries / query_s,
                    "hit_rate": stats.hit_rate,
                    "ingest_updates_per_s": stats.ingest_rate,
                    "snapshots": stats.snapshots_captured,
                })
    return records


def _speedup_record(universe, updates, shards, chunk, repeats=50):
    """Cached repeat-query latency vs uncached fold-and-query."""
    indices, deltas = _workload(universe, updates, seed=1)
    pipeline = ShardedPipeline(_factory(universe), shards=shards,
                               chunk_size=chunk)
    with QueryService(pipeline, cache_size=64) as service:
        service.ingest(indices, deltas)
        # Uncached fold-and-query: what inline consumers did before the
        # service existed — re-fold the shards, then answer.  Defeat
        # both the service cache and the engine's fold memo by asking
        # at a fresh epoch each time (one extra update per trial).
        uncached_s = 0.0
        extra = 0
        for trial in range(repeats):
            service.ingest([int(indices[trial])], [1])
            extra += 1
            begin = time.perf_counter()
            service.refresh()
            service.query("heavy_hitters")
            uncached_s += time.perf_counter() - begin
        # Cached repeats: same query, same epoch, warm cache.
        service.query("heavy_hitters")       # warm
        begin = time.perf_counter()
        for _ in range(repeats):
            service.query("heavy_hitters")
        cached_s = time.perf_counter() - begin
    return {
        "repeats": repeats,
        "uncached_ms_per_query": uncached_s / repeats * 1e3,
        "cached_ms_per_query": cached_s / repeats * 1e3,
        "speedup": uncached_s / cached_s,
    }


def _median_us(lanes: dict, repeats: int) -> dict:
    """Median µs per call of each lane, lanes interleaved per repeat."""
    times = {name: [] for name in lanes}
    for name, run in lanes.items():
        run()                                  # warmup, untimed
    for _ in range(repeats):
        for name, run in lanes.items():
            begin = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - begin)
    return {name: float(np.median(spent)) * 1e6
            for name, spent in times.items()}


def turnover_experiment(updates=40_960, repeats=40):
    """Clone and decode cost of one L0 epoch turnover (see module doc)."""
    rng = np.random.default_rng(np.random.SeedSequence((2, 0x7E4)))
    sampler = L0Sampler(TURNOVER_UNIVERSE, delta=0.1)
    sampler.update_many(
        rng.integers(0, TURNOVER_UNIVERSE, size=updates, dtype=np.int64),
        rng.integers(1, 8, size=updates, dtype=np.int64))
    spent = _median_us({"fast": lambda: clone(sampler),
                        "reference": lambda: _reference_clone(sampler)},
                       repeats)
    cloned = checkpoint(clone(sampler)) \
        == checkpoint(_reference_clone(sampler)) == checkpoint(sampler)
    rows = [dict(op="clone", fast_us=spent["fast"],
                 reference_us=spent["reference"], byte_identical=cloned)]
    # Decode: ``sample(count=1)`` on two twins; the reference twin's
    # level sets are None, so each level searches the whole universe.
    fast, reference = _reference_clone(sampler), _reference_clone(sampler)
    reference._level_set = lambda level: None
    spent = _median_us({"fast": lambda: fast.sample(count=1),
                        "reference": lambda: reference.sample(count=1)},
                       repeats)
    decoded = fast.sample(count=1)
    rows.append(dict(op="decode", fast_us=spent["fast"],
                     reference_us=spent["reference"],
                     byte_identical=(not decoded[0].failed and decoded
                                     == reference.sample(count=1))))
    for row in rows:
        row["speedup"] = row["reference_us"] / row["fast_us"]
    return rows


def turnover_complaints(rows) -> list[str]:
    """Every turnover row below the floor or not byte-identical."""
    return [f"{row['op']}: {row['speedup']:.2f}x < {TURNOVER_FLOOR}x "
            f"or not byte-identical ({row})" for row in rows
            if row["speedup"] < TURNOVER_FLOOR
            or not row["byte_identical"]]


def experiment(universe=1 << 13, updates=80_000, shards=4, chunk=4096,
               batches=10):
    return _serving_records(universe, updates, shards, chunk, batches)


def speedup_experiment(universe=1 << 13, updates=80_000, shards=4,
                       chunk=4096):
    return _speedup_record(universe, updates, shards, chunk)


def _rows(records):
    return [[r["structure"], r["refresh_batches"],
             "on" if r["cache"] else "off",
             f"{r['queries_per_s']:,.0f}", f"{r['hit_rate']:.0%}",
             f"{r['ingest_updates_per_s']:,.0f}"] for r in records]


def _turnover_rows(rows):
    return [[r["op"], f"{r['fast_us']:,.0f}", f"{r['reference_us']:,.0f}",
             f"{r['speedup']:.1f}x", r["byte_identical"]] for r in rows]


def write_report(records, speedup, turnover, path: str) -> dict:
    report = {
        "bench": "service",
        "schema": REPORT_SCHEMA,
        "cpu_count": os.cpu_count(),
        "refresh_batches": list(REFRESH_BATCHES),
        "rows": records,
        "cache_speedup": speedup,
        "turnover_universe": TURNOVER_UNIVERSE,
        "turnover_floor": TURNOVER_FLOOR,
        "turnover": turnover,
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def test_service_throughput(benchmark):
    records = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("E-SRV: queries/sec, refresh interval x cache",
                HEADER, _rows(records))
    for record in records:
        assert record["queries_per_s"] > 0
    cached = {(r["refresh_batches"]): r["queries_per_s"]
              for r in records if r["cache"]}
    uncached = {(r["refresh_batches"]): r["queries_per_s"]
                for r in records if not r["cache"]}
    # At the coarsest refresh interval most rounds repeat a held
    # epoch, so the cache must win outright.  (At refresh-every-batch
    # nearly every query lands on a fresh epoch and the two configs
    # are within noise of each other — not asserted.)
    coarsest = max(cached)
    assert cached[coarsest] > uncached[coarsest]


def test_cache_speedup(benchmark):
    speedup = benchmark.pedantic(speedup_experiment, rounds=1,
                                 iterations=1)
    assert speedup["speedup"] >= 10.0, speedup


def test_turnover(benchmark):
    rows = benchmark.pedantic(turnover_experiment,
                              kwargs=dict(repeats=10),
                              rounds=1, iterations=1)
    print_table("E-SRV: L0 epoch turnover", TURNOVER_HEADER,
                _turnover_rows(rows))
    assert {row["op"] for row in rows} == {"clone", "decode"}
    assert all(row["byte_identical"] for row in rows), rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--updates", type=int, default=80_000)
    parser.add_argument("--universe", type=int, default=1 << 13)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--chunk", type=int, default=4096)
    parser.add_argument("--batches", type=int, default=10)
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    records = experiment(args.universe, args.updates, args.shards,
                         args.chunk, args.batches)
    speedup = speedup_experiment(args.universe, args.updates,
                                 args.shards, args.chunk)
    turnover = turnover_experiment()
    report = write_report(records, speedup, turnover, args.out)
    print_table("E-SRV: queries/sec, refresh interval x cache",
                HEADER, _rows(records))
    print_table("E-SRV: L0 epoch turnover", TURNOVER_HEADER,
                _turnover_rows(turnover))
    print(f"\ncached repeat query: "
          f"{speedup['cached_ms_per_query']:.4f} ms/query vs "
          f"uncached fold-and-query "
          f"{speedup['uncached_ms_per_query']:.3f} ms/query "
          f"-> {speedup['speedup']:.0f}x")
    if speedup["speedup"] < 10.0:
        print("ERROR: cached repeat queries are supposed to be >= 10x "
              "below the uncached fold-and-query latency")
        return 1
    complaints = turnover_complaints(turnover)
    for complaint in complaints:
        print(f"ERROR: turnover floor violated: {complaint}")
    if complaints:
        return 1
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
