"""E-NET: the socket service — request throughput, ingest, catch-up.

Measured, against one in-process daemon (:class:`ServerThread` wrapping
a :class:`QueryService`, the exact stack ``repro daemon`` runs):

1. **Request throughput** — small queries per second as the number of
   concurrent clients grows.  The server is one event loop over one
   service lock, so this measures protocol + loop overhead, not
   parallel query execution; the win of more clients is pipelining the
   socket turnarounds, and it should not *collapse* as clients grow.
2. **Ingest throughput** — MB/s and updates/s of int64 update batches
   through the wire path (encode + socket + decode + apply + ack),
   compared against the library-call floor in BENCH_ingest.json.
3. **Follower catch-up** — a :class:`SocketFollower` subscribes after
   a base load, the leader keeps ingesting, and the follower must end
   byte-identical to the leader's over-the-wire checkpoint; the time
   from last ack to the follower reaching that epoch is the lag.
4. **L0 ingest with a follower** — the daemon's paper-structure serving
   path: ``L0Sampler`` batches of 4096 updates, a snapshot per batch
   and one live :class:`SocketFollower` taking every epoch's delta.
   The ack p50/p99 are the round trip of a closed loop: each ack is
   sent before that epoch's turnover (capture, prewarm, delta), but
   the next ingest waits on the service lock until the turnover is
   done, and client, server and follower share one process.  Reported,
   not floored: the old ack-after-turnover order is not kept to compare
   against.  The follower must end byte-identical.

Run as a script to emit a machine-readable ``BENCH_net.json``:

    PYTHONPATH=src python benchmarks/bench_net.py
"""

import argparse
import json
import os
import threading
import time

import numpy as np

from repro.core import L0Sampler
from repro.engine import ShardedPipeline
from repro.engine import checkpoint as snapshot_structure
from repro.net import ReproClient, ServerThread, SocketFollower
from repro.service import QueryService
from repro.sketch import CountMin

from _common import print_table

REQUEST_HEADER = ["clients", "requests", "wall s", "requests/s"]

INGEST_HEADER = ["batch", "batches", "MB/s", "updates/s"]

L0_HEADER = ["batch", "batches", "ack p50 ms", "ack p99 ms", "updates/s",
             "byte-identical", "gapless"]

#: Concurrent-client counts for the request-throughput sweep.
CLIENT_COUNTS = (1, 2, 4)

#: Bumped when the BENCH_net.json layout changes.
REPORT_SCHEMA = 2

#: The L0 row's universe and batch: the ``l0-turnstile`` daemon shape.
L0_UNIVERSE = 1 << 16
L0_BATCH = 4096


def _factory(universe: int, seed: int = 5):
    buckets = min(universe, 1 << 11)
    return lambda: CountMin(universe, buckets=buckets, rows=6, seed=seed)


def _workload(universe: int, updates: int, seed: int = 0):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x2E7)))
    indices = rng.integers(0, universe, size=updates, dtype=np.int64)
    deltas = rng.integers(1, 8, size=updates, dtype=np.int64)
    return indices, deltas


def _serve(universe: int, shards: int = 2, **server_kwargs):
    pipeline = ShardedPipeline(_factory(universe), shards=shards,
                               chunk_size=4096, backend="serial")
    service = QueryService(pipeline, refresh_every=None, keep=4,
                           cache_size=0)
    return service, ServerThread(service, **server_kwargs)


def _request_records(universe, requests):
    service, server = _serve(universe)
    records = []
    with service, server:
        with ReproClient(server.host, server.port) as warm:
            indices, deltas = _workload(universe, 20_000)
            warm.ingest(indices, deltas)
        for clients in CLIENT_COUNTS:
            per_client = max(1, requests // clients)
            barrier = threading.Barrier(clients + 1)

            def hammer():
                with ReproClient(server.host, server.port) as client:
                    barrier.wait(timeout=60)
                    for i in range(per_client):
                        client.query("point", index=i % universe)

            threads = [threading.Thread(target=hammer)
                       for _ in range(clients)]
            for t in threads:
                t.start()
            barrier.wait(timeout=60)
            begin = time.perf_counter()
            for t in threads:
                t.join()
            wall = time.perf_counter() - begin
            total = per_client * clients
            records.append({
                "clients": clients,
                "requests": total,
                "wall_s": wall,
                "requests_per_s": total / wall,
            })
    return records


def _ingest_record(universe, updates, batch):
    indices, deltas = _workload(universe, updates, seed=1)
    payload_bytes = indices.nbytes + deltas.nbytes
    service, server = _serve(universe)
    with service, server, \
            ReproClient(server.host, server.port) as client:
        begin = time.perf_counter()
        for start in range(0, updates, batch):
            stop = min(start + batch, updates)
            client.ingest(indices[start:stop], deltas[start:stop])
        wall = time.perf_counter() - begin
    return {
        "batch": batch,
        "batches": -(-updates // batch),
        "updates": updates,
        "payload_bytes": payload_bytes,
        "wall_s": wall,
        "mb_per_s": payload_bytes / wall / 1e6,
        "updates_per_s": updates / wall,
    }


def _follower_record(universe, updates, batches):
    indices, deltas = _workload(universe, updates, seed=2)
    batch = updates // batches
    service, server = _serve(universe)
    with service, server, \
            ReproClient(server.host, server.port) as client:
        client.ingest(indices[:batch], deltas[:batch])
        with SocketFollower(server.host, server.port) as follower:
            final_epoch = batch
            for start in range(batch, batches * batch, batch):
                reply = client.ingest(indices[start:start + batch],
                                      deltas[start:start + batch])
                final_epoch = reply.result["epoch"]
            begin = time.perf_counter()
            follower.wait_for_epoch(final_epoch, timeout=120)
            catchup_s = time.perf_counter() - begin
            wire = client.checkpoint()
            restored = ShardedPipeline.restore(wire)
            identical = (snapshot_structure(restored.merged())
                         == snapshot_structure(follower.merged()))
            restored.close()
            applied = len(follower.acked_epochs) - 1
    return {
        "deltas": applied,
        "final_epoch": final_epoch,
        "catchup_s": catchup_s,
        "byte_identical": bool(identical),
    }


def l0_follower_experiment(batches=64):
    universe, batch = L0_UNIVERSE, L0_BATCH
    indices, deltas = _workload(universe, batches * batch, seed=3)
    pipeline = ShardedPipeline(
        lambda: L0Sampler(universe, delta=0.1, seed=0), shards=2,
        chunk_size=batch, backend="serial")
    service = QueryService(pipeline, refresh_every=1, keep=4)
    acks = []
    with service, ServerThread(service) as server, \
            ReproClient(server.host, server.port) as client, \
            SocketFollower(server.host, server.port) as follower:
        begin = time.perf_counter()
        for start in range(0, batches * batch, batch):
            sent = time.perf_counter()
            reply = client.ingest(indices[start:start + batch],
                                  deltas[start:start + batch])
            acks.append(time.perf_counter() - sent)
            follower.poll(timeout=0)
        wall = time.perf_counter() - begin
        final_epoch = reply.result["epoch"]
        follower.wait_for_epoch(final_epoch, timeout=120)
        with ShardedPipeline.restore(client.checkpoint()) as leader:
            identical = (snapshot_structure(leader.merged())
                         == snapshot_structure(follower.merged()))
        gapless = follower.acked_epochs == tuple(
            range(0, final_epoch + 1, batch))
    acks_ms = np.array(acks) * 1e3
    return {
        "structure": "L0Sampler",
        "universe": universe,
        "batch": batch,
        "batches": batches,
        "ack_p50_ms": float(np.percentile(acks_ms, 50)),
        "ack_p99_ms": float(np.percentile(acks_ms, 99)),
        "updates_per_s": batches * batch / wall,
        "byte_identical": bool(identical),
        "gapless": bool(gapless),
    }


def request_experiment(universe=1 << 11, requests=2000):
    return _request_records(universe, requests)


def ingest_experiment(universe=1 << 11, updates=200_000, batch=8192):
    return _ingest_record(universe, updates, batch)


def follower_experiment(universe=1 << 11, updates=80_000, batches=8):
    return _follower_record(universe, updates, batches)


def _request_rows(records):
    return [[r["clients"], f"{r['requests']:,}", f"{r['wall_s']:.2f}",
             f"{r['requests_per_s']:,.0f}"] for r in records]


def _ingest_rows(record):
    return [[f"{record['batch']:,}", record["batches"],
             f"{record['mb_per_s']:,.1f}",
             f"{record['updates_per_s']:,.0f}"]]


def _l0_rows(record):
    return [[f"{record['batch']:,}", record["batches"],
             f"{record['ack_p50_ms']:.2f}", f"{record['ack_p99_ms']:.2f}",
             f"{record['updates_per_s']:,.0f}", record["byte_identical"],
             record["gapless"]]]


def write_report(requests, ingest, follower, l0_follower,
                 path: str) -> dict:
    report = {
        "bench": "net",
        "schema": REPORT_SCHEMA,
        "cpu_count": os.cpu_count(),
        "client_counts": list(CLIENT_COUNTS),
        "request_rows": requests,
        "ingest_rows": [ingest],
        "follower": follower,
        "l0_follower_rows": [l0_follower],
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def test_request_throughput(benchmark):
    records = benchmark.pedantic(request_experiment, rounds=1,
                                 iterations=1,
                                 kwargs={"requests": 400})
    print_table("E-NET: requests/s vs concurrent clients",
                REQUEST_HEADER, _request_rows(records))
    for record in records:
        assert record["requests_per_s"] > 0
    # More clients must not collapse the single-loop server: the
    # 4-client rate stays above a third of the 1-client rate.
    by_clients = {r["clients"]: r["requests_per_s"] for r in records}
    assert by_clients[4] > by_clients[1] / 3


def test_ingest_throughput(benchmark):
    record = benchmark.pedantic(ingest_experiment, rounds=1,
                                iterations=1,
                                kwargs={"updates": 50_000})
    print_table("E-NET: wire ingest throughput", INGEST_HEADER,
                _ingest_rows(record))
    assert record["updates_per_s"] > 0


def test_follower_catchup(benchmark):
    record = benchmark.pedantic(follower_experiment, rounds=1,
                                iterations=1,
                                kwargs={"updates": 20_000})
    assert record["byte_identical"] is True
    assert record["deltas"] >= 1


def test_l0_ingest_with_follower(benchmark):
    record = benchmark.pedantic(l0_follower_experiment, rounds=1,
                                iterations=1, kwargs={"batches": 8})
    print_table("E-NET: L0 ingest with a live follower", L0_HEADER,
                _l0_rows(record))
    assert record["byte_identical"] is True
    assert record["gapless"] is True
    assert record["updates_per_s"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--universe", type=int, default=1 << 11)
    parser.add_argument("--requests", type=int, default=2000,
                        help="total requests per client-count row")
    parser.add_argument("--updates", type=int, default=200_000,
                        help="ingest-throughput stream length")
    parser.add_argument("--batch", type=int, default=8192,
                        help="ingest batch size")
    parser.add_argument("--follower-updates", type=int, default=80_000)
    parser.add_argument("--batches", type=int, default=8,
                        help="follower catch-up chain length")
    parser.add_argument("--out", default="BENCH_net.json")
    args = parser.parse_args(argv)

    requests = request_experiment(args.universe, args.requests)
    ingest = ingest_experiment(args.universe, args.updates, args.batch)
    follower = follower_experiment(args.universe, args.follower_updates,
                                   args.batches)
    l0_follower = l0_follower_experiment()

    print_table("E-NET: requests/s vs concurrent clients",
                REQUEST_HEADER, _request_rows(requests))
    print_table("E-NET: wire ingest throughput", INGEST_HEADER,
                _ingest_rows(ingest))
    print(f"\nfollower: caught up {follower['deltas']} deltas to epoch "
          f"{follower['final_epoch']:,} in {follower['catchup_s']:.3f}s "
          f"(byte-identical: {follower['byte_identical']})")
    print_table("E-NET: L0 ingest with a live follower", L0_HEADER,
                _l0_rows(l0_follower))

    report = write_report(requests, ingest, follower, l0_follower,
                          args.out)
    print(f"\nwrote {args.out} "
          f"({len(json.dumps(report))} bytes of JSON)")
    if not (follower["byte_identical"] and l0_follower["byte_identical"]
            and l0_follower["gapless"]):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
