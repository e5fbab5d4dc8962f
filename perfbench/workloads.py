"""Seeded inputs for the workloads.

Every generator is a pure function of the workload seed: batch ``k`` and
query ``k`` of a sequence are the same on every run with that seed,
however fast the daemon answers.  The daemon itself always runs with its
default structure seed; it receives only these generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spec:
    name: str
    structure: str
    universe: int
    flags: tuple            # extra ``repro daemon`` flags
    #: Run the daemon and the generator on one CPU (see ``run.py``).
    one_cpu: bool = False


#: ``dashboard-mix`` refreshes its snapshot every 65536 updates, every
#: second or two: each refresh prewarms ``top`` (tens of ms), so a much
#: shorter period would make ``top`` most of the daemon's work.
DASH_REFRESH = 65536

SPECS = {
    "l0-turnstile": Spec("l0-turnstile", "l0", 65536, ()),
    "duplicates-l1": Spec("duplicates-l1", "l1", 16384, ()),
    "dashboard-mix": Spec("dashboard-mix", "count-sketch", 65536,
                          ("--refresh-every", str(DASH_REFRESH)),
                          one_cpu=True),
}

SHARDS = 2

L0_BATCH = 4096
L0_SAMPLES = 4
#: ``sample_l0`` after every 2nd batch: a 40-second run then holds over
#: 200 queries, so ``query_p95_ms`` has ten or more samples beyond it.
L0_QUERY_EVERY = 2

L1_BATCH = 2048
L1_QUERY_EVERY = 8

DASH_BATCH = 64
DASH_WARM = 4096
DASH_QUERIES_PER_BATCH = 2
DASH_TOP_SHARE = 0.05
#: Point queries ask for the 64 hottest keys only, the panels of a
#: dashboard, so they fit the daemon's 128-entry result cache: each
#: snapshot misses once per key and then hits.  Over all Zipf keys about
#: half would miss, and the query median would sit between the hit and
#: the miss latency, moving from run to run.
DASH_PANEL = 64
ZIPF_A = 1.2


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream)))


def _zipf_keys(rng, permutation, size: int) -> np.ndarray:
    """Zipf(1.2) ranks mapped through a fixed permutation, so the hot
    keys are scattered over the universe rather than clustered at 0."""
    ranks = (rng.zipf(ZIPF_A, size=size) - 1) % permutation.size
    return permutation[ranks]


class TurnstileBatches:
    """``l0-turnstile``: 4096-update batches of Zipf-skewed inserts plus
    deletions that cancel earlier inserts exactly, so coordinates keep
    entering and leaving the support.  Batch 0 is all inserts; later
    batches cancel 2048 live inserts each, which holds the live pool at
    4096 inserts."""

    def __init__(self, seed: int, universe: int):
        self._rng = _rng(seed, 0x10)
        self._permutation = self._rng.permutation(universe).astype(np.int64)
        self._pool_idx = np.empty(0, dtype=np.int64)
        self._pool_dlt = np.empty(0, dtype=np.int64)

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        rng = self._rng
        cancel = min(L0_BATCH // 2, self._pool_idx.size // 2)
        fresh = L0_BATCH - cancel
        ins_idx = _zipf_keys(rng, self._permutation, fresh)
        ins_dlt = rng.integers(1, 5, size=fresh, dtype=np.int64)
        gone = rng.choice(self._pool_idx.size, size=cancel, replace=False)
        del_idx = self._pool_idx[gone]
        del_dlt = -self._pool_dlt[gone]
        keep = np.ones(self._pool_idx.size, dtype=bool)
        keep[gone] = False
        self._pool_idx = np.concatenate([self._pool_idx[keep], ins_idx])
        self._pool_dlt = np.concatenate([self._pool_dlt[keep], ins_dlt])
        order = rng.permutation(L0_BATCH)
        return (np.concatenate([ins_idx, del_idx])[order],
                np.concatenate([ins_dlt, del_dlt])[order])


class LetterBatches:
    """``duplicates-l1``: uniform letters as +1 updates, 2048 a batch.
    The stream passes the alphabet size after 8 batches, after which a
    duplicate must exist (Theorem 3's regime)."""

    def __init__(self, seed: int, universe: int):
        self._rng = _rng(seed, 0x11)
        self._universe = universe

    @staticmethod
    def baseline(universe: int) -> tuple[np.ndarray, np.ndarray]:
        """Theorem 3's reduction: x_i = occurrences(i) - 1."""
        return (np.arange(universe, dtype=np.int64),
                np.full(universe, -1, dtype=np.int64))

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        letters = self._rng.integers(0, self._universe, size=L1_BATCH,
                                     dtype=np.int64)
        return letters, np.ones(L1_BATCH, dtype=np.int64)


class Dashboard:
    """``dashboard-mix``: 64-update Zipf batches, each followed by
    ``DASH_QUERIES_PER_BATCH`` queries that are ``point`` on the
    ``DASH_PANEL`` hottest keys (Zipf-weighted) except for a ``top``
    share."""

    def __init__(self, seed: int, universe: int):
        self._perm = _rng(seed, 0x12).permutation(universe).astype(np.int64)
        self._ingest = _rng(seed, 0x13)
        self._query = _rng(seed, 0x14)
        self._warm = _rng(seed, 0x15)

    def warm_batch(self) -> tuple[np.ndarray, np.ndarray]:
        keys = _zipf_keys(self._warm, self._perm, DASH_WARM)
        return keys, np.ones(DASH_WARM, dtype=np.int64)

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        keys = _zipf_keys(self._ingest, self._perm, DASH_BATCH)
        return keys, np.ones(DASH_BATCH, dtype=np.int64)

    def query(self) -> tuple[str, dict]:
        if self._query.random() < DASH_TOP_SHARE:
            return "top", {}
        key = int(_zipf_keys(self._query, self._perm[:DASH_PANEL], 1)[0])
        return "point", {"index": key}
