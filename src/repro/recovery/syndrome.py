"""Exact s-sparse recovery via syndromes (the paper's Lemma 5).

Lemma 5: for ``1 <= s <= n`` there is a random linear function
``L : R^n -> R^k`` with ``k = O(s)``, generated from ``O(k log n)``
random bits, and a recovery procedure that (a) returns ``x' = x`` with
probability 1 whenever ``x`` is s-sparse, and (b) otherwise returns
DENSE with high probability.

Construction (Prony / Reed–Solomon syndrome decoding over GF(p)):

* **Measurements.**  ``2s`` deterministic power sums
  ``S_j = sum_i x_i * a_i^j  (mod p)`` with locators ``a_i = i + 1``
  (distinct, non-zero), plus a few random polynomial fingerprints
  ``F_r = sum_i x_i * b_r^i`` used as the DENSE certificate.
* **Decoding.**  If ``x`` has support ``{i_1..i_L}``, the syndromes
  satisfy the length-L recurrence with connection polynomial
  ``prod_k (1 - a_{i_k} X)``.  Berlekamp–Massey recovers it;
  root-finding over the locator set gives the support; a Vandermonde
  solve gives the values; the fingerprints then either confirm the
  candidate or report DENSE.

For s-sparse inputs every step is exact arithmetic, so recovery is
deterministic — matching the "probability 1" clause.  For dense inputs
the fingerprint check fails except with probability ``O(n/p)`` per
fingerprint, i.e. the low-probability regime of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hashing.field import DEFAULT_FIELD
from ..space.accounting import SpaceReport, counter_bits
from ..sketch.linear import LinearSketch
from ..sketch.serialize import register
from .berlekamp_massey import berlekamp_massey

#: Sentinel returned when the sketched vector is not s-sparse.
DENSE = "DENSE"

#: Most field terms one exact uint64 sum adds: every term is below
#: ``p < 2**31``, so fewer than ``2**33`` of them cannot wrap.
EXACT_SUM_TERMS = 1 << 32


@dataclass
class RecoveryResult:
    """Outcome of sparse recovery: a sparse vector or the DENSE verdict."""

    dense: bool
    indices: np.ndarray | None = None
    values: np.ndarray | None = None

    @property
    def is_zero(self) -> bool:
        return not self.dense and self.indices.size == 0

    def to_dense(self, universe: int) -> np.ndarray:
        if self.dense:
            raise ValueError("DENSE result has no vector")
        vec = np.zeros(universe, dtype=np.int64)
        vec[self.indices] = self.values
        return vec


@register
class SyndromeSparseRecovery(LinearSketch):
    """Lemma 5 structure: 2s syndromes + ``fingerprints`` certificates.

    Space: ``O(s)`` field counters of ``O(log n)`` bits, plus
    ``O(log n)`` seed bits per fingerprint — the ``O(s log n)`` total
    the paper charges in Theorem 4.
    """

    def __init__(self, universe: int, sparsity: int, seed: int = 0,
                 fingerprints: int = 3):
        if sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        self.universe = int(universe)
        self.sparsity = int(sparsity)
        self.seed = int(seed)
        self.field = DEFAULT_FIELD
        if self.universe + 1 >= int(self.field.p):
            raise ValueError("universe too large for the recovery field")
        self.num_fingerprints = int(fingerprints)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5D)))
        self._fp_points = np.array(
            [rng.integers(2, int(self.field.p)) for _ in range(fingerprints)],
            dtype=np.uint64)
        self.syndromes = np.zeros(2 * self.sparsity, dtype=np.uint64)
        self.fp_values = np.zeros(fingerprints, dtype=np.uint64)

    # -- LinearSketch plumbing ---------------------------------------------------

    def _params(self) -> dict:
        return dict(universe=self.universe, sparsity=self.sparsity,
                    seed=self.seed, fingerprints=self.num_fingerprints)

    def _state_arrays(self) -> list[np.ndarray]:
        return [self.syndromes, self.fp_values]

    def _replace_state(self, arrays) -> None:
        self.syndromes, self.fp_values = arrays

    def _compatible(self, other) -> bool:
        return (type(self) is type(other)
                and self.universe == other.universe
                and self.sparsity == other.sparsity
                and self.seed == other.seed)

    def merge(self, other) -> None:
        if not self._compatible(other):
            raise ValueError("cannot merge sketches with different maps")
        self.syndromes = self.field.add(self.syndromes, other.syndromes)
        self.fp_values = self.field.add(self.fp_values, other.fp_values)

    def subtract(self, other) -> None:
        if not self._compatible(other):
            raise ValueError("cannot subtract sketches with different maps")
        self.syndromes = self.field.sub(self.syndromes, other.syndromes)
        self.fp_values = self.field.sub(self.fp_values, other.fp_values)

    # -- updates --------------------------------------------------------------------

    def update_many(self, indices, deltas) -> None:
        """Power sums and fingerprints as exact uint64 field sums.

        Every term is a field element below ``p < 2**31``, so a uint64
        sum of fewer than ``2**33`` of them cannot wrap and one final
        remainder gives the field sum; batches are chunked at
        :data:`EXACT_SUM_TERMS` to keep that true.  Byte-identical to
        :meth:`_reference_update_many`.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        dlt = self.field.reduce_signed(np.asarray(deltas, dtype=np.int64))
        for lo in range(0, idx.size, EXACT_SUM_TERMS):
            self._add_exact(idx[lo:lo + EXACT_SUM_TERMS],
                            dlt[lo:lo + EXACT_SUM_TERMS])

    def _add_exact(self, idx: np.ndarray, dlt: np.ndarray) -> None:
        """Fold one chunk of under ``2**33`` reduced updates in."""
        p = self.field.p
        locators = (idx + 1).astype(np.uint64)
        power = dlt.copy()                     # u * a^0
        sums = np.empty(self.syndromes.size, dtype=np.uint64)
        for j in range(sums.size):
            sums[j] = power.sum(dtype=np.uint64)
            power *= locators                  # < p^2 < 2^62
            power %= p
        self.syndromes[:] = self.field.add(self.syndromes, sums % p)
        from ..sketch.l0_estimator import _pow_many

        for r, b in enumerate(self._fp_points):
            contrib = self.field.mul(dlt, _pow_many(self.field, b, idx))
            self.fp_values[r] = self.field.add(
                self.fp_values[r], contrib.sum(dtype=np.uint64) % p)

    def _reference_update_many(self, indices, deltas) -> None:
        """Oracle for :meth:`update_many`: Python big-int sums.

        Each power sum and fingerprint is reduced through
        ``sum(dtype=np.object_)``, which is exact for any batch size.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        dlt = self.field.reduce_signed(np.asarray(deltas, dtype=np.int64))
        locators = (idx + 1).astype(np.uint64)
        # Power sums: S_j += sum u * a^j, built up one power at a time.
        power = dlt % self.field.p  # u * a^0
        for j in range(self.syndromes.size):
            total = np.uint64(int(power.sum(dtype=np.object_)) % int(self.field.p))
            self.syndromes[j] = self.field.add(self.syndromes[j], total)
            power = self.field.mul(power, locators)
        # Fingerprints: F_r += sum u * b_r^i.
        from ..sketch.l0_estimator import _pow_many

        for r, b in enumerate(self._fp_points):
            contrib = self.field.mul(dlt, _pow_many(self.field, b, idx))
            total = np.uint64(int(contrib.sum(dtype=np.object_)) % int(self.field.p))
            self.fp_values[r] = self.field.add(self.fp_values[r], total)

    # -- decoding --------------------------------------------------------------------

    def recover(self, candidates: np.ndarray | None = None) -> RecoveryResult:
        """Decode: the exact vector if s-sparse, otherwise DENSE (whp).

        ``candidates`` (internal) restricts the root search to the given
        coordinates, for callers that know the sketched vector is
        supported on them.  A candidate is accepted only when the
        restricted search finds all ``degree`` roots and the
        fingerprints verify, so the answer equals the full-universe
        search whenever that search's support lies in ``candidates``.
        """
        if not self.syndromes.any() and not self.fp_values.any():
            return RecoveryResult(dense=False,
                                  indices=np.array([], dtype=np.int64),
                                  values=np.array([], dtype=np.int64))
        p = int(self.field.p)
        connection = berlekamp_massey(self.syndromes.tolist(), p)
        degree = len(connection) - 1
        if degree > self.sparsity or degree == 0:
            return RecoveryResult(dense=True)
        support = self._find_support(connection, candidates)
        if support is None:
            return RecoveryResult(dense=True)
        values = self._solve_values(support, degree)
        if values is None:
            return RecoveryResult(dense=True)
        candidate = RecoveryResult(dense=False, indices=support, values=values)
        if not self._verify(candidate):
            return RecoveryResult(dense=True)
        return candidate

    def _find_support(self, connection: list[int],
                      candidates: np.ndarray | None = None
                      ) -> np.ndarray | None:
        """Roots of the reversed connection polynomial among the locators.

        ``C(X) = prod (1 - a_k X)`` so the locators are the roots of the
        reversed polynomial ``X^L C(1/X) = prod (X - a_k)``.  We evaluate
        it with vectorised Horner at every locator ``a = 1..n``, or only
        at ``i + 1`` for ``i`` in ``candidates``.  The polynomial is
        monic of degree ``L``, so it has at most ``L`` roots: finding
        ``L`` of them among the candidates finds them all.  Indices come
        back sorted either way.
        """
        reversed_coeffs = list(reversed(connection))
        if candidates is None:
            locators = np.arange(1, self.universe + 1, dtype=np.uint64)
        else:
            locators = np.asarray(candidates).astype(np.uint64) + 1
        roots = np.flatnonzero(
            self.field.poly_eval(reversed_coeffs, locators) == 0)
        if roots.size != len(connection) - 1:
            return None
        if candidates is None:
            return roots.astype(np.int64)    # position i is locator i + 1
        return np.sort(np.asarray(candidates)[roots].astype(np.int64))

    def _solve_values(self, support: np.ndarray,
                      degree: int) -> np.ndarray | None:
        """Solve the Vandermonde system S_j = sum_k c_k a_k^j, j < L."""
        p = int(self.field.p)
        locators = [int(i) + 1 for i in support.tolist()]
        size = len(locators)
        # Build augmented matrix rows: [a_1^j ... a_L^j | S_j]
        matrix = []
        for j in range(size):
            row = [pow(a, j, p) for a in locators]
            row.append(int(self.syndromes[j]))
            matrix.append(row)
        solution = _solve_linear_mod(matrix, p)
        if solution is None:
            return None
        signed = np.array(
            [v - p if v > p // 2 else v for v in solution], dtype=np.int64)
        if np.any(signed == 0):
            return None  # a true support coordinate cannot be zero
        return signed

    def _verify(self, candidate: RecoveryResult) -> bool:
        """Check the random fingerprints against the candidate vector.

        The candidate has at most ``sparsity`` entries, so exact
        Python-int arithmetic beats any vectorised power evaluation.
        """
        p = int(self.field.p)
        terms = [(int(v) % p, int(i)) for v, i in zip(candidate.values,
                                                       candidate.indices)]
        return all(
            sum(v * pow(int(b), i, p) for v, i in terms) % p == int(f)
            for b, f in zip(self._fp_points, self.fp_values))

    # -- space ------------------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            label=f"syndrome-recovery(s={self.sparsity})",
            counter_count=self.syndromes.size + self.fp_values.size,
            bits_per_counter=counter_bits(self.universe),
            seed_bits=31 * self.num_fingerprints,
        )


def _solve_linear_mod(matrix: list[list[int]], p: int) -> list[int] | None:
    """Gaussian elimination over GF(p) on an augmented matrix.

    Returns the solution vector or None if the system is singular.
    Sizes here are at most the sparsity bound, so Python-int arithmetic
    is plenty fast.
    """
    rows = len(matrix)
    cols = rows  # square system
    m = [row[:] for row in matrix]
    for col in range(cols):
        pivot = next((r for r in range(col, rows) if m[r][col] % p), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], p - 2, p)
        m[col] = [(v * inv) % p for v in m[col]]
        for r in range(rows):
            if r != col and m[r][col] % p:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return [m[r][cols] % p for r in range(rows)]
