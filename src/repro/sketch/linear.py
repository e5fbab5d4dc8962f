"""Base class for linear sketches.

Every streaming structure the paper uses is a *linear* map
``L : R^n -> R^m`` maintained under turnstile updates.  Linearity is
what powers the constructions:

* Figure 1's recovery stage computes ``L'(z - zhat) = L'(z) - L'(zhat)``
  by sketching the (explicitly known) sparse vector ``zhat`` and
  subtracting;
* the communication protocols of Section 4 work because Alice can send
  ``L(u)`` and Bob can continue updating the same sketch with ``-v``.

Subclasses implement ``update_many`` (vectorised) and inherit
``update``, merging, subtraction and the ``sketch_vector`` helper that
sketches a dense or sparse vector through the same linear map.
"""

from __future__ import annotations

import numpy as np

from ..space.accounting import SpaceReport


class LinearSketch:
    """Abstract linear sketch over the universe ``[0, universe)``.

    Subclasses must set ``self.universe`` and ``self.seed`` in their
    constructor, implement :meth:`update_many`, :meth:`space_report`,
    and expose their counter arrays via :meth:`_state_arrays` so the
    generic merge/negate machinery can operate.
    """

    universe: int
    seed: int

    # -- updates -------------------------------------------------------------

    def update(self, index: int, delta) -> None:
        """Apply a single turnstile update ``x[index] += delta``."""
        self.update_many(np.array([index], dtype=np.int64),
                         # repro-lint: disable=R006 -- delta is
                         # intentionally polymorphic: int updates for the
                         # exact sketches, float scaling for the Lp
                         # pipeline; update_many casts to its state dtype.
                         np.array([delta]))

    def update_many(self, indices, deltas) -> None:
        raise NotImplementedError

    def sketch_vector(self, vector=None, indices=None, values=None) -> None:
        """Feed a whole vector (dense, or sparse as index/value arrays)."""
        if vector is not None:
            vec = np.asarray(vector)
            nz = np.flatnonzero(vec)
            if nz.size:
                self.update_many(nz, vec[nz])
        elif indices is not None:
            idx = np.asarray(indices, dtype=np.int64)
            if idx.size:
                self.update_many(idx, np.asarray(values))
        else:
            raise ValueError("provide a dense vector or index/value arrays")

    # -- linear algebra --------------------------------------------------------

    def _state_arrays(self) -> list[np.ndarray]:
        """The mutable counter arrays; subclasses return references."""
        raise NotImplementedError

    def _compatible(self, other: "LinearSketch") -> bool:
        return (type(self) is type(other)
                and self.universe == other.universe
                and self.seed == other.seed)

    def merge(self, other: "LinearSketch") -> None:
        """In-place addition: afterwards this sketches ``x + y``.

        Only sketches constructed with identical parameters and seed
        share a linear map, so anything else is a programming error.
        """
        if not self._compatible(other):
            raise ValueError("cannot merge sketches with different maps")
        for mine, theirs in zip(self._state_arrays(), other._state_arrays()):
            mine += theirs

    def subtract(self, other: "LinearSketch") -> None:
        """In-place subtraction: afterwards this sketches ``x - y``."""
        if not self._compatible(other):
            raise ValueError("cannot subtract sketches with different maps")
        for mine, theirs in zip(self._state_arrays(), other._state_arrays()):
            mine -= theirs

    def copy(self) -> "LinearSketch":
        """A clone sharing the linear map but with independent counters.

        Hash objects are immutable after construction, so a shallow copy
        plus fresh counter arrays is a correct deep-enough copy.  The
        shallow copy is a plain ``__dict__`` copy (what ``copy.copy``
        does, minus its ``__reduce_ex__`` round trip).
        """
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._replace_state([arr.copy() for arr in self._state_arrays()])
        return clone

    def _replace_state(self, arrays: list[np.ndarray]) -> None:
        raise NotImplementedError

    # -- space -----------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        raise NotImplementedError

    def space_bits(self) -> int:
        return self.space_report().total
