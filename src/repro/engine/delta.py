"""Delta checkpoints: the counter-array difference between two epochs.

The paper's linearity argument makes this almost free: a sketch of the
interim stream *is* the difference between two checkpoints, so instead
of re-serializing the full counter arrays every epoch the pipeline can
emit only what changed.  A ``KIND_DELTA`` wire frame records, per state
array, an exact reversible encoding of ``now - base``:

* integer arrays (kinds ``i``/``u``) — wrapping subtraction on an
  unsigned view of the same width.  Addition mod ``2**N`` is exact and
  warning-free, and an untouched counter encodes to zero bytes, which
  is what makes sparse deltas compress so well.
* everything else (float, complex, bool) — XOR of the raw byte
  patterns, stored as a ``u1`` section.  IEEE ``base + (now - base)``
  is *not* byte-identical in general, and bool wrap-add can fabricate
  byte values other than 0/1; XOR sidesteps both and still encodes
  "unchanged" as zeros.

Every delta carries SHA-256 digests of the base and target states, so
applying a delta to the wrong base (or out of order) fails loudly with
a typed error instead of silently corrupting a follower.  ``apply``
verifies both digests: the result is byte-identical to the leader's
arrays *by construction and by check*.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..wire import KIND_DELTA, WireError, decode_frame, encode_frame

#: Per-array encodings a delta section may declare.
ENCODINGS = ("wrap", "xor")


class DeltaError(ValueError):
    """The delta frame cannot be applied to this base state."""


class WrongBaseDelta(DeltaError):
    """The delta was computed against a different base state."""


class OutOfOrderDelta(DeltaError):
    """The delta chain skips or repeats an epoch."""


def state_digest(arrays) -> str:
    """SHA-256 over every array's dtype, shape and raw bytes — the
    identity of a state, used to pin deltas to their base/target."""
    digest = hashlib.sha256()
    for array in arrays:
        arr = np.ascontiguousarray(array)
        digest.update(arr.dtype.str.encode("ascii"))
        digest.update(repr(arr.shape).encode("ascii"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _encoding_for(dtype: np.dtype) -> str:
    return "wrap" if dtype.kind in "iu" else "xor"


def _diff(base: np.ndarray, now: np.ndarray) -> np.ndarray:
    """Exact reversible difference section for one array."""
    if _encoding_for(base.dtype) == "wrap":
        unsigned = f"u{base.dtype.itemsize}"
        raw = now.view(unsigned) - base.view(unsigned)
        return raw.view(base.dtype)
    return np.bitwise_xor(base.view(np.uint8).reshape(-1),
                          now.view(np.uint8).reshape(-1))


def _apply(base: np.ndarray, section: np.ndarray,
           encoding: str, index: int) -> np.ndarray:
    if encoding == "wrap":
        if section.dtype != base.dtype or section.shape != base.shape:
            raise DeltaError(
                f"delta section {index} is {section.dtype}{section.shape}, "
                f"base array is {base.dtype}{base.shape}")
        unsigned = f"u{base.dtype.itemsize}"
        raw = base.view(unsigned) + section.view(unsigned)
        return raw.view(base.dtype)
    if encoding == "xor":
        flat = base.view(np.uint8).reshape(-1)
        if section.dtype != np.uint8 or section.shape != flat.shape:
            raise DeltaError(
                f"delta section {index} is {section.dtype}{section.shape}, "
                f"expected u1({flat.shape[0]},) for a xor section")
        return np.bitwise_xor(flat, section).view(base.dtype).reshape(
            base.shape)
    raise DeltaError(f"delta section {index} uses unknown encoding "
                     f"{encoding!r}")


def encode(meta: dict, base_arrays, now_arrays, base_digest: str,
           now_digest: str, compress: str = "zlib") -> bytes:
    """Encode ``now - base`` as a ``KIND_DELTA`` frame.

    ``meta`` carries the caller's identity fields (class, params,
    ``base_epoch``, ``epoch``, ...); this function adds the two states'
    :func:`state_digest` values, which the caller passes in (a pipeline
    already holds its base's digest: the previous delta's target), and
    the per-array encodings.  Deltas default to zlib because their
    payloads are mostly zeros.
    """
    base = [np.ascontiguousarray(a) for a in base_arrays]
    now = [np.ascontiguousarray(a) for a in now_arrays]
    if len(base) != len(now):
        raise DeltaError(
            f"base has {len(base)} state arrays, target has {len(now)}")
    sections = []
    encodings = []
    for index, (old, new) in enumerate(zip(base, now)):
        if old.dtype != new.dtype or old.shape != new.shape:
            raise DeltaError(
                f"state array {index} changed layout between epochs: "
                f"{old.dtype}{old.shape} -> {new.dtype}{new.shape}")
        sections.append(_diff(old, new))
        encodings.append(_encoding_for(old.dtype))
    header = dict(meta)
    header["base_digest"] = base_digest
    header["target_digest"] = now_digest
    header["encodings"] = encodings
    return encode_frame(KIND_DELTA, header, sections, compress=compress)


def decode(blob: bytes):
    """Decode and structurally validate a delta frame.

    Returns ``(header, sections)``.  Raises :class:`DeltaError` for
    anything that is not a well-formed delta.
    """
    try:
        frame = decode_frame(blob, expect_kind=KIND_DELTA)
    except WireError as exc:
        raise DeltaError(f"not a delta frame: {exc}") from exc
    header = frame.header
    encodings = header.get("encodings")
    if (not isinstance(encodings, list)
            or len(encodings) != len(frame.sections)
            or any(enc not in ENCODINGS for enc in encodings)):
        raise DeltaError(
            f"delta frame declares encodings {encodings!r} for "
            f"{len(frame.sections)} sections")
    for key in ("base_digest", "target_digest", "base_epoch", "epoch"):
        if key not in header:
            raise DeltaError(f"delta frame header lacks {key!r}")
    return header, frame.sections


def apply(base_arrays, header: dict, sections: list, *,
          base_digest: str | None = None) -> list:
    """Apply one delta, as :func:`decode` returned it, to a base state.

    Taking the decoded ``(header, sections)`` lets a caller that read
    the header first (to check epochs and identity) apply the frame
    without decoding and inflating it twice.  ``base_digest`` is the
    caller's :func:`state_digest` of ``base_arrays`` when it holds one
    (the previous apply's verified target digest), which skips hashing
    the base again.  Returns the new arrays,
    byte-identical to the state the delta was encoded from.  Raises
    :class:`WrongBaseDelta` when the base digest does not match and
    :class:`DeltaError` when the result digest fails to verify (a
    corrupted but well-formed frame).
    """
    base = [np.ascontiguousarray(a) for a in base_arrays]
    if base_digest is None:
        base_digest = state_digest(base)
    if base_digest != header["base_digest"]:
        raise WrongBaseDelta(
            f"delta for epochs {header['base_epoch']}->{header['epoch']} "
            f"was computed against a different base state")
    if len(sections) != len(base):
        raise DeltaError(
            f"delta carries {len(sections)} sections for a "
            f"{len(base)}-array state")
    out = [_apply(old, section, encoding, index)
           for index, (old, section, encoding)
           in enumerate(zip(base, sections, header["encodings"]))]
    if state_digest(out) != header["target_digest"]:
        raise DeltaError(
            f"delta for epochs {header['base_epoch']}->{header['epoch']} "
            f"applied cleanly but the result digest does not match "
            f"(corrupted frame)")
    return out
