"""Foundational numeric types: parameter vectors, model matrices, seeded streams.

Model parameters are plain 1-D float64 numpy arrays throughout the package;
:func:`as_vector` is the boundary check that enforces shape and finiteness.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_SEED_MASK = (1 << 64) - 1


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Validate and convert a parameter vector to a 1-D float64 array.

    Raises ValueError on wrong rank, non-finite entries, or (when ``dim``
    is given) a dimension mismatch.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("parameter vector contains NaN or Inf")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


def as_model_matrix(models, finite: bool = True) -> np.ndarray:
    """Validate a stack of parameter vectors as an (m, d) float64 matrix.

    ``finite=False`` checks the shape only, for a caller that checks
    finiteness on values it computes anyway.
    """
    arr = np.asarray(models, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"model set must be 2-D (m, d), got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("model set is empty")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError("model set contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible randomness stream.

    The same (seed, label) pair always yields an identical draw sequence,
    across runs and platforms.  Streams with different labels are
    statistically independent, which is how the harness isolates e.g.
    partitioning noise from attack noise.  A stream is single-owner: create
    one generator per consumer.
    """

    seed: int
    label: str

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the head of this stream: its seed sequence
        takes the masked seed and the label's SHA-256 digest as five 64-bit values."""
        values = np.empty(5, dtype="<u8")
        values[0] = self.seed & _SEED_MASK
        values[1:] = np.frombuffer(hashlib.sha256(self.label.encode("utf-8")).digest(), dtype="<u8")
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_uint32_words(values))))

    def child(self, suffix: str) -> "RngStream":
        """Derive a sub-stream, e.g. ``stream.child("iter3/device7")``."""
        return RngStream(self.seed, f"{self.label}/{suffix}")


def _uint32_words(values: np.ndarray) -> np.ndarray:
    """The uint32 words ``SeedSequence`` makes of a list of ints in [0, 2**64), which
    it takes faster as an array: each value's low word, then its high word unless zero."""
    halves = np.asarray(values, dtype="<u8").view("<u4").reshape(-1, 2)
    keep = halves != 0
    keep[:, 0] = True
    return halves[keep]


def signed_direction(current, previous) -> np.ndarray:
    """Per-coordinate change direction: +1 where current > previous, else -1.

    Exact ties map to +1 so downstream attack crafting stays deterministic.
    """
    cur = as_vector(current)
    prev = as_vector(previous, dim=cur.shape[0])
    return np.where(cur >= prev, 1.0, -1.0)
