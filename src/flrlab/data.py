"""Dataset ingestion (IDX, CSV), synthetic blobs, non-IID partitioning, batching."""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_LABEL_MAGIC = 0x00000801
IDX_IMAGE_MAGIC = 0x00000803


class IdxFormatError(ValueError):
    """Base class for IDX parse failures."""


class BadMagicError(IdxFormatError):
    pass


class TruncatedPayloadError(IdxFormatError):
    pass


class CountMismatchError(IdxFormatError):
    pass


class CsvFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """A labelled dataset: (n, q) float features and n integer labels in [0, L).

    The features are checked to be finite through their min and max, which are
    NaN or infinite when any entry is, so the check builds no mask of them.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("labels must be 1-D with one entry per feature row")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("label out of range")
        if feats.size and not (np.isfinite(feats.min()) and np.isfinite(feats.max())):
            raise ValueError("features contain NaN or Inf")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        feats.setflags(write=False)
        labels.setflags(write=False)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


def _read_idx(path: Path, magic: int) -> np.ndarray:
    """The payload of an IDX file as a uint8 view of its bytes, in the shape its header gives.

    The header is ``magic``, whose low byte counts the dimensions, then each
    dimension's size as a big-endian u32.  Bytes past the payload are ignored.
    """
    buf = path.read_bytes()
    if len(buf) >= 4 and buf[:4] != magic.to_bytes(4, "big"):
        raise BadMagicError(f"{path}: bad magic 0x{buf[:4].hex()}, expected 0x{magic:08x}")
    ndim = magic & 0xFF
    offset = 4 * (1 + ndim)
    if len(buf) < offset:
        raise TruncatedPayloadError(f"{path}: truncated header")
    shape = struct.unpack_from(f">{ndim}I", buf, 4)
    size = math.prod(shape)
    if len(buf) - offset < size:
        raise TruncatedPayloadError(f"{path}: expected {size} payload bytes, found {len(buf) - offset}")
    return np.frombuffer(buf, np.uint8, count=size, offset=offset).reshape(shape)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (MNIST layout) as a Dataset.

    Pixels are scaled to [0, 1] and images flattened row-major, so an
    n x r x c image file yields n rows of r*c features.  Each file's magic
    and length are checked as it is read; the two counts must agree.
    """
    images = _read_idx(Path(images_path), IDX_IMAGE_MAGIC)
    labels = _read_idx(Path(labels_path), IDX_LABEL_MAGIC)
    n = len(images)
    if len(labels) != n:
        raise CountMismatchError(f"{n} images but {len(labels)} labels")
    # views into the file bytes: the float64 features are the only full-size array made
    features = images.reshape(n, math.prod(images.shape[1:])).astype(np.float64)
    features /= 255.0
    labels = labels.astype(np.int64)
    num_classes = max(2, int(labels.max()) + 1) if n else 2
    return Dataset(features, labels, num_classes)


def _scale_min_max(features: np.ndarray) -> np.ndarray:
    """Per-column min-max scaling to [0, 1], in place; constant columns map to zero.

    A column with a NaN or infinite cell keeps a non-finite entry, which
    Dataset rejects.
    """
    lo = features.min(axis=0)
    span = features.max(axis=0) - lo
    features -= lo
    np.divide(features, span, out=features, where=span > 0)
    return features


def load_csv(path, label_column: str) -> Dataset:
    """Load a numeric CSV with a header row as a Dataset.

    Features are min-max scaled per column to [0, 1].  Labels that parse as
    non-negative integers are kept verbatim; otherwise the distinct raw
    values are sorted and mapped to 0..L-1 (e.g. B/M -> 0/1).  The class
    count is read from the labels: the largest label + 1, at least 2.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if label_column not in header:
            raise CsvFormatError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        feature_cols = [i for i in range(len(header)) if i != label_idx]
        rows, raw_labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            try:
                rows.append([float(row[i]) for i in feature_cols])
            except ValueError:
                raise CsvFormatError(f"{path}:{lineno}: non-numeric feature cell") from None
            raw_labels.append(row[label_idx].strip())
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")

    features = _scale_min_max(np.asarray(rows, dtype=np.float64))
    labels = _map_labels(raw_labels, path)
    return Dataset(features, labels, max(2, int(labels.max()) + 1))


def _map_labels(raw_labels: list[str], path: Path) -> np.ndarray:
    try:
        ints = [int(v) for v in raw_labels]
    except ValueError:
        ints = None
    if ints is not None:
        arr = np.asarray(ints, dtype=np.int64)
        if arr.min() < 0:
            raise CsvFormatError(f"{path}: negative integer label")
        return arr
    mapping = {v: i for i, v in enumerate(sorted(set(raw_labels)))}
    return np.asarray([mapping[v] for v in raw_labels], dtype=np.int64)


def blob_means(num_classes: int, num_features: int) -> np.ndarray:
    """Deterministic distinct cluster centers used by synth_blobs."""
    means = np.zeros((num_classes, num_features))
    for l in range(num_classes):
        means[l, l % num_features] = 1.0 + l // num_features
    return means


def synth_blobs(
    num_classes: int,
    per_class: int,
    num_features: int,
    spread: float,
    rng: np.random.Generator,
) -> Dataset:
    """Gaussian clusters with distinct means, one per class.

    Small ``spread`` gives a linearly separable toy problem; class l is
    centred on ``blob_means(...)[l]``.
    """
    if num_classes < 2 or num_features < 1 or per_class < 1:
        raise ValueError("need num_classes >= 2, per_class >= 1, num_features >= 1")
    means = blob_means(num_classes, num_features)
    features = np.empty((num_classes * per_class, num_features))
    for l, block in enumerate(features.reshape(num_classes, per_class, num_features)):
        rng.standard_normal(out=block)  # in place, no temporary: block = means[l] + spread * N(0, 1)
        block *= spread
        block += means[l]
    return Dataset(features, np.repeat(np.arange(num_classes), per_class), num_classes)


def partition_noniid(
    dataset: Dataset,
    num_devices: int,
    label_bias: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The device of each instance, assigned with label-group affinity ``label_bias``.

    Devices are split into L equal contiguous groups.  An instance with
    label l lands in group l with probability ``label_bias`` and otherwise
    uniformly in one of the other L-1 groups; within the chosen group the
    device is uniform.  ``label_bias = 1/L`` is the IID case.
    """
    L = dataset.num_classes
    if num_devices % L != 0:
        raise ValueError(f"device count {num_devices} must be divisible by the {L} classes")
    if not 0 < label_bias <= 1:
        raise ValueError("label bias must be in (0, 1]")
    group_size = num_devices // L
    n = len(dataset)
    stay = rng.random(n) < label_bias
    # A rotation by 1..L-1 is uniform over the L-1 non-home groups.
    offsets = rng.integers(1, L, size=n)
    groups = np.where(stay, dataset.labels, (dataset.labels + offsets) % L)
    within = rng.integers(0, group_size, size=n)
    return groups * group_size + within


def sample_batch(shard_size: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement sample of min(batch_size, shard_size) indices."""
    if shard_size < 1:
        raise ValueError("device shard is empty")
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    take = min(batch_size, shard_size)
    return rng.choice(shard_size, size=take, replace=False)
