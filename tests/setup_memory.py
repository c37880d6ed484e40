"""Paper-scale set-up memory check: the ``tracemalloc`` peak of ``set_up`` on MNIST-sized IDX files.

Writes random 60000x28x28 train and 10000x28x28 test IDX image/label pairs (10
classes) into a temporary directory, runs ``harness.set_up`` on a
``dataset=idx`` config over them (100 devices, one trial), and prints the peak
bytes traced during the set-up against the bytes of the train and test data it
returns.  A peak near 1.0x means set-up built each dataset without a second
full-size array; the float64 features alone are about 440 MB, so the run needs
about 0.5 GB of memory.

    PYTHONPATH=src python tests/setup_memory.py
"""

from __future__ import annotations

import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from flrlab.harness import ExperimentConfig, set_up

SHAPES = {"train": 60000, "test": 10000}  # images of 28x28 pixels each
CLASSES = 10


def write_idx_pair(directory: Path, name: str, count: int, rng: np.random.Generator) -> tuple[Path, Path]:
    images, labels = directory / f"{name}-images.idx", directory / f"{name}-labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, count, 28, 28)
                       + rng.integers(0, 256, size=count * 28 * 28, dtype=np.uint8).tobytes())
    labels.write_bytes(struct.pack(">II", 0x801, count) + rng.integers(0, CLASSES, size=count, dtype=np.uint8).tobytes())
    return images, labels


def main() -> None:
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: write_idx_pair(Path(tmp), name, count, rng) for name, count in SHAPES.items()}
        config = ExperimentConfig(
            dataset="idx",
            idx_train_images=str(paths["train"][0]),
            idx_train_labels=str(paths["train"][1]),
            idx_test_images=str(paths["test"][0]),
            idx_test_labels=str(paths["test"][1]),
        )
        tracemalloc.start()
        try:
            train, test, _ = set_up(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    data = sum(d.features.nbytes + d.labels.nbytes for d in (train, test))
    print(f"set_up peak {peak / 2**20:.1f} MiB, train + test data {data / 2**20:.1f} MiB, "
          f"peak / data {peak / data:.3f}, peak above data {(peak - data) / 2**20:.1f} MiB")


if __name__ == "__main__":
    main()
