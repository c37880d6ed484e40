import struct
import tracemalloc

import numpy as np
import pytest

from flrlab.core import RngStream
from flrlab.data import (
    BadMagicError,
    CountMismatchError,
    CsvFormatError,
    Dataset,
    TruncatedPayloadError,
    blob_means,
    load_csv,
    load_idx,
    partition_noniid,
    sample_batch,
    save_csv,
    synth_blobs,
)


def write_idx_pair(tmp_path, images, labels, prefix=""):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / f"{prefix}imgs.idx"
    lbl_path = tmp_path / f"{prefix}lbls.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return img_path, lbl_path


def traced_peak(build):
    """(build(), the peak bytes traced by tracemalloc while it ran), from a second
    call, so that modules a first call imports are not counted."""
    build()
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDataset:
    @pytest.mark.parametrize("shape", [(50, 7), (32771, 1), (3, 16385), (4, 0)])
    def test_accepts_finite_features(self, shape):
        ds = Dataset(np.ones(shape), np.zeros(shape[0], dtype=int), 2)
        assert ds.features.shape == shape

    @pytest.mark.parametrize("shape", [(50, 7), (32771, 1), (3, 16385)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry_in_any_block(self, shape, bad):
        n, q = shape
        # the first entry, the last of the first row, one in the middle, and the very last
        for row, col in [(0, 0), (0, q - 1), (n // 2, q // 2), (n - 1, q - 1)]:
            features = np.ones(shape)
            features[row, col] = bad
            with pytest.raises(ValueError, match="NaN or Inf"):
                Dataset(features, np.zeros(n, dtype=int), 2)

    def test_building_allocates_no_mask_of_the_features(self):
        # an (n, q) bool mask is 12.5% of the float64 features
        features = RngStream(0, "d").generator().standard_normal((2000, 100))
        labels = np.arange(2000) % 10
        ds, peak = traced_peak(lambda: Dataset(features, labels, 10))
        assert ds.features is features
        assert peak < 0.05 * features.nbytes


class TestLoadIdx:
    def test_shapes_and_scaling(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[1, 0, 1] = 128
        img, lbl = write_idx_pair(tmp_path, images, [7, 3])
        ds = load_idx(img, lbl)
        assert len(ds) == 2 and ds.num_features == 784
        assert ds.labels.tolist() == [7, 3]
        assert ds.features[0, 0] == 1.0  # byte 255 -> 1.0
        assert ds.features[1, 1] == pytest.approx(128 / 255)

    def test_row_major_flattening(self, tmp_path):
        images = np.arange(12, dtype=np.uint8).reshape(1, 3, 4)
        img, lbl = write_idx_pair(tmp_path, images, [0])
        ds = load_idx(img, lbl)
        assert np.allclose(ds.features[0] * 255, np.arange(12))

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        img.write_bytes(b"\x00\x00\x08\x04" + img.read_bytes()[4:])
        with pytest.raises(BadMagicError):
            load_idx(img, lbl)
        good_img, bad_lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        bad_lbl.write_bytes(b"\x00\x00\x08\x03" + bad_lbl.read_bytes()[4:])
        with pytest.raises(BadMagicError):
            load_idx(good_img, bad_lbl)

    def test_truncated_payload(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(TruncatedPayloadError):
            load_idx(img, lbl)

    def test_truncated_label_payload(self, tmp_path):
        # the header claims 3 labels, the file holds 2
        img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 1])
        lbl.write_bytes(lbl.read_bytes()[:-1])
        with pytest.raises(TruncatedPayloadError):
            load_idx(img, lbl)

    def test_empty_files(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((0, 2, 3), dtype=np.uint8), [])
        ds = load_idx(img, lbl)
        assert ds.features.shape == (0, 6) and ds.num_classes == 2

    def test_trailing_bytes_are_ignored(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        img, lbl = write_idx_pair(tmp_path, images, [1, 0])
        img.write_bytes(img.read_bytes() + b"\xff\xff")
        lbl.write_bytes(lbl.read_bytes() + b"\x07")
        ds = load_idx(img, lbl)
        assert np.array_equal(ds.features, images.reshape(2, 4) / 255.0)
        assert ds.labels.tolist() == [1, 0]

    def test_peak_memory_is_the_features_and_the_file(self, tmp_path):
        # the float64 features plus the file's bytes (1/8 of them) is 1.125x; the pixels scaled
        # out of place, or the file bytes sliced again, add another full-size temporary
        rng = RngStream(0, "idx").generator()
        images = rng.integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, rng.integers(0, 10, size=2000))
        ds, peak = traced_peak(lambda: load_idx(img, lbl))
        assert np.array_equal(ds.features, images.reshape(2000, 784) / 255.0)
        assert peak <= 1.2 * ds.features.nbytes

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1], prefix="a_")
        _, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 2], prefix="b_")
        with pytest.raises(CountMismatchError):
            load_idx(img, lbl)


class TestLoadCsv:
    def test_string_labels_map_sorted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,10,B\n2,20,M\n3,30,B\n")
        ds = load_csv(path, "label")
        assert len(ds) == 3 and ds.num_features == 2 and ds.num_classes == 2
        assert ds.labels.tolist() == [0, 1, 0]

    def test_min_max_scaling_and_constant_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,5,0\n2,5,1\n3,5,0\n")
        ds = load_csv(path, "label")
        assert ds.features[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert ds.features[:, 1].tolist() == [0.0, 0.0, 0.0]  # constant -> zeros

    def test_nan_cell_is_rejected(self, tmp_path):
        # a NaN makes its column's min, max and span NaN; the column must not be zeroed
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\nnan,1,0\n2,3,1\n4,5,0\n")
        with pytest.raises(ValueError, match="NaN or Inf"):
            load_csv(path, "label")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\nx,0\n")
        with pytest.raises(CsvFormatError):
            load_csv(path, "label")

    def test_unknown_label_value(self, tmp_path):
        # a negative integer label names no class
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1,-1\n2,0\n")
        with pytest.raises(CsvFormatError):
            load_csv(path, "label")

    @pytest.mark.parametrize(
        "labels, num_classes",
        [(["5", "0"], 6), (["x", "y", "z"], 3), (["0", "0"], 2), (["B", "B"], 2)],
    )
    def test_class_count_read_from_labels(self, tmp_path, labels, num_classes):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n" + "".join(f"{i},{label}\n" for i, label in enumerate(labels)))
        assert load_csv(path, "label").num_classes == num_classes

    def test_round_trip(self, tmp_path):
        rng = RngStream(3, "csv").generator()
        raw = tmp_path / "raw.csv"
        rows = rng.random((20, 4)) * 7 - 3
        labels = rng.integers(0, 3, 20)
        lines = ["f0,f1,f2,f3,label"]
        lines += [",".join(repr(float(v)) for v in row) + f",{lab}" for row, lab in zip(rows, labels)]
        raw.write_text("\n".join(lines) + "\n")
        ds = load_csv(raw, "label")
        out = tmp_path / "out.csv"
        save_csv(ds, out)
        again = load_csv(out, "label")
        assert np.allclose(ds.features, again.features, atol=1e-9)
        assert np.array_equal(ds.labels, again.labels)


class TestSynthBlobs:
    def test_construction_and_separability(self):
        ds = synth_blobs(2, 10, 2, 0.01, RngStream(0, "s").generator())
        assert len(ds) == 20
        # classes sit on distinct axes; tiny spread keeps them on their side
        class0 = ds.features[ds.labels == 0]
        class1 = ds.features[ds.labels == 1]
        assert np.all(class0[:, 0] > class0[:, 1])
        assert np.all(class1[:, 1] > class1[:, 0])

    def test_determinism(self):
        a = synth_blobs(3, 5, 4, 0.3, RngStream(9, "x").generator())
        b = synth_blobs(3, 5, 4, 0.3, RngStream(9, "x").generator())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_empirical_means_near_truth(self):
        per_class, spread = 100, 0.5
        ds = synth_blobs(3, per_class, 5, spread, RngStream(5, "m").generator())
        means = blob_means(3, 5)
        tol = 3 * spread / np.sqrt(per_class)
        for l in range(3):
            observed = ds.features[ds.labels == l].mean(axis=0)
            assert np.all(np.abs(observed - means[l]) < tol)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            synth_blobs(1, 10, 2, 0.1, RngStream(0, "s").generator())

    def test_each_class_is_its_mean_plus_spread_times_its_draws(self):
        per_class, q, spread = 30, 6, 0.7
        ds = synth_blobs(4, per_class, q, spread, RngStream(3, "e").generator())
        rng, means = RngStream(3, "e").generator(), blob_means(4, q)
        expected = np.concatenate([means[l] + spread * rng.standard_normal((per_class, q)) for l in range(4)])
        assert np.array_equal(ds.features, expected)
        assert np.array_equal(ds.labels, np.repeat(np.arange(4), per_class))

    def test_peak_memory_is_the_dataset(self):
        # features plus int64 labels (0.5% at 200 features) and numpy's fixed-size ufunc buffer;
        # a temporary per class block would add 10% each
        ds, peak = traced_peak(lambda: synth_blobs(10, 400, 200, 0.3, RngStream(0, "p").generator()))
        assert peak <= 1.05 * ds.features.nbytes


class TestPartitionNoniid:
    def make(self, n_per_class=50, L=2):
        feats = np.zeros((n_per_class * L, 1))
        labels = np.repeat(np.arange(L), n_per_class)
        return Dataset(feats, labels, L)

    def test_conserves_instances(self):
        ds = self.make()
        assignment = partition_noniid(ds, 4, 0.7, RngStream(1, "p").generator())
        assert assignment.shape == (len(ds),)
        assert set(assignment.tolist()) <= set(range(4))

    def test_p_one_is_pure(self):
        ds = self.make(n_per_class=40, L=2)
        group_of = partition_noniid(ds, 4, 1.0, RngStream(2, "p").generator()) // 2
        assert np.array_equal(group_of, ds.labels)

    def test_uniform_when_p_is_one_over_L(self):
        ds = self.make(n_per_class=8000, L=2)
        label0 = partition_noniid(ds, 4, 0.5, RngStream(3, "p").generator())[ds.labels == 0]
        in_group0 = np.mean(label0 < 2)
        assert abs(in_group0 - 0.5) < 0.02

    def test_frequency_matches_bias(self):
        ds = Dataset(np.zeros((10000, 1)), np.zeros(10000, dtype=int), 2)
        assignment = partition_noniid(ds, 4, 0.8, RngStream(4, "p").generator())
        share = np.mean(assignment < 2)  # group 0 = devices {0,1}
        assert abs(share - 0.8) < 0.02

    def test_rejects_indivisible_devices(self):
        ds = self.make(L=2)
        with pytest.raises(ValueError):
            partition_noniid(ds, 5, 0.5, RngStream(0, "p").generator())


class TestSampleBatch:
    def test_clamps_to_shard(self):
        batch = sample_batch(5, 32, RngStream(0, "b").generator())
        assert sorted(batch.tolist()) == [0, 1, 2, 3, 4]

    def test_single_draw(self):
        batch = sample_batch(10, 1, RngStream(1, "b").generator())
        assert batch.shape == (1,) and 0 <= batch[0] < 10

    def test_rejects_empty_shard(self):
        with pytest.raises(ValueError):
            sample_batch(0, 4, RngStream(0, "b").generator())

    def test_uniform_frequencies(self):
        rng = RngStream(2, "b").generator()
        counts = np.zeros(10)
        draws = 10000
        for _ in range(draws):
            for idx in sample_batch(10, 2, rng):
                counts[idx] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.2) < 0.02)

    def test_no_replacement(self):
        rng = RngStream(3, "b").generator()
        for _ in range(100):
            batch = sample_batch(6, 4, rng)
            assert len(set(batch.tolist())) == len(batch)
