import struct

import numpy as np
import pytest

from gradpipe.data import (
    Dataset,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    sample_from_shard,
    synthetic_blobs,
)
from gradpipe.errors import ConfigError


def make_idx_files(tmp_path, count=6, rows=3, cols=2, label_values=None):
    pixels = np.arange(count * rows * cols, dtype=np.uint8)
    images = struct.pack(">IIII", 0x00000803, count, rows, cols) + pixels.tobytes()
    labels_arr = label_values if label_values is not None else [i % 3 for i in range(count)]
    labels = struct.pack(">II", 0x00000801, count) + bytes(labels_arr)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(images)
    lab_path.write_bytes(labels)
    return img_path, lab_path


class TestIdxReader:
    def test_roundtrip(self, tmp_path):
        img_path, lab_path = make_idx_files(tmp_path)
        ds = load_idx_dataset(img_path, lab_path)
        assert ds.features.shape == (6, 6)
        assert ds.features.dtype == np.float32
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert ds.features[1, 0] == pytest.approx(6 / 255.0)
        assert list(ds.labels) == [0, 1, 2, 0, 1, 2]
        assert ds.num_classes == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
        with pytest.raises(ConfigError, match="magic"):
            load_idx_images(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        with pytest.raises(ConfigError, match="payload"):
            load_idx_images(path)

    def test_header_cut_inside_dims(self, tmp_path):
        path = tmp_path / "cut.idx"
        path.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
        with pytest.raises(ConfigError, match="truncated IDX header"):
            load_idx_images(path)

    def test_empty_dataset(self, tmp_path):
        img_path, lab_path = make_idx_files(tmp_path, count=0)
        with pytest.raises(ConfigError, match="no samples"):
            load_idx_dataset(img_path, lab_path)

    def test_label_magic_and_count(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes([0, 1, 0, 1]))
        assert list(load_idx_labels(path)) == [0, 1, 0, 1]

    def test_count_mismatch(self, tmp_path):
        img_path, _ = make_idx_files(tmp_path, count=6)
        lab_path = tmp_path / "short_labels.idx"
        lab_path.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
        with pytest.raises(ConfigError, match="count"):
            load_idx_dataset(img_path, lab_path)


class TestSyntheticBlobs:
    def test_shapes_and_balance(self):
        ds = synthetic_blobs(dim=64, num_classes=2, num_samples=10_000, seed=0)
        assert ds.features.shape == (10_000, 64)
        assert ds.features.dtype == np.float32
        assert set(np.unique(ds.labels)) == {0, 1}
        assert abs((ds.labels == 0).mean() - 0.5) < 0.01

    def test_center_separation(self):
        ds = synthetic_blobs(dim=16, num_classes=3, num_samples=6000, separation=3.0, seed=1)
        centers = [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                dist = np.linalg.norm(centers[i] - centers[j])
                assert dist == pytest.approx(3.0, rel=0.15)

    def test_seed_controls_dataset(self):
        a = synthetic_blobs(dim=8, num_classes=2, num_samples=100, seed=3)
        b = synthetic_blobs(dim=8, num_classes=2, num_samples=100, seed=3)
        c = synthetic_blobs(dim=8, num_classes=2, num_samples=100, seed=4)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_too_many_classes(self):
        with pytest.raises(ConfigError):
            synthetic_blobs(dim=2, num_classes=5, num_samples=10)

    @pytest.mark.parametrize(
        "name,size",
        [("dim", 0), ("dim", -3), ("num_classes", 0), ("num_classes", -2),
         ("num_samples", 0), ("num_samples", -5)],
    )
    def test_size_below_one(self, name, size):
        sizes = {"dim": 4, "num_classes": 2, "num_samples": 10, name: size}
        with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {size}"):
            synthetic_blobs(**sizes)


class TestSampling:
    def test_full_draw_is_permutation(self):
        ds = synthetic_blobs(dim=4, num_classes=2, num_samples=50, seed=0)
        batch = sample_from_shard(ds.shard(0, 1), 50, np.random.default_rng(0))
        assert sorted(batch) == list(range(50))

    def test_same_state_same_batch(self):
        ds = synthetic_blobs(dim=4, num_classes=2, num_samples=100, seed=0)
        shard = ds.shard(0, 1)
        a = sample_from_shard(shard, 10, np.random.default_rng(42))
        b = sample_from_shard(shard, 10, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        ds = synthetic_blobs(dim=4, num_classes=2, num_samples=10_000, seed=0)
        shard = ds.shard(0, 1)
        a = sample_from_shard(shard, 64, np.random.default_rng(1))
        b = sample_from_shard(shard, 64, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_size_bounds(self):
        ds = synthetic_blobs(dim=4, num_classes=2, num_samples=10, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            sample_from_shard(ds.shard(0, 1), 0, rng)
        with pytest.raises(ConfigError):
            sample_from_shard(ds.shard(0, 1), 11, rng)

    def test_no_replacement(self):
        ds = synthetic_blobs(dim=4, num_classes=2, num_samples=30, seed=0)
        batch = sample_from_shard(ds.shard(0, 1), 30, np.random.default_rng(9))
        assert len(set(batch.tolist())) == 30

    def test_shards_partition_dataset(self):
        ds = synthetic_blobs(dim=4, num_classes=2, num_samples=103, seed=0)
        shards = [ds.shard(r, 4) for r in range(4)]
        joined = np.sort(np.concatenate(shards))
        assert np.array_equal(joined, np.arange(103))
        for i in range(4):
            for j in range(i + 1, 4):
                assert not set(shards[i]) & set(shards[j])

    def test_sample_from_shard_stays_in_shard(self):
        ds = synthetic_blobs(dim=4, num_classes=2, num_samples=100, seed=0)
        shard = ds.shard(2, 4)
        batch = sample_from_shard(shard, 10, np.random.default_rng(3))
        assert set(batch.tolist()) <= set(shard.tolist())


class TestDatasetValidation:
    def test_rejects_bad_labels(self):
        with pytest.raises(ConfigError):
            Dataset(
                features=np.zeros((3, 2), np.float32),
                labels=np.array([0, 1, 5]),
                num_classes=2,
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            Dataset(
                features=np.zeros((3, 2), np.float32),
                labels=np.array([0, 1]),
                num_classes=2,
            )
