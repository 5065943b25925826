"""Datasets: synthetic Gaussian blobs, the IDX image/label format, minibatch sampling."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Row-major feature matrix with integer class labels."""

    features: np.ndarray  # (num_samples, dim) float32
    labels: np.ndarray  # (num_samples,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ConfigError("features must be a non-empty 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigError("labels must have one entry per sample")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigError("labels out of range")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def shard(self, rank: int, num_shards: int) -> np.ndarray:
        """Index shard for one worker: every num_shards-th sample."""
        return np.arange(rank % num_shards, self.num_samples, num_shards)


def sample_from_shard(
    shard: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `size` indices without replacement from a worker's shard."""
    if not 1 <= size <= len(shard):
        raise ConfigError(f"batch size {size} out of range [1, {len(shard)}]")
    return shard[rng.choice(len(shard), size=size, replace=False)]


def synthetic_blobs(
    dim: int = 64,
    num_classes: int = 2,
    num_samples: int = 10_000,
    separation: float = 3.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian blob classification set with unit per-class covariance.

    Class centers are mutually orthogonal directions scaled so neighboring
    centers sit `separation` noise-sigmas apart.
    """
    if num_classes > dim:
        raise ConfigError("need dim >= num_classes for orthogonal centers")
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, num_classes))
    q, _ = np.linalg.qr(raw)
    centers = q.T * (separation / np.sqrt(2.0))  # pairwise distance = separation
    labels = np.arange(num_samples) % num_classes
    features = centers[labels] + rng.normal(size=(num_samples, dim))
    return Dataset(
        features=features.astype(np.float32),
        labels=labels.astype(np.int64),
        num_classes=num_classes,
    )


def _read_idx_header(buf: bytes, expected_magic: int, path: str) -> tuple[int, ...]:
    if len(buf) < 4:
        raise ConfigError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", buf[:4])
    if magic != expected_magic:
        raise ConfigError(
            f"{path}: bad IDX magic 0x{magic:08X}, expected 0x{expected_magic:08X}"
        )
    ndim = magic & 0xFF
    dims = struct.unpack(f">{ndim}I", buf[4 : 4 + 4 * ndim])
    return dims


def load_idx_images(path: str | Path) -> np.ndarray:
    """Images from an IDX file, flattened and normalized to [0, 1] float32."""
    buf = Path(path).read_bytes()
    dims = _read_idx_header(buf, IDX_IMAGES_MAGIC, str(path))
    count, rows, cols = dims
    start = 4 + 4 * len(dims)
    expected = count * rows * cols
    payload = np.frombuffer(buf, dtype=np.uint8, offset=start)
    if payload.size != expected:
        raise ConfigError(
            f"{path}: payload holds {payload.size} bytes, header promises {expected}"
        )
    return (payload.reshape(count, rows * cols).astype(np.float32)) / 255.0


def load_idx_labels(path: str | Path) -> np.ndarray:
    buf = Path(path).read_bytes()
    dims = _read_idx_header(buf, IDX_LABELS_MAGIC, str(path))
    (count,) = dims
    payload = np.frombuffer(buf, dtype=np.uint8, offset=8)
    if payload.size != count:
        raise ConfigError(
            f"{path}: payload holds {payload.size} labels, header promises {count}"
        )
    return payload.astype(np.int64)


def load_idx_dataset(images_path: str | Path, labels_path: str | Path) -> Dataset:
    features = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if features.shape[0] != labels.shape[0]:
        raise ConfigError(
            f"image count {features.shape[0]} != label count {labels.shape[0]}"
        )
    return Dataset(features=features, labels=labels, num_classes=int(labels.max()) + 1)
