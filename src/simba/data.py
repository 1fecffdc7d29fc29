"""Skeleton sequence datasets: container format, sampling, modalities, synthesis.

The on-disk container (``SKL1``, little-endian) is the ingestion boundary
for real data; anything that can be converted into it trains and evaluates
through the same pipeline as the synthetic generator used for desk-scale
experiments.

    magic  b"SKL1"
    u16    version (1)
    u32    num_samples
    u16    V (joints)        u16  coord_dims (3)
    u16    num_classes       u16  K (partition groups)
    u16[V] parent index per joint (parent[root] == root)
    u16[V] partition group id per joint
    per sample:
        u32     label
        u32     T_raw
        f32[T_raw * V * 3]  joint coordinates, frame-major
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"SKL1"
VERSION = 1
COORD_DIMS = 3


class Modality(str, Enum):
    JOINT = "joint"
    BONE = "bone"
    JOINT_MOTION = "joint_motion"
    BONE_MOTION = "bone_motion"


@dataclass
class SkeletonDataset:
    """Labeled variable-length joint sequences plus skeleton topology."""

    samples: list  # of (label, frames[T_raw, V, 3] float32)
    parents: np.ndarray  # [V] int
    partitions: np.ndarray  # [V] int group ids in [0, K)
    num_classes: int
    num_partitions: int

    def __post_init__(self):
        self.parents = np.asarray(self.parents, dtype=np.int64)
        self.partitions = np.asarray(self.partitions, dtype=np.int64)
        validate_topology(self.parents)
        if self.partitions.shape != self.parents.shape:
            raise ValidationError("partition array must have one entry per joint")
        if np.any(self.partitions < 0) or np.any(self.partitions >= self.num_partitions):
            raise ValidationError(
                f"partition ids must lie in [0, {self.num_partitions})")
        for i, (label, frames) in enumerate(self.samples):
            if not 0 <= label < self.num_classes:
                raise ValidationError(f"sample {i}: label {label} outside [0, {self.num_classes})")
            if frames.ndim != 3 or frames.shape[1:] != (self.num_joints, COORD_DIMS):
                raise ValidationError(f"sample {i}: frames shaped {frames.shape}")
            if frames.shape[0] < 1:
                raise ValidationError(f"sample {i}: empty sequence")
            if not np.all(np.isfinite(frames)):
                raise ValidationError(f"sample {i}: non-finite coordinates")

    @property
    def num_joints(self) -> int:
        return len(self.parents)

    @property
    def root(self) -> int:
        return int(np.nonzero(self.parents == np.arange(self.num_joints))[0][0])

    def __len__(self) -> int:
        return len(self.samples)

    def labels(self) -> np.ndarray:
        return np.array([label for label, _ in self.samples], dtype=np.int64)

    def layout(self) -> dict:
        """What a model built for this dataset fixes: class count, joint count, partition ids."""
        return {"num_classes": self.num_classes, "num_joints": self.num_joints,
                "partitions": self.partitions.tolist()}

    def check_layout(self, layout: dict, source: str, partitions: bool) -> None:
        """Raise ``ValidationError`` naming both values unless this dataset, to be
        evaluated, has the class and joint counts of ``layout`` (a ``layout()`` of
        ``source``) and, when ``partitions`` (the gate is on), its partition ids."""
        if (self.num_classes, self.num_joints) != (layout["num_classes"], layout["num_joints"]):
            raise ValidationError(
                f"the evaluation dataset ({self.num_classes} classes, {self.num_joints} joints) "
                f"does not match {source} ({layout['num_classes']} classes, "
                f"{layout['num_joints']} joints)")
        if partitions and self.partitions.tolist() != layout["partitions"]:
            raise ValidationError(
                f"the evaluation dataset partitions {self.partitions.tolist()} do not match "
                f"{source}'s {layout['partitions']}, which the partition gate is built from")

    def partition_labels(self) -> np.ndarray:
        """One-hot [V, K] membership matrix for the partition gate."""
        onehot = np.zeros((self.num_joints, self.num_partitions))
        onehot[np.arange(self.num_joints), self.partitions] = 1.0
        return onehot


def validate_topology(parents: np.ndarray) -> None:
    """The parent array must describe a tree: one root, no cycles."""
    v = len(parents)
    if v < 1:
        raise ValidationError("empty skeleton")
    if np.any(parents < 0) or np.any(parents >= v):
        raise ValidationError("parent index out of range")
    roots = np.nonzero(parents == np.arange(v))[0]
    if len(roots) != 1:
        raise ValidationError(f"skeleton must have exactly one root, found {len(roots)}")
    root = int(roots[0])
    for start in range(v):
        node, hops = start, 0
        while node != root:
            node = int(parents[node])
            hops += 1
            if hops > v:
                raise ValidationError(f"cycle in skeleton topology at joint {start}")


# ---------------------------------------------------------------------------
# container IO
# ---------------------------------------------------------------------------

def save_dataset(path, dataset: SkeletonDataset) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<HIHHHH", VERSION, len(dataset.samples),
                            dataset.num_joints, COORD_DIMS,
                            dataset.num_classes, dataset.num_partitions))
        f.write(dataset.parents.astype("<u2").tobytes())
        f.write(dataset.partitions.astype("<u2").tobytes())
        for label, frames in dataset.samples:
            f.write(struct.pack("<II", label, frames.shape[0]))
            f.write(np.ascontiguousarray(frames, dtype="<f4").tobytes())


def _bytes_left(f) -> int:
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_exact(f, n: int, what: str) -> bytes:
    """The next ``n`` bytes of ``f``, or a FormatError naming ``what`` if fewer are left.

    The check runs before the read, so a corrupt length field fails closed
    instead of allocating what it claims.
    """
    left = _bytes_left(f)
    if n > left:
        raise FormatError(f"{f.name}: truncated file, {what} needs {n} bytes and {left} are left")
    return f.read(n)


def load_dataset(path) -> SkeletonDataset:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise FormatError(f"{path}: not a skeleton container (bad magic)")
        version, num_samples, v, coord_dims, num_classes, k = struct.unpack(
            "<HIHHHH", _read_exact(f, 14, "header"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        if coord_dims != COORD_DIMS:
            raise FormatError(f"{path}: expected {COORD_DIMS} coordinates, got {coord_dims}")
        parents = np.frombuffer(_read_exact(f, 2 * v, "parent array"), dtype="<u2").astype(np.int64)
        partitions = np.frombuffer(_read_exact(f, 2 * v, "partition array"), dtype="<u2").astype(np.int64)
        samples = []
        for i in range(num_samples):
            label, t_raw = struct.unpack("<II", _read_exact(f, 8, f"sample {i} header"))
            raw = _read_exact(f, 4 * t_raw * v * COORD_DIMS, f"sample {i} frames")
            frames = np.frombuffer(raw, dtype="<f4").reshape(t_raw, v, COORD_DIMS).copy()
            samples.append((int(label), frames))
        if trailing := _bytes_left(f):
            raise FormatError(f"{path}: {trailing} trailing bytes after the last sample")
    return SkeletonDataset(samples, parents, partitions, num_classes, k)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def center_on_root(frames: np.ndarray, root: int) -> np.ndarray:
    """Subtract the root joint position of the first frame from all frames."""
    return frames - frames[0, root]


def sample_window(frames: np.ndarray, t: int, mode: str,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Pick ``t`` frames by equal-bin sampling.

    The sequence is split into t equal bins; train mode draws one frame
    uniformly from each bin, eval mode takes each bin's center.  Sequences
    shorter than t are loop-repeated before binning.
    """
    if t < 1:
        raise ValidationError(f"window size must be >= 1, got {t}")
    if len(frames) < 1:
        raise ValidationError("cannot sample a window from an empty sequence")
    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be 'train' or 'eval', got {mode!r}")
    if len(frames) < t:
        frames = np.tile(frames, (-(-t // len(frames)), 1, 1))
    length = len(frames)
    edges = (np.arange(t + 1) * length) // t
    starts, ends = edges[:-1], edges[1:]
    if mode == "eval":
        picks = (starts + ends - 1) // 2
    else:
        if rng is None:
            raise ValidationError("train-mode sampling needs an rng")
        picks = rng.integers(starts, ends)
    return frames[picks]


def derive_modality(frames: np.ndarray, modality, parents: np.ndarray) -> np.ndarray:
    """joint (identity), bone (joint minus parent), or their frame differences."""
    modality = Modality(modality)
    if modality is Modality.JOINT:
        return frames.copy()
    if modality is Modality.BONE:
        return frames - frames[:, parents]  # root bone is zero: parent[root] == root
    if modality is Modality.JOINT_MOTION:
        return _motion(frames)
    return _motion(frames - frames[:, parents])


def _motion(frames: np.ndarray) -> np.ndarray:
    out = np.zeros_like(frames)
    out[:-1] = frames[1:] - frames[:-1]
    return out


def assemble_batch(dataset: SkeletonDataset, indices, window_t: int, mode: str,
                   modality, seed_parts=None, occurrences=None, dtype=np.float64):
    """Build ([B, 3, T, V] array, labels) from dataset rows.

    ``seed_parts`` is a tuple mixed with each sample index to derive that
    sample's private rng stream, so train-mode windows are reproducible and
    independent of assembly order.  ``occurrences`` distinguishes repeats
    of the same sample within one epoch (repeat augmentation draws an
    independent window per occurrence).
    """
    root = dataset.root
    batch = np.empty((len(indices), COORD_DIMS, window_t, dataset.num_joints), dtype=dtype)
    labels = np.empty(len(indices), dtype=np.int64)
    for row, idx in enumerate(indices):
        label, frames = dataset.samples[idx]
        rng = None
        if mode == "train":
            occ = 0 if occurrences is None else int(occurrences[row])
            rng = np.random.default_rng(list(seed_parts) + [int(idx), occ])
        frames = center_on_root(frames.astype(dtype), root)
        window = sample_window(frames, window_t, mode, rng)
        window = derive_modality(window, modality, dataset.parents)
        batch[row] = window.transpose(2, 0, 1)
        labels[row] = label
    return batch, labels


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def synth_generate(classes: int, samples_per_class: int, v: int = 20,
                   t_raw: int = 48, noise: float = 0.05, seed: int = 0,
                   partitions: int = 4) -> SkeletonDataset:
    """Seeded synthetic skeleton actions, separable by construction.

    The skeleton is a chain rooted at joint 0.  Each class is a fixed
    parametric motion: per-joint sinusoids whose frequency, phase and
    travelling-wave speed depend only on the class id, plus isotropic
    Gaussian noise.
    """
    if classes < 2:
        raise ValidationError(f"need at least 2 classes, got {classes}")
    if v < 2:
        raise ValidationError(f"need at least 2 joints, got {v}")
    if samples_per_class < 1:
        raise ValidationError(f"need at least 1 sample per class, got {samples_per_class}")
    if t_raw < 1:
        raise ValidationError(f"need at least 1 frame, got {t_raw}")
    if not 0 <= noise < np.inf:  # NaN fails the comparison
        raise ValidationError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    parents = np.concatenate([[0], np.arange(v - 1)])
    k = min(partitions, v)
    parts = np.arange(v) * k // v  # contiguous groups, all nonempty

    tt = np.arange(t_raw)[:, None]  # [T, 1]
    jj = np.arange(v)[None, :]      # [1, V]
    samples = []
    for label in range(classes):
        freq = 1.0 + 0.7 * label
        phase = 2.0 * np.pi * label / classes
        wave = 0.3 + 0.1 * label
        base = np.zeros((t_raw, v, COORD_DIMS), dtype=np.float32)
        base[:, :, 0] = np.sin(2.0 * np.pi * freq * tt / t_raw + phase + wave * jj)
        base[:, :, 1] = 0.1 * jj + 0.5 * np.cos(2.0 * np.pi * freq * tt / t_raw + wave * jj)
        base[:, :, 2] = 0.2 * np.sin(2.0 * np.pi * (freq / 2.0) * tt / t_raw + phase)
        for _ in range(samples_per_class):
            jitter = rng.normal(0.0, noise, size=base.shape)
            samples.append((label, (base + jitter).astype(np.float32)))
    return SkeletonDataset(samples, parents, parts, classes, k)
