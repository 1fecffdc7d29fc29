import time

import numpy as np
import pytest

from simba.data import (
    Modality,
    SkeletonDataset,
    assemble_batch,
    center_on_root,
    derive_modality,
    load_dataset,
    sample_window,
    save_dataset,
    synth_generate,
)
from simba.errors import FormatError, ValidationError


# ---------------------------------------------------------------------------
# container IO
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_bit_identical(tmp_path):
    ds = synth_generate(3, 5, v=6, t_raw=10, noise=0.1, seed=1)
    path = tmp_path / "a.skl"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.num_classes == ds.num_classes
    assert back.num_partitions == ds.num_partitions
    np.testing.assert_array_equal(back.parents, ds.parents)
    np.testing.assert_array_equal(back.partitions, ds.partitions)
    assert len(back) == len(ds)
    for (l1, f1), (l2, f2) in zip(ds.samples, back.samples):
        assert l1 == l2
        np.testing.assert_array_equal(f1, f2)
    # byte-for-byte reproducible writes
    save_dataset(tmp_path / "b.skl", back)
    assert (tmp_path / "a.skl").read_bytes() == (tmp_path / "b.skl").read_bytes()


def test_truncated_file_fails_closed(tmp_path):
    ds = synth_generate(2, 3, v=4, t_raw=6, seed=2)
    path = tmp_path / "full.skl"
    save_dataset(path, ds)
    blob = path.read_bytes()
    for cut in (2, 10, len(blob) - 7):
        bad = tmp_path / f"cut{cut}.skl"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_dataset(bad)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.skl"
    path.write_bytes(b"XXXX" + b"\x00" * 30)
    with pytest.raises(FormatError, match="magic"):
        load_dataset(path)


def test_label_out_of_range_names_sample_index():
    frames = np.zeros((4, 3, 3), dtype=np.float32)
    with pytest.raises(ValidationError, match="sample 1"):
        SkeletonDataset([(0, frames), (5, frames)], np.array([0, 0, 1]),
                        np.array([0, 0, 0]), num_classes=2, num_partitions=1)


def test_topology_must_be_a_tree():
    frames = np.zeros((2, 3, 3), dtype=np.float32)
    with pytest.raises(ValidationError):  # two roots
        SkeletonDataset([(0, frames)], np.array([0, 1, 1]), np.zeros(3, int), 1, 1)
    with pytest.raises(ValidationError, match="cycle in skeleton topology at joint 1$"):  # 1 <-> 2
        SkeletonDataset([(0, frames)], np.array([0, 2, 1]), np.zeros(3, int), 1, 1)


def _cycle_joint_by_walking(parents):
    """The loop pointer doubling replaced: the first joint whose walk outlasts V hops, or None."""
    root = int(np.nonzero(parents == np.arange(len(parents)))[0][0])
    for start in range(len(parents)):
        node, hops = start, 0
        while node != root:
            node, hops = int(parents[node]), hops + 1
            if hops > len(parents):
                return start
    return None


def test_cycle_check_names_the_joint_the_walk_names():
    rng = np.random.default_rng(13)
    for _ in range(500):
        v = int(rng.integers(1, 40))
        parents = rng.integers(0, v, v)
        root = int(rng.integers(v))
        parents[parents == np.arange(v)] = root  # one root: every other self-loop points at it
        parents[root] = root
        joint = _cycle_joint_by_walking(parents)
        if joint is None:
            SkeletonDataset([], parents, np.zeros(v, int), 1, 1)
        else:
            with pytest.raises(ValidationError, match=f"at joint {joint}$"):
                SkeletonDataset([], parents, np.zeros(v, int), 1, 1)


def test_a_long_chain_validates_in_under_a_second():
    # each joint walking to the root took time quadratic in the chain's length
    v = 20000
    tic = time.perf_counter()
    ds = SkeletonDataset([], np.maximum(np.arange(v) - 1, 0), np.zeros(v, int), 1, 1)
    assert time.perf_counter() - tic < 1.0 and ds.root == 0


@pytest.mark.parametrize("field", ["joints", "classes", "partitions"])
def test_save_rejects_a_count_the_header_cannot_hold_and_writes_nothing(tmp_path, field):
    # SKL1 stores each of these counts as a u16
    counts = {"joints": 2, "classes": 1, "partitions": 1, field: 65536}
    v = counts["joints"]
    ds = SkeletonDataset([], np.zeros(v, int), np.zeros(v, int), counts["classes"], counts["partitions"])
    path = tmp_path / "x.skl"
    with pytest.raises(ValidationError, match=f"at most 65535 {field}, got 65536"):
        save_dataset(path, ds)
    assert not path.exists()


def test_synthetic_file_loads_with_expected_header(tmp_path):
    ds = synth_generate(4, 10, v=20, t_raw=30, seed=3)
    path = tmp_path / "synth.skl"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.num_classes == 4
    assert back.num_joints == 20
    assert len(back) == 40


# ---------------------------------------------------------------------------
# window sampling
# ---------------------------------------------------------------------------

def test_eval_window_identity_when_lengths_match():
    frames = np.arange(5 * 2 * 3, dtype=float).reshape(5, 2, 3)
    np.testing.assert_array_equal(sample_window(frames, 5, "eval"), frames)


def test_eval_window_bin_centers_deterministic():
    frames = np.arange(100, dtype=float).reshape(100, 1, 1)
    first = sample_window(frames, 64, "eval")
    second = sample_window(frames, 64, "eval")
    np.testing.assert_array_equal(first, second)
    edges = (np.arange(65) * 100) // 64
    expected = (edges[:-1] + edges[1:] - 1) // 2
    np.testing.assert_array_equal(first[:, 0, 0], expected.astype(float))


def test_train_window_reproducible_and_monotone():
    frames = np.arange(50, dtype=float).reshape(50, 1, 1)
    for seed in range(5):
        a = sample_window(frames, 16, "train", np.random.default_rng(seed))
        b = sample_window(frames, 16, "train", np.random.default_rng(seed))
        np.testing.assert_array_equal(a, b)
        picks = a[:, 0, 0]
        assert np.all(np.diff(picks) > 0)


def test_short_sequences_loop_repeat():
    frames = np.arange(3, dtype=float).reshape(3, 1, 1)
    out = sample_window(frames, 9, "eval")
    assert out.shape == (9, 1, 1)
    np.testing.assert_array_equal(out[:, 0, 0], [0, 1, 2, 0, 1, 2, 0, 1, 2])


def test_window_rejects_bad_input():
    frames = np.zeros((4, 2, 3))
    with pytest.raises(ValidationError):
        sample_window(frames, 0, "eval")
    with pytest.raises(ValidationError):
        sample_window(np.zeros((0, 2, 3)), 4, "eval")
    with pytest.raises(ValidationError):
        sample_window(frames, 2, "test")
    with pytest.raises(ValidationError):
        sample_window(frames, 2, "train", rng=None)


# ---------------------------------------------------------------------------
# modalities
# ---------------------------------------------------------------------------

def test_joint_modality_is_identity():
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(5, 4, 3))
    parents = np.array([0, 0, 1, 2])
    np.testing.assert_array_equal(derive_modality(frames, "joint", parents), frames)


def test_bone_at_root_is_zero():
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(5, 4, 3))
    parents = np.array([0, 0, 1, 2])
    bones = derive_modality(frames, Modality.BONE, parents)
    np.testing.assert_array_equal(bones[:, 0], 0.0)


def test_bone_chain_hand_case():
    # joints on one axis at 0, 1, 3 -> bones 0, 1, 2
    frames = np.zeros((2, 3, 3))
    frames[:, :, 0] = [0.0, 1.0, 3.0]
    bones = derive_modality(frames, "bone", np.array([0, 0, 1]))
    np.testing.assert_array_equal(bones[0, :, 0], [0.0, 1.0, 2.0])


def test_constant_sequence_has_zero_motion():
    frames = np.ones((6, 3, 3))
    parents = np.array([0, 0, 1])
    np.testing.assert_array_equal(derive_modality(frames, "joint_motion", parents), 0.0)
    np.testing.assert_array_equal(derive_modality(frames, "bone_motion", parents), 0.0)


def test_motion_is_frame_difference_with_zero_tail():
    frames = np.zeros((3, 2, 3))
    frames[:, 0, 0] = [1.0, 4.0, 9.0]
    motion = derive_modality(frames, "joint_motion", np.array([0, 0]))
    np.testing.assert_array_equal(motion[:, 0, 0], [3.0, 5.0, 0.0])


def test_repeat_occurrences_draw_independent_windows():
    ds = synth_generate(2, 3, v=5, t_raw=40, noise=0.0, seed=7)
    same, _ = assemble_batch(ds, [0, 0], 8, "train", "joint", seed_parts=(1, 0),
                             occurrences=[0, 0])
    np.testing.assert_array_equal(same[0], same[1])
    repeats, _ = assemble_batch(ds, [0, 0], 8, "train", "joint", seed_parts=(1, 0),
                                occurrences=[0, 1])
    assert np.any(repeats[0] != repeats[1])


def test_modality_commutes_with_batch_assembly():
    ds = synth_generate(2, 3, v=5, t_raw=12, noise=0.0, seed=6)
    batch, _ = assemble_batch(ds, [0, 3], 6, "eval", "bone")
    for row, idx in enumerate([0, 3]):
        _, frames = ds.samples[idx]
        single = center_on_root(frames.astype(np.float64), ds.root)
        window = sample_window(single, 6, "eval")
        ref = derive_modality(window, "bone", ds.parents).transpose(2, 0, 1)
        np.testing.assert_allclose(batch[row], ref, atol=0.0)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_same_seed_bit_identical():
    a = synth_generate(3, 4, v=6, t_raw=10, noise=0.2, seed=9)
    b = synth_generate(3, 4, v=6, t_raw=10, noise=0.2, seed=9)
    for (l1, f1), (l2, f2) in zip(a.samples, b.samples):
        assert l1 == l2
        np.testing.assert_array_equal(f1, f2)


def test_synth_noiseless_structure():
    ds = synth_generate(3, 4, v=6, t_raw=10, noise=0.0, seed=10)
    by_class = {}
    for label, frames in ds.samples:
        by_class.setdefault(label, []).append(frames)
    for label, group in by_class.items():
        for frames in group[1:]:
            np.testing.assert_array_equal(frames, group[0])
    assert np.max(np.abs(by_class[0][0] - by_class[1][0])) > 1e-3


def test_synth_rejects_degenerate_requests():
    with pytest.raises(ValidationError):
        synth_generate(1, 4)
    with pytest.raises(ValidationError):
        synth_generate(3, 4, v=1)
    with pytest.raises(ValidationError, match="at least 1 sample per class"):
        synth_generate(3, 0)


@pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
def test_synth_rejects_negative_or_non_finite_noise(noise):
    with pytest.raises(ValidationError, match="noise must be finite and >= 0"):
        synth_generate(3, 4, noise=noise)


def test_nearest_centroid_oracle_separates_classes():
    # fixed threshold 0.9 from the spec'd noise level; classes are separable
    ds = synth_generate(4, 40, v=20, t_raw=48, noise=0.05, seed=11)
    flat = np.stack([f.reshape(-1) for _, f in ds.samples])
    labels = ds.labels()
    centroids = np.stack([flat[labels == k].mean(axis=0) for k in range(4)])
    dists = ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    acc = float(np.mean(dists.argmin(axis=1) == labels))
    assert acc > 0.9


def test_partition_labels_cover_all_joints():
    ds = synth_generate(2, 2, v=8, t_raw=5, seed=12, partitions=4)
    onehot = ds.partition_labels()
    assert onehot.shape == (8, 4)
    np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(8))
    assert np.all(onehot.sum(axis=0) >= 1)
