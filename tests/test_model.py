import re
import struct

import numpy as np
import pytest

from simba import nn
from simba import tensor as T
from simba.checkpoint import _write_entry, read_checkpoint, restore_checkpoint, save_checkpoint
from simba.errors import ConfigError, FormatError, ShapeError, ValidationError
from simba.model import (
    PartitionGate,
    SimbaModel,
    SimbaModule,
    flatten_vertices,
    unflatten_vertices,
)
from simba.tensor import Tensor


def tiny_model(seed=0, with_imamba=True, num_classes=10, labels=None):
    return SimbaModel(in_channels=3, channels=8, mamba_d=2, vertices=4, ssm_w=2,
                      depth=2, num_classes=num_classes,
                      rng=np.random.default_rng(seed), with_imamba=with_imamba,
                      partition_labels=labels)


# ---------------------------------------------------------------------------
# flatten / unflatten
# ---------------------------------------------------------------------------

def test_flatten_roundtrip_bit_identical():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 5, 3, 4)))
    back = unflatten_vertices(flatten_vertices(x), v=4)
    np.testing.assert_array_equal(back.data, x.data)


def test_flatten_index_layout():
    # out[n, t, v*D + d] == x[n, d, t, v]
    n, d, t, v = 1, 3, 2, 4
    x = np.arange(n * d * t * v, dtype=float).reshape(n, d, t, v)
    flat = flatten_vertices(Tensor(x)).data
    for dd in range(d):
        for vv in range(v):
            np.testing.assert_array_equal(flat[0, :, vv * d + dd], x[0, dd, :, vv])


def test_flatten_preset_shapes():
    assert flatten_vertices(Tensor(np.zeros((2, 20, 64, 25)))).shape == (2, 64, 500)
    assert flatten_vertices(Tensor(np.zeros((2, 25, 52, 20)))).shape == (2, 52, 500)


# ---------------------------------------------------------------------------
# encoder / decoder ladders
# ---------------------------------------------------------------------------

def test_encoder_ladder_toy():
    rng = np.random.default_rng(1)
    module = SimbaModule(3, 8, 2, 4, 2, rng)
    stack = module.encode(Tensor(rng.normal(size=(2, 8, 3, 4))))
    assert stack[-1].shape == (2, 2, 3, 4)
    assert tuple(s.shape[1] for s in stack[:-1]) == (8, 4, 2)


def test_encode_stack_is_emptied_by_decode():
    # the stack holds (C, C/2, C/4, D) channels, shallowest first, and the
    # decoder pops every entry, so no skip outlives the module in the list
    rng = np.random.default_rng(4)
    module = SimbaModule(3, 16, 3, 4, 2, rng)
    stack = module.encode(Tensor(rng.normal(size=(2, 16, 3, 4))))
    assert [s.shape[1] for s in stack] == [16, 8, 4, 3]
    out = module.decode(stack)
    assert out.shape == (2, 16, 3, 4)
    assert stack == []


def test_gradcheck_encoder_check_reads_the_bottleneck(monkeypatch):
    # encode's list starts with its own input, so a check of entry [0]
    # would differentiate no encoder unit and pass trivially
    from simba import gradcheck
    shapes = {}

    def probe(module, x, rng, forward=None, prefix=""):
        shapes[prefix] = (forward or module)(x).shape
        return 0.0

    monkeypatch.setattr(gradcheck, "check_module", probe)
    gradcheck.suite_simba_module()
    assert shapes == {"": (1, 8, 3, 4), "enc.": (1, 2, 3, 4), "dec.": (1, 8, 3, 4)}


def test_encoder_rejects_unaligned_channels():
    for c in (6, 0, -4):
        with pytest.raises(ConfigError, match=f"positive multiple of 4, got {c}"):
            SimbaModule(3, c, 2, 4, 2, np.random.default_rng(0))


def test_decoder_zeroed_convs_leave_only_skips():
    rng = np.random.default_rng(2)
    module = SimbaModule(3, 8, 2, 4, 2, rng)
    for block in module.dec:
        block.w.data[:] = 0.0
    xn = Tensor(rng.normal(size=(1, 2, 3, 4)))
    skips = (Tensor(rng.normal(size=(1, 8, 3, 4))),
             Tensor(rng.normal(size=(1, 4, 3, 4))),
             Tensor(rng.normal(size=(1, 2, 3, 4))))
    out = module.decode([*skips, xn])
    np.testing.assert_array_equal(out.data, skips[0].data)


def test_decoder_skip_shape_mismatch():
    rng = np.random.default_rng(3)
    module = SimbaModule(3, 8, 2, 4, 2, rng)
    xn = Tensor(np.zeros((1, 2, 3, 4)))
    bad = (Tensor(np.zeros((1, 8, 3, 4))),
           Tensor(np.zeros((1, 5, 3, 4))),  # wrong channel count
           Tensor(np.zeros((1, 2, 3, 4))))
    with pytest.raises((ShapeError, ValueError)):
        module.decode([*bad, xn])


# ---------------------------------------------------------------------------
# module composition
# ---------------------------------------------------------------------------

def test_module_shape_contract_and_nonnegativity():
    rng = np.random.default_rng(4)
    module = SimbaModule(3, 8, 2, 4, 2, rng)
    out = module(Tensor(rng.normal(size=(2, 3, 5, 4))))
    assert out.shape == (2, 8, 5, 4)
    assert np.all(out.data >= 0.0)
    chained = module  # modules after the first map C -> C
    module2 = SimbaModule(8, 8, 2, 4, 2, rng)
    assert module2(out).shape == (2, 8, 5, 4)
    del chained


def test_skip_paths_carry_gradient_when_u_interior_is_zeroed():
    rng = np.random.default_rng(5)
    module = SimbaModule(3, 8, 2, 4, 2, rng)
    for block in list(module.enc) + list(module.dec):
        block.w.data[:] = 0.0
    for _, p in module.imamba.named_parameters():
        if p.data.ndim == 2:
            p.data[:] = 0.0
    x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
    module(x).sum().backward()
    assert x.grad is not None and np.max(np.abs(x.grad)) > 1e-8


def test_frame_reversal_changes_logits_with_imamba():
    rng = np.random.default_rng(6)
    model = tiny_model(seed=1).eval()
    x = rng.normal(size=(2, 3, 6, 4))
    with T.no_grad():
        base = model(Tensor(x)).data
        flipped = model(Tensor(x[:, :, ::-1, :].copy())).data
    assert np.max(np.abs(base - flipped)) > 1e-6


def test_frame_permutation_invariance_without_imamba():
    rng = np.random.default_rng(7)
    model = tiny_model(seed=1, with_imamba=False).eval()
    for module in model.modules_:
        module.tcn.shift = None  # no temporal shift: every remaining op is per-frame
    x = rng.normal(size=(2, 3, 6, 4))
    perm = rng.permutation(6)
    with T.no_grad():
        base = model(Tensor(x)).data
        permuted = model(Tensor(x[:, :, perm, :].copy())).data
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_ablated_model_is_trainable():
    model = tiny_model(seed=2, with_imamba=False)
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=False)
    logits = model(x)
    assert logits.shape == (2, 10)
    from simba.tensor import cross_entropy_logits
    cross_entropy_logits(logits, np.array([1, 2])).backward()
    grads = [p.grad for p in model.parameters()]
    assert all(g is None or np.all(np.isfinite(g)) for g in grads)
    assert any(g is not None and np.any(g != 0) for g in grads)


# ---------------------------------------------------------------------------
# partition gate
# ---------------------------------------------------------------------------

def _labels(v, assignment):
    k = max(assignment) + 1
    onehot = np.zeros((v, k))
    onehot[np.arange(v), assignment] = 1.0
    return onehot


def test_gate_fully_open_passes_through_exactly():
    rng = np.random.default_rng(9)
    gate = PartitionGate(4, _labels(5, [0, 0, 1, 1, 2]), rng)
    gate.gate.data[:] = 1.0
    x = rng.normal(size=(2, 4, 3, 5))
    np.testing.assert_array_equal(gate(Tensor(x)).data, x)


def test_gate_single_partition_broadcasts_mean():
    rng = np.random.default_rng(10)
    gate = PartitionGate(4, _labels(5, [0, 0, 0, 0, 0]), rng)
    gate.gate.data[:] = 0.0
    gate.w.data[:] = np.eye(4)
    gate.b.data[:] = 0.0
    x = rng.normal(size=(2, 4, 3, 5))
    out = gate(Tensor(x)).data
    mean = x.mean(axis=3, keepdims=True)
    np.testing.assert_allclose(out, np.broadcast_to(mean, x.shape), atol=1e-12)


def test_gate_identity_partitions_pass_through_for_any_gate():
    rng = np.random.default_rng(11)
    gate = PartitionGate(3, np.eye(5), rng)
    gate.gate.data[:] = rng.random((1, 3, 1, 1))
    gate.w.data[:] = np.eye(3)
    gate.b.data[:] = 0.0
    x = rng.normal(size=(2, 3, 4, 5))
    np.testing.assert_array_equal(gate(Tensor(x)).data, x)


def test_gate_rejects_invalid_partitions():
    rng = np.random.default_rng(12)
    bad = np.zeros((4, 2))
    bad[0, 0] = 1.0  # joints 1..3 unassigned
    with pytest.raises(ConfigError):
        PartitionGate(3, bad, rng)
    empty_group = _labels(4, [0, 0, 0, 0])[:, :1]
    two_groups = np.concatenate([empty_group, np.zeros((4, 1))], axis=1)
    with pytest.raises(ConfigError):
        PartitionGate(3, two_groups, rng)


def test_gate_node_keeps_no_array_of_the_output_shape():
    # the gate's gradient rebuilds e - x from the mixed group features pz
    # [N, C, T, K], which the node keeps, so only the output holds an
    # [N, C, T, V] array
    rng = np.random.default_rng(14)
    gate = PartitionGate(4, _labels(5, [0, 0, 1, 1, 2]), rng)
    x = Tensor(rng.normal(size=(2, 4, 3, 5)), requires_grad=True)
    out = gate(x)
    assert out._backward.__qualname__ == "partition_gate.<locals>.backward"
    assert out._parents == (x, gate.w, gate.b, gate.gate)
    held = []
    for cell in out._backward.__closure__:
        value = cell.cell_contents
        if isinstance(value, Tensor) and value not in out._parents:
            value = value.data
        if isinstance(value, np.ndarray):
            held.append(value.shape)
    assert held and out.shape not in held, held


def test_gate_enabled_module_forward():
    rng = np.random.default_rng(13)
    module = SimbaModule(3, 8, 2, 4, 2, rng, partition_labels=_labels(4, [0, 0, 1, 1]))
    out = module(Tensor(rng.normal(size=(1, 3, 4, 4))))
    assert out.shape == (1, 8, 4, 4)


# ---------------------------------------------------------------------------
# whole model
# ---------------------------------------------------------------------------

def test_trace_shapes_names_paths_like_parameters():
    model = tiny_model(labels=_labels(4, [0, 0, 1, 1])).eval()
    with T.no_grad():
        trace = nn.trace_shapes(model, Tensor(np.random.default_rng(15).normal(size=(2, 3, 5, 4))))
    assert trace[""] == ((2, 3, 5, 4), (2, 10))
    assert trace["modules_.1.imamba"] == ((2, 5, 8), (2, 5, 8))          # V*D = 4*2
    assert trace["head"] == ((2, 8), (2, 10))
    names = [name for name, _ in model.named_parameters()]
    for path in trace:
        assert any(name.startswith(f"{path}." if path else "") for name in names), path


def test_trace_is_off_outside_trace_shapes():
    model = tiny_model(labels=_labels(4, [0, 0, 1, 1])).eval()
    rng = np.random.default_rng(16)
    with T.no_grad():
        model(Tensor(rng.normal(size=(2, 3, 5, 4))))
        assert nn._TRACE is None
        # the gate rejects 5 joints after the entry block has been recorded
        with pytest.raises(ShapeError):
            nn.trace_shapes(model, Tensor(rng.normal(size=(2, 3, 5, 5))))
        assert nn._TRACE is None
        model(Tensor(rng.normal(size=(2, 3, 5, 4))))
        assert nn._TRACE is None
        trace = nn.trace_shapes(model, Tensor(rng.normal(size=(1, 3, 5, 4))))
    assert all(shapes[0][0] == 1 for shapes in trace.values())


def test_logits_shape_for_ten_classes():
    model = tiny_model(num_classes=10).eval()
    x = Tensor(np.random.default_rng(14).normal(size=(3, 3, 5, 4)))
    with T.no_grad():
        assert model(x).shape == (3, 10)


def test_batch_permutation_permutes_logits():
    rng = np.random.default_rng(15)
    model = tiny_model(seed=3).eval()
    x = rng.normal(size=(4, 3, 5, 4))
    perm = np.array([2, 0, 3, 1])
    with T.no_grad():
        base = model(Tensor(x)).data
        permuted = model(Tensor(x[perm].copy())).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def test_param_count_is_seed_independent():
    counts = {tiny_model(seed=s).num_params() for s in (0, 1, 2)}
    assert len(counts) == 1


def test_model_rejects_wrong_input_channels():
    model = tiny_model()
    with pytest.raises(ShapeError):
        model(Tensor(np.zeros((1, 4, 5, 4))))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_preserves_behavior(tmp_path):
    rng = np.random.default_rng(16)
    model = tiny_model(seed=4)
    # perturb running stats so buffers must round-trip too
    x = Tensor(rng.normal(size=(2, 3, 5, 4)))
    model.train()(x)
    model.eval()
    with T.no_grad():
        before = model(x).data
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, meta={"note": 7})
    other = tiny_model(seed=5).eval()  # different init
    meta, entries = read_checkpoint(path)
    restore_checkpoint(other, entries)
    assert meta == {"note": 7}
    with T.no_grad():
        after = other(x).data
    np.testing.assert_array_equal(after, before)


def test_a_failed_save_leaves_the_previous_checkpoint_intact(tmp_path, monkeypatch):
    from simba import checkpoint
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tiny_model(seed=14))
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]
    before = path.read_bytes()
    written = []

    def fail_on_the_third_entry(f, name, arr):
        written.append(name)
        if len(written) == 3:
            raise OSError("no space left on device")
        _write_entry(f, name, arr)

    monkeypatch.setattr(checkpoint, "_write_entry", fail_on_the_third_entry)
    with pytest.raises(OSError, match="no space left on device"):
        save_checkpoint(path, tiny_model(seed=15))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


def test_checkpoint_validates_names_and_shapes(tmp_path):
    model = tiny_model(seed=6)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model)
    entries = read_checkpoint(path)[1]
    bigger = SimbaModel(in_channels=3, channels=8, mamba_d=2, vertices=4, ssm_w=2,
                        depth=3, num_classes=10, rng=np.random.default_rng(0))
    with pytest.raises(ValidationError):
        restore_checkpoint(bigger, entries)
    wrong_width = SimbaModel(in_channels=3, channels=8, mamba_d=2, vertices=4,
                             ssm_w=4, depth=2, num_classes=10,
                             rng=np.random.default_rng(0))
    with pytest.raises(ValidationError):
        restore_checkpoint(wrong_width, entries)


@pytest.mark.parametrize("stray", ["opt/velocity/modules_.0.entry.w",
                                   "buffer/modules_.0.entry.bn.num_batches"])
def test_checkpoint_rejects_a_stray_entry_naming_it(tmp_path, stray):
    # the file holds only parameters and buffers; anything else fails closed
    model = tiny_model(seed=8)
    save_checkpoint(tmp_path / "ckpt.bin", model)
    raw = (tmp_path / "ckpt.bin").read_bytes()
    (meta_len,) = struct.unpack("<I", raw[6:10])
    at = 10 + meta_len
    (count,) = struct.unpack("<I", raw[at:at + 4])
    name = stray.encode("utf-8")
    entry = struct.pack("<H", len(name)) + name + struct.pack("<BBI", 8, 1, 2) + bytes(16)
    path = tmp_path / "stray.bin"
    path.write_bytes(raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:] + entry)
    with pytest.raises(ValidationError, match=re.escape(f"0 missing, first []; 1 unknown, "
                                                        f"first ['{stray}']")):
        restore_checkpoint(tiny_model(seed=9), read_checkpoint(path)[1])


def test_checkpoint_with_batch_norm_and_ssm_sub_blocks_is_rejected(tmp_path):
    # files written when batch-norm and the SSM parameters were sub-blocks
    # name them "<unit>.bn.gamma" and "imamba.ssm.a_log"; no fallback reads them
    model = tiny_model(seed=12)
    state = {"param/" + n: p.data for n, p in model.named_parameters()}
    state.update(("buffer/" + n, b) for n, b in model.named_buffers())
    path = tmp_path / "older.bin"
    with open(path, "wb") as f:
        f.write(b"SBCP" + struct.pack("<HI", 1, 2) + b"{}" + struct.pack("<I", len(state)))
        for name, arr in state.items():
            name = re.sub(r"\.(gamma|beta|running_mean|running_var)$", r".bn.\1", name)
            _write_entry(f, re.sub(r"\.imamba\.(a_log|p|w_b|w_c|w_dt)\b", r".imamba.ssm.\1", name), arr)
    with pytest.raises(ValidationError, match=re.escape(
            "86 missing, first ['buffer/modules_.0.dec.0.running_mean'")) as info:
        restore_checkpoint(tiny_model(seed=13), read_checkpoint(path)[1])
    assert "86 unknown, first ['buffer/modules_.0.dec.0.bn.running_mean'" in str(info.value)
    assert "param/modules_.0.imamba.ssm.a_log" in read_checkpoint(path)[1]


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    save_checkpoint(tmp_path / "ckpt.bin", tiny_model(seed=10))
    path = tmp_path / "trailing.bin"
    path.write_bytes((tmp_path / "ckpt.bin").read_bytes() + b"garbage")
    with pytest.raises(FormatError, match="7 trailing bytes after the last entry"):
        read_checkpoint(path)


def test_checkpoint_rejects_a_repeated_entry_naming_it(tmp_path):
    # a later copy of an entry would silently win over the first
    model = tiny_model(seed=11)
    save_checkpoint(tmp_path / "ckpt.bin", model)
    raw = (tmp_path / "ckpt.bin").read_bytes()
    (meta_len,) = struct.unpack("<I", raw[6:10])
    at = 10 + meta_len
    (count,) = struct.unpack("<I", raw[at:at + 4])
    w = model.modules_[0].entry.w.data
    name = b"param/modules_.0.entry.w"
    entry = (struct.pack("<H", len(name)) + name + struct.pack("<BB2I", 8, 2, *w.shape)
             + np.full(w.shape, 7.0).astype("<f8").tobytes())
    path = tmp_path / "repeated.bin"
    path.write_bytes(raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:] + entry)
    with pytest.raises(FormatError, match=re.escape("entry 'param/modules_.0.entry.w' appears twice")):
        read_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_checkpoint(path)
    truncated = tmp_path / "trunc.bin"
    model = tiny_model(seed=7)
    save_checkpoint(tmp_path / "full.bin", model)
    blob = (tmp_path / "full.bin").read_bytes()
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        read_checkpoint(truncated)
    bad_name = tmp_path / "bad_name.bin"  # one float64 scalar entry named b"\xff\xfe"
    bad_name.write_bytes(b"SBCP" + struct.pack("<HI", 1, 2) + b"{}" + struct.pack("<IH", 1, 2)
                         + b"\xff\xfe" + struct.pack("<BB", 8, 0) + struct.pack("<d", 1.0))
    with pytest.raises(FormatError, match="entry name .* is not UTF-8"):
        read_checkpoint(bad_name)
