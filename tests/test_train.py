import ctypes
import json
import os
import platform
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from simba import tensor as T
from simba.config import PRESETS, TrainConfig, preset_toy
from simba.errors import ConfigError, DomainError, TrainingAbort, ValidationError
from simba.data import synth_generate
from simba.nn import Parameter
from simba.shift_gcn import temporal_shift
from simba.tensor import BN_MOMENTUM, Tensor, cross_entropy_logits
from simba.train import (LR_DECAY_RATE, MOMENTUM, SGD, WARMUP_EPOCHS, accuracy, build_model,
                         evaluate, fuse_scores, load_scores, lr_at, save_scores, train)
from tracemem import traced_memory


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_published_recipe():
    cfg = TrainConfig()  # base 0.025, decay 0.1 at 75/85, warmup 5
    assert abs(lr_at(0, cfg) - 0.005) < 1e-15
    assert abs(lr_at(4, cfg) - 0.025) < 1e-15
    assert abs(lr_at(5, cfg) - 0.025) < 1e-15
    assert abs(lr_at(74, cfg) - 0.025) < 1e-15
    assert abs(lr_at(80, cfg) - 0.0025) < 1e-15
    assert abs(lr_at(86, cfg) - 0.00025) < 1e-15


def test_lr_schedule_warmup_is_linear():
    cfg = TrainConfig()
    ramp = [lr_at(e, cfg) for e in range(5)]
    np.testing.assert_allclose(np.diff(ramp), 0.005, atol=1e-15)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(base_lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(milestones=[50, 40])
    with pytest.raises(ConfigError):
        TrainConfig(milestones=[95], epochs=90)
    with pytest.raises(ConfigError):
        TrainConfig(precision="float16")
    with pytest.raises(ConfigError):
        TrainConfig(scan_chunk=-1)
    for name in ("batch_size_train", "batch_size_eval", "window_T", "mamba_D", "ssm_W",
                 "repeat_augmentation", "depth_l"):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: 0})
    for channels in (0, -4, 2):  # 0 and -4 are divisible by 4
        with pytest.raises(ConfigError, match=f"channels_C must be a positive multiple of 4, "
                                              f"got {channels}"):
            TrainConfig(channels_C=channels)


@pytest.mark.parametrize("field, value", [
    ("base_lr", float("nan")), ("base_lr", float("inf")),
    ("weight_decay", -1.0), ("weight_decay", float("inf")), ("weight_decay", float("nan")),
])
def test_config_rejects_non_finite_and_out_of_range_optimizer_values(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig.from_json(json.dumps({field: value}))  # NaN and Infinity as JSON writes them


@pytest.mark.parametrize("raw, field", [
    ({"base_lr": "0.1"}, "base_lr"), ({"weight_decay": None}, "weight_decay"),
    ({"base_lr": True}, "base_lr"), ({"partitions_enabled": "no"}, "partitions_enabled"),
    ({"epochs": 2.5, "milestones": []}, "epochs"), ({"window_T": 1.5}, "window_T"),
    ({"milestones": [1.5]}, "milestones"), ({"seed": 1.5}, "seed"), ({"seed": -1}, "seed"),
])
def test_config_rejects_a_wrong_type_naming_the_field(raw, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        TrainConfig.from_json(json.dumps(raw))


def test_every_preset_streams_the_scan():
    # scan_chunk 0, 1 or >= window_T runs the streamed op in training
    for name, preset in PRESETS.items():
        cfg = preset()
        assert cfg.scan_chunk in (0, 1) or cfg.scan_chunk >= cfg.window_T, (name, cfg.scan_chunk)


def test_config_json_roundtrip():
    for name, preset in PRESETS.items():
        cfg = preset()
        assert TrainConfig.from_json(cfg.to_json()) == cfg, name
    assert TrainConfig.from_json('{"base_lr": 1}').base_lr == 1  # an integer is a number
    with pytest.raises(ConfigError):
        TrainConfig.from_json(json.dumps({"bogus_field": 1}))


def test_presets_match_published_tables():
    ntu = PRESETS["ntu60"]()
    assert (ntu.base_lr, LR_DECAY_RATE, WARMUP_EPOCHS) == (0.025, 0.1, 5)
    assert (MOMENTUM, BN_MOMENTUM) == (0.9, 0.1)
    x = np.random.default_rng(0).normal(size=(1, 6, 4, 2))
    shifted = temporal_shift(x)  # radius 1: channel groups read frames t+1, t, t-1
    np.testing.assert_array_equal(shifted[:, 0::3, :-1], x[:, 0::3, 1:])
    np.testing.assert_array_equal(shifted[:, 1::3], x[:, 1::3])
    np.testing.assert_array_equal(shifted[:, 2::3, 1:], x[:, 2::3, :-1])
    assert (ntu.milestones, ntu.epochs) == ([75, 85], 90)
    assert (ntu.batch_size_train, ntu.batch_size_eval) == (64, 512)
    assert (ntu.weight_decay, ntu.window_T, ntu.channels_C, ntu.mamba_D) == (1e-4, 64, 216, 20)
    assert ntu.mamba_D * 25 == 500 and ntu.partitions_enabled
    ucla = PRESETS["ucla"]()
    assert (ucla.weight_decay, ucla.window_T, ucla.epochs) == (4e-4, 52, 400)
    assert (ucla.milestones, ucla.batch_size_train, ucla.batch_size_eval) == ([110], 16, 64)
    assert ucla.mamba_D * 20 == 500 and not ucla.partitions_enabled
    assert ucla.repeat_augmentation == 2


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _param(value, decay=False):
    return Parameter(np.array([value]), decay=decay)


def test_sgd_plain_step():
    p = _param(1.0)
    p.grad = np.array([0.5])
    SGD([("p", p)], weight_decay=0.0).step(lr=0.1)
    # m=0.9, g=0.5, lr=0.1: v = 0.5; w = 1 - 0.1·(0.5 + 0.9·0.5) = 1 - 0.095 = 0.905
    np.testing.assert_allclose(p.data, [0.905], atol=1e-15)


def test_sgd_nesterov_two_step_hand_unroll():
    # m=0.9, wd=0, g=1, lr=1: v1=1, w -= 1.9; v2=1.9, w -= 2.71
    p = _param(0.0)
    opt = SGD([("p", p)], weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step(lr=1.0)
    np.testing.assert_allclose(p.data, [-1.9], atol=1e-15)
    p.grad = np.array([1.0])
    opt.step(lr=1.0)
    np.testing.assert_allclose(p.data, [-1.9 - 2.71], atol=1e-12)


def test_weight_decay_skips_undecayed_parameters():
    gain = _param(2.0, decay=False)  # normalization gain / bias style
    weight = _param(2.0, decay=True)
    opt = SGD([("gain", gain), ("weight", weight)], weight_decay=0.1)
    gain.grad = np.array([0.0])
    weight.grad = np.array([0.0])
    opt.step(lr=1.0)
    np.testing.assert_allclose(gain.data, [2.0], atol=1e-15)
    # m=0.9, g = 0 + 0.1·2 = 0.2, lr=1: v = 0.2; w = 2 - (0.2 + 0.9·0.2) = 2 - 0.38 = 1.62
    np.testing.assert_allclose(weight.data, [1.62], atol=1e-15)


def test_sgd_step_changes_every_nonzero_grad_parameter():
    rng = np.random.default_rng(0)
    p = Parameter(rng.normal(size=(3, 2)), decay=True)
    before = p.data.copy()
    p.grad = rng.normal(size=(3, 2)) + 0.5
    SGD([("p", p)], weight_decay=1e-4).step(lr=0.01)
    assert np.all(p.data != before)


def test_sgd_aborts_on_nan_grad_naming_parameter():
    p = _param(1.0)
    p.grad = np.array([np.nan])
    opt = SGD([("layer.w", p)])
    with pytest.raises(TrainingAbort, match="layer.w"):
        opt.step(lr=0.1)


def test_sgd_abort_changes_no_parameter_or_velocity():
    # every gradient is checked before any update, so a NaN in the last
    # parameter leaves the ones before it where they were
    rng = np.random.default_rng(5)
    params = [(f"p{i}", Parameter(rng.normal(size=(2, 3)), decay=True)) for i in range(3)]
    opt = SGD(params, weight_decay=1e-4)
    for _, p in params:
        p.grad = rng.normal(size=(2, 3))
    opt.step(lr=0.1)  # nonzero velocities
    for _, p in params:
        p.grad = rng.normal(size=(2, 3))
    params[-1][1].grad[1, 2] = np.nan
    before = [p.data.copy() for _, p in params]
    velocity = [opt._velocity[name].copy() for name, _ in params]
    with pytest.raises(TrainingAbort, match="'p2'"):
        opt.step(lr=0.1)
    for (name, p), data, v in zip(params, before, velocity):
        np.testing.assert_array_equal(p.data, data, err_msg=name)
        np.testing.assert_array_equal(opt._velocity[name], v, err_msg=name)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fusion_hand_case():
    fused, preds = fuse_scores([np.array([[0.6, 0.4]]), np.array([[0.3, 0.7]])])
    np.testing.assert_allclose(fused, [[0.9, 1.1]], atol=1e-15)
    assert preds.tolist() == [1]


def test_fusion_identical_streams_keep_argmax():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(20, 5))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    _, single = fuse_scores([probs])
    _, double = fuse_scores([probs, probs])
    np.testing.assert_array_equal(single, double)


def test_fusion_matches_independent_reference():
    rng = np.random.default_rng(2)
    streams = [rng.random((30, 7)) for _ in range(4)]
    fused, preds = fuse_scores(streams)
    ref = np.zeros((30, 7))
    for s in streams:
        ref = ref + s
    assert np.max(np.abs(fused - ref)) <= 1e-12
    np.testing.assert_array_equal(preds, ref.argmax(axis=1))


def test_fusion_tie_breaks_to_lowest_index():
    fused, preds = fuse_scores([np.array([[0.5, 0.5], [0.2, 0.8]])])
    assert preds.tolist() == [0, 1]


def test_fusion_invariant_to_uniform_stream():
    rng = np.random.default_rng(3)
    streams = [rng.random((10, 4)) for _ in range(2)]
    _, base = fuse_scores(streams)
    uniform = np.full((10, 4), 0.25)
    _, shifted = fuse_scores(streams + [uniform])
    np.testing.assert_array_equal(base, shifted)


def test_fusion_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        fuse_scores([np.zeros((3, 2)), np.zeros((4, 2))])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _toy_setup(seed=0, epochs=2, with_imamba=True, precision="float64"):
    cfg = preset_toy()
    cfg.epochs = epochs
    cfg.milestones = [epochs - 1] if epochs > 1 else []
    cfg.seed = seed
    cfg.precision = precision
    cfg.with_imamba = with_imamba
    cfg.validate()
    ds = synth_generate(3, 6, v=8, t_raw=20, noise=0.05, seed=seed)
    model = build_model(cfg, ds)
    return cfg, ds, model


def test_initial_loss_near_log_k():
    cfg, ds, model = _toy_setup(seed=1)
    from simba.data import assemble_batch
    x, y = assemble_batch(ds, range(len(ds)), cfg.window_T, "eval", "joint")
    loss = cross_entropy_logits(model(Tensor(x)), y).item()
    assert abs(loss - np.log(3)) / np.log(3) < 0.2


def test_short_training_decreases_loss_and_logs(tmp_path):
    cfg, ds, model = _toy_setup(seed=2, epochs=3)
    metrics, best = train(model, ds, ds, cfg, out_dir=tmp_path / "run", verbose=False)
    assert len(metrics) == 3
    assert metrics[-1]["train_loss"] < metrics[0]["train_loss"] * 1.5
    assert 0.0 <= best <= 1.0
    log_lines = (tmp_path / "run" / "metrics.jsonl").read_text().strip().split("\n")
    assert len(log_lines) == 3
    record = json.loads(log_lines[0])
    assert set(record) == {"epoch", "lr", "train_loss", "train_acc", "eval_acc"}
    assert (tmp_path / "run" / "checkpoint.bin").exists()


def test_training_is_seed_deterministic(tmp_path):
    runs = []
    for attempt in range(2):
        cfg, ds, model = _toy_setup(seed=3, epochs=2)
        metrics, _ = train(model, ds, ds, cfg, out_dir=tmp_path / f"r{attempt}", verbose=False)
        runs.append((tmp_path / f"r{attempt}" / "metrics.jsonl").read_bytes())
    assert runs[0] == runs[1]


def test_a_failed_log_write_keeps_the_earlier_epochs_lines(tmp_path, monkeypatch):
    # a write that stops part-way through epoch 2's record, as on a full
    # disk, leaves the two complete lines before it and no temporary file
    import builtins
    cfg, ds, model = _toy_setup(seed=2, epochs=3)
    train(model, ds, ds, cfg, out_dir=tmp_path / "whole", verbose=False)
    whole = (tmp_path / "whole" / "metrics.jsonl").read_bytes()
    real_open, writes = builtins.open, []

    class HalfWriter:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

        def write(self, data):
            writes.append(data)
            if len(writes) == 3:
                self.f.write(data[:len(data) // 2])
                raise OSError("no space left on device")
            return self.f.write(data)

    def opener(path, *args, **kwargs):
        f = real_open(path, *args, **kwargs)
        return HalfWriter(f) if Path(path).name.startswith("metrics.jsonl") else f

    cfg, ds, model = _toy_setup(seed=2, epochs=3)
    monkeypatch.setattr(builtins, "open", opener)
    with pytest.raises(OSError, match="no space left on device"):
        train(model, ds, ds, cfg, out_dir=tmp_path / "cut", verbose=False)
    monkeypatch.undo()
    assert len(writes) == 3
    assert (tmp_path / "cut" / "metrics.jsonl").read_bytes() == b"".join(whole.splitlines(True)[:2])
    assert sorted(p.name for p in (tmp_path / "cut").iterdir()) == ["checkpoint.bin", "metrics.jsonl"]


def test_training_aborts_on_nan_loss_with_location():
    cfg, ds, model = _toy_setup(seed=4, epochs=1)
    model.head.w.data[0, 0] = np.nan
    with pytest.raises(TrainingAbort, match=r"epoch 0, batch 0"):
        train(model, ds, ds, cfg, verbose=False)


def test_previous_step_graph_is_released_before_next_forward(monkeypatch):
    # only one step's graph may be alive at a time.  Tensor takes no weak
    # references, so each step is watched through its logits' data buffer.
    # backward() consumes the graph, so after it the loss no longer holds the
    # logits as a parent; a dead buffer means train() dropped its own
    # references to the step's logits and loss.
    import simba.train as train_mod
    cfg, ds, model = _toy_setup(seed=7, epochs=1)
    cfg.batch_size_train = 2
    steps, alive_at_forward = [], []

    def recording_loss(logits, y):
        steps.append(weakref.ref(logits.data))
        return cross_entropy_logits(logits, y)

    forward = model.forward

    def checking_forward(x):
        alive_at_forward.append([ref() is not None for ref in steps])
        return forward(x)

    monkeypatch.setattr(train_mod, "cross_entropy_logits", recording_loss)
    model.forward = checking_forward
    train(model, ds, ds, cfg, verbose=False)
    n_steps = len(ds) // cfg.batch_size_train
    assert len(steps) == n_steps
    # train-mode forwards come first; the per-epoch evaluate forward follows
    assert alive_at_forward[:n_steps] == [[False] * k for k in range(n_steps)]


def _small_float32_step():
    """(forward, step) of a float32 model at C=64, T=32, N=2, V=25."""
    cfg = preset_toy()
    cfg.channels_C, cfg.window_T, cfg.precision = 64, 32, "float32"
    ds = synth_generate(3, 2, v=25, t_raw=40, noise=0.05, seed=3)
    model = build_model(cfg, ds)
    opt = SGD(model.named_parameters())

    def forward(i):
        from simba.data import assemble_batch
        x, y = assemble_batch(ds, [0, 1], cfg.window_T, "train", "joint",
                              seed_parts=(1, i), dtype=np.float32)
        return cross_entropy_logits(model(Tensor(x)), y)

    def step(i):
        loss = forward(i)
        opt.zero_grad()
        loss.backward()
        opt.step(0.05)

    return forward, step


def test_backward_peak_stays_near_the_forward_graph():
    # backward frees each node once its closure has run; keeping every node's
    # grad and closure to the end peaked at 1.8x the graph
    forward, step = _small_float32_step()
    for i in range(3):
        step(i)
    with traced_memory() as mem:
        loss = forward(3)
        mem.mark()
        loss.backward()
    assert mem.live + mem.peak <= 1.5 * mem.live, (mem.live, mem.peak)


@pytest.mark.parametrize("preset, depth, nodes", [("toy", 2, 84), ("ntu60", 1, 45)])
def test_train_step_records_fused_glue(preset, depth, nodes):
    # each partition gate is one node, and each decoder unit adds its skip
    # inside its own node; the composites took 90 nodes on toy and 56 at
    # ntu60 depth 1
    from simba.data import assemble_batch
    cfg = PRESETS[preset]()
    cfg.depth_l = depth
    ds = (synth_generate(4, 2, v=8, t_raw=48, seed=0) if preset == "toy"
          else synth_generate(3, 1, v=25, t_raw=80, seed=0, partitions=5))
    model = build_model(cfg, ds)
    x, y = assemble_batch(ds, [0, 1], cfg.window_T, "train", "joint", seed_parts=(cfg.seed, 0),
                          dtype=model.parameters()[0].dtype)
    loss = cross_entropy_logits(model(Tensor(x)), y)
    assert sum(node._backward is not None for node in T._toposort(loss)) == nodes


def _ntu60_depth2_batch2():
    """A float32 ntu60-preset model at depth 2, and one train batch of 2 samples."""
    from simba.data import assemble_batch
    cfg = PRESETS["ntu60"]()
    cfg.depth_l = 2
    ds = synth_generate(3, 1, v=25, t_raw=80, seed=0, partitions=5)
    model = build_model(cfg, ds)
    x, y = assemble_batch(ds, [0, 1], cfg.window_T, "train", "joint", seed_parts=(cfg.seed, 0),
                          dtype=np.float32)
    return model, x, y


# one float32 [N, C, T, V] activation of that batch: 2 samples, C=216, T=64, V=25
ACTIVATION_BYTES = 2 * 216 * 64 * 25 * 4


def test_ntu60_train_graph_holds_at_most_52_mib():
    # the arrays a recorded ntu60 depth-2, batch-2 float32 train step keeps
    # for its backward: node outputs and closure arrays, once per buffer,
    # parameters excluded (perfbench's tensor.recorded_mib counts the same).
    # Shift units that kept x̂ beside their output held 79.2 MiB; writing the
    # output over x̂ and rebuilding it in backward holds 49.7 MiB
    model, x, y = _ntu60_depth2_batch2()
    loss = cross_entropy_logits(model(Tensor(x)), y)

    def base(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    params = {id(base(p.data)) for p in model.parameters()}
    held = {}
    for node in T._toposort(loss):
        if node._backward is None:
            continue
        cells = [cell.cell_contents for cell in node._backward.__closure__ or ()]
        for a in [node.data, *(c for c in cells if isinstance(c, np.ndarray))]:
            if id(base(a)) not in params:
                held[id(base(a))] = base(a).nbytes
    assert sum(held.values()) <= 52 * 2**20, sum(held.values()) / 2**20


def test_ntu60_eval_forward_peaks_at_most_4_1_activations():
    # each U-Net activation lives only on the module's stack, so each skip
    # dies once its decoder unit has added it, the bottleneck after the first
    # decoder unit and the decoder output after the temporal unit; holding
    # the bottleneck in a local to the module's return peaked at 4.165
    model, x, _ = _ntu60_depth2_batch2()
    model.eval()
    x = Tensor(x)
    with T.no_grad(), traced_memory() as mem:
        model(x)
    assert mem.peak <= 4.1 * ACTIVATION_BYTES, mem.peak / ACTIVATION_BYTES


def test_ntu60_backward_peaks_at_most_4_5_activations_above_its_graph():
    # the shift units hand their gradient on instead of copying it, mask it
    # in place, and drop x̂ and the shifted input before the GEMMs that no
    # longer read them; copying peaked at 6.1 activations above the graph
    model, x, y = _ntu60_depth2_batch2()
    with traced_memory() as mem:
        loss = cross_entropy_logits(model(Tensor(x)), y)
        mem.mark()
        loss.backward()
    assert mem.peak <= 4.5 * ACTIVATION_BYTES, mem.peak / ACTIVATION_BYTES


def test_no_two_live_gradients_share_memory():
    # a node may hand its own gradient on to one parent and mask it in place,
    # so no two tensors' grads may share memory while both are live: checked
    # when each closure starts and, for the grads it wrote, when it returns
    from simba.data import assemble_batch
    cfg = PRESETS["ntu60"]()
    cfg.depth_l, cfg.channels_C, cfg.mamba_D = 1, 16, 2
    ds = synth_generate(3, 1, v=25, t_raw=80, seed=0, partitions=5)
    model = build_model(cfg, ds)
    x, y = assemble_batch(ds, [0, 1], cfg.window_T, "train", "joint", seed_parts=(cfg.seed, 0),
                          dtype=np.float32)
    x = Tensor(x, requires_grad=True)
    loss = cross_entropy_logits(model(x), y)
    tensors = T._toposort(loss)
    shared = []

    def overlaps(a, skip):
        return [t for t in tensors if t not in skip and t.grad is not None and np.shares_memory(a.grad, t.grad)]

    def checked(node, closure):
        def run(g):
            shared.extend((node, t) for t in overlaps(node, (node,)))
            closure(g)
            shared.extend((p, t) for p in node._parents if p.grad is not None
                          for t in overlaps(p, (node, p)))
        return run

    for node in tensors:
        if node._backward is not None:
            node._backward = checked(node, node._backward)
    loss.backward()
    leaves = [*model.parameters(), x]
    shared.extend((a, b) for i, a in enumerate(leaves) for b in leaves[:i] if np.shares_memory(a.grad, b.grad))
    assert not shared, [(a.shape, b.shape) for a, b in shared]


@pytest.mark.parametrize("preset, with_imamba", [("toy", True), ("toy", False), ("ntu60", True)],
                         ids=["toy", "toy_ablation", "ntu60_partitions"])
def test_every_parameter_array_gets_a_gradient_float64(preset, with_imamba):
    # an array whose gradient is nil is dead weight: a conv bias in front of
    # a train-mode batch-norm read at most 2.1e-17 here, cancelled by the mean
    from simba.data import assemble_batch
    cfg = PRESETS[preset]()
    cfg.precision, cfg.with_imamba = "float64", with_imamba
    if preset == "ntu60":
        cfg.depth_l, cfg.channels_C, cfg.mamba_D = 1, 16, 2
    ds = (synth_generate(4, 2, v=8, t_raw=48, seed=0) if preset == "toy"
          else synth_generate(3, 1, v=25, t_raw=80, seed=0, partitions=5))
    model = build_model(cfg, ds)
    x, y = assemble_batch(ds, [0, 1], cfg.window_T, "train", "joint", seed_parts=(cfg.seed, 0),
                          dtype=np.float64)
    cross_entropy_logits(model(Tensor(x)), y).backward()
    grads = {name: 0.0 if p.grad is None else float(np.max(np.abs(p.grad)))
             for name, p in model.named_parameters()}
    dead = {name: g for name, g in grads.items() if not g > 1e-8}
    assert not dead, dead


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_train_step_reuses_the_heap():
    # importing simba keeps freed arrays in glibc's heap, so a warm train step
    # faults in next to no new pages; glibc's default thresholds hand them
    # back to the kernel and fault them in again, step after step
    script = (
        "import resource\n"
        "from test_train import _small_float32_step\n"
        "_, step = _small_float32_step()\n"
        "for i in range(3):\n"
        "    step(i)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for i in range(3, 8):\n"
        "    step(i)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults_per_step = float(proc.stdout.split()[-1])
    assert faults_per_step <= 100, faults_per_step


def _subprocess_env():
    """This process's environment, with the package and this directory importable."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                                      env.get("PYTHONPATH")]))
    return env


def _blas_corename():
    """The kernel the loaded OpenBLAS runs, such as 'SkylakeX', or None if it cannot say."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _criterion_8_metrics(out_dir):
    """The per-epoch records of acceptance criterion 8's float64 toy run."""
    cfg = preset_toy()
    cfg.epochs = 2
    cfg.milestones = [1]
    cfg.precision = "float64"
    cfg.seed = 9
    ds = synth_generate(3, 6, v=8, t_raw=20, noise=0.05, seed=9)
    train(build_model(cfg, ds), ds, ds, cfg, out_dir=out_dir, verbose=False)
    return [json.loads(line) for line in (Path(out_dir) / "metrics.jsonl").read_text().splitlines()]


def test_toy_training_agrees_across_blas_kernels(tmp_path):
    # criterion 8's run is byte-identical under one BLAS kernel; another
    # kernel rounds GEMMs differently, so across kernels the losses agree
    # closely and the accuracies exactly
    script = ("import json, sys\n"
              "from test_train import _blas_corename, _criterion_8_metrics\n"
              "print(json.dumps([_blas_corename(), _criterion_8_metrics(sys.argv[1])]))\n")
    runs = []
    env = {k: v for k, v in _subprocess_env().items() if k != "OPENBLAS_CORETYPE"}
    for i, coretype in enumerate(({}, {"OPENBLAS_CORETYPE": "Haswell"})):
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / f"run{i}")],
                              env={**env, **coretype}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    (kernel, log), (other_kernel, other_log) = runs
    if kernel is None or kernel == other_kernel:
        pytest.skip(f"OpenBLAS runs one kernel here ({kernel}, {other_kernel})")
    assert len(log) == len(other_log) == 2
    for epoch, other in zip(log, other_log):
        assert abs(epoch["train_loss"] - other["train_loss"]) <= 1e-12 * abs(epoch["train_loss"])
        assert (epoch["train_acc"], epoch["eval_acc"]) == (other["train_acc"], other["eval_acc"])


def test_step_size_underflow_aborts_with_location():
    cfg, ds, model = _toy_setup(seed=4, epochs=1, precision="float32")
    for module in model.modules_:
        module.imamba.p.data[...] = -1e4  # softplus underflows to a zero step
    with pytest.raises(TrainingAbort, match=r"epoch 0, batch 0") as info:
        train(model, ds, ds, cfg, verbose=False)
    assert isinstance(info.value.__cause__, DomainError)


def test_float32_model_stays_float32_after_a_float64_build():
    ds = synth_generate(3, 2, v=8, t_raw=20, noise=0.05, seed=8)
    cfg32 = preset_toy()
    cfg32.precision = "float32"
    model32 = build_model(cfg32, ds)
    cfg64 = preset_toy()
    cfg64.precision = "float64"
    model64 = build_model(cfg64, ds)
    assert {p.dtype for p in model64.parameters()} == {np.dtype(np.float64)}
    from simba.data import assemble_batch
    x, y = assemble_batch(ds, range(len(ds)), cfg32.window_T, "eval", "joint", dtype=np.float32)
    logits = model32(Tensor(x))
    assert logits.dtype == np.float32
    cross_entropy_logits(logits, y).backward()
    assert {p.grad.dtype for p in model32.parameters()} == {np.dtype(np.float32)}
    assert {b.dtype for _, b in model32.named_buffers()} == {np.dtype(np.float32)}


def test_evaluate_returns_valid_distributions():
    cfg, ds, model = _toy_setup(seed=5)
    probs, labels = evaluate(model, ds, cfg)
    assert probs.shape == (len(ds), 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(probs >= 0.0)
    np.testing.assert_array_equal(labels, ds.labels())
    assert 0.0 <= accuracy(probs, labels) <= 1.0


def test_non_finite_evaluation_fails_closed():
    # train-mode batch-norm never reads the running mean, so the train steps
    # stay finite and only the evaluation goes NaN
    cfg, ds, model = _toy_setup(seed=5, epochs=1)
    cfg.batch_size_eval = 8
    model.modules_[-1].residual.running_mean[0] = np.nan
    with pytest.raises(DomainError, match=r"non-finite logits for samples \[0, 8\)"):
        evaluate(model, ds, cfg)
    with pytest.raises(TrainingAbort, match=r"epoch 0, evaluation: non-finite logits"):
        train(model, ds, ds, cfg, verbose=False)


# ---------------------------------------------------------------------------
# sharded evaluation
# ---------------------------------------------------------------------------

TRAIN = sys.modules["simba.train"]  # the package re-exports the function `train`
needs_blas_handle = pytest.mark.skipif(TRAIN._openblas() is None,
                                       reason="the OpenBLAS thread count cannot be set here")


def _eval_setup(preset, with_imamba=True, per_class=2, **fields):
    cfg = PRESETS[preset]()
    cfg.with_imamba = with_imamba
    for name, value in fields.items():
        setattr(cfg, name, value)
    ds = (synth_generate(3, per_class, v=8, t_raw=20, noise=0.05, seed=3) if preset == "toy"
          else synth_generate(2, per_class, v=25, t_raw=80, seed=0, partitions=5))
    return cfg, ds, build_model(cfg, ds)


def _shard_counts(monkeypatch):
    """Record the shard count of every eval batch."""
    counts, inner = [], TRAIN._sharded_logits

    def spy(model, x, shards):
        counts.append(shards)
        return inner(model, x, shards)

    monkeypatch.setattr(TRAIN, "_sharded_logits", spy)
    return counts


@needs_blas_handle
@pytest.mark.parametrize("preset, with_imamba, fields", [
    ("toy", True, {}), ("toy", False, {}),
    ("ntu60", True, {"depth_l": 1, "channels_C": 16, "mamba_D": 2}),
], ids=["toy", "toy_ablation", "ntu60_partitions"])
def test_eval_mode_scores_each_sample_on_its_own(preset, with_imamba, fields):
    # sharding rests on this: an op that mixes samples in eval mode breaks it
    cfg, ds, model = _eval_setup(preset, with_imamba, per_class=3, **fields)
    with TRAIN._pinned_blas(1):
        cfg.batch_size_eval = len(ds)
        whole, _ = evaluate(model, ds, cfg)
        cfg.batch_size_eval = 1
        single, _ = evaluate(model, ds, cfg)
    np.testing.assert_array_equal(whole, single)


@needs_blas_handle
@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_sharded_logits_equal_the_whole_batch(precision):
    cfg, ds, model = _eval_setup("toy", per_class=3, precision=precision)
    model.eval()
    from simba.data import assemble_batch
    x, _ = assemble_batch(ds, range(len(ds)), cfg.window_T, "eval", "joint",
                          dtype=model.parameters()[0].dtype)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with T.no_grad(), TRAIN._pinned_blas(1):
            whole = TRAIN._sharded_logits(model, x, 1)
            for shards in (2, 3):
                np.testing.assert_array_equal(TRAIN._sharded_logits(model, x, shards), whole)
    finally:
        sys.setswitchinterval(interval)


@needs_blas_handle
def test_sharded_eval_restores_blas_threads_and_joins_its_workers(monkeypatch):
    cfg, ds, model = _eval_setup("toy", per_class=1, batch_size_eval=3, epochs=1, milestones=[])
    monkeypatch.setattr(TRAIN, "SHARD_MIN_ELEMENTS", 1)
    counts = _shard_counts(monkeypatch)
    seen, fail = [], []

    def head_forward(x):  # notes each shard's BLAS threads; fails the one-sample shard on demand
        seen.append(TRAIN._blas_threads())
        if fail and x.shape[0] == 1:
            raise DomainError("shard failed")
        return type(model.head).forward(model.head, x)

    monkeypatch.setattr(model.head, "forward", head_forward, raising=False)
    with TRAIN._pinned_blas(2):
        threads = threading.active_count()
        evaluate(model, ds, cfg)
        assert (counts, seen) == ([2], [1, 1])  # shards of 1 and 2 samples, each at one BLAS thread
        assert (TRAIN._blas_threads(), threading.active_count()) == (2, threads)
        fail.append(True)
        with pytest.raises(DomainError, match="^shard failed$"):
            evaluate(model, ds, cfg)
        assert (TRAIN._blas_threads(), threading.active_count()) == (2, threads)
        with pytest.raises(TrainingAbort, match="^epoch 0, evaluation: shard failed$"):
            train(model, ds, ds, cfg, verbose=False)
        assert (TRAIN._blas_threads(), threading.active_count()) == (2, threads)


@needs_blas_handle
def test_eval_output_does_not_depend_on_blas_threads(monkeypatch):
    # at 2 threads each batch of 4 runs as 2 shards of 2 samples (691K activations each);
    # run whole at 2 threads, this set read up to 1.3e-7 off the 1-thread probabilities
    # (at depth 1, or with fewer classes, the difference rounded away in float32)
    cfg = PRESETS["ntu60"]()
    cfg.depth_l, cfg.batch_size_eval, cfg.seed = 2, 4, 1
    ds = synth_generate(60, 1, v=25, t_raw=96, noise=0.05, seed=1, partitions=5)
    model = build_model(cfg, ds)
    counts = _shard_counts(monkeypatch)
    probs = {}
    for threads in (1, 2):
        with TRAIN._pinned_blas(threads):
            probs[threads], _ = evaluate(model, ds, cfg)
    assert counts == [1] * 15 + [2] * 15
    np.testing.assert_array_equal(probs[1], probs[2])


@needs_blas_handle
def test_small_eval_batches_run_whole(monkeypatch):
    # the toy preset's batches of 64 and 32 and single ntu60 samples stay under the size gate
    counts = _shard_counts(monkeypatch)
    with TRAIN._pinned_blas(2):
        cfg, ds, model = _eval_setup("toy", per_class=32)
        evaluate(model, ds, cfg)
        cfg, ds, model = _eval_setup("ntu60", per_class=1, depth_l=1, batch_size_eval=1)
        evaluate(model, ds, cfg)
    assert counts == [1, 1, 1, 1]


def test_load_scores_rejects_non_finite_rows(tmp_path):
    path = tmp_path / "scores.json"
    for bad in (np.nan, np.inf):
        probs = np.full((3, 2), 0.5)
        probs[1] = [bad, 0.5]
        save_scores(path, probs)
        with pytest.raises(ValidationError, match="row 1 is not a probability vector"):
            load_scores(path)
    save_scores(path, np.full((3, 2), 0.5))
    assert load_scores(path)[1] == [0, 1, 2]


def test_repeat_augmentation_multiplies_steps():
    cfg, ds, model = _toy_setup(seed=6, epochs=1)
    cfg.repeat_augmentation = 2
    metrics, _ = train(model, ds, ds, cfg, verbose=False)
    assert metrics[0]["train_acc"] >= 0.0  # smoke: runs with doubled sampling


def test_depth_ablation_both_depths_converge():
    # toy-scale counterpart of the depth study: depths 2 and 4 both train;
    # the final losses are logged for comparison, not ordered
    ds = synth_generate(4, 20, v=8, t_raw=32, noise=0.05, seed=40)
    final = {}
    for depth in (2, 4):
        cfg = preset_toy()
        cfg.epochs = 6
        cfg.milestones = [5]
        cfg.depth_l = depth
        cfg.seed = 5
        cfg.precision = "float32"
        model = build_model(cfg, ds)
        metrics, _ = train(model, ds, ds, cfg, verbose=False)
        assert max(m["train_acc"] for m in metrics) >= 0.9, depth
        final[depth] = metrics[-1]["train_loss"]
    print(f"depth-ablation final losses: depth2={final[2]:.4f} depth4={final[4]:.4f}")


def test_public_names_resolve_and_train_is_the_submodule():
    import types

    import simba
    for name in simba.__all__:
        assert hasattr(simba, name), name
    assert isinstance(simba.train, types.ModuleType)
