import json
import struct

import numpy as np
import pytest

from simba import cli
from simba.checkpoint import read_checkpoint
from simba.config import preset_toy
from simba.data import load_dataset
from simba.errors import FormatError


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def toy_config(tmp_path):
    cfg = preset_toy()
    cfg.epochs = 2
    cfg.milestones = [1]
    cfg.precision = "float64"
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    return path


@pytest.fixture()
def toy_data(tmp_path):
    path = tmp_path / "toy.skl"
    assert run("synth", "--out", str(path), "--classes", "3", "--samples", "5",
               "--joints", "8", "--frames", "20", "--noise", "0.05", "--seed", "1") == 0
    return path


def test_synth_then_train_writes_artifacts(tmp_path, toy_config, toy_data):
    out = tmp_path / "run"
    assert run("train", "--config", str(toy_config), "--data", str(toy_data),
               "--modality", "joint", "--out", str(out), "--quiet") == 0
    assert (out / "checkpoint.bin").exists()
    lines = (out / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    assert {"epoch", "lr", "train_loss", "train_acc", "eval_acc"} == set(json.loads(lines[0]))


def test_eval_and_duplicate_fusion_match(tmp_path, toy_config, toy_data, capsys):
    out = tmp_path / "run"
    run("train", "--config", str(toy_config), "--data", str(toy_data),
        "--out", str(out), "--quiet")
    scores = tmp_path / "scores.json"
    assert run("eval", "--ckpt", str(out / "checkpoint.bin"), "--data", str(toy_data),
               "--scores", str(scores)) == 0
    eval_line = capsys.readouterr().out.strip().split("\n")[-1]
    eval_acc = float(eval_line.split("accuracy")[1].split()[0])
    # fusing a stream with itself preserves the accuracy
    assert run("fuse", str(scores), str(scores), "--labels", str(toy_data)) == 0
    fuse_line = capsys.readouterr().out.strip()
    fuse_acc = float(fuse_line.split("accuracy")[1].split()[0])
    assert fuse_acc == eval_acc


def test_eval_reads_each_checkpoint_entry_once(tmp_path, toy_config, toy_data, monkeypatch):
    # the meta check and the restore share one parse of the file
    from simba import checkpoint
    out = tmp_path / "run"
    assert run("train", "--config", str(toy_config), "--data", str(toy_data),
               "--out", str(out), "--quiet") == 0
    ckpt = out / "checkpoint.bin"
    count = len(read_checkpoint(ckpt)[1])
    reads = []
    read_entry = checkpoint._read_entry
    monkeypatch.setattr(checkpoint, "_read_entry", lambda f, i: reads.append(i) or read_entry(f, i))
    assert run("eval", "--ckpt", str(ckpt), "--data", str(toy_data),
               "--scores", str(tmp_path / "s.json")) == 0
    assert len(reads) == count > 0


def test_eval_rejects_unknown_config_field(tmp_path, toy_config, toy_data, capsys):
    out = tmp_path / "run"
    assert run("train", "--config", str(toy_config), "--data", str(toy_data),
               "--out", str(out), "--quiet") == 0
    # rewrite the checkpoint's JSON meta block with one field the config lacks
    raw = (out / "checkpoint.bin").read_bytes()
    (meta_len,) = struct.unpack("<I", raw[6:10])
    # a misspelt field, and one of the recipe constants an older checkpoint names
    for name, value in (("scan_chunks", 4), ("momentum", 0.9)):
        meta = json.loads(raw[10:10 + meta_len])
        meta["config"][name] = value
        blob = json.dumps(meta).encode("utf-8")
        ckpt = tmp_path / "unknown_field.bin"
        ckpt.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + meta_len:])
        capsys.readouterr()
        assert run("eval", "--ckpt", str(ckpt), "--data", str(toy_data),
                   "--scores", str(tmp_path / "s.json")) == 1
        assert f"unknown config fields: ['{name}']" in capsys.readouterr().err


def test_eval_rejects_malformed_checkpoint_meta(tmp_path, toy_config, toy_data, capsys):
    from simba.checkpoint import save_checkpoint
    from simba.config import TrainConfig
    from simba.data import load_dataset
    from simba.train import build_model
    bare = tmp_path / "bare.bin"
    save_checkpoint(bare, build_model(TrainConfig.load(toy_config), load_dataset(toy_data)))
    raw = bare.read_bytes()
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(raw[:6] + struct.pack("<I", 2) + b"\xff{" + raw[12:])
    capsys.readouterr()
    lacks = "checkpoint meta lacks ['config', 'modality', 'num_classes', 'num_joints', 'partitions']"
    for ckpt, message in ((bare, lacks),
                          (corrupt, "checkpoint meta is not UTF-8 JSON")):
        assert run("eval", "--ckpt", str(ckpt), "--data", str(toy_data),
                   "--scores", str(tmp_path / "s.json")) == 1
        assert message in capsys.readouterr().err


def test_eval_rejects_a_checkpoint_with_a_conv_bias(tmp_path, toy_config, toy_data, capsys):
    # shift units have no conv bias; a checkpoint that holds one fails closed,
    # counting the stray entries beside their names
    out = tmp_path / "run"
    assert run("train", "--config", str(toy_config), "--data", str(toy_data),
               "--out", str(out), "--quiet") == 0
    raw = (out / "checkpoint.bin").read_bytes()
    (meta_len,) = struct.unpack("<I", raw[6:10])
    at = 10 + meta_len
    (count,) = struct.unpack("<I", raw[at:at + 4])
    name = b"param/modules_.0.entry.conv.b"
    entry = struct.pack("<H", len(name)) + name + struct.pack("<BBI", 8, 1, 32) + bytes(8 * 32)
    stale = tmp_path / "stale.bin"
    stale.write_bytes(raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:] + entry)
    capsys.readouterr()
    assert run("eval", "--ckpt", str(stale), "--data", str(toy_data),
               "--scores", str(tmp_path / "s.json")) == 1
    assert "0 missing, first []; 1 unknown, first ['param/modules_.0.entry.conv.b']" in capsys.readouterr().err


def test_eval_modality_defaults_to_the_checkpoints(tmp_path, toy_config, toy_data, capsys):
    out = tmp_path / "run"
    assert run("train", "--config", str(toy_config), "--data", str(toy_data),
               "--modality", "bone", "--out", str(out), "--quiet") == 0
    ckpt = str(out / "checkpoint.bin")
    scores = {}
    for flag in ((), ("--modality", "bone")):
        path = tmp_path / f"scores{len(flag)}.json"
        assert run("eval", "--ckpt", ckpt, "--data", str(toy_data), "--scores", str(path), *flag) == 0
        scores[flag] = path.read_bytes()
    assert scores[()] == scores[("--modality", "bone")]
    capsys.readouterr()
    assert run("eval", "--ckpt", ckpt, "--data", str(toy_data), "--modality", "joint",
               "--scores", str(tmp_path / "joint.json")) == 1
    assert "which was trained on 'bone'" in capsys.readouterr().err


def test_eval_rejects_a_dataset_grouped_unlike_training(tmp_path, toy_config, toy_data, capsys):
    # the partition gate is rebuilt from the evaluated dataset's groups, so
    # regrouped joints would move the scores without an error
    from simba.data import SkeletonDataset, load_dataset, save_dataset
    gated = tmp_path / "gated.json"
    gated.write_text(json.dumps({**json.loads(toy_config.read_text()), "partitions_enabled": True}))
    ds = load_dataset(toy_data)
    data = {}
    for k in (3, 2):
        data[k] = tmp_path / f"k{k}.skl"
        save_dataset(data[k], SkeletonDataset(ds.samples, ds.parents, np.arange(8) * k // 8,
                                              ds.num_classes, k))
    out = tmp_path / "run"
    assert run("train", "--config", str(gated), "--data", str(data[3]), "--out", str(out), "--quiet") == 0
    ckpt = str(out / "checkpoint.bin")
    assert run("eval", "--ckpt", ckpt, "--data", str(data[3]), "--scores", str(tmp_path / "s3.json")) == 0
    capsys.readouterr()
    assert run("eval", "--ckpt", ckpt, "--data", str(data[2]), "--scores", str(tmp_path / "s2.json")) == 1
    assert ("dataset partitions [0, 0, 0, 0, 1, 1, 1, 1] do not match the checkpoint's "
            "[0, 0, 0, 1, 1, 1, 2, 2]") in capsys.readouterr().err
    assert not (tmp_path / "s2.json").exists()
    # train --eval-data checks the same before the first step, when the model gates
    argv = ["--data", str(data[3]), "--eval-data", str(data[2]), "--quiet"]
    assert run("train", "--config", str(toy_config), *argv, "--out", str(tmp_path / "plain")) == 0
    capsys.readouterr()
    assert run("train", "--config", str(gated), *argv, "--out", str(tmp_path / "gated")) == 1
    assert ("error: the evaluation dataset partitions [0, 0, 0, 0, 1, 1, 1, 1] do not match "
            "the training dataset's [0, 0, 0, 1, 1, 1, 2, 2]") in capsys.readouterr().err
    assert not (tmp_path / "gated").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--classes", "5", "(5 classes, 8 joints) does not match the training dataset (3 classes, 8 joints)"),
    ("--joints", "10", "(3 classes, 10 joints) does not match the training dataset (3 classes, 8 joints)"),
])
def test_train_rejects_an_eval_set_shaped_unlike_training(tmp_path, toy_config, toy_data, capsys,
                                                          flag, value, message):
    # a head for 3 classes cannot score 5, nor blocks built for 8 joints take 10
    eval_data = tmp_path / "eval.skl"
    flags = {"--classes": "3", "--samples": "2", "--joints": "8", "--frames": "20", flag: value}
    assert run("synth", "--out", str(eval_data), *(x for item in flags.items() for x in item)) == 0
    out = tmp_path / "run"
    capsys.readouterr()
    assert run("train", "--config", str(toy_config), "--data", str(toy_data),
               "--eval-data", str(eval_data), "--out", str(out), "--quiet") == 1
    assert f"error: the evaluation dataset {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_outputs_reproducible_byte_for_byte(tmp_path, toy_config, toy_data):
    digests = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run("train", "--config", str(toy_config), "--data", str(toy_data),
                   "--out", str(out), "--quiet") == 0
        digests.append(((out / "metrics.jsonl").read_bytes(),
                        (out / "checkpoint.bin").read_bytes()))
    assert digests[0] == digests[1]


def test_gradcheck_single_suite_passes(capsys):
    assert run("gradcheck", "--module", "imamba") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "rel_err" in out


def test_gradcheck_exit_code_reflects_failures(monkeypatch, capsys):
    from simba import gradcheck as gc
    monkeypatch.setitem(gc.SUITES, "imamba", lambda: [("rigged", 1.0, 1e-5)])
    assert run("gradcheck", "--module", "imamba") == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_rejects_a_deleted_suite(capsys):
    # the shift units' suites folded into `primitives` and `simba_module`
    with pytest.raises(SystemExit) as exc:
        run("gradcheck", "--module", "shift_tcn")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err and "invalid choice: 'shift_tcn'" in err


def test_bench_scan_csv_contract(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run("bench-scan", "--len", "256", "--dim", "4", "--state", "4",
               "--chunks", "8,16", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "strategy,T,Dp,W,chunk,wall_ms"
    assert len(lines) == 4  # header + sequential + two parallel rows
    strategies = [line.split(",")[0] for line in lines[1:]]
    assert strategies == ["sequential", "parallel", "parallel"]
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1:5] == ["256", "4", "4", cells[4]]
        assert float(cells[5]) > 0.0


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run("synth", "--out", "x.skl", "--bogus", "1")
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_validation_errors_exit_one(tmp_path, toy_data, capsys):
    bad_cfg = tmp_path / "bad.json"
    for bad in ({"base_lr": -1.0}, {"base_lr": float("nan")}, {"batch_size_train": 0},
                {"window_T": 0}, {"mamba_D": 0}, {"ssm_W": 0}, {"base_lr": "0.1"},
                {"weight_decay": None}, {"seed": -1}):
        bad_cfg.write_text(json.dumps(bad))
        assert run("train", "--config", str(bad_cfg), "--data", str(toy_data),
                   "--out", str(tmp_path / "o")) == 1, bad
        assert f"error: {next(iter(bad))}" in capsys.readouterr().err
    assert run("bench-scan", "--chunks", "0") == 1


@pytest.mark.parametrize("field, value", [
    ("momentum", 0.9), ("lr_decay_rate", 0.1), ("warmup_epochs", 5), ("temporal_shift_radius", 1),
])
def test_config_naming_a_recipe_constant_exits_one(tmp_path, toy_config, toy_data, capsys,
                                                   field, value):
    # momentum, decay, warmup and shift radius are fixed by the recipe, not configured
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({**json.loads(toy_config.read_text()), field: value}))
    assert run("train", "--config", str(path), "--data", str(toy_data),
               "--out", str(tmp_path / "o")) == 1
    assert f"error: unknown config fields: ['{field}']" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("bench-scan", "--len", "-1"), "--len must be >= 1, got -1"),
    (("bench-scan", "--dim", "0"), "--dim must be >= 1, got 0"),
    (("bench-scan", "--state", "-2"), "--state must be >= 1, got -2"),
    (("synth", "--frames", "-1"), "need at least 1 frame, got -1"),
], ids=["len", "dim", "state", "frames"])
def test_size_flags_below_one_exit_one(tmp_path, capsys, argv, message):
    out = tmp_path / "x.skl"
    if argv[0] == "synth":
        argv += ("--out", str(out))
    assert run(*argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_no_samples_and_negative_noise(tmp_path, capsys):
    out = str(tmp_path / "x.skl")
    for flags, message in ((("--samples", "0"), "need at least 1 sample per class, got 0"),
                           (("--noise", "-1"), "noise must be finite and >= 0, got -1.0")):
        assert run("synth", "--out", out, *flags) == 1, flags
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.skl").exists()


def test_train_and_eval_reject_an_empty_dataset(tmp_path, toy_config, toy_data, capsys):
    from simba.data import SkeletonDataset, load_dataset, save_dataset
    ds = load_dataset(toy_data)
    empty = tmp_path / "empty.skl"
    save_dataset(empty, SkeletonDataset([], ds.parents, ds.partitions, ds.num_classes,
                                        ds.num_partitions))
    out = tmp_path / "run"
    for data, eval_data, role in ((empty, toy_data, "training"), (toy_data, empty, "evaluation")):
        assert run("train", "--config", str(toy_config), "--data", str(data),
                   "--eval-data", str(eval_data), "--out", str(out), "--quiet") == 1
        assert f"error: the {role} dataset has no samples" in capsys.readouterr().err
    assert run("train", "--config", str(toy_config), "--data", str(toy_data),
               "--out", str(out), "--quiet") == 0
    capsys.readouterr()
    assert run("eval", "--ckpt", str(out / "checkpoint.bin"), "--data", str(empty),
               "--scores", str(tmp_path / "s.json")) == 1
    assert "error: the evaluation dataset has no samples" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_training_abort_is_runtime_failure(tmp_path, toy_data, capsys):
    cfg = preset_toy()
    cfg.epochs = 1
    cfg.milestones = []
    cfg.base_lr = 1e6  # the first step wrecks the parameters
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert run("train", "--config", str(path), "--data", str(toy_data),
               "--out", str(tmp_path / "run"), "--quiet") == 2
    assert "epoch 0" in capsys.readouterr().err


def test_missing_file_is_runtime_failure(tmp_path, capsys):
    assert run("eval", "--ckpt", str(tmp_path / "none.bin"),
               "--data", str(tmp_path / "none.skl"), "--scores",
               str(tmp_path / "s.json")) == 2


def test_an_oversized_frame_count_fails_closed_and_exits_one(tmp_path, capsys):
    # sample 0 claims 2^32 - 1 frames of 25 joints; the file ends 64 bytes later
    v = 25
    path = tmp_path / "huge.skl"
    path.write_bytes(b"SKL1" + struct.pack("<HIHHHH", 1, 1, v, 3, 2, 1)
                     + np.maximum(np.arange(v) - 1, 0).astype("<u2").tobytes() + bytes(2 * v)
                     + struct.pack("<II", 0, 2**32 - 1) + bytes(64))
    with pytest.raises(FormatError, match=r"sample 0 frames needs \d+ bytes and 64 are left"):
        load_dataset(path)
    assert run("train", "--data", str(path), "--out", str(tmp_path / "run"), "--quiet") == 1
    assert "sample 0 frames needs" in capsys.readouterr().err


def test_an_oversized_checkpoint_entry_fails_closed_and_exits_one(tmp_path, toy_data, capsys):
    # the one entry claims 65535^3 float32 values; the file ends 16 bytes later
    name = b"param/modules_.0.entry.w"
    path = tmp_path / "huge.bin"
    path.write_bytes(b"SBCP" + struct.pack("<HI", 1, 2) + b"{}" + struct.pack("<IH", 1, len(name))
                     + name + struct.pack("<BB3I", 4, 3, 65535, 65535, 65535) + bytes(16))
    with pytest.raises(FormatError, match=r"entry 'param/modules_.0.entry.w' payload needs"):
        read_checkpoint(path)
    assert run("eval", "--ckpt", str(path), "--data", str(toy_data),
               "--scores", str(tmp_path / "s.json")) == 1
    assert "entry 'param/modules_.0.entry.w' payload needs" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ({"version": 1, "num_classes": 2, "entries": [{"id": 0, "probs": [0.5, 0.5]},
                                                  {"id": 1, "probs": [1.0]}]},
     "row 1 is not a list of num_classes = 2 numbers"),
    ({"version": 1, "num_classes": 3, "entries": [{"id": 0, "probs": [0.5, 0.5]}]},
     "row 0 is not a list of num_classes = 3 numbers"),
    ({"version": 1, "num_classes": 2, "entries": [{"id": 0, "probs": ["0.5", "0.5"]}]},
     "row 0 is not a list of num_classes = 2 numbers"),
    ({"version": 1, "num_classes": 2}, "a list of 'entries'"),
    ({"version": 1, "num_classes": 2, "entries": []}, "score file has no entries"),
    ({"version": 1, "num_classes": 2, "entries": [{"id": 0}]}, "row 0 is not an entry"),
    ([{"id": 0, "probs": [1.0]}], "unsupported score format"),
    ("not json", "score file is not UTF-8 JSON"),
    ({"version": 1, "num_classes": 2, "entries": [{"id": 0, "probs": [0.5, 0.5]},
                                                  {"id": 0, "probs": [1.0, 0.0]}]},
     "id 0 is repeated in rows 0 and 1"),
], ids=["ragged", "width", "strings", "no_entries", "empty_entries", "no_probs", "list", "text",
        "repeated_id"])
def test_fuse_rejects_malformed_score_files(tmp_path, capsys, payload, message):
    path = tmp_path / "scores.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert run("fuse", str(path), "--labels", str(tmp_path / "labels.skl")) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and message in err


def test_fuse_rejects_an_empty_label_container(tmp_path, toy_data, capsys):
    from simba.data import SkeletonDataset, load_dataset, save_dataset
    from simba.train import save_scores
    ds = load_dataset(toy_data)
    empty = tmp_path / "empty.skl"
    save_dataset(empty, SkeletonDataset([], ds.parents, ds.partitions, ds.num_classes,
                                        ds.num_partitions))
    scores = tmp_path / "s.json"
    save_scores(scores, np.full((1, 3), 1 / 3))
    assert run("fuse", str(scores), "--labels", str(empty)) == 1
    captured = capsys.readouterr()
    assert f"error: {empty}: the label container has no samples" in captured.err
    assert "accuracy" not in captured.out


def test_fuse_rejects_mismatched_streams(tmp_path, toy_data, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    from simba.train import save_scores
    save_scores(a, np.full((15, 3), 1 / 3))
    save_scores(b, np.full((14, 3), 1 / 3))
    assert run("fuse", str(a), str(b), "--labels", str(toy_data)) == 1
