"""Command-line entry point.

Subcommands: synth, train, eval, fuse, gradcheck, bench-scan.
Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import bench_scan, rows_to_csv
from .checkpoint import read_checkpoint, restore_checkpoint
from .config import PRESETS, TrainConfig
from .data import Modality, load_dataset, save_dataset, synth_generate
from .errors import SimbaError, TrainingAbort, ValidationError
from .gradcheck import SUITES, run_suites
from .train import accuracy, build_model, evaluate, fuse_scores, load_scores, save_scores, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simba", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic skeleton dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--samples", type=int, default=40, help="samples per class")
    p.add_argument("--joints", type=int, default=20)
    p.add_argument("--frames", type=int, default=48)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a model on a dataset container")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON config file (defaults to the toy preset)")
    source.add_argument("--preset", choices=sorted(PRESETS), help="named preset instead of --config")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data", help="held-out container (defaults to --data)")
    p.add_argument("--modality", default="joint", choices=[m.value for m in Modality])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="score a dataset with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scores", required=True, help="output JSON path")

    p = sub.add_parser("fuse", help="sum softmax streams and report accuracy")
    p.add_argument("streams", nargs="+", help="score JSON files")
    p.add_argument("--labels", required=True, help="dataset container with ground truth")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--module", choices=sorted(SUITES), help="run one suite only")

    p = sub.add_parser("bench-scan", help="time sequential vs parallel scans")
    p.add_argument("--len", type=int, default=4096, dest="length")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--state", type=int, default=16)
    p.add_argument("--chunks", default="64", help="comma-separated chunk sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the CSV here")
    return parser


def _cmd_synth(args) -> int:
    ds = synth_generate(args.classes, args.samples, v=args.joints,
                        t_raw=args.frames, noise=args.noise, seed=args.seed)
    save_dataset(args.out, ds)
    print(f"wrote {len(ds)} samples ({ds.num_classes} classes, "
          f"{ds.num_joints} joints) to {args.out}")
    return 0


def _load_config(args) -> TrainConfig:
    if args.config:
        return TrainConfig.load(args.config)
    return PRESETS[args.preset or "toy"]()


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    train_ds = load_dataset(args.data)
    eval_ds = load_dataset(args.eval_data) if args.eval_data else train_ds
    model = build_model(cfg, train_ds)
    print(f"model: {model.num_params()} parameters, depth {cfg.depth_l}")
    metrics, best = train(model, train_ds, eval_ds, cfg, out_dir=args.out,
                          modality=args.modality, verbose=not args.quiet)
    print(f"best eval accuracy {best:.4f}; artifacts in {args.out}")
    return 0


def _cmd_eval(args) -> int:
    meta, entries = read_checkpoint(args.ckpt)
    missing = [key for key in ("config", "modality", "num_classes", "num_joints", "partitions")
               if key not in meta]
    if missing:
        raise ValidationError(f"{args.ckpt}: checkpoint meta lacks {missing}; "
                              "evaluate a checkpoint that `simba train` wrote")
    cfg = TrainConfig.from_dict(meta["config"])
    ds = load_dataset(args.data)
    ds.check_layout(meta, "the checkpoint", cfg.partitions_enabled)
    model = build_model(cfg, ds)
    restore_checkpoint(model, entries)
    del entries  # the model holds the weights now
    probs, labels = evaluate(model, ds, cfg, meta["modality"])
    save_scores(args.scores, probs)
    print(f"top-1 accuracy {accuracy(probs, labels):.4f} on {len(ds)} samples; "
          f"scores written to {args.scores}")
    return 0


def _cmd_fuse(args) -> int:
    streams, ids0 = [], None
    for path in args.streams:
        probs, ids = load_scores(path)
        if ids0 is None:
            ids0 = ids
        elif ids != ids0:
            raise ValidationError(f"{path}: sample ids do not match the first stream")
        streams.append(probs)
    labels = load_dataset(args.labels).labels()
    if len(labels) == 0:
        raise ValidationError(f"{args.labels}: the label container has no samples")
    if len(labels) != len(streams[0]):
        raise ValidationError(
            f"label count {len(labels)} != stream length {len(streams[0])}")
    _, preds = fuse_scores(streams)
    acc = float(np.mean(preds == labels))
    print(f"fused top-1 accuracy {acc:.4f} over {len(args.streams)} stream(s)")
    return 0


def _cmd_gradcheck(args) -> int:
    names = [args.module] if args.module else None
    results = run_suites(names)
    failed = 0
    for suite, check, err, tol in results:
        status = "PASS" if err <= tol else "FAIL"
        failed += status == "FAIL"
        print(f"{status}  {suite:>15s}/{check:<28s} rel_err {err:.3e}  (tol {tol:.0e})")
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return 0 if failed == 0 else 1


def _cmd_bench(args) -> int:
    try:
        chunks = [int(c) for c in args.chunks.split(",") if c]
    except ValueError:
        raise ValidationError(f"--chunks must be comma-separated ints, got {args.chunks!r}")
    if any(c < 1 for c in chunks) or not chunks:
        raise ValidationError(f"chunk sizes must be >= 1, got {chunks}")
    for flag, value, least in (("--len", args.length, 1), ("--dim", args.dim, 1),
                               ("--state", args.state, 1), ("--seed", args.seed, 0)):
        if value < least:
            raise ValidationError(f"{flag} must be >= {least}, got {value}")
    rows = bench_scan(args.length, args.dim, args.state, chunks, seed=args.seed)
    csv = rows_to_csv(rows)
    print(csv, end="")
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "fuse": _cmd_fuse,
    "gradcheck": _cmd_gradcheck,
    "bench-scan": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SimbaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, TrainingAbort) else 1  # an abort is a runtime failure
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
