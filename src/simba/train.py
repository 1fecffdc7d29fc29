"""Optimization loop, schedule, score fusion, and evaluation."""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import dataclasses
import functools
import json
import os
import time

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .config import TrainConfig
from .data import SkeletonDataset, assemble_batch
from .errors import DomainError, TrainingAbort, ValidationError
from .model import SimbaModel
from .tensor import cross_entropy_logits, no_grad


# fixed by the Shift-GCN recipe
MOMENTUM = 0.9
WARMUP_EPOCHS = 5
LR_DECAY_RATE = 0.1

# An eval batch runs as one shard per BLAS thread only when each shard's
# first activation (channels_C·T·V·samples elements) is at least this big.
# On 2 cores, shards of 131K elements (toy, batch 64) gained nothing, of 345K
# (ntu60, batch 2) gained or lost up to 17% from run to run, and of 691K
# (ntu60, batch 4) gained 23-27% (BENCH_sharded_eval.json).
SHARD_MIN_ELEMENTS = 1 << 19


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup to base_lr, then step decay at each milestone."""
    if epoch < WARMUP_EPOCHS:
        return cfg.base_lr * (epoch + 1) / WARMUP_EPOCHS
    passed = sum(1 for m in cfg.milestones if epoch >= m)
    return cfg.base_lr * LR_DECAY_RATE ** passed


class SGD:
    """SGD with Nesterov momentum: v = m·v + g, then p -= lr·(g + m·v), m = ``MOMENTUM``.

    Weight decay touches only parameters flagged ``decay`` (conv/linear
    weights).  A non-finite gradient aborts the step, naming the first such
    parameter, before any parameter or velocity changes.
    """

    def __init__(self, named_params, weight_decay: float = 0.0):
        self._params = list(named_params)
        self.weight_decay = weight_decay
        self._velocity = {name: np.zeros_like(p.data) for name, p in self._params}

    def zero_grad(self):
        for _, p in self._params:
            p.zero_grad()

    def step(self, lr: float):
        grads = [(name, p, p.grad) for name, p in self._params if p.grad is not None]
        for name, _, g in grads:
            if not np.all(np.isfinite(g)):
                raise TrainingAbort(f"non-finite gradient in parameter {name!r}")
        for name, p, g in grads:
            if self.weight_decay and getattr(p, "decay", False):
                g = g + self.weight_decay * p.data
            v = self._velocity[name]
            v *= MOMENTUM
            v += g
            p.data = p.data - lr * (g + MOMENTUM * v)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of [N, K] logits, stabilized by max subtraction."""
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _require_samples(dataset: SkeletonDataset, role: str) -> None:
    if len(dataset) == 0:
        raise ValidationError(f"the {role} dataset has no samples")


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _blas_threads() -> int:
    """Threads the loaded OpenBLAS runs a call on; 1 when it cannot be asked."""
    api = _openblas()
    return api[0]() if api is not None else 1


@contextlib.contextmanager
def _pinned_blas(threads: int):
    """Run the block with OpenBLAS at ``threads``; restore the old count on the way out."""
    api = _openblas()
    if api is None:
        yield
        return
    old = api[0]()
    api[1](threads)
    try:
        yield
    finally:
        api[1](old)


def _logits(model: SimbaModel, x: np.ndarray) -> np.ndarray:
    return model(T.Tensor(x)).data


def _sharded_logits(model: SimbaModel, x: np.ndarray, shards: int) -> np.ndarray:
    """Logits of x[N, ...], run as ``shards`` contiguous pieces along N.

    Eval mode mixes no samples and numpy and BLAS release the GIL, so the
    pieces run on one thread each, with OpenBLAS at one thread per caller;
    the logits equal those of the whole batch at one BLAS thread.  Each
    piece runs in a copy of the caller's context (numpy's ``errstate``
    lives there), and an exception from a piece propagates unchanged.
    """
    if shards <= 1:
        return _logits(model, x)
    # imported here, so that a process that never shards does not carry the module's ~0.5 MiB
    from concurrent.futures import ThreadPoolExecutor

    bounds = [len(x) * i // shards for i in range(shards + 1)]
    with _pinned_blas(1), ThreadPoolExecutor(shards) as pool:
        futures = [pool.submit(contextvars.copy_context().run, _logits, model, x[a:b])
                   for a, b in zip(bounds, bounds[1:])]
        return np.concatenate([f.result() for f in futures])


def evaluate(model: SimbaModel, dataset: SkeletonDataset, cfg: TrainConfig,
             modality: str = "joint"):
    """Deterministic full-dataset pass; returns (probs [N, K], labels [N]).

    A batch whose shards would each hold at least ``SHARD_MIN_ELEMENTS``
    activations runs as one shard per BLAS thread (``_sharded_logits``);
    a smaller one runs whole.  Non-finite logits raise ``DomainError``
    naming the batch's sample range; an empty dataset raises
    ``ValidationError``.
    """
    _require_samples(dataset, "evaluation")
    model.eval()
    dtype = model.parameters()[0].dtype
    probs = np.empty((len(dataset), model.num_classes))
    labels = np.empty(len(dataset), dtype=np.int64)
    threads = _blas_threads()
    with no_grad():
        for start in range(0, len(dataset), cfg.batch_size_eval):
            idx = range(start, min(start + cfg.batch_size_eval, len(dataset)))
            x, y = assemble_batch(dataset, idx, cfg.window_T, "eval", modality, dtype=dtype)
            shard_elements = cfg.channels_C * x.shape[2] * x.shape[3] * (len(idx) // threads)
            logits = _sharded_logits(model, x, threads if shard_elements >= SHARD_MIN_ELEMENTS else 1)
            if not np.all(np.isfinite(logits)):
                raise DomainError(f"non-finite logits for samples [{idx.start}, {idx.stop})")
            probs[idx.start:idx.stop] = softmax(logits)
            labels[idx.start:idx.stop] = y
    return probs, labels


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(probs.argmax(axis=1) == labels))


def _occurrence_counts(order: np.ndarray) -> np.ndarray:
    """How many times each entry's value has already appeared in the order."""
    occ = np.empty(len(order), dtype=np.int64)
    seen = {}
    for pos, idx in enumerate(order):
        idx = int(idx)
        occ[pos] = seen.get(idx, 0)
        seen[idx] = occ[pos] + 1
    return occ


def build_model(cfg: TrainConfig, dataset: SkeletonDataset) -> SimbaModel:
    """Build in float64 from the seed, then cast once to ``cfg.precision``:
    the one place the precision is read; later arrays follow the parameters."""
    rng = np.random.default_rng(cfg.seed)
    labels = dataset.partition_labels() if cfg.partitions_enabled else None
    model = SimbaModel(
        in_channels=3, channels=cfg.channels_C, mamba_d=cfg.mamba_D,
        vertices=dataset.num_joints, ssm_w=cfg.ssm_W, depth=cfg.depth_l,
        num_classes=dataset.num_classes, rng=rng, with_imamba=cfg.with_imamba,
        partition_labels=labels, scan_chunk=cfg.scan_chunk)
    return model.astype(cfg.precision)


def train(model: SimbaModel, train_ds: SkeletonDataset, eval_ds: SkeletonDataset,
          cfg: TrainConfig, out_dir=None, modality: str = "joint",
          verbose: bool = True):
    """Run the full schedule; returns (metrics list, best eval accuracy).

    Per-epoch metrics records hold only seed-deterministic fields so the
    JSON-lines log is reproducible byte-for-byte; wall-clock timing goes to
    the console instead.  A step that fails (a non-finite value, or a
    ``DomainError`` such as an underflowed step size) raises ``TrainingAbort``
    naming the epoch and the batch, or the epoch's evaluation.  An empty
    dataset, or an evaluation dataset whose classes, joints or (with the
    partition gate) partition ids differ from the training dataset's, raises
    ``ValidationError`` before the first step.
    """
    _require_samples(train_ds, "training")
    _require_samples(eval_ds, "evaluation")
    eval_ds.check_layout(train_ds.layout(), "the training dataset", cfg.partitions_enabled)
    dtype = model.parameters()[0].dtype
    opt = SGD(model.named_parameters(), weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng([cfg.seed, 0xD5])
    metrics = []
    best_acc = -1.0
    log_path = ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "metrics.jsonl")
        ckpt_path = os.path.join(out_dir, "checkpoint.bin")
        with open(log_path, "w"):
            pass

    order_base = np.repeat(np.arange(len(train_ds)), cfg.repeat_augmentation)
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        lr = lr_at(epoch, cfg)
        model.train()
        order = shuffle_rng.permutation(order_base)
        occurrence = _occurrence_counts(order)
        losses, hits, seen = [], 0, 0
        for batch_no, start in enumerate(range(0, len(order), cfg.batch_size_train)):
            idx = order[start:start + cfg.batch_size_train]
            x, y = assemble_batch(train_ds, idx, cfg.window_T, "train", modality,
                                  seed_parts=(cfg.seed, epoch),
                                  occurrences=occurrence[start:start + cfg.batch_size_train],
                                  dtype=dtype)
            try:
                logits = model(T.Tensor(x))
                loss = cross_entropy_logits(logits, y)
                if not np.isfinite(loss.item()):
                    raise TrainingAbort("non-finite loss")
                opt.zero_grad()
                loss.backward()
                opt.step(lr)
            except (DomainError, TrainingAbort) as exc:
                raise TrainingAbort(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
            losses.append(loss.item() * len(idx))
            hits += int(np.sum(logits.data.argmax(axis=1) == y))
            seen += len(idx)
            del logits, loss  # backward consumed the graph; drop its last arrays before the next forward
        try:
            probs, labels = evaluate(model, eval_ds, cfg, modality)
        except DomainError as exc:
            raise TrainingAbort(f"epoch {epoch}, evaluation: {exc}") from exc
        eval_acc = accuracy(probs, labels)
        record = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": sum(losses) / seen,
            "train_acc": hits / seen,
            "eval_acc": eval_acc,
        }
        metrics.append(record)
        if log_path is not None:
            with open(log_path, "a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
        if eval_acc > best_acc:
            best_acc = eval_acc
            if ckpt_path is not None:
                save_checkpoint(ckpt_path, model, meta={
                    "epoch": epoch, "eval_acc": eval_acc,
                    "config": dataclasses.asdict(cfg), "modality": modality,
                    **train_ds.layout(),
                })
        if verbose:
            wall = time.perf_counter() - tic
            print(f"epoch {epoch:3d}  lr {lr:.5f}  loss {record['train_loss']:.4f}  "
                  f"train {record['train_acc']:.3f}  eval {eval_acc:.3f}  [{wall:.1f}s]")
    return metrics, best_acc


# ---------------------------------------------------------------------------
# multi-stream fusion
# ---------------------------------------------------------------------------

def fuse_scores(streams):
    """Sum per-stream softmax scores; argmax (lowest index on ties) predicts.

    Every stream must cover the same samples in the same order.
    """
    streams = [np.asarray(s, dtype=np.float64) for s in streams]
    if not streams:
        raise ValidationError("need at least one score stream")
    n = streams[0].shape
    for i, s in enumerate(streams[1:], start=1):
        if s.shape != n:
            raise ValidationError(f"stream 0 has shape {n} but stream {i} has {s.shape}")
    fused = np.sum(streams, axis=0)
    return fused, fused.argmax(axis=1)


def save_scores(path, probs: np.ndarray) -> None:
    """Write [N, K] probabilities as JSON; entry i has id i."""
    payload = {
        "version": 1,
        "num_classes": int(probs.shape[1]),
        "entries": [{"id": i, "probs": [float(p) for p in row]}
                    for i, row in enumerate(probs)],
    }
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")


def load_scores(path):
    """Read a ``save_scores`` file; returns (probs [N, num_classes], ids).

    Anything else, a repeated id included, fails closed with
    ``ValidationError`` naming the file, and the row where there is one.
    """
    try:
        with open(path) as f:
            payload = json.load(f)
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ValidationError(f"{path}: score file is not UTF-8 JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("version") != 1:
        raise ValidationError(f"{path}: unsupported score format")
    k, entries = payload.get("num_classes"), payload.get("entries")
    if not isinstance(k, int) or k < 1 or not isinstance(entries, list):
        raise ValidationError(f"{path}: score file needs a positive 'num_classes' "
                              "and a list of 'entries'")
    if not entries:
        raise ValidationError(f"{path}: score file has no entries")
    rows, first_row = [], {}
    for i, e in enumerate(entries):
        try:
            row = np.asarray(e["probs"])
            first = first_row.setdefault(e["id"], i)
        except (KeyError, TypeError, ValueError) as exc:  # not a dict, a key missing, ragged, unhashable
            raise ValidationError(f"{path}: row {i} is not an entry with an 'id' and 'probs' "
                                  f"({type(exc).__name__}: {exc})") from exc
        if first != i:
            raise ValidationError(f"{path}: id {e['id']!r} is repeated in rows {first} and {i}")
        if row.dtype.kind not in "iuf" or row.shape != (k,):
            raise ValidationError(f"{path}: row {i} is not a list of num_classes = {k} numbers")
        rows.append(row)
    probs = np.array(rows, dtype=np.float64)
    # each comparison holds only for valid rows, so NaN and inf fail it
    ok = np.all(probs >= 0.0, axis=1) & (np.abs(probs.sum(axis=1) - 1.0) <= 1e-6)
    if not np.all(ok):
        raise ValidationError(f"{path}: row {int(np.argmin(ok))} is not a probability "
                              "vector summing to 1")
    return probs, list(first_row)
