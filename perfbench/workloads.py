"""The three benchmark workloads, each a closed loop in one process.

A workload sets itself up several times and reports the median.  A set-up
imports the simba package anew (numpy stays loaded), synthesises the
dataset, passes it through a ``save_dataset`` -> ``load_dataset`` round trip
through the SKL1 reader, builds the model and runs one warmup operation.
The timed operations then repeat until ``seconds`` have passed and at least
the workload's ``min_ops`` have run.

The train workloads call the program's own ``train()``; the eval workload
calls its ``evaluate()``.  The benchmark times them from outside, by
replacing module attributes for the length of one call: a train step runs
from ``assemble_batch`` of its training batch to the end of ``SGD.step``,
and an eval batch from one ``assemble_batch`` to the next.

Every call into the package goes through the module attribute
(``sys.modules["simba.train"].evaluate``, not a name bound at import), so
that the tracer's wrappers see it.
"""

from __future__ import annotations

import importlib
import os
import shutil
import sys
import tempfile
import time
import traceback

import numpy as np

from spans import Patches

perf = time.perf_counter

TOY_EPOCHS = 10
NTU_CLASSES = 60
NTU_SAMPLES_PER_CLASS = 2  # train; eval passes use one sample per class
NTU_T_RAW = 96
NTU_EVAL_BATCH = 10
QUALITY_STEPS = 10  # ntu60_train's quality figure is the mean loss of this many steps


def mod(name):
    return sys.modules[f"simba.{name}"]


def fresh_import():
    """Import the simba package anew, so that set-up covers the program's import."""
    for name in [n for n in sys.modules if n == "simba" or n.startswith("simba.")]:
        del sys.modules[name]
    importlib.import_module("simba.train")


class Ops:
    """Wall time of each timed operation, and when the run has had enough.

    Without a tracer the run measures until ``seconds`` have passed and
    ``min_ops`` operations have run.  With one, the first third of the run
    is measured with no tracer installed (``plain_ms``).  ``between()`` then
    installs it, and every other operation after that is traced; the others
    pass through the idle wrappers (``untraced_ms``).
    """

    def __init__(self, name, seconds=0.0, min_ops=0, tracer=None):
        self.name, self.seconds, self.min_ops = name, seconds, min_ops
        self.pending, self.tracer = tracer, None
        self.ms, self.plain_ms, self.traced_ms, self.untraced_ms, self.layers = [], [], [], [], []
        self.attempted = self.failed = 0
        self.start = perf()
        self._t0 = None

    @property
    def open(self):
        return self._t0 is not None

    def phase_over(self):
        """Whether the current call into the program should stop at the next operation."""
        elapsed = perf() - self.start
        if self.pending is not None:
            return elapsed >= self.seconds / 3 and len(self.ms) >= QUALITY_STEPS
        return elapsed >= self.seconds and len(self.ms) >= self.min_ops

    def done(self):
        return self.pending is None and self.phase_over()

    def between(self):
        """Between two calls into the program: install the tracer once the plain phase is over."""
        if self.pending is not None and self.phase_over():
            self.pending.install()
            self.tracer, self.pending = self.pending, None

    def begin(self):
        if self.tracer is not None:
            self.tracer.begin(self.name, traced=len(self.ms) % 2 == 1)
        self.attempted += 1
        self._t0 = perf()

    def end(self):
        ms = 1e3 * (perf() - self._t0)
        self._t0 = None
        self.ms.append(ms)
        if self.tracer is None:
            self.plain_ms.append(ms)
            return
        stats = self.tracer.end()
        self.tracer.enabled = False
        if stats is None:
            self.untraced_ms.append(ms)
        else:
            self.traced_ms.append(ms)
            self.layers.append(stats)


class Run:
    """What a workload hands back to the runner."""

    def __init__(self, ops):
        self.ops = ops
        self.checks_failed = []
        self.setup_s = []
        self.load_ms = []
        self.losses = []  # the loss of every timed train step
        self.logit_shapes = set()
        self.eval_ms = []  # each evaluate() call made by train()
        self.save_ms = []  # each save_checkpoint() call made by train()
        self.samples = 0
        self.loop_s = 0.0
        self.quality = {}
        self.counts = {}
        self.shapes = {}
        self.extra = {}

    def check(self, ok, what):
        if not ok:
            self.checks_failed.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``, adding its wall time to the loop time; a raise counts as a failed operation."""
        t0 = perf()
        try:
            return True, fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.ops.failed += 1
            return False, None
        finally:
            self.loop_s += perf() - t0


def roundtrip(ds, workdir, run):
    """Write the dataset as SKL1 and read it back, timing the read."""
    data = mod("data")
    path = os.path.join(workdir, "data.skl")
    data.save_dataset(path, ds)
    t0 = perf()
    loaded = data.load_dataset(path)
    run.load_ms.append(1e3 * (perf() - t0))
    return loaded


class _Stop(Exception):
    """Ends a ``train()`` call at a step boundary."""


def run_train(run, model, ds, eval_ds, cfg, stop, out_dir=None):
    """Call ``train()``, timing each of its steps as one operation of ``run.ops``.

    After each step ``stop()`` may end the call.  Returns train()'s result,
    or None when stopped.
    """
    train, ops = mod("train"), run.ops
    inner_assemble, inner_loss = train.assemble_batch, train.cross_entropy_logits
    inner_step = train.SGD.step

    def assemble(dataset, indices, window_t, mode, *args, **kwargs):
        if mode == "train":
            ops.begin()
        return inner_assemble(dataset, indices, window_t, mode, *args, **kwargs)

    def loss_fn(logits, y):
        loss = inner_loss(logits, y)
        run.losses.append(loss.item())
        run.logit_shapes.add(logits.shape)
        return loss

    def step(self, lr):
        try:
            inner_step(self, lr)
        finally:
            ops.end()
        if stop():
            raise _Stop

    def between_steps(inner, log, every):
        """``inner``, timed into ``log``; under a tracer, every ``every``-th call is traced."""
        def call(*args, **kwargs):
            tracer = ops.tracer
            if tracer is not None:
                tracer.enabled = len(log) % every == every - 1
            t0 = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                log.append(1e3 * (perf() - t0))
                if tracer is not None:
                    tracer.enabled = False
        return call

    patches = Patches()
    patches.set(train, "assemble_batch", assemble)
    patches.set(train, "cross_entropy_logits", loss_fn)
    patches.set(train.SGD, "step", step)
    patches.set(train, "evaluate", between_steps(train.evaluate, run.eval_ms, 2))
    patches.set(train, "save_checkpoint", between_steps(train.save_checkpoint, run.save_ms, 1))
    try:
        return train.train(model, ds, eval_ds, cfg, out_dir=out_dir, verbose=False)
    except _Stop:
        return None
    finally:
        patches.undo()
        if ops.open:  # the step raised before SGD.step
            ops.end()


def warmup_train(model, ds, cfg):
    """One step of ``train()``, untimed."""
    run_train(Run(Ops("warmup")), model, ds, ds, cfg, stop=lambda: True)


def ntu_config(seed):
    cfg = mod("config").preset_ntu60()
    cfg.depth_l = 2
    cfg.batch_size_train = 2
    cfg.batch_size_eval = NTU_EVAL_BATCH
    cfg.seed = seed
    return cfg


def ntu_dataset(seed, per_class=NTU_SAMPLES_PER_CLASS):
    return mod("data").synth_generate(NTU_CLASSES, per_class, v=25, t_raw=NTU_T_RAW,
                                      noise=0.05, seed=seed, partitions=5)


def subset(ds, n):
    """The first ``n`` samples of ``ds``, as a dataset."""
    return mod("data").SkeletonDataset(ds.samples[:n], ds.parents, ds.partitions,
                                       ds.num_classes, ds.num_partitions)


# ---------------------------------------------------------------------------
# toy_train
# ---------------------------------------------------------------------------

def toy_setup(seed, workdir, run):
    fresh_import()
    train, config, data = mod("train"), mod("config"), mod("data")
    cfg = config.preset_toy()
    cfg.epochs = TOY_EPOCHS
    cfg.milestones = [6, 8]
    cfg.seed = seed
    ds = roundtrip(data.synth_generate(4, 40, v=8, t_raw=48, noise=0.05, seed=seed), workdir, run)
    model = train.build_model(cfg, ds)
    warmup_train(model, ds, cfg)
    return cfg, ds, model


def toy_train(seed, seconds, tracer, workdir):
    """Whole ``train()`` calls of the toy preset, each from a fresh model."""
    ops = Ops("bench.train_step", seconds, min_ops=TAIL["toy_train"][1], tracer=tracer)
    run = Run(ops)
    for _ in range(SETUPS["toy_train"]):
        t0 = perf()
        cfg, ds, model = toy_setup(seed, workdir, run)
        run.setup_s.append(perf() - t0)
    train = mod("train")
    run.counts["model.params"] = model.num_params()
    run.shapes = {"classes": 4, "samples": len(ds), "V": 8, "T_raw": 48, "T": cfg.window_T,
                  "C": cfg.channels_C, "D": cfg.mamba_D, "W": cfg.ssm_W, "depth": cfg.depth_l,
                  "batch": cfg.batch_size_train, "epochs": cfg.epochs,
                  "scan_chunk": cfg.scan_chunk, "partitions": cfg.partitions_enabled,
                  "dtype": cfg.precision}

    finals, saves, ckpt_bytes = [], [], []
    ops.start = perf()
    while not ops.done():
        ops.between()
        out_dir = tempfile.mkdtemp(prefix="toy-", dir=workdir)
        model = train.build_model(cfg, ds)
        ok, result = run.timed(run_train, run, model, ds, ds, cfg, stop=lambda: False,
                               out_dir=out_dir)
        if not ok:
            break
        metrics, _ = result
        run.samples += cfg.epochs * len(ds)
        finals.append(metrics[-1]["train_loss"])
        best = max(m["train_acc"] for m in metrics)
        run.check(best >= 0.99, f"toy train accuracy reached {best} < 0.99")
        run.check(all(np.isfinite(m["train_loss"]) for m in metrics), "non-finite train loss")
        with open(os.path.join(out_dir, "metrics.jsonl")) as f:
            run.check(sum(1 for _ in f) == cfg.epochs, "metrics.jsonl has one line per epoch")
        ckpt = os.path.join(out_dir, "checkpoint.bin")
        _, entries = mod("checkpoint").read_checkpoint(ckpt)
        params = [k for k in entries if k.startswith("param/")]
        run.check(len(params) == len(model.parameters()), "checkpoint holds every parameter")
        improved, top = 0, -1.0
        for m in metrics:
            if m["eval_acc"] > top:
                improved, top = improved + 1, m["eval_acc"]
        saves.append(improved)
        ckpt_bytes.append(os.path.getsize(ckpt))
        shutil.rmtree(out_dir)
    ops.attempted += len(run.eval_ms)
    run.check(all(np.isfinite(run.losses)), "non-finite step loss")
    run.check({shape[1:] for shape in run.logit_shapes} == {(4,)},
              f"logits shaped {run.logit_shapes}, want [N, 4]")
    run.check(len(set(finals)) <= 1, f"final loss differs between identical runs: {finals}")
    run.quality = {"final_train_loss": finals[0] if finals else 0.0, "train_calls": len(finals)}
    run.counts["checkpoint.saves"] = saves[0] if saves else 0
    run.counts["checkpoint.bytes"] = ckpt_bytes[0] if ckpt_bytes else 0
    evals = run.eval_ms
    run.extra["eval_samples_per_s"] = len(evals) * len(ds) / (sum(evals) / 1e3) if evals else 0.0
    return run


# ---------------------------------------------------------------------------
# ntu60_train
# ---------------------------------------------------------------------------

def ntu60_train(seed, seconds, tracer, workdir):
    """``train()`` at the published ntu60 shape, depth 2, batch 2, stopped at a step boundary.

    The eval set of ``train()``'s per-epoch evaluate is one sample, and no
    checkpoint is written, so the run is its train steps.
    """
    ops = Ops("bench.train_step", seconds, min_ops=TAIL["ntu60_train"][1], tracer=tracer)
    run = Run(ops)
    for _ in range(SETUPS["ntu60_train"]):
        t0 = perf()
        fresh_import()
        cfg = ntu_config(seed)
        ds = roundtrip(ntu_dataset(seed), workdir, run)
        model = mod("train").build_model(cfg, ds)
        warmup_train(model, ds, cfg)
        run.setup_s.append(perf() - t0)
    run.counts["model.params"] = model.num_params()
    run.shapes = ntu_shapes(cfg, ds)

    eval_ds = subset(ds, 1)
    ops.start = perf()
    while not ops.done():
        ops.between()
        ok, result = run.timed(run_train, run, model, ds, eval_ds, cfg, stop=ops.phase_over)
        if not ok:
            break
        run.check(result is None, "train() ran out of epochs before the run ended")
    run.samples = len(ops.ms) * cfg.batch_size_train
    run.check(all(np.isfinite(run.losses)), "non-finite step loss")
    run.check(run.logit_shapes == {(cfg.batch_size_train, NTU_CLASSES)},
              f"logits shaped {run.logit_shapes}, want [{cfg.batch_size_train}, {NTU_CLASSES}]")
    first = run.losses[:QUALITY_STEPS]
    run.quality = {"final_train_loss": float(np.mean(first)) if first else 0.0,
                   "loss_steps": len(first)}
    return run


# ---------------------------------------------------------------------------
# ntu60_eval
# ---------------------------------------------------------------------------

def run_eval(ops, model, ds, cfg):
    """Call ``evaluate()``, timing each of its batches as one operation of ``ops``."""
    train = mod("train")
    inner_assemble = train.assemble_batch

    def assemble(*args, **kwargs):
        if ops.open:
            ops.end()
        ops.begin()
        return inner_assemble(*args, **kwargs)

    patches = Patches()
    patches.set(train, "assemble_batch", assemble)
    try:
        return train.evaluate(model, ds, cfg)
    finally:
        patches.undo()
        if ops.open:
            ops.end()


def ntu60_eval(seed, seconds, tracer, workdir):
    """``evaluate()`` passes over the ntu60-shape set, BN in eval mode."""
    ops = Ops("bench.eval_batch", seconds, min_ops=TAIL["ntu60_eval"][1], tracer=tracer)
    run = Run(ops)
    for _ in range(SETUPS["ntu60_eval"]):
        t0 = perf()
        fresh_import()
        cfg = ntu_config(seed)
        ds = roundtrip(ntu_dataset(seed, per_class=1), workdir, run)
        model = mod("train").build_model(cfg, ds)
        mod("train").evaluate(model, subset(ds, cfg.batch_size_eval), cfg)
        run.setup_s.append(perf() - t0)
    run.counts["model.params"] = model.num_params()
    run.shapes = ntu_shapes(cfg, ds)

    reference = None
    passes = 0
    ops.start = perf()
    while not ops.done() or passes < 2:
        ops.between()
        ok, result = run.timed(run_eval, ops, model, ds, cfg)
        if not ok:
            break
        probs, _ = result
        passes += 1
        run.samples += len(probs)
        ok = run.check(probs.shape == (len(ds), NTU_CLASSES), f"probs shaped {probs.shape}")
        ok &= run.check(bool(np.all(np.isfinite(probs))), f"non-finite probabilities in pass {passes}")
        ok &= run.check(float(np.max(np.abs(probs.sum(axis=1) - 1.0))) <= 1e-5,
                        f"probability rows do not sum to 1 in pass {passes}")
        if reference is None:
            reference = probs
        ok &= run.check(np.array_equal(probs, reference), f"pass {passes} differs from pass 1")
        if not ok:
            break
    run.quality = {"passes": passes}
    return run


def ntu_shapes(cfg, ds):
    return {"classes": ds.num_classes, "samples": len(ds), "V": ds.num_joints,
            "partitions": ds.num_partitions, "T_raw": NTU_T_RAW, "T": cfg.window_T,
            "C": cfg.channels_C, "D": cfg.mamba_D, "Dp": ds.num_joints * cfg.mamba_D,
            "W": cfg.ssm_W, "depth": cfg.depth_l, "batch_train": cfg.batch_size_train,
            "batch_eval": cfg.batch_size_eval, "scan_chunk": cfg.scan_chunk,
            "partition_gate": cfg.partitions_enabled, "dtype": cfg.precision}


WORKLOADS = {"toy_train": toy_train, "ntu60_train": ntu60_train, "ntu60_eval": ntu60_eval}

# set-ups per run; setup_s is their median
SETUPS = {"toy_train": 9, "ntu60_train": 5, "ntu60_eval": 5}

# (percentile, min_ops) of step_ms_tail: min_ops makes every run have at
# least 10 operations beyond the percentile, so it is the same in every run
TAIL = {"toy_train": (95, 200), "ntu60_train": (80, 50), "ntu60_eval": (75, 40)}
