"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of the
simba modules, the public methods of ``Tensor`` and ``SGD``, and
``Module.__call__``.  While ``enabled`` is set, each wrapped call records a
span ``[name, start, end, parent, step]`` in memory; the spans are written
out once, when the run ends.  ``step`` is the index of the benchmark's own
span for the timed operation (a train step or an eval batch) that the call
belongs to, or -1 outside one.

Backward time is charged to the call that made the graph node: ``_make`` is
wrapped so that every node recorded while tracing carries the innermost
open layer span, and its backward closure is timed into that layer's
bucket.  Graph size is counted by walking the graph from the loss when
``Tensor.backward`` starts, before its span opens.

With ``enabled`` false a wrapper costs a call and one attribute test.  A
traced run measures steps with no wrappers installed, then steps through
idle wrappers and traced steps, so both costs can be read off.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter

MODULES = ("tensor", "nn", "shift_gcn", "ssm", "model", "train", "data", "checkpoint")

# dtype and grad-mode helpers are global switches, not work
SKIP = {"tensor.get_default_dtype", "tensor.set_default_dtype", "tensor.using_dtype",
        "tensor.no_grad", "tensor.is_grad_enabled"}

# span name -> the layer its time is reported under in the per-layer metrics
LAYER_OF = {
    "nn.BatchNorm2d": "nn.batch_norm",
    "nn.PointwiseConv2d": "nn.pointwise_conv",
    "nn.Linear": "nn.linear",
    "nn.RMSNorm": "nn.rms_norm",
    "nn.CausalConv1d": "nn.causal_conv",
    "shift_gcn.spatial_shift": "shift_gcn.spatial_shift",
    "shift_gcn.temporal_shift": "shift_gcn.temporal_shift",
    "ssm.zoh_discretize": "ssm.zoh",
    "ssm.selective_scan_sequential": "ssm.scan",
    "ssm.selective_scan_parallel": "ssm.scan",
    "ssm.IMambaBlock": "ssm.imamba",
    "model.SimbaModule": "model.module",
    "model.PartitionGate": "model.partition_gate",
}
BWD_LAYERS = ("nn.batch_norm", "nn.pointwise_conv", "nn.linear", "nn.rms_norm",
              "nn.causal_conv", "shift_gcn.spatial_shift", "shift_gcn.temporal_shift",
              "ssm.zoh", "ssm.scan")
FWD_LAYERS = BWD_LAYERS + ("ssm.imamba", "model.module", "model.partition_gate")

# phases of one timed operation, as sums of the spans named
PHASES = {
    "train.data_ms": ("data.assemble_batch",),
    "train.forward_ms": ("model.SimbaModel", "tensor.cross_entropy_logits"),
    "train.backward_ms": ("tensor.Tensor.backward",),
    "train.optimizer_ms": ("train.SGD.step", "train.SGD.zero_grad"),
}


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _TimedBackward:
    """A node's backward closure, timed into the bucket of the layer that made it."""

    __slots__ = ("fn", "key", "tracer")

    def __init__(self, fn, key, tracer):
        self.fn, self.key, self.tracer = fn, key, tracer

    def __call__(self, g):
        t0 = perf()
        self.fn(g)
        self.tracer.bwd[self.key] += perf() - t0


def graph_stats(root):
    """(op nodes, bytes) of the graph reachable from ``root``.

    Bytes count each node's output and every array its backward closure
    keeps alive, once per underlying buffer.  They are computed from array
    sizes, not measured from the allocator.
    """
    tensor = sys.modules["simba.tensor"]
    nodes = [n for n in tensor._toposort(root) if n._backward is not None]
    seen, total = set(), 0

    def count(arr):
        nonlocal total
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        if id(arr) not in seen:
            seen.add(id(arr))
            total += arr.nbytes

    for node in nodes:
        count(node.data)
        fn = node._backward
        fn = fn.fn if isinstance(fn, _TimedBackward) else fn
        for cell in fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # a cell not yet bound
                continue
            if isinstance(value, np.ndarray):
                count(value)
    return len(nodes), total


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent, step]
        self.stack = []  # (span index, backward-attribution key) of open spans
        self.step = -1
        self.bwd = defaultdict(float)
        self.graph = (0, 0)
        self.patches = Patches()

    # --- recording ---

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, spans = tracer.stack, tracer.spans
            parent, key = stack[-1] if stack else (-1, name)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, parent, tracer.step])
            # tensor primitives charge their nodes to the layer that called them
            stack.append((idx, key if name.startswith("tensor.") else name))
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = t0, t1

        return wrapper

    def install(self):
        """Wrap the package's public functions, methods and Module.__call__."""
        mods = {name: sys.modules[f"simba.{name}"] for name in MODULES}
        wrapped = {}  # id(original) -> wrapper, so re-exported names share one
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(obj, name)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self.patches.set(mod, attr, wrapped[id(obj)])

        tensor, nn, train = mods["tensor"], mods["nn"], mods["train"]
        for cls, attr in ((tensor.Tensor, "backward"), (train.SGD, "step"), (train.SGD, "zero_grad")):
            name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{attr}"
            self.patches.set(cls, attr, self._wrap(vars(cls)[attr], name))
        inner_backward = tensor.Tensor.backward
        tracer = self

        def backward(node):
            if tracer.enabled:
                tracer.graph = graph_stats(node)
            return inner_backward(node)

        self.patches.set(tensor.Tensor, "backward", backward)

        call = nn.Module.__call__
        names = {}

        def module_call(module, *args, **kwargs):
            if not tracer.enabled:
                return call(module, *args, **kwargs)
            cls = type(module)
            if cls not in names:
                names[cls] = tracer._wrap(call, f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}")
            return names[cls](module, *args, **kwargs)

        self.patches.set(nn.Module, "__call__", module_call)

        make = tensor._make

        def traced_make(data, parents, backward):
            out = make(data, parents, backward)
            if tracer.enabled and out._backward is not None:
                key = tracer.stack[-1][1] if tracer.stack else "unscoped"
                out._backward = _TimedBackward(out._backward, key, tracer)
            return out

        self.patches.set(tensor, "_make", traced_make)

    def uninstall(self):
        self.patches.undo()

    # --- timed operations ---

    def begin(self, name, traced):
        """Open the benchmark's span for one timed operation."""
        self.enabled = traced
        self.bwd.clear()
        self.graph = (0, 0)
        if not traced:
            self.step = -1
            return
        self.step = len(self.spans)
        self.spans.append([name, perf(), 0.0, -1, self.step])

    def end(self):
        """Close the operation's span; returns its per-layer numbers, or None."""
        if self.step < 0:
            return None
        head = self.spans[self.step]
        head[2] = perf()
        total = defaultdict(float)
        for span in self.spans[self.step + 1:]:
            total[span[0]] += span[2] - span[1]
        stats = {"op_ms": 1e3 * (head[2] - head[1])}
        for layer in FWD_LAYERS:
            stats[f"{layer}.fwd_ms"] = 1e3 * sum(
                d for name, d in total.items() if LAYER_OF.get(name) == layer)
        for layer in BWD_LAYERS:
            stats[f"{layer}.bwd_ms"] = 1e3 * sum(
                d for key, d in self.bwd.items() if LAYER_OF.get(key) == layer)
        for phase, parts in PHASES.items():
            stats[phase] = 1e3 * sum(total[p] for p in parts)
        stats["tensor.backward_ms"] = stats["train.backward_ms"]
        stats["tensor.graph_nodes"], nbytes = self.graph
        stats["tensor.recorded_mib"] = nbytes / 2**20
        self.step = -1
        return stats

    # --- reporting ---

    def durations(self, name):
        """Durations in ms of every recorded span with this name."""
        return [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def self_times(self):
        """{name: (calls, total ms, self ms)} over the spans of timed operations.

        Self time excludes child spans.  A span opened with no parent inside
        its operation is a child of the operation's own span.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for i, (_, t0, t1, parent, step) in enumerate(spans):
            if step < 0 or i == step:
                continue
            if parent < 0 or spans[parent][4] != step:
                parent = step
            child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, step) in enumerate(spans):
            if step < 0:
                continue
            calls, tot, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, tot + 1e3 * (t1 - t0), own + 1e3 * (t1 - t0 - child[i]))
        return out

    def write(self, path):
        """Write every span as tab-separated text: index, parent, step, name, start and end in µs."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tparent\tstep\tname\tstart_us\tend_us\n")
            for i, (name, t0, t1, parent, step) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{step}\t{name}\t{t0 * 1e6:.1f}\t{t1 * 1e6:.1f}\n")
