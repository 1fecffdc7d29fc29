"""The U-shaped shift-GCN module with a selective-scan core, and the stack.

One module runs, per Algorithm-style composition:

    entry shift-GCN (Cin -> C)
    [optional partition gate]
    encoder: three shift-GCNs laddering C -> C/2 -> C/4 -> D
    flatten each frame's vertex features into one [V*D] embedding
    gated selective-scan block over time (identity when ablated)
    unflatten back to [N, D, T, V]
    decoder: three shift-GCNs D -> C/4 -> C/2 -> C, each adding the encoder
    skip of the matching depth after its ReLU
    exit: ReLU(unit-TCN residual of the module input + temporal shift block)

The U-Net is one list of activations, shallowest first: ``encode`` pushes the
entry output and each encoder output, the scan block swaps the bottleneck for
its own output, and each decoder unit pops the top and the skip under it and
pushes its output.  Under ``no_grad`` each dies after its last reader.

Modules are stacked; a global average pool over (T, V) and a linear head
produce the class logits.

Every shift-GCN above is one ``tensor.shift_conv_bn`` graph node, a decoder
unit's skip sum included, and the partition gate (pool, 1x1 conv, scatter,
blend) is one ``tensor.partition_gate`` node; the module exit is the residual
unit's node.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import Linear, Module, Parameter, uniform_init
from .shift_gcn import ShiftUnit, spatial_shift, temporal_shift
from .ssm import IMambaBlock
from .tensor import Tensor


def flatten_vertices(x: Tensor) -> Tensor:
    """[N, D, T, V] -> [N, T, V*D] with out[n,t,v*D+d] = x[n,d,t,v]."""
    n, d, t, v = x.shape
    return T.reshape(T.permute(x, (0, 2, 3, 1)), (n, t, v * d))


def unflatten_vertices(x: Tensor, v: int) -> Tensor:
    """Exact inverse of ``flatten_vertices``."""
    n, t, vd = x.shape
    if vd % v != 0:
        raise ShapeError(f"embedding dim {vd} is not divisible by {v} vertices")
    return T.permute(T.reshape(x, (n, t, v, vd // v)), (0, 3, 1, 2))


class PartitionGate(Module):
    """Blend joint features with pooled features of their anatomical group.

    labels is the one-hot [V, K] membership matrix; pooling averages member
    joints, a 1x1 conv (``w``, ``b``) mixes the pooled channels, and the
    result is scattered back to every member joint.  The learnable
    per-channel gate interpolates between joint-level and group-level
    features: x + (1 - gate)·(e - x), so a closed gate (or e == x) passes x
    through bit-exactly.  All four steps are one ``tensor.partition_gate``
    node.
    """

    def __init__(self, channels: int, labels: np.ndarray, rng: np.random.Generator):
        super().__init__()
        labels = np.asarray(labels, dtype=np.float64)
        if labels.ndim != 2:
            raise ConfigError(f"partition labels must be [V, K], got {labels.shape}")
        row_sums = labels.sum(axis=1)
        if not np.all((labels == 0) | (labels == 1)) or not np.all(row_sums == 1):
            raise ConfigError("every joint must belong to exactly one partition")
        if np.any(labels.sum(axis=0) == 0):
            raise ConfigError("every partition must contain at least one joint")
        self._labels = labels
        self._pool = labels / labels.sum(axis=0, keepdims=True)
        self.gate = Parameter(np.full((1, channels, 1, 1), 0.5))
        self.w = Parameter(uniform_init(rng, (channels, channels), channels), decay=True)
        self.b = Parameter(np.zeros(channels))

    def forward(self, x: Tensor) -> Tensor:
        n, c, t, v = x.shape
        if v != self._labels.shape[0]:
            raise ShapeError(f"gate built for {self._labels.shape[0]} joints, got {v}")
        pool = self._pool.astype(x.dtype)
        scatter = np.ascontiguousarray(self._labels.T, dtype=x.dtype)
        return T.partition_gate(x, self.w, self.b, self.gate, pool, scatter)


class SimbaModule(Module):
    """One encoder/scan/decoder block; maps [N, Cin, T, V] to [N, C, T, V]."""

    def __init__(self, c_in: int, c: int, d: int, v: int, w: int,
                 rng: np.random.Generator, *, with_imamba: bool = True,
                 partition_labels: np.ndarray | None = None, scan_chunk: int = 0):
        super().__init__()
        if c < 4 or c % 4 != 0:
            raise ConfigError(f"channel dimension must be a positive multiple of 4, got {c}")
        self.v = v
        self.entry = ShiftUnit(c_in, c, rng, spatial_shift, relu=True)
        self.gate = PartitionGate(c, partition_labels, rng) if partition_labels is not None else None
        self.enc = [ShiftUnit(a, b, rng, spatial_shift, relu=True)
                    for a, b in ((c, c // 2), (c // 2, c // 4), (c // 4, d))]
        self.imamba = IMambaBlock(v * d, w, rng, scan_chunk=scan_chunk) if with_imamba else None
        self.dec = [ShiftUnit(a, b, rng, spatial_shift, relu=True)
                    for a, b in ((d, c // 4), (c // 4, c // 2), (c // 2, c))]
        self.tcn = ShiftUnit(c, c, rng, temporal_shift, relu=False)
        self.residual = ShiftUnit(c_in, c, rng, None, relu=True)

    def encode(self, x: Tensor) -> list:
        """Run the down ladder; returns [x, each unit's output], the bottleneck last."""
        stack = [x]
        for unit in self.enc:
            stack.append(unit(stack[-1]))
        return stack

    def decode(self, stack: list) -> Tensor:
        """Run the up ladder over ``encode``'s list and empty it: each unit pops the top,
        adds the skip under it after its ReLU in its own node, and pushes its output."""
        for unit in self.dec:
            stack.append(unit(stack.pop(), post_skip=stack.pop()))
        return stack.pop()

    def forward(self, x_in: Tensor) -> Tensor:
        # no activation is bound to a local, so each dies after its last reader
        stack = self.encode(self.entry(x_in) if self.gate is None else self.gate(self.entry(x_in)))
        if self.imamba is not None:
            stack.append(unflatten_vertices(self.imamba(flatten_vertices(stack.pop())), self.v))
        return self.residual(x_in, skip=self.tcn(self.decode(stack)))


class SimbaModel(Module):
    """A stack of modules plus a pooled linear classification head."""

    def __init__(self, *, in_channels: int, channels: int, mamba_d: int,
                 vertices: int, ssm_w: int, depth: int, num_classes: int,
                 rng: np.random.Generator, with_imamba: bool = True,
                 partition_labels: np.ndarray | None = None, scan_chunk: int = 0):
        super().__init__()
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        self.modules_ = [
            SimbaModule(in_channels if i == 0 else channels, channels, mamba_d,
                        vertices, ssm_w, rng, with_imamba=with_imamba,
                        partition_labels=partition_labels, scan_chunk=scan_chunk)
            for i in range(depth)
        ]
        self.head = Linear(channels, num_classes, rng)
        self.in_channels = in_channels
        self.num_classes = num_classes

    def features(self, x: Tensor) -> Tensor:
        for module in self.modules_:
            x = module(x)
        return x.mean(axis=(2, 3))  # global average over frames and joints

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"model expects [N,{self.in_channels},T,V], got {x.shape}")
        return self.head(self.features(x))
