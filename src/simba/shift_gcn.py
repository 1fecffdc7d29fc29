"""Shift-based graph convolution blocks.

Graph convolutions are replaced by index shifts plus pointwise (1x1)
convolutions: the spatial shift rotates each channel's vertex features by
the channel index (a pure permutation within every frame), the temporal
shift slides channel groups along the frame axis with zero fill at the
boundaries.  Both shifts are numpy maps on [N, C, T, V] arrays, not graph
ops: slice copies, one or two per class of channels that move alike, so
they build no index arrays and cache nothing.

Each ``ShiftUnit`` is one ``tensor.shift_conv_bn`` node: shift -> 1x1 conv
-> batch-norm [+ skip] [-> ReLU] [+ post_skip].  The shift is one of these
maps, ``spatial_shift`` or ``temporal_shift`` at the Shift-GCN recipe's
radius of 1, and the node's backward calls it with ``inverse=True``, its
adjoint.  Each unit owns its conv weight ``w`` [Cout, Cin] and no conv
bias, which the batch-norm after it would cancel.  In eval mode the node
folds batch-norm into the conv: one GEMM plus a per-channel shift [plus
skip, ReLU and post_skip].  Neither mode keeps the normalised x̂: the
backward re-runs the shift once and rebuilds x̂ from it, bit-identically.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .nn import Module, Parameter, uniform_init
from .tensor import Tensor


def spatial_shift(x: np.ndarray, *, inverse: bool = False) -> np.ndarray:
    """out[n,c,t,v] = x[n,c,t,(v+c) mod V]; ``inverse`` undoes it exactly.

    A pure permutation within every (n, t) slice, so its adjoint is the
    inverse permutation.  Channels c ≡ s (mod V) share one rotation.
    """
    if x.ndim != 4:
        raise ShapeError(f"spatial_shift expects [N,C,T,V], got {x.shape}")
    c, v = x.shape[1], x.shape[3]
    out = np.empty_like(x)
    for s in range(min(c, v)):
        k = (v - s) % v if inverse else s
        src, dst = x[:, s::v], out[:, s::v]
        dst[..., :v - k] = src[..., k:]
        dst[..., v - k:] = src[..., :k]
    return out


def temporal_shift(x: np.ndarray, *, inverse: bool = False) -> np.ndarray:
    """out[n,c,t,v] = x[n,c,t-u(c),v] with u(c) = (c mod 3) - 1, zero fill.

    Frames pulled from outside [0, T) read as zero.  Each input frame feeds
    at most one output frame, so the adjoint, ``inverse``, is the shift
    with negated offsets.
    """
    if x.ndim != 4:
        raise ShapeError(f"temporal_shift expects [N,C,T,V], got {x.shape}")
    early, late = (2, 0) if inverse else (0, 2)  # channels that read frame t+1 / t-1
    out = np.zeros_like(x)
    out[:, early::3, :-1] = x[:, early::3, 1:]
    out[:, 1::3] = x[:, 1::3]
    out[:, late::3, 1:] = x[:, late::3, :-1]
    return out


class ShiftUnit(Module):
    """shift -> bias-free pointwise conv ``w`` -> BN [+ skip] [-> ReLU] [+ post_skip], Cin to Cout.

    The S-GCN units take ``spatial_shift`` and a ReLU, a decoder unit adding
    its encoder skip as ``post_skip``; the T-GCN takes ``temporal_shift`` and
    no ReLU; the module exit takes no shift and adds its ``skip`` before the
    ReLU.  The unit owns batch-norm's ``gamma``, ``beta`` and running
    statistics, which train mode updates at ``tensor.BN_MOMENTUM``.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, shift, relu: bool):
        super().__init__()
        self.shift = shift
        self.relu = relu
        self.w = Parameter(uniform_init(rng, (c_out, c_in), c_in), decay=True)
        self.gamma = Parameter(np.ones(c_out))
        self.beta = Parameter(np.zeros(c_out))
        self.running_mean = np.zeros(c_out)
        self.running_var = np.ones(c_out)

    def forward(self, x: Tensor, skip: Tensor | None = None,
                post_skip: Tensor | None = None) -> Tensor:
        return T.shift_conv_bn(x, self.w, self.gamma, self.beta, self.running_mean,
                               self.running_var, self.training, self.shift, self.relu, skip, post_skip)
