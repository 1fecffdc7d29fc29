"""Composite references the fused-op tests share: each op as it was built
before its fusion, from tensor primitives or from one graph node per step."""

import numpy as np

from simba import ssm
from simba import tensor as T
from simba.tensor import Tensor


def batch_norm2d_composite(x, gamma, beta, running_mean, running_var, training,
                           momentum=0.1, eps=1e-5):
    """The batch-norm built from tensor primitives that the fused op replaced."""
    c = x.shape[1]
    if training:
        count = x.shape[0] * x.shape[2] * x.shape[3]
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        xhat = centered / T.sqrt(var + eps)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.data.reshape(c)
        running_var *= 1.0 - momentum
        running_var += momentum * var.data.reshape(c) * count / (count - 1)
    else:
        rm = Tensor(running_mean.reshape(1, c, 1, 1), dtype=x.dtype)
        rv = Tensor(running_var.reshape(1, c, 1, 1), dtype=x.dtype)
        xhat = (x - rm) / T.sqrt(rv + eps)
    return xhat * T.reshape(gamma, (1, c, 1, 1)) + T.reshape(beta, (1, c, 1, 1))


def _shift_node(pair, x):
    """A (forward, adjoint) shift pair recorded as a graph node of its own."""
    def backward(g):
        if x.requires_grad:
            x._accumulate(pair[1](g), owned=True)

    return T._make(pair[0](x.data), (x,), backward)


def _relu_node(x):
    """ReLU as a graph node of its own; its subgradient at 0 is 0."""
    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0.0), owned=True)

    return T._make(np.maximum(x.data, 0.0), (x,), backward)


def _conv_node(x, w, b):
    """A biased 1x1 conv over the channels of x[N, C, T, V] as a graph node of its own."""
    n, ci, t, v = x.shape
    co = w.shape[0]
    data = (w.data @ x.data.reshape(n, ci, t * v)).reshape(n, co, t, v)
    data += b.data[None, :, None, None]

    def backward(g):
        gm = g.reshape(n, co, t * v)
        if x.requires_grad:
            x._accumulate((w.data.T @ gm).reshape(x.shape), owned=True)
        if w.requires_grad:
            w._accumulate(T._pointwise_weight_grad(gm, x.data.reshape(n, ci, t * v)), owned=True)
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)), owned=True)

    return T._make(data, (x, w, b), backward)


def shift_conv_bn_composite(x, w, gamma, beta, running_mean, running_var, training,
                            shift, relu, skip=None, conv_bias=None):
    """The unit as the blocks built it before fusion: one node per step.

    The conv bias is a constant zero unless ``conv_bias`` is given.
    """
    if conv_bias is None:
        conv_bias = Tensor(np.zeros(w.shape[0]), dtype=x.dtype)
    out = _conv_node(_shift_node(shift, x) if shift else x, w, conv_bias)
    out = batch_norm2d_composite(out, gamma, beta, running_mean, running_var, training)
    out = out if skip is None else out + skip
    return _relu_node(out) if relu else out


def _blend_node(x, pz, gate, scatter):
    """x + (1 - gate)·(pz @ scatter - x) as the one node the gate's blend was before the fusion."""
    open_ = 1.0 - gate.data
    e = pz.data @ scatter
    e -= x.data
    e *= open_
    e += x.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * gate.data, owned=True)
        if pz.requires_grad:
            pz._accumulate((g * open_) @ scatter.T, owned=True)
        if gate.requires_grad:
            diff = pz.data @ scatter
            diff -= x.data
            diff *= g
            gate._accumulate(-T._unbroadcast(diff, gate.shape), owned=True)

    return T._make(e, (x, pz, gate), backward)


def partition_gate_composite(x, w, b, gate, pool, scatter):
    """The gate as three nodes: x @ pool, the 1x1 conv, then scatter and blend."""
    return _blend_node(x, _conv_node(x @ Tensor(pool), w, b), gate, scatter)


def cross_entropy_composite(logits, labels):
    """The cross-entropy built from tensor primitives that the fused op replaced,
    with the label pick written as a one-hot product."""
    z = logits - np.max(logits.data, axis=1, keepdims=True)
    lse = T.log(T.exp(z).sum(axis=1, keepdims=True))
    picked = z * Tensor(np.eye(logits.shape[1])[labels])
    return (lse - picked.sum(axis=1, keepdims=True)).mean()


def _zoh_composite(a_cont: Tensor, b_t: Tensor, delta: Tensor):
    """The Tensor-level ZOH the fused scan op replaced: seven graph nodes."""
    n, t, dp = delta.shape
    w = a_cont.shape[-1]
    da = T.reshape(delta, (n, t, dp, 1)) * a_cont
    a_bar = T.exp(da)
    b_bar = (a_bar - 1.0) / a_cont * T.reshape(b_t, (n, t, 1, w))
    return a_bar, b_bar


def _scan_states(a: np.ndarray, inj: np.ndarray, chunk) -> np.ndarray:
    """The whole-array scan kernel of the composite: chunked when ``chunk`` is given."""
    if chunk is None:
        return ssm._scan_states_sequential(a, inj)
    return ssm._scan_states_chunked(a, inj, chunk)


def _scan_composite(a: Tensor, b: Tensor, c: Tensor, y: Tensor, chunk) -> Tensor:
    """The scan op over precomputed a_bar/b_bar that the fused op replaced."""
    inj = b.data * y.data[..., None]
    h = _scan_states(a.data, inj, chunk)
    out = np.einsum("ntw,ntdw->ntd", c.data, h)

    def backward(g):
        direct = g[..., None] * c.data[:, :, None, :]
        a_rev = np.flip(a.data, axis=1)
        coeff = np.concatenate([np.ones_like(a_rev[:, :1]), a_rev[:, :-1]], axis=1)
        lam = np.flip(_scan_states(coeff, np.flip(direct, axis=1), chunk), axis=1)
        h_prev = np.concatenate([np.zeros_like(h[:, :1]), h[:, :-1]], axis=1)
        a._accumulate(lam * h_prev)
        b._accumulate(lam * y.data[..., None])
        y._accumulate(np.einsum("ntdw,ntdw->ntd", lam, b.data))
        c._accumulate(np.einsum("ntd,ntdw->ntw", g, h))

    return T._make(out, (a, b, c, y), backward)


def selective_scan_composite(delta, a_cont, b, c, y, chunk=None):
    a_bar, b_bar = _zoh_composite(a_cont, b, delta)
    return _scan_composite(a_bar, b_bar, c, y, chunk)
