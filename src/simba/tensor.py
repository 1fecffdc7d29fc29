"""Dense N-D tensors with reverse-mode automatic differentiation.

Every differentiable op but the selective scan node (in ``ssm.py``) is defined
here.  The graph is define-by-run: each op returns a new Tensor that keeps
references to its parents and a closure that accumulates gradients into
them.  ``backward()`` on a scalar replays the closures in reverse
topological order and consumes the graph as it goes: each interior node
drops its grad, closure and parents once its closure has run, so the arrays
it saved are freed during the walk.  Leaves (parameters and inputs) keep
their grads.  A graph can be walked once; a second ``backward()`` that
reaches a consumed node raises ``GraphConsumedError``.

Every array keeps the dtype of its data: float32 in, float32 out.  There
is no global default.  Non-float data (lists, ints, Python scalars) becomes
float64, and the non-Tensor operand of a binary op takes the dtype of the
Tensor one, so ``x - 1.0`` stays in the width of ``x``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DomainError, GraphConsumedError, ShapeError, ValidationError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (eval / benchmarking)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A numpy-backed array node in the autodiff graph.

    ``data`` is a numpy float array; non-float input becomes float64.
    ``grad`` is lazily allocated in the dtype of ``data`` and accumulated
    additively, so a tensor consumed by several ops sums all contributions.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data, dtype=dtype)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # --- introspection ---

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # --- autodiff core ---

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        # the first contribution is copied, never aliased: ops hand the same
        # g to several parents, and reshape hands down a view of its own grad.
        # ``owned`` says the op hands g to this parent only and writes it no
        # more: a fresh array, or the op's own incoming gradient, which its
        # node drops once the closure has run.  One of the parent's shape and
        # dtype is then kept without the copy.
        if self.grad is None:
            if owned and type(g) is np.ndarray and g.shape == self.data.shape and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate the grads of every leaf reachable from this scalar, consuming the graph.

        Closures run in reverse topological order.  Once a node's closure has
        run, its grad, closure and parents are dropped, so what it saved for
        backward and the gradient it received are freed mid-walk.  Leaves
        (``_backward is None``: parameters and inputs) keep their grads.  A
        second call that reaches a consumed node raises ``GraphConsumedError``
        before any closure runs, so the leaves' grads stay as they are.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        order = _toposort(self)
        if any(node._backward is _consumed for node in order):
            _consumed(None)  # raises GraphConsumedError
        self._accumulate(np.ones_like(self.data), owned=True)
        while order:  # popping drops the walk's reference to each node
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _consumed, ()

    # --- operator sugar ---

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other)

    def __rsub__(self, other):
        return add(other, -self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    # --- method aliases for the functional ops ---

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def permute(self, *axes):
        return permute(self, axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _as_tensors(a, b):
    """Wrap both operands; a non-Tensor one takes the other's dtype."""
    if not isinstance(a, Tensor):
        a = Tensor(a, dtype=b.dtype if isinstance(b, Tensor) else None)
    if not isinstance(b, Tensor):
        b = Tensor(b, dtype=a.dtype)
    return a, b


def _toposort(root: Tensor):
    """Iterative DFS postorder: parents always precede children in the result."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _consumed(g):
    """The closure of a node whose graph ``backward()`` has consumed."""
    raise GraphConsumedError("backward() reached a graph that an earlier backward() consumed; "
                             "run the forward again to record a new graph")


def _records(parents) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents, backward) -> Tensor:
    """Wrap an op result; records the graph only when grads are live."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    req = _records(parents)
    out.requires_grad = req
    if req:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise binary ops (numpy broadcasting rules)
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape), owned=True)

    return _make(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _as_tensors(a, b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b``; supports (..., M, D) @ (D, K) and 2-D @ 2-D."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects (..., M, D) @ (D, K), got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T, owned=True)
        if b.requires_grad:
            d, k = b.shape
            gb = a.data.reshape(-1, d).T @ g.reshape(-1, k)
            b._accumulate(gb, owned=True)

    return _make(data, (a, b), backward)


# ---------------------------------------------------------------------------
# elementwise unary ops
# ---------------------------------------------------------------------------

def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data, owned=True)

    return _make(data, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data, owned=True)

    return _make(data, (a,), backward)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / data, owned=True)

    return _make(data, (a,), backward)


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-x)) for x >= 0 and exp(x)/(1 + exp(x)) below; exp never overflows.

    exp(-|x|) is exactly exp(x) for x < 0, so one exp over the whole array
    serves both branches.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def silu(a) -> Tensor:
    """x * sigmoid(x)."""
    a = _as_tensor(a)
    s = _sigmoid_stable(a.data)
    data = a.data * s

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * s * (1.0 + a.data * (1.0 - s)), owned=True)

    return _make(data, (a,), backward)


SOFTPLUS_LINEAR_CUTOFF = 20.0


def softplus(a) -> Tensor:
    """log(1 + exp(x)), linearized to x above the overflow cutoff."""
    a = _as_tensor(a)
    x = a.data
    data = np.where(x > SOFTPLUS_LINEAR_CUTOFF, x, np.log1p(np.exp(np.minimum(x, SOFTPLUS_LINEAR_CUTOFF))))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * _sigmoid_stable(x), owned=True)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# shape / movement ops
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(data, (a,), backward)


def permute(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def backward(g):
        if a.requires_grad:  # C-ordered: a strided grad changes the order the parent's sums run in
            a._accumulate(np.ascontiguousarray(np.transpose(g, inverse)), owned=True)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(ax % ndim for ax in axis))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    data = np.asarray(a.data.sum(axis=axes, keepdims=keepdims))

    def backward(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axes)
            a._accumulate(np.broadcast_to(g, a.shape))

    return _make(data, (a,), backward)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    data = np.asarray(a.data.mean(axis=axes, keepdims=keepdims))

    def backward(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axes)
            a._accumulate(np.broadcast_to(g, a.shape) / count, owned=True)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# structured ops
# ---------------------------------------------------------------------------

def _check_pointwise(x, w) -> None:
    if x.ndim != 4 or w.ndim != 2:
        raise ShapeError(f"pointwise conv expects x[N,C,T,V], w[Cout,Cin]; got {x.shape}, {w.shape}")
    if w.shape[1] != x.shape[1]:
        raise ShapeError(f"channel mismatch: x has {x.shape} but w has {w.shape}")


def _pointwise_weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dW[o,i] = sum over n, k of g[n,o,k] * x[n,i,k] for g[N,Cout,K], x[N,Cin,K].

    One GEMM over the flattened (n, k) axis.  A batched ``np.matmul`` per
    sample is faster but rounds differently in float32, and the toy overfit
    criterion's loss ordering is sensitive to that rounding.
    """
    return np.tensordot(g, x, axes=([0, 2], [0, 2]))


def causal_conv1d_depthwise(x, w, b) -> Tensor:
    """Per-channel causal convolution along the middle axis of x[N, T, D].

    The sequence is left-padded with K-1 zeros so out[t] only sees x[<=t].
    w has shape [D, K], b shape [D].
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim != 3 or w.ndim != 2 or w.shape[0] != x.shape[2]:
        raise ShapeError(f"causal conv1d expects x[N,T,D], w[D,K]; got {x.shape}, {w.shape}")
    n, t, d = x.shape
    k = w.shape[1]
    xp = np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))
    data = np.zeros_like(x.data)
    for j in range(k):
        data += w.data[:, j][None, None, :] * xp[:, j:j + t, :]
    data += b.data[None, None, :]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros(x.shape, dtype=xp.dtype)
            for j in range(k):
                s = k - 1 - j  # out[t] reads x[t - s] through w[:, j]
                if s < t:
                    gx[:, :t - s] += g[:, s:] * w.data[:, j]
            x._accumulate(gx, owned=True)
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for j in range(k):
                gw[:, j] = np.einsum("ntd,ntd->d", g, xp[:, j:j + t, :])
            w._accumulate(gw, owned=True)
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 1)), owned=True)

    return _make(data, (x, w, b), backward)


# batch-norm's running-statistics rate and ε (the Shift-GCN recipe's), and RMS-norm's ε
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
RMS_EPS = 1e-5


def shift_conv_bn(x, w, gamma, beta, running_mean, running_var, training: bool,
                  shift=None, relu: bool = False, skip=None, post_skip=None) -> Tensor:
    """shift -> 1x1 conv -> batch-norm [+ skip] [-> ReLU] [+ post_skip] on x[N, Cin, T, V], one graph node.

    ``shift`` is None or a numpy map applied to the input before the conv,
    whose ``shift(g, inverse=True)`` is its adjoint.  The conv has no bias:
    train-mode batch-norm subtracts the batch mean, which cancels any bias
    added before it (Ioffe & Szegedy 2015, §3.2); β shifts the output.
    Batch-norm normalizes each output channel over the (N, T, V) axes: train
    mode uses the batch statistics and updates the running arrays in place
    (exponential moving average at rate ``BN_MOMENTUM``, unbiased variance);
    eval mode uses the running statistics; ε is ``BN_EPS``.  ``skip`` and
    ``post_skip``, each None or a tensor of the output's shape, are added
    before and after the ReLU, so a residual unit's ReLU(BN(conv(x)) + skip)
    and a decoder unit's ReLU(BN(conv(x))) + post_skip are one node each.

    Train mode writes x̂ over the conv output and the output over x̂, so the
    node keeps only the output and the per-channel mean and 1/sqrt(var + ε).
    Eval mode is an affine map, so it folds batch-norm into the conv (Jacob
    et al. 2018, §3.2): with scale = γ/sqrt(var + ε) it runs one GEMM with
    W·scale, then the bias β - mean·scale, the skip and the ReLU in place.
    Neither mode keeps x̂ or the shifted input.  In both modes the backward
    re-runs the shift once and rebuilds x̂ = (W·shift(x) - mean)/sqrt(var + ε)
    with the forward's own operations in its order, so it is bit-identical
    and nothing divides by γ; the same shifted input serves the weight
    gradient (Chen et al. 2016, arXiv:1604.06174, trade memory for one GEMM).
    The ReLU mask is read from the output, except when ``post_skip`` is
    added over it: then a recording node keeps the mask as a bool array.
    The backward copies no gradient: ``post_skip`` takes the incoming one,
    ``skip`` the masked one, and x̂ and the shifted input are released as
    soon as their last reader has run (Chen et al. 2016, §3, memory sharing).
    """
    x, w, gamma, beta = (_as_tensor(a) for a in (x, w, gamma, beta))
    _check_pointwise(x, w)
    n, ci, t, v = x.shape
    co = w.shape[0]
    skip, post_skip = (None if s is None else _as_tensor(s) for s in (skip, post_skip))
    for name, s in (("skip", skip), ("post_skip", post_skip)):
        if s is not None and s.shape != (n, co, t, v):
            raise ShapeError(f"{name} shape {s.shape} != unit output shape {(n, co, t, v)}")
    count = n * t * v
    if training and count < 2:
        raise DomainError(f"batch-norm train mode needs >=2 elements per channel, got {count}")

    def conv_input():
        return (x.data if shift is None else shift(x.data)).reshape(n, ci, t * v)

    if training:
        xhat = np.matmul(w.data, conv_input())
        mean = xhat.mean(axis=(0, 2))
        xhat -= mean[:, None]
        var = (xhat * xhat).mean(axis=(0, 2))
        inv = 1.0 / np.sqrt(var + BN_EPS)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var * count / (count - 1)
        xhat *= inv[:, None]
        out = xhat  # the output is written over x̂: backward rebuilds x̂
        out *= gamma.data[:, None]
        out += beta.data[:, None]
    else:
        mean = running_mean.astype(x.dtype, copy=False)
        inv = 1.0 / np.sqrt(running_var.astype(x.dtype, copy=False) + BN_EPS)
        scale = gamma.data * inv
        out = np.matmul(w.data * scale[:, None], conv_input())
        out += (beta.data - mean * scale)[:, None]
    if skip is not None:
        out += skip.data.reshape(n, co, t * v)
    if relu:
        np.maximum(out, 0, out=out)
    parents = tuple(p for p in (x, w, gamma, beta, skip, post_skip) if p is not None)
    mask = None
    if post_skip is not None:
        if relu and _records(parents):
            mask = out > 0
        out += post_skip.data.reshape(n, co, t * v)

    def backward(g):
        # g is this node's own gradient: it is handed on to a skip or masked
        # in place instead of copied.  When a skip is also x or the other
        # skip, its later contributions are added into g, but only after
        # g's last read here
        g = g.reshape(n, co, t * v)
        if post_skip is not None and post_skip.requires_grad:
            # with a ReLU the node goes on with a masked copy, so post_skip
            # owns g; without one g is read below and may go to skip as well
            post_skip._accumulate(g.reshape(post_skip.shape), owned=relu)
            if relu:
                g = g * (out > 0 if mask is None else mask)
        elif relu:
            g *= out > 0 if mask is None else mask
        if skip is not None and skip.requires_grad:
            skip._accumulate(g.reshape(skip.shape), owned=True)
        sum_g = g.sum(axis=(0, 2))
        if beta.requires_grad:
            beta._accumulate(sum_g)
        xs = conv_input()
        xhat = np.matmul(w.data, xs)  # x̂ by the forward's own operations, in its order
        xhat -= mean[:, None]
        xhat *= inv[:, None]
        sum_gx = np.einsum("nck,nck->c", g, xhat)
        if gamma.requires_grad:
            gamma._accumulate(sum_gx)
        # gz is laid out channel-major, so the weight gradient's tensordot reads
        # it without a transposing copy; every value and GEMM result is unchanged
        gz = np.empty((co, n, t * v), g.dtype).transpose(1, 0, 2)
        if training:
            np.subtract(g, (sum_g / count)[:, None], out=gz)
            xhat *= (sum_gx / count)[:, None]
            gz -= xhat
            gz *= (gamma.data * inv)[:, None]
        else:
            np.multiply(g, (gamma.data * inv)[:, None], out=gz)
        xhat = None  # dead: the GEMMs below read only gz and the shifted input
        if w.requires_grad:
            w._accumulate(_pointwise_weight_grad(gz, xs), owned=True)
        xs = None  # dead: gx = Wᵀ·gz reads only gz
        if x.requires_grad:
            gx = np.matmul(w.data.T, gz).reshape(x.shape)
            x._accumulate(gx if shift is None else shift(gx, inverse=True), owned=True)

    return _make(out.reshape(n, co, t, v), parents, backward)


def partition_gate(x, w, b, gate, pool: np.ndarray, scatter: np.ndarray) -> Tensor:
    """Body-part gate on x[N, C, T, V]: pool -> 1x1 conv -> scatter -> blend, one graph node.

    ``pool`` [V, K] averages the member joints of each of K groups,
    ``w`` [C, C] and ``b`` [C] mix the pooled channels into
    pz = w·(x @ pool) + b, ``scatter`` [K, V] is the constant membership
    matrix that copies each group back to its joints, and ``gate``
    [1, C, 1, 1] blends per channel: x + (1 - gate)·(pz @ scatter - x), so a
    closed gate (or pz @ scatter == x) passes x through bit-exactly.  The
    forward runs the composite's operations in its order, in place on
    e = pz @ scatter.  The node keeps the pooled x @ pool and pz [N, C, T, K];
    the backward rebuilds e - x from pz for the gate's gradient, so it keeps
    no array of the output's size besides the output.
    """
    x, w, b, gate = (_as_tensor(a) for a in (x, w, b, gate))
    shapes = (x.shape, w.shape, b.shape, gate.shape, pool.shape, scatter.shape)
    n, c, t, v = x.shape if x.ndim == 4 else (-1,) * 4
    k = scatter.shape[0] if scatter.ndim == 2 else -1
    if shapes[1:] != ((c, c), (c,), (1, c, 1, 1), (v, k), (k, v)):
        raise ShapeError("partition gate expects x[N,C,T,V], w[C,C], b[C], gate[1,C,1,1], pool[V,K], "
                         "scatter[K,V]; got " + ", ".join(map(str, shapes)))
    z = (x.data @ pool).reshape(n, c, t * k)
    pz = (w.data @ z).reshape(n, c, t, k)
    pz += b.data[None, :, None, None]
    open_ = 1.0 - gate.data
    e = pz @ scatter
    e -= x.data
    e *= open_
    e += x.data

    def backward(g):
        gpz = ((g * open_) @ scatter.T).reshape(n, c, t * k)
        if gate.requires_grad:
            diff = pz @ scatter
            diff -= x.data
            diff *= g
            gate._accumulate(-_unbroadcast(diff, gate.shape), owned=True)
        if w.requires_grad:
            w._accumulate(_pointwise_weight_grad(gpz, z), owned=True)
        if b.requires_grad:
            b._accumulate(gpz.sum(axis=(0, 2)), owned=True)
        if x.requires_grad:
            gx = g * gate.data
            gx += (w.data.T @ gpz).reshape(n, c, t, k) @ pool.T
            x._accumulate(gx, owned=True)

    return _make(e, (x, w, b, gate), backward)


def rms_norm(x, gain) -> Tensor:
    """x / sqrt(mean(x^2, last axis) + RMS_EPS) * gain."""
    x, gain = _as_tensor(x), _as_tensor(gain)
    if x.shape[-1] != gain.shape[0]:
        raise ShapeError(f"rms_norm gain {gain.shape} does not match last dim of {x.shape}")
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x / sqrt(ms + RMS_EPS) * gain


def cross_entropy_logits(logits, labels) -> Tensor:
    """Mean of -log softmax(logits)[label]; stabilized by max subtraction.

    One graph node; the backward is (softmax - onehot(label)) / N.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(f"cross entropy expects logits[N,K] and labels[N]; got {logits.shape}, {labels.shape}")
    n, k = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        bad = int(np.argmax((labels < 0) | (labels >= k)))
        raise ValidationError(f"label {labels[bad]} at row {bad} outside [0, {k})")
    rows = np.arange(n)
    z = logits.data - np.max(logits.data, axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    data = np.asarray((np.log(total)[:, 0] - z[rows, labels]).mean())
    probs = e / total

    def backward(g):
        if logits.requires_grad:
            grad = probs.copy()
            grad[rows, labels] -= 1.0
            grad *= g / n
            logits._accumulate(grad, owned=True)

    return _make(data, (logits,), backward)
