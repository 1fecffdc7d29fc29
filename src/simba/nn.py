"""Parameter containers and the handful of layers the blocks are built from."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


class Parameter(Tensor):
    """A leaf tensor updated by the optimizer.

    ``decay`` marks whether weight decay applies; only conv/linear weight
    matrices carry it, never biases or normalization gains.
    """

    __slots__ = ("decay",)

    def __init__(self, data, decay: bool = False):
        super().__init__(data, requires_grad=True)
        self.decay = decay


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Fan-in-scaled uniform init on [-sqrt(1/fan_in), sqrt(1/fan_in)]."""
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


def _is_buffer(name: str, value) -> bool:
    return isinstance(value, np.ndarray) and not name.startswith("_")


# (paths by module id, {path: (input shape, output shape)}) while
# trace_shapes runs, else None
_TRACE = None


class Module:
    """Minimal block base: module and parameter discovery, buffers, train/eval mode."""

    def __init__(self):
        self.training = True

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        if _TRACE is not None:
            paths, shapes = _TRACE
            if id(self) in paths:
                shapes[paths[id(self)]] = (args[0].shape, out.shape)
        return out

    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_modules(self, path: str = ""):
        """Every module of the tree, depth first, keyed by dotted path ("" is self)."""
        yield path, self
        for name, child in self._children():
            yield from child.named_modules(f"{path}.{name}" if path else name)

    def _named_state(self, keep):
        for path, module in self.named_modules():
            for name, value in vars(module).items():
                if keep(name, value):
                    yield (f"{path}.{name}" if path else name, value)

    def named_parameters(self):
        return self._named_state(lambda name, value: isinstance(value, Parameter))

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self):
        """Non-trainable state that still belongs in a checkpoint (BN stats).

        Underscore-prefixed arrays are caches, not state, and are skipped.
        """
        return self._named_state(_is_buffer)

    def astype(self, dtype):
        """Cast every parameter and buffer in place; returns self."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        for _, module in self.named_modules():
            for name, value in list(vars(module).items()):
                if _is_buffer(name, value):
                    setattr(module, name, value.astype(dtype))
        return self

    def train(self, mode: bool = True):
        for _, module in self.named_modules():
            module.training = mode
        return self

    def eval(self):
        return self.train(False)

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())


def trace_shapes(module: Module, x) -> dict:
    """Run ``module(x)``; return {dotted path: (input shape, output shape)}.

    Every submodule called during the forward is recorded under the path
    ``named_modules`` gives it, in that order; ``""`` is ``module`` itself.
    """
    global _TRACE
    paths = {id(m): path for path, m in module.named_modules()}
    shapes = {}
    _TRACE = (paths, shapes)
    try:
        module(x)
    finally:
        _TRACE = None
    return {path: shapes[path] for path in paths.values() if path in shapes}


class Linear(Module):
    """y = x @ w + b with w of shape [fan_in, fan_out]."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.w = Parameter(uniform_init(rng, (fan_in, fan_out), fan_in), decay=True)
        self.b = Parameter(np.zeros(fan_out)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.w.shape[0]:
            raise ShapeError(f"linear expects last dim {self.w.shape[0]}, got {x.shape}")
        if x.ndim == 2 and not self.training:
            # one [1, D] product per row: BLAS rounds a row of a GEMM differently
            # with the row count, so a sample's eval scores would depend on its batch
            n = x.shape[0]
            out = T.reshape(T.reshape(x, (n, 1, -1)) @ self.w, (n, -1))
        else:
            out = x @ self.w
        if self.b is not None:
            out = out + self.b
        return out


class PointwiseConv2d(Module):
    """1x1 conv over the channel axis of [N, C, T, V]."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        super().__init__()
        self.w = Parameter(uniform_init(rng, (c_out, c_in), c_in), decay=True)
        self.b = Parameter(np.zeros(c_out))

    def forward(self, x: Tensor) -> Tensor:
        return T.pointwise_conv2d(x, self.w, self.b)


class CausalConv1d(Module):
    """Depthwise causal convolution along time for [N, T, D] sequences."""

    def __init__(self, channels: int, kernel: int, rng: np.random.Generator):
        super().__init__()
        self.w = Parameter(uniform_init(rng, (channels, kernel), kernel), decay=True)
        self.b = Parameter(np.zeros(channels))

    def forward(self, x: Tensor) -> Tensor:
        return T.causal_conv1d_depthwise(x, self.w, self.b)


class BatchNorm2d(Module):
    """Batch-norm state: the affine gain and shift plus the running statistics.

    The normalization itself runs inside ``tensor.shift_conv_bn``, fused
    with the bias-free conv that feeds it.  In eval mode that op folds these
    arrays into the conv weight and a per-channel shift (scale =
    γ/sqrt(running_var + eps), shift β - running_mean·scale) on each call,
    without rewriting them, and recomputes x̂ in backward only for the γ
    gradient.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps


class RMSNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.gain = Parameter(np.ones(dim))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return T.rms_norm(x, self.gain, self.eps)
