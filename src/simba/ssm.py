"""Selective state-space machinery.

A bank of independent diagonal linear systems, one per channel:

    h_t = a_t * h_{t-1} + b_t * y_t        (state, per channel d and state w)
    out_t[d] = sum_w c_t[w] * h_t[d, w]    (readout)

with the per-step coefficients produced from the input by zero-order-hold
discretization of a continuous system (a = exp(delta*A),
b = (exp(delta*A)-1)/A * B).  Selection makes B, C and delta functions of
the input, so the recurrence is time-varying.

The scan itself is a single recorded autodiff op with a hand-written
adjoint: the gradient of a linear recurrence is the same recurrence run
backwards in time.  Forward and adjoint share one strategy, picked by the
chunk size:

* sequential — one numpy step per timestep (the reference);
* chunked — the sequence is cut into chunks whose local recurrences are
  advanced together as one vectorized numpy step per position, and the
  carried states are stitched across chunk boundaries with one short
  sequential pass.  A chunk covering the whole sequence runs the
  sequential loop, so it matches the reference bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DomainError, ShapeError
from .nn import CausalConv1d, Linear, Module, Parameter, RMSNorm, uniform_init
from .tensor import Tensor


# ---------------------------------------------------------------------------
# zero-order hold discretization
# ---------------------------------------------------------------------------

def zoh_discretize(a_cont: Tensor, b_t: Tensor, delta: Tensor):
    """Discretize a diagonal continuous system over per-step sizes.

    a_cont: [Dp, W] strictly negative diagonal entries
    b_t:    [N, T, W] per-step input projections
    delta:  [N, T, Dp] strictly positive step sizes

    Returns (a_bar, b_bar), both [N, T, Dp, W]:
        a_bar = exp(delta*A)
        b_bar = (exp(delta*A) - 1) / A * B
    """
    if np.any(a_cont.data >= 0.0):
        raise DomainError("continuous state coefficients must be strictly negative")
    if np.any(delta.data <= 0.0):
        raise DomainError("step sizes must be strictly positive")
    n, t, dp = delta.shape
    w = a_cont.shape[-1]
    if a_cont.shape != (dp, w) or b_t.shape != (n, t, w):
        raise ShapeError(f"inconsistent zoh shapes: A {a_cont.shape}, B {b_t.shape}, delta {delta.shape}")
    da = T.reshape(delta, (n, t, dp, 1)) * a_cont
    a_bar = T.exp(da)
    b_bar = (a_bar - 1.0) / a_cont * T.reshape(b_t, (n, t, 1, w))
    return a_bar, b_bar


def lti_kernel(a_cont: np.ndarray, b_const: np.ndarray, c_const: np.ndarray,
               delta_const: float, m: int) -> np.ndarray:
    """Convolution kernel of one time-invariant channel.

    kernel[j] = sum_w c[w] * a_bar[w]**j * b_bar[w], j = 0..m-1, so a causal
    convolution of the input with the kernel reproduces the recurrence.
    """
    if m <= 0:
        raise DomainError(f"kernel length must be positive, got {m}")
    if delta_const <= 0.0:
        raise DomainError("step size must be strictly positive")
    a_cont = np.asarray(a_cont, dtype=np.float64)
    if np.any(a_cont >= 0.0):
        raise DomainError("continuous state coefficients must be strictly negative")
    a_bar = np.exp(delta_const * a_cont)
    b_bar = (a_bar - 1.0) / a_cont * np.asarray(b_const, dtype=np.float64)
    powers = a_bar[None, :] ** np.arange(m)[:, None]
    return powers @ (np.asarray(c_const, dtype=np.float64) * b_bar)


def lti_conv(y: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal convolution of a 1-D input with an LTI kernel."""
    return np.convolve(np.asarray(y, dtype=np.float64), kernel)[: len(y)]


# ---------------------------------------------------------------------------
# scan kernels (raw numpy, shared by forward and adjoint)
# ---------------------------------------------------------------------------

def _scan_states_sequential(a: np.ndarray, inj: np.ndarray) -> np.ndarray:
    """h_t = a_t*h_{t-1} + inj_t for [N, T, Dp, W] inputs, h_0 = 0."""
    n, t, dp, w = a.shape
    out = np.empty_like(a)
    h = np.zeros((n, dp, w), dtype=a.dtype)
    for i in range(t):
        h = a[:, i] * h + inj[:, i]
        out[:, i] = h
    return out


def _scan_states_chunked(a: np.ndarray, inj: np.ndarray, chunk: int) -> np.ndarray:
    """Chunked recurrence vectorized across blocks, in plain numpy.

    Pass 1 advances every block's local recurrence together, keeping only
    each block's end state and total decay (small, cache-resident
    buffers).  A short sequential pass stitches the carried state across
    block boundaries; pass 2 then re-runs every block from its carried
    state, writing the final state sequence.  The tail is padded with the
    recurrence identity (a=1, inj=0), which leaves values exact.
    """
    n, t, dp, w = a.shape
    m = -(-t // chunk)
    pad = m * chunk - t
    if pad:
        a = np.concatenate([a, np.ones((n, pad, dp, w), dtype=a.dtype)], axis=1)
        inj = np.concatenate([inj, np.zeros((n, pad, dp, w), dtype=inj.dtype)], axis=1)
    ab = a.reshape(n, m, chunk, dp, w)
    ib = inj.reshape(n, m, chunk, dp, w)

    h = np.zeros((n, m, dp, w), dtype=a.dtype)
    decay = np.ones((n, m, dp, w), dtype=a.dtype)
    for i in range(chunk):
        np.multiply(ab[:, :, i], h, out=h)
        np.add(h, ib[:, :, i], out=h)
        np.multiply(decay, ab[:, :, i], out=decay)

    carries = np.zeros((n, m, dp, w), dtype=a.dtype)
    for j in range(1, m):
        carries[:, j] = h[:, j - 1] + decay[:, j - 1] * carries[:, j - 1]

    states = np.empty_like(ab)
    h = carries
    for i in range(chunk):
        np.multiply(ab[:, :, i], h, out=h)
        np.add(h, ib[:, :, i], out=h)
        states[:, :, i] = h
    return states.reshape(n, m * chunk, dp, w)[:, :t]


def _scan_states(a: np.ndarray, inj: np.ndarray, chunk) -> np.ndarray:
    """Sequential loop when ``chunk`` is None or covers T, chunked scan otherwise."""
    if chunk is None or chunk >= a.shape[1]:
        return _scan_states_sequential(a, inj)
    return _scan_states_chunked(a, inj, chunk)


# ---------------------------------------------------------------------------
# the recorded scan op
# ---------------------------------------------------------------------------

@dataclass
class ScanInputs:
    """Per-timestep discretized coefficients feeding the scan.

    a_bar: [N, T, Dp, W], in (0, 1] for a stable system
    b_bar: [N, T, Dp, W] state-injection coefficients
    c:     [N, T, W] readout projections
    """

    a_bar: Tensor
    b_bar: Tensor
    c: Tensor

    def __post_init__(self):
        n, t, dp, w = self.a_bar.shape
        if self.b_bar.shape != (n, t, dp, w) or self.c.shape != (n, t, w):
            raise ShapeError(
                f"inconsistent scan inputs: a {self.a_bar.shape}, b {self.b_bar.shape}, c {self.c.shape}")


def _selective_scan(inputs: ScanInputs, y_in: Tensor, chunk) -> Tensor:
    a, b, c, y = inputs.a_bar, inputs.b_bar, inputs.c, y_in
    n, t, dp, w = a.shape
    if y.shape != (n, t, dp):
        raise ShapeError(f"scan input sequence {y.shape} does not match coefficients {a.shape}")
    inj = b.data * y.data[..., None]
    h = _scan_states(a.data, inj, chunk)
    out = np.einsum("ntw,ntdw->ntd", c.data, h)

    def backward(g):
        # d L/d h_t has a direct part from the readout plus everything that
        # flows back through later states; the latter is the same scan run
        # in reverse time with the coefficients shifted by one step.
        direct = g[..., None] * c.data[:, :, None, :]
        a_rev = np.flip(a.data, axis=1)
        coeff = np.concatenate([np.ones_like(a_rev[:, :1]), a_rev[:, :-1]], axis=1)
        lam = np.flip(_scan_states(coeff, np.flip(direct, axis=1), chunk), axis=1)
        h_prev = np.concatenate([np.zeros_like(h[:, :1]), h[:, :-1]], axis=1)
        if a.requires_grad:
            a._accumulate(lam * h_prev)
        if b.requires_grad:
            b._accumulate(lam * y.data[..., None])
        if y.requires_grad:
            y._accumulate(np.einsum("ntdw,ntdw->ntd", lam, b.data))
        if c.requires_grad:
            c._accumulate(np.einsum("ntd,ntdw->ntw", g, h))

    return T._make(out, (a, b, c, y), backward)


def selective_scan_sequential(inputs: ScanInputs, y_in: Tensor) -> Tensor:
    """Reference scan: strict one-step-at-a-time recurrence."""
    return _selective_scan(inputs, y_in, chunk=None)


def selective_scan_parallel(inputs: ScanInputs, y_in: Tensor, chunk: int) -> Tensor:
    """Chunked scan; mathematically identical to the sequential reference."""
    if chunk < 1:
        raise DomainError(f"chunk must be >= 1, got {chunk}")
    return _selective_scan(inputs, y_in, chunk=chunk)


# ---------------------------------------------------------------------------
# the gated selective-SSM block
# ---------------------------------------------------------------------------

class SsmParams(Module):
    """Parameters of the selective system over Dp channels and W states.

    A is stored as -exp(a_log) so it stays strictly negative; the step-size
    bias p is placed so softplus(p) starts log-uniform in [1e-3, 1e-1].
    Selection projections: w_b/w_c map channels to per-step B/C (with bias,
    so zero weights leave a usable time-invariant system), w_dt maps to a
    single step-size logit broadcast across channels.
    """

    def __init__(self, dp: int, w: int, rng: np.random.Generator):
        super().__init__()
        self.dp = dp
        self.w = w
        self.a_log = Parameter(np.tile(np.log(np.arange(1.0, w + 1)), (dp, 1)))
        step = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=dp))
        self.p = Parameter(np.log(np.expm1(step)))
        self.w_b = Linear(dp, w, rng)
        self.w_c = Linear(dp, w, rng)
        self.w_dt = Linear(dp, 1, rng, bias=False)

    def a_cont(self) -> Tensor:
        return -T.exp(self.a_log)

    def delta(self, x: Tensor) -> Tensor:
        """softplus(p + broadcast(w_dt(x))) > 0, shape [N, T, Dp]."""
        logit = self.w_dt(x)  # [N, T, 1], broadcast across channels
        return T.softplus(logit + self.p)

    def scan_inputs(self, x: Tensor) -> ScanInputs:
        b_t = self.w_b(x)
        c_t = self.w_c(x)
        a_bar, b_bar = zoh_discretize(self.a_cont(), b_t, self.delta(x))
        return ScanInputs(a_bar, b_bar, c_t)


class IMambaBlock(Module):
    """Gated selective-scan layer with RMS norm and a residual connection.

    Input and output are [N, T, Dp].  The scanned branch is a causal
    depthwise conv + SiLU; the gate branch is a plain linear + SiLU; their
    product is projected back to Dp.  Norm placement is configurable:
    'post' normalizes the projection before adding the residual, 'pre'
    normalizes the block input instead.
    """

    def __init__(self, dp: int, w: int, rng: np.random.Generator,
                 conv_kernel: int = 4, norm_placement: str = "post",
                 scan_chunk: int = 0):
        super().__init__()
        if norm_placement not in ("post", "pre"):
            raise DomainError(f"norm_placement must be 'post' or 'pre', got {norm_placement!r}")
        self.dp = dp
        self.ssm = SsmParams(dp, w, rng)
        self.in_proj_y = Linear(dp, dp, rng)
        self.in_proj_z = Linear(dp, dp, rng)
        self.conv = CausalConv1d(dp, conv_kernel, rng)
        self.out_proj = Linear(dp, dp, rng)
        self.norm = RMSNorm(dp)
        self.norm_placement = norm_placement
        self.scan_chunk = scan_chunk

    def _scan(self, inputs: ScanInputs, y: Tensor) -> Tensor:
        if self.scan_chunk > 1:
            return selective_scan_parallel(inputs, y, self.scan_chunk)
        return selective_scan_sequential(inputs, y)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.dp:
            raise ShapeError(f"block configured for [N,T,{self.dp}], got {x.shape}")
        u = self.norm(x) if self.norm_placement == "pre" else x
        y = T.silu(self.conv(self.in_proj_y(u)))
        z = T.silu(self.in_proj_z(u))
        s = self._scan(self.ssm.scan_inputs(u), y)
        gated = self.out_proj(s * z)
        if self.norm_placement == "post":
            gated = self.norm(gated)
        return gated + x
