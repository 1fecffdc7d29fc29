"""Selective state-space machinery.

A bank of independent diagonal linear systems, one per channel:

    h_t = a_t * h_{t-1} + b_t * y_t        (state, per channel d and state w)
    out_t[d] = sum_w c_t[w] * h_t[d, w]    (readout)

with the per-step coefficients produced from the input by zero-order-hold
discretization of a continuous system (a = exp(delta*A),
b = expm1(delta*A)/A * B).  Selection makes B, C and delta functions of
the input, so the recurrence is time-varying.

``selective_scan_sequential(delta, A, B, C, y)`` and
``selective_scan_parallel(delta, A, B, C, y, chunk)`` record one autodiff
node that discretizes, scans and reads out.  Its inputs are at most
[N, T, Dp] in size; the [N, T, Dp, W] coefficients and states are
recomputed in backward instead of stored, as in Mamba's fused kernel.
The chunk size picks the forward:

* sequential (chunk None or covering T) — streamed: it discretizes, steps
  and reads out one [N, Dp, W] time slice at a time and builds no
  [N, T, Dp, W] array;
* chunked — the sequence is cut into chunks whose local recurrences are
  advanced together as one vectorized numpy step per position, and the
  carried states are stitched across chunk boundaries with one short
  sequential pass.  It materializes the coefficients and the states, and
  is the parallel reference: every preset trains on the streamed forward.

Both share one backward.  The adjoint of a linear recurrence is the same
recurrence run backwards in time; the backward recomputes the states into
one [N, T, Dp, W] array, runs the adjoint over it in reverse time in place
and chains its result through the ZOH by hand.  So the two paths differ
only in the rounding of their forward outputs; their gradients are equal.

``zoh_discretize`` and ``_scan_states_sequential`` are the whole-array
discretization and scan, kept for the oracles and ``simba bench-scan``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DomainError, ShapeError
from .nn import CausalConv1d, Linear, Module, Parameter, RMSNorm, uniform_init
from .tensor import Tensor


# ---------------------------------------------------------------------------
# zero-order hold discretization
# ---------------------------------------------------------------------------

def _zoh(a_cont: np.ndarray, delta: np.ndarray):
    """(exp(delta*A), expm1(delta*A)/A), both [N, T, Dp, W]."""
    da = delta[..., None] * a_cont
    a_bar = np.exp(da)
    q = np.expm1(da, out=da)
    q /= a_cont
    return a_bar, q


def _describe(values: np.ndarray, pick, what: str, axes: str) -> str:
    """'<what> <value> at (<axes>) = <index>' for the entry ``pick`` selects."""
    idx = tuple(int(i) for i in np.unravel_index(pick(values), values.shape))
    return f"{what} {float(values[idx]):.6g} at ({axes}) = {idx}"


def _check_scan_inputs(a_cont: np.ndarray, b_t: np.ndarray, delta: np.ndarray, c_t=None, y=None) -> None:
    """The ShapeError and DomainError checks of ``zoh_discretize`` and the scan op.

    A DomainError names the offending entry: the smallest step size and its
    (n, t, d), or the largest continuous coefficient and its (d, w).  Each
    comparison holds only inside the domain, so NaN fails it, and ``argmin``
    and ``argmax`` name the first NaN entry ahead of any number.
    """
    n, t, dp = delta.shape
    w = a_cont.shape[-1]
    if y is not None and (y.shape != (n, t, dp) or c_t.shape != (n, t, w)):
        raise ShapeError(f"inconsistent scan inputs: delta {delta.shape}, c {c_t.shape}, y {y.shape}")
    if not np.all(a_cont < 0.0):
        raise DomainError("continuous state coefficients must be strictly negative; "
                          + _describe(a_cont, np.argmax, "largest A entry", "d, w"))
    if not np.all(delta > 0.0):
        raise DomainError("step sizes must be strictly positive; "
                          + _describe(delta, np.argmin, "smallest delta", "n, t, d"))
    if a_cont.shape != (dp, w) or b_t.shape != (n, t, w):
        raise ShapeError(f"inconsistent zoh shapes: A {a_cont.shape}, B {b_t.shape}, delta {delta.shape}")


def zoh_discretize(a_cont: np.ndarray, b_t: np.ndarray, delta: np.ndarray):
    """Discretize a diagonal continuous system over per-step sizes.

    a_cont: [Dp, W] strictly negative diagonal entries
    b_t:    [N, T, W] per-step input projections
    delta:  [N, T, Dp] strictly positive step sizes

    Returns numpy arrays (a_bar, b_bar), both [N, T, Dp, W]:
        a_bar = exp(delta*A)
        b_bar = expm1(delta*A) / A * B
    ``expm1`` keeps b_bar accurate when delta*A is tiny, where exp(x)-1
    cancels.
    """
    _check_scan_inputs(a_cont, b_t, delta)
    a_bar, b_bar = _zoh(a_cont, delta)
    b_bar *= b_t[:, :, None, :]
    return a_bar, b_bar


def lti_kernel(a_cont: np.ndarray, b_const: np.ndarray, c_const: np.ndarray,
               delta_const: float, m: int) -> np.ndarray:
    """Convolution kernel of one time-invariant channel.

    kernel[j] = sum_w c[w] * a_bar[w]**j * b_bar[w], j = 0..m-1, so a causal
    convolution of the input with the kernel reproduces the recurrence.
    """
    if m <= 0:
        raise DomainError(f"kernel length must be positive, got {m}")
    if not delta_const > 0.0:
        raise DomainError(f"step size must be strictly positive, got {delta_const}")
    a_cont = np.asarray(a_cont, dtype=np.float64)
    if not np.all(a_cont < 0.0):
        raise DomainError("continuous state coefficients must be strictly negative; "
                          + _describe(a_cont, np.argmax, "largest A entry", "w"))
    a_bar = np.exp(delta_const * a_cont)
    b_bar = (a_bar - 1.0) / a_cont * np.asarray(b_const, dtype=np.float64)
    powers = a_bar[None, :] ** np.arange(m)[:, None]
    return powers @ (np.asarray(c_const, dtype=np.float64) * b_bar)


def lti_conv(y: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal convolution of a 1-D input with an LTI kernel."""
    return np.convolve(np.asarray(y, dtype=np.float64), kernel)[: len(y)]


# ---------------------------------------------------------------------------
# whole-array scan kernels (raw numpy)
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


# ---------------------------------------------------------------------------
# the recorded scan op
# ---------------------------------------------------------------------------

def _stream_states(a_cont: np.ndarray, b: np.ndarray, y: np.ndarray, delta: np.ndarray):
    """Yield the states h_0..h_{T-1}, one [N, Dp, W] array updated in place.

    Each step discretizes one slice and applies h = a_t*h + b_bar_t*y_t with
    the same element-wise ops, in the same order, as ``zoh_discretize``
    followed by ``_scan_states_sequential``.
    """
    n, t, dp = delta.shape
    h = np.zeros((n, dp, a_cont.shape[-1]), dtype=np.result_type(a_cont, b, y, delta))
    for i in range(t):
        a_t, inj = _zoh(a_cont, delta[:, i])
        inj *= b[:, i, None, :]
        inj *= y[:, i, :, None]
        h *= a_t
        h += inj
        yield h


def _selective_scan(delta: Tensor, a_cont: Tensor, b: Tensor, c: Tensor, y: Tensor, chunk) -> Tensor:
    """One graph node: ZOH discretization, the scan and the readout.

    delta [N, T, Dp], a_cont [Dp, W], b and c [N, T, W], y [N, T, Dp].
    ``chunk`` None or covering T streams the forward one [N, Dp, W] time
    slice at a time and builds no [N, T, Dp, W] array; anything shorter
    discretizes over whole arrays and runs ``_scan_states_chunked``.

    Both forwards share one backward, which keeps nothing of shape
    [N, T, Dp, W] from the forward.  It recomputes the states into one such
    array and runs the adjoint in reverse time in place,
    lam_t = a_{t+1}*lam_{t+1} + g_t*c_t, writing the delta, y and B
    gradients slice by slice.  The C and A gradients reduce over n and t
    with einsums, over the states and, for A, over gu (written over the
    states once they are consumed) and gb*b_bar.
    """
    _check_scan_inputs(a_cont.data, b.data, delta.data, c.data, y.data)
    n, t, dp = delta.shape
    dtype = np.result_type(a_cont.data, b.data, c.data, y.data, delta.data)
    if chunk is None or chunk >= t:
        out = np.empty((n, t, dp), dtype=dtype)
        for i, h in enumerate(_stream_states(a_cont.data, b.data, y.data, delta.data)):
            out[:, i] = np.einsum("nw,ndw->nd", c.data[:, i], h)
    else:
        a_bar, inj = _zoh(a_cont.data, delta.data)
        inj *= b.data[:, :, None, :]
        inj *= y.data[..., None]
        out = np.einsum("ntw,ntdw->ntd", c.data, _scan_states_chunked(a_bar, inj, chunk))

    def backward(g):
        a, dl, bd, yd = a_cont.data, delta.data, b.data, y.data
        hs = np.empty((n, t, dp, a.shape[-1]), dtype=dtype)
        for i, h in enumerate(_stream_states(a, bd, yd, dl)):
            hs[:, i] = h
        if c.requires_grad:
            c._accumulate(np.einsum("ntd,ntdw->ntw", g, hs), owned=True)
        grad_y = np.empty((n, t, dp), dtype=dtype)
        grad_b = np.empty((n, t, bd.shape[-1]), dtype=dtype)
        grad_delta = np.empty((n, t, dp), dtype=dtype)
        gbb = np.empty_like(hs)
        lam = np.zeros_like(hs[:, 0])
        for i in range(t - 1, -1, -1):
            lam += g[:, i, :, None] * c.data[:, i, None, :]
            a_t, q = _zoh(a, dl[:, i])
            b_bar = q * bd[:, i, None, :]
            grad_y[:, i] = np.einsum("ndw,ndw->nd", lam, b_bar)
            # ga = lam*h_{t-1} and gb = lam*y are the gradients of a_bar and
            # b_bar; chain them through the ZOH with d a_bar/d delta = A*a_bar,
            # d q/d delta = a_bar and d q/d A = (delta*a_bar - q)/A, where
            # b_bar = q*B.  gu = (ga + gb*B/A)*a_bar collects the common factor.
            gb = lam * yd[:, i, :, None]
            grad_b[:, i] = np.einsum("ndw,ndw->nw", gb, q)
            gu = gb * bd[:, i, None, :]
            gu /= a
            if i:  # ga_0 = 0, as h_{-1} = 0
                gu += lam * hs[:, i - 1]
            gu *= a_t
            grad_delta[:, i] = np.einsum("ndw,dw->nd", gu, a)
            hs[:, i] = gu  # h_t was last read at step t + 1
            np.multiply(gb, b_bar, out=gbb[:, i])
            lam *= a_t  # lam_{t-1} starts as a_t*lam_t
        for leaf, grad in ((y, grad_y), (b, grad_b), (delta, grad_delta)):
            if leaf.requires_grad:
                leaf._accumulate(grad, owned=True)
        if a_cont.requires_grad:
            grad_a = np.einsum("ntdw,ntd->dw", hs, dl)
            grad_a -= np.einsum("ntdw->dw", gbb) / a
            a_cont._accumulate(grad_a, owned=True)

    return T._make(out, (delta, a_cont, b, c, y), backward)


def selective_scan_sequential(delta: Tensor, a_cont: Tensor, b: Tensor, c: Tensor, y: Tensor) -> Tensor:
    """Reference scan: strict one-step-at-a-time recurrence."""
    return _selective_scan(delta, a_cont, b, c, y, chunk=None)


def selective_scan_parallel(delta: Tensor, a_cont: Tensor, b: Tensor, c: Tensor, y: Tensor,
                            chunk: int) -> Tensor:
    """Chunked scan; mathematically identical to the sequential reference.

    Only the forward differs: it runs ``_scan_states_chunked`` over whole
    [N, T, Dp, W] arrays.  The backward is the sequential op's, so the
    gradients are bit-identical to ``selective_scan_sequential``'s.
    """
    if chunk < 1:
        raise DomainError(f"chunk must be >= 1, got {chunk}")
    return _selective_scan(delta, a_cont, b, c, y, chunk=chunk)


# ---------------------------------------------------------------------------
# the gated selective-SSM block
# ---------------------------------------------------------------------------

class IMambaBlock(Module):
    """Gated selective-scan layer with RMS norm and a residual connection.

    Input and output are [N, T, Dp].  The scanned branch is a width-4 causal
    depthwise conv + SiLU; the gate branch is a plain linear + SiLU; their
    product is projected back to Dp and RMS-normalized (post-norm) before
    the residual is added.

    The selective system has Dp channels and W states.  A is stored as
    -exp(a_log) so it stays strictly negative; the step-size bias p is
    placed so softplus(p) starts log-uniform in [1e-3, 1e-1].  Selection
    projections: w_b/w_c map channels to per-step B/C (with bias, so zero
    weights leave a usable time-invariant system), w_dt maps to a single
    step-size logit broadcast across channels.
    """

    def __init__(self, dp: int, w: int, rng: np.random.Generator, scan_chunk: int = 0):
        super().__init__()
        self.dp = dp
        self.a_log = Parameter(np.tile(np.log(np.arange(1.0, w + 1)), (dp, 1)))
        step = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=dp))
        self.p = Parameter(np.log(np.expm1(step)))
        self.w_b = Linear(dp, w, rng)
        self.w_c = Linear(dp, w, rng)
        self.w_dt = Linear(dp, 1, rng, bias=False)
        self.in_proj_y = Linear(dp, dp, rng)
        self.in_proj_z = Linear(dp, dp, rng)
        self.conv = CausalConv1d(dp, 4, rng)
        self.out_proj = Linear(dp, dp, rng)
        self.norm = RMSNorm(dp)
        self.scan_chunk = scan_chunk

    def a_cont(self) -> Tensor:
        return -T.exp(self.a_log)

    def delta(self, x: Tensor) -> Tensor:
        """softplus(p + broadcast(w_dt(x))) > 0, shape [N, T, Dp]."""
        logit = self.w_dt(x)  # [N, T, 1], broadcast across channels
        return T.softplus(logit + self.p)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.dp:
            raise ShapeError(f"block configured for [N,T,{self.dp}], got {x.shape}")
        y = T.silu(self.conv(self.in_proj_y(x)))
        z = T.silu(self.in_proj_z(x))
        args = (self.delta(x), self.a_cont(), self.w_b(x), self.w_c(x), y)
        if self.scan_chunk > 1:
            s = selective_scan_parallel(*args, self.scan_chunk)
        else:
            s = selective_scan_sequential(*args)
        return self.norm(self.out_proj(s * z)) + x
