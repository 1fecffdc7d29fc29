"""Tour of the state-space core: discretization, scans, and the LTI duality.

Run from the repo root:  python3 demos/01_discretization_and_scans.py
"""

import numpy as np

from simba import (
    Tensor,
    lti_conv,
    lti_kernel,
    selective_scan_parallel,
    selective_scan_sequential,
    zoh_discretize,
)

print("=== zero-order hold discretization ===")
# A continuous decay A=-1 sampled with step log(2) halves the state each
# step: a_bar = exp(delta*A) = 0.5, and the held input integrates to 0.5.
a_bar, b_bar = zoh_discretize(np.full((1, 1), -1.0), np.ones((1, 1, 1)),
                              np.full((1, 1, 1), np.log(2.0)))
print(f"A=-1, delta=ln2, B=1  ->  a_bar={a_bar.ravel()[0]:.6f}, "
      f"b_bar={b_bar.ravel()[0]:.6f}")

# b_bar is exactly the integral of exp(s*A)*B over one step; cross-check
# against a trapezoid quadrature.
s = np.linspace(0.0, np.log(2.0), 100_001)
quad = np.trapezoid(np.exp(-s), s)
print(f"quadrature of exp(s*A)*B over the step: {quad:.8f} (matches b_bar)")

print("\n=== the recurrence, unrolled by hand ===")
# The scan takes the continuous system (delta, A, B), the readout C and the
# input y, and discretizes inside.  With the system above,
# h_t = 0.5*h_{t-1} + 0.5*y_t and y = 1,1,1 give 0.5, 0.75, 0.875.
ones = Tensor(np.ones((1, 3, 1)))
out = selective_scan_sequential(Tensor(np.full((1, 3, 1), np.log(2.0))),
                                Tensor(np.full((1, 1), -1.0)), ones, ones, ones)
print("scan output:", out.data.ravel())

print("\n=== chunked scan equals the sequential reference ===")
rng = np.random.default_rng(0)
n, t, dp, w = 2, 96, 4, 8
args = (Tensor(0.05 + rng.random((n, t, dp))),   # delta > 0
        Tensor(-(0.2 + rng.random((dp, w)))),    # A < 0
        Tensor(rng.normal(size=(n, t, w))),      # B
        Tensor(rng.normal(size=(n, t, w))),      # C
        Tensor(rng.normal(size=(n, t, dp))))     # y
ref = selective_scan_sequential(*args).data
for chunk in (1, 3, 16, t):
    diff = np.max(np.abs(selective_scan_parallel(*args, chunk).data - ref))
    print(f"chunk {chunk:>3}: max |parallel - sequential| = {diff:.2e}")

print("\n=== time-invariant systems collapse to a convolution ===")
# With constant coefficients the recurrence output equals a causal
# convolution with the kernel (C b_bar, C a_bar b_bar, C a_bar^2 b_bar, ...).
w_states = 3
a = -np.exp(rng.uniform(-1.0, 1.0, size=w_states))
b = rng.normal(size=w_states)
c = rng.normal(size=w_states)
delta, m = 0.3, 24
kernel = lti_kernel(a, b, c, delta, m)
signal = rng.normal(size=m)
conv_out = lti_conv(signal, kernel)

scan_out = selective_scan_sequential(
    Tensor(np.full((1, m, 1), delta)), Tensor(a.reshape(1, w_states)),
    Tensor(np.broadcast_to(b, (1, m, w_states)).copy()),
    Tensor(np.broadcast_to(c, (1, m, w_states)).copy()),
    Tensor(signal.reshape(1, m, 1))).data.ravel()
print(f"kernel head: {np.round(kernel[:4], 4)}")
print(f"max |conv - recurrence| = {np.max(np.abs(conv_out - scan_out)):.2e}")

print("\n=== gradients flow through the scan ===")
# One graph node: its backward recomputes the discretized coefficients and
# the states, and returns the gradients of all five inputs.
leaves = [Tensor(x.data, requires_grad=True) for x in args]
out = selective_scan_sequential(*leaves)
print("graph parents of the scan output:", len(out._parents))
out.sum().backward()  # consumes the graph; the leaves keep their grads
for name, leaf in zip(("delta", "A", "B", "C", "y"), leaves):
    print(f"d loss / d {name:<5} has shape {leaf.grad.shape}")
