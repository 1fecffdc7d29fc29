"""How the shift units mix information without real graph convolutions.

Run from the repo root:  python3 demos/02_shift_blocks.py
"""

import numpy as np

from simba import ShiftUnit, Tensor, spatial_shift, temporal_shift
from simba import tensor as T
from simba.shift_gcn import FRAME_SHIFT, SPATIAL_SHIFT

print("=== spatial shift: channel c rotates the joint axis by c ===")
# one frame, 4 channels, 5 joints; values encode the joint index
x = np.zeros((1, 4, 1, 5))
x[0, :, 0, :] = np.arange(5)[None, :]
shifted = spatial_shift(x)
for c in range(4):
    print(f"channel {c}: {x[0, c, 0].astype(int)} -> {shifted[0, c, 0].astype(int)}")
print("every row is a rotation; a following 1x1 conv therefore sees a")
print("different joint's feature in every channel - that is the whole trick.")

restored = spatial_shift(spatial_shift(x), inverse=True)
print("inverse shift restores the input exactly:", np.array_equal(restored, x))

print("\n=== temporal shift: channels slide along the frame axis ===")
x = np.zeros((1, 3, 4, 1))
x[0, :, :, 0] = np.arange(1.0, 5.0)[None, :]
print("fixed offsets u(c) = (c mod 3) - 1 (radius 1, the recipe's):", np.arange(3) % 3 - 1)
shifted = temporal_shift(x)
for c in range(3):
    print(f"channel {c}: {x[0, c, :, 0]} -> {shifted[0, c, :, 0]}  (zeros enter at the edge)")

print("\n=== one unit class, two shifts ===")
rng = np.random.default_rng(0)
sgcn = ShiftUnit(3, 8, rng, SPATIAL_SHIFT, relu=True)
tcn = ShiftUnit(8, 8, rng, FRAME_SHIFT, relu=False)  # the temporal shift and its adjoint
x = Tensor(rng.normal(size=(2, 3, 6, 5)), requires_grad=True)
hidden = sgcn(x)
out = tcn(hidden)
print(f"spatial unit: {x.shape} -> {hidden.shape} (shift, 1x1 conv, BN, ReLU)")
print(f"temporal unit: {hidden.shape} -> {out.shape} (shift, 1x1 conv, BN; "
      "the ReLU waits for the residual sum)")
print("spatial unit output is nonnegative:", bool(np.all(hidden.data >= 0)))


def graph_nodes(t):
    return sum(1 for node in T._toposort(t) if node._backward is not None)


print(f"graph nodes recorded: spatial unit {graph_nodes(hidden)}, "
      f"temporal unit {graph_nodes(out) - graph_nodes(hidden)}")
print("each unit is one node: shift, conv, BN (and ReLU) run fused, and the")
print("backward re-runs the shift instead of keeping the shifted copy.")
