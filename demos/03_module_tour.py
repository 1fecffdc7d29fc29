"""Shape walkthrough of one full module at the published preset sizes.

Run from the repo root:  python3 demos/03_module_tour.py
"""

import numpy as np

from simba import SimbaModel, Tensor, no_grad
from simba.model import SimbaModule
from simba.nn import trace_shapes

print("=== 25-joint preset: channels 216, bottleneck 20, window 64 ===")
rng = np.random.default_rng(0)
module = SimbaModule(3, 216, 20, 25, 16, rng, scan_chunk=16)
module.eval()
with no_grad():
    trace = trace_shapes(module, Tensor(np.random.default_rng(1).normal(size=(2, 3, 64, 25))))
# the module's own blocks: traced paths with no traced ancestor but the module
blocks = [p for p in trace if p and not any(p.startswith(q + ".") for q in trace if q)]
print(f"  {'module':>8s}: {trace[''][0]} -> {trace[''][1]}")
for path in blocks:
    print(f"  {path:>8s}: {trace[path][0]} -> {trace[path][1]}")
print("the encoder halves channels twice then drops to 20 so each frame")
print("flattens to a 25*20 = 500-wide embedding for the temporal core;")
print("each decoder output is summed with the matching encoder skip.")

print("\n=== 20-joint preset: bottleneck 25 keeps the same 500-wide core ===")
module = SimbaModule(3, 216, 25, 20, 16, np.random.default_rng(0), scan_chunk=16)
module.eval()
with no_grad():
    trace = trace_shapes(module, Tensor(np.random.default_rng(2).normal(size=(2, 3, 52, 20))))
print(f"  flatten: {trace['imamba'][0]}, output: {trace[''][1]}")

print("\n=== stacking and the ablation ===")
full = SimbaModel(in_channels=3, channels=32, mamba_d=4, vertices=8, ssm_w=8,
                  depth=2, num_classes=4, rng=np.random.default_rng(3))
frozen = SimbaModel(in_channels=3, channels=32, mamba_d=4, vertices=8, ssm_w=8,
                    depth=2, num_classes=4, rng=np.random.default_rng(3),
                    with_imamba=False)
for module in frozen.modules_:
    module.tcn.shift = None  # freeze the temporal shift
print(f"toy model parameters:          {full.num_params()}")
print(f"no scan core (same channels):  {frozen.num_params()}")

x = np.random.default_rng(4).normal(size=(2, 3, 12, 8))
full.eval()
frozen.eval()
with no_grad():
    fwd = full(Tensor(x)).data
    rev = full(Tensor(x[:, :, ::-1, :].copy())).data
    print(f"frame reversal moves the full model's logits by "
          f"{np.max(np.abs(fwd - rev)):.3e} (frame order matters)")
    awd = frozen(Tensor(x)).data
    arev = frozen(Tensor(x[:, :, ::-1, :].copy())).data
    print(f"with the scan core removed and temporal shifts frozen the move is "
          f"{np.max(np.abs(awd - arev)):.3e}:")
    print("every remaining op is per-frame, so under the global average pool")
    print("the model cannot see frame order at all.")
