"""Whole-model gradient oracle: two train steps of a small float64 model, once
with the fused ops and once with the composites they replaced.

Fan-out is where a graph rewrite can go wrong without any one op's test
seeing it: the module input feeds the entry and residual units, and each
U-Net skip feeds an encoder unit and a decoder unit.  Every parameter
gradient and batch-norm buffer of both steps must agree, and a central
difference of the whole loss along one random direction must agree with
the fused gradients.
"""

import numpy as np

from composites import (
    cross_entropy_composite,
    partition_gate_composite,
    selective_scan_composite,
    shift_conv_bn_composite,
)
from simba import ssm
from simba import tensor as T
from simba.gradcheck import BLOCK_EPS, BLOCK_TOL, relative_error
from simba.model import SimbaModel
from simba.tensor import Tensor
from simba.train import SGD

SEED = 1515
ORACLE_TOL = 1e-10
N, T_FRAMES, V = 3, 8, 6


def _model():
    labels = np.zeros((V, 2))
    labels[np.arange(V), [0, 0, 0, 1, 1, 1]] = 1.0  # two partition groups
    return SimbaModel(in_channels=3, channels=8, mamba_d=2, vertices=V, ssm_w=3, depth=2,
                      num_classes=4, rng=np.random.default_rng(SEED), partition_labels=labels)


def _batches():
    rng = np.random.default_rng(SEED + 1)
    return [(rng.normal(size=(N, 3, T_FRAMES, V)), rng.integers(0, 4, size=N)) for _ in range(2)]


def _two_steps(loss_fn):
    """{"step<i>/param|buffer/<name>": array} after each of two SGD steps' backward."""
    model = _model()
    opt = SGD(model.named_parameters(), weight_decay=1e-4)
    arrays = {}
    for step, (x, y) in enumerate(_batches()):
        opt.zero_grad()
        loss_fn(model(Tensor(x)), y).backward()
        arrays.update((f"step{step}/param/{name}", p.grad.copy()) for name, p in model.named_parameters())
        arrays.update((f"step{step}/buffer/{name}", b.copy()) for name, b in model.named_buffers())
        opt.step(0.05)
    return arrays


def test_fused_train_steps_match_the_composites(monkeypatch):
    fused = _two_steps(T.cross_entropy_logits)
    with monkeypatch.context() as m:
        m.setattr(T, "shift_conv_bn", shift_conv_bn_composite)
        m.setattr(T, "partition_gate", partition_gate_composite)
        m.setattr(ssm, "selective_scan_sequential", selective_scan_composite)
        composite = _two_steps(cross_entropy_composite)
    assert fused.keys() == composite.keys()
    assert len(fused) > 100 and any("/buffer/" in name for name in fused)
    errors = {name: relative_error(fused[name], composite[name]) for name in fused}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= ORACLE_TOL, f"{worst}: relative error {errors[worst]:.3e}"


def test_whole_loss_matches_a_central_difference_along_a_random_direction():
    model = _model()
    params = model.parameters()
    x, y = _batches()[0]

    def loss():
        return T.cross_entropy_logits(model(Tensor(x)), y)

    loss().backward()
    rng = np.random.default_rng(SEED + 2)
    direction = [rng.normal(size=p.shape) for p in params]
    scale = 1.0 / np.sqrt(sum(np.vdot(d, d) for d in direction))
    direction = [d * scale for d in direction]
    analytic = sum(np.vdot(p.grad, d) for p, d in zip(params, direction))
    start = [p.data.copy() for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, p0, d in zip(params, start, direction):
            p.data = p0 + sign * BLOCK_EPS * d
        values.append(loss().item())
    numeric = (values[0] - values[1]) / (2 * BLOCK_EPS)
    err = relative_error(np.array([analytic]), np.array([numeric]))
    assert err <= BLOCK_TOL, (analytic, numeric, err)
