"""Central finite-difference verification of every differentiable piece.

Each check builds a scalar loss (a fixed random projection of the op or
block output), runs reverse-mode backward once, and compares every leaf
gradient against (f(x+h) - f(x-h)) / 2h in float64.  Relative error is
|a - b| / max(|a|, |b|, 1).

Inputs that feed a ReLU directly are resampled away from the kink, where
the derivative is not defined and finite differences are meaningless.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .model import SimbaModule
from .shift_gcn import spatial_shift, temporal_shift
from .ssm import IMambaBlock, selective_scan_parallel, selective_scan_sequential
from .tensor import Tensor

PRIMITIVE_TOL = 1e-6
BLOCK_TOL = 1e-5
EPS = 1e-5
# Composite blocks stack BN over a handful of positions, which makes the
# loss extremely curved; a smaller step keeps the truncation error of the
# difference quotient below the comparison tolerance (roundoff stays ~1e-9).
BLOCK_EPS = 1e-6


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients(loss_fn, leaves: dict, eps: float = EPS) -> float:
    """Worst relative error between backward grads and central differences.

    ``loss_fn`` must rebuild the forward pass from the leaves' current data
    on every call and return a scalar Tensor.
    """
    for leaf in leaves.values():
        leaf.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: (leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data))
                for name, leaf in leaves.items()}
    worst = 0.0
    for name, leaf in leaves.items():
        flat = leaf.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn().item()
            flat[i] = orig - eps
            down = loss_fn().item()
            flat[i] = orig
            numeric[i] = (up - down) / (2 * eps)
        worst = max(worst, relative_error(analytic[name].reshape(-1), numeric))
    return worst


def _away_from_zero(rng, shape, margin: float = 0.1) -> np.ndarray:
    """Sample values whose magnitude stays clear of the ReLU kink."""
    x = rng.normal(size=shape)
    sign = np.where(x >= 0, 1.0, -1.0)
    return x + sign * margin


def _leaf(rng, shape, positive: bool = False) -> Tensor:
    data = np.abs(rng.normal(size=shape)) + 0.2 if positive else rng.normal(size=shape)
    return Tensor(data, requires_grad=True)


def _widest_gap_midpoints(values: np.ndarray) -> np.ndarray:
    """Per row of ``values``, the midpoint of the widest gap between sorted entries."""
    s = np.sort(values, axis=1)
    i = np.argmax(np.diff(s, axis=1), axis=1)
    rows = np.arange(s.shape[0])
    return (s[rows, i] + s[rows, i + 1]) / 2


def _projection(rng, shape) -> Tensor:
    return Tensor(rng.normal(size=shape))


def _project(out: Tensor, proj: Tensor) -> Tensor:
    return (out * proj).sum()


def check_module(module, x: Tensor, rng, forward=None, prefix: str = "") -> float:
    """Check ``forward`` (default: the module itself) with respect to its input
    and the module parameters whose names start with ``prefix``."""
    forward = forward or module
    probe = forward(x)
    proj = _projection(rng, probe.shape)
    leaves = {"input": x}
    leaves.update((name, p) for name, p in module.named_parameters() if name.startswith(prefix))
    return check_gradients(lambda: _project(forward(x), proj), leaves, eps=BLOCK_EPS)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_primitives():
    rng = np.random.default_rng(11)
    checks = []

    def run(name, loss_fn, leaves):
        checks.append((name, check_gradients(loss_fn, leaves), PRIMITIVE_TOL))

    a = _leaf(rng, (2, 3))
    b = _leaf(rng, (2, 3))
    c = _leaf(rng, (3,))
    proj = _projection(rng, (2, 3))
    run("add", lambda: _project(a + b, proj), {"a": a, "b": b})
    run("add_broadcast", lambda: _project(a + c, proj), {"a": a, "c": c})
    run("mul", lambda: _project(a * b, proj), {"a": a, "b": b})
    run("mul_broadcast", lambda: _project(a * c, proj), {"a": a, "c": c})
    den = _leaf(rng, (2, 3), positive=True)
    run("div", lambda: _project(a / den, proj), {"a": a, "den": den})

    m1 = _leaf(rng, (4, 3, 2))
    m2 = _leaf(rng, (2, 5))
    pm = _projection(rng, (4, 3, 5))
    run("matmul", lambda: _project(m1 @ m2, pm), {"m1": m1, "m2": m2})

    pos = _leaf(rng, (2, 4), positive=True)
    p24 = _projection(rng, (2, 4))
    x24 = _leaf(rng, (2, 4))
    run("exp", lambda: _project(T.exp(x24), p24), {"x": x24})
    run("log", lambda: _project(T.log(pos), p24), {"pos": pos})
    run("sqrt", lambda: _project(T.sqrt(pos), p24), {"pos": pos})
    run("silu", lambda: _project(T.silu(x24), p24), {"x": x24})
    xs = Tensor(np.concatenate([rng.normal(size=6), [19.0, 21.0]]), requires_grad=True)
    ps = _projection(rng, (8,))
    run("softplus", lambda: _project(T.softplus(xs), ps), {"x": xs})

    x4 = _leaf(rng, (2, 3, 2, 2))
    pperm = _projection(rng, (2, 2, 3, 2))
    run("permute", lambda: _project(T.permute(x4, (0, 3, 1, 2)) * 1.5, pperm), {"x": x4})
    prs = _projection(rng, (2, 12))
    run("reshape", lambda: _project(T.reshape(x4, (2, 12)) * 1.5, prs), {"x": x4})

    xg = _leaf(rng, (2, 3, 2, 4))

    psum = _projection(rng, (2, 2))
    run("reduce_sum", lambda: _project(xg.sum(axis=(1, 3)), psum), {"x": xg})
    pmean = _projection(rng, (3, 4))
    run("reduce_mean", lambda: _project(xg.mean(axis=(0, 2)), pmean), {"x": xg})

    w = _leaf(rng, (5, 3))
    pc = _projection(rng, (2, 5, 2, 4))

    xc = _leaf(rng, (2, 5, 3))
    wc = _leaf(rng, (3, 4))
    bc = _leaf(rng, (3,))
    pcc = _projection(rng, (2, 5, 3))
    run("causal_conv1d", lambda: _project(T.causal_conv1d_depthwise(xc, wc, bc), pcc),
        {"x": xc, "w": wc, "b": bc})

    def conv_bn(training, shift, relu, skip=None, post_skip=None):
        return lambda: _project(T.shift_conv_bn(xg, w, gamma, beta, rm.copy(), rv.copy(),
                                                training, shift, relu, skip, post_skip), pc)

    gamma = Tensor(0.5 + rng.random(5), requires_grad=True)
    beta = _leaf(rng, (5,))
    rm, rv = np.zeros(5), np.ones(5)
    skip = _leaf(np.random.default_rng(12), pc.shape)  # own stream: the draws below stay put
    # move each channel's ReLU threshold into the widest gap between its
    # pre-activations, so no difference quotient straddles the kink
    with T.no_grad():
        pre = T.shift_conv_bn(xg, w, gamma, beta, rm.copy(), rv.copy(), True, spatial_shift,
                              skip=skip)
    beta.data -= _widest_gap_midpoints(pre.data.transpose(1, 0, 2, 3).reshape(5, -1))
    leaves = {"x": xg, "w": w, "gamma": gamma, "beta": beta}
    run("shift_conv_bn_train_relu", conv_bn(True, spatial_shift, True, skip), dict(leaves, skip=skip))
    post = _leaf(np.random.default_rng(13), pc.shape)  # added after the ReLU: the kinks stay put
    run("shift_conv_bn_post_skip", conv_bn(True, spatial_shift, True, skip, post),
        dict(leaves, skip=skip, post_skip=post))
    run("shift_conv_bn_train", conv_bn(True, temporal_shift, False), leaves)
    rm[:] = rng.normal(size=5)
    rv[:] = 0.5 + rng.random(5)
    run("shift_conv_bn_eval", conv_bn(False, None, False), leaves)

    rng_pg = np.random.default_rng(14)  # own stream: the draws below stay put
    xb = _leaf(rng_pg, (2, 3, 2, 5))
    wb = _leaf(rng_pg, (3, 3))
    bb = _leaf(rng_pg, (3,))
    gate_b = _leaf(rng_pg, (1, 3, 1, 1))
    scatter = np.zeros((2, 5))
    scatter[np.array([0, 0, 1, 1, 1]), np.arange(5)] = 1.0
    pool = np.ascontiguousarray((scatter / scatter.sum(axis=1, keepdims=True)).T)
    pb = _projection(rng_pg, xb.shape)
    run("partition_gate", lambda: _project(T.partition_gate(xb, wb, bb, gate_b, pool, scatter), pb),
        {"x": xb, "w": wb, "b": bb, "gate": gate_b})

    xr = _leaf(rng, (2, 3, 4))
    gr = _leaf(rng, (4,))
    prn = _projection(rng, (2, 3, 4))
    run("rms_norm", lambda: _project(T.rms_norm(xr, gr), prn), {"x": xr, "g": gr})

    logits = _leaf(rng, (3, 5))
    labels = np.array([0, 3, 2])
    run("cross_entropy", lambda: T.cross_entropy_logits(logits, labels), {"logits": logits})
    return checks


def suite_scan():
    rng = np.random.default_rng(23)
    n, t, dp, w = 1, 5, 2, 3
    delta = Tensor(0.05 + rng.random((n, t, dp)), requires_grad=True)
    a_cont = Tensor(-(0.2 + rng.random((dp, w))), requires_grad=True)
    b = _leaf(rng, (n, t, w))
    c = _leaf(rng, (n, t, w))
    y = _leaf(rng, (n, t, dp))
    pout = _projection(rng, (n, t, dp))
    leaves = {"delta": delta, "a": a_cont, "b": b, "c": c, "y": y}
    return [
        ("selective_scan_sequential",
         check_gradients(lambda: _project(selective_scan_sequential(delta, a_cont, b, c, y), pout), leaves),
         PRIMITIVE_TOL),
        ("selective_scan_parallel",
         check_gradients(lambda: _project(selective_scan_parallel(delta, a_cont, b, c, y, 2), pout), leaves),
         PRIMITIVE_TOL),
    ]


def suite_imamba():
    rng = np.random.default_rng(43)
    block = IMambaBlock(6, 3, rng)
    x = _leaf(rng, (1, 4, 6))
    return [("imamba", check_module(block, x, rng), BLOCK_TOL)]


def suite_simba_module():
    rng = np.random.default_rng(53)
    module = SimbaModule(3, 8, 2, 4, 2, rng)
    x = Tensor(_away_from_zero(rng, (1, 3, 3, 4), 0.15), requires_grad=True)
    checks = [("simba_module", check_module(module, x, rng), BLOCK_TOL)]

    xe = Tensor(_away_from_zero(rng, (1, 8, 3, 4), 0.15), requires_grad=True)
    checks.append(("encoder", check_module(module, xe, rng, lambda inp: module.encode(inp)[-1],
                                           prefix="enc."), BLOCK_TOL))

    skips = tuple(Tensor(rng.normal(size=s)) for s in [(1, 8, 3, 4), (1, 4, 3, 4), (1, 2, 3, 4)])
    xd = _leaf(rng, (1, 2, 3, 4))
    checks.append(("decoder", check_module(module, xd, rng, lambda inp: module.decode([*skips, inp]),
                                           prefix="dec."), BLOCK_TOL))
    return checks


SUITES = {
    "primitives": suite_primitives,
    "scan": suite_scan,
    "imamba": suite_imamba,
    "simba_module": suite_simba_module,
}


def run_suites(names=None):
    """Run the requested suites; returns [(suite, check, err, tol)]."""
    results = []
    for suite in names or SUITES:
        for check, err, tol in SUITES[suite]():
            results.append((suite, check, err, tol))
    return results
