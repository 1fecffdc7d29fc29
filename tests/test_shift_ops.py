import numpy as np
import pytest

from simba import tensor as T
from simba.errors import ShapeError
from simba.shift_gcn import (
    FRAME_SHIFT,
    SPATIAL_SHIFT,
    ShiftUnit,
    spatial_shift,
    temporal_shift,
)
from simba.tensor import Tensor


def _offsets(c):
    """u(c) = (c mod 3) - 1: the frame offset of each channel in the temporal shift."""
    return np.arange(c) % 3 - 1


def test_spatial_shift_channel_zero_unchanged():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 4, 3, 5))
    out = spatial_shift(x)
    np.testing.assert_array_equal(out[:, 0], x[:, 0])


def test_spatial_shift_index_oracle():
    # x[0,c,0,v] = v, V=3: channel 1 reads (v+1) mod 3 -> [1, 2, 0]
    x = np.zeros((1, 3, 1, 3))
    x[0, :, 0, :] = np.arange(3)[None, :]
    out = spatial_shift(x)
    np.testing.assert_array_equal(out[0, 1, 0], [1.0, 2.0, 0.0])
    np.testing.assert_array_equal(out[0, 2, 0], [2.0, 0.0, 1.0])


def test_spatial_shift_is_permutation_per_slice():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 5, 4, 7))
    out = spatial_shift(x)
    for n in range(2):
        for t in range(4):
            np.testing.assert_array_equal(
                np.sort(out[n, :, t, :].ravel()), np.sort(x[n, :, t, :].ravel()))


def test_spatial_shift_inverse_recovers_exactly():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 6, 3, 5))
    roundtrip = spatial_shift(spatial_shift(x), inverse=True)
    np.testing.assert_array_equal(roundtrip, x)


def test_shifts_are_linear_maps():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 4, 5, 6))
    y = rng.normal(size=(1, 4, 5, 6))
    alpha, beta = 2.5, -1.25  # exactly representable
    for op in (spatial_shift, temporal_shift):
        lhs = op(alpha * x + beta * y)
        rhs = alpha * op(x) + beta * op(y)
        np.testing.assert_array_equal(lhs, rhs)


def test_shift_maps_reject_bad_input():
    flat = np.zeros((2, 3, 4))
    with pytest.raises(ShapeError, match=r"spatial_shift expects \[N,C,T,V\], got \(2, 3, 4\)"):
        spatial_shift(flat)
    with pytest.raises(ShapeError, match=r"temporal_shift expects \[N,C,T,V\], got \(2, 3, 4\)"):
        temporal_shift(flat)
    with pytest.raises(TypeError):  # the radius is fixed; `inverse` is keyword-only
        temporal_shift(np.zeros((1, 3, 4, 2)), 1)


def test_temporal_shift_index_oracle():
    # offsets per channel are [-1, 0, 1]; x[0,0,t,0] = t+1
    x = np.zeros((1, 3, 3, 1))
    x[0, :, :, 0] = np.arange(1.0, 4.0)[None, :]
    out = temporal_shift(x)
    np.testing.assert_array_equal(out[0, 0, :, 0], [2.0, 3.0, 0.0])  # u=-1 pulls future
    np.testing.assert_array_equal(out[0, 1, :, 0], [1.0, 2.0, 3.0])  # u=0
    np.testing.assert_array_equal(out[0, 2, :, 0], [0.0, 1.0, 2.0])  # u=+1 pulls past


def test_temporal_offsets_pattern():
    # an impulse at frame 1 of every channel lands at frame 1 + u(c)
    x = np.zeros((1, 5, 3, 1))
    x[:, :, 1] = 1.0
    landed = np.argmax(temporal_shift(x)[0, :, :, 0], axis=1) - 1
    np.testing.assert_array_equal(landed, [-1, 0, 1, -1, 0])
    np.testing.assert_array_equal(_offsets(5), landed)


def test_temporal_shift_boundary_mass_accounting():
    rng = np.random.default_rng(5)
    n, c, t, v = 2, 7, 6, 3
    x = rng.normal(size=(n, c, t, v))
    out = temporal_shift(x)
    offsets = _offsets(c)
    lost = 0.0
    for ch, u in enumerate(offsets):
        if u > 0:
            lost += x[:, ch, t - u:, :].sum()  # trailing frames fall off
        elif u < 0:
            lost += x[:, ch, :-u, :].sum()  # leading frames fall off
    assert abs(out.sum() - (x.sum() - lost)) < 1e-10


def test_shift_sgcn_identity_conv_passthrough():
    rng = np.random.default_rng(6)
    block = ShiftUnit(3, 3, rng, SPATIAL_SHIFT, relu=True)
    block.w.data[:] = np.eye(3)
    block.eval()  # running stats are mean 0 / var 1 -> BN ~ identity at eps=0
    block.eps = 0.0
    x = rng.normal(size=(2, 3, 4, 5))
    expected = np.maximum(spatial_shift(x), 0.0)
    np.testing.assert_allclose(block(Tensor(x)).data, expected, atol=1e-12)


def test_shift_sgcn_encoder_shape_contract():
    rng = np.random.default_rng(7)
    block = ShiftUnit(216, 108, rng, SPATIAL_SHIFT, relu=True)
    x = Tensor(rng.normal(size=(2, 216, 64, 25)))
    assert block(x).shape == (2, 108, 64, 25)


def test_shift_sgcn_output_nonnegative():
    rng = np.random.default_rng(8)
    block = ShiftUnit(4, 6, rng, SPATIAL_SHIFT, relu=True)
    out = block(Tensor(rng.normal(size=(2, 4, 5, 3))))
    assert np.all(out.data >= 0.0)


def test_shift_sgcn_channel_mismatch():
    rng = np.random.default_rng(9)
    block = ShiftUnit(4, 6, rng, SPATIAL_SHIFT, relu=True)
    with pytest.raises(ShapeError):
        block(Tensor(np.zeros((1, 5, 2, 2))))


def test_shift_tcn_shape_preserving():
    rng = np.random.default_rng(10)
    block = ShiftUnit(216, 216, rng, FRAME_SHIFT, relu=False)
    x = Tensor(rng.normal(size=(2, 216, 64, 25)))
    assert block(x).shape == (2, 216, 64, 25)


def test_shift_tcn_identity_configuration():
    rng = np.random.default_rng(11)
    block = ShiftUnit(3, 3, rng, None, relu=False)
    block.w.data[:] = np.eye(3)
    block.eval()
    block.eps = 0.0
    x = rng.normal(size=(2, 3, 4, 5))
    np.testing.assert_allclose(block(Tensor(x)).data, x, atol=1e-12)


def test_unit_tcn_maps_channels():
    rng = np.random.default_rng(12)
    block = ShiftUnit(3, 8, rng, None, relu=True)
    out = block(Tensor(rng.normal(size=(2, 3, 4, 5))), skip=Tensor(rng.normal(size=(2, 8, 4, 5))))
    assert out.shape == (2, 8, 4, 5) and np.all(out.data >= 0.0)


def test_blocks_differentiable_end_to_end():
    rng = np.random.default_rng(13)
    block = ShiftUnit(3, 4, rng, SPATIAL_SHIFT, relu=True)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    block(x).sum().backward()
    assert x.grad is not None and np.all(np.isfinite(x.grad))
    for name, p in block.named_parameters():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name


def _spatial_loop(x, inverse=False):
    """Per-element oracle: out[n,c,t,v] = x[n,c,t,(v ± c) mod V]."""
    n, c, t, v = x.shape
    out = np.empty_like(x)
    for ni in range(n):
        for ci in range(c):
            for ti in range(t):
                for vi in range(v):
                    src = (vi - ci) % v if inverse else (vi + ci) % v
                    out[ni, ci, ti, vi] = x[ni, ci, ti, src]
    return out


def _temporal_loop(x):
    """Per-element oracle: out[n,c,t,v] = x[n,c,t-u(c),v], zero outside [0, T)."""
    n, c, t, v = x.shape
    out = np.zeros_like(x)
    for ci, u in enumerate(_offsets(c)):
        for ti in range(t):
            if 0 <= ti - u < t:
                out[:, ci, ti, :] = x[:, ci, ti - u, :]
    return out


def _gather_spatial(arr, inverse):
    """The broadcast fancy-index gather the slice-copy spatial shift replaced."""
    n, c, t, v = arr.shape
    chans, verts = np.arange(c)[:, None], np.arange(v)[None, :]
    vmap = (verts - chans) % v if inverse else (verts + chans) % v
    return arr[:, np.arange(c)[:, None, None], np.arange(t)[None, :, None], vmap[:, None, :]]


def _gather_temporal(arr, negate):
    """The padded-frame gather the slice-copy temporal shift replaced."""
    n, c, t, v = arr.shape
    offsets = -_offsets(c) if negate else _offsets(c)
    src = np.arange(t)[None, :] - offsets[:, None]
    tmap = np.where((src >= 0) & (src < t), src, t)
    padded = np.concatenate([arr, np.zeros((n, c, 1, v), dtype=arr.dtype)], axis=2)
    return padded[:, np.arange(c)[:, None, None], tmap[:, :, None], np.arange(v)[None, None, :]]


def _spatial_pair(inverse):
    return SPATIAL_SHIFT[::-1] if inverse else SPATIAL_SHIFT


def _forward_backward(pair, x, g):
    """The shift of x and its adjoint applied to g."""
    return pair[0](x), pair[1](g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("shape", [(2, 7, 3, 3), (1, 3, 2, 5), (2, 1, 4, 5), (1, 12, 2, 4)])
def test_spatial_shift_matches_loop_oracle(shape, inverse, dtype):
    rng = np.random.default_rng(20)
    x = rng.normal(size=shape).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    out, grad = _forward_backward(_spatial_pair(inverse), x, g)
    assert out.dtype == dtype and grad.dtype == dtype
    np.testing.assert_array_equal(out, _spatial_loop(x, inverse))
    np.testing.assert_array_equal(grad, _spatial_loop(g, not inverse))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 7, 5, 3), (1, 1, 4, 2), (2, 7, 1, 3), (1, 5, 2, 3)])
def test_temporal_shift_matches_loop_oracle(shape, dtype):
    rng = np.random.default_rng(21)
    x = rng.normal(size=shape).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    out, grad = _forward_backward(FRAME_SHIFT, x, g)
    assert out.dtype == dtype and grad.dtype == dtype
    expected = _temporal_loop(x)
    np.testing.assert_array_equal(out, expected)
    # the adjoint is the same shift with negated offsets: flip time, shift, flip back
    np.testing.assert_array_equal(grad, _temporal_loop(g[:, :, ::-1])[:, :, ::-1])
    # channels whose offset reaches past the window (T = 1) come out zero in every frame
    far = np.abs(_offsets(shape[1])) >= shape[2]
    assert np.all(out[:, far] == 0) and np.all(grad[:, far] == 0)


@pytest.mark.parametrize("op", ["spatial", "spatial_inverse", "temporal"])
def test_shift_adjoint_identity(op):
    rng = np.random.default_rng(22)
    shape = (2, 11, 6, 4)
    x, y = rng.normal(size=shape), rng.normal(size=shape)
    pair = {"spatial": _spatial_pair(False),
            "spatial_inverse": _spatial_pair(True),
            "temporal": FRAME_SHIFT}[op]
    out, back = _forward_backward(pair, x, y)
    assert abs(np.vdot(out, y) - np.vdot(x, back)) <= 1e-12 * np.sum(np.abs(x * back))


def test_shifts_equal_the_gather_at_ntu60_shape():
    rng = np.random.default_rng(23)
    shape = (2, 216, 64, 25)
    x = rng.normal(size=shape).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    for inverse in (False, True):
        out, grad = _forward_backward(_spatial_pair(inverse), x, g)
        assert np.array_equal(out, _gather_spatial(x, inverse))
        assert np.array_equal(grad, _gather_spatial(g, not inverse))
    out, grad = _forward_backward(FRAME_SHIFT, x, g)
    assert np.array_equal(out, _gather_temporal(x, negate=False))
    assert np.array_equal(grad, _gather_temporal(g, negate=True))


def _op_nodes(out):
    return sum(1 for node in T._toposort(out) if node._backward is not None)


@pytest.mark.parametrize("make,expected", [
    (lambda rng: ShiftUnit(4, 6, rng, SPATIAL_SHIFT, relu=True), 1),  # shift, conv, bn, relu fused
    (lambda rng: ShiftUnit(4, 4, rng, FRAME_SHIFT, relu=False), 1),  # shift, conv, bn fused
], ids=["sgcn", "tcn"])
def test_shift_blocks_record_one_node_per_op(make, expected):
    rng = np.random.default_rng(24)
    block = make(rng)
    x = Tensor(rng.normal(size=(2, 4, 5, 3)), requires_grad=True)
    assert _op_nodes(block(x)) == expected
    with T.no_grad():
        assert _op_nodes(block(x)) == 0


def _held_arrays(out):
    """Every array the node's backward closure holds, parents' data excluded."""
    held = []
    for cell in out._backward.__closure__ or ():
        value = cell.cell_contents  # raises on a cell left unbound by either branch
        if isinstance(value, Tensor) and value not in out._parents:
            value = value.data
        if isinstance(value, np.ndarray):
            held.append(value)
    return held


def test_shift_sgcn_node_keeps_no_shifted_input():
    # the backward re-runs the shift instead of keeping the shifted copy in
    # any layout; Cin != Cout keeps x̂ and the output apart by size
    rng = np.random.default_rng(25)
    block = ShiftUnit(4, 6, rng, SPATIAL_SHIFT, relu=True)
    x = Tensor(rng.normal(size=(2, 4, 5, 3)), requires_grad=True)
    out = block(x)
    assert _op_nodes(out) == 1
    params = (block.w, block.gamma, block.beta)
    assert out._parents == (x, *params)
    held = [a.shape for a in _held_arrays(out)]
    assert held and all(np.prod(shape) != x.size for shape in held), held


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_shift_unit_node_keeps_no_float_array_of_the_output_size(training):
    # train mode writes the output over x̂ and its backward rebuilds x̂ from
    # the re-run shift; eval mode folds batch-norm into the conv.  So besides
    # the output buffer itself (which the returned tensor owns) neither mode
    # holds anything of the output's size
    rng = np.random.default_rng(27)
    block = ShiftUnit(4, 6, rng, SPATIAL_SHIFT, relu=True)
    block.running_mean[:] = rng.normal(size=6)
    block.running_var[:] = 0.5 + rng.random(6)
    block.train(training)
    x = Tensor(rng.normal(size=(2, 4, 5, 3)), requires_grad=True)
    out = block(x)
    assert _op_nodes(out) == 1
    held = _held_arrays(out)
    assert any(np.shares_memory(a, out.data) for a in held)  # the walk sees output-sized arrays
    extra = [a for a in held if a.size == out.size and not np.shares_memory(a, out.data)]
    assert not extra, [a.shape for a in extra]


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_decoder_unit_keeps_only_a_bool_relu_mask(training):
    # the skip added after the ReLU hides the mask in the output, so the node
    # keeps it as a bool array, and no float array of the output's size
    rng = np.random.default_rng(29)
    block = ShiftUnit(4, 6, rng, SPATIAL_SHIFT, relu=True)
    block.train(training)
    x = Tensor(rng.normal(size=(2, 4, 5, 3)), requires_grad=True)
    skip = Tensor(rng.normal(size=(2, 6, 5, 3)), requires_grad=True)
    out = block(x, post_skip=skip)
    assert _op_nodes(out) == 1 and out._parents[-1] is skip
    extra = [a.dtype for a in _held_arrays(out) if a.size == out.size and not np.shares_memory(a, out.data)]
    assert list(map(str, extra)) == ["bool"], extra


def _unit_keeping_xhat(x, w, gamma, beta, running_mean, running_var, shift, relu, skip, post_skip, g,
                       eps=1e-5):
    """A train-mode unit that keeps x̂ beside its output: (output, {name: gradient}).

    The arithmetic of ``tensor.shift_conv_bn`` before its backward rebuilt
    x̂, operation for operation, with the running arrays updated in place.
    """
    n, ci, t, v = x.shape
    co, count = w.shape[0], n * t * v
    xs = (x if shift is None else shift[0](x)).reshape(n, ci, t * v)
    xhat = np.matmul(w, xs)
    mean = xhat.mean(axis=(0, 2))
    xhat -= mean[:, None]
    var = (xhat * xhat).mean(axis=(0, 2))
    inv = 1.0 / np.sqrt(var + eps)
    running_mean *= 1.0 - T.BN_MOMENTUM
    running_mean += T.BN_MOMENTUM * mean
    running_var *= 1.0 - T.BN_MOMENTUM
    running_var += T.BN_MOMENTUM * var * count / (count - 1)
    xhat *= inv[:, None]
    out = xhat * gamma[:, None]
    out += beta[:, None]
    if skip is not None:
        out += skip.reshape(n, co, t * v)
    if relu:
        np.maximum(out, 0, out=out)
    mask = out > 0
    if post_skip is not None:
        out += post_skip.reshape(n, co, t * v)
    grads = {}
    g = g.reshape(n, co, t * v)
    if post_skip is not None:
        grads["post_skip"] = g.reshape(post_skip.shape)
    if relu:
        g = g * mask
    if skip is not None:
        grads["skip"] = g.reshape(skip.shape)
    sum_g = g.sum(axis=(0, 2))
    sum_gx = np.einsum("nck,nck->c", g, xhat)
    gz = g - (sum_g / count)[:, None]
    gz -= xhat * (sum_gx / count)[:, None]
    gz *= (gamma * inv)[:, None]
    gx = np.matmul(w.T, gz).reshape(x.shape)
    grads.update(x=gx if shift is None else shift[1](gx), w=T._pointwise_weight_grad(gz, xs),
                 gamma=sum_gx, beta=sum_g)
    return out.reshape(n, co, t, v), grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci,co,shift,relu,skip,post_skip", [
    (5, 7, SPATIAL_SHIFT, True, False, False),   # encoder unit
    (7, 5, SPATIAL_SHIFT, True, False, True),    # decoder unit
    (3, 3, FRAME_SHIFT, False, False, False),    # T-GCN
    (5, 5, None, True, True, False),             # module exit
    (3, 5, FRAME_SHIFT, False, True, True),      # both skips, no ReLU
    (7, 3, None, True, True, True),
], ids=["encoder", "decoder", "tcn", "exit", "skips", "skips_relu"])
def test_train_unit_equals_a_unit_keeping_xhat(ci, co, shift, relu, skip, post_skip, dtype):
    # the backward rebuilds x̂ with the forward's own operations in its order,
    # so every output, running statistic and gradient is bit-identical
    rng = np.random.default_rng(30)
    shape = (3, ci, 5, 7)
    x = rng.normal(size=shape).astype(dtype)
    w = rng.normal(size=(co, ci)).astype(dtype)
    gamma, beta = (1.0 + rng.normal(size=co)).astype(dtype), rng.normal(size=co).astype(dtype)
    skips = {name: rng.normal(size=(3, co, 5, 7)).astype(dtype) if use else None
             for name, use in (("skip", skip), ("post_skip", post_skip))}
    g = rng.normal(size=(3, co, 5, 7)).astype(dtype)
    stats = [rng.normal(size=co).astype(dtype), (0.5 + rng.random(co)).astype(dtype)]
    ref_stats = [a.copy() for a in stats]
    ref_out, ref_grads = _unit_keeping_xhat(x, w, gamma, beta, *ref_stats, shift, relu,
                                            skips["skip"], skips["post_skip"], g)
    leaves = {name: Tensor(a, requires_grad=True) for name, a in
              (("x", x), ("w", w), ("gamma", gamma), ("beta", beta), *skips.items()) if a is not None}
    out = T.shift_conv_bn(leaves["x"], leaves["w"], leaves["gamma"], leaves["beta"], *stats, True,
                          shift, relu, leaves.get("skip"), leaves.get("post_skip"))
    (out * Tensor(g)).sum().backward()  # hands the node g itself: 1·g is exact
    assert out.data.dtype == dtype and np.array_equal(out.data, ref_out)
    assert all(np.array_equal(a, b) for a, b in zip(stats, ref_stats))
    assert sorted(leaves) == sorted(ref_grads)
    for name, leaf in leaves.items():
        assert leaf.grad.dtype == dtype and np.array_equal(leaf.grad, ref_grads[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "no_relu"])
@pytest.mark.parametrize("shared", ["skip_is_x", "post_skip_is_x", "skip_is_post_skip"])
def test_gradients_handed_on_equal_a_copying_reference(shared, relu, dtype):
    # the backward hands its own gradient to post_skip and the masked one to
    # skip instead of copying them, and masks in place when it may; a tensor
    # in two roles still gets the sum of both, bit for bit
    rng = np.random.default_rng(33)
    shape = (3, 5, 4, 7)
    x, s, g = (rng.normal(size=shape).astype(dtype) for _ in range(3))
    w = rng.normal(size=(5, 5)).astype(dtype)
    gamma, beta = (1.0 + rng.normal(size=5)).astype(dtype), rng.normal(size=5).astype(dtype)
    roles = {"skip_is_x": (x, None), "post_skip_is_x": (None, x), "skip_is_post_skip": (s, s)}[shared]
    _, ref = _unit_keeping_xhat(x, w, gamma, beta, np.zeros(5, dtype), np.ones(5, dtype),
                                SPATIAL_SHIFT, relu, *roles, g)
    leaves = {"x": Tensor(x, requires_grad=True), "s": Tensor(s, requires_grad=True)}
    skip, post_skip = (None if a is None else leaves["x" if a is x else "s"] for a in roles)
    out = T.shift_conv_bn(leaves["x"], Tensor(w), Tensor(gamma), Tensor(beta), np.zeros(5, dtype),
                          np.ones(5, dtype), True, SPATIAL_SHIFT, relu, skip, post_skip)
    (out * Tensor(g)).sum().backward()
    want = {"x": ref["x"], "s": None}
    if shared == "skip_is_post_skip":
        want["s"] = ref["skip"] + ref["post_skip"]
    else:
        want["x"] = ref["x"] + ref[shared[:-len("_is_x")]]
    for name, leaf in leaves.items():
        if want[name] is None:
            assert leaf.grad is None, name
        else:
            assert leaf.grad.dtype == dtype and np.array_equal(leaf.grad, want[name]), name


def test_eval_backward_reruns_the_shift_only_for_a_parameter_gradient():
    # x's gradient needs only Wᵀ·gz; the shift is re-run for dW or dγ alone
    rng = np.random.default_rng(31)
    calls = []
    shift = (lambda a: calls.append(1) or SPATIAL_SHIFT[0](a), SPATIAL_SHIFT[1])
    block = ShiftUnit(4, 6, rng, shift, relu=True)
    block.eval()
    for frozen, reruns in (((), 1), (("w",), 1), (("gamma",), 1), (("w", "gamma"), 0)):
        for name in ("w", "gamma"):
            getattr(block, name).requires_grad = name not in frozen
        calls.clear()
        x = Tensor(rng.normal(size=(2, 4, 5, 3)), requires_grad=True)
        block(x).sum().backward()
        assert len(calls) == 1 + reruns and x.grad is not None, frozen


def test_eval_unit_under_no_grad_records_nothing_and_keeps_running_stats():
    rng = np.random.default_rng(28)
    block = ShiftUnit(6, 6, rng, FRAME_SHIFT, relu=False)
    block.running_mean[:] = rng.normal(size=6)
    block.running_var[:] = 0.5 + rng.random(6)
    block.eval()
    before = (block.running_mean.tobytes(), block.running_var.tobytes())
    x = Tensor(rng.normal(size=(2, 6, 5, 3)), requires_grad=True)
    with T.no_grad():
        out = block(x)
    assert out._backward is None and out._parents == () and not out.requires_grad
    assert (block.running_mean.tobytes(), block.running_var.tobytes()) == before
