import weakref

import numpy as np
import pytest

from simba import tensor as T
from simba.errors import DomainError, GraphConsumedError, ShapeError, ValidationError
from simba.shift_gcn import FRAME_SHIFT, SPATIAL_SHIFT, ShiftUnit
from simba.tensor import Tensor
from simba.train import softmax
from composites import (
    batch_norm2d_composite,
    cross_entropy_composite,
    partition_gate_composite,
    shift_conv_bn_composite,
)


def test_pointwise_conv2d_matches_triple_loop():
    # the 1x1 conv inside the partition gate: one joint per group and a gate
    # of 0 leave only b + sum of w·x
    rng = np.random.default_rng(7)
    n, c, t, v = 2, 3, 4, 5
    x = rng.normal(size=(n, c, t, v))
    w = rng.normal(size=(c, c))
    b = rng.normal(size=c)
    out = T.partition_gate(Tensor(x), Tensor(w), Tensor(b), Tensor(np.zeros((1, c, 1, 1))),
                           np.eye(v), np.eye(v)).data
    ref = np.empty((n, c, t, v))
    for ni in range(n):
        for o in range(c):
            for ti in range(t):
                for vi in range(v):
                    acc = b[o]
                    for i in range(c):
                        acc += w[o, i] * x[ni, i, ti, vi]
                    ref[ni, o, ti, vi] = acc
    assert np.max(np.abs(out - ref)) <= 1e-12


@pytest.mark.parametrize("t, k", [(9, 4), (3, 5)], ids=["k_le_t", "k_gt_t"])
def test_causal_conv1d_depthwise_matches_loop(t, k):
    rng = np.random.default_rng(8)
    n, d = 2, 3
    x, w, b, g = (rng.normal(size=s) for s in ((n, t, d), (d, k), (d,), (n, t, d)))
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    out = T.causal_conv1d_depthwise(*leaves)
    out._backward(g)
    # out[t] = b + sum_j w[:, j] * x[t - (k - 1 - j)], terms before t = 0 dropped
    ref, gx, gw = np.empty_like(x), np.zeros_like(x), np.zeros_like(w)
    for ti in range(t):
        ref[:, ti] = b
        for j in range(k):
            src = ti - (k - 1 - j)
            if src >= 0:
                ref[:, ti] += w[:, j] * x[:, src]
                gx[:, src] += g[:, ti] * w[:, j]
                gw[:, j] += np.sum(g[:, ti] * x[:, src], axis=0)
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)
    for got, want in zip((leaf.grad for leaf in leaves), (gx, gw, g.sum(axis=(0, 1)))):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pointwise_conv2d_shape_error_names_both_shapes():
    # the 1x1 conv's shape check, as the fused shift unit runs it
    x = Tensor(np.zeros((1, 3, 2, 2)))
    w = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"\(1, 3, 2, 2\).*\(4, 5\)"):
        T.shift_conv_bn(x, w, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), True)


def _bn(x, gamma, beta, running_mean, running_var, training, **kw):
    """Batch-norm alone: the fused op with an identity conv, no shift and no ReLU."""
    c = x.shape[1]
    w = Tensor(np.eye(c), requires_grad=True, dtype=x.dtype)
    return T.shift_conv_bn(x, w, gamma, beta, running_mean, running_var, training, **kw)


def test_batchnorm_eval_constant_input_is_zeroed():
    const = np.array([2.0, -1.0, 0.5])
    x = Tensor(np.broadcast_to(const[None, :, None, None], (2, 3, 4, 5)).copy())
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    out = _bn(x, gamma, beta, const.copy(), np.ones(3), training=False, eps=0.0)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_batchnorm_train_normalizes_per_channel():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(2.0, 3.0, size=(4, 3, 5, 6)))
    out = _bn(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
              np.zeros(3), np.ones(3), training=True, eps=0.0)
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    np.testing.assert_allclose(mean, 0.0, atol=1e-6)
    np.testing.assert_allclose(var, 1.0, atol=1e-6)


def test_batchnorm_affine_applies_after_normalization():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)))
    plain = _bn(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                np.zeros(3), np.ones(3), training=True)
    scaled = _bn(x, Tensor(np.full(3, 2.0)), Tensor(np.full(3, 3.0)),
                 np.zeros(3), np.ones(3), training=True)
    np.testing.assert_allclose(scaled.data, 2.0 * plain.data + 3.0, atol=1e-12)


def test_batchnorm_degenerate_batch_rejected():
    x = Tensor(np.zeros((1, 3, 1, 1)))
    with pytest.raises(DomainError):
        _bn(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
            np.zeros(3), np.ones(3), training=True)


def test_batchnorm_running_stats_update():
    rng = np.random.default_rng(5)
    x = rng.normal(1.5, 2.0, size=(4, 2, 3, 3))
    rm, rv = np.zeros(2), np.ones(2)
    _bn(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
        rm, rv, training=True)
    count = 4 * 3 * 3
    np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-12)
    np.testing.assert_allclose(
        rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * count / (count - 1), atol=1e-12)


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_fused_matches_composite_float64(training):
    rng = np.random.default_rng(14)
    x0 = rng.normal(0.7, 1.9, size=(3, 4, 5, 6))
    g0, b0 = rng.normal(size=4), rng.normal(size=4)
    rm0, rv0 = rng.normal(size=4), 0.5 + rng.random(4)
    weights = rng.normal(size=x0.shape)
    results = []
    for op in (_bn, batch_norm2d_composite):
        x = Tensor(x0, requires_grad=True)
        gamma, beta = Tensor(g0, requires_grad=True), Tensor(b0, requires_grad=True)
        rm, rv = rm0.copy(), rv0.copy()
        out = op(x, gamma, beta, rm, rv, training)
        (out * weights).sum().backward()
        results.append((out.data, x.grad, gamma.grad, beta.grad, rm, rv))
    for name, fused, composite in zip(("out", "dx", "dgamma", "dbeta", "running_mean",
                                       "running_var"), *results):
        assert np.max(np.abs(fused - composite)) <= 1e-12, name


UNITS = {
    "spatial_relu": (SPATIAL_SHIFT, True),
    "temporal_r1": (FRAME_SHIFT, False),
    "no_shift": (None, False),
    "residual_exit": (None, True),  # takes a skip: ReLU(BN(conv(x)) + skip)
}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("unit", sorted(UNITS))
def test_shift_conv_bn_matches_composite_float64(unit, training):
    pair, relu = UNITS[unit]
    rng = np.random.default_rng(15)
    n, ci, co, t, v = 2, 7, 5, 6, 4
    x0 = rng.normal(0.3, 1.4, size=(n, ci, t, v))
    w0 = rng.normal(size=(co, ci))
    rng.normal(size=co)  # drawn and unused: keeps the seeded arrays below
    g0, beta0 = rng.normal(size=co), rng.normal(size=co)
    g0[1] = 0.0  # the eval backward recomputes x̂ for dγ rather than dividing by γ
    rm0, rv0 = rng.normal(size=co), 0.5 + rng.random(co)
    weights = rng.normal(size=(n, co, t, v))
    arrays = (x0, w0, g0, beta0)
    if unit == "residual_exit":
        arrays += (rng.normal(size=(n, co, t, v)),)
    results = []
    for fused in (True, False):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        rm, rv = rm0.copy(), rv0.copy()
        unit_fn = T.shift_conv_bn if fused else shift_conv_bn_composite
        out = unit_fn(*leaves[:4], rm, rv, training, pair, relu, *leaves[4:])
        (out * weights).sum().backward()
        results.append((out.data, *(leaf.grad for leaf in leaves), rm, rv))
    names = ("out", "dx", "dw", "dgamma", "dbeta", "dskip")[:len(arrays) + 1]
    for name, fused, composite in zip(names + ("running_mean", "running_var"), *results):
        assert np.max(np.abs(fused - composite)) <= 1e-12, name


@pytest.mark.parametrize("unit", sorted(UNITS))
def test_train_mode_batch_norm_cancels_a_conv_bias_float64(unit):
    # why the unit has no conv bias: the batch mean absorbs it, so the
    # composite with a nonzero bias gives the fused op's output and gradients
    pair, relu = UNITS[unit]
    rng = np.random.default_rng(20)
    n, ci, co, t, v = 2, 7, 5, 6, 4
    arrays = [rng.normal(size=s) for s in ((n, ci, t, v), (co, ci), (co,), (co,))]
    if unit == "residual_exit":
        arrays.append(rng.normal(size=(n, co, t, v)))
    conv_bias = Tensor(rng.normal(size=co))
    weights = rng.normal(size=(n, co, t, v))
    results = []
    for fused in (True, False):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        unit_args = (*leaves[:4], np.zeros(co), np.ones(co), True, pair, relu, *leaves[4:])
        if fused:
            out = T.shift_conv_bn(*unit_args)
        else:
            out = shift_conv_bn_composite(*unit_args, conv_bias=conv_bias)
        (out * weights).sum().backward()
        results.append((out.data, *(leaf.grad for leaf in leaves)))
    for name, fused, composite in zip(("out", "dx", "dw", "dgamma", "dbeta", "dskip"), *results):
        assert np.max(np.abs(fused - composite)) <= 1e-12, name


def test_shift_conv_bn_rejects_a_skip_of_another_shape():
    x, w = np.ones((2, 3, 4, 5)), np.ones((6, 3))
    with pytest.raises(ShapeError, match="skip shape"):
        T.shift_conv_bn(x, w, np.ones(6), np.zeros(6), np.zeros(6), np.ones(6), True,
                        skip=np.ones((2, 3, 4, 5)))


def test_fanout_into_two_shift_units_matches_composite_float64():
    # x feeds two units, so its first gradient is an owned hand-off and the
    # second is added into that array
    rng = np.random.default_rng(17)
    n, ci, co, t, v = 2, 6, 5, 6, 4
    x0 = rng.normal(size=(n, ci, t, v))
    params = [[rng.normal(size=s) for s in ((co, ci), co, co, co)] for _ in range(2)]
    for arrays in params:
        del arrays[1]  # the conv bias: drawn and unused, so the arrays after it stay put
    weights = rng.normal(size=(n, co, t, v))
    grads = []
    for fused in (True, False):
        x = Tensor(x0, requires_grad=True)
        total = 0.0
        for unit, arrays in zip(("spatial_relu", "temporal_r1"), params):
            pair, relu = UNITS[unit]
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            rm, rv = np.zeros(co), np.ones(co)
            if fused:
                out = T.shift_conv_bn(x, *leaves, rm, rv, True, pair, relu)
            else:
                out = shift_conv_bn_composite(x, *leaves, rm, rv, True, pair, relu)
            total = total + (out * weights).sum()
        total.backward()
        grads.append(x.grad)
    assert np.max(np.abs(grads[0] - grads[1])) <= 1e-12


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_shift_conv_bn_post_skip_is_the_unit_plus_a_sum_float32(training):
    # the skip added after the ReLU inside the node gives the same bits as a
    # separate add node, in the output and in every gradient
    rng = np.random.default_rng(19)
    n, ci, co, t, v = 2, 7, 5, 6, 4
    arrays = [rng.normal(size=s).astype(np.float32)
              for s in ((n, ci, t, v), (co, ci), (co,), (co,), (co,), (n, co, t, v))]
    del arrays[2]  # the conv bias: drawn and unused, so the arrays after it stay put
    rm0, rv0 = rng.normal(size=co).astype(np.float32), (0.5 + rng.random(co)).astype(np.float32)
    weights = rng.normal(size=(n, co, t, v)).astype(np.float32)
    results = []
    for fused in (True, False):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        rm, rv = rm0.copy(), rv0.copy()
        unit = (*leaves[:4], rm, rv, training, SPATIAL_SHIFT, True)
        if fused:
            out = T.shift_conv_bn(*unit, post_skip=leaves[4])
        else:
            out = T.shift_conv_bn(*unit) + leaves[4]
        (out * weights).sum().backward()
        results.append((out.data, *(leaf.grad for leaf in leaves), rm, rv))
    names = ("out", "dx", "dw", "dgamma", "dbeta", "dpost_skip", "running_mean", "running_var")
    for name, fused, composite in zip(names, *results):
        assert fused.dtype == np.float32 and np.array_equal(fused, composite), name


def test_shift_conv_bn_rejects_a_post_skip_of_another_shape():
    x, w = np.ones((2, 3, 4, 5)), np.ones((6, 3))
    with pytest.raises(ShapeError, match="post_skip shape"):
        T.shift_conv_bn(x, w, np.ones(6), np.zeros(6), np.zeros(6), np.ones(6), True,
                        post_skip=np.ones((2, 3, 4, 5)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_partition_gate_matches_composite(dtype):
    rng = np.random.default_rng(18)
    n, c, t, v, k = 2, 4, 3, 6, 3
    scatter = np.zeros((k, v), dtype=dtype)
    scatter[np.array([0, 0, 1, 2, 2, 2]), np.arange(v)] = 1.0
    pool = np.ascontiguousarray((scatter / scatter.sum(axis=1, keepdims=True)).T)
    arrays = [a.astype(dtype) for a in (rng.normal(size=(n, c, t, v)), rng.normal(size=(c, c)),
                                        rng.normal(size=c), rng.random((1, c, 1, 1)))]
    weights = rng.normal(size=(n, c, t, v)).astype(dtype)
    results = []
    for op in (T.partition_gate, partition_gate_composite):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves, pool, scatter)
        (out * weights).sum().backward()
        results.append((out.data, *(leaf.grad for leaf in leaves)))
    for name, fused, composite in zip(("out", "dx", "dw", "db", "dgate"), *results):
        assert fused.dtype == dtype and np.array_equal(fused, composite), name


def test_partition_gate_rejects_mismatched_shapes():
    x, w, b, gate = np.ones((2, 3, 4, 5)), np.ones((3, 3)), np.ones(3), np.ones((1, 3, 1, 1))
    with pytest.raises(ShapeError, match=r"partition gate .*\(2, 3, 4, 5\), \(3, 3\), \(3,\), "
                                         r"\(1, 3, 1, 1\), \(5, 2\), \(3, 5\)"):
        T.partition_gate(x, w, b, gate, np.ones((5, 2)), np.ones((3, 5)))


@pytest.mark.parametrize("unit", ["spatial_relu", "temporal_r1"])
def test_shift_conv_bn_eval_float32_matches_float64_reference(unit):
    # the folded GEMM rounds W·scale once more than conv-then-normalize does;
    # at the ntu60 width and realistic running stats that stays within a few
    # float32 ulps of the output's range
    pair, relu = UNITS[unit]
    rng = np.random.default_rng(16)
    n, ci, co, t, v = 2, 216, 108, 16, 25
    x0 = rng.normal(0.2, 1.0, size=(n, ci, t, v))
    w0 = rng.normal(0.0, np.sqrt(2.0 / ci), size=(co, ci))
    rng.normal(0.0, 0.05, size=co)  # drawn and unused: keeps the seeded arrays below
    conv = np.matmul(w0, (pair[0](x0) if pair else x0).reshape(n, ci, t * v))
    rm0 = conv.mean(axis=(0, 2)) + rng.normal(0.0, 0.05, size=co)
    rv0 = conv.var(axis=(0, 2)) * rng.uniform(0.8, 1.25, size=co)
    g0, beta0 = rng.normal(1.0, 0.2, size=co), rng.normal(0.0, 0.2, size=co)
    ref = (conv - rm0[:, None]) / np.sqrt(rv0[:, None] + 1e-5) * g0[:, None] + beta0[:, None]
    ref = (np.maximum(ref, 0.0) if relu else ref).reshape(n, co, t, v)
    leaves = [Tensor(a, dtype=np.float32) for a in (x0, w0, g0, beta0)]
    rm, rv = rm0.astype(np.float32), rv0.astype(np.float32)
    out = T.shift_conv_bn(*leaves, rm, rv, False, pair, relu).data
    assert out.dtype == np.float32
    assert np.max(np.abs(out - ref)) <= 1e-5 * np.max(np.abs(ref))


def _sigmoid_masked(x):
    """The stable sigmoid as it was built with boolean-mask indexing."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype,bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_sigmoid_stable_equals_masked_formula_bit_for_bit(dtype, bits):
    grid = [0.0, 1e-30, 1.0, 20.0, 88.7, 1e4, np.inf]
    values = np.array(grid + [-g for g in grid] + [np.nan], dtype=dtype)
    values = np.concatenate([values, np.random.default_rng(17).normal(0.0, 30.0, 999).astype(dtype)])
    with np.errstate(over="raise"):
        new, old = T._sigmoid_stable(values), _sigmoid_masked(values)
    assert new.dtype == dtype
    nan = np.isnan(values)
    assert np.isnan(new[nan]).all() and np.isnan(old[nan]).all()  # NaN sign bits may differ
    assert np.array_equal(new[~nan].view(bits), old[~nan].view(bits))


def test_full_reduction_data_is_a_0d_array():
    loss = T.cross_entropy_logits(Tensor([[1.0, -2.0], [0.5, 0.0]]), np.array([0, 1]))
    assert isinstance(loss.data, np.ndarray) and loss.data.ndim == 0
    assert weakref.ref(loss.data)() is loss.data
    assert isinstance(Tensor(np.ones(3)).sum().data, np.ndarray)


def test_rmsnorm_hand_values():
    out = T.rms_norm(Tensor([3.0, 4.0]), Tensor([1.0, 1.0]), eps=0.0)
    np.testing.assert_allclose(out.data, np.array([3.0, 4.0]) / np.sqrt(12.5), atol=1e-12)
    assert abs(out.data[0] - 0.8485281374238570) < 1e-12
    assert abs(out.data[1] - 1.1313708498984762) < 1e-12


def test_rmsnorm_zero_input():
    out = T.rms_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(3)))
    np.testing.assert_array_equal(out.data, 0.0)


def test_rmsnorm_scale_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 5))
    g = Tensor(rng.normal(size=5))
    base = T.rms_norm(Tensor(x), g, eps=0.0).data
    for alpha in (0.25, 3.0, 117.0):
        scaled = T.rms_norm(Tensor(alpha * x), g, eps=0.0).data
        assert np.max(np.abs(scaled - base)) <= 1e-12


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_analytic():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2).backward()


def test_backward_accumulates_without_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])
    x.zero_grad()
    assert x.grad is None


def test_fanout_sums_both_contributions():
    # y = sum(x*a) + sum(x*b): two consumers of x must both contribute
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    a, b = Tensor([2.0, 2.0, 2.0]), Tensor([5.0, 5.0, 5.0])
    ((x * a).sum() + (x * b).sum()).backward()
    np.testing.assert_array_equal(x.grad, [7.0, 7.0, 7.0])


def test_grads_finite_after_full_backward():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    loss = T.cross_entropy_logits(T.silu(x @ w), np.array([0, 1, 0]))
    loss.backward()
    for leaf in (x, w):
        assert leaf.grad is not None and np.all(np.isfinite(leaf.grad))


def test_forward_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)))
        w = Tensor(rng.normal(size=(6, 3)))
        gamma, beta = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
        out = T.shift_conv_bn(x, w, gamma, beta, np.zeros(6), np.ones(6), True, SPATIAL_SHIFT)
        return softmax(out.mean(axis=(2, 3)).data)

    assert np.array_equal(run(), run())


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    probs = softmax(rng.normal(size=(4, 7)) * 30)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0)


def test_cross_entropy_uniform_logits():
    for k in (2, 5, 11):
        loss = T.cross_entropy_logits(Tensor(np.zeros((3, k))), np.zeros(3, dtype=int))
        assert abs(loss.item() - np.log(k)) < 1e-12


def test_cross_entropy_confident_logits():
    loss = T.cross_entropy_logits(Tensor([[10.0, -10.0]]), np.array([0]))
    assert abs(loss.item() - np.log1p(np.exp(-20.0))) < 1e-15
    assert abs(loss.item() - 2.061153618190204e-09) < 1e-15


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(10)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    labels = np.array([1, 0, 4, 2])
    T.cross_entropy_logits(logits, labels).backward()
    expected = softmax(logits.data)
    expected[np.arange(4), labels] -= 1.0
    np.testing.assert_allclose(logits.grad, expected / 4.0, atol=1e-12)


def test_cross_entropy_matches_composite_float64():
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=(6, 7)) * 5
    labels = np.array([0, 6, 3, 3, 1, 5])
    results = []
    for op in (T.cross_entropy_logits, cross_entropy_composite):
        logits = Tensor(x0, requires_grad=True)
        loss = op(logits, labels)
        (loss * 2.5).backward()
        results.append((loss.data, logits.grad))
    for name, fused, composite in zip(("loss", "dlogits"), *results):
        assert np.max(np.abs(fused - composite)) <= 1e-12, name


def test_cross_entropy_is_one_node():
    logits = Tensor(np.zeros((2, 3)), requires_grad=True)
    loss = T.cross_entropy_logits(logits, np.array([0, 2]))
    assert loss._parents == (logits,)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValidationError, match="label"):
        T.cross_entropy_logits(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_softplus_linear_above_cutoff():
    x = Tensor([25.0, -3.0])
    out = T.softplus(x)
    assert out.data[0] == 25.0
    assert abs(out.data[1] - np.log1p(np.exp(-3.0))) < 1e-15


def test_relu_subgradient_at_zero_is_zero():
    # an eval residual unit with skip = -(its pre-activation): the sum is
    # exactly 0 at the first position, and its gradient there is 0
    rng = np.random.default_rng(19)
    unit = ShiftUnit(2, 3, rng, None, relu=True)
    unit.eval()
    x = Tensor(rng.normal(size=(1, 2, 1, 3)))
    with T.no_grad():
        pre = T.shift_conv_bn(x, unit.w, unit.gamma, unit.beta, unit.running_mean, unit.running_var,
                              False, None, relu=False).data
    skip0 = -pre
    skip0[..., 1] -= 1.0  # below the kink
    skip0[..., 2] += 1.0  # above it
    skip = Tensor(skip0, requires_grad=True)
    out = unit(x, skip=skip)
    assert np.all(out.data[..., :2] == 0.0) and np.all(out.data[..., 2] > 0.0)
    out.sum().backward()
    np.testing.assert_array_equal(skip.grad[0, :, 0], [[0.0, 0.0, 1.0]] * 3)


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = (x * 2).sum()
    assert not out.requires_grad
    assert out._parents == ()


def test_non_float_data_becomes_float64():
    assert Tensor([1, 2]).dtype == np.float64
    assert Tensor(3).dtype == np.float64
    assert Tensor([1.0]).dtype == np.float64
    assert Tensor(np.arange(3, dtype=np.int32)).dtype == np.float64
    assert Tensor(np.ones(2, dtype=np.float32)).dtype == np.float32


def test_scalar_operands_take_the_tensor_dtype():
    t = Tensor(np.array([0.25, 3.0], dtype=np.float32), requires_grad=True)
    for out in (t - 1.0, 1.0 - t, t / 2.0, 2.0 / t, t + 1.0, 3.0 * t, -t,
                t - np.ones(2), T.rms_norm(t.reshape(1, 2), Tensor(np.ones(2, dtype=np.float32)))):
        assert out.dtype == np.float32
    (1.0 - t).sum().backward()
    assert t.grad.dtype == np.float32


def test_first_gradient_contribution_is_copied():
    # add hands one g to both parents; neither grad may alias the other
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    (a + b).sum().backward()
    a.grad += 5.0
    np.testing.assert_array_equal(b.grad, np.ones(3))


def test_owned_contribution_is_kept_without_copy():
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    g = np.ones(3, dtype=np.float32)
    x._accumulate(g, owned=True)
    assert x.grad is g
    y = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    y._accumulate(np.ones(3), owned=True)  # another dtype: cast into a new array
    assert y.grad.dtype == np.float32


def _small_graph():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    hidden = T.silu(x @ w) * Tensor(rng.normal(size=(3, 2)))
    return x, w, hidden, T.cross_entropy_logits(hidden, np.array([0, 1, 0]))


def test_backward_consumes_interior_nodes_and_keeps_leaf_grads():
    x, w, _, loss = _small_graph()
    nodes = T._toposort(loss)
    interior = [node for node in nodes if node._backward is not None]
    leaves = [node for node in nodes if node._backward is None]
    assert len(interior) == 4 and len(leaves) == 3
    loss.backward()
    for node in interior:
        assert node.grad is None and node._parents == ()
        assert node._backward is T._consumed  # a plain function: it keeps no arrays
    assert x.grad is not None and w.grad is not None


def test_second_backward_raises_and_keeps_grads():
    x, w, hidden, loss = _small_graph()
    loss.backward()
    before = [x.grad.copy(), w.grad.copy()]
    with pytest.raises(GraphConsumedError, match="consumed"):
        loss.backward()
    with pytest.raises(GraphConsumedError, match="run the forward again"):
        (hidden * 2.0).sum().backward()  # a new op on a consumed node
    np.testing.assert_array_equal(x.grad, before[0])
    np.testing.assert_array_equal(w.grad, before[1])


def test_gradient_dtype_follows_data():
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    x._accumulate(np.full((2, 3), 1.0 / 3.0))
    assert x.grad.dtype == np.float32
    assert x.grad[0, 0] == np.float32(1.0 / 3.0)
