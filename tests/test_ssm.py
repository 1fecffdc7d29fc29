import numpy as np
import pytest
from scipy.integrate import simpson

from simba import ssm
from simba import tensor as T
from simba.errors import DomainError, ShapeError
from simba.ssm import (
    IMambaBlock,
    lti_conv,
    lti_kernel,
    selective_scan_parallel,
    selective_scan_sequential,
    zoh_discretize,
)
from simba.tensor import Tensor
from composites import selective_scan_composite
from tracemem import traced_memory


def _random_scan_inputs(rng, n, t, dp, w):
    """(delta, A, B, C, y) Tensors of a stable selective system."""
    return (Tensor(0.05 + rng.random((n, t, dp))),
            Tensor(-(0.2 + rng.random((dp, w)))),
            Tensor(rng.normal(size=(n, t, w))),
            Tensor(rng.normal(size=(n, t, w))),
            Tensor(rng.normal(size=(n, t, dp))))


def _selective_scan_materialized(delta, a_cont, b, c, y):
    """The full-array sequential op the streamed one replaced.

    It builds a_bar, b_bar and the states as [N, T, Dp, W] arrays, and its
    backward runs the adjoint over flipped copies.
    """
    a_bar, b_bar = zoh_discretize(a_cont.data, b.data, delta.data)
    b_bar *= y.data[..., None]
    out = np.einsum("ntw,ntdw->ntd", c.data, ssm._scan_states_sequential(a_bar, b_bar))

    def backward(g):
        a = a_cont.data
        a_bar, q = ssm._zoh(a, delta.data)
        b_bar = q * b.data[:, :, None, :]
        h = ssm._scan_states_sequential(a_bar, b_bar * y.data[..., None])
        direct = g[..., None] * c.data[:, :, None, :]
        a_rev = np.flip(a_bar, axis=1)
        coeff = np.concatenate([np.ones_like(a_rev[:, :1]), a_rev[:, :-1]], axis=1)
        lam = np.flip(ssm._scan_states_sequential(coeff, np.flip(direct, axis=1)), axis=1)
        if c.requires_grad:
            c._accumulate(np.einsum("ntd,ntdw->ntw", g, h))
        if y.requires_grad:
            y._accumulate(np.einsum("ntdw,ntdw->ntd", lam, b_bar))
        ga = np.zeros_like(lam)
        np.multiply(lam[:, 1:], h[:, :-1], out=ga[:, 1:])
        gb = lam * y.data[..., None]
        if b.requires_grad:
            b._accumulate(np.einsum("ntdw,ntdw->ntw", gb, q))
        gu = gb * b.data[:, :, None, :]
        gu /= a
        gu += ga
        gu *= a_bar
        if delta.requires_grad:
            delta._accumulate(np.einsum("ntdw,dw->ntd", gu, a))
        if a_cont.requires_grad:
            grad_a = np.einsum("ntdw,ntd->dw", gu, delta.data)
            grad_a -= np.einsum("ntdw,ntdw->dw", gb, b_bar) / a
            a_cont._accumulate(grad_a)

    return T._make(out, (delta, a_cont, b, c, y), backward)


# ---------------------------------------------------------------------------
# zero-order hold
# ---------------------------------------------------------------------------

def test_zoh_scalar_closed_form():
    a_bar, b_bar = zoh_discretize(np.full((1, 1), -1.0), np.ones((1, 1, 1)),
                                  np.full((1, 1, 1), np.log(2.0)))
    assert abs(a_bar.ravel()[0] - 0.5) <= 1e-12
    assert abs(b_bar.ravel()[0] - 0.5) <= 1e-12


def test_zoh_small_step_limit():
    a_bar, b_bar = zoh_discretize(np.full((1, 1), -0.7), np.full((1, 1, 1), 1.3),
                                  np.full((1, 1, 1), 1e-8))
    assert abs(a_bar.ravel()[0] - 1.0) < 1e-7
    # first-order: b_bar/delta -> B
    assert abs(b_bar.ravel()[0] / 1e-8 - 1.3) / 1.3 < 1e-6


def test_zoh_float32_small_step_matches_float64():
    # exp(x)-1 in float32 is off by 1.4e-3 relative here; expm1 by ~1e-9
    args = (np.full((1, 1), -1.0), np.ones((1, 1, 1)), np.full((1, 1, 1), 1e-5))
    _, ref = zoh_discretize(*args)
    _, b32 = zoh_discretize(*(a.astype(np.float32) for a in args))
    assert b32.dtype == np.float32
    assert abs(float(b32.ravel()[0]) - ref.ravel()[0]) / ref.ravel()[0] <= 1e-6


def test_zoh_matches_quadrature_oracle():
    # b_bar is the integral of exp(s*A)*B over one step
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a_val = -np.exp(rng.uniform(-2.0, 1.0))
        d_val = np.exp(rng.uniform(-4.0, 0.0))
        b_val = rng.normal()
        s = np.linspace(0.0, d_val, 10_001)
        ref = simpson(np.exp(s * a_val) * b_val, x=s)
        a_bar, b_bar = zoh_discretize(np.full((1, 1), a_val), np.full((1, 1, 1), b_val),
                                      np.full((1, 1, 1), d_val))
        worst = max(worst, abs(b_bar.ravel()[0] - ref))
        assert abs(a_bar.ravel()[0] - np.exp(d_val * a_val)) <= 1e-12
    assert worst <= 1e-8


def test_zoh_rejects_invalid_domain():
    good_a = np.full((1, 1), -1.0)
    good_b = np.ones((1, 1, 1))
    with pytest.raises(DomainError):
        zoh_discretize(good_a, good_b, np.zeros((1, 1, 1)))
    with pytest.raises(DomainError):
        zoh_discretize(np.full((1, 1), 0.5), good_b, np.ones((1, 1, 1)))
    with pytest.raises(ShapeError):
        zoh_discretize(np.full((2, 1), -1.0), good_b, np.ones((1, 1, 1)))


def test_scan_domain_errors_name_the_entry():
    rng = np.random.default_rng(15)
    delta, a, b, c, y = _random_scan_inputs(rng, 2, 4, 3, 2)
    delta.data[1, 2, 0] = -0.5
    with pytest.raises(DomainError, match=r"smallest delta -0\.5 at \(n, t, d\) = \(1, 2, 0\)"):
        selective_scan_sequential(delta, a, b, c, y)
    delta.data[1, 2, 0] = 0.1
    a.data[1, 0] = 0.25
    with pytest.raises(DomainError, match=r"largest A entry 0\.25 at \(d, w\) = \(1, 0\)"):
        selective_scan_parallel(delta, a, b, c, y, 2)
    with pytest.raises(DomainError, match=r"^continuous state coefficients must be strictly negative"):
        zoh_discretize(a.data, b.data, delta.data)


def test_scan_domain_checks_fail_closed_on_nan():
    # NaN compares false both ways, so the checks test for the valid domain
    rng = np.random.default_rng(16)
    delta, a, b, c, y = _random_scan_inputs(rng, 2, 4, 3, 2)
    delta.data[0, 3, 2] = -0.5
    delta.data[1, 1, 2] = np.nan
    for scan in (selective_scan_sequential, lambda *args: selective_scan_parallel(*args, 2)):
        with pytest.raises(DomainError, match=r"smallest delta nan at \(n, t, d\) = \(1, 1, 2\)"):
            scan(delta, a, b, c, y)
    delta.data[0, 3, 2] = delta.data[1, 1, 2] = 0.1
    a.data[2, 1] = np.nan
    with pytest.raises(DomainError, match=r"largest A entry nan at \(d, w\) = \(2, 1\)"):
        zoh_discretize(a.data, b.data, delta.data)
    with pytest.raises(DomainError, match=r"largest A entry nan at \(w\) = \(1,\)"):
        lti_kernel(np.array([-1.0, np.nan]), np.ones(2), np.ones(2), 0.5, 3)
    with pytest.raises(DomainError, match="step size must be strictly positive"):
        lti_kernel(np.array([-1.0]), np.ones(1), np.ones(1), np.nan, 3)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_scan_hand_unroll():
    # A=-1, delta=ln2 gives a_bar = b_bar = 0.5
    out = selective_scan_sequential(Tensor(np.full((1, 3, 1), np.log(2.0))),
                                    Tensor(np.full((1, 1), -1.0)),
                                    Tensor(np.ones((1, 3, 1))),
                                    Tensor(np.ones((1, 3, 1))),
                                    Tensor(np.ones((1, 3, 1))))
    np.testing.assert_allclose(out.data.ravel(), [0.5, 0.75, 0.875], atol=1e-15)


def test_scan_zero_readout_gives_zero():
    rng = np.random.default_rng(1)
    delta, a, b, _, y = _random_scan_inputs(rng, 2, 6, 3, 4)
    out = selective_scan_sequential(delta, a, b, Tensor(np.zeros((2, 6, 4))), y)
    np.testing.assert_array_equal(out.data, 0.0)


def test_scan_single_step():
    rng = np.random.default_rng(2)
    delta, a, b, c, y = _random_scan_inputs(rng, 1, 1, 2, 3)
    out = selective_scan_sequential(delta, a, b, c, y)
    _, b_bar = zoh_discretize(a.data, b.data, delta.data)
    expected = np.einsum("w,dw->d", c.data[0, 0], b_bar[0, 0] * y.data[0, 0][:, None])
    np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-15)


@pytest.mark.parametrize("shape, chunk", [((2, 64, 3, 4), 1), ((2, 64, 3, 4), 3), ((2, 64, 3, 4), 16),
                                          ((2, 64, 3, 4), 64), ((3, 13, 7, 4), 3), ((2, 64, 500, 16), 16)],
                         ids=["1", "3", "16", "64", "ragged-3", "ntu60-16"])
def test_parallel_matches_sequential(shape, chunk):
    rng = np.random.default_rng(chunk)
    data = [leaf.data for leaf in _random_scan_inputs(rng, *shape)]
    proj = rng.normal(size=shape[:3])
    for dtype, out_tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
        outs, grads = [], []
        for scan in (selective_scan_sequential, lambda *args: selective_scan_parallel(*args, chunk)):
            leaves = [Tensor(d.astype(dtype), requires_grad=True) for d in data]
            out = scan(*leaves)
            (out * Tensor(proj.astype(dtype))).sum().backward()
            outs.append(out.data.astype(np.float64))
            grads.append([leaf.grad for leaf in leaves])
        assert np.max(np.abs(outs[1] - outs[0])) <= out_tol
        # both ops share one backward, which recomputes the states from the
        # inputs: only their forwards differ, so their gradients are equal
        for ref, par in zip(*grads):
            assert par.dtype == dtype
            assert np.array_equal(par, ref)


def test_scan_output_dtype_promotes_with_c():
    # a float64 C against float32 delta, A, B and y: both forwards promote
    # with C and return the same values up to float32 rounding
    rng = np.random.default_rng(35)
    inputs = _random_scan_inputs(rng, 2, 7, 3, 4)
    leaves = [Tensor(leaf, dtype=np.float32) for leaf in inputs]
    leaves[3] = inputs[3]
    seq = selective_scan_sequential(*leaves).data
    par = selective_scan_parallel(*leaves, 3).data
    assert seq.dtype == par.dtype == np.float64
    np.testing.assert_allclose(seq, par, rtol=0, atol=1e-5)  # float32 states, summed in another order


@pytest.mark.parametrize("chunk", [None, 3], ids=["sequential", "parallel"])
def test_fused_scan_matches_composite_float64(chunk):
    rng = np.random.default_rng(31)
    data = [leaf.data for leaf in _random_scan_inputs(rng, 2, 12, 3, 4)]
    proj = rng.normal(size=(2, 12, 3))
    fused = ((lambda *a: selective_scan_sequential(*a)) if chunk is None
             else (lambda *a: selective_scan_parallel(*a, chunk)))
    results = []
    for op in (fused, lambda *a: selective_scan_composite(*a, chunk=chunk)):
        leaves = [Tensor(d.copy(), requires_grad=True) for d in data]
        out = op(*leaves)
        (out * Tensor(proj)).sum().backward()
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for name, got, ref in zip(("out", "delta", "A", "B", "C", "y"), *results):
        assert got.shape == ref.shape, name
        assert np.max(np.abs(got - ref)) <= 1e-12, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 64, 500, 16), (3, 13, 7, 4)], ids=["ntu60", "ragged"])
@pytest.mark.parametrize("trained", ["all", "y_delta"])
def test_streamed_scan_bit_identical_to_materialized(dtype, shape, trained):
    rng = np.random.default_rng(33)
    data = [leaf.data.astype(dtype) for leaf in _random_scan_inputs(rng, *shape)]
    g = rng.normal(size=shape[:3]).astype(dtype)
    results = []
    for op in (selective_scan_sequential, _selective_scan_materialized):
        leaves = [Tensor(d.copy(), requires_grad=trained == "all" or k in (0, 4))
                  for k, d in enumerate(data)]
        out = op(*leaves)
        out._backward(g)
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for name, got, ref in zip(("out", "delta", "A", "B", "C", "y"), *results):
        if ref is None:
            assert got is None, name
        else:
            assert got.dtype == dtype, name
            assert np.array_equal(got, ref), name


def _scan_peak_bytes(run) -> int:
    with traced_memory() as mem:
        run()
    return mem.peak


def _ntu60_scan_leaves():
    rng = np.random.default_rng(34)
    return [Tensor(leaf.data.astype(np.float32), requires_grad=True)
            for leaf in _random_scan_inputs(rng, 2, 64, 500, 16)]


STATE_ARRAY_BYTES = 2 * 64 * 500 * 16 * 4  # one [N, T, Dp, W] float32 array, 3.9 MiB


def test_streamed_scan_forward_keeps_no_state_sized_array():
    leaves = _ntu60_scan_leaves()
    with T.no_grad():
        peak = _scan_peak_bytes(lambda: selective_scan_sequential(*leaves))
    assert peak < STATE_ARRAY_BYTES, peak


def test_streamed_scan_backward_peak_bounded():
    leaves = _ntu60_scan_leaves()
    for out in (selective_scan_sequential(*leaves), selective_scan_parallel(*leaves, 16)):
        g = np.ones(out.shape, dtype=np.float32)
        peak = _scan_peak_bytes(lambda: out._backward(g))
        assert peak <= 5 * STATE_ARRAY_BYTES, peak


def test_scan_node_keeps_no_state_sized_arrays():
    # the backward recomputes every [N, T, Dp, W] array from the inputs, on
    # the streamed sequential path and on the chunked one
    rng = np.random.default_rng(32)
    leaves = _random_scan_inputs(rng, 2, 8, 3, 4)
    for leaf in leaves:
        leaf.requires_grad = True
    for out in (selective_scan_sequential(*leaves), selective_scan_parallel(*leaves, 3)):
        assert out._parents == leaves
        held = []
        for cell in out._backward.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, Tensor):
                value = value.data
            if isinstance(value, np.ndarray):
                held.append(value.ndim)
        assert held and max(held) < 4, held


def test_parallel_chunk_covering_t_is_bit_identical():
    rng = np.random.default_rng(3)
    args = _random_scan_inputs(rng, 1, 17, 2, 3)
    ref = selective_scan_sequential(*args).data
    for chunk in (17, 40):
        assert np.array_equal(selective_scan_parallel(*args, chunk).data, ref)


def test_parallel_rejects_bad_chunk():
    rng = np.random.default_rng(4)
    args = _random_scan_inputs(rng, 1, 4, 1, 1)
    with pytest.raises(DomainError):
        selective_scan_parallel(*args, 0)


def test_scan_shape_mismatch_rejected():
    rng = np.random.default_rng(5)
    delta, a, b, c, _ = _random_scan_inputs(rng, 1, 4, 2, 3)
    with pytest.raises(ShapeError):
        selective_scan_sequential(delta, a, b, c, Tensor(np.zeros((1, 4, 5))))
    with pytest.raises(ShapeError):
        selective_scan_sequential(delta, a, b, Tensor(np.zeros((1, 5, 3))), Tensor(np.zeros((1, 4, 2))))
    with pytest.raises(ShapeError):
        selective_scan_sequential(delta, a, Tensor(np.zeros((1, 4, 4))), c, Tensor(np.zeros((1, 4, 2))))


def test_scan_stability_long_rollout():
    # A < 0 and delta > 0 give 0 < a_bar < 1, which keeps states bounded
    # over a million steps
    rng = np.random.default_rng(6)
    args = _random_scan_inputs(rng, 1, 1_000_000, 1, 4)
    with T.no_grad():
        out = selective_scan_parallel(*args, 1024)
    assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# LTI kernel oracle
# ---------------------------------------------------------------------------

def test_lti_kernel_hand_case():
    # a_bar = 0.5, b_bar = 0.5, c = 1 -> kernel (0.5, 0.25)
    kernel = lti_kernel(np.array([-1.0]), np.array([1.0]), np.array([1.0]),
                        np.log(2.0), 2)
    np.testing.assert_allclose(kernel, [0.5, 0.25], atol=1e-12)
    np.testing.assert_allclose(lti_conv(np.array([1.0, 1.0]), kernel), [0.5, 0.75], atol=1e-12)


def test_lti_kernel_length_one():
    k = lti_kernel(np.array([-1.0]), np.array([1.0]), np.array([2.0]), np.log(2.0), 1)
    np.testing.assert_allclose(k, [1.0], atol=1e-12)  # c * b_bar


def test_lti_kernel_rejects_bad_length():
    with pytest.raises(DomainError):
        lti_kernel(np.array([-1.0]), np.array([1.0]), np.array([1.0]), 0.5, 0)


@pytest.mark.parametrize("seed", range(50))
def test_lti_conv_matches_recurrence(seed):
    rng = np.random.default_rng(100 + seed)
    w, m = 3, 32
    a = -np.exp(rng.uniform(-1.0, 1.0, size=w))
    b = rng.normal(size=w)
    c = rng.normal(size=w)
    delta = float(np.exp(rng.uniform(-3.0, 0.0)))
    y = rng.normal(size=m)

    kernel = lti_kernel(a, b, c, delta, m)
    conv_out = lti_conv(y, kernel)

    scan_out = selective_scan_sequential(
        Tensor(np.full((1, m, 1), delta)), Tensor(a.reshape(1, w)),
        Tensor(np.broadcast_to(b, (1, m, w)).copy()),
        Tensor(np.broadcast_to(c, (1, m, w)).copy()),
        Tensor(y.reshape(1, m, 1))).data.ravel()
    assert np.max(np.abs(conv_out - scan_out)) <= 1e-10


# ---------------------------------------------------------------------------
# the gated block
# ---------------------------------------------------------------------------

def test_imamba_zero_input_zero_biases_gives_zero():
    rng = np.random.default_rng(7)
    block = IMambaBlock(6, 3, rng)  # biases start at zero
    out = block(Tensor(np.zeros((2, 5, 6))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_imamba_shape_contract_full_width():
    rng = np.random.default_rng(8)
    block = IMambaBlock(500, 4, rng, scan_chunk=16)
    x = Tensor(rng.normal(size=(2, 64, 500)).astype(np.float64))
    assert block(x).shape == (2, 64, 500)


def test_imamba_dp_mismatch_rejected():
    rng = np.random.default_rng(9)
    block = IMambaBlock(6, 3, rng)
    with pytest.raises(ShapeError):
        block(Tensor(np.zeros((1, 4, 7))))


def test_imamba_residual_identity_when_projection_zeroed():
    rng = np.random.default_rng(10)
    block = IMambaBlock(6, 3, rng)
    block.out_proj.w.data[:] = 0.0
    x = Tensor(rng.normal(size=(2, 5, 6)))
    np.testing.assert_array_equal(block(x).data, x.data)


def test_imamba_causality():
    # outputs before t0 cannot see a perturbation at t0
    rng = np.random.default_rng(11)
    block = IMambaBlock(6, 3, rng)
    x = rng.normal(size=(1, 8, 6))
    t0 = 5
    x2 = x.copy()
    x2[0, t0] += rng.normal(size=6)
    out1 = block(Tensor(x)).data
    out2 = block(Tensor(x2)).data
    np.testing.assert_array_equal(out1[:, :t0], out2[:, :t0])
    assert np.max(np.abs(out1[:, t0:] - out2[:, t0:])) > 1e-8


def test_imamba_lti_mode_matches_kernel_convolution():
    # zero selection weights + fixed biases make every channel an LTI system
    rng = np.random.default_rng(12)
    dp, w, t = 4, 3, 24
    block = IMambaBlock(dp, w, rng)
    block.w_b.w.data[:] = 0.0
    block.w_c.w.data[:] = 0.0
    block.w_dt.w.data[:] = 0.0
    block.w_b.b.data[:] = rng.normal(size=w)
    block.w_c.b.data[:] = rng.normal(size=w)

    y = Tensor(rng.normal(size=(1, t, dp)))
    scan_out = selective_scan_sequential(block.delta(y), block.a_cont(), block.w_b(y), block.w_c(y),
                                         y).data[0]

    a = -np.exp(block.a_log.data)
    deltas = np.log1p(np.exp(block.p.data))
    for d in range(dp):
        kernel = lti_kernel(a[d], block.w_b.b.data, block.w_c.b.data,
                            float(deltas[d]), t)
        ref = lti_conv(y.data[0, :, d], kernel)
        assert np.max(np.abs(scan_out[:, d] - ref)) <= 1e-10


def test_ssm_params_invariants():
    rng = np.random.default_rng(14)
    params = IMambaBlock(5, 4, rng)
    assert np.all(params.a_cont().data < 0.0)
    x = Tensor(rng.normal(size=(2, 6, 5)) * 10)
    assert np.all(params.delta(x).data > 0.0)
    # delta bias init: softplus(p) log-uniform within [1e-3, 1e-1]
    sp = np.log1p(np.exp(params.p.data))
    assert np.all(sp >= 1e-3 - 1e-9) and np.all(sp <= 1e-1 + 1e-9)
