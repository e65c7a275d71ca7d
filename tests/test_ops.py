"""Operator oracles: identity cases, symmetry cases, finite-difference checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ts3d import ops
from ts3d.disphead import stereo_focal_loss
from ts3d.gradcheck import grad_check, rand_tensor
from ts3d.tensor import DimensionError, Tensor

RNG = np.random.default_rng(1234)


def _transpose(a: Tensor, axes) -> Tensor:
    """Differentiable transpose for the reference compositions below; the model
    itself never transposes a graph tensor."""
    inv = np.argsort(axes)

    def build():
        def bw(g):
            return (np.transpose(g, inv),)
        return bw

    return ops.make_node(np.transpose(a.data, axes), (a,), "transpose", build)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_1x1_identity_kernel():
    x = Tensor(RNG.normal(size=(6, 5, 3)))
    k = Tensor(np.eye(3).reshape(1, 1, 3, 3))
    out = ops.conv2d(x, k, stride=1, padding=0)
    assert np.allclose(out.data, x.data)


def test_conv2d_box_kernel_constant_input():
    x = Tensor(np.full((8, 9, 2), 0.7))
    k = Tensor(np.full((3, 3, 2, 1), 1.0 / (9 * 2)))
    out = ops.conv2d(x, k, stride=1, padding=1)
    # interior positions see the full window and reproduce the constant
    assert np.allclose(out.data[1:-1, 1:-1, 0], 0.7)


def test_conv2d_output_extent():
    x = Tensor(np.zeros((11, 13, 2)))
    k = Tensor(np.zeros((3, 3, 2, 4)))
    out = ops.conv2d(x, k, stride=2, padding=1)
    assert out.shape == ((11 + 2 - 3) // 2 + 1, (13 + 2 - 3) // 2 + 1, 4)


def test_conv2d_channel_mismatch_names_axes():
    x = Tensor(np.zeros((5, 5, 3)))
    k = Tensor(np.zeros((3, 3, 4, 2)))
    with pytest.raises(DimensionError, match="axis 2"):
        ops.conv2d(x, k)


def test_conv2d_gradcheck_vs_finite_differences():
    rng = np.random.default_rng(7)
    x = rand_tensor(rng, (7, 9, 3))
    k = rand_tensor(rng, (3, 3, 3, 4))
    b = rand_tensor(rng, (4,))

    def f(x_, k_, b_):
        return ops.conv2d(x_, k_, b_, stride=1, padding=1)

    assert grad_check(f, [x, k, b], eps=1e-6, probe=99) < 1e-6


def test_conv2d_strided_gradcheck():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (9, 8, 2))
    k = rand_tensor(rng, (3, 3, 2, 3))

    def f(x_, k_):
        return ops.conv2d(x_, k_, stride=2, padding=1)

    assert grad_check(f, [x, k], eps=1e-6, probe=99) < 1e-6


def _conv_per_tap(x, k, b, g, stride, padding):
    """Per-tap reference: output and (x, kernel, bias) gradients for output
    gradient g, one GEMM per kernel tap over strided views."""
    kh, kw, cin, cout = k.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    ho, wo = g.shape[:2]
    out = np.zeros((ho, wo, cout))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + (ho - 1) * stride + 1, stride)
            cols = slice(j, j + (wo - 1) * stride + 1, stride)
            out += xp[rows, cols] @ k[i, j]
            gk[i, j] = xp[rows, cols].reshape(-1, cin).T @ g.reshape(-1, cout)
            gxp[rows, cols] += g @ k[i, j].T
    gx = gxp[padding : padding + x.shape[0], padding : padding + x.shape[1]]
    return out + b, gx, gk, g.sum(axis=(0, 1))


@pytest.mark.parametrize("row_block", [False, True], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
def test_conv2d_matches_per_tap_reference(k, stride, row_block, monkeypatch):
    if row_block:
        monkeypatch.setattr(ops, "CONV_COLUMN_ELEMENTS", 1)  # one output row per block
    rng = np.random.default_rng(30 + k + stride)
    x, kern, b = rng.normal(size=(9, 11, 5)), rng.normal(size=(k, k, 5, 4)), rng.normal(size=4)
    pad = k // 2
    ho, wo = (9 + 2 * pad - k) // stride + 1, (11 + 2 * pad - k) // stride + 1
    g = rng.normal(size=(ho, wo, 4))
    ts = [Tensor(a, requires_grad=True) for a in (x, kern, b)]
    out = ops.conv2d(*ts, stride=stride, padding=pad)
    out.backward(g)
    ref = _conv_per_tap(x, kern, b, g, stride, pad)
    for name, a, r in zip(("out", "dx", "dk", "db"), [out.data] + [t.grad for t in ts], ref):
        assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), name


# ---------------------------------------------------------------------------
# conv_norm_act


def _conv_norm_act_reference(x, k, gamma, beta, relu, stride):
    """The unfused chain conv2d -> channel_norm -> relu as three graph nodes."""
    y = ops.channel_norm(ops.conv2d(x, k, stride=stride, padding=1), gamma, beta)
    return ops.relu(y) if relu else y


def _with_grads(fn, arrays, probe, dtype):
    """Output of fn on dtype copies of arrays, then each input's gradient of
    sum(output * probe)."""
    ts = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = fn(*ts)
    out.backward(probe.astype(dtype))
    return [out.data] + [t.grad for t in ts]


@pytest.mark.parametrize("row_block", [False, True], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("cin", [3, 32])
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
def test_conv_norm_act_matches_unfused_chain(dtype, tol, stride, relu, cin, row_block,
                                             monkeypatch):
    rng = np.random.default_rng(40 + cin + stride)
    h, w, cout = 13, 10, 6
    arrays = [rng.normal(size=(h, w, cin)), rng.normal(size=(3, 3, cin, cout)),
              rng.uniform(0.5, 1.5, size=cout), rng.normal(size=cout)]
    probe = rng.normal(size=((h - 1) // stride + 1, (w - 1) // stride + 1, cout))
    ref = _with_grads(lambda *t: _conv_norm_act_reference(*t, relu, stride), arrays, probe,
                      dtype)
    if row_block:
        monkeypatch.setattr(ops, "CONV_COLUMN_ELEMENTS", 1)  # one output row per block
    fused = _with_grads(lambda *t: ops.conv_norm_act(*t, relu, stride, 1), arrays, probe,
                        dtype)
    for name, a, b in zip(("out", "dx", "dkernel", "dgamma", "dbeta"), fused, ref):
        assert a.dtype == dtype, name
        assert np.abs(a - b).max() <= tol * np.abs(b).max(), name


@pytest.mark.parametrize("x_shape,k_shape", [
    ((5, 5, 3), (2, 3, 3, 4)),
    ((5, 5, 3), (3, 3, 4, 4)),
    ((1, 1, 3), (5, 5, 3, 4)),
], ids=["even-kernel", "channel-mismatch", "empty-output"])
def test_conv_norm_act_shape_errors_match_conv2d(x_shape, k_shape):
    x, k = Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape))
    with pytest.raises(DimensionError) as conv_err:
        ops.conv2d(x, k, stride=1, padding=1)
    with pytest.raises(DimensionError) as fused_err:
        ops.conv_norm_act(x, k, Tensor(np.ones(4)), Tensor(np.zeros(4)), True, 1, 1)
    assert str(fused_err.value) == str(conv_err.value)


def test_conv_norm_act_graph_keeps_no_padded_input_copy():
    """Under grad, a padded conv_norm_act forward leaves behind its output and
    the normalized values its backward reads, plus at most ``slack`` bytes of
    bookkeeping; the zero-padded input is rebuilt in backward, not kept."""
    slack = 64 * 1024
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(64, 64, 32)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(3, 3, 32, 4)), requires_grad=True)
    gamma = Tensor(np.ones(4), requires_grad=True)
    beta = Tensor(np.zeros(4), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ops.conv_norm_act(x, kernel, gamma, beta, relu=True, stride=1, padding=1)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    padded_input = 66 * 66 * 32 * x.data.itemsize
    assert padded_input > 2 * out.data.nbytes + slack  # a kept padded copy breaks the bound
    assert grown < 2 * out.data.nbytes + slack  # the output and xhat


# ---------------------------------------------------------------------------
# bilinear sampling


def test_bilinear_integer_grid_is_bit_exact():
    feat = Tensor(RNG.normal(size=(5, 7, 4)), dtype=np.float64)
    pts = Tensor(np.array([[3.0, 2.0], [0.0, 0.0], [6.0, 4.0]]), dtype=np.float64)
    out = ops.bilinear_sample(feat, pts)
    assert out.data[0].tobytes() == feat.data[2, 3].tobytes()
    assert out.data[1].tobytes() == feat.data[0, 0].tobytes()
    assert out.data[2].tobytes() == feat.data[4, 6].tobytes()


def test_bilinear_midpoint_is_mean():
    feat = Tensor(RNG.normal(size=(4, 6, 3)), dtype=np.float64)
    pts = Tensor(np.array([[2.5, 1.0]]), dtype=np.float64)
    out = ops.bilinear_sample(feat, pts)
    assert np.allclose(out.data[0], 0.5 * (feat.data[1, 2] + feat.data[1, 3]))


def test_bilinear_out_of_bounds_is_zero():
    feat = Tensor(np.ones((4, 4, 2)))
    pts = Tensor(np.array([[-5.0, 1.0], [10.0, 10.0]], dtype=np.float32))
    out = ops.bilinear_sample(feat, pts)
    assert np.allclose(out.data, 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilinear_group_axis_matches_separate_calls(dtype):
    rng = np.random.default_rng(10)
    feat = rng.normal(size=(3, 5, 6, 4)).astype(dtype)
    pts = rng.uniform(-1.5, 7.0, size=(3, 9, 2)).astype(dtype)  # some out of bounds
    probe = rng.normal(size=(3, 9, 4)).astype(dtype)
    f_all = Tensor(feat, requires_grad=True)
    p_all = Tensor(pts, requires_grad=True)
    out = ops.bilinear_sample(f_all, p_all)
    assert out.shape == (3, 9, 4)
    out.backward(probe)
    for g in range(3):
        f_g = Tensor(feat[g], requires_grad=True)
        p_g = Tensor(pts[g], requires_grad=True)
        out_g = ops.bilinear_sample(f_g, p_g)
        out_g.backward(probe[g])
        assert out.data[g].tobytes() == out_g.data.tobytes()
        assert f_all.grad[g].tobytes() == f_g.grad.tobytes()
        assert p_all.grad[g].tobytes() == p_g.grad.tobytes()


def test_bilinear_rejects_mismatched_groups():
    with pytest.raises(DimensionError):
        ops.bilinear_sample(Tensor(np.zeros((2, 4, 4, 3))), Tensor(np.zeros((3, 5, 2))))
    with pytest.raises(DimensionError):
        ops.bilinear_sample(Tensor(np.zeros((4, 4, 3))), Tensor(np.zeros((2, 5, 2))))


def test_bilinear_point_gradcheck():
    rng = np.random.default_rng(9)
    feat = rand_tensor(rng, (6, 8, 3))
    pts = Tensor(rng.uniform(0.3, 4.3, size=(5, 2)), dtype=np.float64, requires_grad=True)

    assert grad_check(ops.bilinear_sample, [feat, pts], eps=1e-5, probe=99) < 1e-5


# ---------------------------------------------------------------------------
# multi-scale deformable attention


def _weighted_point_sum(x, w):
    """Differentiable sum over axis 2 of x * w, for (m, n, k, d) samples x and
    (m, n, k, 1) weights w."""
    def build():
        def bw(g):
            ge = g[:, :, None]
            return ge * w.data, (ge * x.data).sum(axis=-1, keepdims=True)
        return bw

    return ops.make_node((x.data * w.data).sum(axis=2), (x, w), "weighted_point_sum", build)


def _ms_deform_attn_reference(v1, v2, loc, aw):
    """The per-level chain MSDeformCA ran before the fused op: each
    channel-merged (H, W, heads * d) map split into (heads, H, W, d) with a
    reshape and a transpose, pixel points from the normalised locations, then
    per level a narrow, one bilinear_sample over the head axis, the weights,
    a sum over points and an add over levels, and finally the heads merged."""
    n, m, nl, k, _ = loc.shape
    hd = v1.shape[-1] // m
    values = [_transpose(ops.reshape(v, v.shape[:2] + (m, hd)), (2, 0, 1, 3))
              for v in (v1, v2)]
    loc_by_level = _transpose(loc, (2, 1, 0, 3, 4))
    weights = _transpose(ops.reshape(aw, (n, m, nl, k, 1)), (2, 1, 0, 3, 4))
    half = Tensor(np.full(2, -0.5, dtype=loc.dtype))
    total = None
    for lvl, value in enumerate(values):
        # (u, v) * (W, H) - 0.5 as an affine map with a diagonal kernel
        extent = Tensor(np.diag([value.shape[2], value.shape[1]]).astype(loc.dtype))
        pts_px = ops.linear(ops.narrow(loc_by_level, 0, lvl, 1), extent, half)
        pts = ops.reshape(pts_px, (m, n * k, 2))
        sampled = ops.reshape(ops.bilinear_sample(value, pts), (m, n, k, hd))
        w_lvl = ops.reshape(ops.narrow(weights, 0, lvl, 1), (m, n, k, 1))
        term = _weighted_point_sum(sampled, w_lvl)
        total = term if total is None else ops.add(total, term)
    return ops.reshape(_transpose(total, (1, 0, 2)), (n, m * hd))


@pytest.mark.parametrize("row_block", [None, 5], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
def test_ms_deform_attn_matches_the_per_level_chain(dtype, tol, row_block, monkeypatch):
    rng = np.random.default_rng(31)
    n, m, k, d = 9, 3, 2, 4
    arrays = [rng.normal(size=(6, 7, m * d)), rng.normal(size=(3, 4, m * d)),
              rng.uniform(-0.2, 1.2, size=(n, m, 2, k, 2)),  # some corners off the map
              rng.uniform(0.0, 1.0, size=(n, m, 2, k))]
    probe = rng.normal(size=(n, m * d))
    ref = _with_grads(_ms_deform_attn_reference, arrays, probe, dtype)
    if row_block:
        monkeypatch.setattr(ops, "SAMPLING_ROW_BLOCK", row_block)  # 27 rows in 6 blocks
    fused = _with_grads(lambda v1, v2, loc, aw: ops.ms_deform_attn([v1, v2], loc, aw),
                        arrays, probe, dtype)
    for name, a, b in zip(("out", "dvalues1", "dvalues2", "dlocations", "dweights"),
                          fused, ref):
        assert a.dtype == dtype, name
        assert np.abs(a - b).max() <= tol * np.abs(b).max(), name


def test_ms_deform_attn_shape_errors():
    values = [Tensor(np.zeros((4, 5, 4)))]
    with pytest.raises(DimensionError, match="ms_deform_attn"):  # 4 channels, 3 heads
        ops.ms_deform_attn(values, Tensor(np.zeros((6, 3, 1, 2, 2))),
                           Tensor(np.zeros((6, 3, 1, 2))))
    with pytest.raises(DimensionError):  # head-major (heads, H, W, d) values
        ops.ms_deform_attn([Tensor(np.zeros((2, 4, 5, 2)))],
                           Tensor(np.zeros((6, 2, 1, 2, 2))), Tensor(np.zeros((6, 2, 1, 2))))
    with pytest.raises(DimensionError):  # one level given, two located
        ops.ms_deform_attn(values, Tensor(np.zeros((6, 2, 2, 2, 2))),
                           Tensor(np.zeros((6, 2, 2, 2))))


# ---------------------------------------------------------------------------
# linear


def _linear_reference(x, w, b):
    """x @ w + b as a 2-D matmul over x's rows and a broadcast add of the
    bias, two graph nodes."""
    rows = ops.reshape(x, (-1, x.shape[-1]))
    return ops.reshape(ops.add(ops.matmul(rows, w), b), x.shape[:-1] + (w.shape[1],))


@pytest.mark.parametrize("x_shape,b_shape", [((6, 5), (3,)), ((4, 6, 5), (3,))],
                         ids=["2d-vector-bias", "3d-vector-bias"])
def test_linear_is_one_node_matching_matmul_plus_add(x_shape, b_shape):
    rng = np.random.default_rng(32)
    arrays = [rng.normal(size=x_shape), rng.normal(size=(5, 3)), rng.normal(size=b_shape)]
    probe = rng.normal(size=x_shape[:-1] + (3,))
    for dtype in (np.float32, np.float64):
        x, w, b = (Tensor(a.astype(dtype)) for a in arrays)
        assert ops.linear(x, w, b).data.tobytes() == _linear_reference(x, w, b).data.tobytes()
    fused = _with_grads(ops.linear, arrays, probe, np.float64)
    ref = _with_grads(_linear_reference, arrays, probe, np.float64)
    for name, a, r in zip(("out", "dx", "dw", "db"), fused, ref):
        assert a.shape == r.shape, name
        assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), name
    x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
    out = ops.linear(x, w, b)
    assert out.op == "linear" and out._parents == (x, w, b)


def test_linear_shape_errors():
    x, w = Tensor(np.zeros((2, 5))), Tensor(np.zeros((5, 3)))
    for bad in (Tensor(np.zeros(4)), Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 3)))):
        with pytest.raises(DimensionError, match="linear"):
            ops.linear(x, w, bad)
    with pytest.raises(DimensionError, match="linear"):
        ops.linear(Tensor(np.zeros((2, 4))), w, Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# softmax family


def test_softmax_saturation():
    x = Tensor([1000.0, 0.0, 0.0])
    out = ops.softmax(x)
    assert np.allclose(out.data, [1.0, 0.0, 0.0], atol=1e-9)


def test_softmax_uniform():
    for d in (2, 5, 24):
        out = ops.softmax(Tensor(np.zeros(d)))
        assert np.allclose(out.data, 1.0 / d)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=16))
def test_softmax_rows_sum_to_one(values):
    out = ops.softmax(Tensor(np.array(values, dtype=np.float64)))
    assert out.data.min() > 0.0
    assert abs(out.data.sum() - 1.0) < 1e-6


def test_softmax_gradcheck():
    rng = np.random.default_rng(10)
    x = rand_tensor(rng, (4, 6))

    assert grad_check(ops.softmax, [x], eps=1e-6, probe=99) < 1e-6


def test_sum_of_softmax_has_zero_gradient():
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, (5,))
    ops.softmax(x).backward(np.ones(5))  # the gradient of sum(softmax(x))
    assert np.abs(x.grad).max() < 1e-15


# ---------------------------------------------------------------------------
# attention


def _attention_reference(q, k, v, heads):
    """The unfused composition: per head, scaled scores, softmax, then merge."""
    d = q.shape[1] // heads
    ctx = []
    for h in range(heads):
        qh, kh, vh = (ops.narrow(t, 1, h * d, d) for t in (q, k, v))
        scores = ops.scale(ops.matmul(qh, _transpose(kh, (1, 0))), 1.0 / np.sqrt(d))
        ctx.append(ops.matmul(ops.softmax(scores), vh))
    return ops.concat(ctx, axis=1)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_attention_matches_unfused_composition(dtype, tol):
    rng = np.random.default_rng(21)
    n, c, heads = 2 * ops.ATTENTION_ROW_BLOCK + 45, 32, 4  # two full blocks + a partial one
    q, k, v, probe = (rng.normal(size=(n, c)) for _ in range(4))
    fused = _with_grads(lambda *t: ops.attention(*t, heads), (q, k, v), probe, dtype)
    ref = _with_grads(lambda *t: _attention_reference(*t, heads), (q, k, v), probe, dtype)
    for name, a, b in zip(("out", "dq", "dk", "dv"), fused, ref):
        assert a.dtype == dtype, name
        assert np.abs(a - b).max() <= tol * np.abs(b).max(), name


def test_attention_shape_errors():
    with pytest.raises(DimensionError, match="divisible by 3 heads"):
        ops.attention(Tensor(np.zeros((4, 8))), Tensor(np.zeros((4, 8))),
                      Tensor(np.zeros((4, 8))), 3)
    with pytest.raises(DimensionError):
        ops.attention(Tensor(np.zeros((4, 8))), Tensor(np.zeros((5, 8))),
                      Tensor(np.zeros((4, 8))), 2)


def test_attention_floors_shifted_scores_so_no_probability_is_subnormal():
    rng = np.random.default_rng(22)
    n, m, c, heads = ops.ATTENTION_ROW_BLOCK, 64, 8, 2
    d = c // heads
    # float32-representable inputs, so both sides start from the same values;
    # q's scale takes shifted scores to about -200, whose exp is subnormal or
    # 0 in float32
    q, k, v, probe = (rng.normal(size=(r, c)).astype(np.float32).astype(np.float64)
                      for r in (n, m, m, n))
    q *= 32.0
    qh = (q / np.sqrt(d)).reshape(n, heads, d).transpose(1, 0, 2)
    kt = k.reshape(m, heads, d).transpose(1, 2, 0)
    scores = qh @ kt
    shifted = scores - scores.max(axis=-1, keepdims=True)
    assert shifted.min() < np.log(np.finfo(np.float32).tiny) < ops.ATTENTION_SCORE_FLOOR
    e, rowsum = ops._attention_probs(qh.astype(np.float32), kt.astype(np.float32))
    p = e / rowsum
    assert p.dtype == np.float32
    assert p[p != 0].min() >= np.finfo(np.float32).tiny
    # the float32 op and its gradients against the unfused, unfloored float64
    # softmax(q k^T / sqrt(d)) v
    fused = _with_grads(lambda *t: ops.attention(*t, heads), (q, k, v), probe, np.float32)
    unfused = _with_grads(lambda *t: _attention_reference(*t, heads), (q, k, v), probe,
                          np.float64)
    for name, a, b in zip(("out", "dq", "dk", "dv"), fused, unfused):
        assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max(), name


# ---------------------------------------------------------------------------
# stereo correlation


def _correlation_loop(left, right, n_disparities, g):
    """Per-disparity loop reference: the volume and the (left, right)
    gradients for output gradient g."""
    h, w, c = left.shape
    out = np.zeros((h, w, n_disparities), dtype=left.dtype)
    gl, gr = np.zeros_like(left), np.zeros_like(right)
    inv_c = 1.0 / c
    for d in range(min(n_disparities, w)):
        out[:, d:, d] = (left[:, d:, :] * right[:, : w - d, :]).sum(axis=2) * inv_c
        seg = g[:, d:, d, None] * inv_c
        gl[:, d:, :] += seg * right[:, : w - d, :]
        gr[:, : w - d, :] += seg * left[:, d:, :]
    return out, gl, gr


@pytest.mark.parametrize("h,w,c,nd", [(3, 70, 5, 12), (2, 4, 3, 8), (3, 9, 4, 1)],
                         ids=["partial-tile", "more-disparities-than-columns", "one-disparity"])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)],
                         ids=["float64", "float32"])
def test_correlation_volume_matches_per_disparity_loop(dtype, tol, h, w, c, nd):
    rng = np.random.default_rng(31)
    left, right = (rng.normal(size=(h, w, c)).astype(dtype) for _ in range(2))
    g = rng.normal(size=(h, w, nd)).astype(dtype)
    banded = _with_grads(lambda l, r: ops.correlation_volume(l, r, nd), (left, right), g, dtype)
    ref = _correlation_loop(left, right, nd, g)
    for name, a, b in zip(("out", "dleft", "dright"), banded, ref):
        assert a.dtype == dtype, name
        assert np.abs(a - b).max() <= tol * np.abs(b).max(), name


# ---------------------------------------------------------------------------
# remaining operators: identity / symmetry / finite differences


def test_matmul_identity():
    x = Tensor(RNG.normal(size=(4, 4)), dtype=np.float64)
    out = ops.matmul(x, Tensor(np.eye(4), dtype=np.float64))
    assert np.allclose(out.data, x.data)


def test_matmul_shape_error():
    with pytest.raises(DimensionError, match="inner axes"):
        ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_gradcheck():
    rng = np.random.default_rng(13)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 2))

    assert grad_check(ops.matmul, [a, b], eps=1e-6, probe=99) < 1e-6


def test_relu_cases_and_gradcheck():
    x = Tensor([-1.0, 0.0, 2.0])
    assert np.allclose(ops.relu(x).data, [0.0, 0.0, 2.0])
    rng = np.random.default_rng(15)
    # keep values away from the kink
    x = Tensor(np.where(np.abs(v := rng.normal(size=12)) < 0.1, 0.5, v), dtype=np.float64,
               requires_grad=True)
    assert grad_check(ops.relu, [x], probe=99) < 1e-6


def test_add_concat_identity_and_symmetry():
    a = Tensor(RNG.normal(size=(3, 4)), dtype=np.float64)
    z = Tensor(np.zeros((3, 4)), dtype=np.float64)
    assert np.allclose(ops.add(a, z).data, a.data)
    cat = ops.concat([a, z], axis=1)
    assert cat.shape == (3, 8)
    assert np.allclose(cat.data[:, :4], a.data)


def test_concat_gradcheck():
    rng = np.random.default_rng(16)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (2, 2))

    assert grad_check(lambda a_, b_: ops.concat([a_, b_], axis=1), [a, b], probe=99) < 1e-6


def test_upsample2x_values_and_gradcheck():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3, 1))
    up = ops.upsample2x(x)
    assert up.shape == (4, 6, 1)
    assert np.allclose(up.data[0:2, 0:2, 0], 0.0)
    assert np.allclose(up.data[2:4, 4:6, 0], 5.0)
    rng = np.random.default_rng(17)
    xt = rand_tensor(rng, (3, 2, 2))

    assert grad_check(ops.upsample2x, [xt], probe=99) < 1e-6


def test_channel_norm_normalizes_and_gradcheck():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(2.0, 3.0, size=(6, 5, 4)), dtype=np.float64)
    g = Tensor(np.ones(4), dtype=np.float64)
    b = Tensor(np.zeros(4), dtype=np.float64)
    out = ops.channel_norm(x, g, b).data
    assert np.allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-10)
    assert np.allclose(out.std(axis=(0, 1)), 1.0, atol=1e-4)

    xt = rand_tensor(rng, (4, 3, 2))
    gt = rand_tensor(rng, (2,), lo=0.5, hi=1.5)
    bt = rand_tensor(rng, (2,))

    assert grad_check(ops.channel_norm, [xt, gt, bt], eps=1e-6, probe=99) < 1e-6


def test_elementwise_gradchecks():
    rng = np.random.default_rng(19)
    x = rand_tensor(rng, (7,), lo=0.2, hi=2.0)
    y = rand_tensor(rng, (7,), lo=0.2, hi=2.0)
    assert grad_check(ops.add, [x, y], eps=1e-6, probe=99) < 1e-6


def test_shape_op_gradchecks():
    rng = np.random.default_rng(20)
    x = rand_tensor(rng, (3, 4, 2))
    fns = [
        lambda a: ops.reshape(a, (6, 4)),
        lambda a: _transpose(a, (2, 0, 1)),
        lambda a: ops.narrow(a, 1, 1, 2),
        lambda a: ops.take_rows(a, np.array([2, 0, 2])),
    ]
    for f in fns:
        assert grad_check(f, [x], probe=99) < 1e-6


# ---------------------------------------------------------------------------
# losses


def _focal_reference(x, t, alpha, gamma, w):
    """Per-entry focal loss written out in numpy, on sigmoid(x) clipped as the op does."""
    p = np.clip(1.0 / (1.0 + np.exp(-x)), 1e-7, 1.0 - 1e-7)
    pos = -alpha * (1.0 - p) ** gamma * np.log(p)
    neg = -(p ** gamma) * np.log(1.0 - p)
    return w * np.where(t > 0.5, pos, neg)


@pytest.mark.parametrize("alpha, gamma", [(20.0, 2.0), (1.0, 1.0), (0.25, 0.5)])
def test_focal_loss_matches_its_formula_and_clipped_entries_get_no_gradient(alpha, gamma):
    # sigmoid(-16.5) < 1e-7 < sigmoid(-15.5): entries at and beyond +-16.5 are clipped.
    # Unclipped entries stay below 3.5, where 1 - p keeps enough digits for the
    # reference's finite differences.
    x = np.array([-40.0, -20.0, -16.5, -15.5, -3.5, -0.85, 0.0, 0.85, 3.5, 16.5, 40.0,
                  -40.0, -16.5, -15.5, -1.4, 0.4, 2.2, 16.5, 40.0])
    t = np.array([1.0] * 11 + [0.0] * 8)
    w = np.random.default_rng(22).uniform(0.5, 2.0, size=x.shape)
    w[5] = 0.0
    xt = Tensor(x, dtype=np.float64, requires_grad=True)
    loss = ops.focal_loss(xt, t, alpha=alpha, gamma=gamma, weights=w)
    assert loss.item() == pytest.approx(_focal_reference(x, t, alpha, gamma, w).sum(), rel=1e-12)
    loss.backward()
    clipped = np.abs(x) >= 16.5
    assert not xt.grad[clipped].any()
    h = 1e-8
    fd = (_focal_reference(x + h, t, alpha, gamma, w)
          - _focal_reference(x - h, t, alpha, gamma, w)) / (2 * h)
    assert np.allclose(xt.grad[~clipped], fd[~clipped], rtol=1e-6, atol=1e-9)


def test_soft_cross_entropy_matches_its_formula():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 3, 5)), dtype=np.float64, requires_grad=True)
    t = rng.uniform(size=(2, 3, 5))
    t[0] /= t[0].sum(axis=-1, keepdims=True)  # distributions in row 0, not in row 1
    w = rng.uniform(size=(2, 3))
    loss = ops.soft_cross_entropy(x, t, w)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    assert loss.item() == pytest.approx((w * -(t * log_p).sum(axis=-1)).sum(), rel=1e-12)
    assert grad_check(lambda x_: ops.soft_cross_entropy(x_, t, w), [x], eps=1e-6) < 1e-6


def test_soft_cross_entropy_with_zero_weights_is_positive_zero_with_zero_gradient():
    x = Tensor(np.random.default_rng(24).normal(size=(3, 4)), requires_grad=True)
    loss = ops.soft_cross_entropy(x, np.full((3, 4), 0.25), np.zeros(3))
    assert loss.item() == 0.0 and not np.signbit(loss.item())
    loss.backward()
    assert x.grad is not None and not x.grad.any()


@pytest.mark.parametrize("loss_of, shape", [
    (lambda x: ops.focal_loss(x, np.eye(4, 3), alpha=20.0, gamma=2.0, weights=np.ones((4, 3))),
     (4, 3)),
    (lambda x: ops.smooth_l1(x, np.zeros((4, 3)), beta=0.04), (4, 3)),
    (lambda x: stereo_focal_loss(x, np.ones((4, 3)), np.eye(4, 3, dtype=bool), sigma=0.5)[0],
     (4, 3, 5)),
], ids=["focal_loss", "smooth_l1", "stereo_focal_loss"])
def test_each_loss_is_one_graph_node_on_its_input(loss_of, shape):
    """Logits for the two focal losses, residuals for smooth L1."""
    rng = np.random.default_rng(25)
    x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    loss = loss_of(x)
    assert loss.size == 1 and loss.dtype == np.float32
    assert loss._parents == (x,)


# ---------------------------------------------------------------------------
# property: every float64 forward at three shapes passes the fd oracle


@pytest.mark.parametrize("shape", [(3, 4, 2), (5, 2, 3), (2, 7, 1)])
def test_operator_suite_multiple_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    x = rand_tensor(rng, shape)
    k = rand_tensor(rng, (3, 3, shape[-1], 2))

    def f(x_, k_):
        y = ops.conv2d(x_, k_, stride=1, padding=1)
        y = ops.relu(y)
        return ops.softmax(y)

    assert grad_check(f, [x, k], eps=1e-6, probe=99) < 1e-6


def test_grad_check_catches_a_wrong_backward():
    """The oracle itself: a backward off by a factor fails it, the right one passes."""
    def doubled_with_wrong_backward(a):
        def build():
            def bw(g):
                return (3.0 * g,)
            return bw
        return ops.make_node(2.0 * a.data, (a,), "doubled", build)

    x = rand_tensor(np.random.default_rng(3), (4, 3))
    assert grad_check(doubled_with_wrong_backward, [x], probe=5) > 1e-3
    assert grad_check(lambda a: ops.scale(a, 2.0), [x], probe=5) < 1e-6
