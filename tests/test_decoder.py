"""Decoder contracts: positional encodings, grid queries, attention layers."""

import tracemalloc

import numpy as np
import pytest

from ts3d import ops
from ts3d.decoder import (
    MHSA,
    MSDeformCA,
    DecoderLayer,
    DecoderStack,
    GridQuery,
    add_positional,
    dape,
    one_hot_disparity_pe,
    reference_points,
    sine_pe_2d,
)
from ts3d.gradcheck import grad_check
from ts3d.tensor import ConfigError, Tensor, no_grad


# ---------------------------------------------------------------------------
# sinusoidal encoding


def test_sine_pe_channel_zero_at_origin():
    pe = sine_pe_2d(6, 4, 16)
    assert pe[0, 0, 0] == 0.0  # sin(0)
    assert pe[:, 0, 0].max() == 0.0  # u-block channel 0 at u=0 everywhere


def test_sine_pe_norm_is_sqrt_half_dims():
    pe = sine_pe_2d(5, 3, 24, dtype=np.float64)
    norms = np.linalg.norm(pe, axis=-1)
    assert np.allclose(norms, np.sqrt(24 / 2), atol=1e-9)


def test_sine_pe_pairwise_distinct():
    pe = sine_pe_2d(16, 12, 8, dtype=np.float64).reshape(-1, 8)
    # exhaustive pairwise distinctness at toy sizes
    diffs = np.linalg.norm(pe[:, None, :] - pe[None, :, :], axis=-1)
    np.fill_diagonal(diffs, 1.0)
    assert diffs.min() > 1e-9


def test_sine_pe_width_must_divide_by_four():
    with pytest.raises(ConfigError):
        sine_pe_2d(4, 4, 10)


# ---------------------------------------------------------------------------
# disparity-aware encoding


def test_dape_widths_and_ordering():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(3, 5, 96)).astype(np.float32))
    pe = dape(logits, c_dec=256)
    assert pe.pe_sine.shape == (3, 5, 160)
    assert pe.pe_disp.shape == (3, 5, 96)
    assert pe.pe_da.shape == (3, 5, 256)
    # concatenation order: sine block first, disparity block last
    assert np.array_equal(pe.pe_da.data[:, :, :160], pe.pe_sine)
    assert np.array_equal(pe.pe_da.data[:, :, 160:], pe.pe_disp.data)


def test_dape_simplex_rows():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(4, 6, 8)), dtype=np.float64)
    pe = dape(logits, c_dec=16)
    sums = pe.pe_disp.data.sum(axis=-1)
    assert np.allclose(sums, 1.0, atol=1e-6)
    assert (pe.pe_disp.data >= 0).all()


def test_dape_saturated_logits_one_hot():
    logits = np.full((2, 2, 6), -1000.0)
    logits[:, :, 4] = 1000.0
    pe = dape(Tensor(logits, dtype=np.float64), c_dec=18)
    expected = np.zeros(6)
    expected[4] = 1.0
    assert np.allclose(pe.pe_disp.data, expected)


def test_dape_same_disparity_same_block_distinct_sine():
    logits = np.zeros((2, 3, 4), dtype=np.float32)
    logits[0, 1] = [3.0, 0.0, -1.0, 0.5]
    logits[1, 2] = [3.0, 0.0, -1.0, 0.5]
    pe = dape(Tensor(logits), c_dec=12)
    assert np.allclose(pe.pe_disp.data[0, 1], pe.pe_disp.data[1, 2])
    assert not np.allclose(pe.pe_sine[0, 1], pe.pe_sine[1, 2])


def test_dape_rejects_wide_disparity_block():
    logits = Tensor(np.zeros((2, 2, 16), dtype=np.float32))
    with pytest.raises(ConfigError):
        dape(logits, c_dec=16)


def test_dape_differentiable_through_logits():
    rng = np.random.default_rng(2)
    logits = Tensor(rng.normal(size=(2, 2, 4)), dtype=np.float64, requires_grad=True)
    probe = Tensor(np.random.default_rng(3).normal(size=(2, 2, 12)), dtype=np.float64)

    def f(lg):
        return ops.sum_(ops.mul(dape(lg, c_dec=12).pe_da, probe))

    assert grad_check(f, [logits], eps=1e-6) < 1e-6


def test_one_hot_pe_block_and_zeros():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(2, 3, 5)).astype(np.float32))
    pe = one_hot_disparity_pe(logits, c_dec=12)
    assert pe.shape == (2, 3, 12)
    assert np.allclose(pe.data[:, :, :7], 0.0)
    block = pe.data[:, :, 7:]
    assert np.allclose(block.sum(axis=-1), 1.0)
    assert np.array_equal(block.argmax(axis=-1), logits.data.argmax(axis=-1))


# ---------------------------------------------------------------------------
# grid queries


def test_query_count_full_scale():
    rng = np.random.default_rng(5)
    gq = GridQuery(rng, in_channels=4, c_dec=8).astype(np.float32)
    feat = Tensor(rng.normal(size=(18, 80, 4)).astype(np.float32))
    with no_grad():
        x_q, refs = gq.forward(feat)
    assert x_q.shape == (1440, 8)
    assert refs.shape == (1440, 2)


def test_query_count_toy():
    rng = np.random.default_rng(6)
    gq = GridQuery(rng, in_channels=3, c_dec=4).astype(np.float32)
    feat = Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32))
    with no_grad():
        x_q, refs = gq.forward(feat)
    assert x_q.shape == (8, 4)


def test_reference_points_grid_centers():
    refs = reference_points(4, 2)
    assert np.allclose(refs[0], [0.5 / 4, 0.5 / 2])
    # query k maps to cell (k mod Wq, k div Wq)
    k = 6
    assert np.allclose(refs[k], [((k % 4) + 0.5) / 4, ((k // 4) + 0.5) / 2])


def test_add_positional_identity_shapes_and_gradient_split():
    rng = np.random.default_rng(7)
    x_q = Tensor(rng.normal(size=(8, 4)), dtype=np.float64, requires_grad=True)
    assert add_positional(x_q, None) is x_q
    zero = Tensor(np.zeros((8, 4)), dtype=np.float64)
    assert np.array_equal(add_positional(x_q, zero).data, x_q.data)
    pe = Tensor(rng.normal(size=(8, 4)), dtype=np.float64, requires_grad=True)
    out = add_positional(x_q, pe)
    assert out.shape == (8, 4)
    probe = np.random.default_rng(8).normal(size=(8, 4))
    ops.sum_(ops.mul(out, Tensor(probe, dtype=np.float64))).backward()
    assert np.array_equal(x_q.grad, pe.grad)  # sum rule: both sides get dL/dQ


# ---------------------------------------------------------------------------
# self-attention


def test_mhsa_single_token_is_value_chain():
    rng = np.random.default_rng(9)
    attn = MHSA(rng, c_dec=8, heads=2)
    x = Tensor(rng.normal(size=(1, 8)), dtype=np.float64)
    with no_grad():
        out = attn.forward(x)
        v = attn.v_proj.forward(x)
        expected = attn.out_proj.forward(v)
    assert np.allclose(out.data, expected.data, atol=1e-12)


def test_mhsa_rows_sum_to_one():
    """With v_proj.w = 0 every value row is v_proj.b, so each output row is
    out_proj(v_proj.b) only if every attention row sums to one."""
    rng = np.random.default_rng(10)
    attn = MHSA(rng, c_dec=12, heads=3)
    attn.v_proj.w.data[:] = 0.0
    attn.v_proj.b.data[:] = rng.normal(size=12)
    x = Tensor(rng.normal(size=(7, 12)), dtype=np.float64)
    with no_grad():
        out = attn.forward(x)
        expected = attn.out_proj.forward(Tensor(attn.v_proj.b.data[None, :]))
    assert out.shape == (7, 12)
    assert np.allclose(out.data, np.broadcast_to(expected.data, (7, 12)), atol=1e-12)


def test_mhsa_rejects_indivisible_width():
    with pytest.raises(ConfigError):
        MHSA(np.random.default_rng(0), c_dec=10, heads=4)


def test_mhsa_gradcheck():
    rng = np.random.default_rng(11)
    attn = MHSA(rng, c_dec=6, heads=2)
    x = Tensor(rng.normal(size=(4, 6)), dtype=np.float64, requires_grad=True)
    probe = Tensor(np.random.default_rng(12).normal(size=(4, 6)), dtype=np.float64)

    def f(x_):
        return ops.sum_(ops.mul(attn.forward(x_), probe))

    assert grad_check(f, [x], eps=1e-6) < 1e-5


def test_mhsa_full_shape_never_holds_the_score_matrix():
    """Full preset: 1440 queries, width 256, 8 heads. The traced peak of one
    no-grad forward stays below a single (8, 1440, 1440) float32 array."""
    n, c, heads = 1440, 256, 8
    rng = np.random.default_rng(13)
    attn = MHSA(rng, c_dec=c, heads=heads).astype(np.float32)
    x = Tensor(rng.normal(size=(n, c)).astype(np.float32))
    score_bytes = heads * n * n * 4
    tracemalloc.start()
    try:
        with no_grad():
            out = attn.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, c)
    assert peak < score_bytes, f"peak {peak / 1e6:.1f} MB >= {score_bytes / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# deformable cross-attention


def _identity_deform(rng, c_dec, heads, points, n_levels):
    mod = MSDeformCA(rng, c_dec, heads, points, n_levels)
    eye = np.eye(c_dec)
    mod.value_proj.w.data[:] = eye
    mod.value_proj.b.data[:] = 0.0
    mod.out_proj.w.data[:] = eye
    mod.out_proj.b.data[:] = 0.0
    return mod


def test_deformable_identity_sampling_bit_exact():
    """Zero offsets + saturated one-hot weight on one level, references on an
    integer grid: the output must equal the sampled feature bit-for-bit."""
    rng = np.random.default_rng(13)
    wq, hq, c = 4, 2, 8
    mod = _identity_deform(rng, c_dec=c, heads=2, points=2, n_levels=1)
    # one-hot the first sampled point of every (head, level)
    bias = np.full((2, 1, 2), -1e4)
    bias[:, :, 0] = 1e4
    mod.weight.b.data[:] = bias.reshape(-1)
    feat = Tensor(rng.normal(size=(hq, wq, c)), dtype=np.float64)
    refs = reference_points(wq, hq, dtype=np.float64)
    q = Tensor(np.zeros((wq * hq, c)), dtype=np.float64)
    with no_grad():
        out = mod.forward(q, refs, [feat])
    expected = feat.data.reshape(-1, c)
    assert out.data.tobytes() == expected.tobytes()


def test_deformable_matches_value_projection_single_query():
    rng = np.random.default_rng(14)
    c = 6
    mod = MSDeformCA(rng, c_dec=c, heads=1, points=1, n_levels=1)
    mod.value_proj.w.data[:] = rng.normal(size=(c, c))
    mod.out_proj.w.data[:] = rng.normal(size=(c, c))
    feat = Tensor(rng.normal(size=(4, 4, c)), dtype=np.float64)
    refs = np.array([[(1 + 0.5) / 4, (2 + 0.5) / 4]])  # integer pixel (1, 2)
    q = Tensor(np.zeros((1, c)), dtype=np.float64)
    with no_grad():
        out = mod.forward(q, refs, [feat])
        value_map = mod.value_proj.forward(ops.reshape(feat, (16, c)))
        expected = mod.out_proj.forward(ops.reshape(
            Tensor(value_map.data.reshape(4, 4, c)[2, 1][None, :]), (1, c)))
    assert np.allclose(out.data, expected.data, atol=1e-12)


def test_deformable_weights_sum_to_one_over_levels_and_points():
    """Constant level maps, read at in-bounds points, come back as that
    constant only if each head's weights sum to one over levels*points."""
    rng = np.random.default_rng(15)
    mod = _identity_deform(rng, c_dec=16, heads=8, points=4, n_levels=3)
    mod.weight.w.data[:] = rng.normal(size=mod.weight.w.data.shape)
    wq, hq = 3, 2
    const = rng.normal(size=16)
    feats = [Tensor(np.broadcast_to(const, (hq * s, wq * s, 16)).copy(), dtype=np.float64)
             for s in (4, 2, 1)]
    q = Tensor(rng.normal(size=(wq * hq, 16)), dtype=np.float64)
    with no_grad():
        out = mod.forward(q, reference_points(wq, hq, np.float64), feats)
    assert np.allclose(out.data, np.broadcast_to(const, (wq * hq, 16)), atol=1e-12)


def _graph_node_count(out: Tensor) -> int:
    seen, stack = {}, [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return sum(t._backward_fn is not None for t in seen.values())


def test_deformable_graph_size_does_not_grow_with_heads():
    """Every head of a level is sampled in one call, so the graph one forward
    records has the same number of nodes for 2 heads as for 8."""
    counts = []
    for heads in (2, 8):
        rng = np.random.default_rng(24)
        mod = MSDeformCA(rng, c_dec=16, heads=heads, points=2, n_levels=3)
        feats = [Tensor(rng.normal(size=(2 * s, 4 * s, 16)), dtype=np.float64,
                        requires_grad=True) for s in (4, 2, 1)]
        q = Tensor(rng.normal(size=(8, 16)), dtype=np.float64, requires_grad=True)
        out = mod.forward(q, reference_points(4, 2, np.float64), feats)
        counts.append(_graph_node_count(out))
    assert counts[0] == counts[1]


def test_deformable_rejects_wrong_level_width():
    rng = np.random.default_rng(16)
    mod = MSDeformCA(rng, c_dec=8, heads=2, points=2, n_levels=1).astype(np.float32)
    q = Tensor(np.zeros((4, 8), dtype=np.float32))
    bad = Tensor(np.zeros((2, 2, 6), dtype=np.float32))
    with pytest.raises(ConfigError, match="channels"):
        mod.forward(q, reference_points(2, 2), [bad])


def test_deformable_gradcheck():
    rng = np.random.default_rng(17)
    mod = MSDeformCA(rng, c_dec=4, heads=2, points=2, n_levels=2)
    # non-degenerate offsets/weights
    mod.offset.w.data[:] = 0.1 * rng.normal(size=mod.offset.w.data.shape)
    mod.weight.w.data[:] = rng.normal(size=mod.weight.w.data.shape)
    refs = reference_points(2, 2, dtype=np.float64)
    q = Tensor(rng.normal(size=(4, 4)), dtype=np.float64, requires_grad=True)
    f1 = Tensor(rng.normal(size=(2, 2, 4)), dtype=np.float64, requires_grad=True)
    f2 = Tensor(rng.normal(size=(4, 4, 4)), dtype=np.float64, requires_grad=True)
    probe = Tensor(np.random.default_rng(18).normal(size=(4, 4)), dtype=np.float64)

    def f(q_, f1_, f2_):
        return ops.sum_(ops.mul(mod.forward(q_, refs, [f1_, f2_]), probe))

    assert grad_check(f, [q, f1, f2], eps=1e-6) < 1e-5


# ---------------------------------------------------------------------------
# decoder layers


def _toy_stack(rng, n_layers, c=8):
    return DecoderStack(rng, n_layers, c_dec=c, heads=2, points=2, n_levels=2,
                        ffn_hidden=2 * c)


def _toy_feats(rng, c=8):
    return [
        Tensor(rng.normal(size=(4, 8, c)), dtype=np.float64),
        Tensor(rng.normal(size=(2, 4, c)), dtype=np.float64),
    ]


def test_stack_returns_one_output_per_layer():
    rng = np.random.default_rng(19)
    for n in (0, 1, 3):
        stack = _toy_stack(rng, n)
        x_q = Tensor(rng.normal(size=(8, 8)), dtype=np.float64)
        with no_grad():
            outs = stack.forward(x_q, None, reference_points(4, 2, np.float64),
                                 _toy_feats(rng))
        assert len(outs) == n


def test_zero_layer_stack_is_passthrough():
    rng = np.random.default_rng(20)
    stack = _toy_stack(rng, 0)
    x_q = Tensor(rng.normal(size=(8, 8)), dtype=np.float64)
    outs = stack.forward(x_q, None, reference_points(4, 2, np.float64), _toy_feats(rng))
    assert outs == []  # caller falls back to the raw queries


def test_positional_encoding_is_sole_depth_channel():
    """With the encoding disabled, scenes differing only in disparity logits
    produce identical decoder outputs; with it enabled they differ."""
    rng = np.random.default_rng(21)
    layer = DecoderLayer(rng, c_dec=8, heads=2, points=2, n_levels=1, ffn_hidden=16)
    feats = [Tensor(rng.normal(size=(2, 4, 8)), dtype=np.float64)]
    refs = reference_points(4, 2, np.float64)
    x_q = Tensor(rng.normal(size=(8, 8)), dtype=np.float64)
    logits_a = Tensor(rng.normal(size=(2, 4, 4)), dtype=np.float64)
    logits_b = Tensor(rng.normal(size=(2, 4, 4)), dtype=np.float64)
    with no_grad():
        none_a = layer.forward(x_q, None, refs, feats)
        none_b = layer.forward(x_q, None, refs, feats)
        pe_a = ops.reshape(dape(logits_a, 8).pe_da, (8, 8))
        pe_b = ops.reshape(dape(logits_b, 8).pe_da, (8, 8))
        da_a = layer.forward(x_q, pe_a, refs, feats)
        da_b = layer.forward(x_q, pe_b, refs, feats)
    assert np.array_equal(none_a.data, none_b.data)
    assert not np.allclose(da_a.data, da_b.data)


def test_decoder_layer_gradcheck():
    rng = np.random.default_rng(22)
    layer = DecoderLayer(rng, c_dec=4, heads=2, points=2, n_levels=1, ffn_hidden=8)
    layer.cross.offset.w.data[:] = 0.1 * rng.normal(size=layer.cross.offset.w.data.shape)
    layer.cross.weight.w.data[:] = rng.normal(size=layer.cross.weight.w.data.shape)
    refs = reference_points(2, 2, np.float64)
    x_q = Tensor(rng.normal(size=(4, 4)), dtype=np.float64, requires_grad=True)
    feat = Tensor(rng.normal(size=(2, 2, 4)), dtype=np.float64, requires_grad=True)
    pe = Tensor(rng.normal(size=(4, 4)), dtype=np.float64, requires_grad=True)
    probe = Tensor(np.random.default_rng(23).normal(size=(4, 4)), dtype=np.float64)

    def f(x_, feat_, pe_):
        return ops.sum_(ops.mul(layer.forward(x_, pe_, refs, [feat_]), probe))

    assert grad_check(f, [x_q, feat, pe], eps=1e-6) < 1e-4
