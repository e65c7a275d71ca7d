"""Cost-volume pyramid: shift recovery, bin preservation, aggregation shapes."""

import numpy as np
import pytest

from ts3d import ops
from ts3d.gradcheck import flat_concat, grad_check
from ts3d.spfpn import SPFPN
from ts3d.tensor import DimensionError, Tensor, no_grad


# ---------------------------------------------------------------------------
# correlation volume


def _shifted_pair(rng, h, w, c, d0):
    """Right view sees the left content d0 pixels further left.

    Feature vectors are unit-normalized so the matching peak dominates
    chance correlations by a fixed margin.
    """
    left = rng.normal(size=(h, w, c))
    left /= np.linalg.norm(left, axis=-1, keepdims=True)
    right = np.empty_like(left)
    right[:, : w - d0, :] = left[:, d0:, :]
    filler = rng.normal(size=(h, d0, c))
    right[:, w - d0 :, :] = filler / np.linalg.norm(filler, axis=-1, keepdims=True)
    return Tensor(left, dtype=np.float64), Tensor(right, dtype=np.float64)


def test_shift_recovery_argmax():
    rng = np.random.default_rng(0)
    hits = total = 0
    for _ in range(20):
        d0 = int(rng.integers(1, 8))
        left, right = _shifted_pair(rng, 10, 40, 8, d0)
        vol = ops.correlation_volume(left, right, 10).data
        # interior: columns where every candidate shift is in frame and the
        # true match is in frame on the right view
        interior = slice(9, 40 - d0)
        best = vol[:, interior, :].argmax(axis=-1)
        hits += (best == d0).sum()
        total += best.size
    assert hits / total >= 0.95


def test_self_correlation_peak_at_zero():
    rng = np.random.default_rng(1)
    feat = rng.normal(size=(6, 20, 5))
    feat /= np.linalg.norm(feat, axis=-1, keepdims=True)  # unit vectors
    t = Tensor(feat, dtype=np.float64)
    vol = ops.correlation_volume(t, t, 8).data
    assert np.allclose(vol[:, :, 0], (feat ** 2).mean(axis=-1))
    # with unit-norm features the zero-shift slice dominates (Cauchy-Schwarz)
    assert (vol[:, :, 0:1] >= vol - 1e-12).all()


def test_out_of_frame_positions_are_zero():
    rng = np.random.default_rng(2)
    left = Tensor(rng.normal(size=(4, 12, 3)), dtype=np.float64)
    right = Tensor(rng.normal(size=(4, 12, 3)), dtype=np.float64)
    vol = ops.correlation_volume(left, right, 6).data
    for d in range(6):
        assert np.allclose(vol[:, :d, d], 0.0)


def test_correlation_gradcheck():
    rng = np.random.default_rng(3)
    left = Tensor(rng.normal(size=(3, 8, 4)), dtype=np.float64, requires_grad=True)
    right = Tensor(rng.normal(size=(3, 8, 4)), dtype=np.float64, requires_grad=True)
    err = grad_check(lambda l, r: ops.correlation_volume(l, r, 5), [left, right], probe=9)
    assert err < 1e-6


def test_disparity_bin_count_edge_cases():
    with pytest.raises(DimensionError):
        ops.correlation_volume(Tensor(np.zeros((2, 4, 2))), Tensor(np.zeros((2, 4, 2))), 0)
    # more bins than columns is allowed; the out-of-frame slices carry no evidence
    rng = np.random.default_rng(3)
    t = Tensor(rng.normal(size=(2, 4, 2)).astype(np.float32))
    vol = ops.correlation_volume(t, t, 6).data
    assert vol.shape == (2, 4, 6)
    assert np.allclose(vol[:, :, 4:], 0.0)


# ---------------------------------------------------------------------------
# intra-scale fusion


def test_fuse_additive_identity_and_commutativity():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(9, 20, 6)), dtype=np.float64)
    z = Tensor(np.zeros((9, 20, 6)), dtype=np.float64)
    assert np.array_equal(ops.add(a, z).data, a.data)
    b = Tensor(rng.normal(size=(9, 20, 6)), dtype=np.float64)
    assert np.array_equal(ops.add(a, b).data, ops.add(b, a).data)


def test_full_scale_volume_shapes():
    # feature grids for a 1280x288 input at strides 4/8/16 with paper bins
    rng = np.random.default_rng(5)
    for (h, w), bins in [((72, 320), 24), ((36, 160), 48), ((18, 80), 96)]:
        l = Tensor(rng.normal(size=(h, w, 4)).astype(np.float32))
        r = Tensor(rng.normal(size=(h, w, 4)).astype(np.float32))
        fused = ops.add(ops.correlation_volume(l, r, bins), ops.correlation_volume(l, r, bins))
        assert fused.shape == (h, w, bins)


# ---------------------------------------------------------------------------
# cross-scale aggregation


def _toy_inits(rng, bins=(4, 6, 8), h=8, w=16, dtype=np.float64):
    out = []
    for lvl, b in enumerate(bins):
        out.append(Tensor(rng.normal(size=(h >> lvl, w >> lvl, b)), dtype=dtype))
    return out


def test_channel_recursion_full_scale_arithmetic():
    rng = np.random.default_rng(6)
    net = SPFPN(rng, bins=(24, 48, 96), c_dec=16, variant="spfpn").astype(np.float32)
    assert net.agg_channels == [24, 72, 168]


def test_single_level_is_identity():
    rng = np.random.default_rng(7)
    net = SPFPN(rng, bins=(4,), c_dec=8, variant="spfpn").astype(np.float32)
    c1 = Tensor(rng.normal(size=(4, 8, 4)).astype(np.float32))
    out = net.cross_scale_aggregate([c1])
    assert len(out) == 1
    assert np.array_equal(out[0].data, c1.data)


def test_concat_order_native_block_first():
    rng = np.random.default_rng(8)
    net = SPFPN(rng, bins=(4, 6, 8), c_dec=8, variant="spfpn").astype(np.float32)
    inits = _toy_inits(rng)
    with no_grad():
        agg = net.cross_scale_aggregate(inits)
    for lvl in (1, 2):
        native = agg[lvl].data[:, :, : inits[lvl].shape[-1]]
        assert np.array_equal(native, inits[lvl].data)


def test_bin_isolation_invariant():
    """Perturbing bin d of one level moves only that native channel, at every level."""
    rng = np.random.default_rng(9)
    net = SPFPN(rng, bins=(4, 6, 8), c_dec=8, variant="spfpn").astype(np.float32)
    base = _toy_inits(rng)
    with no_grad():
        ref = net.cross_scale_aggregate(base)
    for lvl in range(3):
        for d in (0, base[lvl].shape[-1] - 1):
            bumped = [Tensor(t.data.copy()) for t in base]
            hh, ww, _ = bumped[lvl].shape
            bumped[lvl].data[hh // 2, ww // 2, d] += 1.0
            with no_grad():
                out = net.cross_scale_aggregate(bumped)
            n_native = base[lvl].shape[-1]
            diff_native = out[lvl].data[:, :, :n_native] - ref[lvl].data[:, :, :n_native]
            changed = np.nonzero(np.abs(diff_native).sum(axis=(0, 1)))[0]
            assert changed.tolist() == [d]
            # native blocks of the other levels are untouched
            for other in range(3):
                if other == lvl:
                    continue
                n_other = base[other].shape[-1]
                d_other = out[other].data[:, :, :n_other] - ref[other].data[:, :, :n_other]
                assert np.abs(d_other).max() == 0.0


def test_projection_shapes_and_identity_passthrough():
    rng = np.random.default_rng(10)
    net = SPFPN(rng, bins=(4, 6, 8), c_dec=18, variant="spfpn").astype(np.float32)
    inits = _toy_inits(rng, dtype=np.float32)
    with no_grad():
        agg = net.cross_scale_aggregate(inits)
        keys = [ops.linear(*lv) for lv in net.project_scales(agg)]
    assert [k.shape[-1] for k in keys] == [18, 18, 18]
    assert keys[2].shape[:2] == agg[2].shape[:2]
    # identity-initialized 1x1 projection passes through when widths match
    net.project[2].w.data[:] = np.eye(18, dtype=np.float32).reshape(1, 1, 18, 18)
    net.project[2].b.data[:] = 0.0
    with no_grad():
        again = [ops.linear(*lv) for lv in net.project_scales(agg)]
    assert np.allclose(again[2].data, agg[2].data, atol=1e-6)


def test_variant_modes_emit_uniform_width_levels():
    rng = np.random.default_rng(11)
    inits = _toy_inits(rng, dtype=np.float32)
    for variant in ("spfpn", "topdown_fpn", "bifpn_like"):
        net = SPFPN(rng, bins=(4, 6, 8), c_dec=12, variant=variant).astype(np.float32)
        with no_grad():
            agg = net.aggregate(inits)
            keys = [ops.linear(*lv) for lv in net.project_scales(agg)]
        assert len(keys) == 3
        assert all(k.shape[-1] == 12 for k in keys)
        assert [k.shape[:2] for k in keys] == [t.shape[:2] for t in inits]


def test_spfpn_mode_aliases_cross_scale_aggregate():
    rng = np.random.default_rng(12)
    net = SPFPN(rng, bins=(4, 6, 8), c_dec=12, variant="spfpn").astype(np.float32)
    inits = _toy_inits(rng, dtype=np.float32)
    with no_grad():
        a = net.aggregate(inits)
        b = net.cross_scale_aggregate(inits)
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)


def test_pyramid_gradcheck_composite():
    rng = np.random.default_rng(13)
    net = SPFPN(rng, bins=(3, 4), c_dec=5, variant="spfpn")
    left1 = Tensor(rng.normal(size=(4, 6, 3)), dtype=np.float64, requires_grad=True)
    right1 = Tensor(rng.normal(size=(4, 6, 3)), dtype=np.float64, requires_grad=True)

    def f(l1, r1):
        c1 = ops.add(ops.correlation_volume(l1, r1, 3), ops.correlation_volume(l1, r1, 3))
        c2 = Tensor(np.random.default_rng(22).normal(size=(2, 3, 4)), dtype=np.float64)
        agg = net.cross_scale_aggregate([c1, c2])
        return flat_concat([ops.linear(*lv) for lv in net.project_scales(agg)])

    assert grad_check(f, [left1, right1], eps=1e-6, probe=20) < 1e-4


def test_uniform_shift_end_to_end_recovery():
    """A uniform-disparity pair survives fusion with argmax at >= 95% of pixels."""
    rng = np.random.default_rng(14)
    d0 = 3
    left = rng.normal(size=(12, 48, 6))
    left /= np.linalg.norm(left, axis=-1, keepdims=True)
    right = np.zeros_like(left)
    right[:, : 48 - d0, :] = left[:, d0:, :]
    lt, rt = Tensor(left, dtype=np.float64), Tensor(right, dtype=np.float64)
    fused = ops.add(ops.correlation_volume(lt, rt, 8), ops.correlation_volume(lt, rt, 8))
    interior = fused.data[:, 7 : 48 - d0, :]
    frac = (interior.argmax(axis=-1) == d0).mean()
    assert frac >= 0.95
