"""Backbone contracts: stride arithmetic, weight sharing, receptive fields."""

import numpy as np

from ts3d.backbone import Backbone
from ts3d.tensor import Tensor, no_grad


def _img(rng, w, h):
    return Tensor(rng.uniform(0.0, 1.0, size=(h, w, 3)).astype(np.float32))


def test_full_scale_stride_arithmetic():
    rng = np.random.default_rng(0)
    bb = Backbone(rng, width=4, blocks_per_stage=1).astype(np.float32)
    with no_grad():
        primary, enhanced = bb.forward_view(_img(rng, 1280, 288))
    widths = [f.shape[1] for f in primary]
    heights = [f.shape[0] for f in primary]
    assert widths == [320, 160, 80]
    assert heights == [72, 36, 18]
    assert [f.shape for f in enhanced] == [f.shape for f in primary]


def test_toy_shapes():
    rng = np.random.default_rng(1)
    bb = Backbone(rng, width=8, blocks_per_stage=2).astype(np.float32)
    with no_grad():
        primary, _ = bb.forward_view(_img(rng, 64, 32))
    assert [f.shape for f in primary] == [(8, 16, 8), (4, 8, 8), (2, 4, 8)]


def test_weight_sharing_identical_views():
    rng = np.random.default_rng(2)
    bb = Backbone(rng, width=8, blocks_per_stage=1).astype(np.float32)
    img = _img(rng, 64, 32)
    with no_grad():
        pyr = bb.forward(img, img)
    for l, r in zip(pyr.left_primary, pyr.right_primary):
        assert np.array_equal(l.data, r.data)
    for l, r in zip(pyr.left_enhanced, pyr.right_enhanced):
        assert np.array_equal(l.data, r.data)


def test_swapping_inputs_swaps_outputs_exactly():
    rng = np.random.default_rng(3)
    bb = Backbone(rng, width=8, blocks_per_stage=1).astype(np.float32)
    a, b = _img(rng, 64, 32), _img(rng, 64, 32)
    with no_grad():
        p1 = bb.forward(a, b)
        p2 = bb.forward(b, a)
    for x, y in zip(p1.left_primary, p2.right_primary):
        assert x.data.tobytes() == y.data.tobytes()
    for x, y in zip(p1.right_enhanced, p2.left_enhanced):
        assert x.data.tobytes() == y.data.tobytes()


def test_receptive_fields_nest_across_levels():
    rng = np.random.default_rng(5)
    bb = Backbone(rng, width=8, blocks_per_stage=1).astype(np.float32)
    base = _img(rng, 64, 32)
    bumped = Tensor(base.data.copy())
    bumped.data[16, 40, 1] += 1.0
    with no_grad():
        ref, _ = bb.forward_view(base)
        per, _ = bb.forward_view(bumped)
    masks = [np.any(np.abs(r.data - p.data) > 0, axis=-1) for r, p in zip(ref, per)]
    for lvl in range(2):
        fine, coarse = masks[lvl], masks[lvl + 1]
        ys, xs = np.nonzero(fine)
        assert fine.any()
        # every affected fine cell lies inside an affected coarse cell
        assert coarse[ys // 2, xs // 2].all()
