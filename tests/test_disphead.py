"""Disparity head, block matching, and the distribution-matching loss."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ts3d.disphead import (
    DisparityHead,
    block_match_stereo,
    disparity_target,
    softargmax,
    stereo_focal_loss,
)
from ts3d.gradcheck import grad_check
from ts3d.synth import SynthParams, synth_scene
from ts3d.tensor import Tensor, no_grad

# direct evaluation of exp(-|1 - d| / 0.5) over bins {0..3}, normalized
GOLDEN_TARGET_D4 = np.array(
    [0.104993585404, 0.775803492574, 0.104993585404, 0.014209336619]
)
GOLDEN_ENTROPY_D4 = 0.7306677101744152


def _log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# softargmax


def test_softargmax_saturated_one_hot():
    logits = np.full(8, -1000.0)
    logits[5] = 1000.0
    out = softargmax(Tensor(logits, dtype=np.float64))
    assert abs(out.item() - 5.0) < 1e-6


def test_softargmax_uniform_24():
    out = softargmax(Tensor(np.zeros(24), dtype=np.float64))
    assert abs(out.item() - 11.5) < 1e-9


def test_softargmax_equal_mass_two_bins():
    logits = np.full(6, -1000.0)
    logits[2] = 10.0
    logits[4] = 10.0
    out = softargmax(Tensor(logits, dtype=np.float64))
    assert abs(out.item() - 3.0) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-80, 80), min_size=2, max_size=12))
def test_softargmax_bounded(values):
    d = len(values)
    out = softargmax(Tensor(np.array(values, dtype=np.float64)))
    assert -1e-9 <= out.item() <= d - 1 + 1e-9


def test_softargmax_gradcheck():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 5)), dtype=np.float64, requires_grad=True)
    assert grad_check(softargmax, [x], eps=1e-6, probe=1) < 1e-6


# ---------------------------------------------------------------------------
# block matching


def _textured(rng, h, w):
    base = rng.uniform(0.1, 0.9, size=(h // 4 + 2, w // 4 + 2))
    up = np.kron(base, np.ones((4, 4)))[:h, :w]
    fine = rng.uniform(-0.1, 0.1, size=(h, w))
    img = np.clip(up + fine, 0.0, 1.0)
    return np.repeat(img[:, :, None], 3, axis=2)


def test_block_match_constant_shift():
    rng = np.random.default_rng(2)
    d0 = 5
    left = _textured(rng, 48, 96)
    right = np.empty_like(left)
    right[:, : 96 - d0] = left[:, d0:]
    right[:, 96 - d0 :] = _textured(rng, 48, d0)
    disp, valid, _, _ = block_match_stereo(left, right, max_disp=12, window=9)
    assert valid.sum() > 0.3 * valid.size
    assert (disp[valid] == d0).mean() >= 0.90


def test_block_match_textureless_mostly_invalid():
    img = np.full((40, 60, 3), 0.5)
    _, valid, _, _ = block_match_stereo(img, img, max_disp=10, window=9)
    assert valid.mean() < 0.1


def test_block_match_even_window_rejected():
    img = np.zeros((16, 16, 3))
    with pytest.raises(ValueError):
        block_match_stereo(img, img, max_disp=4, window=8)


@pytest.mark.parametrize("max_disp,window", [(0, 9), (-3, 3), (4, 17), (4, 19)])
def test_block_match_empty_disparity_range_rejected(max_disp, window):
    img = np.zeros((24, 16, 3))
    with pytest.raises(ValueError) as info:
        block_match_stereo(img, img, max_disp=max_disp, window=window)
    msg = str(info.value)
    assert f"max_disp={max_disp}" in msg and f"window={window}" in msg and "width 16" in msg


@pytest.mark.parametrize("window", [-1, 25, 33])
def test_block_match_window_outside_the_image_height_rejected(window):
    img = np.zeros((24, 48, 3))
    with pytest.raises(ValueError) as info:
        block_match_stereo(img, img, max_disp=4, window=window)
    msg = str(info.value)
    assert f"window={window}" in msg and "height 24" in msg


def test_block_match_window_of_the_image_height_matches_the_middle_row():
    img = _textured(np.random.default_rng(5), 23, 48)
    disp, valid, _, _ = block_match_stereo(img, img, max_disp=4, window=23)
    assert disp.shape == (23, 48)
    assert valid[11].any() and not valid[:11].any() and not valid[12:].any()


def test_block_match_one_disparity_at_the_width_limit():
    # window = width - 1 leaves exactly one disparity to test
    img = _textured(np.random.default_rng(4), 24, 16)
    disp, _, disp_r, _ = block_match_stereo(img, img, max_disp=4, window=15)
    assert not disp.any() and not disp_r.any()


# The two-volume matcher this module used before the streaming one, kept as
# the reference: (max_disp, H, W) cost volumes, argmin, np.partition.


def _reference_box_sums(img, window):
    h, w = img.shape
    r = window // 2
    ii = np.zeros((h + 1, w + 1), dtype=np.float64)
    ii[1:, 1:] = img.cumsum(axis=0).cumsum(axis=1)
    out = np.full((h, w), np.nan)
    core = (
        ii[window:, window:]
        - ii[:-window, window:]
        - ii[window:, :-window]
        + ii[:-window, :-window]
    )
    out[r : h - r, r : w - r] = core
    return out


def _reference_block_match(img_left, img_right, max_disp, window=9, uniqueness=0.001):
    gl = np.asarray(img_left, dtype=np.float64).mean(axis=-1)
    gr = np.asarray(img_right, dtype=np.float64).mean(axis=-1)
    h, w = gl.shape
    max_disp = min(max_disp, w - window)
    cost_l = np.full((max_disp, h, w), np.inf)
    cost_r = np.full((max_disp, h, w), np.inf)
    for d in range(max_disp):
        diff = np.abs(gl[:, d:] - gr[:, : w - d])
        sums = _reference_box_sums(diff, window)
        ok = ~np.isnan(sums)
        cl = cost_l[d]
        cl[:, d:][ok] = sums[ok]
        cr = cost_r[d]
        cr[:, : w - d][ok] = sums[ok]
    disp_l = cost_l.argmin(axis=0).astype(np.float32)
    disp_r = cost_r.argmin(axis=0).astype(np.float32)
    margin = uniqueness * window * window

    def _confident(cost):
        part = np.partition(cost, 1, axis=0) if cost.shape[0] > 1 else None
        best = cost.min(axis=0)
        seen = np.isfinite(best)
        if part is None:
            return seen
        with np.errstate(invalid="ignore"):
            gap = part[1] - part[0]
        return seen & (gap > margin)

    conf_l = _confident(cost_l)
    conf_r = _confident(cost_r)
    us = np.arange(w)[None, :].repeat(h, axis=0)
    vs = np.arange(h)[:, None].repeat(w, axis=1)
    back = np.clip(us - disp_l.astype(np.int64), 0, w - 1)
    agree = np.abs(disp_r[vs, back] - disp_l) <= 1.0
    valid_l = conf_l & agree & conf_r[vs, back]
    fwd = np.clip(us + disp_r.astype(np.int64), 0, w - 1)
    agree_r = np.abs(disp_l[vs, fwd] - disp_r) <= 1.0
    valid_r = conf_r & agree_r & conf_l[vs, fwd]
    return disp_l, valid_l, disp_r, valid_r


def _desk_pair(seed):
    frame = synth_scene(seed, SynthParams())  # 256 x 128, the desk preset's size
    return frame.left, frame.right


def _binary_pair(seed=3):
    # {0, 1} pixels: every 3x3 SAD is an integer, so costs tie exactly and often
    bits = np.random.default_rng(seed).integers(0, 2, size=(24, 48)).astype(np.float64)
    left = np.repeat(bits[:, :, None], 3, axis=2)
    right = np.zeros_like(left)
    right[:, :45] = left[:, 3:]
    return left, right


@pytest.mark.parametrize("pair,max_disp,window", [
    (lambda: _desk_pair(7), 96, 9),
    (lambda: _desk_pair(8), 96, 9),
    (lambda: _desk_pair(9), 96, 9),
    (lambda: _desk_pair(10), 1, 9),
    (lambda: tuple(v[:40, :64] for v in _desk_pair(11)), 80, 7),  # max_disp > w - window
    (lambda: (np.full((32, 60, 3), 0.5),) * 2, 10, 9),  # textureless
    (_binary_pair, 5, 3),
], ids=["desk7", "desk8", "desk9", "max_disp1", "beyond_width", "constant", "binary_ties"])
def test_block_match_equals_two_volume_reference(pair, max_disp, window):
    left, right = pair()
    got = block_match_stereo(left, right, max_disp=max_disp, window=window)
    want = _reference_block_match(left, right, max_disp=max_disp, window=window)
    for g, e in zip(got, want):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert np.array_equal(g, e)


def test_block_match_memory_does_not_grow_with_max_disp():
    left, right = _desk_pair(7)

    def peak(max_disp):
        tracemalloc.start()
        try:
            block_match_stereo(left, right, max_disp=max_disp, window=9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(96) <= 1.25 * peak(8)


# ---------------------------------------------------------------------------
# target distribution and loss


def test_target_matches_direct_evaluation():
    target = disparity_target(np.array(1.0), n_bins=4, sigma=0.5)
    assert np.allclose(target, GOLDEN_TARGET_D4, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 23.0),
    st.floats(0.05, 4.0),
)
def test_target_normalized_for_all_sigma(gt, sigma):
    target = disparity_target(np.array(gt), n_bins=24, sigma=sigma)
    assert abs(target.sum() - 1.0) < 1e-6
    assert (target >= 0).all()


def test_target_sigma_to_zero_limit_one_hot():
    target = disparity_target(np.array(2.0), n_bins=6, sigma=1e-3)
    expected = np.zeros(6)
    expected[2] = 1.0
    assert np.allclose(target, expected, atol=1e-12)


def test_loss_at_target_equals_entropy():
    logits = Tensor(np.log(GOLDEN_TARGET_D4)[None, None, :], dtype=np.float64)
    gt = np.array([[1.0]])
    mask = np.array([[True]])
    loss, n = stereo_focal_loss(logits, gt, mask, sigma=0.5)
    assert n == 1
    assert abs(loss.item() - GOLDEN_ENTROPY_D4) < 1e-9


def test_loss_gibbs_inequality():
    # entropy is the minimum: any other prediction scores worse
    rng = np.random.default_rng(3)
    gt = np.array([[1.0]])
    mask = np.array([[True]])
    for _ in range(10):
        logits = Tensor(rng.normal(size=(1, 1, 4)), dtype=np.float64)
        loss, _ = stereo_focal_loss(logits, gt, mask, sigma=0.5)
        assert loss.item() >= GOLDEN_ENTROPY_D4 - 1e-12


def test_loss_masked_mean_uses_exact_valid_count():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(2, 3, 5)), dtype=np.float64)
    gt = rng.uniform(0, 4, size=(2, 3))
    mask = np.zeros((2, 3), dtype=bool)
    mask[0, 1] = True
    mask[1, 2] = True
    loss, n = stereo_focal_loss(logits, gt, mask, sigma=0.5)
    assert n == 2
    per = []
    for (i, j) in [(0, 1), (1, 2)]:
        t = disparity_target(np.array(gt[i, j]), 5, 0.5)
        lp = _log_softmax(logits.data[i, j])
        per.append(-(t * lp).sum())
    assert abs(loss.item() - np.mean(per)) < 1e-12


def test_loss_zero_valid_pixels_flagged():
    logits = Tensor(np.zeros((2, 2, 4)))
    loss, n = stereo_focal_loss(logits, np.zeros((2, 2)), np.zeros((2, 2), dtype=bool),
                                sigma=0.5)
    assert n == 0
    assert loss.item() == 0.0


def test_loss_zero_valid_pixels_gives_zero_gradient():
    logits = Tensor(np.random.default_rng(6).normal(size=(2, 2, 4)), requires_grad=True)
    loss, _ = stereo_focal_loss(logits, np.zeros((2, 2)), np.zeros((2, 2), dtype=bool),
                                sigma=0.5)
    loss.backward()
    assert logits.grad is not None and not logits.grad.any()


def test_loss_permutation_covariant():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(1, 1, 6))
    gt = np.array([[2.5]])
    target = disparity_target(gt, 6, 0.5)
    perm = rng.permutation(6)

    def ce(lg, tg):
        lp = _log_softmax(lg)
        return -(tg * lp).sum()

    assert abs(ce(logits, target) - ce(logits[..., perm], target[..., perm])) < 1e-12


def test_loss_gradcheck():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
    gt = rng.uniform(0, 3, size=(2, 3))
    mask = rng.uniform(size=(2, 3)) > 0.4

    def f(lg):
        loss, _ = stereo_focal_loss(lg, gt, mask, sigma=0.5)
        return loss

    assert grad_check(f, [logits], eps=1e-6) < 1e-6


# ---------------------------------------------------------------------------
# head wiring


def test_head_resolutions():
    rng = np.random.default_rng(7)
    head = DisparityHead(rng, in_channels=10, c_disp=6).astype(np.float32)
    c3 = Tensor(rng.normal(size=(4, 8, 10)).astype(np.float32))
    with no_grad():
        logits_q = head.forward(c3)
        logits_sup = head.supervision_logits(logits_q)
    assert logits_q.shape == (4, 8, 6)
    assert logits_sup.shape == (16, 32, 6)


def test_full_scale_supervision_extents():
    # 1280x288 input -> stride-16 logits 80x18 -> stride-4 supervision 320x72
    rng = np.random.default_rng(8)
    head = DisparityHead(rng, in_channels=4, c_disp=4).astype(np.float32)
    c3 = Tensor(rng.normal(size=(18, 80, 4)).astype(np.float32))
    with no_grad():
        logits_q = head.forward(c3)
        logits_sup = head.supervision_logits(logits_q)
    assert logits_q.shape[:2] == (18, 80)
    assert logits_sup.shape[:2] == (72, 320)


def test_gradient_flows_back_to_stereo_feature():
    rng = np.random.default_rng(9)
    head = DisparityHead(rng, in_channels=5, c_disp=4)
    c3 = Tensor(rng.normal(size=(2, 4, 5)), dtype=np.float64, requires_grad=True)
    logits_sup = head.supervision_logits(head.forward(c3))
    gt = rng.uniform(0, 3, size=logits_sup.shape[:2])
    mask = np.ones(logits_sup.shape[:2], dtype=bool)
    loss, _ = stereo_focal_loss(logits_sup, gt, mask, sigma=0.5)
    loss.backward()
    assert c3.grad is not None
    assert np.abs(c3.grad).max() > 0
