"""Disparity estimation head, block-matching pseudo ground truth, and the
distribution-matching disparity loss.

The head regresses disparity logits from the lowest-resolution stereo
feature. The stride-16 logits feed the positional encoding; two
upsample+conv stages produce stride-4 logits for supervision against a
classical block-matching disparity map (left-right consistency checked).
"""

from __future__ import annotations

import numpy as np

from . import ops
from .layers import Conv2d
from .tensor import Module, Tensor


class DisparityHead(Module):
    """Convolutional trunk at stride 16 plus an upsampling supervision branch."""

    def __init__(self, rng, in_channels, c_disp, dtype=np.float32):
        super().__init__()
        self.trunk1 = Conv2d(rng, in_channels, c_disp, k=3, dtype=dtype)
        self.trunk2 = Conv2d(rng, c_disp, c_disp, k=3, dtype=dtype)
        self.up1 = Conv2d(rng, c_disp, c_disp, k=3, dtype=dtype)
        self.up2 = Conv2d(rng, c_disp, c_disp, k=3, dtype=dtype)

    def forward(self, c3: Tensor):
        """Returns (stride-16 logits for the encoder, stride-4 logits for the loss)."""
        h = ops.relu(self.trunk1.forward(c3))
        logits_q = self.trunk2.forward(h)
        h = ops.relu(self.up1.forward(ops.upsample2x(logits_q)))
        logits_sup = self.up2.forward(ops.upsample2x(h))
        return logits_q, logits_sup


def softargmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Expectation of the bin index under softmax(logits); bounded in [0, D-1]."""
    p = ops.softmax(logits, axis=axis)
    d = logits.shape[axis]
    shape = [1] * logits.ndim
    shape[axis] = d
    bins = Tensor(np.arange(d, dtype=logits.dtype).reshape(shape))
    return ops.sum_(ops.mul(p, bins), axis=axis)


# ---------------------------------------------------------------------------
# block matching (pure numpy, no gradients)


def _box_sums(img: np.ndarray, window: int) -> np.ndarray:
    """Window sums at every position where the full window fits; NaN elsewhere."""
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


def block_match_stereo(img_left, img_right, max_disp: int, window: int = 9,
                       uniqueness: float = 0.001):
    """SAD block matching in both directions with a shared cost volume.

    Returns (disp_left, valid_left, disp_right, valid_right). Validity
    requires a full matching window, an in-frame candidate, a best cost
    that beats the runner-up by ``uniqueness`` per window pixel (kills
    textureless regions), and left-right agreement within 1 px.
    """
    if window % 2 == 0:
        raise ValueError("block matching window must be odd")
    gl = np.asarray(img_left, dtype=np.float64).mean(axis=-1)
    gr = np.asarray(img_right, dtype=np.float64).mean(axis=-1)
    h, w = gl.shape
    max_disp = min(max_disp, w - window)
    cost_l = np.full((max_disp, h, w), np.inf)
    cost_r = np.full((max_disp, h, w), np.inf)
    for d in range(max_disp):
        diff = np.abs(gl[:, d:] - gr[:, : w - d])
        sums = _box_sums(diff, window)
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
            gap = part[1] - part[0]  # inf - inf -> nan, which compares False
        return seen & (gap > margin)

    conf_l = _confident(cost_l)
    conf_r = _confident(cost_r)

    # left-right consistency: the right-view match must map back within 1 px
    us = np.arange(w)[None, :].repeat(h, axis=0)
    vs = np.arange(h)[:, None].repeat(w, axis=1)
    back = np.clip(us - disp_l.astype(np.int64), 0, w - 1)
    agree = np.abs(disp_r[vs, back] - disp_l) <= 1.0
    valid_l = conf_l & agree & conf_r[vs, back]

    fwd = np.clip(us + disp_r.astype(np.int64), 0, w - 1)
    agree_r = np.abs(disp_l[vs, fwd] - disp_r) <= 1.0
    valid_r = conf_r & agree_r & conf_l[vs, fwd]
    return disp_l, valid_l, disp_r, valid_r


# ---------------------------------------------------------------------------
# disparity loss


def disparity_target(gt_disp: np.ndarray, n_bins: int, sigma: float) -> np.ndarray:
    """Unimodal target distribution over bins, peaked at the true disparity.

    P(d) ∝ exp(-|gt - d| / sigma), normalized over the candidate bins.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    d = np.arange(n_bins, dtype=np.float64)
    w = np.exp(-np.abs(gt_disp[..., None] - d) / sigma)
    return (w / w.sum(axis=-1, keepdims=True)).astype(np.float64)


def stereo_focal_loss(logits_sup: Tensor, gt_disp: np.ndarray, valid_mask: np.ndarray,
                      sigma: float = 0.5):
    """Cross-entropy between the predicted bin distribution and the unimodal
    target, averaged over exactly the valid pixels.

    Returns (loss, n_valid); a mask with zero valid pixels yields loss 0 and
    the caller should treat n_valid == 0 as a warning condition. That zero
    stays connected to the logits (x - x is +0.0 with gradient 0), so every
    disparity-head parameter still receives a gradient.
    """
    n_valid = int(valid_mask.sum())
    if n_valid == 0:
        total = ops.sum_(logits_sup)
        return ops.sub(total, total), 0
    target = disparity_target(np.asarray(gt_disp, dtype=np.float64), logits_sup.shape[-1],
                              sigma).astype(logits_sup.dtype)
    log_p = ops.log_softmax(logits_sup, axis=-1)
    per_pixel = ops.neg(ops.sum_(ops.mul(log_p, Tensor(target)), axis=-1))
    masked = ops.mul(per_pixel, Tensor(valid_mask.astype(logits_sup.dtype)))
    loss = ops.scale(ops.sum_(masked), 1.0 / n_valid)
    return loss, n_valid
