"""Disparity estimation head, block-matching pseudo ground truth, and the
distribution-matching disparity loss.

The head regresses disparity logits from the lowest-resolution stereo
feature. The stride-16 logits feed the positional encoding on every forward
pass. Only the training loss builds the two upsample+conv stages that turn
them into stride-4 logits, supervised against a classical block-matching
disparity map: winner-take-all SAD matching that
streams over the disparities keeping a running best cost, runner-up and best
disparity per pixel (no cost volume), a uniqueness test between best and
runner-up, and a left-right consistency check.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .layers import Conv2d
from .tensor import Module, Tensor


class DisparityHead(Module):
    """Convolutional trunk at stride 16 plus an upsampling supervision branch."""

    def __init__(self, rng, in_channels, c_disp):
        super().__init__()
        self.trunk1 = Conv2d(rng, in_channels, c_disp, k=3)
        self.trunk2 = Conv2d(rng, c_disp, c_disp, k=3)
        self.up1 = Conv2d(rng, c_disp, c_disp, k=3)
        self.up2 = Conv2d(rng, c_disp, c_disp, k=3)

    def forward(self, c3: Tensor) -> Tensor:
        """Stride-16 logits for the positional encoding."""
        return self.trunk2.forward(ops.relu(self.trunk1.forward(c3)))

    def supervision_logits(self, logits_q: Tensor) -> Tensor:
        """Stride-4 logits for the disparity loss, from the stride-16 logits."""
        h = ops.relu(self.up1.forward(ops.upsample2x(logits_q)))
        return self.up2.forward(ops.upsample2x(h))


def softargmax(logits: Tensor) -> Tensor:
    """Expectation of the bin index under softmax(logits) over the last axis
    (D bins), as a linear map onto the (D, 1) bin column; bounded in [0, D-1]."""
    d = logits.shape[-1]
    bins = Tensor(np.arange(d, dtype=logits.dtype).reshape(d, 1))
    p = ops.softmax(logits)
    return ops.reshape(ops.linear(p, bins, Tensor(np.zeros(1, dtype=logits.dtype))),
                       logits.shape[:-1])


# ---------------------------------------------------------------------------
# block matching (pure numpy, no gradients)


def _box_sums(img: np.ndarray, window: int) -> np.ndarray:
    """Window sums at every position where the full window fits (the valid core)."""
    h, w = img.shape
    ii = np.zeros((h + 1, w + 1), dtype=np.float64)
    ii[1:, 1:] = img.cumsum(axis=0).cumsum(axis=1)
    return (
        ii[window:, window:]
        - ii[:-window, window:]
        - ii[window:, :-window]
        + ii[:-window, :-window]
    )


def block_match_stereo(img_left, img_right, max_disp: int, window: int):
    """SAD block matching in both directions, winner-take-all with a
    uniqueness test.

    One pass over the disparities keeps a running best cost, runner-up and
    best disparity per pixel of each view, so memory does not grow with
    ``max_disp``. Returns (disp_left, valid_left, disp_right, valid_right).
    Validity requires a full matching window, an in-frame candidate, a best
    cost that beats the runner-up by 0.001 per window pixel (kills
    textureless regions), and left-right agreement within 1 px. An even
    window, a window outside [1, image height] or an empty disparity range
    raises ``ValueError``.
    """
    if window % 2 == 0:
        raise ValueError("block matching window must be odd")
    gl = np.asarray(img_left, dtype=np.float64).mean(axis=-1)
    gr = np.asarray(img_right, dtype=np.float64).mean(axis=-1)
    h, w = gl.shape
    if not 1 <= window <= h:
        raise ValueError(f"block matching window={window} does not fit the image height "
                         f"{h} (needs 1 <= window <= height)")
    n_disp = min(max_disp, w - window)
    if n_disp < 1:
        raise ValueError(f"block matching has no disparity to test: max_disp={max_disp}, "
                         f"window={window}, image width {w} (needs max_disp >= 1 and "
                         f"window < width)")
    r = window // 2
    # axis 0: left view, right view
    best = np.full((2, h, w), np.inf)
    second = np.full((2, h, w), np.inf)
    arg = np.zeros((2, h, w), dtype=np.int64)
    for d in range(n_disp):
        cost = _box_sums(np.abs(gl[:, d:] - gr[:, : w - d]), window)
        for view, cols in enumerate((slice(d + r, w - r), slice(r, w - d - r))):
            b, s, a = (x[view, r : h - r, cols] for x in (best, second, arg))
            np.minimum(s, cost, out=s)  # a tie makes the runner-up equal the best
            better = cost < b  # strict: a tie keeps the earlier disparity
            np.copyto(s, b, where=better)
            np.copyto(b, cost, where=better)
            a[better] = d
    disp = arg.astype(np.float32)
    with np.errstate(invalid="ignore"):  # inf - inf -> nan, which compares False
        conf = np.isfinite(best) & (second - best > 0.001 * window * window)

    # left-right consistency: the match in the other view must map back within 1 px
    us = np.arange(w)
    partner = np.clip(np.stack([us - arg[0], us + arg[1]]), 0, w - 1)
    agree = np.abs(np.take_along_axis(disp[::-1], partner, axis=2) - disp) <= 1.0
    valid = conf & agree & np.take_along_axis(conf[::-1], partner, axis=2)
    return disp[0], valid[0], disp[1], valid[1]


# ---------------------------------------------------------------------------
# disparity loss


def disparity_target(gt_disp: np.ndarray, n_bins: int, sigma: float) -> np.ndarray:
    """Unimodal target distribution over bins, peaked at the true disparity.

    P(d) ∝ exp(-|gt - d| / sigma), normalized over the candidate bins.
    """
    d = np.arange(n_bins, dtype=np.float64)
    w = np.exp(-np.abs(gt_disp[..., None] - d) / sigma)
    return (w / w.sum(axis=-1, keepdims=True)).astype(np.float64)


def stereo_focal_loss(logits_sup: Tensor, gt_disp: np.ndarray, valid_mask: np.ndarray,
                      sigma: float):
    """Cross-entropy between the predicted bin distribution and the unimodal
    target, averaged over exactly the valid pixels: one ``soft_cross_entropy``
    node weighted by mask / n_valid.

    Returns (loss, n_valid); the caller should treat n_valid == 0 as a warning
    condition. Then every weight is zero, so the loss is +0.0 and every logit
    still receives a (zero) gradient.
    """
    n_valid = int(valid_mask.sum())
    target = disparity_target(np.asarray(gt_disp, dtype=np.float64), logits_sup.shape[-1],
                              sigma)
    weights = valid_mask / max(n_valid, 1)
    return ops.soft_cross_entropy(logits_sup, target, weights), n_valid
