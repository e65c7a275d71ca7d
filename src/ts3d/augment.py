"""Stereo-consistent training augmentation.

Photometric jitter (contrast, hue, saturation, brightness) is applied with
identical parameters to both views so matching costs are preserved. The
horizontal flip mirrors both images and swaps the views: the mirrored right
image becomes the new left view of a valid rectified scene with the same
baseline and positive disparities. Boxes mirror about the stereo midline and
yaw flips accordingly. The principal point must sit at the image center for
the calibration to survive the mirror unchanged (the synthesizer guarantees
this).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dataset import FrameData
from .detect import wrap_angle
from .kitti_io import ObjectLabel

_GRAY = np.array([0.299, 0.587, 0.114], dtype=np.float32)
_HUE_AXIS = np.ones(3) / math.sqrt(3.0)


def _hue_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    k = _HUE_AXIS
    cross = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return c * np.eye(3) + s * cross + (1 - c) * np.outer(k, k)


def photometric_jitter(frame: FrameData, rng: np.random.Generator) -> FrameData:
    """Identical color perturbation of both views in a new frame; labels untouched."""
    con = rng.uniform(0.8, 1.25)
    bri = rng.uniform(-0.1, 0.1)
    sat = rng.uniform(0.7, 1.3)
    ang = rng.uniform(-0.15, 0.15)
    mat = _hue_matrix(ang).astype(np.float32)

    def apply(img):
        out = img @ mat.T
        gray = (out @ _GRAY)[..., None]
        out = gray + sat * (out - gray)
        mean = out.mean()
        out = mean + con * (out - mean) + bri
        return np.clip(out, 0.0, 1.0).astype(np.float32)

    return dataclasses.replace(frame, left=apply(frame.left), right=apply(frame.right))


def horizontal_flip(frame: FrameData) -> FrameData:
    """Mirror both images, swap the views, and remap geometry in a new frame.

    New world x' = baseline - x (mirror about the stereo midline), so the old
    right camera becomes the new left origin; yaw maps to pi - ry.
    """
    w = frame.left.shape[1]
    b = frame.calib.baseline
    flipped = []
    for lb in frame.labels:
        x1, y1, x2, y2 = lb.box2d
        box = np.array([(w - 1) - x2, y1, (w - 1) - x1, y2])
        x_new = b - lb.x
        ry_new = wrap_angle(math.pi - lb.ry)
        alpha_new = wrap_angle(ry_new - math.atan2(x_new, lb.z))
        flipped.append(ObjectLabel(
            type=lb.type, truncated=lb.truncated, occluded=lb.occluded,
            alpha=alpha_new, box2d=box, h=lb.h, w=lb.w, l=lb.l,
            x=x_new, y=lb.y, z=lb.z, ry=ry_new, score=lb.score,
        ))
    out = dataclasses.replace(frame, left=frame.right[:, ::-1].copy(),
                              right=frame.left[:, ::-1].copy(), labels=flipped)

    # the mirrored right-view disparity map describes the new left view
    if frame.pseudo_disp is not None:
        out.pseudo_disp = frame.pseudo_disp_right[:, ::-1].copy()
        out.pseudo_valid = frame.pseudo_valid_right[:, ::-1].copy()
        out.pseudo_disp_right = frame.pseudo_disp[:, ::-1].copy()
        out.pseudo_valid_right = frame.pseudo_valid[:, ::-1].copy()
    return out


def augment(frame: FrameData, rng: np.random.Generator,
            flip_probability: float = 0.5) -> FrameData:
    """Jitter, then flip with ``flip_probability``; the input frame is left as is."""
    frame = photometric_jitter(frame, rng)
    if rng.uniform() < flip_probability:
        frame = horizontal_flip(frame)
    return frame
