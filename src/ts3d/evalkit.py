"""Rotated-box IoU (bird's-eye view and 3D) and interpolated average precision.

BEV boxes are ground-plane footprints (center x/z, extents l/w, yaw). The
intersection of two rotated rectangles is computed by Sutherland-Hodgman
polygon clipping with shoelace areas, skipped when the boxes' bounding
circles are disjoint; the 3D overlap multiplies the footprint intersection by
the vertical overlap. AP is 40-point interpolated, matching greedily in
descending score order with each ground truth claimable once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class RotatedBox:
    """Footprint: center (x, z), extents (l, w), yaw theta. The optional
    vertical slab (y_bottom, h) enables the 3D overlap (y grows downward)."""

    x: float
    z: float
    l: float
    w: float
    theta: float
    y: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        if self.l <= 0 or self.w <= 0:
            raise ValueError(f"degenerate box extents l={self.l}, w={self.w}")

    def corners(self) -> np.ndarray:
        """Counter-clockwise corners in the x-z plane."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        dx = np.array([0.5, -0.5, -0.5, 0.5]) * self.l
        dz = np.array([0.5, 0.5, -0.5, -0.5]) * self.w
        return np.stack([self.x + dx * c - dz * s, self.z + dx * s + dz * c], axis=1)


def _clip_polygon(poly, a, b):
    """Keep the part of ``poly`` on the left of directed edge a->b."""
    ex, ez = b[0] - a[0], b[1] - a[1]

    def side(p):
        return ex * (p[1] - a[1]) - ez * (p[0] - a[0])

    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp, sq = side(p), side(q)
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    area = 0.0
    n = len(poly)
    for i in range(n):
        x1, z1 = poly[i]
        x2, z2 = poly[(i + 1) % n]
        area += x1 * z2 - x2 * z1
    return abs(area) / 2.0


def intersection_area(a: RotatedBox, b: RotatedBox) -> float:
    # a box lies inside the circle of its half-diagonal: centres farther apart
    # than the two half-diagonals cannot overlap, so skip the clipping
    reach = 0.5 * (math.hypot(a.l, a.w) + math.hypot(b.l, b.w))
    if math.hypot(a.x - b.x, a.z - b.z) > reach:
        return 0.0
    poly = [tuple(p) for p in a.corners()]
    clip = [tuple(p) for p in b.corners()]
    for i in range(4):
        if not poly:
            return 0.0
        poly = _clip_polygon(poly, clip[i], clip[(i + 1) % 4])
    return _polygon_area(poly)


def bev_iou(a: RotatedBox, b: RotatedBox) -> float:
    inter = intersection_area(a, b)
    union = a.l * a.w + b.l * b.w - inter
    return inter / union if union > 0 else 0.0


def iou_3d(a: RotatedBox, b: RotatedBox) -> float:
    inter_area = intersection_area(a, b)
    # y grows downward: a box spans [y - h, y]
    overlap = min(a.y, b.y) - max(a.y - a.h, b.y - b.h)
    inter = inter_area * max(overlap, 0.0)
    vol_a = a.l * a.w * a.h
    vol_b = b.l * b.w * b.h
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0


# ---------------------------------------------------------------------------
# average precision


@dataclass
class EvalBox:
    frame: str
    box: RotatedBox
    score: float = 1.0


N_RECALL_POINTS = 40


def average_precision(predictions, ground_truth, iou_threshold: float,
                      mode: str = "bev"):
    """40-point interpolated AP in percent.

    Predictions are matched greedily in descending score order; each ground
    truth can be claimed once. Returns (ap, flagged): with no ground truth
    the AP is undefined and reported as (0.0, True).
    """
    if mode not in ("bev", "3d"):
        raise ValueError(f"unknown IoU mode '{mode}'")
    iou_fn = bev_iou if mode == "bev" else iou_3d
    n_gt = len(ground_truth)
    if n_gt == 0:
        return 0.0, True
    by_frame = {}
    for i, gt in enumerate(ground_truth):
        by_frame.setdefault(gt.frame, []).append(i)
    claimed = [False] * n_gt
    order = sorted(range(len(predictions)),
                   key=lambda i: (-predictions[i].score, i))
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        pred = predictions[i]
        best_iou, best_j = 0.0, -1
        for j in by_frame.get(pred.frame, ()):
            if claimed[j]:
                continue
            v = iou_fn(pred.box, ground_truth[j].box)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= iou_threshold:
            claimed[best_j] = True
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(order) + 1)
    precision = cum_tp / ranks if len(order) else np.zeros(0)
    recall = cum_tp / n_gt if len(order) else np.zeros(0)
    ap = 0.0
    for k in range(1, N_RECALL_POINTS + 1):
        r = k / N_RECALL_POINTS
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return 100.0 * ap / N_RECALL_POINTS, False


def label_to_evalbox(lb, frame_id: str) -> EvalBox:
    return EvalBox(
        frame=frame_id,
        box=RotatedBox(x=lb.x, z=lb.z, l=lb.l, w=lb.w, theta=lb.ry, y=lb.y, h=lb.h),
        score=1.0 if lb.score is None else lb.score,
    )


def evaluate_directories(pred_dir, gt_dir, classes, iou_thresholds,
                         mode: str = "bev", min_box_height: float = 0.0) -> dict:
    """AP per class over every frame present in the prediction directory.

    ``iou_thresholds`` maps class name -> IoU threshold. ``min_box_height``
    is the (single) difficulty gate: ground truths with a shorter 2D box are
    dropped before matching.
    """
    import os

    from .kitti_io import read_kitti_label

    frame_ids = sorted(
        os.path.splitext(f)[0] for f in os.listdir(pred_dir) if f.endswith(".txt")
    )
    if not frame_ids:
        raise ValueError(f"no prediction files in '{pred_dir}'")
    preds = {name: [] for name in classes}
    gts = {name: [] for name in classes}
    for fid in frame_ids:
        for lb in read_kitti_label(os.path.join(pred_dir, fid + ".txt")):
            if lb.type in preds:
                preds[lb.type].append(label_to_evalbox(lb, fid))
        gt_path = os.path.join(gt_dir, fid + ".txt")
        if not os.path.exists(gt_path):
            raise FileNotFoundError(f"ground truth missing for frame {fid}")
        for lb in read_kitti_label(gt_path):
            if lb.type in gts and (lb.box2d[3] - lb.box2d[1]) >= min_box_height:
                gts[lb.type].append(label_to_evalbox(lb, fid))
    metrics = {"frames": len(frame_ids), "mode": mode}
    for name in classes:
        thr = iou_thresholds[name]
        ap, flagged = average_precision(preds[name], gts[name], thr, mode=mode)
        metrics[f"ap_{mode}_{name}_iou{thr:g}"] = round(ap, 6)
        metrics[f"n_gt_{name}"] = len(gts[name])
        metrics[f"n_pred_{name}"] = len(preds[name])
        if flagged:
            metrics[f"undefined_{name}"] = 1
    return metrics


def write_report(path, metrics: dict) -> None:
    """Line-delimited metric=value text."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in metrics.items():
            fh.write(f"{k}={v}\n")


def read_report(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            k, v = line.split("=", 1)
            out[k] = v
    return out
