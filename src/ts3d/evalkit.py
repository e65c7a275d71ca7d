"""Rotated-box IoU (bird's-eye view and 3D) and interpolated average precision.

The scorer reads the ``ObjectLabel`` records that ``read_kitti_label``
returns, so every field of a label line (truncation, occlusion, 2D box) stays
in reach. A BEV box is a label's ground-plane footprint (center x/z, extents
l/w), turned by the camera rotation R_y(ry) as in the KITTI devkit; its
vertical slab is [y - h, y]. The intersection of two footprints is computed
by Sutherland-Hodgman polygon clipping with shoelace areas, skipped when the
boxes' bounding circles are disjoint; the 3D overlap multiplies the footprint
intersection by the vertical overlap. AP is 40-point interpolated, matching
greedily in descending score order with each ground truth claimable once.
``average_precision`` and ``_scored_labels`` check that every label they score
has positive l and w before any pair is matched, so the IoU functions take
their boxes as given.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .config import write_pairs
from .kitti_io import ObjectLabel, label_corners, read_kitti_label


def _check_extents(labels, where: str = "") -> None:
    for lb in labels:
        if not (lb.l > 0 and lb.w > 0):
            raise ValueError(f"{where}degenerate box extents l={lb.l}, w={lb.w}")


def _footprint(lb: ObjectLabel) -> list:
    """Counter-clockwise (x, z) corners of a label's footprint, the bottom of its
    ``label_corners`` (R_y(ry) as in the KITTI devkit's ``toPolygon``)."""
    return [(x, z) for x, _, z in label_corners(lb)[:4]]


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
    area = 0.0
    for (x1, z1), (x2, z2) in zip(poly, poly[1:] + poly[:1]):
        area += x1 * z2 - x2 * z1
    return abs(area) / 2.0


def intersection_area(a: ObjectLabel, b: ObjectLabel) -> float:
    """Footprint overlap of two ``ObjectLabel``s in the x-z plane."""
    # a box lies inside the circle of its half-diagonal: centres farther apart
    # than the two half-diagonals cannot overlap, so skip the clipping
    reach = 0.5 * (math.hypot(a.l, a.w) + math.hypot(b.l, b.w))
    if math.hypot(a.x - b.x, a.z - b.z) > reach:
        return 0.0
    poly = _footprint(a)
    clip = _footprint(b)
    for i in range(4):
        if not poly:
            return 0.0
        poly = _clip_polygon(poly, clip[i], clip[(i + 1) % 4])
    return _polygon_area(poly)


def bev_iou(a: ObjectLabel, b: ObjectLabel) -> float:
    inter = intersection_area(a, b)
    union = a.l * a.w + b.l * b.w - inter
    return inter / union if union > 0 else 0.0


def iou_3d(a: ObjectLabel, b: ObjectLabel) -> float:
    inter_area = intersection_area(a, b)
    # y grows downward: a box spans [y - h, y]
    overlap = min(a.y, b.y) - max(a.y - a.h, b.y - b.h)
    inter = inter_area * max(overlap, 0.0)
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter
    return inter / union if union > 0 else 0.0


# ---------------------------------------------------------------------------
# average precision


N_RECALL_POINTS = 40


def average_precision(predictions, ground_truth, iou_threshold: float,
                      mode: str = "bev"):
    """40-point interpolated AP in percent.

    ``predictions`` and ``ground_truth`` are (frame_id, ObjectLabel) pairs; a
    label without a score scores 1.0. Predictions are matched greedily in
    descending score order; each ground truth can be claimed once. Returns
    (ap, flagged): with no ground truth the AP is undefined and reported as
    (0.0, True).
    """
    if mode not in ("bev", "3d"):
        raise ValueError(f"unknown IoU mode '{mode}'")
    iou_fn = bev_iou if mode == "bev" else iou_3d
    _check_extents(lb for _, lb in itertools.chain(predictions, ground_truth))
    n_gt = len(ground_truth)
    if n_gt == 0:
        return 0.0, True
    by_frame = {}
    for i, (frame, _) in enumerate(ground_truth):
        by_frame.setdefault(frame, []).append(i)
    claimed = [False] * n_gt
    scores = [1.0 if lb.score is None else lb.score for _, lb in predictions]
    order = sorted(range(len(predictions)), key=lambda i: (-scores[i], i))
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        frame, pred = predictions[i]
        best_iou, best_j = 0.0, -1
        for j in by_frame.get(frame, ()):
            if claimed[j]:
                continue
            v = iou_fn(pred, ground_truth[j][1])
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= iou_threshold:
            claimed[best_j] = True
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(order) + 1)
    recall = cum_tp / n_gt
    ap = 0.0
    for k in range(1, N_RECALL_POINTS + 1):
        r = k / N_RECALL_POINTS
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return 100.0 * ap / N_RECALL_POINTS, False


def _scored_labels(path, classes) -> list:
    """The labels of ``path`` whose type is scored, each with positive l and w;
    other types (``DontCare``'s -1 extents) are skipped unchecked."""
    labels = [lb for lb in read_kitti_label(path) if lb.type in classes]
    _check_extents(labels, f"'{path}': ")
    return labels


def evaluate_directories(pred_dir, gt_dir, classes, iou_thresholds,
                         mode: str = "bev", min_box_height: float = 0.0) -> dict:
    """AP per class over every frame present in the prediction directory.

    ``iou_thresholds`` maps class name -> IoU threshold. ``min_box_height``
    is the (single) difficulty gate: ground truths with a shorter 2D box are
    dropped before matching.
    """
    frame_ids = sorted(
        os.path.splitext(f)[0] for f in os.listdir(pred_dir) if f.endswith(".txt")
    )
    if not frame_ids:
        raise ValueError(f"no prediction files in '{pred_dir}'")
    preds = {name: [] for name in classes}
    gts = {name: [] for name in classes}
    for fid in frame_ids:
        for lb in _scored_labels(os.path.join(pred_dir, fid + ".txt"), classes):
            preds[lb.type].append((fid, lb))
        gt_path = os.path.join(gt_dir, fid + ".txt")
        if not os.path.exists(gt_path):
            raise FileNotFoundError(f"ground truth missing for frame {fid}")
        for lb in _scored_labels(gt_path, classes):
            if (lb.box2d[3] - lb.box2d[1]) >= min_box_height:
                gts[lb.type].append((fid, lb))
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
    """One metric=value line per metric, in the flat text of ``config``."""
    write_pairs(path, metrics.items())
