"""Anchors, target assignment, box coding, detection losses, and 2D NMS.

Anchors tile the stride-16 query grid; their centers coincide with the
decoder reference points. Each anchor carries a 2D box template plus 3D
priors (mean distance and mean metric size, estimated from training labels).
The regression head predicts a 13-dim offset vector per anchor:

    (du2d, dv2d, dw2d, dh2d, du3d, dv3d, dz, dw, dh, dl, sin2a, cos2a, c_a)

Positions are offsets relative to the anchor box, sizes and distance are
log-ratios against the priors, and orientation encodes the viewing-angle
footprint (period pi) with c_a selecting between the two quarter-turn
branches.

The KITTI ``ObjectLabel`` is the only per-object record: ``build_targets``
reads a frame's labels and computes every target as arrays (one row per
positive anchor), and ``decode_detections`` returns scored labels ready to
be written as a KITTI detection file.

Per layer the loss is ``ops.focal_loss`` on class scores, ``ops.smooth_l1`` on
the offsets and ``ops.focal_loss`` (alpha = gamma = 1) on the branch c_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .kitti_io import ObjectLabel
from .layers import Linear
from .tensor import Module, Tensor

HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0


# ---------------------------------------------------------------------------
# anchors


@dataclass
class AnchorTemplate:
    """Per-class, per-scale box prior: 2D size in pixels, 3D priors in meters."""

    class_id: int
    w2d: float
    h2d: float
    z: float
    w: float
    h: float
    l: float


@dataclass
class AnchorSet:
    boxes: np.ndarray       # (Na, 4) center-size (u, v, w2d, h2d), pixels
    class_ids: np.ndarray   # (Na,)
    priors: np.ndarray      # (Na, 4): z, w, h, l
    per_cell: int
    wq: int
    hq: int

    def __len__(self):
        return len(self.boxes)

    def corners(self) -> np.ndarray:
        b = self.boxes
        return np.stack(
            [b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2,
             b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2], axis=1
        )


def generate_anchors(wq: int, hq: int, stride: int, templates) -> AnchorSet:
    """One anchor per (grid cell, template); cell-major, template-minor order."""
    per_cell = len(templates)
    centers_u = (np.arange(wq) + 0.5) * stride
    centers_v = (np.arange(hq) + 0.5) * stride
    gu, gv = np.meshgrid(centers_u, centers_v)
    cells = np.stack([gu.reshape(-1), gv.reshape(-1)], axis=1)  # (Nq, 2)
    boxes = np.empty((wq * hq * per_cell, 4), dtype=np.float64)
    cls = np.empty(wq * hq * per_cell, dtype=np.int64)
    priors = np.empty((wq * hq * per_cell, 4), dtype=np.float64)
    for a, t in enumerate(templates):
        boxes[a::per_cell, 0] = cells[:, 0]
        boxes[a::per_cell, 1] = cells[:, 1]
        boxes[a::per_cell, 2] = t.w2d
        boxes[a::per_cell, 3] = t.h2d
        cls[a::per_cell] = t.class_id
        priors[a::per_cell] = (t.z, t.w, t.h, t.l)
    return AnchorSet(boxes=boxes, class_ids=cls, priors=priors,
                     per_cell=per_cell, wq=wq, hq=hq)


# ---------------------------------------------------------------------------
# assignment


def iou_axis_aligned(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU matrix between (N,4) and (M,4) corner boxes."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)))
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(union > 0, inter / np.maximum(union, 1e-12), 0.0)


BACKGROUND = -1
IGNORE = -2


def assign_targets(anchor_corners: np.ndarray, gt_corners: np.ndarray,
                   tau_fg: float = 0.5, tau_bg: float = 0.4,
                   ensure_matches: bool = False) -> np.ndarray:
    """Label each anchor: matched gt index, BACKGROUND, or IGNORE.

    IoU > tau_fg assigns the anchor to its best-overlap ground truth;
    IoU < tau_bg marks background; the band between is ignored. With
    ``ensure_matches`` every ground truth lacking a positive additionally
    claims its best-overlap anchor (training-enablement extension).
    """
    n = len(anchor_corners)
    labels = np.full(n, BACKGROUND, dtype=np.int64)
    if len(gt_corners) == 0:
        return labels
    iou = iou_axis_aligned(anchor_corners, gt_corners)
    best = iou.max(axis=1)
    best_gt = iou.argmax(axis=1)
    labels[best >= tau_bg] = IGNORE
    labels[best > tau_fg] = best_gt[best > tau_fg]
    if ensure_matches:
        for g in range(len(gt_corners)):
            if not (labels[labels >= 0] == g).any():
                order = np.argsort(-iou[:, g])
                for a in order:
                    if iou[a, g] <= 0.01:
                        break
                    if labels[a] < 0:  # do not steal another gt's anchor
                        labels[a] = g
                        break
    return labels


# ---------------------------------------------------------------------------
# orientation coding


def wrap_angle(a):
    """Wrap to (-pi, pi]; maps floats and arrays alike."""
    return -((-a + math.pi) % (2.0 * math.pi) - math.pi)


def canonical_alpha(alpha):
    """Footprint representative of alpha modulo pi, in [-pi/4, 3pi/4)."""
    return (np.asarray(alpha, dtype=np.float64) + QUARTER_PI) % math.pi - QUARTER_PI


def encode_orientation(alpha):
    """(sin 2psi, cos 2psi, branch) per angle: branch 1 keeps psi = alpha,
    branch 0 stores psi = alpha - pi/2; psi always falls in [-pi/4, pi/4)."""
    a = canonical_alpha(alpha)
    branch = (a < QUARTER_PI).astype(np.float64)
    psi = np.where(branch > 0, a, a - HALF_PI)
    return np.sin(2.0 * psi), np.cos(2.0 * psi), branch


def decode_orientation(sin2a, cos2a, c_alpha):
    psi = 0.5 * np.arctan2(sin2a, cos2a)
    return np.where(c_alpha > 0.5, psi, psi + HALF_PI)


# ---------------------------------------------------------------------------
# box coding


def encode_box(anchor_boxes, priors, labels, f, cx, cy) -> np.ndarray:
    """(P, 13) regression targets for P (anchor, label) pairs.

    Row i pairs anchor box ``anchor_boxes[i]`` (u, v, w2d, h2d) and prior
    ``priors[i]`` (z, w, h, l) with the ``ObjectLabel`` ``labels[i]``.
    """
    ua, va, wa, ha = np.asarray(anchor_boxes, dtype=np.float64).T
    za, wpr, hpr, lpr = np.asarray(priors, dtype=np.float64).T
    x1, y1, x2, y2 = np.array([lb.box2d for lb in labels], dtype=np.float64).reshape(-1, 4).T
    x, y, z, h, w, l, ry = np.array([(lb.x, lb.y, lb.z, lb.h, lb.w, lb.l, lb.ry)
                                     for lb in labels], dtype=np.float64).reshape(-1, 7).T
    ug, vg = (x1 + x2) / 2.0, (y1 + y2) / 2.0
    wg, hg = np.maximum(x2 - x1, 1e-3), np.maximum(y2 - y1, 1e-3)
    u3 = f * x / z + cx  # projected 3D center; y is the bottom of the box
    v3 = f * (y - h / 2.0) / z + cy
    s2, c2, branch = encode_orientation(wrap_angle(ry - np.arctan2(x, z)))
    return np.stack([
        (ug - ua) / wa,
        (vg - va) / ha,
        np.log(wg / wa),
        np.log(hg / ha),
        (u3 - ua) / wa,
        (v3 - va) / ha,
        np.log(z / za),
        np.log(w / wpr),
        np.log(h / hpr),
        np.log(l / lpr),
        s2,
        c2,
        branch,
    ], axis=1)


def decode_box(anchor_boxes, priors, offsets, f, cx, cy) -> dict:
    """Invert encode_box row by row.

    (N, 4) anchor boxes, (N, 4) priors and (N, 13) offsets decode to the
    ObjectLabel geometry fields: x, y, z, w, h, l, ry, alpha of shape (N,)
    and corner boxes box2d of shape (N, 4). One row passed as 1-D arrays
    gives scalars and a (4,) box. c_alpha arrives as a probability in [0, 1].
    """
    if not np.isfinite(f) or f <= 0:
        raise ValueError("calibration focal length must be positive and finite")
    ua, va, wa, ha = np.asarray(anchor_boxes, dtype=np.float64).T
    za, wpr, hpr, lpr = np.asarray(priors, dtype=np.float64).T
    o = np.asarray(offsets, dtype=np.float64).T
    u2 = ua + o[0] * wa
    v2 = va + o[1] * ha
    w2 = wa * np.exp(o[2])
    h2 = ha * np.exp(o[3])
    u3 = ua + o[4] * wa
    v3 = va + o[5] * ha
    z = za * np.exp(o[6])
    w = wpr * np.exp(o[7])
    h = hpr * np.exp(o[8])
    l = lpr * np.exp(o[9])
    x = (u3 - cx) * z / f
    yc = (v3 - cy) * z / f
    y = yc + h / 2.0
    alpha = decode_orientation(o[10], o[11], o[12])
    ry = wrap_angle(alpha + np.arctan2(x, z))
    box2d = np.stack([u2 - w2 / 2, v2 - h2 / 2, u2 + w2 / 2, v2 + h2 / 2], axis=-1)
    return dict(x=x, y=y, z=z, w=w, h=h, l=l, ry=ry, box2d=box2d,
                alpha=wrap_angle(alpha))


# ---------------------------------------------------------------------------
# heads


class DetectionHead(Module):
    """Shared classification / regression stacks applied to every decoder layer.

    Classification emits K+1 sigmoid channels per query cell (the extra
    channel is background); regression emits 13 offsets per anchor. The
    class-channel biases start at the usual rare-foreground prior so early
    focal losses stay tame.
    """

    def __init__(self, rng, c_dec, n_classes, anchors_per_cell):
        super().__init__()
        self.n_classes = n_classes
        self.anchors_per_cell = anchors_per_cell
        prior_bias = -math.log((1.0 - 0.01) / 0.01)
        self.cls_fc = Linear(rng, c_dec, c_dec)
        self.cls_out = Linear(rng, c_dec, n_classes + 1)
        self.cls_out.b.data[:n_classes] = prior_bias
        self.cls_out.b.data[n_classes] = -prior_bias  # background starts likely
        self.reg_fc = Linear(rng, c_dec, c_dec)
        self.reg_out = Linear(rng, c_dec, anchors_per_cell * 13, init="zero")

    def forward(self, queries: Tensor):
        nq = queries.shape[0]
        cls = self.cls_out.forward(ops.relu(self.cls_fc.forward(queries)))
        reg = self.reg_out.forward(ops.relu(self.reg_fc.forward(queries)))
        return cls, ops.reshape(reg, (nq * self.anchors_per_cell, 13))


# ---------------------------------------------------------------------------
# targets and losses


@dataclass
class TargetSet:
    """Per-frame assignment products consumed by the loss."""

    pos_rows: np.ndarray     # (P,) anchor row indices
    offsets: np.ndarray      # (P, 13)
    cls_targets: np.ndarray  # (Nq, K+1) one-hot class or background per cell
    cls_weights: np.ndarray  # (Nq, K+1) zero on ignored cells
    n_objects: int


def build_targets(anchors: AnchorSet, labels, classes, f, cx, cy,
                  tau_fg=0.5, tau_bg=0.4, ensure_matches=True) -> TargetSet:
    """Assign anchors to a frame's ``ObjectLabel``s and encode their targets.

    Labels whose type is not in ``classes`` (e.g. DontCare) are excluded. An
    anchor whose template class disagrees with its match is ignored. A cell
    takes the class of its first positive anchor; without one it is ignored
    if any of its anchors is, else background.
    """
    usable = [lb for lb in labels if lb.type in classes]
    gt_class = np.array([classes.index(lb.type) for lb in usable], dtype=np.int64)
    gt_corners = np.array([lb.box2d for lb in usable], dtype=np.float64).reshape(-1, 4)
    match = assign_targets(anchors.corners(), gt_corners, tau_fg, tau_bg, ensure_matches)
    pos_rows = np.nonzero(match >= 0)[0]
    clash = anchors.class_ids[pos_rows] != gt_class[match[pos_rows]]
    match[pos_rows[clash]] = IGNORE
    pos_rows = pos_rows[~clash]

    cells = match.reshape(anchors.wq * anchors.hq, anchors.per_cell)
    n_classes = len(classes)
    cls_targets = np.zeros((len(cells), n_classes + 1))
    cls_weights = np.ones((len(cells), n_classes + 1))
    has_pos = (cells >= 0).any(axis=1)
    first = cells[np.arange(len(cells)), (cells >= 0).argmax(axis=1)]
    cls_targets[has_pos, gt_class[first[has_pos]]] = 1.0
    ignored = ~has_pos & (cells == IGNORE).any(axis=1)
    cls_weights[ignored] = 0.0
    cls_targets[~has_pos & ~ignored, n_classes] = 1.0

    offsets = encode_box(anchors.boxes[pos_rows], anchors.priors[pos_rows],
                         [usable[g] for g in match[pos_rows]], f, cx, cy)
    return TargetSet(pos_rows=pos_rows, offsets=offsets, cls_targets=cls_targets,
                     cls_weights=cls_weights, n_objects=len(usable))


def layer_detection_loss(cls_logits: Tensor, reg_out: Tensor, targets: TargetSet,
                         alpha=20.0, gamma=2.0, beta=0.04):
    """(classification, regression, orientation) sums for one decoder layer;
    without positives the last two sum no rows (+0.0, zero gradient)."""
    probs = ops.sigmoid(cls_logits)
    cls_loss = ops.focal_loss(probs, targets.cls_targets, alpha=alpha, gamma=gamma,
                              weights=targets.cls_weights)
    pred = ops.take_rows(reg_out, targets.pos_rows)
    reg_loss = ops.smooth_l1(ops.narrow(pred, 1, 0, 12), targets.offsets[:, :12], beta=beta)
    branch_prob = ops.sigmoid(ops.narrow(pred, 1, 12, 1))
    orient_loss = ops.focal_loss(branch_prob, targets.offsets[:, 12:], alpha=1.0, gamma=1.0)
    return cls_loss, reg_loss, orient_loss


def total_loss(layer_losses, disp_loss: Tensor, n_objects: int) -> Tensor:
    """Sum over decoder layers of (cls + reg + orient) / |O|, plus the
    per-pixel-averaged disparity term. Frames without objects contribute
    classification only, normalized by 1."""
    norm = 1.0 / max(n_objects, 1)
    out = disp_loss
    for cls_l, reg_l, orient_l in layer_losses:
        term = ops.scale(ops.add(ops.add(cls_l, reg_l), orient_l), norm)
        out = ops.add(out, term)
    return out


# ---------------------------------------------------------------------------
# inference


def nms_2d(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> list:
    """Greedy descending-score suppression on (N,4) corner boxes. Equal scores
    keep index order; an IoU equal to ``iou_threshold`` does not suppress."""
    order = np.argsort(-scores, kind="stable")
    keep = []
    while len(order):
        i, rest = order[0], order[1:]
        keep.append(int(i))
        ious = iou_axis_aligned(boxes[i][None, :], boxes[rest])[0]
        order = rest[~(ious > iou_threshold)]
    return keep


def decode_detections(anchors: AnchorSet, cls_logits: Tensor, reg_out: Tensor,
                      classes, f, cx, cy, score_threshold=0.1, iou_threshold=0.4):
    """Scores + offsets -> thresholded, per-class NMS-filtered ``ObjectLabel``s
    with scores, in descending score order.

    Each anchor takes its cell's sigmoid score for its template class, compared
    with ``score_threshold`` in float64 (numpy would round the threshold to a
    float32 score's dtype). A class's candidate rows go through one decode_box
    and one nms_2d call. A logit far enough below zero overflows ``exp`` to
    inf, and its sigmoid is the exact limit 0."""
    reg = reg_out.data.reshape(len(anchors), 13).copy()
    with np.errstate(over="ignore"):
        scores = 1.0 / (1.0 + np.exp(-cls_logits.data[:, :len(classes)]))
        # the branch channel is a logit; its probability is stored in reg's dtype
        reg[:, 12] = 1.0 / (1.0 + np.exp(-reg[:, 12].astype(np.float64)))
    rows = np.arange(len(anchors))
    anchor_scores = scores[rows // anchors.per_cell, anchors.class_ids].astype(np.float64)
    detections = []
    for cls_id, name in enumerate(classes):
        cand = rows[(anchors.class_ids == cls_id) & (anchor_scores >= score_threshold)]
        fields = decode_box(anchors.boxes[cand], anchors.priors[cand], reg[cand], f, cx, cy)
        cand_scores = anchor_scores[cand]
        kept = nms_2d(fields["box2d"], cand_scores, iou_threshold)
        detections.extend(
            ObjectLabel(type=name, truncated=0.0, occluded=0, score=float(cand_scores[i]),
                        **{k: v[i] for k, v in fields.items()})
            for i in kept)
    detections.sort(key=lambda d: -d.score)
    return detections
