"""Detection machinery: anchors, assignment, box coding, losses, NMS."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ts3d.detect
from ts3d import ops
from ts3d.detect import (
    BACKGROUND,
    IGNORE,
    AnchorTemplate,
    DetectionHead,
    assign_targets,
    build_targets,
    canonical_alpha,
    decode_box,
    decode_detections,
    decode_orientation,
    encode_box,
    encode_orientation,
    generate_anchors,
    iou_axis_aligned,
    layer_detection_loss,
    nms_2d,
    total_loss,
    wrap_angle,
)
from ts3d.gradcheck import grad_check
from ts3d.kitti_io import ObjectLabel
from ts3d.ops import focal_loss, smooth_l1
from ts3d.synth import SynthParams, synth_scene
from ts3d.tensor import Tensor, no_grad

CAR = AnchorTemplate(class_id=0, w2d=34.0, h2d=28.0, z=9.0, w=1.7, h=1.5, l=3.9)


# ---------------------------------------------------------------------------
# anchors


def test_anchor_count_full_scale():
    anchors = generate_anchors(80, 18, 16, [CAR])
    assert len(anchors) == 1440


def test_anchor_center_first_cell():
    anchors = generate_anchors(80, 18, 16, [CAR])
    assert np.allclose(anchors.boxes[0, :2], [8.0, 8.0])


def test_anchor_count_desk_grid():
    anchors = generate_anchors(4, 2, 16, [CAR])
    assert len(anchors) == 8


def test_anchor_centers_coincide_with_reference_points():
    from ts3d.decoder import reference_points

    anchors = generate_anchors(6, 4, 16, [CAR])
    refs = reference_points(6, 4)
    assert np.allclose(anchors.boxes[:, 0], refs[:, 0] * 6 * 16)
    assert np.allclose(anchors.boxes[:, 1], refs[:, 1] * 4 * 16)


# ---------------------------------------------------------------------------
# assignment


def test_assign_exact_match_positive():
    anchors = np.array([[10.0, 10.0, 40.0, 40.0]])
    gts = anchors.copy()
    labels = assign_targets(anchors, gts)
    assert labels[0] == 0


def test_assign_disjoint_negative():
    anchors = np.array([[0.0, 0.0, 10.0, 10.0]])
    gts = np.array([[50.0, 50.0, 80.0, 80.0]])
    labels = assign_targets(anchors, gts)
    assert labels[0] == BACKGROUND


def test_assign_band_is_ignored():
    # IoU of 0.45 falls between tau_bg=0.4 and tau_fg=0.5
    anchors = np.array([[0.0, 0.0, 100.0, 45.0]])
    gts = np.array([[0.0, 0.0, 100.0, 100.0]])
    iou = iou_axis_aligned(anchors, gts)[0, 0]
    assert 0.4 < iou < 0.5
    labels = assign_targets(anchors, gts, tau_fg=0.5, tau_bg=0.4)
    assert labels[0] == IGNORE


def test_assign_monotone_in_tau_fg():
    rng = np.random.default_rng(0)
    anchors = np.stack([
        rng.uniform(0, 60, 40), rng.uniform(0, 60, 40),
        rng.uniform(60, 120, 40), rng.uniform(60, 120, 40)], axis=1)
    gts = np.array([[20.0, 20.0, 80.0, 80.0], [40.0, 10.0, 100.0, 60.0]])
    pos_counts = []
    for tau in (0.3, 0.5, 0.7, 0.9):
        labels = assign_targets(anchors, gts, tau_fg=tau, tau_bg=0.2)
        pos_counts.append((labels >= 0).sum())
    assert all(a >= b for a, b in zip(pos_counts, pos_counts[1:]))


def test_assign_ensure_matches_rescues_small_gt():
    anchors = np.array([[0.0, 0.0, 32.0, 32.0], [32.0, 0.0, 64.0, 32.0]])
    gts = np.array([[40.0, 4.0, 52.0, 20.0]])  # IoU too small for tau_fg
    base = assign_targets(anchors, gts, ensure_matches=False)
    assert (base < 0).all()
    forced = assign_targets(anchors, gts, ensure_matches=True)
    assert forced[1] == 0


# ---------------------------------------------------------------------------
# box coding


def _calib():
    return 200.0, 127.5, 63.5  # f, cx, cy


def _random_gt(rng, f, cx, cy):
    z = rng.uniform(5.0, 30.0)
    x = rng.uniform(-0.05, 0.05) * z * 10
    y = 1.5
    h, w, l = rng.uniform(1.2, 1.9), rng.uniform(1.5, 2.0), rng.uniform(3.2, 4.5)
    ry = rng.uniform(-math.pi, math.pi)
    u = f * x / z + cx
    v = f * (y - h / 2) / z + cy
    w2 = f * w / z
    h2 = f * h / z
    return ObjectLabel("Car", 0.0, 0, 0.0,
                       np.array([u - w2 / 2, v - h2 / 2, u + w2 / 2, v + h2 / 2]),
                       h, w, l, x, y, z, ry)


def _decoded(anchor_box, prior, offsets, f, cx, cy) -> ObjectLabel:
    """One decode_box row as a scored label."""
    return ObjectLabel(type="Car", truncated=0.0, occluded=0, score=1.0,
                       **decode_box(anchor_box, prior, offsets, f, cx, cy))


def test_zero_offsets_identity_decode():
    f, cx, cy = _calib()
    anchor_box = np.array([72.0, 40.0, 34.0, 28.0])
    prior = np.array([9.0, 1.7, 1.5, 3.9])
    offsets = np.zeros(13)
    offsets[11] = 1.0  # cos 2a
    offsets[12] = 1.0  # branch prob
    det = _decoded(anchor_box, prior, offsets, f, cx, cy)
    assert np.allclose(det.box2d, [72 - 17, 40 - 14, 72 + 17, 40 + 14])
    assert det.z == pytest.approx(9.0)
    assert (det.w, det.h, det.l) == (pytest.approx(1.7), pytest.approx(1.5), pytest.approx(3.9))
    assert det.alpha == pytest.approx(0.0)


def test_principal_point_back_projects_to_centered_ray():
    f, cx, cy = _calib()
    anchor_box = np.array([cx, cy, 30.0, 24.0])
    prior = np.array([10.0, 1.7, 1.5, 3.9])
    offsets = np.zeros(13)
    offsets[11] = 1.0
    offsets[12] = 1.0
    det = _decoded(anchor_box, prior, offsets, f, cx, cy)
    assert det.z == pytest.approx(10.0)
    assert det.x == pytest.approx(0.0, abs=1e-12)


def test_bad_calibration_rejected():
    with pytest.raises(ValueError):
        decode_box(np.zeros(4) + 1, np.ones(4), np.zeros(13), 0.0, 0.0, 0.0)


def test_encode_decode_roundtrip_100_boxes():
    rng = np.random.default_rng(1)
    f, cx, cy = _calib()
    for _ in range(100):
        gt = _random_gt(rng, f, cx, cy)
        x1, y1, x2, y2 = gt.box2d
        anchor_box = np.array([
            (x1 + x2) / 2 + rng.uniform(-4, 4),
            (y1 + y2) / 2 + rng.uniform(-4, 4),
            (x2 - x1) * rng.uniform(0.8, 1.25),
            (y2 - y1) * rng.uniform(0.8, 1.25),
        ])
        prior = np.array([gt.z * rng.uniform(0.7, 1.4), 1.7, 1.5, 3.9])
        off = encode_box(anchor_box[None], prior[None], [gt], f, cx, cy)
        assert off.shape == (1, 13)
        det = _decoded(anchor_box, prior, off[0], f, cx, cy)
        assert np.allclose(det.box2d, gt.box2d, atol=1e-6)
        assert np.allclose((det.x, det.y, det.z), (gt.x, gt.y, gt.z), atol=1e-6)
        assert np.allclose((det.h, det.w, det.l), (gt.h, gt.w, gt.l), atol=1e-6)
        # orientation is coded modulo pi (footprint identity)
        assert math.sin(2 * det.ry) == pytest.approx(math.sin(2 * gt.ry), abs=1e-6)
        assert math.cos(2 * det.ry) == pytest.approx(math.cos(2 * gt.ry), abs=1e-6)


def test_offset_roundtrip_canonical_vectors():
    rng = np.random.default_rng(2)
    f, cx, cy = _calib()
    anchor_box = np.array([100.0, 60.0, 30.0, 24.0])
    prior = np.array([12.0, 1.7, 1.5, 3.9])
    for _ in range(50):
        psi = rng.uniform(-math.pi / 4, math.pi / 4 - 1e-6)
        branch = float(rng.integers(0, 2))
        t = np.concatenate([
            rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.3, 0.3, 2),
            rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.4, 0.4, 4),
            [math.sin(2 * psi), math.cos(2 * psi), branch],
        ])
        det = _decoded(anchor_box, prior, t, f, cx, cy)
        back = encode_box(anchor_box[None], prior[None], [det], f, cx, cy)[0]
        assert np.allclose(back, t, atol=1e-6)


def test_decode_box_rows_equal_one_row_calls():
    rng = np.random.default_rng(14)
    f, cx, cy = _calib()
    n = 200
    boxes = np.stack([rng.uniform(0, 256, n), rng.uniform(0, 128, n),
                      rng.uniform(10, 60, n), rng.uniform(10, 60, n)], axis=1)
    priors = np.stack([rng.uniform(5, 30, n), rng.uniform(0.5, 2.0, n),
                       rng.uniform(1.0, 2.0, n), rng.uniform(0.5, 4.5, n)], axis=1)
    offsets = rng.normal(scale=0.5, size=(n, 13))
    offsets[:, 12] = rng.uniform(size=n)  # both orientation branches
    rows = decode_box(boxes, priors, offsets, f, cx, cy)
    assert rows["box2d"].shape == (n, 4) and rows["ry"].shape == (n,)
    for i in range(n):
        one = decode_box(boxes[i], priors[i], offsets[i], f, cx, cy)
        assert one.keys() == rows.keys()
        for k, v in one.items():
            assert np.array_equal(v, rows[k][i]), k


def test_orientation_coding_cases():
    alpha = np.array([-0.7, 0.0, 0.4, 1.2, 2.9, -2.2])
    s, c, b = encode_orientation(alpha)
    rec = decode_orientation(s, c, b)
    for got, want in zip(canonical_alpha(rec), canonical_alpha(alpha)):
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# heads


def test_head_output_shapes_two_classes():
    rng = np.random.default_rng(3)
    head = DetectionHead(rng, c_dec=16, n_classes=2, anchors_per_cell=1).astype(np.float32)
    q = Tensor(rng.normal(size=(1440, 16)).astype(np.float32))
    with no_grad():
        cls, reg = head.forward(q)
    assert cls.shape == (1440, 3)  # two classes + background
    assert reg.shape == (1440, 13)


def test_head_anchor_multiplicity():
    rng = np.random.default_rng(4)
    head = DetectionHead(rng, c_dec=8, n_classes=1, anchors_per_cell=3).astype(np.float32)
    q = Tensor(rng.normal(size=(10, 8)).astype(np.float32))
    with no_grad():
        cls, reg = head.forward(q)
    assert cls.shape == (10, 2)
    assert reg.shape == (30, 13)


def test_head_gradcheck():
    rng = np.random.default_rng(5)
    head = DetectionHead(rng, c_dec=6, n_classes=1, anchors_per_cell=1)
    head.reg_out.w.data[:] = 0.1 * rng.normal(size=head.reg_out.w.data.shape)
    q = Tensor(rng.normal(size=(4, 6)), dtype=np.float64, requires_grad=True)
    p1 = Tensor(np.random.default_rng(6).normal(size=(4, 2)), dtype=np.float64)
    p2 = Tensor(np.random.default_rng(7).normal(size=(4, 13)), dtype=np.float64)

    def f(q_):
        cls, reg = head.forward(q_)
        return ops.add(ops.sum_(ops.mul(cls, p1)), ops.sum_(ops.mul(reg, p2)))

    assert grad_check(f, [q], eps=1e-6) < 1e-5


# ---------------------------------------------------------------------------
# losses


def test_focal_loss_golden_values():
    assert focal_loss(Tensor(np.array([1.0 - 1e-9])), np.array([1.0])).item() == pytest.approx(0.0, abs=1e-6)
    val = focal_loss(Tensor(np.array([0.5]), dtype=np.float64), np.array([1.0])).item()
    assert val == pytest.approx(-20.0 * 0.25 * math.log(0.5), abs=1e-9)
    assert val == pytest.approx(3.4657, abs=1e-3)
    assert focal_loss(Tensor(np.array([1e-9])), np.array([0.0])).item() == pytest.approx(0.0, abs=1e-6)


def test_focal_loss_monotonicity():
    ps = np.linspace(0.02, 0.98, 25)
    pos = [focal_loss(Tensor(np.array([p]), dtype=np.float64), np.array([1.0])).item() for p in ps]
    neg = [focal_loss(Tensor(np.array([p]), dtype=np.float64), np.array([0.0])).item() for p in ps]
    assert all(a >= b for a, b in zip(pos, pos[1:]))  # nonincreasing for target 1
    assert all(a <= b for a, b in zip(neg, neg[1:]))  # nondecreasing for target 0


def test_focal_loss_gradcheck():
    rng = np.random.default_rng(8)
    x = Tensor(rng.uniform(0.1, 0.9, size=(6,)), dtype=np.float64, requires_grad=True)
    t = (rng.uniform(size=6) > 0.5).astype(np.float64)

    def f(x_):
        return focal_loss(x_, t)

    assert grad_check(f, [x], eps=1e-6) < 1e-6


def test_smooth_l1_golden_values():
    z = smooth_l1(Tensor(np.array([2.0]), dtype=np.float64), np.array([2.0]))
    assert z.item() == 0.0
    at_break = smooth_l1(Tensor(np.array([0.04]), dtype=np.float64), np.array([0.0]))
    assert at_break.item() == pytest.approx(0.02, abs=1e-12)
    at_one = smooth_l1(Tensor(np.array([1.0]), dtype=np.float64), np.array([0.0]))
    assert at_one.item() == pytest.approx(0.98, abs=1e-12)


def test_smooth_l1_gradcheck():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(8,)), dtype=np.float64, requires_grad=True)
    t = rng.normal(size=8)

    def f(x_):
        return smooth_l1(x_, t, beta=0.04)

    assert grad_check(f, [x], eps=1e-7) < 1e-5


def test_orientation_bce_golden_values():
    assert focal_loss(Tensor(np.array([1.0 - 1e-9])), np.array([1.0]),
                      alpha=1.0, gamma=1.0).item() == pytest.approx(0.0, abs=1e-6)
    val = focal_loss(Tensor(np.array([0.5]), dtype=np.float64), np.array([1.0]),
                     alpha=1.0, gamma=1.0).item()
    assert val == pytest.approx(-(1 - 0.5) * math.log(0.5), abs=1e-9)
    assert val == pytest.approx(0.3466, abs=1e-4)
    # symmetric treatment of the zero branch
    val0 = focal_loss(Tensor(np.array([0.5]), dtype=np.float64), np.array([0.0]),
                      alpha=1.0, gamma=1.0).item()
    assert val0 == pytest.approx(val, abs=1e-12)


def test_orientation_bce_finite_at_clamp():
    for p in (0.0, 1.0):
        for t in (0.0, 1.0):
            v = focal_loss(Tensor(np.array([p]), dtype=np.float64), np.array([t]),
                           alpha=1.0, gamma=1.0).item()
            assert np.isfinite(v)


# ---------------------------------------------------------------------------
# layer losses and the total


def _toy_targets():
    anchors = generate_anchors(4, 2, 16, [CAR])
    f, cx, cy = _calib()
    gt = ObjectLabel("Car", 0.0, 0, 0.0, np.array([30.0, 10.0, 70.0, 40.0]),
                     1.5, 1.7, 3.9, 0.5, 1.5, 9.0, 0.3)
    return anchors, build_targets(anchors, [gt], ("Car",), f, cx, cy)


def test_build_targets_produces_positive():
    _, targets = _toy_targets()
    assert targets.n_objects == 1
    assert len(targets.pos_rows) >= 1
    assert targets.offsets.shape == (len(targets.pos_rows), 13)


def test_total_loss_zero_sublosses():
    zero = Tensor(np.zeros(1))
    out = total_loss([(zero, zero, zero)], zero, n_objects=1)
    assert out.item() == 0.0


def test_total_loss_doubles_with_layer_count():
    rng = np.random.default_rng(10)
    parts = tuple(Tensor(np.array([v]), dtype=np.float64) for v in rng.uniform(0.5, 2.0, 3))
    disp = Tensor(np.array([0.7]), dtype=np.float64)
    one = total_loss([parts], disp, n_objects=2).item()
    two = total_loss([parts, parts], disp, n_objects=2).item()
    assert two - disp.item() == pytest.approx(2 * (one - disp.item()), rel=1e-12)


def test_empty_frame_contributes_classification_only():
    anchors = generate_anchors(4, 2, 16, [CAR])
    f, cx, cy = _calib()
    targets = build_targets(anchors, [], ("Car",), f, cx, cy)
    assert targets.n_objects == 0
    rng = np.random.default_rng(11)
    cls = Tensor(rng.normal(size=(8, 2)), dtype=np.float64)
    reg = Tensor(rng.normal(size=(8, 13)), dtype=np.float64)
    cls_l, reg_l, orient_l = layer_detection_loss(cls, reg, targets)
    assert cls_l.item() > 0
    assert reg_l.item() == 0.0 and orient_l.item() == 0.0


def test_layer_loss_gradients_reach_queries():
    rng = np.random.default_rng(12)
    anchors, targets = _toy_targets()
    head = DetectionHead(rng, c_dec=8, n_classes=1, anchors_per_cell=1)
    q = Tensor(rng.normal(size=(8, 8)), dtype=np.float64, requires_grad=True)
    cls, reg = head.forward(q)
    losses = layer_detection_loss(cls, reg, targets)
    total = total_loss([losses], Tensor(np.zeros(1, dtype=np.float64)), targets.n_objects)
    total.backward()
    assert q.grad is not None and np.abs(q.grad).max() > 0


# ---------------------------------------------------------------------------
# NMS


def test_nms_identical_boxes_keep_one():
    boxes = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
    keep = nms_2d(boxes, np.array([0.9, 0.8]), iou_threshold=0.4)
    assert keep == [0]


def test_nms_disjoint_boxes_all_survive():
    boxes = np.array([[0, 0, 10, 10], [20, 20, 30, 30], [40, 0, 50, 10]], dtype=float)
    keep = nms_2d(boxes, np.array([0.5, 0.9, 0.7]), iou_threshold=0.4)
    assert sorted(keep) == [0, 1, 2]


def _nms_reference(boxes, scores, thr):
    """Independent quadratic reference."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    keep, dead = [], set()
    for i in order:
        if i in dead:
            continue
        keep.append(i)
        for j in order:
            if j in dead or j == i:
                continue
            iou = iou_axis_aligned(boxes[i][None], boxes[j][None])[0, 0]
            if iou > thr:
                dead.add(j)
    return keep


def test_nms_matches_brute_force_on_200_boxes():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 80, 200)
    y = rng.uniform(0, 40, 200)
    w = rng.uniform(5, 25, 200)
    h = rng.uniform(5, 25, 200)
    boxes = np.stack([x, y, x + w, y + h], axis=1)
    scores = rng.uniform(size=200)
    assert nms_2d(boxes, scores, 0.4) == _nms_reference(boxes, scores, 0.4)


def test_nms_equal_scores_keep_index_order():
    a = [0.0, 0.0, 10.0, 10.0]
    b = [40.0, 0.0, 50.0, 10.0]
    boxes = np.array([a, b, b, a])
    assert nms_2d(boxes, np.array([0.5, 0.9, 0.9, 0.5]), 0.4) == [1, 0]
    assert nms_2d(boxes, np.full(4, 0.7), 0.4) == [0, 1]


def test_nms_iou_at_threshold_is_kept():
    boxes = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 5.0]])
    assert iou_axis_aligned(boxes[:1], boxes[1:])[0, 0] == 0.5
    assert nms_2d(boxes, np.array([0.9, 0.8]), 0.5) == [0, 1]
    assert nms_2d(boxes, np.array([0.9, 0.8]), 0.49) == [0]


# ---------------------------------------------------------------------------
# decoding a head's outputs

CLASSES = ("Car", "Pedestrian")
TWO_CLASS_TEMPLATES = [
    CAR,
    AnchorTemplate(class_id=0, w2d=48.0, h2d=20.0, z=9.0, w=1.7, h=1.5, l=3.9),
    AnchorTemplate(class_id=1, w2d=12.0, h2d=30.0, z=8.0, w=0.6, h=1.7, l=0.8),
]


def _random_head_outputs(seed):
    """Nonzero float32 head outputs over the 16x8 desk query grid."""
    rng = np.random.default_rng(seed)
    anchors = generate_anchors(16, 8, 16, TWO_CLASS_TEMPLATES)
    cls = Tensor(rng.normal(-3.0, 2.5, size=(16 * 8, 3)).astype(np.float32))
    reg = Tensor(rng.normal(scale=0.3, size=(len(anchors), 13)).astype(np.float32))
    return anchors, cls, reg


def _decode_reference(anchors, cls_logits, reg_out, classes, f, cx, cy, score_threshold,
                      iou_threshold):
    """Per-anchor decode: one-row decode_box calls and the quadratic NMS."""
    n_classes = cls_logits.shape[1] - 1
    scores = 1.0 / (1.0 + np.exp(-cls_logits.data[:, :n_classes]))
    detections = []
    for cls_id in range(n_classes):
        cand = []
        for a in range(len(anchors)):
            s = float(scores[a // anchors.per_cell, cls_id])
            if anchors.class_ids[a] != cls_id or s < score_threshold:
                continue
            o = reg_out.data[a].copy()
            o[12] = 1.0 / (1.0 + math.exp(-o[12]))
            cand.append(ObjectLabel(type=classes[cls_id], truncated=0.0, occluded=0, score=s,
                                    **decode_box(anchors.boxes[a], anchors.priors[a], o,
                                                 f, cx, cy)))
        boxes = np.array([d.box2d for d in cand]).reshape(-1, 4)
        kept = _nms_reference(boxes, [d.score for d in cand], iou_threshold)
        detections.extend(cand[i] for i in kept)
    detections.sort(key=lambda d: -d.score)
    return detections


def test_decode_detections_matches_per_anchor_reference():
    anchors, cls, reg = _random_head_outputs(15)
    f, cx, cy = _calib()
    got = decode_detections(anchors, cls, reg, CLASSES, f, cx, cy,
                            score_threshold=0.001, iou_threshold=0.4)
    want = _decode_reference(anchors, cls, reg, CLASSES, f, cx, cy, 0.001, 0.4)
    assert len(got) == len(want) > 0
    assert {d.type for d in got} == set(CLASSES)
    for g, w in zip(got, want):
        assert (g.type, g.score) == (w.type, w.score)
        for k in ("x", "y", "z", "w", "h", "l", "ry", "alpha", "box2d"):
            assert np.array_equal(getattr(g, k), getattr(w, k)), k
        assert g.to_line() == w.to_line()


def test_decode_detections_takes_far_negative_logits_to_zero_without_a_warning():
    """exp(100) overflows float32 and exp(1000) float64; each sigmoid is the
    exact limit 0, with no warning."""
    anchors, cls, reg = _random_head_outputs(15)
    cls.data[:] = -100.0
    reg.data[:, 12] = -1000.0
    f, cx, cy = _calib()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = decode_detections(anchors, cls, reg, CLASSES, f, cx, cy,
                                score_threshold=0.0, iou_threshold=0.4)
    assert len(got) > 0
    assert {d.score for d in got} == {0.0}
    reg.data[:, 12] = -10.0  # the same branch decision, without overflow
    want = decode_detections(anchors, cls, reg, CLASSES, f, cx, cy,
                             score_threshold=0.0, iou_threshold=0.4)
    assert [d.to_line() for d in got] == [d.to_line() for d in want]


def test_decode_detections_calls_decode_box_once_per_class(monkeypatch):
    anchors, cls, reg = _random_head_outputs(16)
    rows_per_call = []

    def spy(*args, **kwargs):
        rows_per_call.append(len(args[0]))
        return decode_box(*args, **kwargs)

    monkeypatch.setattr(ts3d.detect, "decode_box", spy)
    f, cx, cy = _calib()
    decode_detections(anchors, cls, reg, CLASSES, f, cx, cy, score_threshold=0.001)
    assert len(rows_per_call) == 2 and min(rows_per_call) > 1


# ---------------------------------------------------------------------------
# target assignment against the loop-based reference


def _encode_box_reference(anchor_box, anchor_prior, gt, f, cx, cy):
    """One (anchor, dict label) pair encoded with scalar math."""
    ua, va, wa, ha = anchor_box
    za, wpr, hpr, lpr = anchor_prior
    x1, y1, x2, y2 = gt["box2d"]
    ug, vg = (x1 + x2) / 2.0, (y1 + y2) / 2.0
    wg, hg = max(x2 - x1, 1e-3), max(y2 - y1, 1e-3)
    x, y, z = gt["location"]
    hh, ww, ll = gt["dims"]
    u3, v3 = f * x / z + cx, f * (y - hh / 2.0) / z + cy
    alpha = wrap_angle(gt["ry"] - math.atan2(x, z))
    a = float((alpha + math.pi / 4.0) % math.pi - math.pi / 4.0)
    branch, psi = (1.0, a) if a < math.pi / 4.0 else (0.0, a - math.pi / 2.0)
    return np.array([
        (ug - ua) / wa, (vg - va) / ha, math.log(wg / wa), math.log(hg / ha),
        (u3 - ua) / wa, (v3 - va) / ha, math.log(z / za), math.log(ww / wpr),
        math.log(hh / hpr), math.log(ll / lpr),
        math.sin(2.0 * psi), math.cos(2.0 * psi), branch,
    ], dtype=np.float64)


def _build_targets_reference(anchors, labels, classes, f, cx, cy, tau_fg, tau_bg,
                             ensure_matches):
    """Dict labels, per-anchor class check, per-cell and per-positive loops.

    Returns the target fields and the number of anchors ignored for matching
    a label of another class."""
    usable = [
        {"class_id": classes.index(lb.type), "box2d": np.asarray(lb.box2d, dtype=np.float64),
         "location": (lb.x, lb.y, lb.z), "dims": (lb.h, lb.w, lb.l), "ry": lb.ry}
        for lb in labels if lb.type in classes
    ]
    gt_corners = np.array([lb["box2d"] for lb in usable], dtype=np.float64).reshape(-1, 4)
    match = assign_targets(anchors.corners(), gt_corners, tau_fg, tau_bg, ensure_matches)
    n_clash = 0
    for a in np.nonzero(match >= 0)[0]:
        if anchors.class_ids[a] != usable[match[a]]["class_id"]:
            match[a] = IGNORE
            n_clash += 1
    nq = anchors.wq * anchors.hq
    cell_class = np.full(nq, BACKGROUND, dtype=np.int64)
    lab_cells = match.reshape(nq, anchors.per_cell)
    for i in range(nq):
        row = lab_cells[i]
        if (row >= 0).any():
            cell_class[i] = usable[row[row >= 0][0]]["class_id"]
        elif (row == IGNORE).any():
            cell_class[i] = IGNORE
    pos_rows = np.nonzero(match >= 0)[0]
    offsets = np.zeros((len(pos_rows), 13), dtype=np.float64)
    for j, a in enumerate(pos_rows):
        offsets[j] = _encode_box_reference(anchors.boxes[a], anchors.priors[a],
                                           usable[match[a]], f, cx, cy)
    n_classes = len(classes)
    t = np.zeros((nq, n_classes + 1), dtype=np.float64)
    w = np.ones((nq, n_classes + 1), dtype=np.float64)
    for i, c in enumerate(cell_class):
        if c == IGNORE:
            w[i] = 0.0
        elif c == BACKGROUND:
            t[i, n_classes] = 1.0
        else:
            t[i, c] = 1.0
    return dict(pos_rows=pos_rows, offsets=offsets, cls_targets=t, cls_weights=w,
                n_objects=len(usable)), n_clash


REF_TEMPLATES = [
    AnchorTemplate(class_id=0, w2d=18.0, h2d=14.0, z=12.0, w=1.7, h=1.5, l=3.9),
    AnchorTemplate(class_id=0, w2d=36.0, h2d=26.0, z=6.0, w=1.8, h=1.6, l=4.0),
    AnchorTemplate(class_id=1, w2d=10.0, h2d=18.0, z=9.0, w=0.6, h=1.7, l=0.8),
]


def _reference_frames(n):
    """Rendered 128x64 label sets: every other object relabeled Pedestrian, a
    DontCare box on every third frame, and some empty or DontCare-only frames."""
    params = SynthParams(width=128, height=64, focal=100.0, n_objects=(1, 4))
    for seed in range(n):
        frame = synth_scene(seed, params)
        labels = [replace(lb, type=CLASSES[i % 2]) for i, lb in enumerate(frame.labels)]
        if seed % 3 == 0:
            x1, y1, x2, y2 = labels[0].box2d
            labels.insert(1, ObjectLabel("DontCare", -1.0, -1, -10.0,
                                         np.array([x1 + 4.0, y1 - 2.0, x2 + 12.0, y2 + 3.0]),
                                         -1.0, -1.0, -1.0, -1000.0, -1000.0, -1000.0, -10.0))
        if seed % 10 == 4:
            labels = []
        elif seed % 10 == 7:
            labels = [lb for lb in labels if lb.type == "DontCare"]
        yield frame.calib, labels


def test_build_targets_equals_loop_reference_on_rendered_frames():
    anchors = generate_anchors(8, 4, 16, REF_TEMPLATES)
    seen = {"dontcare": 0, "empty": 0, "clash": 0, "positives": 0}
    for calib, labels in _reference_frames(100):
        seen["dontcare"] += any(lb.type == "DontCare" for lb in labels)
        seen["empty"] += not any(lb.type in CLASSES for lb in labels)
        for ensure_matches in (True, False):
            for classes in (CLASSES, CLASSES[:1]):
                got = build_targets(anchors, labels, classes, calib.f, calib.cx, calib.cy,
                                    tau_fg=0.5, tau_bg=0.4, ensure_matches=ensure_matches)
                want, n_clash = _build_targets_reference(
                    anchors, labels, classes, calib.f, calib.cx, calib.cy, 0.5, 0.4,
                    ensure_matches)
                seen["clash"] += n_clash
                seen["positives"] += len(want["pos_rows"])
                for k in ("pos_rows", "cls_targets", "cls_weights"):
                    g = getattr(got, k)
                    assert g.dtype == want[k].dtype and np.array_equal(g, want[k]), k
                assert type(got.n_objects) is int and got.n_objects == want["n_objects"]
                assert got.offsets.dtype == want["offsets"].dtype
                assert got.offsets.shape == want["offsets"].shape
                assert np.abs(got.offsets - want["offsets"]).max(initial=0.0) <= 1e-12
    assert min(seen.values()) > 0, seen

