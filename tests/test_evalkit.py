"""Rotated IoU against rasterization; AP against a brute-force PR recompute."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ts3d.evalkit
from ts3d.config import read_pairs
from ts3d.evalkit import (
    average_precision,
    bev_iou,
    evaluate_directories,
    intersection_area,
    iou_3d,
    write_report,
)
from ts3d.kitti_io import ObjectLabel


def _box(x, z, l, w, ry, y=0.0, h=0.0, score=None) -> ObjectLabel:
    """A Car label with the given footprint and vertical slab."""
    return ObjectLabel("Car", 0.0, 0, 0.0, np.zeros(4), h, w, l, x, y, z, ry, score)


def rasterized_iou(a: ObjectLabel, b: ObjectLabel, n: int = 1000) -> float:
    """Monte-Carlo style oracle: classify an n x n grid of cell centers."""
    ca, cb = np.array(ts3d.evalkit._footprint(a)), np.array(ts3d.evalkit._footprint(b))
    lo = np.minimum(ca.min(axis=0), cb.min(axis=0)) - 1e-6
    hi = np.maximum(ca.max(axis=0), cb.max(axis=0)) + 1e-6
    xs = np.linspace(lo[0], hi[0], n, endpoint=False) + (hi[0] - lo[0]) / (2 * n)
    zs = np.linspace(lo[1], hi[1], n, endpoint=False) + (hi[1] - lo[1]) / (2 * n)
    px, pz = np.meshgrid(xs, zs)

    def inside(box):
        dx, dz = px - box.x, pz - box.z
        # KITTI's R_y: the length axis is (cos ry, -sin ry), the width axis (sin ry, cos ry)
        c, s = math.cos(box.ry), math.sin(box.ry)
        ll = dx * c - dz * s
        ww = dx * s + dz * c
        return (np.abs(ll) <= box.l / 2) & (np.abs(ww) <= box.w / 2)

    ia, ib = inside(a), inside(b)
    inter = (ia & ib).sum()
    union = (ia | ib).sum()
    return inter / union if union else 0.0


def _random_box(rng):
    return _box(
        x=rng.uniform(-5, 5), z=rng.uniform(-5, 5),
        l=rng.uniform(1.0, 5.0), w=rng.uniform(1.0, 3.0),
        ry=rng.uniform(-math.pi, math.pi),
    )


# ---------------------------------------------------------------------------
# IoU


def test_identical_boxes_full_overlap():
    b = _box(1.0, 2.0, 4.0, 2.0, 0.7)
    assert bev_iou(b, b) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_boxes_zero():
    a = _box(0.0, 0.0, 2.0, 2.0, 0.3)
    b = _box(50.0, 50.0, 2.0, 2.0, -0.9)
    assert bev_iou(a, b) == 0.0


def test_unit_squares_half_shift():
    a = _box(0.0, 0.0, 1.0, 1.0, 0.0)
    b = _box(0.5, 0.0, 1.0, 1.0, 0.0)
    assert bev_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_degenerate_extents_rejected():
    # every scored label is checked, also one that no ground truth is near
    flat = _box(50.0, 50.0, 1.0, -1.0, 0.0, score=0.5)
    with pytest.raises(ValueError, match="degenerate"):
        average_precision([("000000", flat)], [("000000", _box(0, 0, 1, 1, 0))], 0.5)


def test_rotated_pairs_match_rasterization():
    rng = np.random.default_rng(0)
    for _ in range(12):
        a, b = _random_box(rng), _random_box(rng)
        b.x = a.x + rng.uniform(-2, 2)
        b.z = a.z + rng.uniform(-2, 2)
        exact = bev_iou(a, b)
        approx = rasterized_iou(a, b, n=1200)
        assert exact == pytest.approx(approx, abs=1e-3)


def test_iou_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = _random_box(rng), _random_box(rng)
        assert abs(bev_iou(a, b) - bev_iou(b, a)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(-math.pi, math.pi))
def test_iou_rotation_invariance(phi):
    a = _box(1.0, 0.5, 3.0, 1.5, 0.4)
    b = _box(1.8, 1.0, 2.0, 1.8, -0.8)

    def rotate(box):
        # turning the x-z plane by +phi turns the length axis (cos ry, -sin ry)
        # to the yaw ry - phi
        c, s = math.cos(phi), math.sin(phi)
        return _box(box.x * c - box.z * s, box.x * s + box.z * c, box.l, box.w, box.ry - phi)

    assert abs(bev_iou(a, b) - bev_iou(rotate(a), rotate(b))) < 1e-9


def test_footprint_follows_the_kitti_devkit_yaw():
    gt = _box(0.0, 10.0, 4.0, 1.8, 0.6, y=1.5, h=1.5)
    c, s = math.cos(gt.ry), math.sin(gt.ry)
    r_y = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    local = np.array([[dl * gt.l, 0.0, dw * gt.w]
                      for dl, dw in ((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5))])
    expected = (local @ r_y.T)[:, [0, 2]] + [gt.x, gt.z]
    corners = np.array(ts3d.evalkit._footprint(gt))
    np.testing.assert_allclose(corners, expected, atol=1e-12)
    # counter-clockwise in the x-z plane: positive shoelace area
    xs, zs = corners[:, 0], corners[:, 1]
    assert np.sum(xs * np.roll(zs, -1) - np.roll(xs, -1) * zs) > 0
    # shifted 0.6 m along x and z, the box overlaps itself by less than IoU 0.5
    shifted = replace(gt, x=0.6, z=10.6, score=0.9)
    assert bev_iou(gt, shifted) == pytest.approx(0.3474, abs=1e-4)
    ap, _ = average_precision([("000000", shifted)], [("000000", gt)], 0.5)
    assert ap == 0.0


def _clipped_area(a: ObjectLabel, b: ObjectLabel) -> float:
    """Sutherland-Hodgman on every pair, with no bounding-circle reject."""
    poly = ts3d.evalkit._footprint(a)
    clip = ts3d.evalkit._footprint(b)
    for i in range(4):
        if not poly:
            return 0.0
        poly = ts3d.evalkit._clip_polygon(poly, clip[i], clip[(i + 1) % 4])
    return ts3d.evalkit._polygon_area(poly)


def test_far_apart_boxes_are_not_clipped(monkeypatch):
    calls = []
    clip = ts3d.evalkit._clip_polygon
    monkeypatch.setattr(ts3d.evalkit, "_clip_polygon",
                        lambda *args: calls.append(1) or clip(*args))
    a = _box(0.0, 0.0, 4.0, 2.0, 0.3)
    # half-diagonals sqrt(5) each: centres 4.5 apart cannot overlap
    assert bev_iou(a, _box(4.5, 0.0, 4.0, 2.0, -1.1)) == 0.0
    assert iou_3d(a, _box(0.0, -4.5, 2.0, 4.0, 0.0)) == 0.0
    assert calls == []
    assert bev_iou(a, _box(3.0, 0.5, 4.0, 2.0, 0.3)) > 0.0
    assert calls


def test_reject_leaves_iou_and_ap_unchanged(monkeypatch):
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = _random_box(rng), _random_box(rng)
        assert intersection_area(a, b) == _clipped_area(a, b)
    instances = [_random_instance(rng) for _ in range(20)]
    with_reject = [average_precision(p, g, iou_threshold=0.3) for p, g in instances]
    monkeypatch.setattr(ts3d.evalkit, "intersection_area", _clipped_area)
    assert with_reject == [average_precision(p, g, iou_threshold=0.3) for p, g in instances]


def test_iou_3d_cases():
    a = _box(0, 0, 1, 1, 0, y=1.0, h=1.0)
    assert iou_3d(a, a) == pytest.approx(1.0, abs=1e-12)
    high = _box(0, 0, 1, 1, 0, y=-2.0, h=1.0)
    assert iou_3d(a, high) == 0.0
    stacked = _box(0, 0, 1, 1, 0, y=1.5, h=1.0)  # half vertical overlap
    assert iou_3d(a, stacked) == pytest.approx(1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# AP


def _brute_force_ap(predictions, ground_truth, thr, mode="bev"):
    """Independent PR recompute: quadratic matching, explicit recall sweep."""
    fn = bev_iou if mode == "bev" else iou_3d
    order = sorted(range(len(predictions)), key=lambda i: (-predictions[i][1].score, i))
    claimed = set()
    flags = []
    for i in order:
        frame, p = predictions[i]
        best, best_j = 0.0, None
        for j, (g_frame, g) in enumerate(ground_truth):
            if j in claimed or g_frame != frame:
                continue
            v = fn(p, g)
            if v > best:
                best, best_j = v, j
        if best_j is not None and best >= thr:
            claimed.add(best_j)
            flags.append(1)
        else:
            flags.append(0)
    total = 0.0
    for k in range(1, 41):
        r = k / 40
        best_prec = 0.0
        tp = 0
        for rank, hit in enumerate(flags, start=1):
            tp += hit
            if tp / len(ground_truth) >= r - 1e-12:
                best_prec = max(best_prec, tp / rank)
        total += best_prec
    return 100.0 * total / 40


def _random_instance(rng, n_pred=30, n_gt=12):
    gts, preds = [], []
    for j in range(n_gt):
        frame = f"{rng.integers(0, 4):06d}"
        gts.append((frame, _random_box(rng)))
    for _ in range(n_pred):
        frame, base = gts[rng.integers(0, n_gt)]
        jitter = _box(
            base.x + rng.normal(0, 1.0), base.z + rng.normal(0, 1.0),
            base.l * rng.uniform(0.7, 1.3), base.w * rng.uniform(0.7, 1.3),
            base.ry + rng.normal(0, 0.4), score=float(rng.uniform()),
        )
        preds.append((frame, jitter))
    return preds, gts


def test_perfect_predictions_score_100():
    rng = np.random.default_rng(2)
    gts = [("000000", _random_box(rng)) for _ in range(6)]
    preds = [(frame, replace(g, score=1.0)) for frame, g in gts]
    ap, flagged = average_precision(preds, gts, iou_threshold=0.5)
    assert not flagged
    assert ap == pytest.approx(100.0, abs=1e-9)


def test_no_predictions_zero():
    rng = np.random.default_rng(3)
    gts = [("000000", _random_box(rng))]
    ap, flagged = average_precision([], gts, iou_threshold=0.5)
    assert ap == 0.0 and not flagged


def test_empty_ground_truth_flagged():
    ap, flagged = average_precision([], [], iou_threshold=0.5)
    assert ap == 0.0 and flagged


def test_matches_brute_force_reference():
    rng = np.random.default_rng(4)
    for _ in range(25):
        preds, gts = _random_instance(rng)
        ap, _ = average_precision(preds, gts, iou_threshold=0.3)
        ref = _brute_force_ap(preds, gts, 0.3)
        assert ap == pytest.approx(ref, abs=1e-9)


def test_adding_top_scoring_true_positive_never_decreases_ap():
    # the new prediction claims a ground truth nothing else can reach, so the
    # rest of the matching is undisturbed and AP must not drop
    rng = np.random.default_rng(5)
    for _ in range(10):
        preds, gts = _random_instance(rng, n_pred=15, n_gt=8)
        lonely = _random_box(rng)
        gts = gts + [("zz9999", lonely)]
        base_ap, _ = average_precision(preds, gts, iou_threshold=0.3)
        extra = ("zz9999", replace(lonely, score=2.0))
        new_ap, _ = average_precision(preds + [extra], gts, iou_threshold=0.3)
        assert new_ap >= base_ap - 1e-9


def test_report_roundtrip(tmp_path):
    path = tmp_path / "metrics.txt"
    write_report(path, {"ap_bev_0.5": 93.25, "frames": 32})
    back = read_pairs(path)
    assert float(back["ap_bev_0.5"]) == 93.25
    assert int(back["frames"]) == 32


def test_report_bytes_are_pinned(tmp_path):
    path = tmp_path / "metrics.txt"
    write_report(path, {"ap_bev_Car_iou0.7": 100.0 / 3, "ap_3d_Car_iou0.7": 0.0,
                        "frames": 2, "undefined_Car": 1})
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c4f306f41573ec6c9ef9a74d2ccd248d5cee8db52ddd72b38408e75b695a1437"


def test_non_finite_ground_truth_is_an_error_not_a_miss(tmp_path):
    line = "Car 0.00 0 0.0 10 10 60 50 1.5 1.6 {l} 0 1.5 20 0.0"
    for sub in ("pred", "gt"):
        (tmp_path / sub).mkdir()
    (tmp_path / "pred" / "000000.txt").write_text(line.format(l="3.9") + " 0.9\n")
    gt = tmp_path / "gt" / "000000.txt"
    gt.write_text(line.format(l="3.9") + "\n")
    metrics = evaluate_directories(tmp_path / "pred", tmp_path / "gt", ["Car"], {"Car": 0.7})
    assert metrics["ap_bev_Car_iou0.7"] == 100.0
    gt.write_text(line.format(l="nan") + "\n")
    with pytest.raises(ValueError, match="line 1: non-finite field l=nan") as info:
        evaluate_directories(tmp_path / "pred", tmp_path / "gt", ["Car"], {"Car": 0.7})
    assert str(gt) in str(info.value)


@pytest.mark.parametrize("side, w, l", [("pred", "1.6", "0"), ("gt", "-1.6", "3.9")])
def test_degenerate_scored_label_names_its_file(tmp_path, side, w, l):
    line = "Car 0.00 0 0.0 10 10 60 50 1.5 {w} {l} 0 1.5 20 0.0"
    dontcare = "DontCare -1 -1 -10 0 0 5 5 -1 -1 -1 -1000 -1000 -1000 -10\n"
    for sub in ("pred", "gt"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "000000.txt").write_text(
            dontcare + line.format(w="1.6", l="3.9") + (" 0.9\n" if sub == "pred" else "\n"))
    metrics = evaluate_directories(tmp_path / "pred", tmp_path / "gt", ["Car"], {"Car": 0.7})
    assert metrics["ap_bev_Car_iou0.7"] == 100.0  # the DontCare lines are skipped
    bad = tmp_path / side / "000000.txt"
    bad.write_text(dontcare + line.format(w=w, l=l) + (" 0.9\n" if side == "pred" else "\n"))
    message = f"degenerate box extents l={float(l)}, w={float(w)}"
    with pytest.raises(ValueError, match=message) as info:
        evaluate_directories(tmp_path / "pred", tmp_path / "gt", ["Car"], {"Car": 0.7})
    assert str(bad) in str(info.value)
