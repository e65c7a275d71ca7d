"""Rotated IoU against rasterization; AP against a brute-force PR recompute."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ts3d.evalkit
from ts3d.evalkit import (
    EvalBox,
    RotatedBox,
    average_precision,
    bev_iou,
    intersection_area,
    iou_3d,
    read_report,
    write_report,
)


def rasterized_iou(a: RotatedBox, b: RotatedBox, n: int = 1000) -> float:
    """Monte-Carlo style oracle: classify an n x n grid of cell centers."""
    ca, cb = a.corners(), b.corners()
    lo = np.minimum(ca.min(axis=0), cb.min(axis=0)) - 1e-6
    hi = np.maximum(ca.max(axis=0), cb.max(axis=0)) + 1e-6
    xs = np.linspace(lo[0], hi[0], n, endpoint=False) + (hi[0] - lo[0]) / (2 * n)
    zs = np.linspace(lo[1], hi[1], n, endpoint=False) + (hi[1] - lo[1]) / (2 * n)
    px, pz = np.meshgrid(xs, zs)

    def inside(box):
        dx, dz = px - box.x, pz - box.z
        c, s = math.cos(box.theta), math.sin(box.theta)
        ll = dx * c + dz * s
        ww = -dx * s + dz * c
        return (np.abs(ll) <= box.l / 2) & (np.abs(ww) <= box.w / 2)

    ia, ib = inside(a), inside(b)
    inter = (ia & ib).sum()
    union = (ia | ib).sum()
    return inter / union if union else 0.0


def _random_box(rng):
    return RotatedBox(
        x=rng.uniform(-5, 5), z=rng.uniform(-5, 5),
        l=rng.uniform(1.0, 5.0), w=rng.uniform(1.0, 3.0),
        theta=rng.uniform(-math.pi, math.pi),
    )


# ---------------------------------------------------------------------------
# IoU


def test_identical_boxes_full_overlap():
    b = RotatedBox(1.0, 2.0, 4.0, 2.0, 0.7)
    assert bev_iou(b, b) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_boxes_zero():
    a = RotatedBox(0.0, 0.0, 2.0, 2.0, 0.3)
    b = RotatedBox(50.0, 50.0, 2.0, 2.0, -0.9)
    assert bev_iou(a, b) == 0.0


def test_unit_squares_half_shift():
    a = RotatedBox(0.0, 0.0, 1.0, 1.0, 0.0)
    b = RotatedBox(0.5, 0.0, 1.0, 1.0, 0.0)
    assert bev_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_degenerate_extents_rejected():
    with pytest.raises(ValueError):
        bev_iou(RotatedBox(0, 0, 0.0, 1.0, 0.0), RotatedBox(0, 0, 1, 1, 0))


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
    a = RotatedBox(1.0, 0.5, 3.0, 1.5, 0.4)
    b = RotatedBox(1.8, 1.0, 2.0, 1.8, -0.8)

    def rotate(box):
        c, s = math.cos(phi), math.sin(phi)
        return RotatedBox(box.x * c - box.z * s, box.x * s + box.z * c,
                          box.l, box.w, box.theta + phi)

    assert abs(bev_iou(a, b) - bev_iou(rotate(a), rotate(b))) < 1e-9


def _clipped_area(a: RotatedBox, b: RotatedBox) -> float:
    """Sutherland-Hodgman on every pair, with no bounding-circle reject."""
    poly = [tuple(p) for p in a.corners()]
    clip = [tuple(p) for p in b.corners()]
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
    a = RotatedBox(0.0, 0.0, 4.0, 2.0, 0.3)
    # half-diagonals sqrt(5) each: centres 4.5 apart cannot overlap
    assert bev_iou(a, RotatedBox(4.5, 0.0, 4.0, 2.0, -1.1)) == 0.0
    assert iou_3d(a, RotatedBox(0.0, -4.5, 2.0, 4.0, 0.0)) == 0.0
    assert calls == []
    assert bev_iou(a, RotatedBox(3.0, 0.5, 4.0, 2.0, 0.3)) > 0.0
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
    a = RotatedBox(0, 0, 1, 1, 0, y=1.0, h=1.0)
    assert iou_3d(a, a) == pytest.approx(1.0, abs=1e-12)
    high = RotatedBox(0, 0, 1, 1, 0, y=-2.0, h=1.0)
    assert iou_3d(a, high) == 0.0
    stacked = RotatedBox(0, 0, 1, 1, 0, y=1.5, h=1.0)  # half vertical overlap
    assert iou_3d(a, stacked) == pytest.approx(1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# AP


def _brute_force_ap(predictions, ground_truth, thr, mode="bev"):
    """Independent PR recompute: quadratic matching, explicit recall sweep."""
    fn = bev_iou if mode == "bev" else iou_3d
    order = sorted(range(len(predictions)), key=lambda i: (-predictions[i].score, i))
    claimed = set()
    flags = []
    for i in order:
        p = predictions[i]
        best, best_j = 0.0, None
        for j, g in enumerate(ground_truth):
            if j in claimed or g.frame != p.frame:
                continue
            v = fn(p.box, g.box)
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
        gts.append(EvalBox(frame=frame, box=_random_box(rng)))
    for _ in range(n_pred):
        base = gts[rng.integers(0, n_gt)]
        jitter = RotatedBox(
            base.box.x + rng.normal(0, 1.0), base.box.z + rng.normal(0, 1.0),
            base.box.l * rng.uniform(0.7, 1.3), base.box.w * rng.uniform(0.7, 1.3),
            base.box.theta + rng.normal(0, 0.4),
        )
        preds.append(EvalBox(frame=base.frame, box=jitter, score=float(rng.uniform())))
    return preds, gts


def test_perfect_predictions_score_100():
    rng = np.random.default_rng(2)
    gts = [EvalBox(frame="000000", box=_random_box(rng)) for _ in range(6)]
    preds = [EvalBox(frame=g.frame, box=g.box, score=1.0) for g in gts]
    ap, flagged = average_precision(preds, gts, iou_threshold=0.5)
    assert not flagged
    assert ap == pytest.approx(100.0, abs=1e-9)


def test_no_predictions_zero():
    rng = np.random.default_rng(3)
    gts = [EvalBox(frame="000000", box=_random_box(rng))]
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
        lonely = EvalBox(frame="zz9999", box=_random_box(rng))
        gts = gts + [lonely]
        base_ap, _ = average_precision(preds, gts, iou_threshold=0.3)
        extra = EvalBox(frame=lonely.frame, box=lonely.box, score=2.0)
        new_ap, _ = average_precision(preds + [extra], gts, iou_threshold=0.3)
        assert new_ap >= base_ap - 1e-9


def test_report_roundtrip(tmp_path):
    path = tmp_path / "metrics.txt"
    write_report(path, {"ap_bev_0.5": 93.25, "frames": 32})
    back = read_report(path)
    assert float(back["ap_bev_0.5"]) == 93.25
    assert int(back["frames"]) == 32
