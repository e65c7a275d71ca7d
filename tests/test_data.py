"""Synthetic scenes, KITTI-format I/O, dataset build, augmentation."""

import math
import os
import warnings

import numpy as np
import pytest

from ts3d.augment import augment, horizontal_flip, photometric_jitter
from ts3d.dataset import (
    FrameData,
    build_pseudo_gt,
    estimate_priors,
    generate_dataset,
    labels_for_assignment,
    load_frame,
    read_manifest,
)
from ts3d.disphead import block_match_stereo
from ts3d.kitti_io import (
    Calibration,
    ObjectLabel,
    make_calibration,
    parse_label_line,
    read_calib,
    read_kitti_label,
    read_ppm,
    write_calib,
    write_kitti_label,
    write_ppm,
    read_pgm,
    write_pgm,
)
from ts3d.synth import SynthParams, _hash01, synth_scene


# ---------------------------------------------------------------------------
# label I/O


def test_label_line_field_positions():
    line = "Car 0.00 0 -1.57 0 0 100 50 1.5 1.6 3.9 0 1.5 20 -1.57"
    lb = parse_label_line(line)
    assert lb.type == "Car"
    assert lb.z == 20.0
    assert lb.ry == -1.57
    assert lb.h == 1.5 and lb.w == 1.6 and lb.l == 3.9
    assert np.allclose(lb.box2d, [0, 0, 100, 50])


def test_label_roundtrip(tmp_path):
    labels = [
        ObjectLabel("Car", 0.1, 1, -0.5, np.array([10.0, 20.0, 60.0, 55.0]),
                    1.5, 1.7, 4.0, -2.0, 1.5, 18.0, 0.3),
        ObjectLabel("DontCare", 0.0, 0, 0.0, np.array([0.0, 0.0, 5.0, 5.0]),
                    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    ]
    path = tmp_path / "000000.txt"
    write_kitti_label(path, labels)
    back = read_kitti_label(path)
    assert [b.type for b in back] == ["Car", "DontCare"]
    assert back[0].z == pytest.approx(18.0)
    assert np.allclose(back[0].box2d, labels[0].box2d, atol=0.01)


def test_detection_score_field(tmp_path):
    det = ObjectLabel("Car", 0.0, 0, 0.1, np.array([1.0, 2.0, 3.0, 4.0]),
                      1.5, 1.7, 4.0, 0.0, 1.5, 10.0, 0.0, score=0.87)
    path = tmp_path / "det.txt"
    write_kitti_label(path, [det])
    assert len(path.read_text().split()) == 16
    back = read_kitti_label(path)
    assert back[0].score == pytest.approx(0.87)


def test_dontcare_excluded_from_assignment():
    labels = read_back = [
        ObjectLabel("DontCare", 0, 0, 0, np.array([0.0, 0.0, 5.0, 5.0]),
                    0, 0, 0, 0, 0, 0, 0),
        ObjectLabel("Car", 0, 0, 0, np.array([1.0, 1.0, 9.0, 9.0]),
                    1.5, 1.7, 4.0, 0.0, 1.5, 10.0, 0.0),
    ]
    usable = labels_for_assignment(labels, ["Car"])
    assert len(usable) == 1 and usable[0]["class_id"] == 0


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Car 1 2 3\n")
    with pytest.raises(ValueError, match="line 1"):
        read_kitti_label(path)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_disparity_arithmetic(tmp_path):
    calib = make_calibration(721.0, 609.5, 172.8, 0.54)
    path = tmp_path / "calib.txt"
    write_calib(path, calib)
    back = read_calib(path)
    assert back.f == pytest.approx(721.0)
    assert back.baseline == pytest.approx(0.54)
    assert back.disparity_at(10.0) == pytest.approx(38.934, abs=1e-3)


def test_missing_projection_row_rejected(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("P2: " + " ".join(["1.0"] * 12) + "\n")
    with pytest.raises(ValueError, match="P3"):
        read_calib(path)


# ---------------------------------------------------------------------------
# image I/O


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(12, 17, 3)).astype(np.float32)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == (12, 17, 3)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6
    # byte-exact when the source is already quantized
    write_ppm(path, back)
    assert np.array_equal(read_ppm(path), back)


def test_pgm_roundtrip(tmp_path):
    img = np.arange(30, dtype=np.uint8).reshape(5, 6)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


# ---------------------------------------------------------------------------
# synthetic scenes


def test_unit_disparity_at_focal_baseline_depth():
    # front face placed exactly at z = f*b -> disparity exactly 1 px
    params = SynthParams(width=128, height=64, focal=40.0, baseline=0.25,
                         n_objects=(1, 1), z_range=(11.0, 11.0),
                         w_range=(2.0, 2.0), l_range=(2.0, 2.0),
                         yaw_choices=(0.0,))
    frame = synth_scene(5, params)
    face = (frame.object_mask == 0) & (frame.disparity == 1.0)
    assert face.sum() > 20  # the fronto-parallel face renders at exactly 1 px


def test_zero_objects_background_only():
    params = SynthParams(width=64, height=32, n_objects=(0, 0))
    frame = synth_scene(1, params)
    assert frame.labels == []
    assert (frame.object_mask == -1).all()


def test_front_face_columns_shift_by_integer_disparity():
    # f*b/z_front = 200*0.3/12 = 5 px exactly
    params = SynthParams(width=256, height=128, focal=200.0, baseline=0.3,
                         n_objects=(1, 1), z_range=(13.0, 13.0),
                         w_range=(2.0, 2.0), l_range=(2.0, 2.0),
                         yaw_choices=(0.0,))
    frame = synth_scene(9, params)
    d = round(200.0 * 0.3 / 12.0)
    assert d == 5
    face = (frame.object_mask == 0) & (np.abs(frame.disparity - 5.0) < 1e-9)
    vs, us = np.nonzero(face)
    assert len(vs) > 50
    sel = us - d >= 0
    left_vals = frame.left[vs[sel], us[sel]]
    right_vals = frame.right[vs[sel], us[sel] - d]
    assert np.abs(left_vals - right_vals).max() < 1e-5


def test_epipolar_invariant_block_match_accuracy():
    for seed in (0, 1, 2):
        frame = synth_scene(seed, SynthParams())
        disp, valid, _, _ = block_match_stereo(frame.left, frame.right, max_disp=20, window=9)
        assert valid.sum() > 1000
        mae = np.abs(disp[valid] - frame.disparity[valid]).mean()
        assert mae < 1.5


def test_scene_determinism():
    a = synth_scene(7, SynthParams(width=64, height=32))
    b = synth_scene(7, SynthParams(width=64, height=32))
    assert a.left.tobytes() == b.left.tobytes()
    assert a.right.tobytes() == b.right.tobytes()


def test_texture_hash_large_salts_render_without_overflow_warning():
    # 5000016 = 1 + 5 * 1000003 is the first seed whose salts overflow an int64 product
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        synth_scene(5000016, SynthParams(width=64, height=32))


def test_texture_hash_keeps_the_wrapped_int64_formula():
    rng = np.random.default_rng(0)
    ix = rng.integers(-5000, 5000, size=64)
    iz = rng.integers(-5000, 5000, size=64)
    for salt in rng.integers(0, 2**40, size=32):
        with np.errstate(over="ignore"):
            h = (ix.astype(np.int64) * 374761393 + iz.astype(np.int64) * 668265263
                 + np.int64(salt) * 2246822519).astype(np.uint32)
        h ^= h >> np.uint32(13)
        h = (h * np.uint32(1274126177)).astype(np.uint32)
        h ^= h >> np.uint32(16)
        want = (h & np.uint32(0xFFFFFF)).astype(np.float64) / float(0xFFFFFF)
        assert np.array_equal(_hash01(ix, iz, int(salt)), want)
        assert np.array_equal(_hash01(ix, iz, salt), want)


# ---------------------------------------------------------------------------
# dataset build


def test_dataset_generation_and_manifest(tmp_path):
    params = SynthParams(width=64, height=32, n_objects=(1, 2), z_range=(4.0, 12.0))
    man = generate_dataset(tmp_path, seed=11, n_train=3, n_val=2, params=params)
    assert man.splits["train"] == ["000000", "000001", "000002"]
    assert man.splits["val"] == ["000003", "000004"]
    for sub in ("image_2", "image_3", "label_2", "calib"):
        assert len(os.listdir(tmp_path / sub)) == 5
    back = read_manifest(tmp_path / "manifest.txt")
    assert back.seed == 11
    assert back.classes == ["Car"]
    assert back.splits == man.splits
    tpl = back.anchor_templates()
    assert len(tpl) == 1 and tpl[0].z > 0


def test_dataset_regeneration_is_byte_identical(tmp_path):
    params = SynthParams(width=64, height=32)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_dataset(a_dir, seed=3, n_train=2, n_val=1, params=params)
    generate_dataset(b_dir, seed=3, n_train=2, n_val=1, params=params)
    for sub in ("image_2", "image_3", "label_2", "calib"):
        for name in os.listdir(a_dir / sub):
            assert (a_dir / sub / name).read_bytes() == (b_dir / sub / name).read_bytes()
    assert (a_dir / "manifest.txt").read_text() == (b_dir / "manifest.txt").read_text()


def test_pseudo_gt_cache_roundtrip(tmp_path):
    params = SynthParams(width=64, height=32, n_objects=(1, 1), z_range=(4.0, 8.0))
    man = generate_dataset(tmp_path, seed=4, n_train=2, n_val=0, params=params)
    n = build_pseudo_gt(tmp_path, max_disp=12, window=7)
    assert n == 2
    frame = load_frame(tmp_path, "000000", man)
    assert frame.pseudo_disp.shape == (32, 64)
    assert frame.pseudo_valid.dtype == bool
    left = read_ppm(tmp_path / "image_2" / "000000.ppm")
    right = read_ppm(tmp_path / "image_3" / "000000.ppm")
    dl, vl, _, _ = block_match_stereo(left, right, 12, 7)
    assert np.array_equal(frame.pseudo_disp, dl.astype(np.float32))
    assert np.array_equal(frame.pseudo_valid, vl)


def test_priors_single_and_multi_scale():
    labels = []
    for z, hpx in ((5.0, 60.0), (10.0, 30.0), (20.0, 15.0), (25.0, 12.0)):
        labels.append([ObjectLabel("Car", 0, 0, 0.0,
                                   np.array([0.0, 0.0, hpx * 1.2, hpx]),
                                   1.5, 1.7, 4.0, 0.0, 1.5, z, 0.0)])
    single = estimate_priors(labels, ["Car"], n_scales=1)
    assert len(single["Car"]) == 1
    assert single["Car"][0]["z"] == pytest.approx(15.0)
    multi = estimate_priors(labels, ["Car"], n_scales=2)
    assert len(multi["Car"]) == 2
    # scale bins sorted by apparent size: nearer objects in the larger bin
    assert multi["Car"][0]["z"] > multi["Car"][1]["z"]


# ---------------------------------------------------------------------------
# augmentation


def _loaded_frame(tmp_path, with_pseudo=True):
    params = SynthParams(width=64, height=32, n_objects=(2, 2), z_range=(4.0, 10.0))
    man = generate_dataset(tmp_path, seed=21, n_train=1, n_val=0, params=params)
    if with_pseudo:
        build_pseudo_gt(tmp_path, max_disp=12, window=7)
    return load_frame(tmp_path, "000000", man, with_pseudo=with_pseudo)


def test_photometric_jitter_preserves_labels_and_consistency(tmp_path):
    frame = _loaded_frame(tmp_path, with_pseudo=False)
    before = [lb.to_line() for lb in frame.labels]
    frame = photometric_jitter(frame, np.random.default_rng(0))
    assert [lb.to_line() for lb in frame.labels] == before
    assert frame.left.min() >= 0.0 and frame.left.max() <= 1.0


def test_flip_twice_is_identity(tmp_path):
    frame = _loaded_frame(tmp_path)
    left0 = frame.left.copy()
    right0 = frame.right.copy()
    labels0 = [(lb.x, lb.z, lb.ry, tuple(lb.box2d)) for lb in frame.labels]
    disp0 = frame.pseudo_disp.copy()
    frame = horizontal_flip(horizontal_flip(frame))
    assert np.array_equal(frame.left, left0)
    assert np.array_equal(frame.right, right0)
    assert np.array_equal(frame.pseudo_disp, disp0)
    for lb, (x, z, ry, box) in zip(frame.labels, labels0):
        assert lb.x == pytest.approx(x, abs=1e-9)
        assert lb.z == pytest.approx(z)
        assert math.sin(lb.ry) == pytest.approx(math.sin(ry), abs=1e-12)
        assert math.cos(lb.ry) == pytest.approx(math.cos(ry), abs=1e-12)
        assert np.allclose(lb.box2d, box, atol=1e-9)


def test_flip_preserves_rectified_geometry(tmp_path):
    """The remapped pseudo ground truth must equal a fresh block match of the
    flipped pair: the flip is a valid rectified scene, not just mirrored pixels."""
    frame = _loaded_frame(tmp_path)
    frame = horizontal_flip(frame)
    dl, vl, _, _ = block_match_stereo(frame.left, frame.right, 12, 7)
    both = vl & frame.pseudo_valid
    assert both.sum() > 50
    agree = (dl[both] == frame.pseudo_disp[both]).mean()
    assert agree >= 0.99
    # disparities stay positive and depth-consistent after the flip
    assert frame.pseudo_disp[frame.pseudo_valid].min() >= 0


def test_flip_mirrors_boxes_and_yaw(tmp_path):
    frame = _loaded_frame(tmp_path, with_pseudo=False)
    w = frame.left.shape[1]
    b = frame.calib.baseline
    orig = [(lb.x, lb.ry, tuple(lb.box2d)) for lb in frame.labels]
    frame = horizontal_flip(frame)
    for lb, (x, ry, box) in zip(frame.labels, orig):
        assert lb.x == pytest.approx(b - x)
        assert math.cos(2 * lb.ry) == pytest.approx(math.cos(2 * (math.pi - ry)), abs=1e-9)
        assert lb.box2d[0] == pytest.approx((w - 1) - box[2])
        assert lb.box2d[2] == pytest.approx((w - 1) - box[0])


def test_augment_deterministic_given_rng(tmp_path):
    frame_a = _loaded_frame(tmp_path)
    frame_b = load_frame(tmp_path, "000000", read_manifest(tmp_path / "manifest.txt"))
    frame_a = augment(frame_a, np.random.default_rng(42))
    frame_b = augment(frame_b, np.random.default_rng(42))
    assert np.array_equal(frame_a.left, frame_b.left)
    assert np.array_equal(frame_a.right, frame_b.right)


def test_augment_leaves_its_input_unchanged(tmp_path):
    frame = _loaded_frame(tmp_path)
    arrays = ("left", "right", "pseudo_disp", "pseudo_valid",
              "pseudo_disp_right", "pseudo_valid_right")
    before = {k: getattr(frame, k).copy() for k in arrays}
    lines = [lb.to_line() for lb in frame.labels]
    out = augment(frame, np.random.default_rng(3), flip_probability=1.0)
    assert out is not frame and not np.array_equal(out.left, frame.left)
    for k in arrays:
        assert np.array_equal(getattr(frame, k), before[k]), k
    assert [lb.to_line() for lb in frame.labels] == lines
