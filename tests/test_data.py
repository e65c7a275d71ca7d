"""Synthetic scenes, KITTI-format I/O, dataset build, augmentation."""

import hashlib
import math
import os
import warnings

import numpy as np
import pytest

from ts3d.augment import augment, horizontal_flip, photometric_jitter
from ts3d.config import RunConfig
from ts3d.dataset import (
    FrameData,
    build_pseudo_gt,
    estimate_priors,
    generate_dataset,
    load_frame,
    read_manifest,
)
from ts3d.detect import AnchorTemplate, build_targets, generate_anchors
from ts3d.disphead import block_match_stereo
from ts3d.kitti_io import (
    Calibration,
    ObjectLabel,
    label_corners,
    make_calibration,
    parse_label_line,
    read_calib,
    read_kitti_label,
    read_ppm,
    read_raster_f32,
    read_raster_mask,
    write_calib,
    write_kitti_label,
    write_ppm,
    write_pgm,
    write_raster_f32,
    write_raster_mask,
)
from ts3d.model import build_anchor_templates
from ts3d.synth import SynthParams, _hash01, project_box, synth_scene


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
    # one 8x8 anchor at (8, 8): the Car box claims it, the DontCare box is left out
    anchors = generate_anchors(1, 1, 16, [AnchorTemplate(0, 8.0, 8.0, 10.0, 1.7, 1.5, 4.0)])
    targets = build_targets(anchors, labels, ["Car"], 200.0, 8.0, 8.0, 0.5, 0.4, True)
    assert targets.n_objects == 1
    assert targets.pos_rows.tolist() == [0] and targets.cls_targets.tolist() == [[1.0, 0.0]]


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Car 1 2 3\n")
    with pytest.raises(ValueError, match="line 1"):
        read_kitti_label(path)


@pytest.mark.parametrize("field, value", [("l", "nan"), ("z", "inf"), ("score", "-inf"),
                                          ("occluded", "nan")])
def test_non_finite_label_field_names_file_line_and_field(tmp_path, field, value):
    fields = "Car 0.00 0 -1.57 0 0 100 50 1.5 1.6 3.9 0 1.5 20 -1.57 0.5".split()
    names = ["type", "truncated", "occluded", "alpha", "x1", "y1", "x2", "y2",
             "h", "w", "l", "x", "y", "z", "ry", "score"]
    fields[names.index(field)] = value
    path = tmp_path / "000000.txt"
    # line 1 is a KITTI DontCare line: its -1 extents and -1000 location parse
    path.write_text("DontCare -1 -1 -10 0 0 5 5 -1 -1 -1 -1000 -1000 -1000 -10\n"
                    + " ".join(fields) + "\n")
    with pytest.raises(ValueError, match=f"line 2: non-finite field {field}={value}") as info:
        read_kitti_label(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_disparity_arithmetic(tmp_path):
    calib = make_calibration(721.0, 609.5, 172.8, 0.54)
    calib.p_left[0, 3] += 44.9  # KITTI's P2 and P3 are offset from the reference camera
    calib.p_right[0, 3] += 44.9
    path = tmp_path / "calib.txt"
    write_calib(path, calib)
    back = read_calib(path)
    assert back.f == pytest.approx(721.0)
    assert back.baseline == pytest.approx(0.54)
    assert back.f * back.baseline / 10.0 == pytest.approx(38.934, abs=1e-3)


def test_missing_projection_row_rejected(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("P2: " + " ".join(["1.0"] * 12) + "\n")
    with pytest.raises(ValueError, match="P3"):
        read_calib(path)


@pytest.mark.parametrize("f, baseline, match", [(-721.0, 0.54, "focal length"),
                                                (721.0, 0.0, "baseline"),
                                                (721.0, -0.54, "baseline")])
def test_non_positive_focal_or_baseline_names_the_file(tmp_path, f, baseline, match):
    path = tmp_path / "calib.txt"
    write_calib(path, make_calibration(f, 609.5, 172.8, baseline))
    with pytest.raises(ValueError, match=match) as info:
        read_calib(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("key, index, entry", [("P2", 2, "nan"), ("P3", 11, "-inf"),
                                               ("P2", 0, "1.0e"), ("P3", 5, "x")])
def test_bad_projection_entry_names_file_row_and_index(tmp_path, key, index, entry):
    path = tmp_path / "calib.txt"
    write_calib(path, make_calibration(721.0, 609.5, 172.8, 0.54))
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
    values = lines[row].split()[1:]
    values[index] = entry
    lines[row] = f"{key}: " + " ".join(values)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_calib(path)
    assert str(path) in str(info.value)
    assert f"row {key} entry {index} " in str(info.value) and repr(entry) in str(info.value)


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


@pytest.mark.parametrize("cut, found", [(1, "5 pixel bytes, expected 6 for 2x1 RGB"),
                                        (11, "malformed PPM header")])
def test_truncated_ppm_names_the_file(tmp_path, cut, found):
    path = tmp_path / "img.ppm"
    write_ppm(path, np.zeros((1, 2, 3), dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match=found) as info:
        read_ppm(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("write, read, message", [
    (write_raster_f32, read_raster_f32, "holds 20 bytes, expected 96 for a 4x6 float32"),
    (write_raster_mask, read_raster_mask, "holds 5 bytes, expected 24 for a 4x6 uint8"),
])
def test_raster_of_the_wrong_size_names_the_file(tmp_path, write, read, message):
    path = tmp_path / "raster"
    write(path, np.ones(5))
    with pytest.raises(ValueError, match=message) as info:
        read(path, 4, 6)
    assert str(path) in str(info.value)
    write(path, np.ones((4, 6)))
    assert read(path, 4, 6).shape == (4, 6)


def _read_pgm(path) -> np.ndarray:
    """The image ``write_pgm`` wrote: three header lines (P5, the size, 255), then pixels."""
    magic, size, maxval, data = path.read_bytes().split(b"\n", 3)
    w, h = (int(x) for x in size.split())
    assert magic == b"P5" and maxval == b"255" and len(data) == w * h
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def test_pgm_roundtrip(tmp_path):
    img = np.arange(30, dtype=np.uint8).reshape(5, 6)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(_read_pgm(path), img)


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


def test_boxes_that_can_reach_the_near_plane_are_rejected():
    # 0.1 m near plane + half of the 4 m box length
    params = SynthParams(n_objects=(1, 1), z_range=(1.0, 1.0), yaw_choices=(0.0,),
                         w_range=(2.0, 2.0), l_range=(4.0, 4.0))
    with pytest.raises(ValueError, match=r"z_range minimum 1 m .* at least 2\.1 m"):
        synth_scene(3, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = synth_scene(3, SynthParams(n_objects=(1, 1), z_range=(2.11, 2.11),
                                           yaw_choices=(0.0,), w_range=(2.0, 2.0),
                                           l_range=(4.0, 4.0)))
    assert (frame.object_mask == 0).any()


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


# sha256 of left, right, disparity and object-mask bytes plus the label lines,
# recorded from the one-pass-per-face renderer that textured every painted face
RENDER_DIGESTS = [
    (0, {"width": 64, "height": 32},
     "45bcb6107c2b8f34a94528c3ecbde992d29fa8fefd9c8bbd11a4d1a3defe5d77"),
    (0, {"width": 256, "height": 128},
     "fe6ee84cf021521cc13e603bfa3bc311aeb9d789fe7846dae52cf95204494bbc"),
    (1, {"width": 64, "height": 32},
     "a13edff5df62df162cf60ca6968f076a6589c9b7721434bf89a4a1196fc13c76"),
    (1, {"width": 256, "height": 128},
     "d3ccfd32fb2cf91f8acb375080fc84df9d87fefebcb29a5daaa74e6485575fe9"),
    (7, {"width": 64, "height": 32},
     "05c67850da804533b0ba735666f820e4f61649be1ec13ce0e78c84a94b63fb05"),
    (7, {"width": 256, "height": 128},
     "126ee2f9fbf23b0e7650cb3751b014057ef1a6627c2b67efa6856f6005e033c4"),
    (5000016, {"width": 64, "height": 32},
     "effe4f040eaa354b705db65f8dd31dac99d9c6b51a6907d75049120c04a27b46"),
    (5000016, {"width": 256, "height": 128},
     "bfb9f64197fcbcbd4338d0569d31bba558938a92d5a9a20550324c62d82c8cee"),
    (0, {"width": 1280, "height": 288},
     "206df53e466d00c2990eefcf406624668462327e434b9134cdc3ca2c83b6e990"),
    (3, {"z_range": (2.5, 4.0), "n_objects": (4, 4)},
     "7efc69031a26cca3689faf61e6ba7643b500ce70d68a02d743a2610f3fc560d0"),
    (2, {"width": 320, "height": 96, "focal": 90.0},
     "14cc434dcc3bf03e77ea7921c422e1365558aef177d2eee1d134f7a2ed5ac329"),
]


@pytest.mark.parametrize("seed, kwargs, want", RENDER_DIGESTS)
def test_render_digest_is_pinned(seed, kwargs, want):
    frame = synth_scene(seed, SynthParams(**kwargs))
    h = hashlib.sha256()
    for arr in (frame.left, frame.right, frame.disparity, frame.object_mask):
        h.update(arr.tobytes())
    h.update("\n".join(lb.to_line() for lb in frame.labels).encode())
    assert h.hexdigest() == want


# ---------------------------------------------------------------------------
# dataset build


def test_dataset_generation_and_manifest(tmp_path):
    params = SynthParams(width=64, height=32, n_objects=(1, 2), z_range=(4.0, 12.0))
    man = generate_dataset(tmp_path, seed=11, n_train=3, n_val=2, params=params, n_scales=1)
    assert man.splits["train"] == ["000000", "000001", "000002"]
    assert man.splits["val"] == ["000003", "000004"]
    for sub in ("image_2", "image_3", "label_2", "calib"):
        assert len(os.listdir(tmp_path / sub)) == 5
    back = read_manifest(tmp_path / "manifest.txt")
    assert back.seed == 11
    assert back.classes == ["Car"]
    assert back.splits == man.splits
    tpl = build_anchor_templates(back, RunConfig.toy())
    assert len(tpl) == 1 and tpl[0].z > 0


@pytest.mark.parametrize("drop, add, named", [
    ("seed=", "", "'seed='"), ("width=", "", "'width='"), ("height=", "", "'height='"),
    ("", "prior.Van.0.z=9.0\n", "prior.Van.0.z"),
    ("", "prior.Car.x.z=1\n", "prior.Car.x.z"), ("", "prior.Car=1\n", "prior.Car"),
    ("", "prior.Car.0.z=far\n", "prior.Car.0.z"), ("seed=", "seed=abc\n", "'seed=abc'"),
    ("width=", "width=6.4e1\n", "'width=6.4e1'"), ("height=", "height=\n", "'height='"),
    ("split.train=", "split.train000000\n", r"line \d+: expected key=value, got 'split.train"),
])
def test_read_manifest_names_the_file_and_the_key(tmp_path, drop, add, named):
    generate_dataset(tmp_path, seed=5, n_train=1, n_val=0,
                     params=SynthParams(width=64, height=32), n_scales=1)
    path = tmp_path / "manifest.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not (drop and ln.startswith(drop))) + add)
    with pytest.raises(ValueError, match=named) as err:
        read_manifest(path)
    assert str(path) in str(err.value)


def test_manifest_bytes_are_pinned(tmp_path):
    generate_dataset(tmp_path, seed=5, n_train=2, n_val=1,
                     params=SynthParams(width=64, height=32), n_scales=2)
    digest = hashlib.sha256((tmp_path / "manifest.txt").read_bytes()).hexdigest()
    assert digest == "50b0cf9dc95947e7fcc49336bd0529096cb63876529a68c8100477ee2a9d9c38"


def test_dataset_regeneration_is_byte_identical(tmp_path):
    params = SynthParams(width=64, height=32)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_dataset(a_dir, seed=3, n_train=2, n_val=1, params=params, n_scales=1)
    generate_dataset(b_dir, seed=3, n_train=2, n_val=1, params=params, n_scales=1)
    for sub in ("image_2", "image_3", "label_2", "calib"):
        for name in os.listdir(a_dir / sub):
            assert (a_dir / sub / name).read_bytes() == (b_dir / sub / name).read_bytes()
    assert (a_dir / "manifest.txt").read_text() == (b_dir / "manifest.txt").read_text()


def test_generate_dataset_renders_each_frame_through_one_synth_scene_call(tmp_path, monkeypatch):
    # the benchmark's per-frame synth marks wrap ts3d.dataset.synth_scene
    import ts3d.dataset

    calls = []

    def counting(seed, params):
        calls.append(seed)
        return synth_scene(seed, params)

    monkeypatch.setattr(ts3d.dataset, "synth_scene", counting)
    generate_dataset(tmp_path, seed=4, n_train=3, n_val=2,
                     params=SynthParams(width=64, height=32), n_scales=1)
    assert len(calls) == 5


def test_pseudo_gt_cache_roundtrip(tmp_path):
    params = SynthParams(width=64, height=32, n_objects=(1, 1), z_range=(4.0, 8.0))
    man = generate_dataset(tmp_path, seed=4, n_train=2, n_val=0, params=params, n_scales=1)
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
    man = generate_dataset(tmp_path, seed=21, n_train=1, n_val=0, params=params, n_scales=1)
    if with_pseudo:
        build_pseudo_gt(tmp_path, max_disp=12, window=7)
    return load_frame(tmp_path, "000000", man, with_pseudo=with_pseudo)


def test_photometric_jitter_preserves_labels_and_consistency(tmp_path):
    frame = _loaded_frame(tmp_path, with_pseudo=False)
    before = [lb.to_line() for lb in frame.labels]
    frame = photometric_jitter(frame, np.random.default_rng(0))
    assert [lb.to_line() for lb in frame.labels] == before
    assert frame.left.min() >= 0.0 and frame.left.max() <= 1.0


def _in_view(lb, calib, w, h, view):
    """``project_box`` of a label's 3D box in the left (0) or right (1) camera."""
    corners = np.array(label_corners(lb)) - (view * calib.baseline, 0.0, 0.0)
    return project_box(corners, calib, w, h)


def test_flip_twice_is_identity(tmp_path):
    frame = _loaded_frame(tmp_path)
    h, w = frame.left.shape[:2]
    # a car at the left edge of the left view, outside the right view, and a DontCare
    edge = ObjectLabel("Car", 0.0, 0, 0.0, np.zeros(4), 1.5, 1.6, 3.9, -3.54, 1.5, 10.0, 0.0)
    dontcare = parse_label_line("DontCare -1 -1 -10 0 0 5 5 -1 -1 -1 -1000 -1000 -1000 -10")
    assert _in_view(edge, frame.calib, w, h, 0) and not _in_view(edge, frame.calib, w, h, 1)
    frame.labels += [edge, dontcare]
    left0 = frame.left.copy()
    right0 = frame.right.copy()
    disp0 = frame.pseudo_disp.copy()
    both = [lb for lb in frame.labels
            if all(_in_view(lb, frame.calib, w, h, view) for view in (0, 1))]
    assert len(both) == len(frame.labels) - 2
    frame = horizontal_flip(horizontal_flip(frame))
    assert np.array_equal(frame.left, left0)
    assert np.array_equal(frame.right, right0)
    assert np.array_equal(frame.pseudo_disp, disp0)
    # a label survives when it is visible in both views, as the projection of its 3D box
    assert len(frame.labels) == len(both)
    for lb, lb0 in zip(frame.labels, both):
        assert lb.x == pytest.approx(lb0.x, abs=1e-9)
        assert lb.z == pytest.approx(lb0.z)
        assert math.sin(lb.ry) == pytest.approx(math.sin(lb0.ry), abs=1e-12)
        assert math.cos(lb.ry) == pytest.approx(math.cos(lb0.ry), abs=1e-12)
        box, truncated = _in_view(lb0, frame.calib, w, h, 0)
        np.testing.assert_allclose(lb.box2d, box, rtol=0, atol=1e-9)
        assert lb.truncated == pytest.approx(truncated, abs=1e-9)
        assert lb.occluded == lb0.occluded


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


def _synth_frames(n, **kw):
    for seed in range(n):
        sf = synth_scene(seed, SynthParams(**kw))
        yield FrameData(str(seed), sf.left, sf.right, sf.calib, sf.labels)


def test_flip_mirrors_boxes_and_yaw():
    """A flipped label is its 3D box mirrored, and its 2D box is where the new
    left view, the mirrored old right view, shows that box."""
    n_labels = 0
    for frame in _synth_frames(12, width=256, height=128):
        h, w = frame.left.shape[:2]
        b = frame.calib.baseline
        flipped = horizontal_flip(frame)
        assert len(flipped.labels) == len(frame.labels)
        for lb, new in zip(frame.labels, flipped.labels):
            assert new.x == pytest.approx(b - lb.x)
            assert math.cos(2 * new.ry) == pytest.approx(math.cos(2 * (math.pi - lb.ry)),
                                                         abs=1e-9)
            box, truncated = _in_view(lb, frame.calib, w, h, 1)
            mirrored = [(w - 1) - box[2], box[1], (w - 1) - box[0], box[3]]
            np.testing.assert_allclose(new.box2d, mirrored, rtol=0, atol=1e-6)
            assert new.truncated == pytest.approx(truncated, abs=1e-9)
            assert new.occluded == lb.occluded
            n_labels += 1
    assert n_labels > 20


def test_flipped_boxes_centre_on_their_projected_3d_centres():
    """After a flip, as before it, the 2D boxes of untruncated cars centre on
    where their 3D centres project, in the median of the signed offsets; one
    car's offset follows the perspective of its near faces and can reach pixels."""
    offsets = {False: [], True: []}
    for frame in _synth_frames(16, width=256, height=128):
        calib = frame.calib
        for flip, labels in ((False, frame.labels), (True, horizontal_flip(frame).labels)):
            for lb in labels:
                if lb.truncated == 0:
                    u = calib.f * lb.x / lb.z + calib.cx
                    offsets[flip].append((lb.box2d[0] + lb.box2d[2]) / 2 - u)
    assert len(offsets[True]) > 20
    for flip in (False, True):
        assert abs(np.median(offsets[flip])) <= 0.5, flip


def test_augment_deterministic_given_rng(tmp_path):
    frame_a = _loaded_frame(tmp_path)
    frame_b = load_frame(tmp_path, "000000", read_manifest(tmp_path / "manifest.txt"))
    frame_a = augment(frame_a, np.random.default_rng(42), flip_probability=0.5)
    frame_b = augment(frame_b, np.random.default_rng(42), flip_probability=0.5)
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
