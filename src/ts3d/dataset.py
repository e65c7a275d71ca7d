"""Dataset build, manifest, and frame loading.

Disk layout mirrors KITTI: image_2/ (left PPM), image_3/ (right PPM),
label_2/, calib/, plus manifest.txt and, after the pseudo-gt pass, disp/
with little-endian float32 rasters and byte masks per frame (left view as
specified, right view alongside so mirrored augmentation stays geometric).

The manifest records frame ids, split assignment, generation seed and
parameters, and the per-class anchor priors (mean 2D box, mean distance and
mean metric size per scale bin) estimated from the training labels; a class
without any gets the default prior that a model built without a dataset uses.
It is flat key=value text (see ``config``), with priors written as ``%.8f``
and lists comma-joined. ``model.build_anchor_templates`` checks a manifest
against a run's config and builds a fresh run's anchor templates from its
priors, which must give finite sizes > 0 (``model.check_templates``).

A loaded frame's images, like those the pseudo-gt pass matches, must have the
manifest's width and height; one that does not is an error naming the file and
both extents. A loaded frame carries its labels as the ``kitti_io.ObjectLabel``s
read from label_2/; target assignment consumes them as they are, with the class
list of the run deciding which types are detected (others, e.g. DontCare, are
left out).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .config import read_pairs, write_pairs
from .disphead import block_match_stereo
from .kitti_io import (
    Calibration,
    read_calib,
    read_kitti_label,
    read_ppm,
    read_raster_f32,
    read_raster_mask,
    write_calib,
    write_kitti_label,
    write_ppm,
    write_raster_f32,
    write_raster_mask,
)
from .synth import CLASS_NAME, StereoFrame, SynthParams, synth_scene

MANIFEST_NAME = "manifest.txt"


@dataclass
class FrameData:
    frame_id: str
    left: np.ndarray
    right: np.ndarray
    calib: Calibration
    labels: list                      # ObjectLabel per labeled object
    pseudo_disp: np.ndarray | None = None
    pseudo_valid: np.ndarray | None = None
    pseudo_disp_right: np.ndarray | None = None
    pseudo_valid_right: np.ndarray | None = None


@dataclass
class Manifest:
    seed: int
    width: int
    height: int
    params: dict = field(default_factory=dict)
    classes: list = field(default_factory=list)
    priors: dict = field(default_factory=dict)   # class -> list of scale dicts
    splits: dict = field(default_factory=dict)   # split -> list of frame ids
    path: str = ""                               # the file it was written to or read from


def _frame_id(i: int) -> str:
    return f"{i:06d}"


def estimate_priors(all_labels, classes, n_scales: int) -> dict:
    """Mean 2D box / distance / size per class, binned into ``n_scales``
    groups by 2D height (depth bins: apparent size tracks 1/z). A class with
    no training labels gets ``n_scales`` copies of a default prior."""
    priors = {}
    for name in classes:
        rows = [lb for labs in all_labels for lb in labs if lb.type == name]
        if not rows:
            priors[name] = [dict(w2d=32.0, h2d=24.0, z=10.0, w=1.7, h=1.5, l=3.9)
                            for _ in range(n_scales)]
            continue
        heights = np.array([lb.box2d[3] - lb.box2d[1] for lb in rows])
        order = np.argsort(heights)
        groups = np.array_split(order, n_scales)
        scales = []
        for g in groups:
            sel = [rows[i] for i in g] if len(g) else rows
            scales.append(dict(
                w2d=float(np.mean([lb.box2d[2] - lb.box2d[0] for lb in sel])),
                h2d=float(np.mean([lb.box2d[3] - lb.box2d[1] for lb in sel])),
                z=float(np.mean([lb.z for lb in sel])),
                w=float(np.mean([lb.w for lb in sel])),
                h=float(np.mean([lb.h for lb in sel])),
                l=float(np.mean([lb.l for lb in sel])),
            ))
        priors[name] = scales
    return priors


def generate_dataset(out_dir, seed: int, n_train: int, n_val: int,
                     params: SynthParams, n_scales: int) -> Manifest:
    """Render frames to disk and write the manifest (bit-identical per seed).
    A dataset directory is written once: rendering over an existing one would
    leave its cached pseudo ground truth beside the new images."""
    params.validate()  # before any directory is made
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        raise FileExistsError(f"'{manifest_path}' exists: {out_dir} already holds a "
                              f"dataset; write the new one to another directory")
    for sub in ("image_2", "image_3", "label_2", "calib"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    n_total = n_train + n_val
    train_labels = []
    splits = {"train": [], "val": []}
    for i in range(n_total):
        fid = _frame_id(i)
        frame = synth_scene(seed + i * 1000003, params)
        write_ppm(os.path.join(out_dir, "image_2", fid + ".ppm"), frame.left)
        write_ppm(os.path.join(out_dir, "image_3", fid + ".ppm"), frame.right)
        write_kitti_label(os.path.join(out_dir, "label_2", fid + ".txt"), frame.labels)
        write_calib(os.path.join(out_dir, "calib", fid + ".txt"), frame.calib)
        if i < n_train:
            splits["train"].append(fid)
            train_labels.append(frame.labels)
        else:
            splits["val"].append(fid)
    priors = estimate_priors(train_labels, [CLASS_NAME], n_scales)
    manifest = Manifest(seed=seed, width=params.width, height=params.height,
                        params=params.as_dict(), classes=[CLASS_NAME],
                        priors=priors, splits=splits, path=manifest_path)
    write_manifest(manifest.path, manifest)
    return manifest


# ---------------------------------------------------------------------------
# manifest


def write_manifest(path, m: Manifest) -> None:
    pairs = [("seed", m.seed), ("width", m.width), ("height", m.height)]
    pairs += [(f"param.{k}", v) for k, v in m.params.items()]
    pairs.append(("classes", ",".join(m.classes)))
    pairs += [(f"prior.{name}.{s_idx}.{k}", f"{v:.8f}")
              for name, scales in m.priors.items()
              for s_idx, sc in enumerate(scales) for k, v in sc.items()]
    pairs += [(f"split.{split}", ",".join(ids)) for split, ids in m.splits.items()]
    write_pairs(path, pairs, header="ts3d dataset manifest")


def read_manifest(path) -> Manifest:
    raw = read_pairs(path)
    ints = {}
    for key in ("seed", "width", "height"):
        if key not in raw:
            raise ValueError(f"manifest {path} lacks '{key}='")
        try:
            ints[key] = int(raw[key])
        except ValueError:
            raise ValueError(f"manifest {path} has non-integer '{key}={raw[key]}'") from None
    classes = raw["classes"].split(",") if raw.get("classes") else []
    params = {k[len("param."):]: v for k, v in raw.items() if k.startswith("param.")}
    priors: dict = {name: {} for name in classes}
    for k, v in raw.items():
        if not k.startswith("prior."):
            continue
        parts = k.split(".", 3)
        if len(parts) != 4 or not parts[2].isdigit():
            raise ValueError(f"manifest {path} has malformed key '{k}': expected "
                             f"prior.<class>.<scale index>.<field>")
        _, name, s_idx, key = parts
        if name not in priors:
            raise ValueError(f"manifest {path} has '{k}' for class '{name}', which "
                             f"'classes={raw.get('classes', '')}' does not list")
        try:
            priors[name].setdefault(int(s_idx), {})[key] = float(v)
        except ValueError:
            raise ValueError(f"manifest {path} has non-numeric '{k}={v}'") from None
    priors_out = {
        name: [scales[i] for i in sorted(scales)] for name, scales in priors.items()
    }
    splits = {}
    for k, v in raw.items():
        if k.startswith("split."):
            splits[k[len("split."):]] = v.split(",") if v else []
    return Manifest(**ints, params=params, classes=classes, priors=priors_out,
                    splits=splits, path=os.fspath(path))


# ---------------------------------------------------------------------------
# pseudo ground truth cache


def pseudo_gt_paths(root, frame_id: str):
    base = os.path.join(root, "disp")
    return {
        "disp": os.path.join(base, frame_id + ".f32"),
        "mask": os.path.join(base, frame_id + ".mask"),
        "disp_right": os.path.join(base, frame_id + "_right.f32"),
        "mask_right": os.path.join(base, frame_id + "_right.mask"),
    }


def build_pseudo_gt(root, max_disp: int, window: int) -> int:
    """Run block matching over every frame of the dataset and cache the rasters;
    an image of another size than the manifest's raises ``ValueError`` naming it."""
    man = read_manifest(os.path.join(root, MANIFEST_NAME))
    os.makedirs(os.path.join(root, "disp"), exist_ok=True)
    ids = [fid for ids in man.splits.values() for fid in ids]
    for fid in ids:
        left = _read_image(os.path.join(root, "image_2", fid + ".ppm"), man)
        right = _read_image(os.path.join(root, "image_3", fid + ".ppm"), man)
        dl, vl, dr, vr = block_match_stereo(left, right, max_disp, window)
        paths = pseudo_gt_paths(root, fid)
        write_raster_f32(paths["disp"], dl)
        write_raster_mask(paths["mask"], vl)
        write_raster_f32(paths["disp_right"], dr)
        write_raster_mask(paths["mask_right"], vr)
    return len(ids)


def _read_image(path, manifest: Manifest) -> np.ndarray:
    img = read_ppm(path)
    if img.shape[:2] != (manifest.height, manifest.width):
        raise ValueError(f"'{path}' is {img.shape[1]}x{img.shape[0]}, but {manifest.path} "
                         f"gives {manifest.width}x{manifest.height}")
    return img


def load_frame(root, frame_id: str, manifest: Manifest,
               with_pseudo: bool = True) -> FrameData:
    left = _read_image(os.path.join(root, "image_2", frame_id + ".ppm"), manifest)
    right = _read_image(os.path.join(root, "image_3", frame_id + ".ppm"), manifest)
    labels = read_kitti_label(os.path.join(root, "label_2", frame_id + ".txt"))
    calib = read_calib(os.path.join(root, "calib", frame_id + ".txt"))
    frame = FrameData(frame_id=frame_id, left=left, right=right, calib=calib,
                      labels=labels)
    if with_pseudo:
        paths = pseudo_gt_paths(root, frame_id)
        if not os.path.exists(paths["disp"]):
            raise FileNotFoundError(
                f"pseudo ground truth missing for frame {frame_id}; "
                "run the pseudogt command first"
            )
        h, w = manifest.height, manifest.width
        frame.pseudo_disp = read_raster_f32(paths["disp"], h, w)
        frame.pseudo_valid = read_raster_mask(paths["mask"], h, w)
        frame.pseudo_disp_right = read_raster_f32(paths["disp_right"], h, w)
        frame.pseudo_valid_right = read_raster_mask(paths["mask_right"], h, w)
    return frame

