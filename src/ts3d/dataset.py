"""Dataset build, manifest, and frame loading.

Disk layout mirrors KITTI: image_2/ (left PPM), image_3/ (right PPM),
label_2/, calib/, plus manifest.txt and, after the pseudo-gt pass, disp/
with little-endian float32 rasters and byte masks per frame (left view as
specified, right view alongside so mirrored augmentation stays geometric).

The manifest records frame ids, split assignment, generation seed and
parameters, and the per-class anchor priors (mean 2D box, mean distance and
mean metric size per scale bin) estimated from the training labels.

A loaded frame carries its labels as the ``kitti_io.ObjectLabel``s read from
label_2/; target assignment consumes them as they are, with the class list
of the run deciding which types are detected (others, e.g. DontCare, are
left out).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .detect import AnchorTemplate
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
from .synth import StereoFrame, SynthParams, synth_scene

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

    def anchor_templates(self, n_scales: int | None = None) -> list:
        out = []
        for cls_id, name in enumerate(self.classes):
            scales = self.priors[name]
            if n_scales is not None and len(scales) != n_scales:
                raise ValueError(
                    f"manifest stores {len(scales)} anchor scales for '{name}', "
                    f"configuration expects {n_scales}"
                )
            for sc in scales:
                out.append(AnchorTemplate(
                    class_id=cls_id, w2d=sc["w2d"], h2d=sc["h2d"], z=sc["z"],
                    w=sc["w"], h=sc["h"], l=sc["l"]))
        return out


def _frame_id(i: int) -> str:
    return f"{i:06d}"


def estimate_priors(all_labels, classes, n_scales: int = 1) -> dict:
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
                     params: SynthParams, n_scales: int = 1) -> Manifest:
    """Render frames to disk and write the manifest (bit-identical per seed)."""
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
    priors = estimate_priors(train_labels, [params.class_name], n_scales)
    manifest = Manifest(seed=seed, width=params.width, height=params.height,
                        params=params.as_dict(), classes=[params.class_name],
                        priors=priors, splits=splits)
    write_manifest(os.path.join(out_dir, MANIFEST_NAME), manifest)
    return manifest


# ---------------------------------------------------------------------------
# manifest text format (flat key=value lines)


def write_manifest(path, m: Manifest) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# ts3d dataset manifest\n")
        fh.write(f"seed={m.seed}\n")
        fh.write(f"width={m.width}\n")
        fh.write(f"height={m.height}\n")
        for k, v in m.params.items():
            fh.write(f"param.{k}={v}\n")
        fh.write("classes=" + ",".join(m.classes) + "\n")
        for name, scales in m.priors.items():
            for s_idx, sc in enumerate(scales):
                for k, v in sc.items():
                    fh.write(f"prior.{name}.{s_idx}.{k}={v:.8f}\n")
        for split, ids in m.splits.items():
            fh.write(f"split.{split}=" + ",".join(ids) + "\n")


def read_manifest(path) -> Manifest:
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            raw[k] = v
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
                    splits=splits)


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


def build_pseudo_gt(root, max_disp: int, window: int = 9) -> int:
    """Run block matching over every frame of the dataset and cache the rasters."""
    man = read_manifest(os.path.join(root, MANIFEST_NAME))
    os.makedirs(os.path.join(root, "disp"), exist_ok=True)
    ids = [fid for ids in man.splits.values() for fid in ids]
    for fid in ids:
        left = read_ppm(os.path.join(root, "image_2", fid + ".ppm"))
        right = read_ppm(os.path.join(root, "image_3", fid + ".ppm"))
        dl, vl, dr, vr = block_match_stereo(left, right, max_disp, window)
        paths = pseudo_gt_paths(root, fid)
        write_raster_f32(paths["disp"], dl)
        write_raster_mask(paths["mask"], vl)
        write_raster_f32(paths["disp_right"], dr)
        write_raster_mask(paths["mask_right"], vr)
    return len(ids)


def load_frame(root, frame_id: str, manifest: Manifest,
               with_pseudo: bool = True) -> FrameData:
    left = read_ppm(os.path.join(root, "image_2", frame_id + ".ppm"))
    right = read_ppm(os.path.join(root, "image_3", frame_id + ".ppm"))
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

