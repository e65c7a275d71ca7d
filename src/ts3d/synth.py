"""Synthetic pinhole-stereo scenes with analytic ground truth.

A textured ground plane plus textured axis-aligned cuboids ("cars") are
ray-cast into both rectified views, each view in two passes. The geometry
pass casts rays through one ray-plane routine (``_View.cast``): every surface
is a plane where one coordinate is constant, bounded on the other two axes,
and only the rays of its screen window (the projected corners plus a pixel
margin) are cast. Per pixel it keeps the nearest depth, its owner and its
surface kind. Surfaces are cast in a fixed order, which decides exact depth
ties: the ground (y = GROUND_Y, z up to Z_FAR), then the boxes far to near,
each box's faces at z0, z1, x0, x1, y0, y1. The shading pass then textures each
hit pixel once: it recomputes the world-anchored texture coordinates from
the stored depth and kind and evaluates value noise there, so left and right
images sample the same textures and the analytic disparity f*b/z is exact at
every rendered pixel. Labels carry exact 3D boxes and their clipped 2D
projections (``project_box``, which the flip augmentation shares); fully
occluded objects are dropped. No box reaches the near plane, so every face
window comes from points in front of the camera.

What no caller varies is a module constant, which ``SynthParams.as_dict``
writes into the manifest beside the fields callers set: the road plane
``GROUND_Y``, the box heights ``H_RANGE``, the ground's far edge ``Z_FAR``, the
value-noise lattice scales ``TEXTURE_COARSE`` and ``TEXTURE_FINE`` (all in m)
and the label type ``CLASS_NAME``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detect import wrap_angle
from .kitti_io import Calibration, ObjectLabel, make_calibration

SKY_COLOR = np.array([0.72, 0.80, 0.92])
NEAR_PLANE = 0.1  # m; nearer intersections are not drawn
GROUND_Y = 1.5  # m; camera height above the road (y down)
H_RANGE = (1.3, 1.8)  # m; box heights
Z_FAR = 60.0  # m; the ground ends here
TEXTURE_COARSE, TEXTURE_FINE = 0.8, 0.3  # m; value-noise lattice scales
CLASS_NAME = "Car"


@dataclass
class SynthParams:
    """What callers vary about a scene; the fixed rest are module constants."""
    width: int = 256
    height: int = 128
    focal: float = 200.0
    baseline: float = 0.3
    n_objects: tuple = (1, 4)      # inclusive range
    z_range: tuple = (4.0, 30.0)
    w_range: tuple = (1.5, 2.0)
    l_range: tuple = (3.2, 4.5)
    yaw_choices: tuple = (0.0, math.pi / 2.0)  # keeps faces fronto-parallel

    def as_dict(self) -> dict:
        """The manifest's ``param.*`` entries: these fields and the scene constants."""
        return {
            "width": self.width, "height": self.height, "focal": self.focal,
            "baseline": self.baseline, "ground_y": GROUND_Y,
            "n_objects_min": self.n_objects[0], "n_objects_max": self.n_objects[1],
            "z_min": self.z_range[0], "z_max": self.z_range[1],
            "h_min": H_RANGE[0], "h_max": H_RANGE[1],
            "w_min": self.w_range[0], "w_max": self.w_range[1],
            "l_min": self.l_range[0], "l_max": self.l_range[1],
            "z_far": Z_FAR, "class_name": CLASS_NAME,
            "yaw_choices": ",".join(str(y) for y in self.yaw_choices),
            "texture_coarse": TEXTURE_COARSE, "texture_fine": TEXTURE_FINE,
        }

    def validate(self) -> "SynthParams":
        """Reject object distances that let a box reach the near plane."""
        least = NEAR_PLANE + max(self.l_range[1], self.w_range[1]) / 2.0
        if not self.z_range[0] >= least:
            raise ValueError(
                f"z_range minimum {self.z_range[0]:g} m lets a box reach the near plane: "
                f"it must be at least {least:g} m (near plane {NEAR_PLANE:g} m plus half "
                f"the longest box side)")
        return self


@dataclass
class StereoFrame:
    left: np.ndarray             # (H, W, 3) float32 in [0, 1]
    right: np.ndarray
    calib: Calibration
    labels: list
    disparity: np.ndarray        # analytic left-view disparity (px)
    hit_mask: np.ndarray         # rendered-geometry pixels (left view)
    object_mask: np.ndarray      # per-pixel object index, -1 background


# ---------------------------------------------------------------------------
# deterministic value-noise textures

_HASH_X, _HASH_Z = np.uint32(374761393), np.uint32(668265263)


def _key(ix, iz, salt) -> np.ndarray:
    """Low 32 bits of ix*374761393 + iz*668265263 + salt*2246822519, in uint32
    (the low word of the int64 sum); ``salt`` is an int or a sequence of ints."""
    ix, iz = (np.atleast_1d(a).astype(np.int64, copy=False).astype(np.uint32) for a in (ix, iz))
    salt = [int(s) * 2246822519 % 2**32 for s in np.atleast_1d(salt).tolist()]
    return ix * _HASH_X + iz * _HASH_Z + np.array(salt, dtype=np.uint32)


def _mix01(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> np.uint32(13))
    h *= np.uint32(1274126177)
    h ^= h >> np.uint32(16)
    h &= np.uint32(0xFFFFFF)
    return h.astype(np.float64) / float(0xFFFFFF)


def _hash01(ix, iz, salt) -> np.ndarray:
    return _mix01(_key(ix, iz, salt))


def _lattice_cell(u: np.ndarray, v: np.ndarray, scale: float):
    """Key of the lattice cell around each point (its low corner, salt 0) and
    the point's smoothstep weights within the cell."""
    gu, gv = u / scale, v / scale
    iu, iv = np.floor(gu), np.floor(gv)
    fu, fv = gu - iu, gv - iv
    return _key(iu, iv, 0), fu * fu * (3.0 - 2.0 * fu), fv * fv * (3.0 - 2.0 * fv)


def _cell_noise(cell, salt_key: np.ndarray) -> np.ndarray:
    key, fu, fv = cell
    k = key + salt_key
    top = _mix01(k) * (1 - fu) + _mix01(k + _HASH_X) * fu
    k += _HASH_Z
    bot = _mix01(k) * (1 - fu) + _mix01(k + _HASH_X) * fu
    return top * (1 - fv) + bot * fv


# ---------------------------------------------------------------------------
# ray-cast rendering: a geometry pass, then one shading pass per view

# surface kinds; each is also the salt offset of its texture
GROUND, Z_FACE, X_FACE, Y_FACE = 0, 1, 2, 3


def _project_corners(corners: np.ndarray, f, cx, cy):
    us = f * corners[..., 0] / corners[..., 2] + cx
    vs = f * corners[..., 1] / corners[..., 2] + cy
    return us, vs


def project_box(corners, calib: Calibration, width: int, height: int):
    """The 2D box of 3D box corners (camera frame, last axis x, y, z) in the left
    camera of ``calib``, clipped to a width x height image, and its truncation
    1 - clipped / full area; None when a corner is not in front of the camera or
    the clipped box is empty."""
    corners = np.asarray(corners)
    if not (corners[..., 2] > 0).all():
        return None
    us, vs = _project_corners(corners, calib.f, calib.cx, calib.cy)
    full = np.array([us.min(), vs.min(), us.max(), vs.max()])
    box = np.array([max(full[0], 0.0), max(full[1], 0.0),
                    min(full[2], width - 1.0), min(full[3], height - 1.0)])
    if box[2] <= box[0] or box[3] <= box[1]:
        return None
    area_full = (full[2] - full[0]) * (full[3] - full[1])
    area_clip = (box[2] - box[0]) * (box[3] - box[1])
    return box, float(max(0.0, 1.0 - area_clip / max(area_full, 1e-9)))


def _span(lo: float, hi: float) -> slice:
    """Pixels from lo to hi with a one-pixel margin (numpy clips the far end)."""
    return slice(max(math.floor(lo) - 1, 0), max(math.ceil(hi) + 2, 0))


class _View:
    def __init__(self, params: SynthParams, cam_x: float):
        w, h, f = params.width, params.height, params.focal
        self.f, self.cx, self.cy = f, (w - 1) / 2.0, (h - 1) / 2.0
        self.rx = (np.arange(w, dtype=np.float64) - self.cx) / f            # per column
        self.ry = ((np.arange(h, dtype=np.float64) - self.cy) / f)[:, None]  # per row
        self.cam_x = cam_x
        self.depth = np.full((h, w), np.inf)
        self.owner = np.full((h, w), -1, dtype=np.int64)
        self.kind = np.zeros((h, w), dtype=np.int8)

    def window(self, corners: np.ndarray):
        """Rows and columns around a face's projected corners (all in front of
        the camera): every pixel whose ray meets the face lies inside."""
        us, vs = _project_corners(corners - (self.cam_x, 0.0, 0.0), self.f, self.cx, self.cy)
        return _span(vs.min(), vs.max()), _span(us.min(), us.max())

    def cast(self, win, axis: int, value: float, bounds, owner: int, kind: int):
        """Intersect the window's rays with the plane where coordinate ``axis``
        (0 x, 1 y, 2 z) equals ``value``. Keep the hit's depth t where the hit lies
        in ``bounds[a] = (lo, hi)`` on every other axis a whose bound is not None,
        beyond the near plane and nearer than what the window holds."""
        rows, cols = win
        rx, ry = self.rx[cols], self.ry[rows]
        with np.errstate(divide="ignore", invalid="ignore"):  # rays parallel to the plane
            # the ray from (cam_x, 0, 0) along (rx, ry, 1) is at (cam_x + t rx, t ry, t)
            t = (value - self.cam_x) / rx if axis == 0 else value / ry if axis == 1 else value
            keep = t > NEAR_PLANE
            for a, bound in enumerate(bounds):
                if a != axis and bound is not None:
                    p = self.cam_x + t * rx if a == 0 else t * ry if a == 1 else t
                    keep = keep & (p >= bound[0]) & (p <= bound[1])
        depth = self.depth[win]
        keep = keep & (t < depth)
        np.copyto(depth, t, where=keep)
        np.copyto(self.owner[win], owner, where=keep)
        np.copyto(self.kind[win], kind, where=keep)


def _render_box(view: _View, corners: np.ndarray, owner: int):
    """Cast a box's faces at z0, z1 (front/rear), x0, x1 (sides), y0, y1 (top/bottom)."""
    (x0, y0, z0), (x1, y1, z1) = corners[0, 0, 0], corners[1, 1, 1]
    bounds = ((x0, x1), (y0, y1), (z0, z1))
    for axis, kind in ((2, Z_FACE), (0, X_FACE), (1, Y_FACE)):
        for side in (0, 1):
            face = corners[(slice(None),) * axis + (side,)]
            view.cast(view.window(face), axis, bounds[axis][side], bounds, owner, kind)


def _shade(view: _View, salts: list) -> np.ndarray:
    """Texture each hit pixel once. Surface (owner, kind) has the texture salt
    ``salts[owner + 1] + kind``."""
    hit = np.isfinite(view.depth)
    t, kind = view.depth[hit], view.kind[hit]
    # world-anchored texture coordinates of the hit point, per surface kind
    u = np.where(kind == X_FACE, t, view.cam_x + t * np.broadcast_to(view.rx, hit.shape)[hit])
    v = np.where((kind == GROUND) | (kind == Y_FACE), t,
                 t * np.broadcast_to(view.ry, hit.shape)[hit])
    cells = [_lattice_cell(u, v, s) for s in (TEXTURE_COARSE, TEXTURE_FINE)]
    del t, u, v
    surface = (view.owner[hit] + 1) * 4 + kind
    salt = [s + k for s in salts for k in range(4)]
    image = np.tile(SKY_COLOR.astype(np.float32), hit.shape + (1,))
    for c in range(3):
        base = 0.25 + 0.55 * _hash01(0, 0, [s + 7 * c for s in salt])
        n = (0.62 * _cell_noise(cells[0], _key(0, 0, [s + 11 * c + 1 for s in salt])[surface])
             + 0.38 * _cell_noise(cells[1], _key(0, 0, [s + 11 * c + 2 for s in salt])[surface]))
        image[..., c][hit] = np.clip(base[surface] * (0.55 + 0.9 * n), 0.0, 1.0)
    return image


def synth_scene(seed: int, params: SynthParams | None = None) -> StereoFrame:
    """Render one stereo pair with exact labels (deterministic in the seed)."""
    params = (params or SynthParams()).validate()
    rng = np.random.default_rng(seed)
    w, h, f = params.width, params.height, params.focal
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    calib = make_calibration(f, cx, cy, params.baseline)

    n_obj = int(rng.integers(params.n_objects[0], params.n_objects[1] + 1))
    objs = []
    for _ in range(n_obj):
        z = float(rng.uniform(*params.z_range))
        hh = float(rng.uniform(*H_RANGE))
        ww = float(rng.uniform(*params.w_range))
        ll = float(rng.uniform(*params.l_range))
        ry = float(params.yaw_choices[rng.integers(0, len(params.yaw_choices))])
        sx, sz = (ll, ww) if abs(math.sin(ry)) < 0.5 else (ww, ll)
        x_span = max(0.3, z * (w / 2.0 - 6.0) / f - sx / 2.0)
        x = float(rng.uniform(-x_span, x_span))
        objs.append({"x": x, "z": z, "h": hh, "w": ww, "l": ll, "ry": ry,
                     "sx": sx, "sz": sz})
    # (2, 2, 2, 3) box corners, indexed by the x, y and z side
    corners = [np.stack(np.meshgrid(
        [o["x"] - o["sx"] / 2, o["x"] + o["sx"] / 2], [GROUND_Y - o["h"], GROUND_Y],
        [o["z"] - o["sz"] / 2, o["z"] + o["sz"] / 2], indexing="ij"), axis=-1) for o in objs]

    views = [_View(params, 0.0), _View(params, params.baseline)]
    salts = [seed * 131 + 17] + [seed * 977 + ob * 59 + 29 for ob in range(n_obj)]
    images = []
    for view in views:
        # the ground, then the boxes far to near: the order decides exact depth ties
        view.cast((slice(None), slice(None)), 1, GROUND_Y,
                  (None, None, (-math.inf, Z_FAR)), -1, GROUND)
        for ob in sorted(range(n_obj), key=lambda i: -objs[i]["z"]):
            _render_box(view, corners[ob], ob)
        images.append(_shade(view, salts))

    left = views[0]
    visible = np.bincount(left.owner.ravel() + 1, minlength=n_obj + 1)[1:]
    labels = []
    for i, o in enumerate(objs):
        seen = project_box(corners[i], calib, w, h) if visible[i] else None
        if seen is None:
            continue
        box, truncated = seen
        area_clip = (box[2] - box[0]) * (box[3] - box[1])
        frac_visible = min(1.0, int(visible[i]) / max(area_clip, 1.0))
        occluded = 0 if frac_visible >= 0.6 else (1 if frac_visible >= 0.25 else 2)
        alpha = wrap_angle(o["ry"] - math.atan2(o["x"], o["z"]))
        labels.append(ObjectLabel(
            type=CLASS_NAME, truncated=truncated, occluded=occluded,
            alpha=alpha, box2d=box, h=o["h"], w=o["w"], l=o["l"],
            x=o["x"], y=GROUND_Y, z=o["z"], ry=o["ry"],
        ))

    hit = np.isfinite(left.depth)
    disparity = np.zeros((h, w), dtype=np.float32)
    disparity[hit] = (f * params.baseline / left.depth[hit]).astype(np.float32)
    return StereoFrame(
        left=images[0],
        right=images[1],
        calib=calib,
        labels=labels,
        disparity=disparity,
        hit_mask=hit,
        object_mask=left.owner,
    )
