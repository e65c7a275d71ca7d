"""Synthetic pinhole-stereo scenes with analytic ground truth.

A textured ground plane plus textured axis-aligned cuboids ("cars") are
ray-cast into both rectified views with a per-pixel depth buffer, so left
and right images sample the same world-anchored textures and the analytic
disparity f*b/z is exact at every rendered pixel. Labels carry exact 3D
boxes and their clipped 2D projections; fully occluded objects are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detect import wrap_angle
from .kitti_io import Calibration, ObjectLabel, make_calibration

SKY_COLOR = np.array([0.72, 0.80, 0.92])


@dataclass
class SynthParams:
    width: int = 256
    height: int = 128
    focal: float = 200.0
    baseline: float = 0.3
    ground_y: float = 1.5          # camera height above the road (y down)
    n_objects: tuple = (1, 4)      # inclusive range
    z_range: tuple = (4.0, 30.0)
    h_range: tuple = (1.3, 1.8)
    w_range: tuple = (1.5, 2.0)
    l_range: tuple = (3.2, 4.5)
    yaw_choices: tuple = (0.0, math.pi / 2.0)  # keeps faces fronto-parallel
    z_far: float = 60.0
    texture_coarse: float = 0.8
    texture_fine: float = 0.3
    class_name: str = "Car"

    def as_dict(self) -> dict:
        return {
            "width": self.width, "height": self.height, "focal": self.focal,
            "baseline": self.baseline, "ground_y": self.ground_y,
            "n_objects_min": self.n_objects[0], "n_objects_max": self.n_objects[1],
            "z_min": self.z_range[0], "z_max": self.z_range[1],
            "h_min": self.h_range[0], "h_max": self.h_range[1],
            "w_min": self.w_range[0], "w_max": self.w_range[1],
            "l_min": self.l_range[0], "l_max": self.l_range[1],
            "z_far": self.z_far, "class_name": self.class_name,
        }


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


def _hash01(ix: np.ndarray, iz: np.ndarray, salt: int) -> np.ndarray:
    ix, iz = np.atleast_1d(ix), np.atleast_1d(iz)
    h = (
        ix.astype(np.int64) * 374761393
        + iz.astype(np.int64) * 668265263
        + np.int64(int(salt) * 2246822519 % 2**32)
    ).astype(np.uint32)
    h ^= h >> np.uint32(13)
    h = (h * np.uint32(1274126177)).astype(np.uint32)
    h ^= h >> np.uint32(16)
    return (h & np.uint32(0xFFFFFF)).astype(np.float64) / float(0xFFFFFF)


def _value_noise(u: np.ndarray, v: np.ndarray, scale: float, salt: int) -> np.ndarray:
    gu, gv = u / scale, v / scale
    iu, iv = np.floor(gu), np.floor(gv)
    fu, fv = gu - iu, gv - iv
    fu = fu * fu * (3.0 - 2.0 * fu)
    fv = fv * fv * (3.0 - 2.0 * fv)
    c00 = _hash01(iu, iv, salt)
    c10 = _hash01(iu + 1, iv, salt)
    c01 = _hash01(iu, iv + 1, salt)
    c11 = _hash01(iu + 1, iv + 1, salt)
    top = c00 * (1 - fu) + c10 * fu
    bot = c01 * (1 - fu) + c11 * fu
    return top * (1 - fv) + bot * fv


def texture_rgb(u: np.ndarray, v: np.ndarray, salt: int, coarse: float,
                fine: float) -> np.ndarray:
    """World-anchored RGB texture in [0, 1]; identical coordinates always
    yield identical colors, which is what ties the two views together."""
    base = np.stack([_hash01(np.array(0), np.array(0), salt + 7 * c)[0] for c in range(3)])
    base = 0.25 + 0.55 * base
    out = np.empty(u.shape + (3,))
    for c in range(3):
        n = (0.62 * _value_noise(u, v, coarse, salt + 11 * c + 1)
             + 0.38 * _value_noise(u, v, fine, salt + 11 * c + 2))
        out[..., c] = np.clip(base[c] * (0.55 + 0.9 * n), 0.0, 1.0)
    return out


# ---------------------------------------------------------------------------
# ray-cast rendering


class _View:
    def __init__(self, params: SynthParams, cam_x: float):
        w, h, f = params.width, params.height, params.focal
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        us = np.arange(w, dtype=np.float64)
        vs = np.arange(h, dtype=np.float64)
        self.rx = ((us - cx) / f)[None, :].repeat(h, axis=0)
        self.ry = ((vs - cy) / f)[:, None].repeat(w, axis=1)
        self.cam_x = cam_x
        self.depth = np.full((h, w), np.inf)
        self.color = np.tile(SKY_COLOR, (h, w, 1))
        self.owner = np.full((h, w), -1, dtype=np.int64)

    def paint(self, t: np.ndarray, valid: np.ndarray, tex_u, tex_v, salt, owner,
              params: SynthParams):
        upd = valid & (t < self.depth) & (t > 0.1)
        if not upd.any():
            return
        self.depth[upd] = t[upd]
        self.color[upd] = texture_rgb(tex_u[upd], tex_v[upd], salt,
                                      params.texture_coarse, params.texture_fine)
        self.owner[upd] = owner

    def world_xy(self, t: np.ndarray):
        return self.cam_x + t * self.rx, t * self.ry


def _render_box(view: _View, box, salt: int, owner: int, params: SynthParams):
    x0, x1, y0, y1, z0, z1 = box
    # constant-depth faces (front/rear)
    for z_plane in (z0, z1):
        t = np.full_like(view.rx, z_plane)
        px, py = view.world_xy(t)
        valid = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
        view.paint(t, valid, px, py, salt + 1, owner, params)
    # side faces
    for x_plane in (x0, x1):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (x_plane - view.cam_x) / view.rx
        t = np.where(np.isfinite(t), t, -1.0)
        py = t * view.ry
        valid = (t >= z0) & (t <= z1) & (py >= y0) & (py <= y1)
        view.paint(t, valid, t, py, salt + 2, owner, params)
    # top/bottom faces
    for y_plane in (y0, y1):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = y_plane / view.ry
        t = np.where(np.isfinite(t), t, -1.0)
        px = view.cam_x + t * view.rx
        valid = (t >= z0) & (t <= z1) & (px >= x0) & (px <= x1)
        view.paint(t, valid, px, t, salt + 3, owner, params)


def _render_ground(view: _View, params: SynthParams, salt: int):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = params.ground_y / view.ry
    t = np.where(np.isfinite(t) & (view.ry > 1e-9), t, -1.0)
    px = view.cam_x + t * view.rx
    valid = (t > 0) & (t <= params.z_far)
    view.paint(t, valid, px, t, salt, -1, params)


def _project_corners(corners: np.ndarray, f, cx, cy):
    us = f * corners[:, 0] / corners[:, 2] + cx
    vs = f * corners[:, 1] / corners[:, 2] + cy
    return us, vs


def synth_scene(seed: int, params: SynthParams | None = None) -> StereoFrame:
    """Render one stereo pair with exact labels (deterministic in the seed)."""
    params = params or SynthParams()
    rng = np.random.default_rng(seed)
    w, h, f = params.width, params.height, params.focal
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    calib = make_calibration(f, cx, cy, params.baseline)

    n_obj = int(rng.integers(params.n_objects[0], params.n_objects[1] + 1))
    objs = []
    for _ in range(n_obj):
        z = float(rng.uniform(*params.z_range))
        hh = float(rng.uniform(*params.h_range))
        ww = float(rng.uniform(*params.w_range))
        ll = float(rng.uniform(*params.l_range))
        ry = float(params.yaw_choices[rng.integers(0, len(params.yaw_choices))])
        sx, sz = (ll, ww) if abs(math.sin(ry)) < 0.5 else (ww, ll)
        x_span = max(0.3, z * (w / 2.0 - 6.0) / f - sx / 2.0)
        x = float(rng.uniform(-x_span, x_span))
        objs.append({"x": x, "z": z, "h": hh, "w": ww, "l": ll, "ry": ry,
                     "sx": sx, "sz": sz})

    views = {"left": _View(params, 0.0), "right": _View(params, params.baseline)}
    ground_salt = seed * 131 + 17
    for view in views.values():
        _render_ground(view, params, ground_salt)
        # far-to-near is irrelevant under a depth buffer but keeps salts stable
        for idx, ob in enumerate(sorted(range(n_obj), key=lambda i: -objs[i]["z"])):
            o = objs[ob]
            box = (
                o["x"] - o["sx"] / 2, o["x"] + o["sx"] / 2,
                params.ground_y - o["h"], params.ground_y,
                o["z"] - o["sz"] / 2, o["z"] + o["sz"] / 2,
            )
            _render_box(view, box, seed * 977 + ob * 59 + 29, ob, params)

    left, right = views["left"], views["right"]
    labels = []
    for i, o in enumerate(objs):
        visible = int((left.owner == i).sum())
        if visible == 0:
            continue
        dx = np.array([0.5, 0.5, -0.5, -0.5, 0.5, 0.5, -0.5, -0.5]) * o["sx"]
        dy = np.array([0.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0]) * o["h"]
        dz = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5]) * o["sz"]
        corners = np.stack([o["x"] + dx, params.ground_y + dy, o["z"] + dz], axis=1)
        us, vs = _project_corners(corners, f, cx, cy)
        full = np.array([us.min(), vs.min(), us.max(), vs.max()])
        clipped = np.array([max(full[0], 0.0), max(full[1], 0.0),
                            min(full[2], w - 1.0), min(full[3], h - 1.0)])
        if clipped[2] <= clipped[0] or clipped[3] <= clipped[1]:
            continue
        area_full = (full[2] - full[0]) * (full[3] - full[1])
        area_clip = (clipped[2] - clipped[0]) * (clipped[3] - clipped[1])
        truncated = float(max(0.0, 1.0 - area_clip / max(area_full, 1e-9)))
        frac_visible = min(1.0, visible / max(area_clip, 1.0))
        occluded = 0 if frac_visible >= 0.6 else (1 if frac_visible >= 0.25 else 2)
        alpha = wrap_angle(o["ry"] - math.atan2(o["x"], o["z"]))
        labels.append(ObjectLabel(
            type=params.class_name, truncated=truncated, occluded=occluded,
            alpha=alpha, box2d=clipped, h=o["h"], w=o["w"], l=o["l"],
            x=o["x"], y=params.ground_y, z=o["z"], ry=o["ry"],
        ))

    hit = np.isfinite(left.depth)
    disparity = np.zeros((h, w), dtype=np.float32)
    disparity[hit] = (f * params.baseline / left.depth[hit]).astype(np.float32)
    return StereoFrame(
        left=left.color.astype(np.float32),
        right=right.color.astype(np.float32),
        calib=calib,
        labels=labels,
        disparity=disparity,
        hit_mask=hit,
        object_mask=left.owner,
    )
