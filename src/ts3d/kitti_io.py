"""KITTI-format label and calibration I/O, binary PPM images (read and
written), PGM images (written only) and raw rasters.

Label lines carry 15 space-separated fields (detections append a 16th score
field): type, truncated, occluded, alpha, bbox x1 y1 x2 y2, dimensions
h w l, location x y z, rotation_y. Every numeric field must be finite; a
reader's error names the file, the line and the field. KITTI's ``DontCare``
lines (-1 extents, -1000 location) are finite and parse. Likewise every
entry of a calibration file's P2 and P3 rows must be finite, and an error
names the file, the row and the entry index. A PPM with fewer pixel bytes
than its header declares, or a raster whose size differs from its extents, is
an error naming the file and both byte counts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass
class ObjectLabel:
    type: str
    truncated: float
    occluded: int
    alpha: float
    box2d: np.ndarray  # x1, y1, x2, y2
    h: float
    w: float
    l: float
    x: float
    y: float
    z: float
    ry: float
    score: float | None = None

    def to_line(self) -> str:
        fields = [
            self.type,
            f"{self.truncated:.2f}",
            str(int(self.occluded)),
            f"{self.alpha:.6f}",
            f"{self.box2d[0]:.2f}", f"{self.box2d[1]:.2f}",
            f"{self.box2d[2]:.2f}", f"{self.box2d[3]:.2f}",
            f"{self.h:.6f}", f"{self.w:.6f}", f"{self.l:.6f}",
            f"{self.x:.6f}", f"{self.y:.6f}", f"{self.z:.6f}",
            f"{self.ry:.6f}",
        ]
        if self.score is not None:
            fields.append(f"{self.score:.6f}")
        return " ".join(fields)


def label_corners(lb: ObjectLabel) -> list:
    """The 8 camera-frame (x, y, z) corners of a label's 3D box: its footprint's
    four counter-clockwise corners at the bottom (y), then at the top (y - h).
    As in the KITTI devkit, R_y(ry) turns the length axis to (cos ry, -sin ry)."""
    c, s = math.cos(lb.ry), math.sin(lb.ry)
    footprint = [(lb.x + dl * lb.l * c + dw * lb.w * s, lb.z - dl * lb.l * s + dw * lb.w * c)
                 for dl, dw in ((0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5))]
    return [(x, y, z) for y in (lb.y, lb.y - lb.h) for x, z in footprint]


_NUMERIC_FIELDS = "truncated occluded alpha x1 y1 x2 y2 h w l x y z ry score".split()


def parse_label_line(line: str, lineno: int = 0) -> ObjectLabel:
    parts = line.split()
    if len(parts) not in (15, 16):
        raise ValueError(f"label line {lineno}: expected 15 or 16 fields, got {len(parts)}")
    try:
        vals = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise ValueError(f"label line {lineno}: non-numeric field ({exc})") from None
    bad = [f"{name}={v}" for name, v in zip(_NUMERIC_FIELDS, vals) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"label line {lineno}: non-finite field {', '.join(bad)}")
    return ObjectLabel(
        type=parts[0],
        truncated=vals[0],
        occluded=int(vals[1]),
        alpha=vals[2],
        box2d=np.array(vals[3:7]),
        h=vals[7], w=vals[8], l=vals[9],
        x=vals[10], y=vals[11], z=vals[12],
        ry=vals[13],
        score=vals[14] if len(parts) == 16 else None,
    )


def read_kitti_label(path) -> list:
    labels = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    labels.append(parse_label_line(line, lineno))
                except ValueError as exc:
                    raise ValueError(f"'{path}': {exc}") from None
    return labels


def write_kitti_label(path, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lb in labels:
            fh.write(lb.to_line() + "\n")


# ---------------------------------------------------------------------------
# calibration


@dataclass
class Calibration:
    p_left: np.ndarray   # 3x4
    p_right: np.ndarray  # 3x4

    @property
    def f(self) -> float:
        return float(self.p_left[0, 0])

    @property
    def cx(self) -> float:
        return float(self.p_left[0, 2])

    @property
    def cy(self) -> float:
        return float(self.p_left[1, 2])

    @property
    def baseline(self) -> float:
        return float((self.p_left[0, 3] - self.p_right[0, 3]) / self.f)


def make_calibration(f: float, cx: float, cy: float, baseline: float) -> Calibration:
    p_left = np.array([[f, 0.0, cx, 0.0], [0.0, f, cy, 0.0], [0.0, 0.0, 1.0, 0.0]])
    p_right = p_left.copy()
    p_right[0, 3] = -f * baseline
    return Calibration(p_left=p_left, p_right=p_right)


def _parse_projection(path, key: str, text: str) -> np.ndarray:
    """The 3x4 matrix of one projection row. A wrong entry count is an error
    naming the file and the row; a non-numeric or non-finite entry is one
    that also names the entry index."""
    entries = text.split()
    if len(entries) != 12:
        raise ValueError(f"calibration file '{path}': row {key} has {len(entries)} "
                         f"entries, expected 12")
    vals = []
    for i, entry in enumerate(entries):
        try:
            v = float(entry)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise ValueError(f"calibration file '{path}': row {key} entry {i} "
                             f"is not a finite number: '{entry}'")
        vals.append(v)
    return np.array(vals).reshape(3, 4)


def read_calib(path) -> Calibration:
    """The P2 (left) and P3 (right) projection rows of a KITTI calibration
    file; other rows are not read. The focal length and the baseline must be
    positive: the flip and the disparity f b / z both assume so."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, rest = line.partition(":")
            key = key.strip()
            if sep and key in ("P2", "P3"):
                rows[key] = _parse_projection(path, key, rest)
    if "P2" not in rows or "P3" not in rows:
        missing = [k for k in ("P2", "P3") if k not in rows]
        raise ValueError(f"calibration file '{path}' missing rows: {missing}")
    calib = Calibration(p_left=rows["P2"], p_right=rows["P3"])
    if calib.f <= 0:
        raise ValueError(f"calibration file '{path}': focal length P2[0,0] = {calib.f!r} "
                         f"must be positive")
    if calib.baseline <= 0:
        raise ValueError(f"calibration file '{path}': baseline (P2[0,3] - P3[0,3]) / f = "
                         f"{calib.baseline!r} m must be positive")
    return calib


def write_calib(path, calib: Calibration) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, mat in (("P2", calib.p_left), ("P3", calib.p_right)):
            vals = " ".join(f"{v:.12e}" for v in mat.reshape(-1))
            fh.write(f"{key}: {vals}\n")


# ---------------------------------------------------------------------------
# images (binary portable pixmap / graymap)


def write_ppm(path, img: np.ndarray) -> None:
    """8-bit binary P6 from a float image in [0, 1] or a uint8 array."""
    if img.dtype != np.uint8:
        img = np.clip(np.round(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
    h, w, c = img.shape
    if c != 3:
        raise ValueError(f"P6 needs 3 channels, got {c}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _read_header_tokens(blob: bytes, n_tokens: int):
    tokens, i = [], 2
    while len(tokens) < n_tokens:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        tokens.append(blob[start:i])
    return tokens, i + 1


def read_ppm(path) -> np.ndarray:
    """Float32 image in [0, 1], shape (H, W, 3)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P6":
        raise ValueError(f"'{path}' is not a binary PPM")
    tokens, offset = _read_header_tokens(blob, 3)
    if not all(t.isdigit() for t in tokens):
        raise ValueError(f"'{path}' has a malformed PPM header {b' '.join(tokens)!r}")
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError(f"'{path}' has unsupported max value {maxval}")
    if len(blob) - offset < h * w * 3:
        raise ValueError(f"'{path}' holds {max(len(blob) - offset, 0)} pixel bytes, "
                         f"expected {h * w * 3} for {w}x{h} RGB")
    data = np.frombuffer(blob, dtype=np.uint8, count=h * w * 3, offset=offset)
    return (data.reshape(h, w, 3).astype(np.float32)) / 255.0


def write_pgm(path, img: np.ndarray) -> None:
    """8-bit binary P5 from a float image (min-max normalized) or uint8."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        lo, hi = float(img.min()), float(img.max())
        span = hi - lo if hi > lo else 1.0
        img = np.clip(np.round((img - lo) / span * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


# ---------------------------------------------------------------------------
# raw float/byte rasters (pseudo ground-truth cache)


def _read_raster(path, dtype, h: int, w: int) -> np.ndarray:
    dtype = np.dtype(dtype)
    expected, actual = h * w * dtype.itemsize, os.path.getsize(path)
    if actual != expected:
        raise ValueError(f"'{path}' holds {actual} bytes, expected {expected} for a "
                         f"{h}x{w} {dtype.name} raster")
    return np.fromfile(path, dtype=dtype).reshape(h, w)


def write_raster_f32(path, arr: np.ndarray) -> None:
    np.asarray(arr, dtype="<f4").tofile(path)


def read_raster_f32(path, h: int, w: int) -> np.ndarray:
    return _read_raster(path, "<f4", h, w)


def write_raster_mask(path, mask: np.ndarray) -> None:
    np.asarray(mask, dtype=np.uint8).tofile(path)


def read_raster_mask(path, h: int, w: int) -> np.ndarray:
    return _read_raster(path, np.uint8, h, w).astype(bool)
