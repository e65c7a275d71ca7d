"""Bit-exact, self-validating binary checkpoint container.

Layout (all integers little-endian):
    magic bytes b"TS3D"
    format version  u32
    entry count     u32
    per entry:
        name length u32, UTF-8 name bytes,
        dtype tag   u8 (0 = float32, 1 = float64),
        rank        u8,
        extents     u32 per axis,
        raw little-endian element data
    CRC-32 (zlib) of all preceding bytes, u32

A training checkpoint is one file: the parameters by name, the model's anchor
templates (``TS3D.templates``) as the reserved entry ``anchor_templates``, plus the
optimizer state under the reserved ``adamw.`` prefix. A save writes ``<path>.tmp``,
fsyncs it and renames it over ``<path>``, so readers never see a partial file.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"TS3D"
VERSION = 2
OPTIMIZER_PREFIX = "adamw."
TEMPLATES_ENTRY = "anchor_templates"

_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_arrays(path, arrays: dict) -> None:
    """Atomically write a name -> float array mapping; insertion order is preserved."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            head = MAGIC + struct.pack("<II", VERSION, len(arrays))
            fh.write(head)
            crc = zlib.crc32(head)
            for name, arr in arrays.items():
                arr = np.asarray(arr)
                if arr.dtype not in _TAG_FOR:
                    raise ValueError(f"unsupported dtype {arr.dtype} for entry '{name}'")
                raw = name.encode("utf-8")
                entry = (struct.pack("<I", len(raw)) + raw
                         + struct.pack(f"<BB{arr.ndim}I", _TAG_FOR[arr.dtype], arr.ndim,
                                       *arr.shape))
                data = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
                fh.write(entry)
                fh.write(data)
                crc = zlib.crc32(data, zlib.crc32(entry, crc))
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_arrays(path) -> dict:
    """Read a container as views into one writable buffer; a bad checksum, a truncated
    file or an entry table that does not fit the data before the trailer raises ValueError."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(blob)
    if blob[:4] != MAGIC:
        raise ValueError(f"'{path}' is not a checkpoint (bad magic)")
    if len(blob) < 16:
        raise ValueError(f"'{path}' is truncated")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ValueError(f"'{path}': unsupported checkpoint version {version}")
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(memoryview(blob)[:-4]) != crc:
        raise ValueError(f"'{path}' is truncated or corrupted (CRC-32 mismatch)")
    end = len(blob) - 4  # where the CRC-32 trailer starts
    off = 12

    def take(size, entry):
        """Offset of ``entry``'s next ``size`` bytes, which must end before the trailer."""
        nonlocal off
        if off + size > end:
            raise ValueError(f"'{path}': {entry} of {count} runs past the end of the data")
        off += size
        return off - size

    out = {}
    for i in range(count):
        entry = f"entry {i}"
        (nlen,) = struct.unpack_from("<I", blob, take(4, entry))
        start = take(nlen, entry)
        try:
            name = blob[start : start + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"'{path}': the name of {entry} is not UTF-8") from None
        entry = f"entry {i} '{name}'"
        tag, rank = struct.unpack_from("<BB", blob, take(2, entry))
        if tag not in _DTYPE_TAGS:
            raise ValueError(f"'{path}': unknown dtype tag {tag} for {entry}")
        shape = struct.unpack_from(f"<{rank}I", blob, take(4 * rank, entry))
        dtype = _DTYPE_TAGS[tag]
        n = math.prod(shape)
        data = np.frombuffer(blob, dtype=dtype, count=n, offset=take(n * dtype.itemsize, entry))
        out[name] = data.reshape(shape)
    if off != end:
        raise ValueError(f"'{path}': {end - off} bytes follow the last of {count} entries")
    return out


def save_model(path, model, optimizer_state: dict | None = None) -> None:
    """Write the parameters, any ``model.templates``, and ``optimizer_state``."""
    arrays = {name: p.data for name, p in model.named_parameters()}
    if hasattr(model, "templates"):
        arrays[TEMPLATES_ENTRY] = model.templates
    arrays.update((OPTIMIZER_PREFIX + k, v) for k, v in (optimizer_state or {}).items())
    save_arrays(path, arrays)


def load_model(path, model, arrays: dict) -> dict:
    """Load parameters by name from ``arrays``, as ``load_arrays(path)`` read them
    (mismatched key sets raise with the diff listed); returns the optimizer state
    under the reserved prefix, prefix removed. A non-finite entry or a negative
    AdamW second moment raises, naming both."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"'{path}': non-finite values in entry '{name}'")
        if name.startswith(OPTIMIZER_PREFIX + "v.") and (arr < 0).any():
            raise ValueError(f"'{path}': negative second moment in entry '{name}'")
    optimizer_state = {
        name[len(OPTIMIZER_PREFIX):]: arrays.pop(name)
        for name in list(arrays) if name.startswith(OPTIMIZER_PREFIX)
    }
    model_names = [name for name, _ in model.named_parameters()]
    missing = [n for n in model_names if n not in arrays]
    extra = [n for n in arrays if n not in model_names]
    if missing or extra:
        raise ValueError(
            f"'{path}': checkpoint/model mismatch; "
            f"missing from checkpoint: {missing or 'none'}; "
            f"unknown in checkpoint: {extra or 'none'}"
        )
    for name, p in model.named_parameters():
        arr = arrays[name]
        if arr.shape != p.data.shape:
            raise ValueError(
                f"'{path}': shape mismatch for '{name}': "
                f"checkpoint {arr.shape}, model {p.data.shape}"
            )
        p.data = arr.astype(p.data.dtype)
    return optimizer_state
