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

A training checkpoint is one file: the parameters by name, plus the optimizer
state under the reserved ``adamw.`` prefix. A save writes ``<path>.tmp``,
fsyncs it and renames it over ``<path>``, so readers never see a partial file.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

import numpy as np

MAGIC = b"TS3D"
VERSION = 2
OPTIMIZER_PREFIX = "adamw."

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
    """Read a container; a bad checksum or a truncated file raises ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
    out = {}
    off = 12
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off : off + nlen].decode("utf-8")
        off += nlen
        tag, rank = struct.unpack_from("<BB", blob, off)
        off += 2
        if tag not in _DTYPE_TAGS:
            raise ValueError(f"unknown dtype tag {tag} for entry '{name}'")
        shape = struct.unpack_from(f"<{rank}I", blob, off) if rank else ()
        off += 4 * rank
        dtype = _DTYPE_TAGS[tag]
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype=dtype, count=n, offset=off).reshape(shape)
        off += n * dtype.itemsize
        out[name] = arr.copy()
    return out


def save_model(path, model, optimizer_state: dict | None = None) -> None:
    """Write the parameters, plus ``optimizer_state`` under the reserved prefix."""
    arrays = {name: p.data for name, p in model.named_parameters()}
    arrays.update((OPTIMIZER_PREFIX + k, v) for k, v in (optimizer_state or {}).items())
    save_arrays(path, arrays)


def load_model(path, model) -> dict:
    """Load parameters by name (mismatched key sets raise with the diff listed);
    returns the optimizer state found under the reserved prefix, prefix removed."""
    arrays = load_arrays(path)
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
        p.data = arr.astype(p.data.dtype).copy()
    return optimizer_state
