"""Checkpoint container format: bit-exact round trips and documented layout."""

import struct
import zlib

import numpy as np
import pytest

from ts3d.checkpoint import (
    MAGIC,
    TEMPLATES_ENTRY,
    VERSION,
    load_arrays,
    load_model,
    save_arrays,
    save_model,
)
from ts3d.config import RunConfig
from ts3d.detect import AnchorTemplate
from ts3d.model import TS3D
from ts3d.tensor import Module, Parameter, bind_parameter_names


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "backbone.stem.w": rng.normal(size=(3, 3, 3, 8)).astype(np.float32),
        "decoder.layer2.ffn.w1": rng.normal(size=(16, 64)).astype(np.float64),
        "scalar.step": np.array([42.0]),
    }
    path = tmp_path / "model.ts3d"
    save_arrays(path, arrays)
    loaded = load_arrays(path)
    assert list(loaded) == list(arrays)
    for k in arrays:
        assert loaded[k].dtype == arrays[k].dtype
        assert loaded[k].shape == arrays[k].shape
        assert loaded[k].tobytes() == arrays[k].tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "one.ts3d"
    save_arrays(path, {"w": np.array([1.5, 2.5], dtype=np.float32)})
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    version, count = struct.unpack_from("<II", blob, 4)
    assert version == VERSION and count == 1
    (nlen,) = struct.unpack_from("<I", blob, 12)
    assert blob[16 : 16 + nlen] == b"w"
    tag, rank = struct.unpack_from("<BB", blob, 16 + nlen)
    assert tag == 0 and rank == 1
    (extent,) = struct.unpack_from("<I", blob, 18 + nlen)
    assert extent == 2
    data = np.frombuffer(blob, dtype="<f4", count=2, offset=22 + nlen)
    assert np.allclose(data, [1.5, 2.5])
    # CRC-32 trailer over every preceding byte
    assert len(blob) == 22 + nlen + 8 + 4
    assert struct.unpack_from("<I", blob, len(blob) - 4)[0] == zlib.crc32(blob[:-4])
    assert not (tmp_path / "one.ts3d.tmp").exists()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ts3d"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_arrays(path)


def test_old_version_rejected(tmp_path):
    # version-1 layout: same entries, no CRC trailer
    path = tmp_path / "v1.ts3d"
    path.write_bytes(MAGIC + struct.pack("<III", 1, 1, 1) + b"w"
                     + struct.pack("<BBI", 0, 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_arrays(path)


def _saved(tmp_path):
    path = tmp_path / "ckpt.ts3d"
    save_arrays(path, {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                       "b": np.ones(4, dtype=np.float64)})
    return path


def test_truncated_file_names_path(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="ckpt.ts3d"):
        load_arrays(path)


def test_flipped_payload_byte_names_path(tmp_path):
    path = _saved(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[30] ^= 0x01  # inside the float32 data of entry "a"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="ckpt.ts3d"):
        load_arrays(path)


def _resealed(path, blob):
    """Write ``blob`` with a valid CRC-32 trailer, so only the entry table is wrong."""
    path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob)))
    return path


def test_entry_count_beyond_the_entries_present_names_path_and_entry(tmp_path):
    path = _saved(tmp_path)
    blob = bytearray(path.read_bytes()[:-4])
    blob[8:12] = struct.pack("<I", 3)
    with pytest.raises(ValueError, match=r"ckpt\.ts3d.*entry 2 of 3"):
        load_arrays(_resealed(path, blob))


def test_extent_beyond_the_data_names_path_and_entry(tmp_path):
    path = _saved(tmp_path)
    blob = bytearray(path.read_bytes()[:-4])
    # entry "b": 12-byte header + 1 name byte + 24 data bytes of "a", then
    # name length, name, tag and rank, then its one extent
    off = 12 + 4 + 1 + 2 + 8 + 24 + 4 + 1 + 2
    assert struct.unpack_from("<I", blob, off)[0] == 4
    blob[off:off + 4] = struct.pack("<I", 5)
    with pytest.raises(ValueError, match=r"ckpt\.ts3d.*entry 1 'b'"):
        load_arrays(_resealed(path, blob))


def test_unknown_dtype_tag_names_path_and_entry(tmp_path):
    path = _saved(tmp_path)
    blob = bytearray(path.read_bytes()[:-4])
    blob[12 + 4 + 1] = 7  # entry "a"'s dtype tag
    with pytest.raises(ValueError, match=r"ckpt\.ts3d.*unknown dtype tag 7 for entry 0 'a'"):
        load_arrays(_resealed(path, blob))


def test_entry_name_that_is_not_utf8_names_path_and_entry(tmp_path):
    path = _saved(tmp_path)
    blob = bytearray(path.read_bytes()[:-4])
    off = 12 + 4 + 1 + 2 + 8 + 24 + 4  # entry "b"'s one name byte, after entry "a"
    assert blob[off:off + 1] == b"b"
    blob[off] = 0xFF
    with pytest.raises(ValueError, match=r"ckpt\.ts3d.*entry 1 is not UTF-8"):
        load_arrays(_resealed(path, blob))


def test_bytes_after_the_last_entry_are_rejected(tmp_path):
    path = _saved(tmp_path)
    blob = path.read_bytes()[:-4] + bytes(8)
    with pytest.raises(ValueError, match=r"ckpt\.ts3d.*8 bytes follow the last of 2 entries"):
        load_arrays(_resealed(path, blob))


class _Net(Module):
    def __init__(self, scale=1.0):
        super().__init__()
        self.w = Parameter(np.full((2, 3), scale, dtype=np.float32))
        self.b = Parameter(np.zeros(3, dtype=np.float32))


def test_model_roundtrip(tmp_path):
    net = _Net(scale=0.25)
    bind_parameter_names(net)
    path = tmp_path / "net.ts3d"
    save_model(path, net)
    other = _Net(scale=9.0)
    bind_parameter_names(other)
    assert load_model(path, other, load_arrays(path)) == {}
    assert np.array_equal(other.w.data, net.w.data)


def test_optimizer_state_rides_under_reserved_prefix(tmp_path):
    net = _Net(scale=0.25)
    bind_parameter_names(net)
    path = tmp_path / "net.ts3d"
    save_model(path, net, {"step": np.array([3.0]), "m.w": np.ones((2, 3))})
    assert sorted(load_arrays(path)) == ["adamw.m.w", "adamw.step", "b", "w"]
    state = load_model(path, _bound(_Net()), load_arrays(path))
    assert sorted(state) == ["m.w", "step"] and state["step"][0] == 3.0


def _bound(net):
    bind_parameter_names(net)
    return net


def test_model_mismatch_lists_keys(tmp_path):
    net = _Net()
    bind_parameter_names(net)
    path = tmp_path / "net.ts3d"
    save_arrays(path, {"w": net.w.data, "stray": np.zeros(1, dtype=np.float32)})
    with pytest.raises(ValueError) as exc:
        load_model(path, net, load_arrays(path))
    assert "b" in str(exc.value) and "stray" in str(exc.value)
    assert str(path) in str(exc.value)


# views, not copies: a load holds the file once; writable, so an entry can be
# edited and saved back
def test_loaded_entries_are_writable_views_of_the_read_buffer(tmp_path):
    path = tmp_path / "a.ts3d"
    save_arrays(path, {"a": np.arange(3.0), "b": np.ones((2, 2), dtype=np.float32)})
    for arr in load_arrays(path).values():
        assert arr.flags.writeable and not arr.flags.owndata


def test_a_detector_checkpoint_carries_its_anchor_templates_bit_for_bit(tmp_path):
    templates = [AnchorTemplate(0, 19.5 + 2.0**-40, 12.0, 7.09, 1.7, 1.5, 3.9)]
    model = TS3D(RunConfig.toy(), templates=templates)
    path = tmp_path / "m.ts3d"
    save_model(path, model, {"step": np.zeros(1)})
    arrays = load_arrays(path)
    assert list(arrays)[-2:] == [TEMPLATES_ENTRY, "adamw.step"]
    assert list(arrays)[:-2] == [name for name, _ in model.named_parameters()]
    table = arrays[TEMPLATES_ENTRY]
    assert table.dtype == np.float64
    assert table.tobytes() == np.array(templates, dtype=np.float64).tobytes()
