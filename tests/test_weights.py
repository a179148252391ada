import json
import math
import os
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vistab import weights as wio
from vistab.errors import MissingTensorError, WeightFormatError


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a": rng.normal(size=(3, 4)), "b.c": rng.normal(size=(7,))}
    path = tmp_path / "w.weights"
    wio.save_tensors(path, tensors, metadata={"k": "v"})
    loaded, meta = wio.load_tensors(path)
    assert meta == {"k": "v"}
    assert set(loaded) == {"a", "b.c"}
    for name in tensors:
        assert (loaded[name] == tensors[name]).all()


def test_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"z": rng.normal(size=(2, 2)), "a": rng.normal(size=(5,))}
    p1, p2 = tmp_path / "one", tmp_path / "two"
    wio.save_tensors(p1, tensors, metadata={"depth": "2"})
    loaded, meta = wio.load_tensors(p1)
    wio.save_tensors(p2, loaded, metadata=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_hand_built_minimal_file(tmp_path):
    header = {"t": {"dtype": "F64", "shape": [2, 2], "data_offsets": [0, 32]}}
    hdr = json.dumps(header, separators=(",", ":")).encode()
    payload = struct.pack("<Q", len(hdr)) + hdr + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    path = tmp_path / "minimal"
    path.write_bytes(payload)
    tensors, meta = wio.load_tensors(path)
    np.testing.assert_array_equal(tensors["t"], [[1.0, 2.0], [3.0, 4.0]])
    assert meta == {}


def test_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "w"
    wio.save_tensors(path, {"t": np.arange(6.0).reshape(2, 3)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 8])
    with pytest.raises(WeightFormatError):
        wio.load_tensors(path)


def test_malformed_header_reports_byte_offset(tmp_path):
    hdr = b'{"t": not-json'
    path = tmp_path / "bad"
    path.write_bytes(struct.pack("<Q", len(hdr)) + hdr)
    with pytest.raises(WeightFormatError, match=r"at byte \d+"):
        wio.load_tensors(path)


def test_file_size_is_header_plus_payload(tmp_path):
    shapes = {"a": (4, 8), "b": (8,), "c": (2, 2, 2)}
    tensors = {k: np.zeros(s) for k, s in shapes.items()}
    path = tmp_path / "sized"
    wio.save_tensors(path, tensors)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[:8])
    payload = sum(int(np.prod(s)) * 8 for s in shapes.values())
    assert len(blob) == 8 + hlen + payload


def test_require_missing_name(tmp_path):
    with pytest.raises(MissingTensorError, match="pos_embed"):
        wio.require({"other": np.zeros(1)}, "pos_embed", (1,))


def test_loaded_arrays_are_writable_aligned_and_own_their_data(tmp_path):
    path = tmp_path / "w"
    wio.save_tensors(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(3),
                            "c": np.zeros((0, 2))},
                     metadata={"note": "x"})  # header length not a multiple of 8
    loaded, _ = wio.load_tensors(path)
    for arr in loaded.values():
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
        assert arr.flags.owndata and arr.base is None
    loaded["a"] -= 1.0  # an in-place optimizer step on reloaded weights
    np.testing.assert_array_equal(loaded["a"], np.arange(6.0).reshape(2, 3) - 1.0)
    np.testing.assert_array_equal(loaded["b"], np.ones(3))


@pytest.mark.parametrize("shrinks_after_open", [False, True], ids=["cut", "cut_after_fstat"])
@pytest.mark.parametrize("k", range(4))
def test_file_cut_inside_a_tensor_names_it(tmp_path, monkeypatch, k, shrinks_after_open):
    shapes = {"w0": (3, 4), "w1": (5,), "w2": (2, 2, 2), "w3": (7,)}
    path = tmp_path / "w"
    wio.save_tensors(path, {name: np.ones(shape) for name, shape in shapes.items()})
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[:8])
    begin = 8 + hlen + sum(math.prod(shape) * 8 for shape in list(shapes.values())[:k])
    path.write_bytes(blob[:begin + 8])  # one value of tensor k is left
    if shrinks_after_open:  # the size read before the header still holds every tensor
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(
            st_size=max(fstat(fd).st_size, len(blob))))
    with pytest.raises(WeightFormatError, match=f"tensor 'w{k}' data extends past end of file"):
        wio.load_tensors(path)


def _hand_built(path, header):
    hdr = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(hdr)) + hdr + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0))
    return path


@pytest.mark.parametrize("header", [
    {"t": {"dtype": "F64", "shape": [1], "data_offsets": [-8, 0]}},
    {"t": {"dtype": "F64", "shape": [2], "data_offsets": [0, 16]},
     "u": {"dtype": "F64", "shape": [2], "data_offsets": [8, 24]}},
    {"__metadata__": ["not", "an", "object"]},
    {"t": {"dtype": "F64", "shape": [-2, 1], "data_offsets": [16, 0]}},
    {"t": {"dtype": "F64", "shape": [2**62, 4], "data_offsets": [0, 0]}},
    {"t": {"dtype": "F64", "shape": [10**30], "data_offsets": [0, 32]}},
    {"t": {"dtype": "F64", "shape": [2.7], "data_offsets": [0, 16]}},
    {"t": {"dtype": "F64", "shape": [True, 2], "data_offsets": [0, 16]}},
], ids=["negative_offset", "overlapping_tensors", "metadata_not_object",
        "negative_dimension", "int64_overflowing_size", "size_past_any_int",
        "float_dimension", "bool_dimension"])
def test_hostile_header_is_rejected(tmp_path, header):
    with pytest.raises(WeightFormatError):
        wio.load_tensors(_hand_built(tmp_path / "hostile", header))


def test_integer_too_long_to_parse_is_rejected(tmp_path):
    hdr = b'{"t":{"data_offsets":[0,8],"dtype":"F64","shape":[' + b"9" * 5000 + b"]}}"
    path = tmp_path / "long"
    path.write_bytes(struct.pack("<Q", len(hdr)) + hdr + struct.pack("<d", 1.0))
    with pytest.raises(WeightFormatError, match="header is not valid JSON"):
        wio.load_tensors(path)


def _valid_container(tmp_path) -> bytes:
    path = tmp_path / "valid"
    wio.save_tensors(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)},
                     metadata={"k": "v"})
    return path.read_bytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_container_loads_or_raises_weight_format_error(tmp_path_factory, data):
    blob = bytearray(_valid_container(tmp_path_factory.mktemp("w")))
    # arbitrary bytes, or JSON-like ones that keep a damaged header parseable more often
    raw_bytes = st.one_of(st.binary(min_size=1, max_size=8),
                          st.text("0123456789-e.,[]", min_size=1, max_size=8).map(str.encode))
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), raw_bytes), max_size=4))
    for at, raw in edits:
        raw = raw[:len(blob) - at]
        blob[at:at + len(raw)] = raw
    blob = blob[:data.draw(st.integers(0, len(blob)))]
    path = tmp_path_factory.mktemp("damaged") / "w"
    path.write_bytes(bytes(blob))
    try:
        tensors, _ = wio.load_tensors(path)
    except WeightFormatError:
        return
    assert all(arr.dtype == np.float64 for arr in tensors.values())
