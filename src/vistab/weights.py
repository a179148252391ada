"""Flat tensor container: safetensors-compatible layout, float64 payloads.

File layout: 8 bytes of unsigned little-endian header length N, then N
bytes of UTF-8 JSON mapping tensor name -> {"dtype": "F64", "shape": [...],
"data_offsets": [begin, end]} (offsets relative to the first byte after the
header), then the concatenated little-endian raw data. An optional
"__metadata__" key carries string pairs.

Writes are canonical (names sorted, compact JSON, data in name order), so
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DimensionError, MissingTensorError, WeightFormatError

_HEADER_LEN_BYTES = 8
_DTYPE = "F64"


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray],
                 metadata: dict[str, str] | None = None) -> None:
    """Write named float64 arrays to `path` in canonical order."""
    names = sorted(tensors)
    header: dict[str, object] = {}
    if metadata:
        header["__metadata__"] = {str(k): str(v) for k, v in sorted(metadata.items())}
    arrays = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")  # a copy only when it must
        header[name] = {
            "dtype": _DTYPE,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + arr.nbytes],
        }
        arrays.append(arr)
        offset += arr.nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for arr in arrays:
            fh.write(arr.data)


def load_tensors(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a container; returns (tensors, metadata).

    The file is read once into one writable buffer and every tensor is a
    view into it, so loading copies nothing and the arrays may be updated
    in place. Raises :class:`WeightFormatError` with a byte offset on
    malformed input and never returns a partially decoded result.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER_LEN_BYTES)
        if len(head) < _HEADER_LEN_BYTES:
            raise WeightFormatError("file too short for header length field", offset=len(head))
        (header_len,) = struct.unpack("<Q", head)
        header_end = _HEADER_LEN_BYTES + header_len
        # shift the file in the buffer so that the payload starts 8-byte aligned
        pad = (-header_end) % 8
        buf = np.empty(pad + size, dtype=np.uint8)
        buf[pad:pad + _HEADER_LEN_BYTES] = np.frombuffer(head, dtype=np.uint8)
        got = fh.readinto(memoryview(buf)[pad + _HEADER_LEN_BYTES:])
    blob = buf[pad:pad + _HEADER_LEN_BYTES + got]
    if len(blob) < header_end:
        raise WeightFormatError("truncated header", offset=len(blob))
    try:
        header = json.loads(blob[_HEADER_LEN_BYTES:header_end].tobytes().decode("utf-8"))
    except ValueError as e:  # also a bad UTF-8 byte, or an integer too long to parse
        pos = getattr(e, "pos", getattr(e, "start", 0))
        raise WeightFormatError(f"header is not valid JSON: {e}", offset=_HEADER_LEN_BYTES + pos)
    if not isinstance(header, dict):
        raise WeightFormatError("header must be a JSON object", offset=_HEADER_LEN_BYTES)
    raw_meta = header.pop("__metadata__", {})
    if not isinstance(raw_meta, dict):
        raise WeightFormatError("__metadata__ must be a JSON object", offset=_HEADER_LEN_BYTES)

    metadata = {str(k): str(v) for k, v in raw_meta.items()}
    data = blob[header_end:]
    tensors: dict[str, np.ndarray] = {}
    spans = []
    for name, info in header.items():
        try:
            dtype = info["dtype"]
            shape = tuple(info["shape"])
            begin, end = info["data_offsets"]
        except (KeyError, TypeError, ValueError) as e:
            raise WeightFormatError(f"bad tensor record for {name!r}: {e}", offset=header_end)
        if any(type(v) is not int or v < 0 for v in (*shape, begin, end)):
            raise WeightFormatError(f"tensor {name!r} needs non-negative integer shape and "
                                    f"offsets, got {shape} and [{begin}, {end})")
        if dtype != _DTYPE:
            raise WeightFormatError(f"tensor {name!r} has unsupported dtype {dtype!r}")
        nbytes = math.prod(shape) * 8  # a Python int: a hostile shape cannot overflow it
        if end - begin != nbytes:
            raise WeightFormatError(
                f"tensor {name!r} declares bytes [{begin}, {end}) for shape {shape}")
        if end > len(data):
            raise WeightFormatError(
                f"tensor {name!r} data extends past end of file", offset=header_end + end)
        arr = data[begin:end].view("<f8").reshape(shape)
        tensors[name] = np.ascontiguousarray(arr, dtype=np.float64)
        spans.append((begin, end, name))
    # views of overlapping ranges would alias: writing one tensor would change another
    spans.sort()
    for (_, prev_end, prev), (begin, _, name) in zip(spans, spans[1:]):
        if begin < prev_end:
            raise WeightFormatError(f"tensor {name!r} overlaps tensor {prev!r}",
                                    offset=header_end + begin)
    return tensors, metadata


def require(tensors: dict[str, np.ndarray], name: str,
            shape: tuple[int, ...]) -> np.ndarray:
    """The tensor `name`, which must be present and have `shape`."""
    if name not in tensors:
        raise MissingTensorError(f"required tensor {name!r} not found in weight file")
    arr = tensors[name]
    if arr.shape != shape:
        raise DimensionError(f"tensor {name!r}: expected shape {shape}, found {arr.shape}")
    return arr
