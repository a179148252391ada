"""Flat tensor container: safetensors-compatible layout, float64 payloads.

File layout: 8 bytes of unsigned little-endian header length N, then N
bytes of UTF-8 JSON mapping tensor name -> {"dtype": "F64", "shape": [...],
"data_offsets": [begin, end]} (offsets relative to the first byte after the
header), then the concatenated little-endian raw data. An optional
"__metadata__" key carries string pairs.

Writes are canonical (names sorted, compact JSON, data in name order), so
save -> load -> save is byte-identical. A load checks the whole header before
it reads any data, then reads each tensor into an array of its own: no buffer
holds the file, and no tensor is a view of another's memory.
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

    The whole header is read and checked against the file's size first, so no
    array is allocated for a record the file cannot hold. Then each tensor, in
    offset order, is read straight into its own ``np.empty(shape, "<f8")``: the
    arrays share no buffer, are copied nowhere after the read, may be updated
    in place, and each frees its own memory when dropped. Raises
    :class:`WeightFormatError` with a byte offset on malformed input and never
    returns a partially decoded result.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER_LEN_BYTES)
        if len(head) < _HEADER_LEN_BYTES:
            raise WeightFormatError("file too short for header length field", offset=len(head))
        (header_len,) = struct.unpack("<Q", head)
        header_end = _HEADER_LEN_BYTES + header_len
        if size < header_end:
            raise WeightFormatError("truncated header", offset=size)
        header, metadata = _parse_header(fh.read(header_len))
        tensors: dict[str, np.ndarray] = {}
        for begin, end, name, shape in _spans(header, header_end, size - header_end):
            arr = np.empty(shape, "<f8")
            if end > begin:  # a buffer with a zero in its shape cannot be cast to bytes
                fh.seek(header_end + begin)
                got = fh.readinto(arr.data.cast("B"))
                if got != end - begin:  # the file shrank after fstat
                    raise WeightFormatError(f"tensor {name!r} data extends past end of file",
                                            offset=header_end + begin + got)
            tensors[name] = arr
    return tensors, metadata


def _parse_header(raw: bytes) -> tuple[dict, dict[str, str]]:
    """The header's tensor records and its metadata, from the header's JSON bytes."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as e:  # also a bad UTF-8 byte, or an integer too long to parse
        pos = getattr(e, "pos", getattr(e, "start", 0))
        raise WeightFormatError(f"header is not valid JSON: {e}", offset=_HEADER_LEN_BYTES + pos)
    if not isinstance(header, dict):
        raise WeightFormatError("header must be a JSON object", offset=_HEADER_LEN_BYTES)
    raw_meta = header.pop("__metadata__", {})
    if not isinstance(raw_meta, dict):
        raise WeightFormatError("__metadata__ must be a JSON object", offset=_HEADER_LEN_BYTES)
    return header, {str(k): str(v) for k, v in raw_meta.items()}


def _spans(header: dict, header_end: int,
           data_len: int) -> list[tuple[int, int, str, tuple[int, ...]]]:
    """(begin, end, name, shape) of every tensor record, in offset order, each checked:
    an F64 dtype, non-negative integer shape and offsets whose span holds the shape,
    within the `data_len` bytes after the header, and overlapping no other record."""
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
        spans.append((begin, end, name, shape))
    spans.sort()
    # in offset order, so a file cut short is reported at the first tensor it cuts
    prev_end, prev = 0, None
    for begin, end, name, _ in spans:
        if begin < prev_end:
            raise WeightFormatError(f"tensor {name!r} overlaps tensor {prev!r}",
                                    offset=header_end + begin)
        if end > data_len:
            raise WeightFormatError(
                f"tensor {name!r} data extends past end of file", offset=header_end + end)
        prev_end, prev = end, name
    return spans


def require(tensors: dict[str, np.ndarray], name: str,
            shape: tuple[int, ...]) -> np.ndarray:
    """The tensor `name`, which must be present and have `shape`."""
    if name not in tensors:
        raise MissingTensorError(f"required tensor {name!r} not found in weight file")
    arr = tensors[name]
    if arr.shape != shape:
        raise DimensionError(f"tensor {name!r}: expected shape {shape}, found {arr.shape}")
    return arr
