"""Binary tensor serialization.

Single tensor ("FDM1"): magic bytes b"FDM1", u8 rank, rank x u32 little-endian
extents, then the row-major float32 little-endian payload.

Container ("FDMC"): magic b"FDMC", u32 section count, then per section a u16
name length, the UTF-8 name, and an embedded FDM1 blob. Used for parameter
checkpoints and multi-level feature pyramids.
"""

from __future__ import annotations

import io
import struct
from collections.abc import Collection
from pathlib import Path

import numpy as np

from .errors import NumericError, ShapeError

MAGIC = b"FDM1"
CONTAINER_MAGIC = b"FDMC"
MAX_RANK = 4


def tensor_nbytes(shape: tuple[int, ...]) -> int:
    """Serialized size of a tensor with the given extents, header included."""
    rank = len(shape)
    count = 1
    for d in shape:
        count *= int(d)
    return len(MAGIC) + 1 + 4 * rank + 4 * count


def dump_tensor(arr: np.ndarray) -> bytes:
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise ShapeError(f"tensor rank must be 1-{MAX_RANK}, got {arr.ndim}")
    if any(d < 1 for d in arr.shape):
        raise ShapeError(f"tensor extents must be >= 1, got {arr.shape}")
    payload = np.ascontiguousarray(arr, dtype="<f4")
    header = MAGIC + struct.pack("<B", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + payload.tobytes()


def load_tensor(buf: bytes | memoryview) -> np.ndarray:
    buf = memoryview(buf)
    arr, consumed = _read_tensor_at(buf, 0)
    if consumed != len(buf):
        raise ShapeError(f"trailing bytes after tensor payload ({len(buf) - consumed})")
    return arr


def _tensor_extent(buf: memoryview, offset: int) -> tuple[tuple[int, ...], int, int]:
    """Shape, payload start and payload end of the FDM1 blob at `offset`."""
    if bytes(buf[offset:offset + 4]) != MAGIC:
        raise ShapeError("bad magic: not an FDM1 tensor")
    offset += 4
    if offset >= len(buf):
        raise ShapeError("truncated tensor header")
    rank = buf[offset]
    offset += 1
    if rank < 1 or rank > MAX_RANK:
        raise ShapeError(f"tensor rank must be 1-{MAX_RANK}, got {rank}")
    if offset + 4 * rank > len(buf):
        raise ShapeError("truncated tensor header")
    shape = struct.unpack_from(f"<{rank}I", buf, offset)
    offset += 4 * rank
    if any(d < 1 for d in shape):
        raise ShapeError(f"tensor extents must be >= 1, got {shape}")
    end = offset + 4 * int(np.prod(shape, dtype=np.int64))
    if end > len(buf):
        raise ShapeError("truncated tensor payload")
    return shape, offset, end


def _read_tensor_at(buf: memoryview, offset: int) -> tuple[np.ndarray, int]:
    shape, start, end = _tensor_extent(buf, offset)
    arr = np.frombuffer(buf[start:end], dtype="<f4").reshape(shape).copy()
    if not np.isfinite(arr).all():
        raise NumericError("tensor payload contains non-finite values")
    return arr, end


def write_tensor(path: str | Path, arr: np.ndarray) -> int:
    """Write one tensor; returns the number of bytes written."""
    data = dump_tensor(arr)
    Path(path).write_bytes(data)
    return len(data)


def read_tensor(path: str | Path) -> np.ndarray:
    return load_tensor(Path(path).read_bytes())


def dump_container(sections: dict[str, np.ndarray]) -> bytes:
    out = io.BytesIO()
    out.write(CONTAINER_MAGIC)
    out.write(struct.pack("<I", len(sections)))
    for name, arr in sections.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"section name too long: {name!r}")
        out.write(struct.pack("<H", len(encoded)))
        out.write(encoded)
        out.write(dump_tensor(arr))
    return out.getvalue()


def load_container(buf: bytes, names: Collection[str] | None = None) -> dict[str, np.ndarray]:
    """The container's sections, or only those named in `names`: the others
    are checked for their header and length, but not copied or checked for
    finiteness. A section that does not parse is named in the error."""
    view = memoryview(buf)
    if bytes(view[:4]) != CONTAINER_MAGIC:
        raise ShapeError("bad magic: not an FDMC container")
    if len(view) < 8:
        raise ShapeError("truncated container header")
    (count,) = struct.unpack_from("<I", view, 4)
    offset = 8
    sections: dict[str, np.ndarray] = {}
    for index in range(count):
        if offset + 2 > len(view):
            raise ShapeError(f"truncated container: {index} of {count} sections")
        (name_len,) = struct.unpack_from("<H", view, offset)
        offset += 2
        name = bytes(view[offset:offset + name_len]).decode("utf-8", errors="replace")
        offset += name_len
        try:
            if names is None or name in names:
                sections[name], offset = _read_tensor_at(view, offset)
            else:
                offset = _tensor_extent(view, offset)[2]
        except (ShapeError, NumericError) as exc:
            raise type(exc)(f"section {name!r}: {exc}") from exc
    if offset != len(view):
        raise ShapeError(f"trailing bytes after container payload ({len(view) - offset})")
    return sections


def write_container(path: str | Path, sections: dict[str, np.ndarray]) -> int:
    data = dump_container(sections)
    Path(path).write_bytes(data)
    return len(data)


def read_container(path: str | Path,
                   names: Collection[str] | None = None) -> dict[str, np.ndarray]:
    return load_container(Path(path).read_bytes(), names)
