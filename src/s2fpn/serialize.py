"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   10 bytes  b"S2FPNCKPT1"
    count   u32       number of entries
    entry   repeated:
        name_len u16, name utf-8 bytes,
        dtype    u8   (1 = float32, 2 = float64),
        shape    4 x u32  (leading dims padded with 1),
        offset   u64  byte offset into the data section
    data    raw little-endian element bytes, entry order

Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"S2FPNCKPT1"

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_KIND = {"<f4": 1, "<f8": 2}


def pad4(shape) -> tuple[int, int, int, int]:
    """The checkpoint's 4-d shape: leading dims padded with 1."""
    dims = tuple(int(d) for d in shape)
    if len(dims) > 4:
        raise CheckpointError(f"cannot serialize tensors above rank 4 (shape {dims})")
    return (1,) * (4 - len(dims)) + dims


def write_checkpoint(path, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays; iteration order of `entries` is preserved.

    The file is written to a sibling temp file and moved over `path` only
    once complete, so a crash mid-write leaves the previous checkpoint
    intact.
    """
    path = Path(path)
    manifest = bytearray()
    arrays: list[np.ndarray] = []
    offset = 0
    for name, arr in entries.items():
        arr = np.asarray(arr)
        code = _CODE_FOR_KIND.get(np.dtype(arr.dtype).newbyteorder("<").str)
        if code is None:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for entry {name!r}")
        arr = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])
        name_bytes = name.encode("utf-8")
        manifest += struct.pack("<H", len(name_bytes))
        manifest += name_bytes
        manifest += struct.pack("<B", code)
        manifest += struct.pack("<4I", *pad4(arr.shape))
        manifest += struct.pack("<Q", offset)
        arrays.append(arr)
        offset += arr.nbytes
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(entries)))
            fh.write(manifest)
            for arr in arrays:
                fh.write(arr.reshape(-1).view(np.uint8))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _take(fh, size: int, path) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise CheckpointError(f"{path} has a truncated or corrupt manifest")
    return raw


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Read all entries; shapes come back 4-d (leading dims padded with 1).

    Reads the manifest, then each entry straight into its own array, so
    the peak memory is the arrays themselves.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _read_entries(fh, path, os.fstat(fh.fileno()).st_size)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_entries(fh, path: Path, file_size: int) -> dict[str, np.ndarray]:
    if fh.read(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    (count,) = struct.unpack("<I", _take(fh, 4, path))
    records = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _take(fh, 2, path))
        try:
            name = _take(fh, name_len, path).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path} has a truncated or corrupt manifest: {exc}") from exc
        code, *shape, offset = struct.unpack("<B4IQ", _take(fh, 25, path))
        dtype = _DTYPE_CODES.get(code)
        if dtype is None:
            raise CheckpointError(f"entry {name!r} has unknown dtype code {code}")
        records.append((name, dtype, tuple(shape), offset))
    data_start = fh.tell()
    out: dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in records:
        n_bytes = math.prod(shape) * dtype.itemsize
        start = data_start + offset
        # checked against the file size before allocating: a corrupt shape
        # must not turn into a huge allocation
        if start + n_bytes > file_size:
            raise CheckpointError(f"entry {name!r} is truncated")
        try:
            arr = np.empty(shape, dtype=dtype)
        except ValueError as exc:  # a zero dim lets any other dims past the check above
            raise CheckpointError(f"entry {name!r} has an impossible shape {shape}") from exc
        fh.seek(start)
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
            raise CheckpointError(f"entry {name!r} is truncated")
        out[name] = arr
    return out


def require_entries(path, entries: dict[str, np.ndarray], names) -> None:
    """Refuse a checkpoint that lacks any of `names`, naming every one."""
    missing = [name for name in names if name not in entries]
    if missing:
        raise CheckpointError(f"{path} lacks {len(missing)} entries: {', '.join(missing)}")


def read_count(entries: dict[str, np.ndarray], name: str) -> int:
    """The counter entry `name` as an int; refused unless it holds one
    finite, non-negative, whole number."""
    values = np.asarray(entries[name], dtype=np.float64).reshape(-1)
    if values.size != 1 or not (np.isfinite(values[0]) and values[0] >= 0 and values[0] % 1 == 0):
        got = values.tolist() if values.size <= 4 else f"{values.size} values"
        raise CheckpointError(f"entry {name!r} must hold one non-negative integer, got {got}")
    return int(values[0])


def load_model(path, model) -> tuple[list[str], list[str]]:
    """Load every parameter and buffer of `model` from the file at `path`.

    A file without one of them is refused before anything is copied;
    extra entries (e.g. optimizer state saved alongside) are allowed.
    Returns the (loaded, unexpected) name lists.
    """
    state = read_checkpoint(path)
    require_entries(path, state, model.state_dict())
    loaded, _, unexpected = model.load_state_dict(state)
    return loaded, unexpected
