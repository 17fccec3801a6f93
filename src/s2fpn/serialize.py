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

import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"S2FPNCKPT1"

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_KIND = {"<f4": 1, "<f8": 2}


def _pad4(shape) -> tuple[int, int, int, int]:
    dims = tuple(int(d) for d in shape)
    if len(dims) > 4:
        raise CheckpointError(f"cannot serialize tensors above rank 4 (shape {dims})")
    return (1,) * (4 - len(dims)) + dims


def write_checkpoint(path, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays; iteration order of `entries` is preserved."""
    manifest = bytearray()
    blobs: list[bytes] = []
    offset = 0
    for name, arr in entries.items():
        arr = np.asarray(arr)
        code = _CODE_FOR_KIND.get(np.dtype(arr.dtype).newbyteorder("<").str)
        if code is None:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for entry {name!r}")
        raw = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes()
        name_bytes = name.encode("utf-8")
        manifest += struct.pack("<H", len(name_bytes))
        manifest += name_bytes
        manifest += struct.pack("<B", code)
        manifest += struct.pack("<4I", *_pad4(arr.shape))
        manifest += struct.pack("<Q", offset)
        blobs.append(raw)
        offset += len(raw)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(entries)))
        fh.write(bytes(manifest))
        for raw in blobs:
            fh.write(raw)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Read all entries; shapes come back 4-d (leading dims padded with 1)."""
    path = Path(path)
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not payload.startswith(MAGIC):
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    pos = len(MAGIC)
    try:
        (count,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        records = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", payload, pos)
            pos += 2
            name = payload[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (code,) = struct.unpack_from("<B", payload, pos)
            pos += 1
            shape = struct.unpack_from("<4I", payload, pos)
            pos += 16
            (offset,) = struct.unpack_from("<Q", payload, pos)
            pos += 8
            dtype = _DTYPE_CODES.get(code)
            if dtype is None:
                raise CheckpointError(f"entry {name!r} has unknown dtype code {code}")
            records.append((name, dtype, shape, offset))
    except (struct.error, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path} has a truncated or corrupt manifest: {exc}") from exc
    data_start = pos
    out: dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in records:
        n_bytes = int(np.prod(shape)) * dtype.itemsize
        start = data_start + offset
        raw = payload[start : start + n_bytes]
        if len(raw) != n_bytes:
            raise CheckpointError(f"entry {name!r} is truncated")
        out[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return out


def save_model(path, model, extra: dict[str, np.ndarray] | None = None) -> None:
    entries: dict[str, np.ndarray] = {name: arr for name, arr, _ in model.state_entries()}
    if extra:
        for name, arr in extra.items():
            entries[name] = np.asarray(arr)
    write_checkpoint(path, entries)


def load_model(path, model, strict: bool = False):
    """Name-matched load into `model`.

    Returns (loaded, missing, unexpected) name lists; `unexpected` includes
    any non-model entries (e.g. optimizer state saved alongside).
    """
    state = read_checkpoint(path)
    return model.load_state_dict(state, strict=strict)
