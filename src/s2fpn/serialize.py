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


def read_checkpoint(path, names=None) -> dict[str, np.ndarray | None]:
    """Read the entries in `names` (every entry when None); shapes come
    back 4-d (leading dims padded with 1). Any other entry maps to None:
    its extent is checked against the file size but its data is not read.

    Reads the manifest, then each entry straight into its own array, so
    the peak memory is the arrays themselves.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            return _read_entries(fh, path, os.fstat(fh.fileno()).st_size, names)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_entries(fh, path: Path, file_size: int, names) -> dict[str, np.ndarray | None]:
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
    out: dict[str, np.ndarray | None] = {}
    for name, dtype, shape, offset in records:
        n_bytes = math.prod(shape) * dtype.itemsize
        start = data_start + offset
        # checked against the file size before allocating: a corrupt shape
        # must not turn into a huge allocation
        if start + n_bytes > file_size:
            raise CheckpointError(f"entry {name!r} is truncated")
        if names is not None and name not in names:
            out[name] = None
            continue
        try:
            arr = np.empty(shape, dtype=dtype)
        except ValueError as exc:  # a zero dim lets any other dims past the check above
            raise CheckpointError(f"entry {name!r} has an impossible shape {shape}") from exc
        fh.seek(start)
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
            raise CheckpointError(f"entry {name!r} is truncated")
        out[name] = arr
    return out


def _read_number(entries, name: str, low, high, whole: bool):
    """The one number entry `name` holds; refused unless it is in
    [low, high], and whole if `whole`."""
    values = np.asarray(entries[name], dtype=np.float64).reshape(-1)
    value = float(values[0]) if values.size == 1 else math.nan
    if not (low <= value <= high and (value.is_integer() or not whole)):
        got = values.tolist() if values.size <= 4 else f"{values.size} values"
        kind = "whole number" if whole else "number"
        raise CheckpointError(f"entry {name!r} must hold one {kind} in [{low}, {high}], got {got}")
    return int(value) if whole else value


def restore(source, entries, targets: dict[str, np.ndarray], counts=(), numbers=()) -> dict:
    """Copy each entry into its target (name -> live array) in place, but
    only once every check has passed, in this order: no name of `targets`,
    `counts` or `numbers` is missing (all missing ones are named); each
    count (name -> largest allowed value) is one whole number in [0, that];
    each number (name -> (low, high)) is one number in that range; each
    entry's 4-d shape is its target's. Each refusal is a `CheckpointError`
    naming the entry. Returns the counts and numbers by name."""
    counts, numbers = dict(counts), dict(numbers)
    missing = [name for name in (*targets, *counts, *numbers) if name not in entries]
    if missing:
        raise CheckpointError(f"{source} lacks {len(missing)} entries: {', '.join(missing)}")
    values = {name: _read_number(entries, name, 0, most, True) for name, most in counts.items()}
    values.update((name, _read_number(entries, name, *span, False)) for name, span in numbers.items())
    for name, target in targets.items():
        shape = np.shape(entries[name])
        if len(shape) > 4 or pad4(shape) != pad4(target.shape):
            raise CheckpointError(
                f"cannot load {name!r} from {source}: shape {shape} vs target shape {target.shape}"
            )
    for name, target in targets.items():
        target[...] = np.reshape(entries[name], target.shape)  # casts to the target's dtype
    return values


def load_model(path, model) -> tuple[list[str], list[str]]:
    """Restore every parameter and buffer of `model` from the file at
    `path`; extra entries (e.g. optimizer state) are allowed but not read.
    Returns the (loaded, unexpected) name lists."""
    targets = model.state_dict()
    state = read_checkpoint(path, targets)
    restore(path, state, targets)
    return list(targets), [name for name in state if name not in targets]
