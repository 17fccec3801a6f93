"""Binary PPM (P6) / PGM (P5) reading and writing, 8-bit, bit-exact."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DataError


def _read_header(payload: bytes, magic: bytes, path) -> tuple[int, int, int]:
    if not payload.startswith(magic):
        raise DataError(f"{path}: expected {magic.decode()} file")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(payload) and payload[pos : pos + 1].isspace():
            pos += 1
        if pos < len(payload) and payload[pos : pos + 1] == b"#":
            while pos < len(payload) and payload[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        token = payload[start:pos]
        if not token.isdigit():
            raise DataError(f"{path}: malformed header token {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise DataError(f"{path}: empty image ({width}x{height})")
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit images supported (maxval {maxval})")
    return width, height, pos


def _read_image(path, magic: bytes, channels: tuple[int, ...]) -> np.ndarray:
    path = Path(path)
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    width, height, offset = _read_header(payload, magic, path)
    shape = (height, width, *channels)
    needed = math.prod(shape)
    if len(payload) - offset < needed:
        raise DataError(f"{path}: truncated pixel data")
    return np.frombuffer(payload, dtype=np.uint8, count=needed, offset=offset).reshape(shape).copy()


def read_ppm(path) -> np.ndarray:
    """(H, W, 3) uint8 from a binary P6 file."""
    return _read_image(path, b"P6", (3,))


def read_pgm(path) -> np.ndarray:
    """(H, W) uint8 from a binary P5 file."""
    return _read_image(path, b"P5", ())


def write_ppm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise DataError(f"write_ppm needs (H, W, 3) uint8, got {image.shape} {image.dtype}")
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def write_pgm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise DataError(f"write_pgm needs (H, W) uint8, got {image.shape} {image.dtype}")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
