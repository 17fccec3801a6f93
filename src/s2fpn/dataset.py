"""On-disk dataset layout and class palettes.

A dataset root holds `images/` (binary P6 PPM) and `labels/` (binary P5
PGM; pixel values are class ids, 255 = ignore) plus split files `train.txt`
and `val.txt` listing basenames, one per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError
from .imageio import read_pgm, read_ppm

BUILTIN_PALETTES = ("cityscapes19", "camvid11")


@dataclass
class PaletteEntry:
    class_id: int
    name: str
    color: tuple[int, int, int]


class Palette:
    """Class id -> (name, RGB) table; ids must be dense from 0."""

    def __init__(self, entries: list[PaletteEntry]):
        entries = sorted(entries, key=lambda e: e.class_id)
        ids = [e.class_id for e in entries]
        if ids != list(range(len(entries))):
            raise DataError(f"palette ids must be dense from 0, got {ids}")
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def color_map(self) -> np.ndarray:
        table = np.zeros((256, 3), dtype=np.uint8)
        for e in self.entries:
            table[e.class_id] = e.color
        return table

    @staticmethod
    def parse(text: str, source: str = "<palette>") -> "Palette":
        entries = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise DataError(
                    f"{source} line {lineno}: expected 'id name r g b', got {raw!r}"
                )
            try:
                cid = int(parts[0])
                rgb = tuple(int(v) for v in parts[2:5])
            except ValueError as exc:
                raise DataError(f"{source} line {lineno}: {exc}") from exc
            if not all(0 <= v <= 255 for v in (cid, *rgb)):
                raise DataError(
                    f"{source} line {lineno}: class id and colour must be in 0..255, got {raw!r}"
                )
            entries.append(PaletteEntry(cid, parts[1], rgb))
        if not entries:
            raise DataError(f"{source}: empty palette")
        return Palette(entries)


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def load_palette(name_or_path: str) -> Palette:
    if name_or_path in BUILTIN_PALETTES:
        text = (
            resources.files("s2fpn").joinpath(f"data/{name_or_path}.palette").read_text()
        )
        return Palette.parse(text, source=name_or_path)
    path = Path(name_or_path)
    if not path.is_file():
        raise DataError(f"palette {name_or_path!r} is neither built-in nor a file")
    return Palette.parse(_read_text(path, "palette"), source=str(path))


def to_chw(image: np.ndarray) -> np.ndarray:
    """uint8 (H, W, 3) pixels to a float32 (3, H, W) image in [0, 1]."""
    return np.ascontiguousarray(image.astype(np.float32).transpose(2, 0, 1) / 255.0)


class SegDataset:
    def __init__(self, root):
        self.root = Path(root)
        self.image_dir = self.root / "images"
        self.label_dir = self.root / "labels"
        for d in (self.image_dir, self.label_dir):
            if not d.is_dir():
                raise DataError(f"dataset directory {d} does not exist")
        self.splits: dict[str, list[str]] = {}
        for split in ("train", "val"):
            path = self.root / f"{split}.txt"
            if path.is_file():
                lines = _read_text(path, "split file").splitlines()
                self.splits[split] = [line.strip() for line in lines if line.strip()]

    def split(self, name: str) -> list[str]:
        if name not in self.splits:
            raise DataError(f"split {name!r} not found under {self.root}")
        return self.splits[name]

    def paths_for(self, basename: str) -> tuple[Path, Path]:
        image = self.image_dir / f"{basename}.ppm"
        label = self.label_dir / f"{basename}.pgm"
        if not image.is_file():
            raise DataError(f"missing image file {image}")
        if not label.is_file():
            raise DataError(f"missing label file {label}")
        return image, label

    def load(self, basename: str) -> tuple[np.ndarray, np.ndarray]:
        """Raw (3, H, W) float32 image in [0, 1] and the (H, W) uint8 label
        map as the PGM holds it (labels are 8-bit)."""
        image_path, label_path = self.paths_for(basename)
        image = read_ppm(image_path)
        label = read_pgm(label_path)
        if image.shape[:2] != label.shape:
            raise DataError(
                f"{basename}: image dims {image.shape[:2]} != label dims {label.shape}"
            )
        return to_chw(image), label

    def compute_normalization(self, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        """Per-channel mean/std over the split's images (in [0, 1] units); the
        std is floored at 1e-3, as the variance at 1e-6 (whose root is 1e-3)."""
        total = np.zeros(3, dtype=np.float64)
        total_sq = np.zeros(3, dtype=np.float64)
        count = 0
        for name in self.split(split):
            image, _ = self.load(name)
            total += image.sum(axis=(1, 2))
            total_sq += np.square(image).sum(axis=(1, 2))
            count += image.shape[1] * image.shape[2]
        if count == 0:
            raise DataError(f"split {split!r} is empty")
        mean = total / count
        std = np.sqrt(np.maximum(total_sq / count - mean**2, 1e-6))
        return mean.astype(np.float32), std.astype(np.float32)
