"""Plain-text run configuration: `key = value` lines, `#` comments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


@dataclass
class RunConfig:
    backbone: str = "r18"
    pyramid_width: int = 320
    num_classes: int = 19
    dropout: float = 0.1
    dataset: str = ""
    palette: str = "cityscapes19"
    crop_h: int = 512
    crop_w: int = 1024
    batch_size: int = 4
    epochs: int = 1
    base_lr: float = 3e-4
    weight_decay: float = 5e-6
    power: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    ohem_threshold: float = 0.7
    ohem_min_kept: int = 0  # 0 = derive from crop size (pixels / 16)
    ignore_index: int = 255
    aux_weight: float = 0.4
    scales: tuple[float, ...] = (0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    flip_prob: float = 0.5
    seed: int = 0
    checkpoint_every: int = 1
    out_dir: str = "runs/default"

    def min_kept(self) -> int:
        if self.ohem_min_kept > 0:
            return self.ohem_min_kept
        return max(1, self.crop_h * self.crop_w // 16)


_CONVERTERS = {str: str, int: int, float: float, tuple[float, ...]: _parse_floats}
_DOTTED = {"ohem_threshold": "ohem.threshold", "ohem_min_kept": "ohem.min_kept"}

# config-file key -> (dataclass field, converter): each field under its own
# name, except that the ohem fields are spelled dotted, which keeps the
# grouping readable in files, and `lr` is a second name for `base_lr`
_KEY_MAP = {
    _DOTTED.get(name, name): (name, _CONVERTERS[kind])
    for name, kind in get_type_hints(RunConfig).items()
}
_KEY_MAP["lr"] = _KEY_MAP["base_lr"]


_POSITIVE = ("> 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = (">= 0", lambda v: 0 <= v < math.inf)

# dataclass field -> (what a value must be, its test), checked at parse
# time; each item of a tuple value is tested
_RANGES = {
    **dict.fromkeys(
        ("pyramid_width", "num_classes", "crop_h", "crop_w", "batch_size", "scales",
         "checkpoint_every", "base_lr", "adam_eps"),
        _POSITIVE,
    ),
    **dict.fromkeys(
        ("epochs", "ohem_min_kept", "seed", "weight_decay", "power", "aux_weight"), _NON_NEGATIVE
    ),
    **dict.fromkeys(("dropout", "beta1", "beta2"), ("in [0, 1)", lambda v: 0 <= v < 1)),
    **dict.fromkeys(("flip_prob", "ohem_threshold"), ("in [0, 1]", lambda v: 0 <= v <= 1)),
    "ignore_index": ("in 0..255 (labels are 8-bit)", lambda v: 0 <= v <= 255),
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_MAP:
            raise ConfigError(f"{source} line {lineno}: unknown key {key!r}")
        attr, converter = _KEY_MAP[key]
        try:
            parsed = converter(value)
        except ValueError as exc:
            raise ConfigError(f"{source} line {lineno}: bad value for {key!r}: {exc}") from exc
        rule, test = _RANGES.get(attr, ("", None))
        if test and not all(map(test, parsed if isinstance(parsed, tuple) else (parsed,))):
            raise ConfigError(f"{source} line {lineno}: {key!r} must be {rule}, got {value!r}")
        setattr(cfg, attr, parsed)
    return cfg


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))

