"""Command-line interface: train / eval / infer / analyze / gradcheck.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric-check failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import benchmark_latency, count_flops
from .blas import thread_limit
from .config import RunConfig, parse_config
from .dataset import Palette, SegDataset, load_palette, to_chw
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    NumericCheckError,
    ShapeError,
)
from .gradcheck import CHECKS, run_verification
from .imageio import read_ppm, write_pgm, write_ppm
from .model import S2FPN
from .serialize import load_model
from .tensor import default_dtype, no_grad, using_dtype
from .trainer import Trainer, evaluate_model


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number(convert, rule: str, test):
    """argparse type: the number `convert` reads from the text, refused
    unless `test` holds for it (`rule` says what that is)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan  # fails every test
        if not test(value):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value

    return parse


_POSITIVE = _number(int, "an integer >= 1", lambda v: v >= 1)
_NON_NEGATIVE = _number(int, "an integer >= 0", lambda v: v >= 0)


def build_parser() -> _Parser:
    parser = _Parser(prog="s2fpn", description=__doc__)
    parser.add_argument("--config", help="run configuration file (key = value lines)")
    parser.add_argument("--seed", type=_NON_NEGATIVE, help="override the configured seed")
    parser.add_argument("--threads", type=_POSITIVE, help="cap BLAS threads for the command")
    parser.add_argument("--f64", action="store_true", help="run in float64")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model per the run config")
    p.add_argument("--resume", help="checkpoint to resume from")

    p = sub.add_parser("eval", help="per-class IoU and mean IoU on a split")
    p.add_argument("checkpoint")
    p.add_argument("--split", default="val")
    p.add_argument("--csv", default="eval_iou.csv", help="where to write the CSV table")

    p = sub.add_parser("infer", help="segment one image; writes label map + overlay")
    p.add_argument("checkpoint")
    p.add_argument("image", help="input PPM (P6) image")
    p.add_argument("out", help="output path prefix (.pgm and .ppm are appended)")
    p.add_argument("--blend", default=0.5, help="overlay alpha in [0, 1]",
                   type=_number(float, "a number in [0, 1]", lambda v: 0 <= v <= 1))

    p = sub.add_parser("analyze", help="parameter/FLOP report, optional latency")
    p.add_argument("--height", type=_POSITIVE, default=512)
    p.add_argument("--width", type=_POSITIVE, default=1024)
    p.add_argument("--batch", type=_POSITIVE, default=1)
    p.add_argument("--csv", help="also write the report as CSV")
    p.add_argument("--latency", action="store_true")
    p.add_argument("--warmup", type=_NON_NEGATIVE, default=3)
    p.add_argument("--iters", type=_POSITIVE, default=10)

    p = sub.add_parser("gradcheck", help="finite-difference verification")
    p.add_argument("scope", nargs="?", default="all", choices=("all", *CHECKS))
    p.add_argument("--seeds", type=_POSITIVE, default=5, help="number of seeds")
    p.add_argument("--tolerance", default=1e-4,
                   type=_number(float, "a finite number >= 0", lambda v: 0 <= v < math.inf))

    return parser


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _palette_for(cfg: RunConfig) -> Palette:
    palette = load_palette(cfg.palette)
    if len(palette) != cfg.num_classes:
        raise ConfigError(
            f"palette {cfg.palette!r} has {len(palette)} classes, config says {cfg.num_classes}"
        )
    return palette


def _dataset_for(cfg: RunConfig) -> SegDataset:
    if not cfg.dataset:
        raise ConfigError("config is missing the 'dataset' key")
    return SegDataset(cfg.dataset)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    trainer = Trainer(cfg, _dataset_for(cfg))
    summary = trainer.run(resume=args.resume)
    print(f"trained {summary['iterations']} iterations")
    if summary["final_loss"] is not None:
        print(f"final loss {summary['final_loss']:.6f}")
    if summary["best_miou"] >= 0:
        print(f"best val mIoU {summary['best_miou']:.4f}")
    print(f"checkpoints under {trainer.out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    palette = _palette_for(cfg)
    model = S2FPN.from_config(cfg)
    load_model(args.checkpoint, model)
    matrix = evaluate_model(model, _dataset_for(cfg), args.split, cfg.ignore_index)
    per_class = matrix.iou()
    width = max(len(n) for n in (*palette.names, "class", "mIoU")) + 2
    print(f"{'class':<{width}}iou")
    for name, iou in zip(palette.names, per_class):
        text = "-" if np.isnan(iou) else f"{iou:.4f}"
        print(f"{name:<{width}}{text}")
    print(f"{'mIoU':<{width}}{matrix.mean_iou():.4f}")
    lines = ["class,iou"]
    for name, iou in zip(palette.names, per_class):
        lines.append(f"{name},{'' if np.isnan(iou) else f'{iou:.6f}'}")
    lines.append(f"mIoU,{matrix.mean_iou():.6f}")
    Path(args.csv).write_text("\n".join(lines) + "\n")
    print(f"csv written to {args.csv}")
    return 0


def cmd_infer(args) -> int:
    cfg = _load_config(args)
    palette = _palette_for(cfg)
    model = S2FPN.from_config(cfg)
    load_model(args.checkpoint, model)
    image = read_ppm(args.image)
    model.eval()
    with no_grad():
        logits = model(model.normalize(to_chw(image)[None]))
    pred = logits.data.argmax(axis=1)[0].astype(np.uint8)
    label_path = Path(f"{args.out}.pgm")
    overlay_path = Path(f"{args.out}.ppm")
    write_pgm(label_path, pred)
    colors = palette.color_map()[pred]
    overlay = np.clip(
        args.blend * colors.astype(np.float64) + (1.0 - args.blend) * image.astype(np.float64),
        0,
        255,
    ).astype(np.uint8)
    write_ppm(overlay_path, overlay)
    print(f"label map written to {label_path}")
    print(f"overlay written to {overlay_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    model = S2FPN.from_config(cfg)
    try:
        model.check_frame(args.height, args.width)
    except DataError as exc:
        raise UsageError(f"--height/--width: {exc}") from None
    shape = (args.batch, 3, args.height, args.width)
    report = count_flops(model, shape)
    if args.latency:
        report.latency = benchmark_latency(
            model, shape, warmup=args.warmup, iters=args.iters, seed=cfg.seed,
            threads=args.threads or 1,
        )
    print(report.to_text())
    if args.csv:
        Path(args.csv).write_text(report.to_csv() + "\n")
        print(f"csv written to {args.csv}")
    return 0


def cmd_gradcheck(args) -> int:
    seeds = tuple(range(args.seeds))
    worst, failures = run_verification(args.scope, seeds=seeds, tolerance=args.tolerance)
    for name in sorted(worst):
        status = "FAIL" if name in failures else "ok"
        print(f"{name:<24} max rel err {worst[name]:.3e}  {status}")
    if failures:
        raise NumericCheckError(f"gradient checks failed: {', '.join(failures)}")
    print(f"all {len(worst)} checks within {args.tolerance:g}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "analyze": cmd_analyze,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        dtype = np.float64 if args.f64 else default_dtype()
        with using_dtype(dtype), thread_limit(args.threads):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericCheckError as exc:
        print(f"numeric check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
