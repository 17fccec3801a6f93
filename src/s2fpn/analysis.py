"""Parameter, FLOP, and latency accounting for built models.

Counting convention (also emitted in every report header):
  * convolutions: 2 * output_elements * (in_channels/groups * kH * kW)
    FLOPs, plus output_elements when a bias is present (1 MAC = 2 FLOPs);
  * normalization / activations / pooling / resampling are counted linearly
    in the number of elements they touch;
  * the `macs` column is `flops / 2`, which is the convention used by most
    published comparison tables for convolutional networks.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .blas import blas_threads, thread_limit
from .counting import current_counter, set_counter
from .tensor import Tensor, default_dtype, no_grad

CONVENTION_NOTE = (
    "flops: 1 MAC = 2 FLOPs for convolutions (+bias adds); "
    "norm/activation/pooling/resampling counted linearly; macs = flops / 2"
)


class FlopCounter:
    """Accumulates per-module flop counts while a forward pass runs."""

    def __init__(self, model):
        self._names = {id(m): name for name, m in model.named_modules()}
        self._stack: list[str] = []
        self.per_module: dict[str, int] = defaultdict(int)

    def enter(self, module) -> None:
        self._stack.append(self._names.get(id(module), "<external>"))

    def leave(self) -> None:
        self._stack.pop()

    def add(self, flops: int) -> None:
        name = self._stack[-1] if self._stack else ""
        self.per_module[name] += flops


@contextlib.contextmanager
def flop_counting(model):
    previous = current_counter()
    counter = FlopCounter(model)
    set_counter(counter)
    try:
        yield counter
    finally:
        set_counter(previous)


@dataclass
class ReportRow:
    module: str
    params: int = 0
    flops: int = 0

    @property
    def macs(self) -> float:
        return self.flops / 2


@dataclass
class LatencyStats:
    mean_ms: float
    p50_ms: float
    p95_ms: float
    fps: float
    samples: int
    threads: int | None = None  # BLAS threads read back while timing; None if unknown

    def to_text(self) -> str:
        threads = "unknown" if self.threads is None else self.threads
        return (
            f"mean {self.mean_ms:.2f} ms  p50 {self.p50_ms:.2f} ms  p95 {self.p95_ms:.2f} ms  "
            f"fps {self.fps:.2f}  ({self.samples} samples, BLAS threads {threads})"
        )


@dataclass
class AnalysisReport:
    rows: list[ReportRow] = field(default_factory=list)
    input_shape: tuple | None = None
    latency: LatencyStats | None = None

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    @property
    def total_macs(self) -> float:
        return self.total_flops / 2

    def to_text(self) -> str:
        lines = [f"# {CONVENTION_NOTE}"]
        if self.input_shape is not None:
            lines.append(f"# input shape: {tuple(self.input_shape)}")
        width = max([len("module")] + [len(r.module) for r in self.rows]) + 2
        lines.append(f"{'module':<{width}}{'params':>14}{'flops':>18}{'macs(G)':>12}")
        for row in self.rows:
            lines.append(
                f"{row.module:<{width}}{row.params:>14,}{row.flops:>18,}{row.macs / 1e9:>12.3f}"
            )
        lines.append(
            f"{'total':<{width}}{self.total_params:>14,}{self.total_flops:>18,}"
            f"{self.total_macs / 1e9:>12.3f}"
        )
        if self.latency is not None:
            lines.append(f"latency: {self.latency.to_text()}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["module,params,flops"]
        for row in self.rows:
            lines.append(f"{row.module},{row.params},{row.flops}")
        lines.append(f"total,{self.total_params},{self.total_flops}")
        return "\n".join(lines)


def _group(name: str) -> str:
    parts = name.split(".")
    if not parts or parts[0] == "":
        return "<root>"
    if parts[0] == "apf" and len(parts) > 1:
        return ".".join(parts[:2])
    return parts[0]


def count_params(model) -> AnalysisReport:
    """Exact element counts of every Parameter, grouped by module prefix."""
    groups: dict[str, int] = defaultdict(int)
    for name, p in model.named_parameters():
        groups[_group(name)] += p.size
    rows = [ReportRow(module=k, params=v) for k, v in sorted(groups.items())]
    return AnalysisReport(rows=rows)


def count_flops(model, input_shape) -> AnalysisReport:
    """Run one eval-mode forward at `input_shape`, recording per-op costs."""
    was_training = model.training
    model.eval()
    x = Tensor(np.zeros(input_shape, dtype=default_dtype()))
    try:
        with no_grad(), flop_counting(model) as counter:
            model(x)
    finally:
        model.train(was_training)
    params = {row.module: row.params for row in count_params(model).rows}
    flops: dict[str, int] = defaultdict(int)
    for name, f in counter.per_module.items():
        flops[_group(name)] += f
    rows = [
        ReportRow(module=k, params=params.get(k, 0), flops=flops.get(k, 0))
        for k in sorted(set(params) | set(flops))
    ]
    return AnalysisReport(rows=rows, input_shape=tuple(input_shape))


def benchmark_latency(
    model,
    input_shape,
    warmup: int = 3,
    iters: int = 10,
    seed: int = 0,
    threads: int = 1,
) -> LatencyStats:
    """Wall-clock forward latency in eval mode (no I/O, no grad recording)."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(input_shape).astype(default_dtype()))
    was_training = model.training
    model.eval()
    samples_ms: list[float] = []
    try:
        # untrained nets amplify activations without learned norm stats;
        # the values don't matter for timing, so silence overflow noise
        with thread_limit(threads), no_grad(), np.errstate(over="ignore", invalid="ignore"):
            threads_used = blas_threads()
            for _ in range(warmup):
                model(x)
            for _ in range(iters):
                start = time.perf_counter()
                model(x)
                samples_ms.append((time.perf_counter() - start) * 1000.0)
    finally:
        model.train(was_training)
    arr = np.asarray(samples_ms)
    mean = float(arr.mean())
    return LatencyStats(
        mean_ms=mean,
        p50_ms=float(np.percentile(arr, 50)),
        p95_ms=float(np.percentile(arr, 95)),
        fps=1000.0 / mean,
        samples=len(samples_ms),
        threads=threads_used,
    )
