"""Run one workload in this process and print its result as the last line.

`run.py` imports this module after pinning BLAS to one thread and putting
`src` on the import path; see `perfbench/README.md` for the metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import machine
from tracer import OP_GROUPS, STEP_SPAN, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 3
WINDOW_S = 1.0  # throughput is the median over windows of at least this much op time

# Gated times are minima, of the ops and of the set-ups of the run: on a
# shared host the op latency distribution shifts by 30-40 % over minutes
# with the host's load, which moves medians but hardly the minimum (noise
# only adds time; Chen & Revels, "Robust benchmarking in noisy
# environments", arXiv:1608.04295).
END_TO_END_UNITS = {
    "frame_ms.min": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# the same run's median-based figures, reported ungated from the untraced
# half of the traced run
LATENCY_UNITS = {
    "frames_per_s": "frames/s",
    "steps_per_s": "steps/s",
    "frame_ms.p50": "ms",
    "frame_ms.p90": "ms",
    "step_ms.p50": "ms",
}

PER_LAYER_UNITS = {
    **LATENCY_UNITS,
    **{f"ops.{op}.fwd_ms": "ms" for op in OP_GROUPS},
    **{f"ops.{op}.bwd_ms": "ms" for op in OP_GROUPS},
    "ops.conv2d.calls": "count",
    "ops.conv2d.gflop": "GFLOP",
    "ops.conv2d.gflops_per_s": "GFLOP/s",
    "ops.conv2d.roofline_frac": "frac",
    "ops.calls": "count",
    "ops.gflop": "GFLOP",
    "tensor.tape.records": "count",
    "tensor.tape.retained_kib_per_px": "KiB/px",
    "tensor.tape.peak_mib": "MiB",
    "tensor.backward.self_ms": "ms",
    "backbone.fwd_ms": "ms",
    "pyramid.fwd_ms": "ms",
    "pyramid.projection.fwd_ms": "ms",
    "attention.strip.fwd_ms": "ms",
    "attention.channel.fwd_ms": "ms",
    "decoder.fwd_ms": "ms",
    "nn.glue_ms": "ms",
    "trainer.phase.data_ms": "ms",
    "trainer.phase.fwd_loss_ms": "ms",
    "trainer.phase.bwd_ms": "ms",
    "trainer.phase.optim_ms": "ms",
    "losses.total_loss.fwd_ms": "ms",
    "optim.adam.step_ms": "ms",
    "augment.ms": "ms",
    "dataset.load_ms": "ms",
    "imageio.read_ms": "ms",
    "metrics.confusion_add_ms": "ms",
    "serialize.write_ms": "ms",
    "serialize.read_ms": "ms",
    "serialize.ckpt_mib": "MiB",
    "machine.sgemm_gflops_1t": "GFLOP/s",
    "machine.blas_threads": "count",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
    **{f"variants.{v}.params_m": "Mparams" for v in ("r18", "r34", "r34m")},
    **{
        f"variants.{v}.{res}.gflop": "GFLOP"
        for v in ("r18", "r34", "r34m")
        for res in ("256x512", "512x1024")
    },
}


def timed_loop(workload, seconds: float, inject: bool):
    """Closed loop for `seconds` of wall time (at least one chunk)."""
    ops, busy = [], 0.0
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        chunk_busy, chunk_ops = workload.chunk(inject and not ops)
        busy += chunk_busy
        ops.extend(chunk_ops)
    return ops, busy


def count_failed(ops, bad_keys) -> int:
    return sum(1 for _, key, ok in ops if not ok or key in bad_keys)


def throughput(latencies: list[float], frames_per_op: int) -> float:
    """Median frames/s over consecutive windows of at least WINDOW_S of op time."""
    rates, count, spent = [], 0, 0.0
    for latency in latencies:
        count += 1
        spent += latency
        if spent >= WINDOW_S:
            rates.append(count * frames_per_op / spent)
            count, spent = 0, 0.0
    if not rates:
        rates.append(count * frames_per_op / spent)
    return statistics.median(rates)


def end_to_end(ops, setup_times, frames_per_op: int) -> dict[str, float]:
    return {
        "frame_ms.min": min(op[0] for op in ops) * 1000.0 / frames_per_op,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": min(setup_times),
    }


def latency_summary(ops, frames_per_op: int) -> dict[str, float]:
    latencies = [op[0] for op in ops]
    step_ms = np.asarray(latencies) * 1000.0
    fps = throughput(latencies, frames_per_op)
    return {
        "frames_per_s": fps,
        "steps_per_s": fps / frames_per_op,
        "frame_ms.p50": float(np.percentile(step_ms, 50)) / frames_per_op,
        "frame_ms.p90": float(np.percentile(step_ms, 90)) / frames_per_op,
        "step_ms.p50": float(np.percentile(step_ms, 50)),
    }


def variant_table() -> dict[str, float]:
    """Parameter and FLOP counts of each backbone variant (counts only)."""
    from s2fpn.analysis import count_flops, count_params
    from s2fpn.model import S2FPN

    table = {}
    for variant in ("r18", "r34", "r34m"):
        model = S2FPN(variant, 320, 19, seed=0)
        table[f"variants.{variant}.params_m"] = count_params(model).total_params / 1e6
        for h, w in ((256, 512), (512, 1024)):
            report = count_flops(model, (1, 3, h, w))
            table[f"variants.{variant}.{h}x{w}.gflop"] = report.total_flops / 1e9
    return table


def per_layer(tr: Tracer, n_ops: int, busy: float, untraced, traced, sgemm: float,
              probe, round_trip, pixels: int, failed_frac: float, threads: int) -> dict:
    per_op_ms = 1000.0 / n_ops
    conv_s = tr.self_s["ops.conv2d.fwd"]
    conv_rate = tr.flops["conv2d"] / conv_s / 1e9 if conv_s else 0.0
    retained, peak = probe
    write_s, read_s, ckpt_mib = round_trip
    under = tr.under_s
    metrics = {}
    for op in OP_GROUPS:
        metrics[f"ops.{op}.fwd_ms"] = tr.self_s[f"ops.{op}.fwd"] * per_op_ms
        metrics[f"ops.{op}.bwd_ms"] = tr.self_s[f"ops.{op}.bwd"] * per_op_ms
    metrics.update({
        "ops.conv2d.calls": tr.calls["ops.conv2d.fwd"] / n_ops,
        "ops.conv2d.gflop": tr.flops["conv2d"] / n_ops / 1e9,
        "ops.conv2d.gflops_per_s": conv_rate,
        "ops.conv2d.roofline_frac": conv_rate / sgemm,
        "ops.calls": sum(tr.calls[f"ops.{op}.fwd"] for op in OP_GROUPS) / n_ops,
        "ops.gflop": sum(tr.flops.values()) / n_ops / 1e9,
        "tensor.tape.records": tr.tape_records / n_ops,
        "tensor.tape.retained_kib_per_px": retained / 1024.0 / pixels,
        "tensor.tape.peak_mib": peak / 2**20,
        "tensor.backward.self_ms": tr.self_s["tensor.backward"] * per_op_ms,
        "backbone.fwd_ms": tr.incl_s["backbone"] * per_op_ms,
        "pyramid.fwd_ms": tr.incl_s["pyramid"] * per_op_ms,
        "pyramid.projection.fwd_ms": tr.incl_s["pyramid.projection"] * per_op_ms,
        "attention.strip.fwd_ms": tr.incl_s["attention.strip"] * per_op_ms,
        "attention.channel.fwd_ms": tr.incl_s["attention.channel"] * per_op_ms,
        "decoder.fwd_ms": tr.incl_s["decoder"] * per_op_ms,
        "nn.glue_ms": tr.glue_s * per_op_ms,
        "trainer.phase.data_ms": under[(STEP_SPAN, "trainer.data")] * per_op_ms,
        "trainer.phase.fwd_loss_ms": (
            under[(STEP_SPAN, "nn.model")] + under[(STEP_SPAN, "losses.total_loss")]
        ) * per_op_ms,
        "trainer.phase.bwd_ms": under[(STEP_SPAN, "tensor.backward")] * per_op_ms,
        "trainer.phase.optim_ms": (
            under[(STEP_SPAN, "optim.adam.step")] + under[(STEP_SPAN, "optim.adam.zero_grad")]
        ) * per_op_ms,
        "losses.total_loss.fwd_ms": tr.incl_s["losses.total_loss"] * per_op_ms,
        "optim.adam.step_ms": tr.incl_s["optim.adam.step"] * per_op_ms,
        "augment.ms": tr.incl_s["augment"] * per_op_ms,
        "dataset.load_ms": tr.incl_s["dataset.load"] * per_op_ms,
        "imageio.read_ms": tr.incl_s["imageio.read"] * per_op_ms,
        "metrics.confusion_add_ms": tr.incl_s["metrics.confusion_add"] * per_op_ms,
        "serialize.write_ms": write_s * 1000.0,
        "serialize.read_ms": read_s * 1000.0,
        "serialize.ckpt_mib": ckpt_mib,
        "machine.sgemm_gflops_1t": sgemm,
        "machine.blas_threads": threads,
        "trace.coverage_frac": tr.attributed_s / busy,
        "trace.overhead_frac": min(op[0] for op in traced) / min(op[0] for op in untraced) - 1.0,
        "failed_frac": failed_frac,
    })
    return metrics


def run(args, work: Path, threads: int) -> dict:
    setup_times = []
    # only an untraced full-size run reports setup_s
    for _ in range(1 if args.trace or args.size == "tiny" else SETUP_REPEATS):
        # free the previous set-up first, so the peak RSS never holds two
        workload = None
        gc.collect()
        workload = WORKLOADS[args.workload](args.seed, work, tiny=args.size == "tiny")
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    inject = bool(args.inject_nonfinite)
    if not args.trace:
        ops, _ = timed_loop(workload, args.seconds, inject)
        metrics = end_to_end(ops, setup_times, workload.frames_per_op)
        failed = count_failed(ops, workload.finish())
        units = END_TO_END_UNITS
    else:
        sgemm = machine.sgemm_gflops()
        half = args.seconds / 2.0
        untraced, _ = timed_loop(workload, half, inject)
        with Tracer().install(workload.model) as tr:
            traced, busy = timed_loop(workload, half, False)
        probe = workload.probe()
        with Tracer().install(workload.model) as rt:
            ckpt_mib = workload.round_trip()
        round_trip = (rt.incl_s["serialize.write"], rt.incl_s["serialize.read"], ckpt_mib)
        ops = untraced + traced
        failed = count_failed(ops, workload.finish())
        metrics = per_layer(
            tr, len(traced), busy, untraced, traced, sgemm, probe, round_trip,
            workload.pixels, failed / len(ops), threads,
        )
        metrics.update(latency_summary(untraced, workload.frames_per_op))
        metrics.update(variant_table())
        units = PER_LAYER_UNITS
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(args) -> int:
    threads = machine.blas_threads()
    if threads != 1:
        print(f"perfbench: OpenBLAS reports {threads} threads, not 1; refusing to report",
              file=sys.stderr)
        return 3
    print("perfbench machine: " + json.dumps(machine.describe()), file=sys.stderr)
    work = Path(".bench_work") / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work, threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0

