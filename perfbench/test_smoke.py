"""Smoke test of the benchmark itself: each workload at a tiny size for a
couple of ops, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Run from the root of a checkout; about two minutes on one core, most of it
the traced runs' FLOP counts of every backbone variant at full resolution.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*flags, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *flags],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def tiny_run(workload, trace, inject=0):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--size", "tiny", "--inject-nonfinite", str(inject),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    result = tiny_run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if trace:
        assert values["machine.blas_threads"] == 1
        assert values["trace.coverage_frac"] >= 0.9
        assert values["ops.conv2d.fwd_ms"] > 0
        if workload.startswith("eval"):
            assert values["tensor.tape.records"] == 0
            assert all(v == 0 for name, v in values.items() if name.endswith(".bwd_ms"))
        else:
            assert values["tensor.tape.records"] > 0
            assert values["ops.conv2d.bwd_ms"] > 0
    else:
        assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_nonfinite_output_is_counted_as_failed(workload):
    result = tiny_run(workload, 0, inject=1)
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_refuses_without_the_package():
    bare = ROOT / ".bench_work" / f"smoke-bare-{os.getpid()}"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    assert done.returncode != 0
    assert done.stdout.strip() == ""
