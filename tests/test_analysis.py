"""Parameter/FLOP accounting and the latency benchmark."""

import numpy as np
import pytest

from s2fpn import Tensor, no_grad
from s2fpn.analysis import (
    ReportRow,
    benchmark_latency,
    count_flops,
    count_params,
    flop_counting,
)
from s2fpn.backbone import build_backbone
from s2fpn.blas import blas_threads, thread_limit
from s2fpn.model import S2FPN
from s2fpn.nn import Conv2d, Module
from s2fpn.serialize import read_checkpoint, write_checkpoint


class OneConv(Module):
    def __init__(self, cin, cout, k, bias):
        super().__init__()
        self.conv = Conv2d(cin, cout, k, bias=bias)
        self.assign_parameter_names()

    def forward(self, x):
        return self.conv(x)


def test_conv_param_closed_form():
    net = OneConv(16, 32, 3, bias=True)
    assert count_params(net).total_params == 32 * 16 * 9 + 32


def test_conv_flop_closed_form():
    net = OneConv(64, 64, 1, bias=False)
    report = count_flops(net, (1, 64, 8, 8))
    assert report.total_flops == 2 * 64 * 8 * 8 * 64


def test_totals_equal_sum_of_rows():
    model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
    report = count_flops(model, (1, 3, 64, 64))
    assert report.total_params == sum(r.params for r in report.rows)
    assert report.total_flops == sum(r.flops for r in report.rows)
    assert report.total_macs == report.total_flops / 2


def test_flops_exactly_linear_in_batch():
    model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
    one = count_flops(model, (1, 3, 64, 64)).total_flops
    two = count_flops(model, (2, 3, 64, 64)).total_flops
    assert two == 2 * one


def test_param_count_matches_checkpoint_elements(tmp_path):
    model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, model.state_dict())
    entries = read_checkpoint(path)
    param_names = {name for name, _ in model.named_parameters()}
    serialized = sum(arr.size for name, arr in entries.items() if name in param_names)
    assert count_params(model).total_params == serialized
    assert param_names <= set(entries)


def test_r34_and_r34m_flops_differ_only_from_modified_stage():
    x = Tensor(np.zeros((1, 3, 64, 128), dtype=np.float32))
    per_module = {}
    for variant in ("r34", "r34m"):
        bb = build_backbone(variant).eval()
        with no_grad(), flop_counting(bb) as counter:
            bb(x)
        per_module[variant] = dict(counter.per_module)
    a, b = per_module["r34"], per_module["r34m"]
    # the root "" holds the stem's relu and max-pool
    same = [k for k in a if k == "" or k.startswith(("stem_conv", "stem_bn", "layer1"))]
    changed = [k for k in a if k.startswith(("layer2", "layer3", "layer4"))]
    assert same and changed
    for k in same:
        assert a[k] == b[k], k
    assert sum(b[k] for k in changed) > 3.5 * sum(a[k] for k in changed)


def test_r34_r34m_param_reports_identical():
    pa = count_params(S2FPN("r34", 64, 5, seed=0))
    pb = count_params(S2FPN("r34m", 64, 5, seed=0))
    assert [(r.module, r.params) for r in pa.rows] == [(r.module, r.params) for r in pb.rows]


def test_report_renders_text_and_csv():
    model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
    report = count_flops(model, (1, 3, 64, 64))
    text = report.to_text()
    assert "MAC" in text and "backbone" in text and "total" in text
    csv = report.to_csv()
    header, *rows = csv.splitlines()
    assert header == "module,params,flops"
    assert rows[-1].startswith("total,")


def test_latency_reports_requested_samples():
    model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
    stats = benchmark_latency(model, (1, 3, 64, 64), warmup=1, iters=4, seed=0)
    assert stats.samples == 4
    assert stats.mean_ms > 0
    assert stats.fps == pytest.approx(1000.0 / stats.mean_ms)
    assert stats.p50_ms <= stats.p95_ms


def test_thread_limit_reads_back_one_and_restores():
    before = blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS found in this process")
    with thread_limit(1):
        assert blas_threads() == 1
    assert blas_threads() == before


def test_latency_report_states_threads_read_back():
    if blas_threads() is None:
        pytest.skip("no OpenBLAS found in this process")
    model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
    stats = benchmark_latency(model, (1, 3, 64, 64), warmup=0, iters=1, seed=0, threads=1)
    assert stats.threads == 1
    assert "BLAS threads 1" in stats.to_text()


def test_latency_non_increasing_with_area():
    model = S2FPN("r18", pyramid_width=64, num_classes=5, seed=0)
    fps = [
        benchmark_latency(model, (1, 3, size, size), warmup=1, iters=3, seed=0).fps
        for size in (64, 128, 256)
    ]
    assert fps[0] > fps[1] > fps[2]
