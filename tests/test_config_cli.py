"""Run-config parsing, trainer round-trips, and the command-line surface."""

import re
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s2fpn.blas import blas_threads
from s2fpn.cli import main
from s2fpn.config import _KEY_MAP, _RANGES, RunConfig, parse_config, parse_config_text
from s2fpn.dataset import SegDataset
from s2fpn.errors import CheckpointError, ConfigError, NumericCheckError
from s2fpn.imageio import read_pgm, write_pgm
from s2fpn.metrics import ConfusionMatrix
from s2fpn.model import S2FPN
from s2fpn.serialize import load_model, read_checkpoint, write_checkpoint
from s2fpn.synthetic import make_toy_corpus
from s2fpn.tensor import Tape
from s2fpn.trainer import Trainer, evaluate_model


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        cfg = parse_config_text(
            """
            # a comment
            backbone = r34
            lr = 1e-3
            ohem.threshold = 0.6
            scales = 1.0,2.0
            """
        )
        assert cfg.backbone == "r34"
        assert cfg.base_lr == 1e-3
        assert cfg.ohem_threshold == 0.6
        assert cfg.scales == (1.0, 2.0)
        assert cfg.weight_decay == 5e-6  # untouched default

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*'learning_rate'"):
            parse_config_text("backbone = r18\nlearning_rate = 0.1\n")

    def test_malformed_line_is_line_numbered(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("backbone r18\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="'epochs'"):
            parse_config_text("epochs = soon\n")

    def test_min_kept_derived_from_crop(self):
        cfg = parse_config_text("crop_h = 64\ncrop_w = 128\n")
        assert cfg.min_kept() == 64 * 128 // 16
        cfg2 = parse_config_text("ohem.min_kept = 10\n")
        assert cfg2.min_kept() == 10

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(_KEY_MAP)) | st.text(max_size=8),
                st.sampled_from(["=", " = ", "", "=="]),
                st.sampled_from(["0", "-1", "0.5", "1e999", "nan", "-inf", "1,2", "yes", ","])
                | st.text(max_size=8),
            ),
            max_size=6,
        )
    )
    def test_only_config_error_escapes(self, lines):
        text = "\n".join(key + sep + value for key, sep, value in lines)
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    def test_every_numeric_field_has_a_range(self):
        unranged = [
            name for name, kind in get_type_hints(RunConfig).items()
            if kind is not str and name not in _RANGES
        ]
        assert unranged == []

    def test_readme_key_table_matches_the_parser(self):
        documented = readme_key_table()
        assert sorted(documented) == sorted(_KEY_MAP)
        for key, text in documented.items():
            attr, converter = _KEY_MAP[key]
            assert converter(text) == getattr(RunConfig(), attr), key


def readme_key_table() -> dict[str, str]:
    """The README "Keys and defaults" table as config key -> documented
    default; a row may list several keys, with one default each or one
    shared default, and "—" stands for the empty string."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("Keys and defaults:"):].split("\n\n")[1]
    documented = {}
    for row in table.splitlines()[2:]:
        key_cell, default_cell, _ = row.strip().strip("|").split("|", 2)
        keys = re.findall(r"`([^`]+)`", key_cell)
        defaults = re.findall(r"`([^`]+)`", default_cell) or [""]
        if len(defaults) == 1:
            defaults *= len(keys)
        assert len(defaults) == len(keys), row
        documented.update(zip(keys, defaults))
    return documented


@pytest.fixture(scope="module")
def toy_setup(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy")
    root = make_toy_corpus(base / "corpus", n_train=4, n_val=2, height=64, width=64, num_classes=4)
    config = base / "run.cfg"
    config.write_text(
        f"""
        dataset = {root}
        backbone = r18
        pyramid_width = 32
        num_classes = 4
        palette = {base / 'toy.palette'}
        crop_h = 64
        crop_w = 64
        batch_size = 2
        epochs = 2
        scales = 1.0
        flip_prob = 0.0
        seed = 3
        checkpoint_every = 1
        out_dir = {base / 'run'}
        """
    )
    (base / "toy.palette").write_text(
        "0 a 10 10 10\n1 b 200 10 10\n2 c 10 200 10\n3 d 10 10 200\n"
    )
    assert main(["--config", str(config), "train"]) == 0
    return base, root, config


class TestTrainerRoundTrip:
    def test_resume_reproduces_next_loss(self, toy_setup, tmp_path):
        base, root, config = toy_setup
        cfg = parse_config(config)
        cfg.out_dir = str(tmp_path / "a")
        ds = SegDataset(root)
        straight = Trainer(cfg, ds)
        for it in range(3):
            _, losses_straight = straight.train_step(it)

        cfg.out_dir = str(tmp_path / "b")
        first = Trainer(cfg, ds)
        for it in range(2):
            first.train_step(it)
        ckpt = tmp_path / "mid.ckpt"
        first.save_checkpoint(ckpt, iteration=2)

        resumed = Trainer(cfg, ds)
        start = resumed.load_checkpoint(ckpt)
        assert start == 2
        _, losses_resumed = resumed.train_step(start)
        assert losses_resumed[0] == pytest.approx(losses_straight[0], abs=1e-12)

    def test_backward_starts_without_the_last_steps_gradients(
        self, toy_setup, tmp_path, monkeypatch
    ):
        base, root, config = toy_setup
        cfg = parse_config(config)
        cfg.out_dir = str(tmp_path / "run")
        trainer = Trainer(cfg, SegDataset(root))
        trainer.train_step(0)
        params = list(trainer.model.parameters())
        assert any(p.grad is not None for p in params)
        backward, alive = Tape.backward, []

        def spy(self, loss):
            alive.append(sum(p.grad is not None for p in params))
            return backward(self, loss)

        monkeypatch.setattr(Tape, "backward", spy)
        trainer.train_step(1)
        assert alive == [0], f"parameters still holding a gradient: {alive}"
        assert any(p.grad is not None for p in params)

    def test_resume_refuses_missing_adam_moment(self, toy_setup, tmp_path, capsys):
        base, root, config = toy_setup
        cfg = parse_config(config)
        cfg.out_dir = str(tmp_path / "run")
        ds = SegDataset(root)
        first = Trainer(cfg, ds)
        first.train_step(0)
        ckpt = tmp_path / "full.ckpt"
        first.save_checkpoint(ckpt, iteration=1)
        entries = read_checkpoint(ckpt)
        moment = next(name for name in entries if name.endswith(".v"))
        del entries[moment]
        partial = tmp_path / "partial.ckpt"
        write_checkpoint(partial, entries)

        resumed = Trainer(cfg, ds)
        before = [p.data.copy() for p in resumed.model.parameters()]
        with pytest.raises(CheckpointError, match=moment):
            resumed.load_checkpoint(partial)
        assert all(np.array_equal(p.data, b) for p, b in zip(resumed.model.parameters(), before))
        assert resumed.optimizer.step_count == 0
        assert resumed.start_iter == 0

        assert main(["--config", str(config), "train", "--resume", str(partial)]) == 2
        assert moment in capsys.readouterr().err


def _moment(entries, transposable=False):
    """The name of a first-moment entry; with `transposable`, one whose
    transpose has another shape."""
    return next(
        name
        for name, arr in entries.items()
        if name.endswith(".m") and arr.size > 1 and (not transposable or arr.shape[0] != arr.shape[1])
    )


def _short_moment(entries):
    name = _moment(entries)
    entries[name] = entries[name].reshape(-1)[:-1].copy()
    return name


def _transposed_moment(entries):
    name = _moment(entries, transposable=True)
    entries[name] = entries[name].transpose(1, 0, 2, 3).copy()
    return name


def _transposed_model_entry(entries):
    name = "apf.2.cam.excite_conv.weight"
    entries[name] = entries[name].transpose(1, 0, 2, 3).copy()
    return name


def _set(name, *values):
    def corrupt(entries):
        entries[name] = np.asarray(values, dtype=np.float64)
        return name

    return corrupt


@pytest.mark.parametrize(
    "corrupt, epochs",
    [
        (_short_moment, 2),
        (_transposed_moment, 2),
        (_set("optim.step", np.nan), 2),
        (_set("trainer.iter", np.nan), 2),
        (_set("trainer.iter", -5.0), 2),
        (_transposed_model_entry, 2),
        (_set("trainer.best_miou"), 2),
        (_set("trainer.best_miou", 0.5, 0.25), 2),
        (_set("trainer.best_miou", np.nan), 2),
        # the toy run's final.ckpt holds trainer.iter = 4, past a 1-epoch run's max_iter of 2
        (lambda entries: "trainer.iter", 1),
    ],
    ids=[
        "short-moment", "transposed-moment", "nan-step", "nan-iter", "negative-iter",
        "transposed-model-entry", "empty-best-miou", "two-best-miou", "nan-best-miou",
        "iter-past-max-iter",
    ],
)
def test_resume_refuses_malformed_optimizer_state(toy_setup, tmp_path, capsys, corrupt, epochs):
    base, root, config = toy_setup
    entries = read_checkpoint(base / "run" / "final.ckpt")
    name = corrupt(entries)
    bad = tmp_path / "bad.ckpt"
    write_checkpoint(bad, entries)
    run_config = tmp_path / "run.cfg"
    run_config.write_text(config.read_text().replace(str(base / "run"), str(tmp_path / "run"))
                          .replace("epochs = 2", f"epochs = {epochs}"))

    resumed = Trainer(parse_config(run_config), SegDataset(root))
    before = {k: v.copy() for k, v in resumed.model.state_dict().items()}
    with pytest.raises(CheckpointError, match=re.escape(name)) as err:
        resumed.load_checkpoint(bad)
    if epochs == 1:
        assert f"[0, {resumed.max_iter}]" in str(err.value)
    assert all(np.array_equal(v, before[k]) for k, v in resumed.model.state_dict().items())
    assert resumed.optimizer.step_count == 0 and resumed.start_iter == 0
    assert resumed.best_miou == -1.0
    assert not any(m.any() for m in resumed.optimizer._m)

    assert main(["--config", str(run_config), "train", "--resume", str(bad)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not (tmp_path / "run" / "final.ckpt").exists()


def _poison_inputs(monkeypatch):
    """Make every training batch NaN, so the loss is NaN from step 0."""
    real = Trainer.batch_for

    def batch_for(self, iteration):
        x, labels = real(self, iteration)
        x.data[...] = np.nan
        return x, labels

    monkeypatch.setattr(Trainer, "batch_for", batch_for)


class TestNonFiniteLoss:
    def test_step_raises_before_the_update(self, toy_setup, tmp_path, monkeypatch):
        base, root, config = toy_setup
        cfg = parse_config(config)
        cfg.out_dir = str(tmp_path / "nan")
        trainer = Trainer(cfg, SegDataset(root))
        trainer.train_step(0)
        params = list(trainer.model.parameters())
        before = [p.data.copy() for p in params]
        _poison_inputs(monkeypatch)
        with pytest.raises(NumericCheckError, match="iteration 1"):
            trainer.train_step(1)
        assert all(np.array_equal(p.data, b) for p, b in zip(params, before))
        assert trainer.optimizer.step_count == 1

    def test_cli_train_exits_3(self, toy_setup, tmp_path, monkeypatch, capsys):
        base, root, config = toy_setup
        text = config.read_text().replace(str(base / "run"), str(tmp_path / "nan"))
        nan_config = tmp_path / "nan.cfg"
        nan_config.write_text(text)
        _poison_inputs(monkeypatch)
        assert main(["--config", str(nan_config), "train"]) == 3
        assert "non-finite loss nan at iteration 0" in capsys.readouterr().err


class TestCliCommands:
    def test_train_writes_log_and_checkpoints(self, toy_setup):
        # the fixture already ran `train` through the CLI entry point
        base, root, config = toy_setup
        log = (base / "run" / "train.log").read_text()
        assert log.startswith("iter 0 lr ")
        assert "loss" in log and "aux" in log
        assert (base / "run" / "final.ckpt").exists()
        assert (base / "run" / "best.ckpt").exists()

    def test_eval_prints_table_and_csv(self, toy_setup, capsys, tmp_path):
        base, root, config = toy_setup
        csv_path = tmp_path / "iou.csv"
        code = main(
            ["--config", str(config), "eval", str(base / "run" / "final.ckpt"),
             "--split", "val", "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mIoU" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "class,iou"
        assert lines[-1].startswith("mIoU,")
        miou = float(lines[-1].split(",")[1])
        assert 0.0 <= miou <= 1.0

    def test_infer_outputs_and_pipeline_consistency(self, toy_setup, tmp_path):
        base, root, config = toy_setup
        ds = SegDataset(root)
        name = ds.split("val")[0]
        image_path = root / "images" / f"{name}.ppm"
        out_prefix = tmp_path / "pred"
        ckpt = base / "run" / "final.ckpt"
        code = main(
            ["--config", str(config), "infer", str(ckpt), str(image_path), str(out_prefix)]
        )
        assert code == 0
        pred = read_pgm(out_prefix.with_suffix(".pgm"))
        assert pred.max() < 4
        assert out_prefix.with_suffix(".ppm").exists()

        # byte-identical on a second run
        first_bytes = out_prefix.with_suffix(".pgm").read_bytes()
        main(["--config", str(config), "infer", str(ckpt), str(image_path), str(out_prefix)])
        assert out_prefix.with_suffix(".pgm").read_bytes() == first_bytes

        # same confusion counts as the evaluation path, on this image
        from types import SimpleNamespace

        from s2fpn.cli import _load_config
        from s2fpn.model import S2FPN
        from s2fpn.serialize import load_model

        cfg = _load_config(SimpleNamespace(config=str(config), seed=None))
        model = S2FPN.from_config(cfg)
        load_model(ckpt, model)
        _, label = ds.load(name)
        direct = ConfusionMatrix(4)
        direct.add(pred, label)

        single_root = tmp_path / "single"
        (single_root / "images").mkdir(parents=True)
        (single_root / "labels").mkdir()
        (single_root / "images" / f"{name}.ppm").write_bytes(image_path.read_bytes())
        (single_root / "labels" / f"{name}.pgm").write_bytes(
            (root / "labels" / f"{name}.pgm").read_bytes()
        )
        (single_root / "val.txt").write_text(name + "\n")
        via_eval = evaluate_model(model, SegDataset(single_root), "val")
        assert np.array_equal(direct.counts, via_eval.counts)

    def test_analyze_report(self, toy_setup, capsys, tmp_path):
        base, root, config = toy_setup
        csv_path = tmp_path / "report.csv"
        code = main(
            ["--config", str(config), "analyze", "--height", "64", "--width", "64",
             "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backbone" in out and "total" in out
        assert csv_path.read_text().startswith("module,params,flops")

    def test_analyze_latency_times_once_under_the_thread_cap(self, capsys):
        argv = ["--threads", "2", "analyze", "--height", "64", "--width", "128",
                "--latency", "--warmup", "0", "--iters", "1"]
        assert main(argv) == 0
        [line] = [line for line in capsys.readouterr().out.splitlines() if "latency" in line]
        assert line.startswith("latency: ")
        if blas_threads() is not None:
            assert line.endswith("BLAS threads 2)")

    def test_gradcheck_command(self, capsys):
        code = main(["gradcheck", "cam", "--seeds", "1"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_gradcheck_failure_exit_code(self, capsys):
        code = main(["gradcheck", "cam", "--seeds", "1", "--tolerance", "0"])
        assert code == 3

    def test_usage_error_exit_code(self):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1

    def test_invalid_config_key_exit_and_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        code = main(["--config", str(bad), "train"])
        assert code == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"dataset = {tmp_path / 'nowhere'}\n")
        assert main(["--config", str(cfg), "train"]) == 2

    def test_truncated_checkpoint_is_data_error(self, toy_setup, tmp_path, capsys):
        base, root, config = toy_setup
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((base / "run" / "final.ckpt").read_bytes()[:16])
        code = main(["--config", str(config), "eval", str(cut), "--split", "val"])
        assert code == 2
        assert "truncated" in capsys.readouterr().err

    def test_eval_refuses_missing_model_entry(self, toy_setup, tmp_path, capsys):
        base, root, config = toy_setup
        entries = read_checkpoint(base / "run" / "final.ckpt")
        del entries["head.classifier.weight"]
        partial = tmp_path / "partial.ckpt"
        write_checkpoint(partial, entries)
        code = main(["--config", str(config), "eval", str(partial), "--split", "val",
                     "--csv", str(tmp_path / "iou.csv")])
        assert code == 2
        assert "head.classifier.weight" in capsys.readouterr().err
        assert not (tmp_path / "iou.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_wrong_shaped_model_entry_is_checkpoint_error(self, toy_setup, tmp_path, capsys, command):
        base, root, config = toy_setup
        entries = read_checkpoint(base / "run" / "final.ckpt")
        name = _transposed_model_entry(entries)
        bad = str(tmp_path / "bad.ckpt")
        write_checkpoint(bad, entries)
        argv = {"eval": ["eval", bad, "--split", "val", "--csv", str(tmp_path / "iou.csv")],
                "infer": ["infer", bad, str(root / "images" / "val_001.ppm"), str(tmp_path / "pred")]}
        assert main(["--config", str(config), *argv[command]]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error: ") and name in err
        assert "(1, 4, 1, 1)" in err and "(4, 1, 1, 1)" in err
        assert "Traceback" not in out + err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.ckpt"]

    @pytest.mark.parametrize(
        "config, palette, argv, code, message",
        [
            *[
                pytest.param(f"{key} = {value}\n", None, ["train"], 1, f"error: {key}", id=f"{key}={value}")
                for key, value in [
                    ("batch_size", "0"), ("checkpoint_every", "0"), ("dropout", "1.5"),
                    ("seed", "-1"), ("num_classes", "0"), ("scales", "-1"), ("scales", "0"),
                    ("ignore_index", "256"), ("lr", "nan"), ("lr", "-1"), ("beta1", "1.5"),
                    ("beta2", "1"), ("adam_eps", "0"), ("weight_decay", "-3"),
                    ("aux_weight", "inf"), ("ohem.threshold", "-2"), ("power", "-1"),
                ]
            ],
            pytest.param("", "0 a 300 0 0\n", ["infer", "x.ckpt", "x.ppm", "out"], 2,
                         "data error: 0..255", id="palette-300"),
            pytest.param("", "0 a 0 -1 0\n", ["infer", "x.ckpt", "x.ppm", "out"], 2,
                         "data error: 0..255", id="palette-minus-1"),
            pytest.param("", None, ["analyze", "--batch", "0"], 1, "usage error: --batch",
                         id="analyze-batch-0"),
            pytest.param("", None, ["analyze", "--latency", "--iters", "0"], 1,
                         "usage error: --iters", id="analyze-iters-0"),
            *[
                pytest.param("", None, ["analyze", "--height", h, "--width", w], 1,
                             "usage error: --height/--width", id=f"analyze-{h}x{w}")
                for h, w in [("32", "32"), ("100", "128")]
            ],
            pytest.param("", None, ["gradcheck", "--seeds", "0"], 1, "usage error: --seeds",
                         id="gradcheck-seeds-0"),
            *[
                pytest.param("", None, ["gradcheck", "--tolerance", value], 1,
                             "usage error: --tolerance", id=f"gradcheck-tolerance-{value}")
                for value in ("nan", "inf", "-1")
            ],
            *[
                pytest.param("", None, ["infer", "x.ckpt", "x.ppm", "out", "--blend", value], 1,
                             "usage error: --blend", id=f"infer-blend-{value}")
                for value in ("nan", "1.5", "-0.1")
            ],
        ],
    )
    def test_malformed_input_is_typed_error(
        self, tmp_path, capsys, config, palette, argv, code, message
    ):
        # `message` is the package's prefix, then a fragment the message must name
        prefix, fragment = message.split(": ")
        if palette is not None:
            (tmp_path / "p.palette").write_text(palette)
            config += f"num_classes = 1\npalette = {tmp_path / 'p.palette'}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(["--config", str(cfg), *argv]) == code
        out, err = capsys.readouterr()
        assert err.startswith(prefix + ": ") and fragment in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_label_out_of_range_is_data_error(self, toy_setup, tmp_path, capsys, command):
        base, root, config = toy_setup
        corpus = make_toy_corpus(tmp_path / "corpus", n_train=2, n_val=1, height=64, width=64,
                                 num_classes=4)
        for path in (corpus / "labels").glob("*.pgm"):
            label = read_pgm(path)
            label[5, 7] = 9  # 4 classes, and 9 is not the ignore index
            write_pgm(path, label)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.read_text().replace(str(root), str(corpus))
                       .replace(str(base / "run"), str(tmp_path / "run")))
        argv = {"train": ["train"],
                "eval": ["eval", str(base / "run" / "final.ckpt"), "--split", "val",
                         "--csv", str(tmp_path / "iou.csv")]}[command]
        assert main(["--config", str(cfg), *argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error: ") and "label" in err and "9" in err
        assert "Traceback" not in out + err

    def test_run_ignore_index_reaches_evaluation(self, toy_setup, tmp_path):
        base, root, config = toy_setup
        corpus = make_toy_corpus(tmp_path / "corpus", n_train=2, n_val=1, height=64, width=64,
                                 num_classes=4)
        for path in (corpus / "labels").glob("*.pgm"):
            label = read_pgm(path)
            label[:8, :20] = 250
            write_pgm(path, label)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.read_text().replace(str(root), str(corpus))
                       .replace(str(base / "run"), str(tmp_path / "run")) + "ignore_index = 250\n")
        # with checkpoint_every = 1 each epoch ends in a val pass
        assert main(["--config", str(cfg), "train"]) == 0
        ckpt = tmp_path / "run" / "final.ckpt"
        assert main(["--config", str(cfg), "eval", str(ckpt), "--split", "val",
                     "--csv", str(tmp_path / "iou.csv")]) == 0
        model = S2FPN.from_config(parse_config(cfg))
        load_model(ckpt, model)
        matrix = evaluate_model(model, SegDataset(corpus), "val", 250)
        scored = sum(int((read_pgm(p) != 250).sum()) for p in (corpus / "labels").glob("val_*"))
        assert matrix.counts.sum() == scored

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_frame_of_wrong_size_is_data_error(self, toy_setup, tmp_path, capsys, command):
        base, root, config = toy_setup
        corpus = make_toy_corpus(tmp_path / "corpus", n_train=1, n_val=1, height=48, width=100,
                                 num_classes=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.read_text().replace(str(root), str(corpus)))
        ckpt = str(base / "run" / "final.ckpt")
        argv = {"eval": ["eval", ckpt, "--split", "val", "--csv", str(tmp_path / "iou.csv")],
                "infer": ["infer", ckpt, str(corpus / "images" / "val_001.ppm"),
                          str(tmp_path / "pred")]}[command]
        assert main(["--config", str(cfg), *argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error: ") and "(48, 100)" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_frame_the_seed_projection_cannot_halve_is_data_error(
        self, toy_setup, tmp_path, capsys, command
    ):
        # 32 divides (32, 64), but f5 would be 1x2 and the stride-2 seed
        # projection needs two pixels per side
        base, root, config = toy_setup
        corpus = make_toy_corpus(tmp_path / "corpus", n_train=1, n_val=1, height=32, width=64,
                                 num_classes=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.read_text().replace(str(root), str(corpus)))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        ckpt = str(base / "run" / "final.ckpt")
        argv = {"eval": ["eval", ckpt, "--split", "val", "--csv", str(out_dir / "iou.csv")],
                "infer": ["infer", ckpt, str(corpus / "images" / "val_001.ppm"),
                          str(out_dir / "pred")]}[command]
        assert main(["--config", str(cfg), *argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error: ") and "(32, 64)" in err
        assert "Traceback" not in out + err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "infer"])
    def test_empty_image_is_data_error(self, toy_setup, tmp_path, capsys, command):
        base, root, config = toy_setup
        corpus = make_toy_corpus(tmp_path / "corpus", n_train=2, n_val=1, height=64, width=64,
                                 num_classes=4)
        # train meets a 0x0 image/label pair; infer a 0-wide frame
        dims = {"train": b"0 0", "infer": b"0 64"}[command]
        empty = corpus / "images" / "train_000.ppm"
        empty.write_bytes(b"P6\n" + dims + b"\n255\n")
        (corpus / "labels" / "train_000.pgm").write_bytes(b"P5\n" + dims + b"\n255\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.read_text().replace(str(root), str(corpus))
                       .replace(str(base / "run"), str(tmp_path / "run"))
                       .replace("scales = 1.0", "scales = 0.75,1.5"))
        argv = {"train": ["train"],
                "infer": ["infer", str(base / "run" / "final.ckpt"), str(empty),
                          str(tmp_path / "pred")]}[command]
        assert main(["--config", str(cfg), *argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error: ") and "train_000.ppm: empty image" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("broken", ["config", "palette", "split"])
    def test_undecodable_text_file_is_refused(self, toy_setup, tmp_path, capsys, broken):
        base, root, config = toy_setup
        corpus = make_toy_corpus(tmp_path / "corpus", n_train=2, n_val=1, height=64, width=64,
                                 num_classes=4)
        palette = tmp_path / "toy.palette"
        palette.write_bytes((base / "toy.palette").read_bytes())
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.read_text().replace(str(root), str(corpus))
                       .replace(str(base / "run"), str(tmp_path / "run"))
                       .replace(str(base / "toy.palette"), str(palette)))
        # a 0xff byte is never valid UTF-8
        target = {"config": cfg, "palette": palette, "split": corpus / "train.txt"}[broken]
        target.write_bytes(target.read_bytes() + b"\xff\n")
        argv = {"config": ["train"], "split": ["train"],
                "palette": ["infer", str(base / "run" / "final.ckpt"),
                            str(corpus / "images" / "val_000.ppm"), str(tmp_path / "pred")]}[broken]
        code, prefix = (1, "error: ") if broken == "config" else (2, "data error: ")
        assert main(["--config", str(cfg), *argv]) == code
        out, err = capsys.readouterr()
        assert err.startswith(prefix) and str(target) in err
        assert "Traceback" not in out + err

    def test_crop_the_backbone_cannot_divide_is_refused_first(self, toy_setup, tmp_path, capsys):
        base, root, config = toy_setup
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.read_text().replace("crop_h = 64", "crop_h = 50")
                       .replace(str(base / "run"), str(tmp_path / "run")))
        assert main(["--config", str(cfg), "train"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "crop_h" in err and "(50, 64)" in err and "32" in err
        assert "Traceback" not in out + err
        assert not (tmp_path / "run").exists()

    def test_crop_the_seed_projection_cannot_halve_is_refused_first(
        self, toy_setup, tmp_path, capsys
    ):
        base, root, config = toy_setup
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.read_text().replace("crop_h = 64", "crop_h = 32")
                       .replace(str(base / "run"), str(tmp_path / "run")))
        assert main(["--config", str(cfg), "train"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "crop_h" in err and "(32, 64)" in err
        assert "Traceback" not in out + err
        assert not (tmp_path / "run").exists()

    def test_infer_appends_the_suffixes_to_the_prefix(self, toy_setup, tmp_path):
        base, root, config = toy_setup
        image = root / "images" / f"{SegDataset(root).split('val')[0]}.ppm"
        out_dir = tmp_path / "runs.v2"
        out_dir.mkdir()
        for frame in ("frame.001", "frame.002"):
            argv = ["infer", str(base / "run" / "final.ckpt"), str(image), str(out_dir / frame)]
            assert main(["--config", str(config), *argv]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "frame.001.pgm", "frame.001.ppm", "frame.002.pgm", "frame.002.ppm"
        ]

    def test_console_script_entry(self):
        result = subprocess.run(
            [sys.executable, "-m", "s2fpn.cli", "gradcheck", "ssam", "--seeds", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "ssam" in result.stdout
