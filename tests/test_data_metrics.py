"""Image I/O, dataset layout, palettes, and the confusion matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s2fpn.dataset import Palette, SegDataset, load_palette
from s2fpn.errors import DataError, ShapeError
from s2fpn.imageio import read_pgm, read_ppm, write_pgm, write_ppm
from s2fpn.metrics import ConfusionMatrix
from s2fpn.synthetic import make_toy_corpus


class TestImageIO:
    def test_ppm_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        again = read_ppm(path)
        assert np.array_equal(image, again)
        write_ppm(tmp_path / "img2.ppm", again)
        assert (tmp_path / "img.ppm").read_bytes() == (tmp_path / "img2.ppm").read_bytes()

    def test_pgm_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        label = rng.integers(0, 256, size=(9, 11), dtype=np.uint8)
        path = tmp_path / "lbl.pgm"
        write_pgm(path, label)
        assert np.array_equal(label, read_pgm(path))

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        pixels = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + pixels)
        image = read_pgm(path)
        assert image.shape == (2, 3)
        assert image.tobytes() == pixels

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(DataError, match="P6"):
            read_ppm(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(DataError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("reader,magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    @pytest.mark.parametrize("dims", [b"0 0", b"0 64", b"64 0"])
    def test_empty_image_rejected(self, tmp_path, reader, magic, dims):
        path = tmp_path / "empty.img"
        path.write_bytes(magic + b"\n" + dims + b"\n255\n")
        with pytest.raises(DataError, match="empty.img: empty image"):
            reader(path)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([read_ppm, read_pgm]),
        st.sampled_from([b"", b"P5", b"P6", b"P5\n", b"P6 1 1 255 ", b"P5\n2 2\n255\n"]),
        st.lists(st.sampled_from([b"#", b"\n", b" ", b"0", b"1", b"255", b"99999999"]), max_size=8),
        st.binary(max_size=24),
    )
    def test_only_data_error_escapes(self, tmp_path_factory, reader, magic, tokens, tail):
        path = tmp_path_factory.getbasetemp() / "fuzz.img"
        path.write_bytes(magic + b"".join(tokens) + tail)
        try:
            image = reader(path)
        except DataError:
            return
        assert image.dtype == np.uint8


class TestDataset:
    def test_toy_corpus_loads(self, tmp_path):
        root = make_toy_corpus(tmp_path / "corpus", n_train=3, n_val=1, height=16, width=24)
        ds = SegDataset(root)
        assert len(ds.split("train")) == 3
        image, label = ds.load(ds.split("train")[0])
        assert image.shape == (3, 16, 24)
        assert label.shape == (16, 24)
        assert image.dtype == np.float32 and 0.0 <= image.min() <= image.max() <= 1.0

    def test_missing_label_is_path_named_error(self, tmp_path):
        root = make_toy_corpus(tmp_path / "corpus", n_train=2, n_val=0, height=16, width=16)
        missing = root / "labels" / "train_001.pgm"
        missing.unlink()
        ds = SegDataset(root)
        with pytest.raises(DataError, match="train_001.pgm"):
            ds.load("train_001")

    def test_normalization_moments(self, tmp_path):
        root = make_toy_corpus(tmp_path / "corpus", n_train=2, n_val=0, height=16, width=16)
        ds = SegDataset(root)
        mean, std = ds.compute_normalization("train")
        stacked = np.concatenate(
            [ds.load(n)[0].reshape(3, -1) for n in ds.split("train")], axis=1
        )
        np.testing.assert_allclose(mean, stacked.mean(axis=1), atol=1e-5)
        np.testing.assert_allclose(std, stacked.std(axis=1), atol=1e-4)

    def test_constant_channel_std_is_floored(self, tmp_path):
        root = make_toy_corpus(tmp_path / "corpus", n_train=2, n_val=0, height=16, width=16)
        ds = SegDataset(root)
        one_colour = np.full((16, 16, 3), (10, 200, 90), np.uint8)
        for name in ds.split("train"):
            write_ppm(root / "images" / f"{name}.ppm", one_colour)
        _, std = ds.compute_normalization("train")
        assert std.tolist() == [np.float32(1e-3)] * 3


class TestPalette:
    def test_builtin_profiles(self):
        city = load_palette("cityscapes19")
        assert len(city) == 19
        assert city.names[0] == "Road"
        assert city.names[1] == "S.Walk"
        assert city.names[2] == "Build"
        camvid = load_palette("camvid11")
        assert len(camvid) == 11

    def test_ids_must_be_dense(self):
        with pytest.raises(DataError, match="dense"):
            Palette.parse("0 a 1 2 3\n2 b 4 5 6\n")

    @pytest.mark.parametrize("line", ["0 a 300 0 0", "0 a 0 -1 0", "256 a 0 0 0"])
    def test_out_of_range_values_rejected(self, line):
        with pytest.raises(DataError, match="0..255"):
            Palette.parse(line)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.none() | st.integers() | st.integers(0, 255),
                *[st.integers() | st.integers(0, 255)] * 3,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_only_data_error_escapes(self, rows):
        # None stands for the row's own index, so dense palettes occur too
        text = "\n".join(
            f"{i if cid is None else cid} c{i} {r} {g} {b}" for i, (cid, r, g, b) in enumerate(rows)
        )
        try:
            table = Palette.parse(text).color_map()
        except DataError:
            return
        assert table.shape == (256, 3)

    def test_file_palette_and_color_map(self, tmp_path):
        path = tmp_path / "p.palette"
        path.write_text("0 bg 0 0 0\n1 fg 255 128 0\n")
        palette = load_palette(str(path))
        table = palette.color_map()
        assert tuple(table[1]) == (255, 128, 0)


class TestConfusionMatrix:
    def test_hand_case(self):
        m = ConfusionMatrix(2)
        m.add(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
        iou = m.iou()
        assert iou[0] == pytest.approx(1 / 2)
        assert iou[1] == pytest.approx(2 / 3)
        assert m.mean_iou() == pytest.approx(7 / 12)

    def test_perfect_prediction(self):
        rng = np.random.default_rng(2)
        gt = rng.integers(0, 4, size=200)
        m = ConfusionMatrix(4)
        m.add(gt, gt)
        np.testing.assert_allclose(m.iou(), 1.0)
        assert m.mean_iou() == 1.0
        assert np.trace(m.counts) / m.counts.sum() == 1.0

    def test_disjoint_prediction(self):
        m = ConfusionMatrix(2)
        gt = np.zeros(10, dtype=np.int64)
        pred = np.ones(10, dtype=np.int64)
        m.add(pred, gt)
        assert m.iou()[0] == 0.0
        assert m.mean_iou() == 0.0

    def test_negative_label_rejected(self):
        m = ConfusionMatrix(3)
        with pytest.raises(DataError, match="out of range"):
            m.add(np.array([0, 1]), np.array([0, -1]))
        assert m.counts.sum() == 0

    def test_negative_prediction_rejected(self):
        # gt 1 with pred -1 would otherwise land in cell (0, 2)
        m = ConfusionMatrix(3)
        with pytest.raises(ShapeError, match="out of range"):
            m.add(np.array([0, -1]), np.array([0, 1]))
        assert m.counts.sum() == 0

    def test_ignore_label_excluded(self):
        m = ConfusionMatrix(2, ignore_index=255)
        gt = np.array([0, 1, 255, 255])
        pred = np.array([0, 0, 1, 0])
        m.add(pred, gt)
        assert m.counts.sum() == 2

    def test_accumulation_order_independent(self):
        rng = np.random.default_rng(3)
        preds = [rng.integers(0, 3, size=50) for _ in range(4)]
        gts = [rng.integers(0, 3, size=50) for _ in range(4)]
        a = ConfusionMatrix(3)
        for p, g in zip(preds, gts):
            a.add(p, g)
        b = ConfusionMatrix(3)
        for i in (2, 0, 3, 1):
            b.add(preds[i], gts[i])
        assert np.array_equal(a.counts, b.counts)

    def test_per_image_accumulation_equals_batch(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 3, size=(4, 8, 8))
        gt = rng.integers(0, 3, size=(4, 8, 8))
        a = ConfusionMatrix(3)
        a.add(pred, gt)
        b = ConfusionMatrix(3)
        for i in range(4):
            b.add(pred[i], gt[i])
        assert np.array_equal(a.counts, b.counts)
        assert a.mean_iou() == b.mean_iou()

    def test_class_absent_from_gt_excluded_from_mean(self):
        m = ConfusionMatrix(3)
        m.add(np.array([0, 0, 1]), np.array([0, 0, 1]))  # class 2 never in gt
        assert m.mean_iou() == 1.0

    def test_shape_mismatch_rejected(self):
        m = ConfusionMatrix(2)
        with pytest.raises(ShapeError):
            m.add(np.zeros(3), np.zeros(4))
