"""Checkpoint format round-trips and name-matched loading."""

import errno
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s2fpn import serialize
from s2fpn.errors import CheckpointError
from s2fpn.nn import BatchNorm2d, Conv2d, Module
from s2fpn.optim import Adam
from s2fpn.serialize import MAGIC, load_model, read_checkpoint, write_checkpoint
from s2fpn.tensor import using_dtype


class SmallNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv = Conv2d(3, 4, 3, rng=rng)
        self.bn = BatchNorm2d(4)
        self.assign_parameter_names()

    def forward(self, x):
        return self.bn(self.conv(x))


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    entries = {
        "a.weight": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
        "b.bias": rng.standard_normal(7).astype(np.float64),
        "scalar": np.float32(0.5).reshape(()),
    }
    path = tmp_path / "test.ckpt"
    write_checkpoint(path, entries)
    loaded = read_checkpoint(path)
    assert set(loaded) == set(entries)
    for name, arr in entries.items():
        stored = loaded[name]
        assert stored.size == arr.size
        assert np.array_equal(stored.reshape(arr.shape), arr)
        assert stored.dtype == arr.dtype


def test_magic_and_reject_garbage(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path, {"w": np.zeros(3, dtype=np.float32)})
    assert path.read_bytes().startswith(MAGIC)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(bad)


@pytest.mark.parametrize("keep", [12, 16, 20, 40])
def test_truncated_manifest_raises_checkpoint_error(tmp_path, keep):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path, {"layer.weight": np.zeros((2, 3), dtype=np.float32)})
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(cut)


def test_model_round_trip_identical_forward(tmp_path):
    from s2fpn import Tensor, no_grad

    net = SmallNet(seed=1)
    x = Tensor(np.random.default_rng(2).standard_normal((1, 3, 6, 6)).astype(np.float32))
    net.train()
    with no_grad():
        net(x)  # move running stats off their defaults
    net.eval()
    with no_grad():
        before = net(x).data.copy()
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, net.state_dict())
    other = SmallNet(seed=99)
    loaded, unexpected = load_model(path, other)
    assert not unexpected
    other.eval()
    with no_grad():
        after = other(x).data
    assert np.array_equal(before, after)


def test_missing_entry_reported(tmp_path):
    net = SmallNet()
    entries = dict(net.state_dict())
    del entries["bn.gamma"]
    path = tmp_path / "partial.ckpt"
    write_checkpoint(path, entries)
    # load_model refuses the file, naming the entry, and copies nothing
    target = SmallNet(seed=5)
    before = {name: arr.copy() for name, arr in target.state_dict().items()}
    with pytest.raises(CheckpointError, match="bn.gamma"):
        load_model(path, target)
    assert all(np.array_equal(arr, before[name]) for name, arr in target.state_dict().items())
    # a partial import stays possible through load_state_dict
    _, missing, unexpected = target.load_state_dict(read_checkpoint(path))
    assert missing == ["bn.gamma"]
    assert unexpected == []


def test_extra_entry_reported_not_fatal(tmp_path):
    net = SmallNet()
    path = tmp_path / "extra.ckpt"
    write_checkpoint(path, {**net.state_dict(), "optim.step": np.asarray([3.0])})
    _, unexpected = load_model(path, SmallNet(seed=5))
    assert unexpected == ["optim.step"]


def test_shape_mismatch_names_tensor(tmp_path):
    net = SmallNet()
    entries = dict(net.state_dict())
    entries["conv.weight"] = entries["conv.weight"].transpose(1, 0, 2, 3).copy()
    path = tmp_path / "bad_shape.ckpt"
    write_checkpoint(path, entries)
    with pytest.raises(CheckpointError) as err:
        load_model(path, SmallNet(seed=5))
    message = str(err.value)
    assert "conv.weight" in message
    assert "(3, 4, 3, 3)" in message and "(4, 3, 3, 3)" in message


def test_strict_load_with_an_unexpected_name_copies_nothing():
    source, target = SmallNet(seed=1), SmallNet(seed=5)
    before = {name: arr.copy() for name, arr in target.state_dict().items()}
    state = {**source.state_dict(), "extra": np.zeros(1)}
    with pytest.raises(CheckpointError, match="extra"):
        target.load_state_dict(state, strict=True)
    assert all(np.array_equal(arr, before[name]) for name, arr in target.state_dict().items())


def test_float32_state_loads_into_a_float64_model_as_its_cast():
    source = SmallNet(seed=1)
    with using_dtype(np.float64):
        target = SmallNet(seed=5)
    loaded, missing, unexpected = target.load_state_dict(source.state_dict(), strict=True)
    assert len(loaded) == len(source.state_dict()) and not missing and not unexpected
    for name, arr in target.state_dict().items():
        assert arr.dtype == np.float64
        assert np.array_equal(arr, source.state_dict()[name].astype(np.float64))


def test_restore_checks_names_then_counts_then_shapes():
    target = np.zeros((2, 3))
    good = {"w": np.ones((1, 1, 2, 3)), "step": np.asarray([4.0])}
    cases = [
        ({"w": np.ones((3, 2)), "step": np.asarray([np.nan])}, "lacks 1 entries: n"),
        ({"w": np.ones((3, 2)), "step": np.asarray([np.nan]), "n": 0.5}, "'step'"),
        ({"w": np.ones((3, 2)), "step": np.asarray([5.0]), "n": 0.5}, r"'step' must hold .* \[0, 4\]"),
        ({"w": np.ones((3, 2)), "step": np.asarray([4.0]), "n": 1.5}, r"'n' must hold .* \[-1, 1\]"),
        ({"w": np.ones((3, 2)), "step": np.asarray([4.0]), "n": 0.5}, r"'w'.*\(3, 2\).*\(2, 3\)"),
    ]
    for entries, message in cases:
        with pytest.raises(CheckpointError, match=message):
            serialize.restore("f", entries, {"w": target}, {"step": 4}, {"n": (-1, 1)})
        assert not target.any()
    values = serialize.restore("f", {**good, "n": np.asarray([-1.0])}, {"w": target},
                               {"step": 4}, {"n": (-1, 1)})
    assert values == {"step": 4, "n": -1.0} and isinstance(values["step"], int)
    assert np.array_equal(target, np.ones((2, 3)))


def test_low_rank_entries_pad_to_4d(tmp_path):
    path = tmp_path / "pad.ckpt"
    write_checkpoint(path, {"v": np.arange(5, dtype=np.float32)})
    loaded = read_checkpoint(path)
    assert loaded["v"].shape == (1, 1, 1, 5)


def test_truncated_data_section_raises_checkpoint_error(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path, {"a": np.ones(8, dtype=np.float32), "b": np.ones(8, dtype=np.float32)})
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError, match="'b' is truncated"):
        read_checkpoint(cut)


def test_corrupt_shape_is_refused_before_allocating(tmp_path):
    path = tmp_path / "x.ckpt"
    write_checkpoint(path, {"w": np.ones(4, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    shape_at = len(MAGIC) + 4 + 2 + 1 + 1  # count, name_len, name "w", dtype
    raw[shape_at : shape_at + 16] = struct.pack("<4I", *(4_000_000_000,) * 4)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 120),
    st.lists(st.tuples(st.integers(0, 119), st.integers(0, 255)), max_size=4),
    st.lists(st.sampled_from([0, 1, 2, 0xFF, 0xFFFFFFFF]), min_size=4, max_size=4),
)
def test_only_checkpoint_error_escapes(tmp_path_factory, keep, flips, shape):
    # a valid two-entry file, cut short, with bytes overwritten and with the
    # first entry's shape replaced by extreme dims
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    write_checkpoint(path, {"w": np.ones(4, dtype=np.float32), "b": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    shape_at = len(MAGIC) + 4 + 2 + 1 + 1  # count, name_len, name "w", dtype
    raw[shape_at : shape_at + 16] = struct.pack("<4I", *shape)
    for at, value in flips:
        raw[at % len(raw)] = value
    path.write_bytes(bytes(raw[:keep]) if keep < len(raw) else bytes(raw))
    try:
        entries = read_checkpoint(path)
    except CheckpointError:
        return
    assert all(arr.ndim == 4 for arr in entries.values())


def test_read_peak_memory_is_the_arrays(tmp_path):
    # entries are read straight into their own arrays: no whole-file buffer
    # and no per-entry copies
    rng = np.random.default_rng(0)
    path = tmp_path / "big.ckpt"
    write_checkpoint(
        path, {f"e{i}": rng.standard_normal((512, 512)).astype(np.float32) for i in range(16)}
    )
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = read_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 16
    assert peak <= 1.1 * size + 2**20, f"peak {peak} bytes for a {size}-byte file"


class TrainerState(Module):
    """A model with a megabyte of weights, so the fixed cost of reading a
    manifest is small against its state."""

    def __init__(self):
        super().__init__()
        self.conv = Conv2d(128, 128, 3, rng=np.random.default_rng(0))
        self.bn = BatchNorm2d(128)
        self.assign_parameter_names()


def write_trainer_checkpoint(path, model):
    """What `Trainer.save_checkpoint` writes: the model, the Adam step and
    moments (twice the parameters' bytes) and the trainer counters."""
    entries = {**model.state_dict(), **dict(Adam(model.parameters()).state_entries())}
    entries["trainer.iter"] = np.asarray([2.0])
    entries["trainer.best_miou"] = np.asarray([-1.0])
    write_checkpoint(path, entries)
    return entries


def test_load_model_reads_only_the_model(tmp_path):
    path = tmp_path / "final.ckpt"
    model = TrainerState()
    entries = write_trainer_checkpoint(path, model)
    state_bytes = sum(arr.nbytes for arr in model.state_dict().values())
    target = TrainerState()
    tracemalloc.start()
    try:
        loaded, unexpected = load_model(path, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * state_bytes, f"peak {peak} bytes for {state_bytes} bytes of state"
    # the optimizer and trainer entries are skipped, yet still reported
    assert unexpected == [name for name in entries if name not in loaded]
    assert any(name.startswith("optim.") for name in unexpected)
    assert all(np.array_equal(target.state_dict()[name], model.state_dict()[name]) for name in loaded)


def test_skipped_entries_are_still_checked_against_the_file_size(tmp_path):
    path = tmp_path / "final.ckpt"
    write_trainer_checkpoint(path, TrainerState())
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(path.read_bytes()[:-4])  # into trainer.best_miou, which is skipped
    with pytest.raises(CheckpointError, match="trainer.best_miou"):
        load_model(cut, TrainerState())
    entries = read_checkpoint(path, ["conv.weight"])
    assert entries["conv.weight"].shape == (128, 128, 3, 3)
    assert all(arr is None for name, arr in entries.items() if name != "conv.weight")


class _FullDisk:
    """File wrapper that fails with ENOSPC once `budget` bytes are written."""

    def __init__(self, fh, budget):
        self.fh = fh
        self.budget = budget

    def write(self, data):
        view = memoryview(data).cast("B")
        if len(view) > self.budget:
            self.fh.write(view[: self.budget])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(view)
        return self.fh.write(view)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "last.ckpt"
    write_checkpoint(path, {"w": np.arange(1000, dtype=np.float32)})
    before = path.read_bytes()
    monkeypatch.setattr(
        serialize, "open", lambda file, mode: _FullDisk(open(file, mode), 100), raising=False
    )
    with pytest.raises(OSError, match="No space"):
        write_checkpoint(path, {"w": np.zeros(1000, dtype=np.float32)})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["last.ckpt"]
