"""The benchmark's workloads: set-up, one timed op at a time, and checks.

Every workload is closed-loop: one caller in one process sends the next op
only after the previous one has completed. Inputs come from
`s2fpn.synthetic` and depend only on the seed.

A workload exposes
  * `setup()`: build everything and warm up (timed as `setup_s`);
  * `chunk(inject)`: run the next op (or, for `evalset`, one pass over
    the split) and return `(busy_s, ops)`, where `ops` holds one
    `(latency_s, key, ok)` per op;
  * `finish()`: the checks against a float64 twin of the same state, run
    after the timed loop; returns the keys whose ops must count as failed;
  * `probe()`: one untimed op under tracemalloc (tape memory);
  * `round_trip()`: a checkpoint write and read where it applies, returning
    the checkpoint size in MiB (0 where it does not).
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

import numpy as np

from s2fpn import Tensor, no_grad, tape, using_dtype
from s2fpn.config import RunConfig
from s2fpn.dataset import SegDataset
from s2fpn.model import S2FPN
from s2fpn.nn import BatchNorm2d
from s2fpn.synthetic import make_sample, make_toy_corpus
from s2fpn.trainer import Trainer, evaluate_model

# float32 output against the float64 reference of the same weights and
# frame: max deviation over max(1, |ref|), and the share of pixels whose
# predicted class agrees
MAX_DEVIATION = 1e-3
MIN_PIXEL_AGREEMENT = 0.999
# a float32 train step against a float64 twin trainer started from the
# same state: relative error of the loss and of the gradients (L2 over all
# parameters; float32 rounding moves max-pool routing, so up to about 0.01
# is normal); and of the parameter update against Adam written out here
LOSS_RTOL = 1e-4
GRAD_RTOL = 0.1
UPDATE_RTOL = 1e-3


def calibrate_bn(model: S2FPN, batch: Tensor) -> None:
    """Set every BN layer's running statistics to the batch statistics of
    one train-mode forward. The seed-initialised net, normalising with
    mean 0 / variance 1, blows activations up to ~1e36 at 512x1024."""
    layers = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    momenta = [bn.momentum for bn in layers]
    for bn in layers:
        bn.momentum = 1.0
    model.train()
    try:
        with no_grad():
            model(batch)
    finally:
        for bn, momentum in zip(layers, momenta):
            bn.momentum = momentum
        model.eval()


def float64_copy(model: S2FPN) -> S2FPN:
    with using_dtype(np.float64):
        twin = S2FPN("r18", model.pyramid_width, model.num_classes, seed=0)
    twin.load_state_dict(model.state_dict(), strict=True)
    return twin.eval()


def relative_l2(values, references) -> float:
    """||values - references|| / ||references|| over a list of arrays."""
    error = sum(float(np.sum((v.astype(np.float64) - r) ** 2)) for v, r in zip(values, references))
    norm = sum(float(np.sum(np.square(r, dtype=np.float64))) for r in references)
    return (error / norm) ** 0.5 if norm else error ** 0.5


def adam_updates(cfg: RunConfig, params, start, moments: dict, lr: float) -> list[np.ndarray]:
    """The change bias-corrected Adam with decoupled weight decay makes to
    each parameter, from its gradient and the moments before the step, in
    float64. Written from the algorithm, not taken from `s2fpn.optim`."""
    t = int(moments["optim.step"][0]) + 1
    updates = []
    for i, (p, theta) in enumerate(zip(params, start)):
        if p.grad is None:
            updates.append(np.zeros_like(theta))
            continue
        key = p.name or f"param{i}"
        g = p.grad.astype(np.float64)
        m = cfg.beta1 * moments[f"optim.{key}.m"] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * moments[f"optim.{key}.v"] + (1.0 - cfg.beta2) * g * g
        step = (m / (1.0 - cfg.beta1**t)) / (np.sqrt(v / (1.0 - cfg.beta2**t)) + cfg.adam_eps)
        updates.append(-lr * (step + cfg.weight_decay * theta))
    return updates


def reference_check(logits: np.ndarray, reference: np.ndarray) -> bool:
    deviation = np.abs(logits - reference).max() / max(1.0, float(np.abs(reference).max()))
    agreement = (logits.argmax(axis=1) == reference.argmax(axis=1)).mean()
    return bool(deviation <= MAX_DEVIATION and agreement >= MIN_PIXEL_AGREEMENT)


def output_bytes(out) -> int:
    if isinstance(out, Tensor):
        return out.data.nbytes
    if isinstance(out, (tuple, list)):
        return sum(output_bytes(o) for o in out)
    return 0


def probe_memory(model: S2FPN, op) -> tuple[int, int]:
    """Run `op` under tracemalloc. Returns the bytes still held when the
    model's forward returns, beyond its outputs, and the op's peak above
    its start if the tape recorded anything by then (else 0)."""
    own = vars(model).get("forward")
    inner = model.forward
    seen = {}

    def forward(*args, **kwargs):
        out = inner(*args, **kwargs)
        current, _ = tracemalloc.get_traced_memory()
        seen["retained"] = current - seen["start"] - output_bytes(out)
        seen["records"] = len(tape())
        return out

    object.__setattr__(model, "forward", forward)
    tracemalloc.start()
    try:
        seen["start"], _ = tracemalloc.get_traced_memory()
        op()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if own is None:
            object.__delattr__(model, "forward")
        else:
            object.__setattr__(model, "forward", own)
    return seen["retained"], (peak - seen["start"]) if seen["records"] else 0


def _normalised(image_hwc: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    chw = image_hwc.astype(np.float32).transpose(2, 0, 1)[None] / 255.0
    return np.ascontiguousarray(((chw - mean) / std).astype(np.float32))


class EvalFrames:
    """One 1x3xHxW frame per op through an eval-mode, no_grad forward plus
    the per-pixel argmax, on an r18/320/19-class model. Every op sends the
    same frame: checking a frame costs a float64 forward."""

    frames_per_op = 1

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.height, self.width = (64, 128) if tiny else (512, 1024)
        self.calib_shape = (64, 128) if tiny else (128, 256)
        self.pixels = self.height * self.width

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        calib = [make_sample(i, *self.calib_shape, 19, rng)[0] for i in range(2)]
        frame = make_sample(2, self.height, self.width, 19, rng)[0]
        stack = np.stack(calib).astype(np.float32) / 255.0
        mean = stack.mean(axis=(0, 1, 2)).reshape(1, 3, 1, 1).astype(np.float32)
        std = np.maximum(stack.std(axis=(0, 1, 2)), 1e-3).reshape(1, 3, 1, 1).astype(np.float32)
        self.model = S2FPN("r18", 320, 19, seed=0)
        self.model.input_mean.data[...] = mean
        self.model.input_std.data[...] = std
        calibrate_bn(self.model, Tensor(np.concatenate([_normalised(c, mean, std) for c in calib])))
        self.frame = Tensor(_normalised(frame, mean, std))
        self.exemplar = None
        self._forward()  # warm-up

    def _forward(self) -> tuple[np.ndarray, np.ndarray]:
        with no_grad():
            logits = self.model(self.frame).data
        return logits, logits.argmax(axis=1)

    def chunk(self, inject: bool):
        start = time.perf_counter()
        logits, _ = self._forward()
        latency = time.perf_counter() - start
        if inject:
            logits[0, 0, 0, 0] = np.nan
        ok = bool(np.isfinite(logits).all())
        if ok:
            if self.exemplar is None:
                self.exemplar = logits
            ok = self.exemplar is logits or np.array_equal(self.exemplar, logits)
        return latency, [(latency, 0, ok)]

    def finish(self) -> set:
        if self.exemplar is None:
            return set()
        with no_grad():
            reference = float64_copy(self.model)(Tensor(self.frame.data.astype(np.float64))).data
        return set() if reference_check(self.exemplar, reference) else {0}

    def probe(self) -> tuple[int, int]:
        return probe_memory(self.model, self._forward)

    def round_trip(self) -> float:
        return 0.0


def load_state(trainer: Trainer, state: tuple[dict, dict]) -> None:
    model_state, optim_state = state
    trainer.model.load_state_dict(model_state, strict=True)
    trainer.optimizer.load_state(optim_state)


class Float64Trainer(Trainer):
    """A trainer whose batches are float64; build it under
    `using_dtype(np.float64)` so that its model and Adam moments are too."""

    def batch_for(self, iteration: int) -> tuple[Tensor, np.ndarray]:
        x, labels = super().batch_for(iteration)
        return Tensor(x.data.astype(np.float64)), labels


class TrainSteps:
    """`Trainer.train_step` on the acceptance overfit model: r18, pyramid
    width 128, 5 classes, batch 4 of 64x128 crops from a 16-image corpus
    with the default augmentation. Every epoch (4 steps) the model and
    optimizer are restored to their state after set-up, outside the timed
    region, so step i must reproduce reference loss i mod 4 exactly.
    `finish` checks the reference steps against a float64 twin trainer."""

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.batch = 2 if tiny else 4
        self.n_images = 8 if tiny else 16
        self.frames_per_op = self.batch
        self.pixels = self.batch * 64 * 128
        self.op_index = 0

    def setup(self) -> None:
        root = make_toy_corpus(
            self.work / "train-corpus", n_train=self.n_images, n_val=0,
            height=64, width=128, num_classes=5, seed=self.seed,
        )
        cfg = RunConfig(
            backbone="r18", pyramid_width=128, num_classes=5, dataset=str(root),
            crop_h=64, crop_w=128, batch_size=self.batch, epochs=1000,
            checkpoint_every=1_000_000, out_dir=str(self.work / "train-run"), seed=0,
        )
        self.trainer = Trainer(cfg, SegDataset(root))
        self.model = self.trainer.model
        self.cycle = self.trainer.iters_per_epoch
        self.model_state, self.optim_state = self._state()
        self.reference = [self.trainer.train_step(i)[1][0] for i in range(self.cycle)]
        self._restore()

    def _state(self) -> tuple[dict, dict]:
        return (
            {k: v.copy() for k, v in self.trainer.model.state_dict().items()},
            {k: np.copy(v) for k, v in self.trainer.optimizer.state_entries()},
        )

    def _restore(self) -> None:
        load_state(self.trainer, (self.model_state, self.optim_state))

    def chunk(self, inject: bool):
        iteration = self.op_index % self.cycle
        if iteration == 0 and self.op_index:
            self._restore()
        self.op_index += 1
        start = time.perf_counter()
        _, losses = self.trainer.train_step(iteration)
        latency = time.perf_counter() - start
        loss = float("nan") if inject else losses[0]
        ok = bool(np.isfinite(loss)) and loss == self.reference[iteration]
        return latency, [(latency, iteration, ok)]

    def finish(self) -> set:
        """Replay the reference epoch. Before each step the float64 twin is
        set to the float32 state and runs the same step (Adam amplifies
        float32 rounding, so a twin left to run the whole epoch on its own
        ends a few percent away in loss). The float32 update is checked
        against `adam_updates` of the float32 gradients."""
        self._restore()
        with using_dtype(np.float64):
            twin = Float64Trainer(self.trainer.cfg, self.trainer.dataset, out_dir=self.work / "twin-run")
        ours, theirs = self.trainer.optimizer.params, twin.optimizer.params
        bad = set()
        for iteration, reference in enumerate(self.reference):
            before = self._state()
            with using_dtype(np.float64):
                load_state(twin, before)
                expected = twin.train_step(iteration)[1][0]
            start = [p.data.astype(np.float64) for p in ours]
            lr, losses = self.trainer.train_step(iteration)
            grads = [(p.grad, q.grad) for p, q in zip(ours, theirs) if q.grad is not None]
            grad_error = relative_l2(*zip(*grads))
            update_error = relative_l2(
                [p.data - s for p, s in zip(ours, start)],
                adam_updates(self.trainer.cfg, ours, start, before[1], lr),
            )
            loss = losses[0]
            if not (
                loss == reference
                and np.isfinite(loss)
                and abs(loss - expected) <= LOSS_RTOL * abs(expected)
                and grad_error <= GRAD_RTOL
                and update_error <= UPDATE_RTOL
            ):
                bad.add(iteration)
        self._restore()
        return bad

    def probe(self) -> tuple[int, int]:
        self._restore()
        try:
            return probe_memory(self.model, lambda: self.trainer.train_step(0))
        finally:
            self._restore()
            self.op_index = 0

    def round_trip(self) -> float:
        """One checkpoint write and read; returns the file size in MiB."""
        path = self.work / "round-trip.ckpt"
        self.trainer.save_checkpoint(path, 0)
        self.trainer.load_checkpoint(path)
        return path.stat().st_size / 2**20


class EvalSet:
    """`trainer.evaluate_model` over a val split of 64x128 PPM/PGM frames
    written at set-up (r18/320/19 classes), as `s2fpn eval` runs it. One op
    is one frame; its latency runs from one `dataset.load` call to the next
    (or to the end of the pass)."""

    frames_per_op = 1

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.n_frames = 4 if tiny else 24
        self.pixels = 64 * 128

    def setup(self) -> None:
        root = make_toy_corpus(
            self.work / "val-corpus", n_train=0, n_val=self.n_frames,
            height=64, width=128, num_classes=19, seed=self.seed,
        )
        self.dataset = SegDataset(root)
        self.names = self.dataset.split("val")
        self.labels = [self.dataset.load(n)[1] for n in self.names]
        mean, std = self.dataset.compute_normalization("val")
        self.model = S2FPN("r18", 320, 19, seed=0)
        self.model.input_mean.data[...] = mean.reshape(1, 3, 1, 1)
        self.model.input_std.data[...] = np.maximum(std, 1e-3).reshape(1, 3, 1, 1)
        calib = np.stack([self.dataset.load(n)[0] for n in self.names[:8]])
        calib = (calib - self.model.input_mean.data) / self.model.input_std.data
        calibrate_bn(self.model, Tensor(calib.astype(np.float32)))
        self._instrument()
        self.exemplars: dict[int, np.ndarray] = {}
        self.expected_counts = None
        evaluate_model(self.model, self.dataset, "val")  # warm-up

    def _instrument(self) -> None:
        """Stamp each `dataset.load` call and keep each forward's logits."""
        dataset, model = self.dataset, self.model
        self.stamps: list[float] = []
        self.outputs: list[np.ndarray] = []

        def load(name):
            self.stamps.append(time.perf_counter())
            return type(dataset).load(dataset, name)

        def forward(x):
            out = type(model).forward(model, x)
            self.outputs.append(out.data)
            return out

        object.__setattr__(dataset, "load", load)
        object.__setattr__(model, "forward", forward)

    def chunk(self, inject: bool):
        self.stamps.clear()
        self.outputs.clear()
        start = time.perf_counter()
        matrix = evaluate_model(self.model, self.dataset, "val")
        end = time.perf_counter()
        bounds = self.stamps + [end]
        latencies = [b - a for a, b in zip(bounds, bounds[1:])]
        if inject:
            self.outputs[0][0, 0, 0, 0] = np.nan
        oks = []
        for key, logits in enumerate(self.outputs):
            ok = bool(np.isfinite(logits).all())
            if ok:
                exemplar = self.exemplars.setdefault(key, logits)
                ok = exemplar is logits or np.array_equal(exemplar, logits)
            oks.append(ok)
        if self.expected_counts is None and all(oks):
            self.expected_counts = self._counts(self.outputs)
        if self.expected_counts is None or not np.array_equal(matrix.counts, self.expected_counts):
            oks = [False] * len(oks)
        ops = list(zip(latencies, range(len(latencies)), oks))
        return end - start, ops

    def _counts(self, outputs) -> np.ndarray:
        """The confusion matrix recomputed from the logits, without s2fpn.metrics."""
        k = self.model.num_classes
        counts = np.zeros((k, k), dtype=np.int64)
        for label, logits in zip(self.labels, outputs):
            label = label.reshape(-1)
            pred = logits.argmax(axis=1).reshape(-1)
            keep = label != 255
            np.add.at(counts, (label[keep], pred[keep]), 1)
        return counts

    def finish(self) -> set:
        twin = float64_copy(self.model)
        bad = set()
        for key, logits in self.exemplars.items():
            image, _ = type(self.dataset).load(self.dataset, self.names[key])
            x = (image[None] - self.model.input_mean.data) / self.model.input_std.data
            with no_grad():
                reference = twin(Tensor(x.astype(np.float64))).data
            if not reference_check(logits, reference):
                bad.add(key)
        return bad

    def probe(self) -> tuple[int, int]:
        image, _ = type(self.dataset).load(self.dataset, self.names[0])
        x = Tensor(((image[None] - self.model.input_mean.data) / self.model.input_std.data).astype(np.float32))

        def op():
            with no_grad():
                self.model(x)

        return probe_memory(self.model, op)

    def round_trip(self) -> float:
        return 0.0


WORKLOADS = {
    "eval-512x1024": EvalFrames,
    "train-64x128": TrainSteps,
    "evalset-64x128": EvalSet,
}
