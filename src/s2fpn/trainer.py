"""Training loop: deterministic batch assembly, logging, checkpoints."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .augment import augment, rng_for_sample
from .config import RunConfig
from .dataset import SegDataset
from .errors import ConfigError, DataError, NumericCheckError
from .losses import total_loss
from .metrics import ConfusionMatrix
from .model import S2FPN
from .nn import Dropout
from .optim import Adam, poly_lr
from .serialize import read_checkpoint, restore, write_checkpoint
from .tensor import Tensor, no_grad, tape


def evaluate_model(
    model: S2FPN, dataset: SegDataset, split: str, ignore_index: int = 255
) -> ConfusionMatrix:
    """Eval-mode forward over a split, accumulating a confusion matrix that
    skips `ignore_index` labels."""
    matrix = ConfusionMatrix(model.num_classes, ignore_index)
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for name in dataset.split(split):
                image, label = dataset.load(name)
                logits = model(model.normalize(image[None]))
                pred = logits.data.argmax(axis=1)[0]
                matrix.add(pred, label)
    finally:
        model.train(was_training)
    return matrix


class Trainer:
    def __init__(self, cfg: RunConfig, dataset: SegDataset, out_dir=None):
        self.cfg = cfg
        self.dataset = dataset
        self.model = S2FPN.from_config(cfg)
        try:
            self.model.check_frame(cfg.crop_h, cfg.crop_w)
        except DataError as exc:
            raise ConfigError(f"crop_h/crop_w do not fit the backbone: {exc}") from None
        self.out_dir = Path(out_dir if out_dir is not None else cfg.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = self.out_dir / "train.log"
        mean, std = dataset.compute_normalization("train")
        self.model.input_mean.data[...] = mean.reshape(1, 3, 1, 1)
        self.model.input_std.data[...] = std.reshape(1, 3, 1, 1)
        self.optimizer = Adam(
            self.model.parameters(),
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            eps=cfg.adam_eps,
            weight_decay=cfg.weight_decay,
        )
        self.train_names = dataset.split("train")
        if not self.train_names:
            raise DataError("training split is empty")
        self.iters_per_epoch = max(1, math.ceil(len(self.train_names) / cfg.batch_size))
        self.max_iter = cfg.epochs * self.iters_per_epoch
        self.start_iter = 0
        self.best_miou = -1.0
        self.loss_history: list[float] = []

    # -- deterministic batch assembly ------------------------------------

    def _epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([self.cfg.seed, 1000003, epoch]))
        return rng.permutation(len(self.train_names))

    def batch_for(self, iteration: int) -> tuple[Tensor, np.ndarray]:
        cfg = self.cfg
        epoch = iteration // self.iters_per_epoch
        order = self._epoch_order(epoch)
        offset = (iteration % self.iters_per_epoch) * cfg.batch_size
        images, labels = [], []
        for j in range(cfg.batch_size):
            name = self.train_names[order[(offset + j) % len(self.train_names)]]
            image, label = self.dataset.load(name)
            image, label = augment(
                image, label, rng_for_sample(cfg.seed, iteration * cfg.batch_size + j), cfg
            )
            images.append(image)
            labels.append(label)
        return self.model.normalize(np.stack(images)), np.stack(labels)

    # -- checkpointing ----------------------------------------------------

    def _state_entries(self, iteration: int) -> dict[str, np.ndarray]:
        entries = self.model.state_dict()
        entries.update(self.optimizer.state_entries())
        entries["trainer.iter"] = np.asarray([float(iteration)], dtype=np.float64)
        entries["trainer.best_miou"] = np.asarray([self.best_miou], dtype=np.float64)
        return entries

    def save_checkpoint(self, path, iteration: int) -> None:
        write_checkpoint(path, self._state_entries(iteration))

    def load_checkpoint(self, path) -> int:
        """Restore the full state `save_checkpoint` wrote under
        `serialize.restore`'s rule, which also bounds `trainer.iter` by this
        run's max_iter: a refused file changes nothing."""
        targets = {**self.model.state_dict(), **dict(self.optimizer.moments())}
        values = restore(
            path, read_checkpoint(path), targets,
            counts={"trainer.iter": self.max_iter, "optim.step": math.inf},
            numbers={"trainer.best_miou": (-1.0, 1.0)},
        )
        self.optimizer.step_count = values["optim.step"]
        self.best_miou = values["trainer.best_miou"]
        self.start_iter = values["trainer.iter"]
        return self.start_iter

    # -- the loop ----------------------------------------------------------

    def _reseed_dropout(self, iteration: int) -> None:
        # masks become a pure function of (seed, iteration), so a resumed
        # run draws exactly what the uninterrupted run would have drawn
        drops = [m for m in self.model.modules() if isinstance(m, Dropout)]
        for k, module in enumerate(drops):
            module.rng = np.random.default_rng(
                np.random.SeedSequence([self.cfg.seed, 7919, iteration, k])
            )

    def train_step(self, iteration: int) -> tuple[float, list[float]]:
        cfg = self.cfg
        lr = poly_lr(iteration, self.max_iter, cfg.base_lr, cfg.power)
        x, labels = self.batch_for(iteration)
        self._reseed_dropout(iteration)
        self.model.train()
        recorder = tape()
        recorder.reset()
        main, aux = self.model(x)
        loss, terms = total_loss(main, aux, labels, cfg)
        if not np.isfinite(loss.item()):
            # stop before backward and the update reach the parameters
            recorder.reset()
            raise NumericCheckError(f"non-finite loss {loss.item()} at iteration {iteration}")
        # dropped here, not before the forward: freed earlier, their heap
        # would go to the forward's activations, and backward's large conv
        # arrays would fault in fresh pages every step
        self.optimizer.zero_grad()
        recorder.backward(loss)
        self.optimizer.step(lr)
        return lr, [loss.item()] + [t.item() for t in terms[1:]]

    def run(self, resume=None) -> dict:
        if resume is not None:
            self.load_checkpoint(resume)
        has_val = "val" in self.dataset.splits
        with open(self.log_path, "a") as log_file:
            for iteration in range(self.start_iter, self.max_iter):
                lr, losses = self.train_step(iteration)
                self.loss_history.append(losses[0])
                aux_part = ""
                if len(losses) > 1:
                    aux_part = " aux " + " ".join(f"{v:.6f}" for v in losses[1:])
                log_file.write(f"iter {iteration} lr {lr:.8f} loss {losses[0]:.6f}{aux_part}\n")
                log_file.flush()
                epoch_done = (iteration + 1) % self.iters_per_epoch == 0
                epoch = (iteration + 1) // self.iters_per_epoch
                if epoch_done and epoch % self.cfg.checkpoint_every == 0:
                    self.save_checkpoint(self.out_dir / "last.ckpt", iteration + 1)
                    if has_val:
                        miou = evaluate_model(
                            self.model, self.dataset, "val", self.cfg.ignore_index
                        ).mean_iou()
                        log_file.write(f"epoch {epoch} val_miou {miou:.6f}\n")
                        log_file.flush()
                        if miou > self.best_miou:
                            self.best_miou = miou
                            self.save_checkpoint(self.out_dir / "best.ckpt", iteration + 1)
            self.save_checkpoint(self.out_dir / "final.ckpt", self.max_iter)
        return {
            "iterations": self.max_iter - self.start_iter,
            "final_loss": self.loss_history[-1] if self.loss_history else None,
            "best_miou": self.best_miou,
        }
