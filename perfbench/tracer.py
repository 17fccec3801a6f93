"""Spans around calls into s2fpn's public functions, installed from outside.

Nothing in `src/` is changed: the tracer replaces public functions and
methods with timing wrappers while it is installed and puts the originals
back on exit. Module calls are seen through the existing cost-counter hook
(`counting.set_counter`: `enter`/`leave`/`add`), which also delivers the
FLOPs each kernel reports. Backward closures are timed under the op that
recorded them by wrapping `Tape.record`.

Spans are kept in memory as per-name totals. A span's self time is its
duration minus the time of the spans nested inside it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# ops reported under their own name; every other public kernel is "other"
NAMED_OPS = ("conv2d", "batch_norm", "relu", "max_pool", "bilinear_upsample", "elementwise")
OP_GROUPS = NAMED_OPS + ("other",)
# public functions of s2fpn.ops that only delegate to `elementwise` or
# build constants; wrapping them would count one kernel twice
_OP_DELEGATES = {"add", "mul", "interp_matrix"}
# the span of a whole training step: its self time is the step's own orchestration
# code, which is not attributed to any layer (as for evaluate_model, which
# is not wrapped at all)
STEP_SPAN = "trainer.step"


def _module_layer(name: str, module) -> str | None:
    """Layer span name for a module of S2FPN, or None to fold it into its parent."""
    kind = type(module).__name__
    if name == "":
        return "nn.model"
    if kind == "DepthwiseProjection":
        return "pyramid.projection"
    if kind == "StripAttention":
        return "attention.strip"
    if kind == "ChannelAttention":
        return "attention.channel"
    top = name.split(".")[0]
    if name == top:
        return {"backbone": "backbone", "apf": "pyramid", "gfu": "decoder", "head": "decoder"}.get(top)
    return None


MODULE_SPANS = (
    "nn.model", "backbone", "pyramid", "pyramid.projection",
    "attention.strip", "attention.channel", "decoder",
)


class Tracer:
    """Per-name span totals plus op FLOPs and tape record counts."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)  # outermost spans of a name
        self.calls: dict[str, int] = defaultdict(int)
        self.under_s: dict[tuple[str, str], float] = defaultdict(float)  # (parent, child)
        self.flops: dict[str, int] = defaultdict(int)
        self.tape_records = 0
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._module_marks: list[bool] = []
        self._module_names: dict[int, str] = {}
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.incl_s[name] += duration
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.under_s[(parent[0], name)] += duration

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def _current_op(self) -> str:
        if self._stack and self._stack[-1][0].endswith(".fwd"):
            name = self._stack[-1][0]
            if name.startswith("ops."):
                return name[len("ops."):-len(".fwd")]
        return "other"

    # -- counter protocol used by Module.__call__ and the kernels ------------

    def enter(self, module) -> None:
        name = self._module_names.get(id(module))
        self._module_marks.append(name is not None)
        if name is not None:
            self.begin(name)

    def leave(self) -> None:
        if self._module_marks.pop():
            self.end()

    def add(self, flops: int) -> None:
        self.flops[self._current_op()] += int(flops)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def _patch_function(self, home, attr: str, span: str) -> None:
        """Wrap a module-level function in its home module and in every
        s2fpn module that imported it by name."""
        original = getattr(home, attr)
        traced = self.wrap(original, span)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("s2fpn") and vars(mod).get(attr) is original:
                self._patch(mod, attr, traced)

    def _patch_method(self, cls, attr: str, span: str) -> None:
        self._patch(cls, attr, self.wrap(getattr(cls, attr), span))

    def install(self, model) -> "Tracer":
        from s2fpn import augment, counting, dataset, imageio, losses, ops, serialize, trainer
        from s2fpn.metrics import ConfusionMatrix
        from s2fpn.optim import Adam
        from s2fpn.tensor import Tape, Tensor

        self._module_names = {}
        for name, module in model.named_modules():
            layer = _module_layer(name, module)
            if layer is not None:
                self._module_names[id(module)] = layer
        for attr, fn in list(vars(ops).items()):
            if (
                callable(fn)
                and getattr(fn, "__module__", None) == ops.__name__
                and not attr.startswith("_")
                and attr not in _OP_DELEGATES
                and not isinstance(fn, type)
            ):
                group = attr if attr in NAMED_OPS else "other"
                self._patch_function(ops, attr, f"ops.{group}.fwd")
        # Tensor.sum/.mean were bound to the kernels at import time
        self._patch(Tensor, "sum", ops.tensor_sum)
        self._patch(Tensor, "mean", ops.tensor_mean)

        original_record = Tape.record
        tracer = self

        def record(tape_self, out, inputs, backward):
            tracer.tape_records += 1
            name = f"ops.{tracer._current_op()}.bwd"

            def timed_backward(grad):
                tracer.begin(name)
                try:
                    return backward(grad)
                finally:
                    tracer.end()

            return original_record(tape_self, out, inputs, timed_backward)

        self._patch(Tape, "record", record)
        self._patch_method(Tape, "backward", "tensor.backward")
        self._patch_function(losses, "total_loss", "losses.total_loss")
        self._patch_method(Adam, "step", "optim.adam.step")
        self._patch_method(Adam, "zero_grad", "optim.adam.zero_grad")
        self._patch_method(trainer.Trainer, "train_step", STEP_SPAN)
        self._patch_method(trainer.Trainer, "batch_for", "trainer.data")
        self._patch_function(augment, "augment", "augment")
        self._patch_method(dataset.SegDataset, "load", "dataset.load")
        self._patch_function(imageio, "read_ppm", "imageio.read")
        self._patch_function(imageio, "read_pgm", "imageio.read")
        self._patch_method(ConfusionMatrix, "add", "metrics.confusion_add")
        self._patch_function(serialize, "write_checkpoint", "serialize.write")
        self._patch_function(serialize, "read_checkpoint", "serialize.read")
        self._previous_counter = counting.current_counter()
        counting.set_counter(self)
        return self

    def uninstall(self) -> None:
        from s2fpn import counting

        counting.set_counter(self._previous_counter)
        for owner, attr, value, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived figures ----------------------------------------------------

    @property
    def attributed_s(self) -> float:
        """Self time of every layer span, excluding the training step's own."""
        return sum(s for name, s in self.self_s.items() if name != STEP_SPAN)

    @property
    def glue_s(self) -> float:
        """Module time minus the op, loss and other layer time inside it."""
        return sum(self.self_s[name] for name in MODULE_SPANS)
