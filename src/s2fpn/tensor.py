"""Dense NCHW tensors with a recording tape for reverse-mode differentiation.

Values live in contiguous row-major numpy arrays (float32 by default,
float64 selectable for verification work). Differentiable kernels in
:mod:`s2fpn.ops` append records to the active tape; replaying the tape in
reverse propagates gradients into every reachable leaf tensor.

A tape (and the parameters trained through it) is confined to one logical
thread; each thread gets its own tape lazily.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import NumericCheckError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

_default_dtype = np.float32
_debug_checks = False
_local = threading.local()


def default_dtype():
    return _default_dtype


def set_default_dtype(dtype) -> None:
    global _default_dtype
    dtype = np.dtype(dtype).type
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _default_dtype = dtype


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the dtype used for newly created tensors."""
    previous = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def set_debug_checks(enabled: bool) -> None:
    """Toggle finiteness assertions after every kernel (off by default)."""
    global _debug_checks
    _debug_checks = bool(enabled)


def check_output(data: np.ndarray, op: str) -> None:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise NumericCheckError(f"non-finite values produced by {op}")


def grad_enabled() -> bool:
    return getattr(_local, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (inference / benchmarks)."""
    previous = grad_enabled()
    _local.grad_enabled = False
    try:
        yield
    finally:
        _local.grad_enabled = previous


class _Record:
    """One recorded op: its backward closure, for each input the record that
    produced it (or the leaf Tensor that wants its gradient, or None), and
    its output's gradient so far. It never reaches its own output, so an
    activation that no closure reads is freed by reference counting."""

    __slots__ = ("backward", "sources", "grad")

    def __init__(self, backward, sources):
        self.backward = backward
        self.sources = sources
        self.grad = None


def _send(source, grad: np.ndarray, given: np.ndarray) -> None:
    """Add `grad` out of place to a leaf's `.grad` or to a live record's
    output gradient; a record that was consumed or reset takes nothing. A
    leaf's first gradient becomes its `.grad`, copied when it may share
    memory with `given` (the gradient its closure was handed), so no leaf
    shares a buffer with another leaf or with a live record."""
    if isinstance(source, Tensor):
        if source.grad is None and np.may_share_memory(grad, given):
            grad = grad.copy()
    elif source is None or source.backward is None:
        return
    source.grad = grad if source.grad is None else source.grad + grad


class Tape:
    """Ordered record of executed differentiable operations.

    Execution order is a topological order of the graph, so walking the
    records backwards visits every operation after all of its consumers.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: "Tensor", inputs, backward) -> None:
        sources = tuple((t._record or t) if t is not None and t.requires_grad else None for t in inputs)
        out._record = _Record(backward, sources)
        self._records.append(out._record)

    def reset(self) -> None:
        for rec in self._records:
            rec.backward = rec.grad = None
        self._records.clear()

    def backward(self, loss: "Tensor") -> None:
        """Add d(loss)/d(leaf) into `.grad` of every reachable leaf (a leaf
        whose `.grad` is None takes its gradient as it comes).

        Consumes the tape: each record is dropped once its backward has run,
        so its activations are freed as soon as nothing else holds them.
        """
        if loss.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        seed = np.ones_like(loss.data)
        _send(loss._record or (loss if loss.requires_grad else None), seed, seed)
        while self._records:
            rec = self._records.pop()
            backward, rec.backward = rec.backward, None
            g, rec.grad = rec.grad, None
            if g is None:
                continue
            for source, grad in zip(rec.sources, backward(g)):
                if grad is not None:
                    _send(source, grad, g)


def tape() -> Tape:
    current = getattr(_local, "tape", None)
    if current is None:
        current = Tape()
        _local.tape = current
    return current


class Tensor:
    """A dense array value, optionally tracked for differentiation.

    Feature maps follow the (N, C, H, W) layout; reductions may produce
    lower-rank tensors (losses are 0-d). `grad`, when populated, is a numpy
    buffer of the same shape as `data`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_record")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            dtype = data.dtype if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES else _default_dtype
        arr = np.asarray(data, dtype=dtype)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._record: _Record | None = None  # set when an op records this as its output

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        """Drop the gradient; the first one backward sends becomes `.grad`."""
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    # arithmetic sugar is installed by s2fpn.ops at import time


class Parameter(Tensor):
    """A trainable leaf tensor. Its `.grad` is None until backward sends
    it a gradient, so a model that only runs forward holds no gradients.

    `name` is None until `Module.assign_parameter_names` stamps the dotted
    name, unique within a model, which is what makes checkpoints round-trip.
    """

    __slots__ = ("name",)

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.name = None

    def __repr__(self) -> str:
        label = self.name or "<unnamed>"
        return f"Parameter({label}, shape={self.shape}, dtype={self.data.dtype})"


def as_tensor(value, dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value), requires_grad=False, dtype=dtype)
