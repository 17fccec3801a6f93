"""Layer/module abstraction: parameter registration, modes, state dicts."""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import ops
from .counting import current_counter
from .errors import CheckpointError
from .serialize import restore
from .tensor import Parameter, Tensor, default_dtype, grad_enabled


class Module:
    """Base class with automatic registration of parameters and children.

    Dotted names produced by `named_parameters`/`state_dict` are what the
    checkpoint format stores, so attribute names are part of the interface.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        tensor = Tensor(value, requires_grad=False, dtype=np.asarray(value).dtype.type)
        self._buffers[name] = tensor
        object.__setattr__(self, name, tensor)

    def named_modules(self):
        """(dotted name, module) over the tree in pre-order, the root as "".
        Every other walk derives from this one, so checkpoints list entries
        in this order."""
        stack = [("", self)]
        while stack:
            prefix, module = stack.pop()
            yield prefix, module
            children = reversed(module._modules.items())
            stack.extend((_dotted(prefix, name), child) for name, child in children)

    def modules(self):
        return (module for _, module in self.named_modules())

    def named_parameters(self):
        for prefix, module in self.named_modules():
            for name, p in module._params.items():
                yield _dotted(prefix, name), p

    def named_buffers(self):
        for prefix, module in self.named_modules():
            for name, b in module._buffers.items():
                yield _dotted(prefix, name), b

    def parameters(self):
        return (p for _, p in self.named_parameters())

    def assign_parameter_names(self) -> None:
        """Stamp each Parameter with its dotted name (checkpoint identity)."""
        for name, p in self.named_parameters():
            p.name = name

    def state_dict(self) -> dict[str, np.ndarray]:
        """Every parameter, then every buffer, by dotted name."""
        return {name: t.data for name, t in chain(self.named_parameters(), self.named_buffers())}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = False):
        """Copy name-matched arrays into parameters/buffers under
        `serialize.restore`'s rule; names on one side only are allowed
        unless `strict`. Any refusal comes before anything is copied.

        Returns (loaded_names, missing_in_state, unexpected_in_state).
        """
        own = self.state_dict()
        missing = [name for name in own if name not in state]
        unexpected = [name for name in state if name not in own]
        if strict and (missing or unexpected):
            raise CheckpointError(f"state mismatch: missing={missing} unexpected={unexpected}")
        loaded = [name for name in state if name in own]
        restore("state", state, {name: own[name] for name in loaded})
        return loaded, missing, unexpected

    def train(self, flag: bool = True):
        for m in self.modules():
            object.__setattr__(m, "training", flag)
        return self

    def eval(self):
        return self.train(False)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        counter = current_counter()
        if counter is None:
            return self.forward(*args, **kwargs)
        counter.enter(self)
        try:
            return self.forward(*args, **kwargs)
        finally:
            counter.leave()


def _dotted(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def he_normal(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(default_dtype())


class Conv2d(Module):
    """A "same" convolution: it pads `kernel // 2`, so at stride 1 an odd
    kernel keeps H and W."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        groups: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.stride = stride
        self.padding = kernel // 2
        self.groups = groups
        rng = rng or np.random.default_rng(0)
        fan_in = (in_channels // groups) * kernel * kernel
        self.weight = Parameter(
            he_normal(rng, (out_channels, in_channels // groups, kernel, kernel), fan_in)
        )
        if bias:
            self.bias = Parameter(np.zeros(out_channels, dtype=default_dtype()))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding, groups=self.groups
        )


class BatchNorm2d(Module):
    def __init__(self, channels: int):
        super().__init__()
        self.momentum = 0.1
        dt = default_dtype()
        self.gamma = Parameter(np.ones(channels, dtype=dt))
        self.beta = Parameter(np.zeros(channels, dtype=dt))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dt))
        self.register_buffer("running_var", np.ones(channels, dtype=dt))

    def forward(self, x: Tensor, out=None) -> Tensor:
        return ops.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            mode="train" if self.training else "eval",
            momentum=self.momentum,
            out=out,
        )


class Dropout(Module):
    def __init__(self, p: float, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0:
            return x
        return ops.dropout(x, self.p, self.rng)


def conv_epilogue(
    y: Tensor, bn: BatchNorm2d | None = None, shortcut: Tensor | None = None, relu: bool = True
) -> Tensor:
    """What follows a conv: `bn`, then `+ shortcut`, then relu, each when
    given. `y` must be an array that only the caller holds: a conv's
    output, or this function's result on one.

    When no tape records, each step writes its result into `y`'s array
    (In-Place Activated BatchNorm, Rota Bulò et al., arXiv:1712.02616): the
    same ops in the same order, so the same bits, and one array where a
    taped forward makes one per step. The ops still count and report their
    own work. This is the network's only in-place write into a Tensor's
    `.data`; it never touches a block's input or an array already handed
    on."""
    inplace = not grad_enabled()
    if bn is not None:
        y = bn(y, out=y.data if inplace else None)
    if shortcut is not None:
        y = ops.add(y, shortcut, out=y.data if inplace else None)
    if relu:
        y = ops.relu(y, out=y.data if inplace else None)
    return y


class ConvBNReLU(Module):
    """Stride-1 "same" conv (no bias) -> batch norm -> relu, the dominant
    composite."""

    def __init__(
        self, in_channels: int, out_channels: int, kernel: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, kernel, bias=False, rng=rng)
        self.bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return conv_epilogue(self.conv(x), self.bn)
