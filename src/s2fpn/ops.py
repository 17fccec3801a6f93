"""Numerical kernels with hand-derived backward passes.

All kernels are deterministic: reductions run in a fixed order (BLAS matmul
plus sequential scatter loops), so identical inputs and seeds give
bit-identical outputs across runs.
"""

from __future__ import annotations

import numpy as np

from .counting import current_counter
from .errors import ShapeError, StateError
from .tensor import Tensor, as_tensor, check_output, grad_enabled, tape

BN_EPS = 1e-5  # batch norm's variance floor


def _make(data, inputs, backward, op: str, flops: int = 0) -> Tensor:
    """Every kernel's result goes through here: the finiteness guard names
    `op`, the cost counter gets `flops`, and the tape records `backward`
    when an input needs a gradient. The tape holds no Tensors, so what some
    backward closure reads is all that stays alive until backward: the
    arrays it reads (an input, its output for relu, sigmoid, softmax and
    max_pool, dropout's keep mask, per-channel values or per-pixel index
    arrays) and shapes of everything else; it recomputes the rest."""
    check_output(data, op)
    counter = current_counter()
    if counter is not None and flops:
        counter.add(int(flops))
    needs = _records(inputs)
    out = Tensor(data, requires_grad=needs, dtype=data.dtype.type)
    if needs:
        tape().record(out, inputs, backward)
    return out


def _records(inputs) -> bool:
    """Whether the tape records an op on `inputs`."""
    return grad_enabled() and any(t is not None and t.requires_grad for t in inputs)


def _target(out, inputs, op: str):
    """`out` for a kernel that writes its result into a given array, which
    may be its own input. Refused while the tape records the op: backward
    reads the arrays the forward was handed."""
    if out is not None and _records(inputs):
        raise StateError(f"{op} cannot write into out= while the tape records it")
    return out


# ---------------------------------------------------------------------------
# broadcasting elementwise arithmetic


def _broadcast_check(a_shape, b_shape):
    rank = max(len(a_shape), len(b_shape))
    pa = (1,) * (rank - len(a_shape)) + tuple(a_shape)
    pb = (1,) * (rank - len(b_shape)) + tuple(b_shape)
    for axis, (da, db) in enumerate(zip(pa, pb)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(
                f"cannot broadcast {tuple(a_shape)} with {tuple(b_shape)}: "
                f"axis {axis} has sizes {da} and {db}"
            )


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if not grad.flags["C_CONTIGUOUS"]:
        grad = np.ascontiguousarray(grad)
    return grad


def elementwise(a, b, op: str, out=None) -> Tensor:
    """Broadcasting add/mul; gradients are summed over broadcast axes. The
    result may go into `out` (`a.data` itself too, when it has the result's
    shape) when the tape does not record the op."""
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.dtype.type)
    a_shape, b_shape = a.shape, b.shape
    _broadcast_check(a_shape, b_shape)
    out = _target(out, (a, b), op)
    if op == "add":
        data = np.add(a.data, b.data, out=out)

        def backward(g):
            return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    elif op == "mul":
        data = np.multiply(a.data, b.data, out=out)

        def backward(g):
            return (
                _unbroadcast(g * b.data, a_shape),
                _unbroadcast(g * a.data, b_shape),
            )

    else:
        raise ValueError(f"unknown elementwise op {op!r}")
    return _make(data, (a, b), backward, op, data.size)


def add(a, b, out=None) -> Tensor:
    return elementwise(a, b, "add", out)


def mul(a, b) -> Tensor:
    return elementwise(a, b, "mul")


def concat(tensors) -> Tensor:
    """Join along channels."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])

    def backward(g):
        return tuple(np.ascontiguousarray(g[:, lo:hi]) for lo, hi in zip(offsets, offsets[1:]))

    return _make(data, tuple(tensors), backward, "concat")


def tensor_sum(x) -> Tensor:
    x = as_tensor(x)
    data = np.array(x.data.sum(), dtype=x.dtype)
    shape, dtype = x.shape, x.dtype

    def backward(g):
        return (np.full(shape, g, dtype=dtype),)

    return _make(data, (x,), backward, "sum", x.size)


def tensor_mean(x) -> Tensor:
    x = as_tensor(x)
    data = np.array(x.data.mean(), dtype=x.dtype)
    shape, dtype, size = x.shape, x.dtype, x.size

    def backward(g):
        return (np.full(shape, g / size, dtype=dtype),)

    return _make(data, (x,), backward, "mean", x.size)


# ---------------------------------------------------------------------------
# activations


def relu(x, out=None) -> Tensor:
    """max(x, 0) in one pass; NaN propagates. Backward reads its mask off
    the output, so the tape keeps nothing beyond it. The result may go
    into `out` (`x.data` itself too) when the tape does not record it."""
    x = as_tensor(x)
    data = np.maximum(x.data, 0, out=_target(out, (x,), "relu"))

    def backward(g):
        return (g * (data > 0),)

    return _make(data, (x,), backward, "relu", x.size)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    # split by sign for stability; exact 0.0/1.0 at extreme logits
    z = x.data
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(g):
        return (np.ascontiguousarray(g * out * (1.0 - out)),)

    return _make(out, (x,), backward, "sigmoid", 4 * x.size)


def softmax(x) -> Tensor:
    """Max-subtracted softmax over H, the strip axis: each (n, c, :, w)
    column sums to one."""
    x = as_tensor(x)
    _require_nchw(x, "softmax")
    if x.shape[2] < 1:
        raise ShapeError(f"softmax over H needs H >= 1, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=2, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=2, keepdims=True)
        return (np.ascontiguousarray((g - inner) * out),)

    return _make(out, (x,), backward, "softmax", 5 * x.size)


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Train-mode inverted dropout; eval mode is `nn.Dropout`'s identity."""
    x = as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = rng.random(x.shape) >= p
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    data = np.where(keep, x.data * scale, 0)

    def backward(g):
        return (np.ascontiguousarray(np.where(keep, g * scale, 0)),)

    return _make(data, (x,), backward, "dropout", x.size)


# ---------------------------------------------------------------------------
# pooling


def _require_nchw(x: Tensor, op: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{op} expects an (N, C, H, W) tensor, got shape {x.shape}")


def _sequential_sum(data: np.ndarray, axis: int) -> np.ndarray:
    """Sum over `axis` strictly left to right, as a loop over it would add:
    the last slice of `np.add.accumulate`, which (unlike `np.sum`'s pairwise
    reduction) adds each element to the running total in order. Bit-
    reproducible and exact against the loop oracles, with no Python loop."""
    return np.add.accumulate(data, axis=axis).take(-1, axis=axis)


def strip_pool(x, mode: str = "avg") -> Tensor:
    """Reduce each row over the width axis to an (N, C, H, 1) strip."""
    x = as_tensor(x)
    _require_nchw(x, "strip_pool")
    n, c, h, w = x.shape
    if w < 1:
        raise ShapeError(f"strip_pool needs width >= 1, got shape {x.shape}")
    if mode == "avg":
        data = (_sequential_sum(x.data, 3) / w)[..., None]

        def backward(g):
            return (np.ascontiguousarray(np.broadcast_to(g / w, (n, c, h, w))),)

    elif mode == "max":
        idx = x.data.argmax(axis=3)
        data = np.take_along_axis(x.data, idx[..., None], axis=3)

        def backward(g):
            gx = np.zeros_like(x.data)
            np.put_along_axis(gx, idx[..., None], g, axis=3)
            return (gx,)

    else:
        raise ValueError(f"strip_pool mode must be avg or max, got {mode!r}")
    return _make(data, (x,), backward, "strip_pool", x.size)


def global_avg_pool(x) -> Tensor:
    x = as_tensor(x)
    _require_nchw(x, "global_avg_pool")
    n, c, h, w = x.shape
    if h == 0 or w == 0:
        raise ShapeError(f"global_avg_pool needs non-empty spatial dims, got {x.shape}")
    # row sums first, then down the column: matches the nested loop order
    data = (_sequential_sum(_sequential_sum(x.data, 3), 2) / (h * w))[..., None, None]

    def backward(g):
        return (np.ascontiguousarray(np.broadcast_to(g / (h * w), (n, c, h, w))),)

    return _make(data, (x,), backward, "global_avg_pool", x.size)


def _pool_taps(size: int, out: int, kernel: int, stride: int, padding: int):
    """Per kernel offset `i` along one axis: `i`, the output slice whose
    window tap lands inside the input, and the matching strided input slice."""
    taps = []
    for i in range(kernel):
        lo = max(0, -(-(padding - i) // stride))
        hi = min(out, (size - 1 + padding - i) // stride + 1)
        start = lo * stride + i - padding
        if hi > lo:
            taps.append((i, slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return taps


def max_pool(x, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Max over k x k windows, separably: k strided `np.maximum` passes over
    the W taps into an (N, C, H, oW) array, then k over its H taps, so 2k
    passes instead of k². A max rounds nothing, so the values are those of
    the full window; padding acts as -inf. Backward recomputes the routing
    to the first maximum of each window (row-major tap order) from `x` and
    the output."""
    x = as_tensor(x)
    _require_nchw(x, "max_pool")
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"max_pool window {kernel} does not fit input {x.shape}")
    rows = _pool_taps(h, oh, kernel, stride, padding)
    cols = _pool_taps(w, ow, kernel, stride, padding)
    wide = np.full((n, c, h, ow), -np.inf, dtype=x.dtype)
    for _, oj, ij in cols:
        dst = wide[:, :, :, oj]
        np.maximum(dst, x.data[:, :, :, ij], out=dst)
    data = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
    for _, oi, ii in rows:
        dst = data[:, :, oi]
        np.maximum(dst, wide[:, :, ii], out=dst)
    taps = [(oi, oj, ii, ij) for _, oi, ii in rows for _, oj, ij in cols]

    def backward(g):
        gx = np.zeros_like(x.data)
        pending = np.ones(data.shape, dtype=bool)
        for oi, oj, ii, ij in taps:
            open_ = pending[:, :, oi, oj]
            hit = (x.data[:, :, ii, ij] == data[:, :, oi, oj]) & open_
            open_ &= ~hit
            gx[:, :, ii, ij] += np.where(hit, g[:, :, oi, oj], 0)
        return (gx,)

    return _make(data, (x,), backward, "max_pool", kernel * kernel * data.size)


# ---------------------------------------------------------------------------
# bilinear interpolation (half-pixel source mapping)

_INTERP_CACHE: dict[tuple, tuple[np.ndarray, list]] = {}

# output rows per GEMM of the row resample: each band reads only the few
# input rows its output rows interpolate from
_RESAMPLE_ROWS = 16


def _interp(n_in: int, n_out: int, dtype) -> tuple[np.ndarray, list]:
    """The row-stochastic (n_out, n_in) matrix of half-pixel bilinear
    resampling, src = (dst + 0.5) * n_in / n_out - 0.5 clamped to the
    borders, and its row bands: (r0, r1, a, b) for each run of
    `_RESAMPLE_ROWS` output rows r0:r1, where a:b holds every column those
    rows weight non-zero."""
    key = (n_in, n_out, np.dtype(dtype).str)
    cached = _INTERP_CACHE.get(key)
    if cached is not None:
        return cached
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = src - lo
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    # rows map monotonically, so a band's support runs from its first
    # row's `lo` to its last row's `hi`
    bands = []
    for r0 in range(0, n_out, _RESAMPLE_ROWS):
        r1 = min(r0 + _RESAMPLE_ROWS, n_out)
        bands.append((r0, r1, int(lo[r0]), int(hi[r1 - 1]) + 1))
    cached = _INTERP_CACHE[key] = (m.astype(dtype), bands)
    return cached


def _resample(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel bilinear resample of the last two axes of `x`.

    Widths first, as one GEMM with the dense width matrix; then heights in
    bands of `_RESAMPLE_ROWS` output rows, each a GEMM with only the
    columns of the height matrix that the band weights non-zero, written
    straight into its rows of the output. Every row of that matrix has at
    most two non-zeros, so a band skips the dense GEMM's zero products."""
    mh, bands = _interp(x.shape[-2], out_h, x.dtype)
    xw = x @ _interp(x.shape[-1], out_w, x.dtype)[0].T
    out = np.empty(x.shape[:-2] + (out_h, out_w), dtype=x.dtype)
    for r0, r1, a, b in bands:
        np.matmul(mh[r0:r1, a:b], xw[..., a:b, :], out=out[..., r0:r1, :])
    return out


def _resample_adjoint(g: np.ndarray, h: int, w: int) -> np.ndarray:
    """The adjoint of `_resample` from (h, w): the transposed dense
    matrices applied to `g`."""
    mh = _interp(h, g.shape[-2], g.dtype)[0]
    mw = _interp(w, g.shape[-1], g.dtype)[0]
    return mh.T @ (g @ mw)


def bilinear_upsample(x, out_h: int, out_w: int) -> Tensor:
    """Half-pixel bilinear resample of H and W to (out_h, out_w) by
    `_resample`; backward is `_resample_adjoint`."""
    x = as_tensor(x)
    _require_nchw(x, "bilinear_upsample")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"target size must be positive, got ({out_h}, {out_w})")
    h, w = x.shape[2:]
    data = _resample(x.data, out_h, out_w)

    def backward(g):
        return (_resample_adjoint(g, h, w),)

    return _make(data, (x,), backward, "bilinear_upsample", 4 * data.size)


# ---------------------------------------------------------------------------
# convolution (cross-correlation, no kernel flip)


# im2col bytes per forward GEMM: about half of a 2 MiB L2, so a band's
# columns are still cached when its GEMM reads them
_BAND_BYTES = 1 << 20


def _pointwise(kh: int, kw: int, stride: int, padding: int) -> bool:
    return kh == kw == stride == 1 and padding == 0


def _pad(data: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad H and W: one allocation and one slice copy."""
    n, c, h, w = data.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=data.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = data
    return out


def _im2col(data: np.ndarray, kh: int, kw: int, stride: int, padding: int, oh: int, ow: int):
    """Columns laid out (C*kh*kw, N*oH*oW): one GEMM covers the whole batch."""
    n, c = data.shape[:2]
    if padding:
        data = _pad(data, padding)
    # a read-only (C, kh, kw, N, oH, oW) window view that the reshape copies
    # once; oH and oW keep every window inside `data`
    sn, sc, sh, sw = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data, (c, kh, kw, n, oh, ow), (sc, sh, sw, sn, sh * stride, sw * stride), writeable=False
    )
    return windows.reshape(c * kh * kw, n * oh * ow)


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int, oh: int, ow: int):
    """Scatter-add (C*kh*kw, N*oH*oW) columns back onto an (N, C, H, W)
    image tap by tap, row-major; what lands in the padding is never added."""
    n, c, h, w = x_shape
    if _pointwise(kh, kw, stride, padding):
        return np.ascontiguousarray(cols.reshape(c, n, h, w).transpose(1, 0, 2, 3))
    image = np.zeros((c, n, h, w), dtype=cols.dtype)
    cols = cols.reshape(c, kh, kw, n, oh, ow)
    for i, oi, ii in _pool_taps(h, oh, kh, stride, padding):
        for j, oj, ij in _pool_taps(w, ow, kw, stride, padding):
            image[:, :, ii, ij] += cols[:, i, j, :, oi, oj]
    return np.ascontiguousarray(image.transpose(1, 0, 2, 3))


def _conv_bands(data, w_g, kh: int, kw: int, stride: int, padding: int, oh: int, ow: int):
    """Forward GEMMs over bands of output rows whose columns fit in
    `_BAND_BYTES`, so each GEMM reads its columns while they are still in
    cache. One band is the single GEMM over the whole map. Each output is
    the same dot product either way; BLAS rounds it alike wherever a band
    spans whole blocks of its GEMM kernel's columns (16 in OpenBLAS sgemm),
    as rows of any power-of-two width from 16 up do."""
    n, c = data.shape[:2]
    groups, og, k = w_g.shape
    if padding:
        data = _pad(data, padding)
    # at least `og` columns per band, so repacking the weights for each
    # band's GEMM moves no more bytes than the band's own columns
    band = max(1, _BAND_BYTES // (c * kh * kw * n * ow * data.itemsize), -(-og // (n * ow)))
    out = np.empty((n, groups, og, oh * ow), dtype=data.dtype)
    for r0 in range(0, oh, band):
        rows = min(band, oh - r0)
        src = data[:, :, r0 * stride : (r0 + rows - 1) * stride + kh]
        cols = _im2col(src, kh, kw, stride, 0, rows, ow).reshape(groups, k, n * rows * ow)
        dst = out[:, :, :, r0 * ow : (r0 + rows) * ow]
        if n == 1:
            np.matmul(w_g, cols, out=dst[0])  # straight into the output rows
        else:
            dst[...] = np.matmul(w_g, cols).reshape(groups, og, n, rows * ow).transpose(2, 0, 1, 3)
    return out.reshape(n, groups * og, oh, ow)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D cross-correlation with optional channel groups.

    weight: (outC, inC/groups, kH, kW); output height/width follow
    floor((size + 2*padding - kernel) / stride) + 1. Each group runs one
    GEMM over the whole batch per band of output rows (one band when the
    columns fit in `_BAND_BYTES`); only `x` is kept for backward, which
    re-forms the full im2col columns from it.
    """
    x = as_tensor(x)
    weight = as_tensor(weight, dtype=x.dtype.type)
    bias = None if bias is None else as_tensor(bias, dtype=x.dtype.type)
    _require_nchw(x, "conv2d")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-d, got shape {weight.shape}")
    if stride < 1 or padding < 0:
        raise ValueError(f"invalid stride/padding ({stride}, {padding})")
    n, c, h, w = x.shape
    out_c, cg, kh, kw = weight.shape
    if groups < 1 or c % groups or out_c % groups:
        raise ShapeError(
            f"groups={groups} must divide in_channels={c} and out_channels={out_c}"
        )
    if cg != c // groups:
        raise ShapeError(
            f"weight shape {weight.shape} does not match input {x.shape} with groups={groups}"
        )
    if bias is not None and bias.shape != (out_c,):
        raise ShapeError(f"bias shape {bias.shape} must be ({out_c},)")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} (stride {stride}, padding {padding}) does not fit input {x.shape}"
        )
    og = out_c // groups
    k = cg * kh * kw
    length = n * oh * ow
    x_data = x.data
    w_g = weight.data.reshape(groups, og, k)

    pointwise = _pointwise(kh, kw, stride, padding)

    def columns():
        if pointwise:  # one transposing copy; a view of the input at N == 1
            return x_data.transpose(1, 0, 2, 3).reshape(groups, k, length)
        return _im2col(x_data, kh, kw, stride, padding, oh, ow).reshape(groups, k, length)

    if pointwise:
        out = np.matmul(w_g, columns())  # (groups, og, N*L)
        out = np.ascontiguousarray(out.reshape(out_c, n, oh, ow).transpose(1, 0, 2, 3))
    else:
        out = _conv_bands(x_data, w_g, kh, kw, stride, padding, oh, ow)
    if bias is not None:
        out += bias.data.reshape(1, out_c, 1, 1)

    # an input that wants no gradient (the image into the stem) gets none
    x_needs_grad = x.requires_grad

    def backward(g):
        g_g = np.ascontiguousarray(g.reshape(n, out_c, oh * ow).transpose(1, 0, 2))
        g_g = g_g.reshape(groups, og, length)
        grad_w = np.matmul(g_g, columns().transpose(0, 2, 1)).reshape(weight.shape)
        grad_x = None
        if x_needs_grad:
            grad_cols = np.matmul(w_g.transpose(0, 2, 1), g_g)
            grad_x = _col2im(
                grad_cols.reshape(c * kh * kw, length), (n, c, h, w), kh, kw, stride, padding, oh, ow
            )
        grad_b = None if bias is None else np.ascontiguousarray(g.sum(axis=(0, 2, 3)))
        return grad_x, grad_w, grad_b

    out_els = n * out_c * oh * ow
    flops = 2 * out_els * k + (out_els if bias is not None else 0)
    return _make(out, (x, weight, bias), backward, "conv2d", flops)


# ---------------------------------------------------------------------------
# batch normalization


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum over (N, H, W) of a * b, as one BLAS dot product per
    (image, channel) row: no product temporary, and at 512x1024 about 40x
    less rounding error than einsum's running float32 sum."""
    n, c, h, w = a.shape
    return (a.reshape(n, c, 1, h * w) @ b.reshape(n, c, h * w, 1)).sum(axis=(0, 2, 3))


def batch_norm(
    x,
    gamma,
    beta,
    running_mean,
    running_var,
    mode: str = "train",
    momentum: float = 0.1,
    out=None,
) -> Tensor:
    """Per-channel normalization over (N, H, W).

    Train mode uses batch statistics and updates the running buffers in
    place; eval mode normalizes with the running statistics. Either way the
    forward subtracts the mean into one array, then scales and shifts it in
    place (folding the mean into the shift loses digits when |mean| >> std).
    That array is new, or `out` (`x.data` itself too) when the tape does not
    record the op: the same three passes in the same order, so the same
    bits. Train mode takes the variance from the centred array with
    `_channel_dot`, so it allocates nothing else input-sized.
    Backward recomputes d = x - mean from `x`, takes sum(g * d) the same
    way and builds the input gradient from g * scale and per-channel
    multiples of d: two input-sized arrays, and `g` is never written.
    """
    x = as_tensor(x)
    gamma = as_tensor(gamma, dtype=x.dtype.type)
    beta = as_tensor(beta, dtype=x.dtype.type)
    _require_nchw(x, "batch_norm")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm affine shapes {gamma.shape}/{beta.shape} must be ({c},)"
        )
    shape = (1, c, 1, 1)
    count = n * h * w
    rm, rv = (s.data if isinstance(s, Tensor) else s for s in (running_mean, running_var))
    out = _target(out, (x, gamma, beta), "batch_norm")
    if mode == "train":
        mean = x.data.mean(axis=(0, 2, 3))
        out = np.subtract(x.data, mean.reshape(shape), out=out)
        var = _channel_dot(out, out) / count
        if rm is not None:
            rm *= 1.0 - momentum
            rm += momentum * mean.astype(rm.dtype)
            rv *= 1.0 - momentum
            rv += momentum * var.astype(rv.dtype)
    elif mode == "eval":
        if rm is None or rv is None:
            raise StateError("eval-mode batch_norm requires initialized running statistics")
        mean, var = np.asarray(rm).astype(x.dtype), np.asarray(rv).astype(x.dtype)
        if mean.shape != (c,) or var.shape != (c,):
            raise ShapeError(f"running stat shapes {mean.shape}/{var.shape} must be ({c},)")
        out = np.subtract(x.data, mean.reshape(shape), out=out)
    else:
        raise ValueError(f"batch_norm mode must be train or eval, got {mode!r}")
    mean = mean.reshape(shape)
    inv_std = (1.0 / np.sqrt(var + BN_EPS)).reshape(shape)
    scale = gamma.data.reshape(shape) * inv_std
    out *= scale
    out += beta.data.reshape(shape)

    def backward(g):
        d = x.data - mean
        grad_beta = g.sum(axis=(0, 2, 3))
        grad_gamma = _channel_dot(g, d) * inv_std.reshape(c)
        gx = g * scale
        if mode == "train":
            # the batch mean and variance depend on x too
            gx -= scale * grad_beta.reshape(shape) / count
            d *= scale * inv_std * grad_gamma.reshape(shape) / count
            gx -= d
        return gx, grad_gamma, grad_beta

    return _make(out, (x, gamma, beta), backward, "batch_norm", 2 * x.size)


# ---------------------------------------------------------------------------
# operator sugar on Tensor


def _sub(self, other):
    return add(self, mul(other, -1.0))


Tensor.__add__ = add
Tensor.__radd__ = add
Tensor.__mul__ = mul
Tensor.__rmul__ = mul
Tensor.__sub__ = _sub
Tensor.sum = tensor_sum
Tensor.mean = tensor_mean
