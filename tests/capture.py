"""Read a block's intermediates from its own submodule calls.

Every intermediate the block tests assert on is the input or output of
one of the block's child modules, or one op on them. `capture` records
those calls for the duration of a `with` block by wrapping each child's
`forward`; the `*_parts` helpers run one forward and name what they read.
`ohem_selection` reads the pixels a hard-pixel-mined loss selected off its
gradient.
"""

import contextlib

import numpy as np

from s2fpn import Parameter, Tensor, no_grad, ops, tape
from s2fpn.losses import ohem_cross_entropy


@contextlib.contextmanager
def capture(module):
    """Yield {child name: [(inputs, output), ...]} for the block's children."""
    calls = {name: [] for name in module._modules}
    for name, child in module._modules.items():

        def forward(*inputs, _inner=child.forward, _log=calls[name], **options):
            out = _inner(*inputs, **options)
            _log.append((inputs, out))
            return out

        object.__setattr__(child, "forward", forward)
    try:
        yield calls
    finally:
        for child in module._modules.values():
            object.__delattr__(child, "forward")


def strip_attention_parts(block, x):
    """Run a StripAttention; return (output, intermediates).

    The strips and their projections come from the two `shared_conv`
    calls. `attention` and `scaled` are recomputed from them, and the
    block's output must equal that recomposition bit for bit.
    """
    with capture(block) as calls:
        out = block(x)
    ((z_avg,), f1), ((z_max,), f2) = calls["shared_conv"]
    with no_grad():
        attention = ops.softmax(f1 * f2)
        scaled = attention * f1 + attention * f2
        recomposed = x + block.alpha * (scaled - x)
    assert np.array_equal(out.data, recomposed.data), "strip attention recomposition differs"
    return out, {
        "z_avg": z_avg,
        "z_max": z_max,
        "f1": f1,
        "f2": f2,
        "attention": attention,
        "scaled": scaled,
    }


def pyramid_stage_parts(stage, coarse, low):
    """Run a PyramidStage; return (output, aux logits, intermediates).
    `fused` is what the stage hands `next_refine`, which runs in either
    mode (the aux head runs only in training)."""
    with capture(stage) as calls:
        out, aux = stage(coarse, low)
    [(_, lateral)] = calls["lateral"]
    [(_, upsampled)] = calls["coarse_proj"]
    [(_, refined)] = calls["frb"]
    [(_, gate)] = calls["cam"]
    [(_, crb)] = calls["crb_conv"]
    [(_, coarse_branch)] = calls["coarse_conv"]
    [(_, strip)] = calls["ssam"]
    [((fused,), _)] = calls["next_refine"]
    with no_grad():
        x_a = crb * gate
        x_b = coarse_branch * strip
    return out, aux, {
        "lateral": lateral,
        "upsampled": upsampled,
        "refined": refined,
        "channel_gate": gate,
        "x_a": x_a,
        "x_b": x_b,
        "fused": fused,
    }


def gfu_parts(block, x_deep, x_pyramid):
    """Run a GlobalFeatureUpsample; return (output, intermediates)."""
    with capture(block) as calls:
        out = block(x_deep, x_pyramid)
    [((upsampled,), _)] = calls["pre_conv"]
    [((pooled,), context)] = calls["ctx_conv"]
    [(_, branch)] = calls["apf_conv"]
    [((fused,), _)] = calls["out_conv"]
    return out, {
        "upsampled": upsampled,
        "pooled": pooled,
        "context": context,
        "pyramid_branch": branch,
        "fused": fused,
    }


def ohem_selection(logits, labels, **kwargs):
    """Run `ohem_cross_entropy` on float64 `logits` and its backward; return
    (loss, flat indices of the selected pixels). A pixel is selected when
    its column of the logit gradient is non-zero."""
    leaf = Parameter(Tensor(logits, dtype=np.float64))
    loss = ohem_cross_entropy(leaf, labels, **kwargs)
    tape().backward(loss)
    return loss, set(np.flatnonzero(np.abs(leaf.grad).sum(axis=1)))
