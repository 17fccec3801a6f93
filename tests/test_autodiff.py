"""Tape mechanics and finite-difference checks for every kernel."""

import tracemalloc
import weakref

import numpy as np
import pytest

from s2fpn import Parameter, Tensor, no_grad, ops, tape, using_dtype
from s2fpn.attention import StripAttention
from s2fpn.errors import ShapeError
from s2fpn.gradcheck import CHECKS, grad_check, run_checks
from s2fpn.model import S2FPN
from s2fpn.nn import ConvBNReLU
from s2fpn.optim import Adam

from capture import capture


def test_linear_case_grad_is_x():
    with using_dtype(np.float64):
        x = Tensor(np.array([[2.0, -1.0], [0.5, 3.0]]).reshape(1, 1, 2, 2), dtype=np.float64)
        w = Parameter(np.full((1, 1, 2, 2), 0.25))
        loss = ops.tensor_sum(w * x)
        tape().backward(loss)
        np.testing.assert_array_equal(w.grad, x.data)


def test_backward_consumes_the_tape():
    with using_dtype(np.float64):
        x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2), dtype=np.float64)
        w = Parameter(np.ones((1, 1, 2, 2)))
        loss = ops.tensor_sum(w * x)
        tape().backward(loss)
        assert len(tape()) == 0
        tape().backward(loss)
        np.testing.assert_array_equal(w.grad, x.data)


def test_backward_frees_intermediates_the_caller_dropped():
    with using_dtype(np.float64):
        w = Parameter(np.ones((1, 1, 2, 2)))
        mid = ops.relu(w * 2.0)
        loss = ops.tensor_sum(mid * 3.0)
        ref = weakref.ref(mid.data)
        del mid
        tape().backward(loss)
        assert ref() is None
        np.testing.assert_array_equal(w.grad, np.full((1, 1, 2, 2), 6.0))


def test_forward_frees_an_activation_no_backward_reads():
    # a train-mode BN output feeds only the ReLU, whose backward reads its
    # own output: once the forward returns nothing holds the BN output
    block = ConvBNReLU(3, 4, 3, rng=np.random.default_rng(0)).train()
    x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 8, 8)).astype(np.float32))
    with capture(block) as calls:
        out = block(x)
    bn_out = weakref.ref(calls["bn"][0][1].data)
    del calls
    assert bn_out() is None
    tape().backward(ops.tensor_sum(out))
    assert np.any(block.conv.weight.grad != 0)


def test_a_built_model_holds_its_state_and_no_gradients():
    # a parameter gets a gradient array only from backward, so a model
    # that only runs forward holds its weights and buffers and nothing else
    tracemalloc.start()
    try:
        model = S2FPN("r18", 64, 5, seed=0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(p.grad is None for p in model.parameters())
    state = sum(arr.nbytes for arr in model.state_dict().values())
    assert abs(held - state) <= 0.05 * state, f"{held} bytes held for {state} bytes of state"


def test_zero_upstream_gives_zero_param_grads():
    with using_dtype(np.float64):
        x = Tensor(np.ones((1, 1, 2, 2)), dtype=np.float64)
        w = Parameter(np.ones((1, 1, 2, 2)))
        loss = ops.tensor_sum((w * x) * 0.0)
        tape().backward(loss)
        np.testing.assert_array_equal(w.grad, np.zeros_like(w.data))


def test_backward_requires_scalar():
    w = Parameter(np.ones((1, 1, 2, 2)))
    y = w * 2.0
    with pytest.raises(ShapeError, match="scalar"):
        tape().backward(y)


def test_grad_accumulates_across_shared_use():
    # the same parameter used twice contributes twice
    with using_dtype(np.float64):
        x = Tensor(np.full((1, 1, 1, 1), 3.0), dtype=np.float64)
        w = Parameter(np.full((1, 1, 1, 1), 2.0))
        loss = ops.tensor_sum(w * x + w * x)
        tape().backward(loss)
        np.testing.assert_allclose(w.grad, 2 * x.data)


def test_zero_grad_drops_and_a_shared_parameter_gets_the_sum():
    # ssam.shared_conv runs on both strips, so its weight gets two gradients
    with using_dtype(np.float64):
        rng = np.random.default_rng(4)
        att = StripAttention(4, rng=rng)
        att.alpha.data[...] = 0.5
        x = Tensor(rng.standard_normal((2, 4, 5, 3)))
        r = Tensor(rng.standard_normal((2, 4, 5, 3)))
        opt = Adam(att.parameters())
        opt.zero_grad()
        assert all(p.grad is None for p in opt.params)
        tape().backward(ops.tensor_sum(att(x) * r))
        w = att.shared_conv.weight
        numeric = np.empty(w.size)
        flat = w.data.reshape(-1)
        with no_grad():
            for i in range(w.size):
                flat[i] += 1e-6
                hi = ops.tensor_sum(att(x) * r).item()
                flat[i] -= 2e-6
                lo = ops.tensor_sum(att(x) * r).item()
                flat[i] += 1e-6
                numeric[i] = (hi - lo) / 2e-6
        np.testing.assert_allclose(w.grad.reshape(-1), numeric, rtol=1e-6, atol=1e-9)


def test_leaves_own_their_gradients():
    # add hands the same array to both inputs; each leaf must get its own
    p = Parameter(np.ones((2, 3)))
    q = Parameter(np.ones((2, 3)))
    p.zero_grad()
    q.zero_grad()
    tape().backward(ops.tensor_sum(p + q))
    assert not np.shares_memory(p.grad, q.grad)
    p.grad *= 2.0
    np.testing.assert_array_equal(q.grad, np.ones((2, 3)))


def test_tape_reset_isolates_iterations():
    with using_dtype(np.float64):
        w = Parameter(np.ones((1, 1, 1, 1)))
        loss1 = ops.tensor_sum(w * 3.0)
        tape().backward(loss1)
        tape().reset()
        loss2 = ops.tensor_sum(w * 5.0)
        tape().backward(loss2)
        np.testing.assert_allclose(w.grad, np.array([[[[8.0]]]]))


def test_eval_mode_records_nothing():
    from s2fpn.tensor import no_grad

    w = Parameter(np.ones((1, 1, 2, 2)))
    with no_grad():
        out = w * 2.0
    assert len(tape()) == 0
    assert not out.requires_grad


def test_every_kernel_passes_finite_differences():
    results = run_checks("ops", seed=0)
    for name, res in results.items():
        assert res.max_rel_err < 1e-4, f"{name}: {res}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_scope_checks_the_same_instances_under_all(seed):
    alone = {}
    for scope in CHECKS:
        alone.update(run_checks(scope, seed))
    assert run_checks("all", seed) == alone


def test_linear_op_gradient_at_roundoff():
    # central differences are exact for a linear map, so what is left is
    # function-evaluation round-off over the 1e-5 step, still below 1e-10
    with using_dtype(np.float64):
        x = Tensor(np.random.default_rng(5).standard_normal((1, 2, 3, 4)), dtype=np.float64)
        w = Parameter(np.random.default_rng(6).standard_normal((1, 2, 3, 4)))
        res = grad_check(lambda: ops.tensor_sum(w * x), {"w": w})
        assert res.max_rel_err < 1e-10, str(res)
