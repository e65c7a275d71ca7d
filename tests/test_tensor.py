"""Tensor core: graph mechanics, invariants, error policy."""

import numpy as np
import pytest

from ts3d import ops
from ts3d.tensor import (
    DimensionError,
    Module,
    ModuleList,
    NumericalError,
    Parameter,
    Tensor,
    bind_parameter_names,
    no_grad,
)


def test_tensor_basics():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.dtype == np.float32
    assert t.size == 4
    assert t.grad is None


def test_int_input_promoted_to_float32():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float32


def test_shape_matches_buffer_length():
    t = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
    assert int(np.prod(t.shape)) == t.data.size


def test_nonfinite_leaf_rejected():
    with pytest.raises(NumericalError):
        Tensor([1.0, np.inf])


def test_nonfinite_forward_names_operator():
    x = Tensor([-1.0], requires_grad=True)
    with pytest.raises(NumericalError, match="log"):
        ops.log(x)


def test_fanout_gradients_add():
    x = Tensor([2.0], dtype=np.float64, requires_grad=True)
    y = ops.add(ops.mul(x, x), x)  # x^2 + x
    ops.sum_(y).backward()
    assert np.allclose(x.grad, [5.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        ops.mul(x, x).backward()


def test_gradient_accumulates_across_backward_calls():
    x = Tensor([3.0], dtype=np.float64, requires_grad=True)
    ops.sum_(ops.mul(x, x)).backward()
    g1 = x.grad.copy()
    ops.sum_(ops.mul(x, x)).backward()
    assert np.allclose(x.grad, 2 * g1)


def test_no_grad_skips_graph():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = ops.mul(x, x)
    assert not y.requires_grad
    assert y._backward_fn is None


def test_deterministic_forward():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7, 3)).astype(np.float32))
    k = Tensor(rng.normal(size=(3, 3, 3, 4)).astype(np.float32))
    a = ops.conv2d(x, k, stride=1, padding=1).data
    b = ops.conv2d(x, k, stride=1, padding=1).data
    assert a.tobytes() == b.tobytes()


class _Leaf(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.zeros((2, 2)))
        self.b = Parameter(np.zeros(2))


class _Root(Module):
    def __init__(self):
        super().__init__()
        self.stem = _Leaf()
        self.blocks = ModuleList([_Leaf(), _Leaf()])


def test_module_names_are_paths_and_unique():
    root = _Root()
    bind_parameter_names(root)
    names = [name for name, _ in root.named_parameters()]
    assert names == ["stem.w", "stem.b", "blocks.0.w", "blocks.0.b", "blocks.1.w", "blocks.1.b"]
    assert len(set(names)) == len(names)
    assert root.blocks[1].w.name == "blocks.1.w"


def test_zero_grad_clears():
    root = _Root()
    bind_parameter_names(root)
    p = root.stem.w
    ops.sum_(ops.mul(p, p)).backward()
    assert p.grad is not None
    root.zero_grad()
    assert p.grad is None
