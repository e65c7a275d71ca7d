"""Tensor core: graph mechanics, invariants, error policy."""

import ast
import math
import pathlib
import weakref

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
    make_node,
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
    with pytest.raises(NumericalError, match="scale"):
        ops.scale(x, math.inf)


def test_fanout_gradients_add():
    x = Tensor([2.0], dtype=np.float64, requires_grad=True)
    y = ops.add(ops.scale(x, 2.0), x)  # 2x + x
    y.backward()
    assert np.allclose(x.grad, [3.0])


@pytest.mark.parametrize("reused", ["a", "b"])
def test_first_gradient_write_never_aliases_the_incoming_array(reused):
    """add hands one gradient array to both parents; a later accumulation
    into one parent's gradient must leave the other's unchanged."""
    a = Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
    b = Tensor([3.0, 4.0], dtype=np.float64, requires_grad=True)
    y = ops.add(a, b)
    again = ops.scale(a if reused == "a" else b, 5.0)
    ops.add(y, again).backward(np.ones(2))
    assert not np.shares_memory(a.grad, b.grad)
    assert np.array_equal(a.grad, [6.0, 6.0] if reused == "a" else [1.0, 1.0])
    assert np.array_equal(b.grad, [1.0, 1.0] if reused == "a" else [6.0, 6.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="without a seed requires a scalar"):
        ops.scale(x, 2.0).backward()


def test_backward_seed_must_match_shape_and_dtype():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = ops.relu(x)
    with pytest.raises(DimensionError, match=r"shape \(3, 2\).*shape \(2, 3\)"):
        y.backward(np.ones((3, 2)))
    with pytest.raises(DimensionError, match="dtype float32.*dtype float64"):
        y.backward(np.ones((2, 3), dtype=np.float32))
    y.backward(np.full((2, 3), 0.5))  # the rejected seeds left the graph intact
    assert np.array_equal(x.grad, np.full((2, 3), 0.5))


def test_nonfinite_backward_seed_blames_the_seed():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NumericalError, match="seed"):
        ops.relu(x).backward(np.array([1.0, np.nan, 1.0]))
    assert x.grad is None


def test_vector_seed_is_the_output_gradient():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)))
    g = rng.normal(size=(4, 2))
    ops.linear(x, w, Tensor(np.zeros(2))).backward(g)
    assert np.array_equal(x.grad, g @ w.data.T)


def test_gradient_accumulates_across_backward_calls():
    x = Tensor([3.0], dtype=np.float64, requires_grad=True)
    seed = np.array([1.0])
    x.backward(seed)  # a leaf as the root takes its seed as its gradient
    ops.scale(x, 3.0).backward()
    ops.scale(x, 3.0).backward()
    assert np.array_equal(x.grad, [7.0])
    x.backward(seed)  # and adds it to a gradient it holds
    assert np.array_equal(x.grad, [8.0])
    assert np.array_equal(seed, [1.0])  # never written through


def test_backward_frees_interior_tensors_and_keeps_leaf_gradients():
    x = Parameter(np.array([1.0, 2.0]))
    y = ops.relu(x)
    z = ops.scale(y, 3.0)
    out = ops.add(z, x)
    y_ref = weakref.ref(y)
    del y
    out.backward(np.array([1.0, 2.0]))
    assert y_ref() is None
    assert np.array_equal(x.grad, [4.0, 8.0])
    assert z.grad is None
    assert out.grad is None


def test_second_backward_through_a_freed_graph_names_the_op():
    x = Tensor([3.0], dtype=np.float64, requires_grad=True)
    y = ops.relu(x)
    loss = ops.scale(y, 2.0)
    loss.backward()
    g1 = x.grad.copy()
    with pytest.raises(RuntimeError, match="'scale'.*already freed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="'relu'.*already freed"):
        ops.scale(y, 1.0).backward()
    assert np.array_equal(x.grad, g1)


def test_no_grad_skips_graph():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = ops.relu(x)
    assert not y.requires_grad
    assert y._backward_fn is None


def _product(a, b, backward=None):
    """a * b, whose backward returns a gradient for both parents unless
    ``backward`` replaces it."""
    def build():
        return backward or (lambda g: (g * b.data, g * a.data))
    return make_node(a.data * b.data, (a, b), "product", build)


def test_gradient_returned_for_a_constant_parent_is_dropped():
    x = Tensor([2.0, 3.0], dtype=np.float64, requires_grad=True)
    c = Tensor([5.0, 7.0], dtype=np.float64)
    _product(x, c).backward(np.ones(2))
    assert np.array_equal(x.grad, [5.0, 7.0])
    assert c.grad is None


@pytest.mark.parametrize("count", [1, 3])
def test_backward_must_return_one_gradient_per_parent(count):
    x = Tensor([2.0], dtype=np.float64, requires_grad=True)
    out = _product(x, Tensor([5.0], dtype=np.float64), backward=lambda g: (g,) * count)
    with pytest.raises(ValueError, match=f"'product' returned {count} gradients for 2"):
        out.backward()
    assert x.grad is None


def test_only_tensor_backward_accumulates_gradients():
    """Ops return their parents' gradients; one place accumulates them."""
    package = pathlib.Path(ops.__file__).parent
    callers = sorted(
        path.name for path in package.glob("*.py")
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "accumulate_grad"
               for node in ast.walk(ast.parse(path.read_text("utf-8")))))
    assert callers == ["tensor.py"]


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
    ops.relu(p).backward(np.ones((2, 2)))
    assert p.grad is not None
    root.zero_grad()
    assert p.grad is None
