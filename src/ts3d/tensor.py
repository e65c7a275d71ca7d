"""Dense float tensors with reverse-mode automatic differentiation.

A Tensor wraps a contiguous numpy array plus an optional gradient buffer.
Operators (see ops.py) build a small backward graph; calling backward() on a
scalar walks it in reverse topological order. Gradients of a value that is
used several times add up, so callers must zero gradients between steps.
A Parameter is a trainable leaf Tensor with a name, its checkpoint identity;
Module.astype casts all of a module's parameters at once.

Any NaN or Inf appearing in a forward result or an accumulated gradient is a
hard error that names the producing operator: silent non-finite propagation
is the dominant failure mode of hand-written backward passes.
"""

from __future__ import annotations

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class NumericalError(RuntimeError):
    """A forward or backward pass produced NaN or Inf."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operator."""


class ConfigError(ValueError):
    """A configuration value violates a documented constraint."""


# Set by no_grad(); while truthy, new ops do not record backward closures.
_GRAD_DISABLED = 0


class no_grad:
    """Context manager that disables graph construction (inference mode)."""

    def __enter__(self):
        global _GRAD_DISABLED
        _GRAD_DISABLED += 1
        return self

    def __exit__(self, *exc):
        global _GRAD_DISABLED
        _GRAD_DISABLED -= 1
        return False


def grad_enabled() -> bool:
    return _GRAD_DISABLED == 0


def check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values produced by operator '{op}'")


class Tensor:
    """N-dimensional float array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "op")

    def __init__(self, data, dtype=None, requires_grad: bool = False, check: bool = True):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        elif dtype is None and not isinstance(data, (np.ndarray, np.generic, Tensor)):
            # python scalars/lists default to the training dtype
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None
        self.op = "leaf"
        if check:
            check_finite(self.data, "leaf")

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self.op})"

    # -- autodiff ------------------------------------------------------

    def accumulate_grad(self, arr: np.ndarray, op: str) -> None:
        check_finite(arr, op + ".backward")
        if arr.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {arr.shape} does not match tensor shape "
                f"{self.data.shape} in '{op}'"
            )
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += arr

    def backward(self) -> None:
        """Reverse-mode pass from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)


def make_node(data, parents, op: str, backward_builder) -> Tensor:
    """Create an op result; record the backward closure only when needed.

    ``backward_builder`` is a zero-argument callable returning the backward
    function, so per-op backward precomputation (e.g. im2col buffers) is
    skipped entirely during inference.
    """
    out = Tensor(data, check=False)
    out.op = op
    check_finite(out.data, op)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_builder()
    return out


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


class Parameter(Tensor):
    """A named trainable leaf tensor; the name is its checkpoint identity."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name or '<unnamed>'}, shape={self.shape}, dtype={self.dtype})"


class Module:
    """Minimal parameter container with recursive registration."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._children[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = ""):
        for key, p in self._params.items():
            yield (prefix + key if prefix else key), p
        for key, child in self._children.items():
            sub = (prefix + key if prefix else key) + "."
            yield from child.named_parameters(sub)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; returns the module."""
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
        return self


class ModuleList(Module):
    """Sequence of sub-modules registered under their index."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        self._children[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


def bind_parameter_names(root: Module, prefix: str = "") -> None:
    """Assign dotted-path names to every parameter and check uniqueness."""
    seen = {}
    for name, p in root.named_parameters(prefix):
        if name in seen:
            raise ValueError(f"duplicate parameter name '{name}'")
        seen[name] = p
        p.name = name
