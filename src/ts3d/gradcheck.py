"""Central finite-difference gradient verification.

grad_check() is the oracle every differentiable operator and composite is
held against: float64 inputs, central differences, and a relative error
normalized by max(1, |analytic|, |numeric|). A scalar output is its own
objective; any other output is checked through a probe, a fixed normal
array p of the output's shape drawn from a given seed: p seeds the analytic
backward pass, and sum(out * p) is the objective that is differenced.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor


def grad_check(f, inputs, eps: float = 1e-6, probe: int | None = None) -> float:
    """Max relative error between analytic and numeric gradients.

    ``f`` maps the given tensors to one Tensor; ``inputs`` are float64
    tensors with requires_grad=True. With ``probe`` None the output must be
    a scalar; otherwise ``probe`` is the seed of the output's probe
    ``default_rng(probe).normal(size=out.shape)``. Every element of every
    input is perturbed by +/- eps.
    """
    for t in inputs:
        if t.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        t.grad = None
    out = f(*inputs)
    if probe is None and out.size != 1:
        raise ValueError("grad_check without a probe requires a scalar output")
    weights = (np.ones(out.shape) if probe is None
               else np.random.default_rng(probe).normal(size=out.shape))
    out.backward(weights)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    def objective() -> float:
        return float(np.sum(f(*inputs).data * weights))

    max_err = 0.0
    for t, an in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = objective()
            flat[i] = orig - eps
            f_minus = objective()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(an_flat[i] - fd) / max(1.0, abs(an_flat[i]), abs(fd))
            if err > max_err:
                max_err = err
    return max_err


def rand_tensor(rng: np.random.Generator, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), dtype=np.float64, requires_grad=True)


def flat_concat(outs) -> Tensor:
    """Several outputs as one vector, so that a single probe checks them all."""
    return ops.concat([ops.reshape(o, (o.size,)) for o in outs], axis=0)
