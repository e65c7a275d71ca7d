"""AdamW and cosine schedule contracts."""

import math

import numpy as np
import pytest

from ts3d import ops
from ts3d.optim import AdamW, cosine_lr
from ts3d.tensor import Parameter


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 1000, 2e-4) == pytest.approx(2e-4, abs=0)
    assert cosine_lr(1000, 1000, 2e-4) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(500, 1000, 2e-4) == pytest.approx(1e-4)


def test_cosine_lr_formula():
    for step in (1, 37, 250, 999):
        expected = 2e-4 * 0.5 * (1 + math.cos(math.pi * step / 1000))
        assert cosine_lr(step, 1000, 2e-4) == pytest.approx(expected, rel=1e-12)


def test_zero_gradient_zero_decay_is_fixed_point():
    p = Parameter(np.array([1.0, -2.0, 3.0]), name="w")
    before = p.data.copy()
    opt = AdamW([p], base_lr=1e-2, weight_decay=0.0, total_steps=10)
    p.grad = np.zeros_like(p.data)
    opt.step()
    assert np.array_equal(p.data, before)


def test_missing_gradient_names_parameter():
    p = Parameter(np.zeros(3), name="decoder.ffn.w1")
    opt = AdamW([p], base_lr=1e-3, weight_decay=0.0, total_steps=10)
    with pytest.raises(ValueError, match="decoder.ffn.w1"):
        opt.step()


def test_weight_decay_is_decoupled():
    # with zero gradient, the update is exactly -lr * wd * p
    p = Parameter(np.array([2.0]), name="w")
    opt = AdamW([p], base_lr=0.1, weight_decay=0.5, total_steps=1)  # step 0 runs at base_lr
    p.grad = np.zeros_like(p.data)
    opt.step()
    assert np.allclose(p.data, 2.0 - 0.1 * 0.5 * 2.0)


def test_adamw_descends_quadratic():
    p = Parameter(np.array([4.0, -3.0]), name="w")
    # cos(pi * step / total_steps) rounds to 1.0 for every step taken: a constant lr
    opt = AdamW([p], base_lr=0.05, weight_decay=0.0, total_steps=10**12)
    for _ in range(400):
        p.grad = None
        ops.scale(p, 2.0).backward(p.data)  # the gradient 2p of sum(p * p)
        opt.step()
    assert np.abs(p.data).max() < 1e-2


def test_step_counter_strictly_increases():
    p = Parameter(np.zeros(2), name="w")
    opt = AdamW([p], base_lr=1e-3, weight_decay=0.0, total_steps=5)
    for expected in (1, 2, 3):
        p.grad = np.ones_like(p.data)
        opt.step()
        assert opt.step_count == expected


def test_state_roundtrip():
    p = Parameter(np.array([1.0, 2.0]), name="w")
    opt = AdamW([p], base_lr=1e-3, weight_decay=1e-4, total_steps=100)
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    opt.step()
    state = {k: v.copy() for k, v in opt.state_arrays().items()}
    assert sorted(state) == ["m.w", "step", "v.w"]

    # the constructor's hyperparameters (from the run config) stay in force
    opt2 = AdamW([p], base_lr=9.0, weight_decay=9.0, total_steps=1)
    opt2.load_state_arrays(state)
    assert opt2.step_count == 1
    assert opt2.base_lr == 9.0
    assert opt2.weight_decay == 9.0
    assert opt2.total_steps == 1
    assert np.array_equal(opt2.m["w"], opt.m["w"])
    assert np.array_equal(opt2.v["w"], opt.v["w"])
