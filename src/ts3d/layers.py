"""Reusable parameterized layers: conv, linear, channel normalization."""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Module, Parameter


def he_init(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)


def xavier_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Conv2d(Module):
    def __init__(self, rng, c_in, c_out, k=3, stride=1, padding=None, bias=True,
                 dtype=np.float32):
        super().__init__()
        if padding is None:
            padding = k // 2
        self.stride = stride
        self.padding = padding
        self.w = Parameter(he_init(rng, (k, k, c_in, c_out), k * k * c_in, dtype), dtype=dtype)
        self.b = Parameter(np.zeros(c_out, dtype=dtype), dtype=dtype) if bias else None

    def forward(self, x):
        return ops.conv2d(x, self.w.tensor,
                          self.b.tensor if self.b is not None else None,
                          stride=self.stride, padding=self.padding)


class Linear(Module):
    def __init__(self, rng, c_in, c_out, bias=True, dtype=np.float32, init="xavier"):
        super().__init__()
        if init == "zero":
            w = np.zeros((c_in, c_out), dtype=dtype)
        else:
            w = xavier_init(rng, (c_in, c_out), c_in, c_out, dtype)
        self.w = Parameter(w, dtype=dtype)
        self.b = Parameter(np.zeros(c_out, dtype=dtype), dtype=dtype) if bias else None

    def forward(self, x):
        return ops.linear(x, self.w.tensor, self.b.tensor if self.b is not None else None)


class ChannelNorm(Module):
    """Per-channel affine normalization over the leading axes of one sample."""

    def __init__(self, channels, dtype=np.float32, eps=1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(channels, dtype=dtype), dtype=dtype)
        self.beta = Parameter(np.zeros(channels, dtype=dtype), dtype=dtype)

    def forward(self, x):
        return ops.channel_norm(x, self.gamma.tensor, self.beta.tensor, eps=self.eps)


class ConvNorm(Module):
    """conv -> channel_norm -> optional relu."""

    def __init__(self, rng, c_in, c_out, k=3, stride=1, act=True, dtype=np.float32):
        super().__init__()
        self.conv = Conv2d(rng, c_in, c_out, k=k, stride=stride, bias=False, dtype=dtype)
        self.norm = ChannelNorm(c_out, dtype=dtype)
        self.act = act

    def forward(self, x):
        y = self.norm.forward(self.conv.forward(x))
        return ops.relu(y) if self.act else y
