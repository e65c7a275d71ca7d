"""Reusable parameterized layers: conv, linear, channel normalization.

Parameters are drawn in float64; the model casts them once (``Module.astype``).
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Module, Parameter


def he_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def xavier_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv2d(Module):
    """k x k convolution with 'same' padding (k // 2) and an optional bias."""

    def __init__(self, rng, c_in, c_out, k=3, stride=1, bias=True):
        super().__init__()
        self.stride = stride
        self.padding = k // 2
        self.w = Parameter(he_init(rng, (k, k, c_in, c_out), k * k * c_in))
        self.b = Parameter(np.zeros(c_out)) if bias else None

    def forward(self, x):
        return ops.conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)


class Linear(Module):
    def __init__(self, rng, c_in, c_out, init="xavier"):
        super().__init__()
        if init == "zero":
            w = np.zeros((c_in, c_out))
        else:
            w = xavier_init(rng, (c_in, c_out), c_in, c_out)
        self.w = Parameter(w)
        self.b = Parameter(np.zeros(c_out))

    def forward(self, x):
        return ops.linear(x, self.w, self.b)


class ChannelNorm(Module):
    """Per-channel affine normalization over the leading axes of one sample."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))

    def forward(self, x):
        return ops.channel_norm(x, self.gamma, self.beta)


class ConvNorm(Module):
    """3x3 conv -> channel_norm -> optional relu, run as one fused
    ``ops.conv_norm_act`` node; the ``conv`` and ``norm`` children only hold
    its parameters (``conv.w``, ``norm.gamma``, ``norm.beta``)."""

    def __init__(self, rng, c_in, c_out, stride=1, act=True):
        super().__init__()
        self.conv = Conv2d(rng, c_in, c_out, stride=stride, bias=False)
        self.norm = ChannelNorm(c_out)
        self.act = act

    def forward(self, x):
        return ops.conv_norm_act(x, self.conv.w, self.norm.gamma, self.norm.beta,
                                 self.act, self.conv.stride, self.conv.padding)
