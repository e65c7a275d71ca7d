"""Weight-shared two-view feature extraction.

A small residual encoder produces the primary pyramid (strides 4/8/16) and a
top-down lateral-fusion pyramid produces the enhanced pyramid at the same
strides. The same parameters process both views: weight sharing is a hard
contract, so swapping the input images swaps the output pyramids exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ops
from .layers import Conv2d, ConvNorm
from .tensor import Module, ModuleList, Tensor


@dataclass
class UnaryPyramids:
    """Per-view features; index 0..2 correspond to strides 4, 8, 16."""

    left_primary: list = field(default_factory=list)
    right_primary: list = field(default_factory=list)
    left_enhanced: list = field(default_factory=list)
    right_enhanced: list = field(default_factory=list)


class ResidualBlock(Module):
    def __init__(self, rng, channels):
        super().__init__()
        self.c1 = ConvNorm(rng, channels, channels, act=True)
        self.c2 = ConvNorm(rng, channels, channels, act=False)

    def forward(self, x):
        return ops.relu(ops.add(x, self.c2.forward(self.c1.forward(x))))


class Stage(Module):
    def __init__(self, rng, c_in, c_out, n_blocks):
        super().__init__()
        self.down = ConvNorm(rng, c_in, c_out, stride=2)
        self.blocks = ModuleList([ResidualBlock(rng, c_out) for _ in range(n_blocks)])

    def forward(self, x):
        x = self.down.forward(x)
        for b in self.blocks:
            x = b.forward(x)
        return x


class Backbone(Module):
    """Residual encoder + top-down pyramid, applied identically to both views."""

    def __init__(self, rng, width, blocks_per_stage):
        super().__init__()
        self.stem = ConvNorm(rng, 3, width, stride=2)
        self.stage1 = Stage(rng, width, width, blocks_per_stage)
        self.stage2 = Stage(rng, width, width, blocks_per_stage)
        self.stage3 = Stage(rng, width, width, blocks_per_stage)
        self.lateral = ModuleList(
            [Conv2d(rng, width, width, k=1) for _ in range(3)]
        )
        self.smooth = ModuleList(
            [Conv2d(rng, width, width, k=3) for _ in range(3)]
        )

    def forward_view(self, img: Tensor):
        x = self.stem.forward(img)
        c2 = self.stage1.forward(x)
        c3 = self.stage2.forward(c2)
        c4 = self.stage3.forward(c3)
        primary = [c2, c3, c4]
        p4 = self.lateral[2].forward(c4)
        p3 = ops.add(self.lateral[1].forward(c3), ops.upsample2x(p4))
        p2 = ops.add(self.lateral[0].forward(c2), ops.upsample2x(p3))
        enhanced = [
            self.smooth[0].forward(p2),
            self.smooth[1].forward(p3),
            self.smooth[2].forward(p4),
        ]
        return primary, enhanced

    def forward(self, img_left: Tensor, img_right: Tensor) -> UnaryPyramids:
        lc, lp = self.forward_view(img_left)
        rc, rp = self.forward_view(img_right)
        return UnaryPyramids(
            left_primary=lc, right_primary=rc, left_enhanced=lp, right_enhanced=rp
        )
