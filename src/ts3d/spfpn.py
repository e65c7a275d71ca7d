"""Stereo-preserving cost-volume pyramid.

Six correlation volumes (primary + enhanced at three scales) are fused
intra-scale by summation, which is legal because identically shaped volumes
share the same per-channel disparity definition. Cross-scale aggregation is
bottom-up: finer volumes are downsampled by a strided conv and concatenated,
never summed, so no disparity channel is ever mixed with another. Each
aggregated level is finally projected to the decoder width by a 1x1 conv.
"""

from __future__ import annotations


from . import ops
from .backbone import UnaryPyramids
from .config import PYRAMID_VARIANTS
from .layers import Conv2d
from .tensor import ConfigError, DimensionError, Module, ModuleList, Tensor


def intra_scale_fuse(c_primary: Tensor, c_enhanced: Tensor) -> Tensor:
    """Elementwise sum of two cost volumes with identical bin definitions."""
    if c_primary.shape != c_enhanced.shape:
        raise DimensionError(
            "intra-scale fusion requires identical disparity bin definitions: "
            f"got {c_primary.shape[-1]} bins at {c_primary.shape[:2]} vs "
            f"{c_enhanced.shape[-1]} bins at {c_enhanced.shape[:2]}"
        )
    return ops.add(c_primary, c_enhanced)


class SPFPN(Module):
    """Builds and aggregates the stereo feature pyramid.

    ``variant`` selects the aggregation topology; "topdown_fpn" and
    "bifpn_like" exist only as ablation comparisons and deliberately break
    the bin-preservation property that "spfpn" maintains.
    """

    def __init__(self, rng, bins=(24, 48, 96), c_dec=256, variant="spfpn"):
        super().__init__()
        if variant not in PYRAMID_VARIANTS:
            raise ConfigError(f"unknown pyramid variant '{variant}'")
        self.bins = tuple(bins)
        self.variant = variant
        self.agg_channels = self._aggregated_channels()
        if variant == "spfpn":
            self.cross = ModuleList([
                Conv2d(rng, self.agg_channels[i], self.agg_channels[i], k=3, stride=2)
                for i in range(len(self.bins) - 1)
            ])
        elif variant == "topdown_fpn":
            # coarse-to-fine: 1x1 to match bins, then upsample + sum
            self.lat = ModuleList([
                Conv2d(rng, self.bins[i + 1], self.bins[i], k=1)
                for i in range(len(self.bins) - 1)
            ])
        else:  # bifpn_like: top-down pass plus a bottom-up strided pass
            self.lat = ModuleList([
                Conv2d(rng, self.bins[i + 1], self.bins[i], k=1)
                for i in range(len(self.bins) - 1)
            ])
            self.up_path = ModuleList([
                Conv2d(rng, self.bins[i], self.bins[i + 1], k=3, stride=2)
                for i in range(len(self.bins) - 1)
            ])
        self.project = ModuleList([
            Conv2d(rng, c, c_dec, k=1) for c in self.agg_channels
        ])

    def _aggregated_channels(self):
        if self.variant == "spfpn":
            chans = [self.bins[0]]
            for b in self.bins[1:]:
                chans.append(b + chans[-1])
            return chans
        return list(self.bins)

    # -- stages ----------------------------------------------------------

    def build_cost_volumes(self, pyr: UnaryPyramids):
        """Correlate both unary pyramids and fuse them per scale."""
        c_init = []
        for lvl, n_bins in enumerate(self.bins):
            c_c = ops.correlation_volume(pyr.left_primary[lvl], pyr.right_primary[lvl], n_bins)
            c_p = ops.correlation_volume(pyr.left_enhanced[lvl], pyr.right_enhanced[lvl], n_bins)
            c_init.append(intra_scale_fuse(c_c, c_p))
        return c_init

    def cross_scale_aggregate(self, c_init):
        """Bottom-up concat aggregation: C^1 = init; C^l = [init^l, conv(C^{l-1})]."""
        out = [c_init[0]]
        for lvl in range(1, len(c_init)):
            down = ops.relu(self.cross[lvl - 1].forward(out[-1]))
            if down.shape[:2] != c_init[lvl].shape[:2]:
                raise DimensionError(
                    f"cross-scale spatial mismatch at level {lvl + 1}: "
                    f"{down.shape[:2]} vs {c_init[lvl].shape[:2]}"
                )
            out.append(ops.concat([c_init[lvl], down], axis=-1))
        return out

    def _topdown(self, c_init):
        out = [None] * len(c_init)
        out[-1] = c_init[-1]
        for lvl in range(len(c_init) - 2, -1, -1):
            up = ops.upsample2x(self.lat[lvl].forward(out[lvl + 1]))
            out[lvl] = ops.add(c_init[lvl], up)
        return out

    def aggregate(self, c_init):
        if self.variant == "spfpn":
            return self.cross_scale_aggregate(c_init)
        if self.variant == "topdown_fpn":
            return self._topdown(c_init)
        td = self._topdown(c_init)
        out = [td[0]]
        for lvl in range(1, len(td)):
            out.append(ops.add(td[lvl], ops.relu(self.up_path[lvl - 1].forward(out[-1]))))
        return out

    def project_scales(self, aggregated):
        return [proj.forward(c) for proj, c in zip(self.project, aggregated)]

    def forward(self, pyr: UnaryPyramids):
        """Returns (fused per-scale volumes, aggregated volumes, projected keys)."""
        c_init = self.build_cost_volumes(pyr)
        aggregated = self.aggregate(c_init)
        keys = self.project_scales(aggregated)
        return c_init, aggregated, keys
