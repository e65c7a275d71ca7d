"""Stereo-preserving cost-volume pyramid.

Six correlation volumes (primary + enhanced at three scales) are fused
intra-scale by summation (``ops.add``), which is legal because the two volumes
of a scale share the same per-channel disparity definition. Cross-scale aggregation is
bottom-up: finer volumes are downsampled by a strided conv and concatenated,
never summed, so no disparity channel is ever mixed with another. Each
aggregated level finally has a 1x1 conv projection to the decoder width,
handed on in factored form (``LevelProjection``): every decoder layer folds it
into its own value projection, so the projected maps are never built.

The variant and the input extents come from a ``RunConfig`` that ``TS3D``
validated, so the two volumes of a scale have one shape and each stride-2 conv
halves a level onto the next; nothing here checks either again.
"""

from __future__ import annotations

from typing import NamedTuple

from . import ops
from .backbone import UnaryPyramids
from .layers import Conv2d
from .tensor import Module, ModuleList, Tensor


class LevelProjection(NamedTuple):
    """One level's 1x1 projection in factored form: the projected map is
    ``ops.linear(*level)`` over the level's pixels, and the model never
    builds it; only checks do."""

    agg: Tensor     # (H, W, c_l) aggregated cost volume
    kernel: Tensor  # (c_l, c_dec) 1x1 conv kernel
    bias: Tensor    # (c_dec,)


class SPFPN(Module):
    """Builds and aggregates the stereo feature pyramid.

    ``variant`` selects the aggregation topology; "topdown_fpn" and
    "bifpn_like" exist only as ablation comparisons and deliberately break
    the bin-preservation property that "spfpn" maintains.
    """

    def __init__(self, rng, bins, c_dec, variant):
        super().__init__()
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
            c_init.append(ops.add(c_c, c_p))
        return c_init

    def cross_scale_aggregate(self, c_init):
        """Bottom-up concat aggregation: C^1 = init; C^l = [init^l, conv(C^{l-1})]."""
        out = [c_init[0]]
        for lvl in range(1, len(c_init)):
            down = ops.relu(self.cross[lvl - 1].forward(out[-1]))
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
        """Each level's ``project`` conv as a LevelProjection: the aggregated
        volume, the conv's (c_l, c_dec) kernel and its (c_dec,) bias. Decoder
        layers compose kernel and bias with their value projection, so no
        c_dec-wide map is computed here."""
        return [LevelProjection(c, ops.reshape(proj.w, proj.w.shape[2:]), proj.b)
                for proj, c in zip(self.project, aggregated)]

    def forward(self, pyr: UnaryPyramids):
        """Returns (aggregated volumes, their factored projections)."""
        aggregated = self.aggregate(self.build_cost_volumes(pyr))
        return aggregated, self.project_scales(aggregated)
