"""Transformer decoder: positional encoding, grid queries, self-attention,
and multi-scale deformable cross-attention.

Queries are the flattened lowest-resolution stereo feature (one per stride-16
grid cell, no learnable query embeddings). The positional encoding is the
concatenation of a fixed sinusoidal 2D code and the softmax-normalized
disparity logits, so it carries both image position and scene depth; it is
added to the queries at the input of every decoder layer.

Self-attention over the grid queries is one ``ops.attention`` call, which
works through the query rows in blocks and so never holds the full
(heads, queries, queries) score matrix, in the forward or the backward pass.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .layers import Linear, ChannelNorm
from .tensor import Module, ModuleList, Tensor


# ---------------------------------------------------------------------------
# positional encodings


def sine_pe_2d(wq: int, hq: int, dims: int, dtype) -> np.ndarray:
    """Fixed sinusoidal 2D encoding, (Hq, Wq, dims).

    Half the channels encode the column index, half the row index; within
    each half, sin/cos pairs run over geometrically spaced frequencies with
    base temperature 10000. ``dims`` divides by 4 (``RunConfig.validate``).
    """
    d_axis = dims // 2
    n_pairs = d_axis // 2
    freqs = 10000.0 ** (-np.arange(n_pairs, dtype=np.float64) * 2.0 / d_axis)

    def encode(positions):
        ang = positions[:, None] * freqs[None, :]
        block = np.empty((len(positions), d_axis))
        block[:, 0::2] = np.sin(ang)
        block[:, 1::2] = np.cos(ang)
        return block

    u_block = encode(np.arange(wq, dtype=np.float64))  # (Wq, d_axis)
    v_block = encode(np.arange(hq, dtype=np.float64))  # (Hq, d_axis)
    pe = np.concatenate(
        [
            np.broadcast_to(u_block[None, :, :], (hq, wq, d_axis)),
            np.broadcast_to(v_block[:, None, :], (hq, wq, d_axis)),
        ],
        axis=-1,
    )
    return np.ascontiguousarray(pe, dtype=dtype)


def dape(disp_logits: Tensor, c_dec: int) -> Tensor:
    """Disparity-aware encoding, (Hq, Wq, c_dec): the fixed sine 2D code in the
    first c_dec - C_disp channels, softmax(disparity logits) in the last C_disp."""
    hq, wq, c_disp = disp_logits.shape
    pe_sine = sine_pe_2d(wq, hq, c_dec - c_disp, dtype=disp_logits.dtype)
    return ops.concat([Tensor(pe_sine), ops.softmax(disp_logits)], axis=-1)


def one_hot_disparity_pe(disp_logits: Tensor, c_dec: int) -> Tensor:
    """Ablation encoding: hard argmax disparity as a one-hot block, no 2D code."""
    hq, wq, c_disp = disp_logits.shape
    idx = disp_logits.data.argmax(axis=-1)
    pe = np.zeros((hq, wq, c_dec), dtype=disp_logits.data.dtype)
    onehot = np.eye(c_disp, dtype=pe.dtype)[idx]
    pe[:, :, c_dec - c_disp :] = onehot
    return Tensor(pe)


# ---------------------------------------------------------------------------
# queries


def reference_points(wq: int, hq: int, dtype) -> np.ndarray:
    """Normalized cell-center coordinates, row-major: query k -> cell
    (k mod Wq, k div Wq)."""
    us = (np.arange(wq) + 0.5) / wq
    vs = (np.arange(hq) + 0.5) / hq
    grid_u, grid_v = np.meshgrid(us, vs)
    return np.stack([grid_u.reshape(-1), grid_v.reshape(-1)], axis=1).astype(dtype)


class GridQuery(Module):
    """1x1-conv the lowest-resolution feature to decoder width and flatten it
    into one query per grid cell."""

    def __init__(self, rng, in_channels, c_dec):
        super().__init__()
        self.proj = Linear(rng, in_channels, c_dec)

    def forward(self, feat: Tensor):
        hq, wq, c = feat.shape
        flat = ops.reshape(feat, (hq * wq, c))
        x_q = self.proj.forward(flat)
        refs = reference_points(wq, hq, dtype=feat.data.dtype)
        return x_q, refs


# ---------------------------------------------------------------------------
# attention layers


class MHSA(Module):
    """Self-attention: q/k/v projections, one ``ops.attention`` call over all
    heads, output projection."""

    def __init__(self, rng, c_dec, heads):
        super().__init__()
        self.heads = heads
        self.q_proj = Linear(rng, c_dec, c_dec)
        self.k_proj = Linear(rng, c_dec, c_dec)
        self.v_proj = Linear(rng, c_dec, c_dec)
        self.out_proj = Linear(rng, c_dec, c_dec)

    def forward(self, x: Tensor) -> Tensor:
        ctx = ops.attention(self.q_proj.forward(x), self.k_proj.forward(x),
                            self.v_proj.forward(x), self.heads)
        return self.out_proj.forward(ctx)


class MSDeformCA(Module):
    """Multi-scale deformable cross-attention.

    Per query and head, a linear layer regresses K offsets for each feature
    level (in normalized coordinates, scaled by the level extents) plus
    softmax weights over all levels*K sampled points. Offset and weight
    layers start at zero so training begins from plain reference-point
    lookups with uniform weights.

    The levels arrive as factored projections (``spfpn.LevelProjection``):
    level l's map is ``agg_l @ P_l + p_l``, and ``value_proj`` (V, v) maps it
    on, so its values are ``agg_l @ (P_l V) + (p_l V + v)``. The folded
    (c_l, c_dec) kernel and bias are computed through autodiff, so P, p, V
    and v all get gradients, and one ``linear`` GEMM writes each level's
    (H, W, c_dec) map, head h in channels [h head_dim, (h+1) head_dim). One
    ``ms_deform_attn`` node then samples every level and head from these
    channel-merged maps, as Deformable DETR's ``ms_deform_attn_core_pytorch``
    does. A level projecting to another width fails in ``ops.matmul``, and a
    level count other than ``n_levels`` or a width that does not divide into
    ``heads`` in ``ops.ms_deform_attn``, each a ``DimensionError`` naming the op.
    """

    def __init__(self, rng, c_dec, heads, points, n_levels):
        super().__init__()
        self.heads = heads
        self.points = points
        self.n_levels = n_levels
        self.value_proj = Linear(rng, c_dec, c_dec)
        self.offset = Linear(rng, c_dec, heads * n_levels * points * 2, init="zero")
        self.weight = Linear(rng, c_dec, heads * n_levels * points, init="zero")
        self.out_proj = Linear(rng, c_dec, c_dec)

    def value_maps(self, levels):
        """The (H, W, c_dec) value maps of the factored level projections."""
        maps = []
        for agg, kernel, bias in levels:
            w = ops.matmul(kernel, self.value_proj.w)
            b = ops.linear(bias, self.value_proj.w, self.value_proj.b)
            maps.append(ops.linear(agg, w, b))
        return maps

    def forward(self, q: Tensor, refs: np.ndarray, levels) -> Tensor:
        n = q.shape[0]
        m, k, nl = self.heads, self.points, self.n_levels
        locations = ops.add(ops.reshape(self.offset.forward(q), (n, m, nl, k, 2)),
                            Tensor(refs[:, None, None, None, :]))
        logits = ops.reshape(self.weight.forward(q), (n, m, nl * k))
        weights = ops.reshape(ops.softmax(logits), (n, m, nl, k))
        ctx = ops.ms_deform_attn(self.value_maps(levels), locations, weights)
        return self.out_proj.forward(ctx)


class FFN(Module):
    def __init__(self, rng, c_dec, hidden):
        super().__init__()
        self.fc1 = Linear(rng, c_dec, hidden)
        self.fc2 = Linear(rng, hidden, c_dec)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2.forward(ops.relu(self.fc1.forward(x)))


class DecoderLayer(Module):
    """positional add -> self-attention -> deformable cross-attention -> FFN,
    residual + channel_norm around each attention/FFN sublayer."""

    def __init__(self, rng, c_dec, heads, points, n_levels, ffn_hidden):
        super().__init__()
        self.mhsa = MHSA(rng, c_dec, heads)
        self.cross = MSDeformCA(rng, c_dec, heads, points, n_levels)
        self.ffn = FFN(rng, c_dec, ffn_hidden)
        self.norm1 = ChannelNorm(c_dec)
        self.norm2 = ChannelNorm(c_dec)
        self.norm3 = ChannelNorm(c_dec)

    def forward(self, q: Tensor, pe_flat, refs, levels) -> Tensor:
        h = q if pe_flat is None else ops.add(q, pe_flat)
        h = self.norm1.forward(ops.add(h, self.mhsa.forward(h)))
        h = self.norm2.forward(ops.add(h, self.cross.forward(h, refs, levels)))
        h = self.norm3.forward(ops.add(h, self.ffn.forward(h)))
        return h


class DecoderStack(Module):
    """Cascade of at least one decoder layer; every layer's output is kept,
    because training supervises each one (inference reads only the last)."""

    def __init__(self, rng, n_layers, c_dec, heads, points, n_levels):
        super().__init__()
        # the FFN widens to 4x the query width, as in Deformable DETR (256 -> 1024)
        self.layers = ModuleList([
            DecoderLayer(rng, c_dec, heads, points, n_levels, ffn_hidden=4 * c_dec)
            for _ in range(n_layers)
        ])

    def forward(self, x_q: Tensor, pe_flat, refs, levels):
        out = []
        q = x_q
        for layer in self.layers:
            q = layer.forward(q, pe_flat, refs, levels)
            out.append(q)
        return out
