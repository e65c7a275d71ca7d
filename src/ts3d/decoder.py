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

from dataclasses import dataclass

import numpy as np

from . import ops
from .layers import Linear, ChannelNorm
from .tensor import ConfigError, Module, ModuleList, Tensor


# ---------------------------------------------------------------------------
# positional encodings


def sine_pe_2d(wq: int, hq: int, dims: int, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoidal 2D encoding, (Hq, Wq, dims).

    Half the channels encode the column index, half the row index; within
    each half, sin/cos pairs run over geometrically spaced frequencies with
    base temperature 10000.
    """
    if dims % 4:
        raise ConfigError(f"sinusoidal encoding width must be divisible by 4, got {dims}")
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


@dataclass
class PositionalEncoding:
    pe_sine: np.ndarray      # (Hq, Wq, C_dec - C_disp), fixed
    pe_disp: Tensor          # (Hq, Wq, C_disp), differentiable
    pe_da: Tensor            # (Hq, Wq, C_dec)


def dape(disp_logits: Tensor, c_dec: int) -> PositionalEncoding:
    """Disparity-aware encoding: [sine 2D | softmax(disparity logits)]."""
    hq, wq, c_disp = disp_logits.shape
    if c_disp >= c_dec:
        raise ConfigError(
            f"disparity channels must stay below decoder width, got {c_disp} >= {c_dec}"
        )
    pe_sine = sine_pe_2d(wq, hq, c_dec - c_disp, dtype=disp_logits.dtype)
    pe_disp = ops.softmax(disp_logits, axis=-1)
    pe_da = ops.concat([Tensor(pe_sine), pe_disp], axis=-1)
    return PositionalEncoding(pe_sine=pe_sine, pe_disp=pe_disp, pe_da=pe_da)


def one_hot_disparity_pe(disp_logits: Tensor, c_dec: int) -> Tensor:
    """Ablation encoding: hard argmax disparity as a one-hot block, no 2D code."""
    hq, wq, c_disp = disp_logits.shape
    if c_disp >= c_dec:
        raise ConfigError(
            f"disparity channels must stay below decoder width, got {c_disp} >= {c_dec}"
        )
    idx = disp_logits.data.argmax(axis=-1)
    pe = np.zeros((hq, wq, c_dec), dtype=disp_logits.data.dtype)
    onehot = np.eye(c_disp, dtype=pe.dtype)[idx]
    pe[:, :, c_dec - c_disp :] = onehot
    return Tensor(pe)


# ---------------------------------------------------------------------------
# queries


def reference_points(wq: int, hq: int, dtype=np.float32) -> np.ndarray:
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
        self.c_dec = c_dec

    def forward(self, feat: Tensor):
        hq, wq, c = feat.shape
        flat = ops.reshape(feat, (hq * wq, c))
        x_q = self.proj.forward(flat)
        refs = reference_points(wq, hq, dtype=feat.data.dtype)
        return x_q, refs


def add_positional(x_q: Tensor, pe_flat) -> Tensor:
    """Sum the encoding onto the queries (identity when pe is None)."""
    if pe_flat is None:
        return x_q
    return ops.add(x_q, pe_flat)


# ---------------------------------------------------------------------------
# attention layers


class MHSA(Module):
    """Self-attention: q/k/v projections, one ``ops.attention`` call over all
    heads, output projection."""

    def __init__(self, rng, c_dec, heads):
        super().__init__()
        if c_dec % heads:
            raise ConfigError(f"decoder width {c_dec} not divisible by {heads} heads")
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

    As in Deformable DETR's ``ms_deform_attn_core_pytorch``, all heads of a
    level are sampled in one ``bilinear_sample`` call over its group axis.
    The projected level map is laid out head-major, (heads, H, W, head_dim),
    so each head's channel slice is one contiguous map of the stack, and the
    sampling points are (level, head, query, point, uv).
    """

    def __init__(self, rng, c_dec, heads, points, n_levels):
        super().__init__()
        if c_dec % heads:
            raise ConfigError(f"decoder width {c_dec} not divisible by {heads} heads")
        self.heads = heads
        self.points = points
        self.n_levels = n_levels
        self.head_dim = c_dec // heads
        self.value_proj = Linear(rng, c_dec, c_dec)
        self.offset = Linear(rng, c_dec, heads * n_levels * points * 2, init="zero")
        self.weight = Linear(rng, c_dec, heads * n_levels * points, init="zero")
        self.out_proj = Linear(rng, c_dec, c_dec)

    def forward(self, q: Tensor, refs: np.ndarray, feats) -> Tensor:
        if len(feats) != self.n_levels:
            raise ConfigError(f"expected {self.n_levels} feature levels, got {len(feats)}")
        n, c = q.shape
        m, k, nl = self.heads, self.points, self.n_levels
        hd = self.head_dim

        # pixel sampling points of every level, (level, head, query, point, uv)
        offsets = ops.transpose(ops.reshape(self.offset.forward(q), (n, m, nl, k, 2)),
                                (2, 1, 0, 3, 4))
        dtype = feats[0].data.dtype
        extent = np.array([[f.shape[1], f.shape[0]] for f in feats], dtype=dtype)
        pts_norm = ops.add(Tensor(refs[None, None, :, None, :]), offsets)
        pts_px = ops.sub(ops.mul(pts_norm, Tensor(extent.reshape(nl, 1, 1, 1, 2))),
                         Tensor(np.full(2, 0.5, dtype=dtype)))
        logits = ops.reshape(self.weight.forward(q), (n * m, nl * k))
        weights = ops.transpose(ops.reshape(ops.softmax(logits, axis=-1), (n, m, nl, k, 1)),
                                (2, 1, 0, 3, 4))

        total = None
        for lvl, feat in enumerate(feats):
            hl, wl, cl = feat.shape
            if cl != c:
                raise ConfigError(
                    f"level {lvl + 1} has {cl} channels, expected decoder width {c}"
                )
            # head-major (m, hl, wl, hd); without a graph the (hl, wl, c) map is freed here
            value = ops.transpose(ops.reshape(
                self.value_proj.forward(ops.reshape(feat, (hl * wl, c))), (hl, wl, m, hd)),
                (2, 0, 1, 3))
            pts = ops.reshape(ops.narrow(pts_px, 0, lvl, 1), (m, n * k, 2))
            sampled = ops.reshape(ops.bilinear_sample(value, pts), (m, n, k, hd))
            w_lvl = ops.reshape(ops.narrow(weights, 0, lvl, 1), (m, n, k, 1))
            term = ops.sum_(ops.mul(sampled, w_lvl), axis=2)  # (m, n, hd)
            total = term if total is None else ops.add(total, term)
        merged = ops.reshape(ops.transpose(total, (1, 0, 2)), (n, c))
        return self.out_proj.forward(merged)


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

    def forward(self, q: Tensor, pe_flat, refs, feats) -> Tensor:
        h = add_positional(q, pe_flat)
        h = self.norm1.forward(ops.add(h, self.mhsa.forward(h)))
        h = self.norm2.forward(ops.add(h, self.cross.forward(h, refs, feats)))
        h = self.norm3.forward(ops.add(h, self.ffn.forward(h)))
        return h


class DecoderStack(Module):
    """Cascade of decoder layers; every layer's output is kept so training
    heads can supervise each one (inference reads only the last)."""

    def __init__(self, rng, n_layers, c_dec, heads, points, n_levels,
                 ffn_hidden=None):
        super().__init__()
        if ffn_hidden is None:
            ffn_hidden = 4 * c_dec
        self.layers = ModuleList([
            DecoderLayer(rng, c_dec, heads, points, n_levels, ffn_hidden)
            for _ in range(n_layers)
        ])

    def forward(self, x_q: Tensor, pe_flat, refs, feats):
        out = []
        q = x_q
        for layer in self.layers:
            q = layer.forward(q, pe_flat, refs, feats)
            out.append(q)
        return out
