"""Differentiable operators over Tensor.

The operator set the detector runs: elementwise arithmetic (add, scale,
relu), shape ops, matmul, the affine map over any leading shape (linear),
conv2d (a row-blocked im2col GEMM), row-blocked multi-scale deformable
attention over channel-merged value maps (ms_deform_attn), normalization,
the backbone's fused conv -> channel_norm -> relu (conv_norm_act), softmax
over the last axis, row-blocked multi-head attention, nearest upsampling,
the stereo correlation volume, and the training losses (focal_loss,
smooth_l1, soft_cross_entropy); each fused op is one node with a closed-form
backward. The model no longer calls bilinear_sample: it stays only for
perfbench's tracer hook and its two gradcheck entries, until ROADMAP item 8
deletes it with them. There is no product or reduction op: an output needs
no scalar objective, since Tensor.backward takes any seed.
Every operand an op differentiates is a Tensor, as is every list element of
concat and ms_deform_attn; ops convert nothing, so a caller wraps a constant
array in Tensor itself. Loss targets and weights are plain arrays.
Each op validates shapes up front and registers a backward closure that
returns one gradient per parent, None where there is none; Tensor.backward
accumulates them into the parents (fan-out gradients add).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .tensor import DimensionError, Tensor, grad_enabled, make_node


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    data = a.data + b.data

    def build():
        def bw(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
        return bw

    return make_node(data, (a, b), "add", build)


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar (no dtype promotion)."""
    s = float(s)

    def build():
        def bw(g):
            return (g * s,)
        return bw

    return make_node(a.data * s, (a,), "scale", build)


def relu(a) -> Tensor:
    def build():
        def bw(g):
            return (g * (a.data > 0),)
        return bw

    return make_node(np.maximum(a.data, 0.0), (a,), "relu", build)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape) -> Tensor:
    shape = tuple(shape)

    def build():
        def bw(g):
            return (g.reshape(a.shape),)
        return bw

    return make_node(a.data.reshape(shape), (a,), "reshape", build)


def concat(tensors, axis: int = -1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def build():
        cuts = np.cumsum([t.shape[axis] for t in tensors])[:-1]

        def bw(g):
            return [np.ascontiguousarray(part) for part in np.split(g, cuts, axis=axis)]
        return bw

    return make_node(data, tensors, "concat", build)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Static slice along one axis."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def build():
        def bw(g):
            ga = np.zeros_like(a.data)
            ga[idx] = g
            return (ga,)
        return bw

    return make_node(a.data[idx], (a,), "narrow", build)


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0; scatter-adds on the way back."""
    indices = np.asarray(indices, dtype=np.int64)

    def build():
        def bw(g):
            ga = np.zeros_like(a.data)
            np.add.at(ga, indices, g)
            return (ga,)
        return bw

    return make_node(a.data[indices], (a,), "take_rows", build)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product of 2-D operands."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner axes differ: {a.shape}[-1] != {b.shape}[-2]"
        )
    data = a.data @ b.data

    def build():
        def bw(g):
            return g @ b.data.T, a.data.T @ g
        return bw

    return make_node(data, (a, b), "matmul", build)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for (..., cin) inputs x, a (cin, c) kernel w and a (c,)
    bias b, as one node over the flattened (N, cin) rows."""
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise DimensionError(
            f"linear expects (...,cin) inputs, a (cin,c) kernel and a (c,) bias, "
            f"got {x.shape}, {w.shape} and {b.shape}"
        )
    cin, c = w.shape
    xm = x.data.reshape(-1, cin)
    data = xm @ w.data
    data += b.data

    def build():
        def bw(g):
            gm = g.reshape(-1, c)
            gx = (gm @ w.data.T).reshape(x.shape) if x.requires_grad else None
            return gx, xm.T @ gm, gm.sum(axis=0)
        return bw

    return make_node(data.reshape(x.shape[:-1] + (c,)), (x, w, b), "linear", build)


# ---------------------------------------------------------------------------
# softmax


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def build():
        def bw(g):
            dot = (g * data).sum(axis=-1, keepdims=True)
            return (data * (g - dot),)
        return bw

    return make_node(data, (a,), "softmax", build)


# ---------------------------------------------------------------------------
# attention

# Query rows per block: one block's scores are (heads, ATTENTION_ROW_BLOCK, m).
ATTENTION_ROW_BLOCK = 128
# Floor on the max-shifted scores: exp(-64) ~ 1.6e-28 is a normal float32, so
# no exponential is subnormal (x86 computes with those many times slower).
# A floored entry's probability is at most 1.6e-28, so each row's probability
# mass moves by less than m * 1.6e-28.
ATTENTION_SCORE_FLOOR = -64.0


def _attention_probs(qh_rows: np.ndarray, kt: np.ndarray):
    """Unnormalised row softmax of (heads, b, d) @ (heads, d, m) scores.

    Returns the exponentials e of the max-shifted scores, floored at
    ATTENTION_SCORE_FLOOR, in place of the scores, and their (heads, b, 1)
    row sums; the probabilities are e / rowsum. The floor is there because
    untrained models spread scores so widely that exp of the unfloored
    shifted scores is subnormal, and arithmetic on those is several times
    slower on x86.
    """
    p = qh_rows @ kt
    p -= p.max(axis=-1, keepdims=True)
    np.maximum(p, ATTENTION_SCORE_FLOOR, out=p)
    np.exp(p, out=p)
    return p, p.sum(axis=-1, keepdims=True)


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of (n, c) queries over (m, c)
    keys and values, giving the merged (n, c) context: head h reads channels
    [h*d, (h+1)*d) with d = c / heads and weights softmax(q_h k_h^T / sqrt(d)).

    Query rows are processed in blocks of ATTENTION_ROW_BLOCK, so no
    (heads, n, m) score array exists in either pass: backward keeps only the
    head-major (scaled) q, k^T and v copies, recomputes each block's
    probabilities P and uses dS = P * (dP - rowsum(g * out)), as in
    FlashAttention (Dao et al., arXiv 2205.14135). As there, the forward
    pass defers the softmax normalisation: it computes (e @ v) / rowsum(e),
    dividing the (heads, b, d) output rather than the (heads, b, m)
    exponentials, d divisions per row instead of m. Backward needs P itself
    and divides e once. Shifted scores below ATTENTION_SCORE_FLOOR are
    raised to it (see _attention_probs), which keeps every exponential
    normal.
    """
    if (q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]
            or heads < 1 or q.shape[1] % heads):
        raise DimensionError(
            f"attention expects (n,c) queries and (m,c) keys/values with c divisible "
            f"by {heads} heads, got {q.shape}, {k.shape}, {v.shape}"
        )
    n, c = q.shape
    m = k.shape[0]
    d = c // heads
    s = 1.0 / math.sqrt(d)
    qh = np.ascontiguousarray((q.data * s).reshape(n, heads, d).transpose(1, 0, 2))
    kt = np.ascontiguousarray(k.data.reshape(m, heads, d).transpose(1, 2, 0))
    vh = np.ascontiguousarray(v.data.reshape(m, heads, d).transpose(1, 0, 2))
    data = np.empty((n, c), dtype=q.dtype)
    data_h = data.reshape(n, heads, d)
    for r0 in range(0, n, ATTENTION_ROW_BLOCK):
        r1 = min(r0 + ATTENTION_ROW_BLOCK, n)
        e, rowsum = _attention_probs(qh[:, r0:r1], kt)
        data_h[r0:r1] = ((e @ vh) / rowsum).transpose(1, 0, 2)

    def build():
        def merged(x):  # (heads, rows, d) -> (rows, c)
            return x.transpose(1, 0, 2).reshape(-1, c)

        def bw(g):
            gh = np.ascontiguousarray(g.reshape(n, heads, d).transpose(1, 0, 2))
            delta = (g * data).reshape(n, heads, d).sum(axis=-1).T[:, :, None]
            dq = np.empty_like(qh)
            dk = np.zeros_like(vh)
            dv = np.zeros_like(vh)
            for r0 in range(0, n, ATTENTION_ROW_BLOCK):
                r1 = min(r0 + ATTENTION_ROW_BLOCK, n)
                p, rowsum = _attention_probs(qh[:, r0:r1], kt)
                p /= rowsum
                g_rows = gh[:, r0:r1]
                dv += p.swapaxes(-1, -2) @ g_rows
                ds = g_rows @ vh.swapaxes(-1, -2)
                ds -= delta[:, r0:r1]
                ds *= p
                dq[:, r0:r1] = ds @ kt.swapaxes(-1, -2)
                dk += ds.swapaxes(-1, -2) @ qh[:, r0:r1]
            return merged(dq * s), merged(dk), merged(dv)
        return bw

    return make_node(data, (q, k, v), "attention", build)


# ---------------------------------------------------------------------------
# normalization

NORM_EPS = 1e-5


def channel_norm(x, gamma, beta) -> Tensor:
    """Per-channel affine normalization over all leading (spatial) axes.

    Statistics come from the single sample itself, so the result is
    deterministic and batch-free. The last axis is the channel axis.
    """
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise DimensionError(
            f"channel_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"channel count {x.shape[-1]}"
        )
    red = tuple(range(x.ndim - 1))
    mu = x.data.mean(axis=red, keepdims=True)
    var = x.data.var(axis=red, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def build():
        n = 1
        for ax in red:
            n *= x.shape[ax]

        def bw(g):
            gy = g * gamma.data
            m1 = gy.mean(axis=red, keepdims=True)
            m2 = (gy * xhat).mean(axis=red, keepdims=True)
            return inv * (gy - m1 - xhat * m2), (g * xhat).sum(axis=red), g.sum(axis=red)
        return bw

    return make_node(data, (x, gamma, beta), "channel_norm", build)


# ---------------------------------------------------------------------------
# convolution

# Upper bound on the elements of one im2col column block: output rows are
# taken max(1, CONV_COLUMN_ELEMENTS // (wo * kh * kw * cin)) at a time.
CONV_COLUMN_ELEMENTS = 1 << 20


def conv_output_extent(n: int, k: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - k) // stride + 1


def _im2col_blocks(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int):
    """Yield (r0, r1, columns) over blocks of output rows; ``columns`` is the
    ((r1 - r0) * wo, kh * kw * cin) im2col matrix of output rows [r0, r1),
    its columns ordered (tap row, tap column, input channel)."""
    cin = xp.shape[2]
    windows = sliding_window_view(xp, (kh, kw), axis=(0, 1))[::stride, ::stride]
    windows = windows.transpose(0, 1, 3, 4, 2)
    rows = max(1, CONV_COLUMN_ELEMENTS // (wo * kh * kw * cin))
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        yield r0, r1, windows[r0:r1].reshape(-1, kh * kw * cin)


def _pad_hw(data: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad an (H, W, C) array by ``padding`` on both spatial axes."""
    if not padding:
        return data
    h, w, c = data.shape
    out = np.zeros((h + 2 * padding, w + 2 * padding, c), dtype=data.dtype)
    out[padding : padding + h, padding : padding + w] = data
    return out


def _conv_forward(x: Tensor, kernel: Tensor, stride: int, padding: int):
    """Check the shapes of a conv and return its (ho, wo, cout) output
    without bias."""
    if x.ndim != 3 or kernel.ndim != 4:
        raise DimensionError(
            f"conv2d expects (H,W,Cin) input and (kh,kw,Cin,Cout) kernel, got "
            f"{x.shape} and {kernel.shape}"
        )
    kh, kw, cin_k, cout = kernel.shape
    h, w, cin = x.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise DimensionError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    if cin != cin_k:
        raise DimensionError(
            f"conv2d channel mismatch: input axis 2 has {cin}, kernel axis 2 has {cin_k}"
        )
    if stride < 1 or padding < 0:
        raise DimensionError("conv2d requires stride >= 1 and padding >= 0")
    ho = conv_output_extent(h, kh, stride, padding)
    wo = conv_output_extent(w, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise DimensionError(
            f"conv2d output would be empty for input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    xp = _pad_hw(x.data, padding)
    kmat = kernel.data.reshape(kh * kw * cin, cout)
    out = np.empty((ho * wo, cout), dtype=x.dtype)
    for r0, r1, cols in _im2col_blocks(xp, kh, kw, stride, ho, wo):
        np.matmul(cols, kmat, out=out[r0 * wo : r1 * wo])
    return out.reshape(ho, wo, cout)


def _conv_backward(x: Tensor, kernel: Tensor, g: np.ndarray, stride: int, padding: int):
    """The (gx, gk) input and kernel gradients of a bias-free conv from its
    (ho, wo, cout) output gradient ``g``, each None when that operand needs
    no gradient (the stem's image input): the kernel gradient as im2col GEMMs
    over ``x.data`` padded again here, so the graph holds no padded copy until
    backward; the input gradient as a GEMM and a strided scatter-add for each
    tap into a padded buffer, then cropped."""
    kh, kw, cin, cout = kernel.shape
    ho, wo, _ = g.shape
    h, w, _ = x.shape
    gmat = g.reshape(ho * wo, cout)
    gx = gk = None
    if kernel.requires_grad:
        xp = _pad_hw(x.data, padding)
        gk = np.zeros((kh * kw * cin, cout), dtype=kernel.dtype)
        for r0, r1, cols in _im2col_blocks(xp, kh, kw, stride, ho, wo):
            gk += cols.T @ gmat[r0 * wo : r1 * wo]
        gk = gk.reshape(kernel.shape)
    if x.requires_grad:
        gx = np.zeros((h + 2 * padding, w + 2 * padding, cin), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                gx[i : i + (ho - 1) * stride + 1 : stride,
                   j : j + (wo - 1) * stride + 1 : stride, :] += (
                    gmat @ kernel.data[i, j].T
                ).reshape(ho, wo, cin)
        if padding:
            gx = np.ascontiguousarray(gx[padding : padding + h, padding : padding + w])
    return gx, gk


def conv2d(x, kernel, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over an (H, W, Cin) input with an (kh, kw, Cin, Cout)
    kernel. Differentiable w.r.t. input, kernel, bias.

    The forward pass and the kernel gradient are im2col GEMMs over blocks of
    output rows (Chellapilla et al., 2006), each block's column matrix capped
    at CONV_COLUMN_ELEMENTS; the input gradient is scattered tap by tap.
    """
    out = _conv_forward(x, kernel, stride, padding)
    if bias is not None:
        out += bias.data

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def build():
        def bw(g):
            grads = _conv_backward(x, kernel, g, stride, padding)
            return grads if bias is None else (*grads, g.sum(axis=(0, 1)))
        return bw

    return make_node(out, parents, "conv2d", build)


def conv_norm_act(x, kernel, gamma, beta, relu: bool, stride: int, padding: int) -> Tensor:
    """``relu(channel_norm(conv2d(x, kernel), gamma, beta))`` as one node; the
    relu is applied only when ``relu`` is true.

    The conv is conv2d's bias-free path. Its output is centred in place, the
    variance comes from one pass (``einsum('nc,nc->c')``), and the affine and
    relu are applied in place; with a graph the normalized values are kept
    for the hand-written backward, otherwise the conv output buffer becomes
    the result.
    """
    y = _conv_forward(x, kernel, stride, padding)
    ho, wo, cout = y.shape
    if gamma.shape != (cout,) or beta.shape != (cout,):
        raise DimensionError(
            f"conv_norm_act affine shapes {gamma.shape}/{beta.shape} do not match "
            f"channel count {cout}"
        )
    parents = (x, kernel, gamma, beta)
    keep_xhat = grad_enabled() and any(p.requires_grad for p in parents)
    n = ho * wo
    xhat = y.reshape(n, cout)
    xhat -= xhat.mean(axis=0)
    inv = 1.0 / np.sqrt(np.einsum("nc,nc->c", xhat, xhat) / n + NORM_EPS)
    xhat *= inv
    out = np.multiply(xhat, gamma.data, out=None if keep_xhat else xhat)
    out += beta.data
    if relu:
        np.maximum(out, 0.0, out=out)

    def build():
        def bw(g):
            ga = g.reshape(n, cout)
            if relu:
                ga = ga * (out > 0)
            g_beta = ga.sum(axis=0)
            g_gamma = np.einsum("nc,nc->c", ga, xhat)
            gy = xhat * (g_gamma / n)
            np.subtract(ga, gy, out=gy)
            gy -= g_beta / n
            gy *= inv * gamma.data
            gx, gk = _conv_backward(x, kernel, gy.reshape(ho, wo, cout), stride, padding)
            return gx, gk, g_gamma, g_beta
        return bw

    return make_node(out.reshape(ho, wo, cout), parents, "conv_norm_act", build)


def upsample2x(x) -> Tensor:
    """Nearest-neighbour x2 upsampling of an (H, W, C) map."""
    h, w, c = x.shape
    data = np.repeat(np.repeat(x.data, 2, axis=0), 2, axis=1)

    def build():
        def bw(g):
            return (g.reshape(h, 2, w, 2, c).sum(axis=(1, 3)),)
        return bw

    return make_node(data, (x,), "upsample2x", build)


# ---------------------------------------------------------------------------
# sampling

# Rows per block of the sampling gathers and scatters (ms_deform_attn's
# (query, head) rows, bilinear_sample's points): one block gathers at most
# SAMPLING_ROW_BLOCK * corners rows of the map at once.
SAMPLING_ROW_BLOCK = 1024

# corners 00, 10, 01, 11 as (du, dv) steps from the floor of a point
_CORNER_DU = np.array([0, 1, 0, 1])
_CORNER_DV = np.array([0, 0, 1, 1])


def _bilinear_corners(u, v, h: int, w: int, slopes: bool = True):
    """Bilinear corners of pixel coordinates (u, v) (arrays of one shape S)
    in an h x w map: the flat corner rows y*w + x, clipped into the map, and
    the corner weights and, with ``slopes``, their u and v derivatives, each
    (S, 4) over the corners 00, 10, 01, 11 with an off-map corner's weight 0."""
    u0f, v0f = np.floor(u), np.floor(v)
    fu, fv = u - u0f, v - v0f
    ui = u0f.astype(np.int64)[..., None] + _CORNER_DU
    vi = v0f.astype(np.int64)[..., None] + _CORNER_DV
    valid = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
    rows = np.clip(vi, 0, h - 1) * w + np.clip(ui, 0, w - 1)
    gu, gv = 1.0 - fu, 1.0 - fv
    wt = np.stack([gu * gv, fu * gv, gu * fv, fu * fv], axis=-1) * valid
    if not slopes:
        return rows, wt
    dwu = np.stack([-gv, gv, -fv, fv], axis=-1) * valid
    dwv = np.stack([-gu, -fu, gu, fu], axis=-1) * valid
    return rows, wt, dwu, dwv


def _row_blocks(n: int):
    for r0 in range(0, n, SAMPLING_ROW_BLOCK):
        yield r0, min(r0 + SAMPLING_ROW_BLOCK, n)


def _gather_weighted(flat: np.ndarray, rows: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """(R, C) sums over j of wt[r, j] * flat[rows[r, j]] for (R, J) rows and wt."""
    out = np.empty((rows.shape[0], 1, flat.shape[1]), dtype=np.result_type(flat, wt))
    for r0, r1 in _row_blocks(rows.shape[0]):
        np.matmul(wt[r0:r1, None, :], np.take(flat, rows[r0:r1], axis=0), out=out[r0:r1])
    return out[:, 0]


def _gather_dots(flat: np.ndarray, rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(R, J) dot products g[r] . flat[rows[r, j]] for (R, C) g."""
    out = np.empty(rows.shape + (1,), dtype=np.result_type(flat, g))
    for r0, r1 in _row_blocks(rows.shape[0]):
        np.matmul(np.take(flat, rows[r0:r1], axis=0), g[r0:r1, :, None], out=out[r0:r1])
    return out[..., 0]


def _scatter_rows(grad_flat: np.ndarray, rows: np.ndarray, wt: np.ndarray,
                  g: np.ndarray) -> None:
    """grad_flat[rows[r, j]] += wt[r, j] * g[r] in place, in (r, j) order.

    One unbuffered ``np.add.at`` per block of rows, over the block's element
    offsets into the flattened gradient: numpy's fast 1-D path, so repeated
    rows add up and no element index spans more than one block."""
    c = grad_flat.shape[1]
    out = grad_flat.reshape(-1)
    first = rows * c
    lanes = np.arange(c)
    for r0, r1 in _row_blocks(rows.shape[0]):
        contrib = wt[r0:r1, :, None] * g[r0:r1, None, :]
        np.add.at(out, (first[r0:r1, :, None] + lanes).reshape(-1),
                  contrib.astype(grad_flat.dtype, copy=False).reshape(-1))


def bilinear_sample(feature, points) -> Tensor:
    """Sample (H, W, C) features at continuous (u, v) pixel coordinates (N, 2),
    giving (N, C). With one leading group axis, (G, H, W, C) features and
    (G, N, 2) points give (G, N, C): point (g, n) reads only map g, through a
    row offset of g*H*W into the flattened stack (the same code, no branch).

    Out-of-bounds corners get bilinear weight 0 and contribute exactly zero.
    Backward keeps the corner rows and weights, not the gathered corner
    values: the point gradient gathers them again from the map. It runs on
    the corner, gather and scatter helpers that ``ms_deform_attn`` uses.
    Differentiable with respect to the feature map and the point coordinates.
    """
    if (feature.ndim not in (3, 4) or points.ndim != feature.ndim - 1
            or points.shape[:-2] != feature.shape[:-3] or points.shape[-1] != 2):
        raise DimensionError(
            f"bilinear_sample expects (H,W,C) features with (N,2) points or "
            f"(G,H,W,C) with (G,N,2), got {feature.shape} and {points.shape}"
        )
    h, w, c = feature.shape[-3:]
    flat = feature.data.reshape(-1, c)
    pts = points.data.reshape(-1, 2)
    rows, wt, dwu, dwv = _bilinear_corners(pts[:, 0], pts[:, 1], h, w)
    rows += np.repeat(np.arange(0, flat.shape[0], h * w), points.shape[-2])[:, None]
    data = _gather_weighted(flat, rows, wt).reshape(points.shape[:-1] + (c,))

    def build():
        def bw(g):
            g = g.reshape(-1, c)
            gf = np.zeros_like(feature.data) if feature.requires_grad else None
            gp = None
            if gf is not None:
                _scatter_rows(gf.reshape(-1, c), rows, wt, g)
            if points.requires_grad:
                dots = _gather_dots(flat, rows, g)
                gp = np.stack([(dots * dwu).sum(axis=1), (dots * dwv).sum(axis=1)], axis=1)
                gp = gp.reshape(points.shape).astype(points.dtype)
            return gf, gp
        return bw

    return make_node(data, (feature, points), "bilinear_sample", build)


def ms_deform_attn(values, locations, weights) -> Tensor:
    """Multi-scale deformable attention as in Deformable DETR's
    ``ms_deform_attn_core_pytorch`` (Zhu et al., arXiv 2010.04159).

    ``values`` holds one (H_l, W_l, heads * d) map per level, head h in
    channels [h d, (h+1) d), ``locations`` the normalised (u, v) sampling
    points (n, heads, levels, points, 2), read at pixel (u W_l - 0.5,
    v H_l - 0.5), and ``weights`` their attention weights (n, heads, levels,
    points). Returns the merged (n, heads * d) context: head h of query q
    writes channels [h d, (h+1) d) with the weighted sum of its bilinear
    samples of head h's channels of values[l].

    The attention weights are folded into the bilinear corner weights. Each
    map is read as (H_l W_l heads, d) rows, so corner (pixel, head) is row
    pixel * heads + head, and the corner rows of (query, head) rows are
    gathered and reduced SAMPLING_ROW_BLOCK rows at a time. Backward
    recomputes the corners from the locations and scatters the value
    gradient over the corner rows, so the graph keeps nothing per sample.
    """
    if (locations.ndim != 5 or locations.shape[-1] != 2
            or weights.shape != locations.shape[:-1] or locations.shape[2] != len(values)
            or locations.shape[1] < 1
            or any(v.ndim != 3 or v.shape[2] != values[0].shape[2]
                   or v.shape[2] % locations.shape[1] for v in values)):
        raise DimensionError(
            f"ms_deform_attn expects per-level (H,W,heads*d) values, (n,heads,levels,"
            f"points,2) locations and (n,heads,levels,points) weights, got "
            f"{[v.shape for v in values]}, {locations.shape} and {weights.shape}"
        )
    n, m, nl, k, _ = locations.shape
    d = values[0].shape[2] // m
    n_rows = n * m  # row r is (query r // m, head r % m)
    loc = locations.data.reshape(n_rows, nl, k, 2)
    aw = weights.data.reshape(n_rows, nl, k)
    flats = [v.data.reshape(-1, d) for v in values]

    def corners(lvl, slopes):
        """Rows into the flattened level map, the bilinear weights and, with
        ``slopes``, their u and v derivatives, each (n_rows, points * 4), and
        the attention weight of each corner."""
        h, w = values[lvl].shape[:2]
        rows, *rest = _bilinear_corners(loc[:, lvl, :, 0] * w - 0.5,
                                        loc[:, lvl, :, 1] * h - 0.5, h, w, slopes)
        rows *= m
        rows += (np.arange(n_rows) % m)[:, None, None]
        a = np.repeat(aw[:, lvl], 4, axis=1)
        return [x.reshape(n_rows, k * 4) for x in (rows, *rest)] + [a]

    data = None
    for lvl, flat in enumerate(flats):
        rows, wt, a = corners(lvl, slopes=False)
        term = _gather_weighted(flat, rows, wt * a)
        data = term if data is None else data + term

    def build():
        def bw(g):
            g = g.reshape(n_rows, d)
            g_loc = np.empty_like(locations.data) if locations.requires_grad else None
            g_aw = np.empty_like(weights.data) if weights.requires_grad else None
            grads = []
            for lvl, (value, flat) in enumerate(zip(values, flats)):
                rows, wt, dwu, dwv, a = corners(lvl, slopes=True)
                if g_loc is not None or g_aw is not None:
                    dots = _gather_dots(flat, rows, g)
                    if g_aw is not None:
                        g_aw[:, :, lvl] = (dots * wt).reshape(n, m, k, 4).sum(axis=3)
                    if g_loc is not None:
                        dots *= a
                        h, w = value.shape[:2]
                        for axis, dw, extent in ((0, dwu, w), (1, dwv, h)):
                            g_loc[:, :, lvl, :, axis] = (
                                (dots * dw).reshape(n, m, k, 4).sum(axis=3) * extent)
                gv = np.zeros_like(value.data) if value.requires_grad else None
                if gv is not None:
                    _scatter_rows(gv.reshape(-1, d), rows, wt * a, g)
                grads.append(gv)
            return *grads, g_loc, g_aw
        return bw

    return make_node(data.reshape(n, m * d), (*values, locations, weights),
                     "ms_deform_attn", build)


# ---------------------------------------------------------------------------
# stereo correlation


# Columns per tile: one tile's per-row scores are (h, t, t + n_disparities - 1).
CORRELATION_COLUMN_BLOCK = 32


def _correlation_band(s: np.ndarray, n_disparities: int) -> np.ndarray:
    """(h, t, n_disparities) view of s[v, i, n_disparities - 1 + i - d]: the
    correlation of tile column i with the right column d pixels left of it."""
    sh, su, sc = s.strides
    return as_strided(s[:, :, n_disparities - 1:], shape=(s.shape[0], s.shape[1], n_disparities),
                      strides=(sh, su + sc, -sc))


def correlation_volume(x_left, x_right, n_disparities: int) -> Tensor:
    """Channel-mean correlation cost volume over horizontal shifts.

    out[v, u, d] = mean_c left[v, u, c] * right[v, u - d, c]; positions with
    u - d < 0 contribute exactly zero (no evidence off the frame edge).

    Computed as RAFT-Stereo's 1-D all-pairs correlation (CorrBlock1D, Lipson
    et al., 3DV 2021): with right left-padded by n_disparities - 1 zero
    columns (rpad), each tile of CORRELATION_COLUMN_BLOCK columns takes one
    batched per-row GEMM S = left_t @ rpad_t^T, and the tile's volume is the
    band S[v, i, n_disparities - 1 + i - d], read through a strided view.
    The padding makes off-frame entries exact zeros. Backward writes g into
    a zeroed S through the same view and takes two GEMMs, S_g @ rpad_t and
    S_g^T @ left_t. Tiling keeps S small; untiled it is (h, w, w + n_disparities - 1).
    """
    if x_left.shape != x_right.shape:
        raise DimensionError(
            f"correlation_volume inputs differ: {x_left.shape} vs {x_right.shape}"
        )
    h, w, c = x_left.shape
    nd = n_disparities
    if nd < 1:
        raise DimensionError(f"correlation_volume needs >= 1 disparity, got {nd}")
    left = x_left.data

    def pad_right():
        """x_right.data after nd - 1 zero columns."""
        rpad = np.zeros((h, w + nd - 1, c), dtype=x_right.dtype)
        rpad[:, nd - 1:] = x_right.data
        return rpad

    rpad = pad_right()
    inv_c = 1.0 / c
    out = np.empty((h, w, nd), dtype=x_left.dtype)
    for u0 in range(0, w, CORRELATION_COLUMN_BLOCK):
        u1 = min(u0 + CORRELATION_COLUMN_BLOCK, w)
        s = left[:, u0:u1] @ rpad[:, u0:u1 + nd - 1].swapaxes(1, 2)
        np.multiply(_correlation_band(s, nd), inv_c, out=out[:, u0:u1])

    def build():
        def bw(g):
            # rebuilt, not captured: the graph then holds no padded copy until backward
            gl = np.empty_like(left) if x_left.requires_grad else None
            rp = pad_right() if gl is not None else None
            grpad = np.zeros((h, w + nd - 1, c), dtype=g.dtype) if x_right.requires_grad else None
            for u0 in range(0, w, CORRELATION_COLUMN_BLOCK):
                u1 = min(u0 + CORRELATION_COLUMN_BLOCK, w)
                sg = np.zeros((h, u1 - u0, u1 - u0 + nd - 1), dtype=g.dtype)
                np.multiply(g[:, u0:u1], inv_c, out=_correlation_band(sg, nd))
                if gl is not None:
                    gl[:, u0:u1] = sg @ rp[:, u0:u1 + nd - 1]
                if grpad is not None:
                    grpad[:, u0:u1 + nd - 1] += sg.swapaxes(1, 2) @ left[:, u0:u1]
            return gl, None if grpad is None else grpad[:, nd - 1:]
        return bw

    return make_node(out, (x_left, x_right), "correlation_volume", build)


# ---------------------------------------------------------------------------
# losses: each sums over one input tensor against constant targets


def focal_loss(logits, targets, alpha: float, gamma: float, weights=None) -> Tensor:
    """Summed focal loss on logits (Lin et al., ICCV 2017), as torchvision's
    ``sigmoid_focal_loss``: p = sigmoid(x), computed inside.

    Target 1 costs -alpha (1 - p)^gamma log p, target 0 costs -p^gamma log(1 - p),
    and ``weights`` scales each entry. p is clipped to [1e-7, 1 - 1e-7]; a
    clipped entry gets no gradient. alpha = gamma = 1 gives -(1 - p_t) log p_t.
    The class loss passes the config's ``focal_alpha`` and ``focal_gamma``.
    """
    eps = 1e-7
    pos = np.asarray(targets) > 0.5
    w = 1.0 if weights is None else np.asarray(weights, dtype=logits.dtype)
    x = logits.data
    sig = np.empty_like(x)  # split so that exp never overflows
    up = x >= 0
    sig[up] = 1.0 / (1.0 + np.exp(-x[up]))
    ex = np.exp(x[~up])
    sig[~up] = ex / (1.0 + ex)
    p = np.clip(sig, eps, 1.0 - eps)
    q = 1.0 - p
    p_t = np.where(pos, p, q)  # probability of the labelled outcome
    rest = np.where(pos, q, p)  # 1 - p_t, not rounded through 1 - (1 - p)
    log_pt = np.log(p_t)
    loss = rest ** gamma * log_pt * np.where(pos, -alpha, -1.0).astype(p.dtype) * w

    def build():
        # d/dp of c rest^gamma log p_t, c = -alpha or -1; dp_t/dp = -drest/dp = +1 or -1
        slope = np.where(pos, -alpha, 1.0).astype(p.dtype)
        dp = slope * (rest ** gamma / p_t - gamma * rest ** (gamma - 1.0) * log_pt) * w
        dp *= (sig > eps) & (sig < 1.0 - eps)

        def bw(g):
            return (g * dp * sig * (1.0 - sig),)  # dp/dx = p (1 - p)
        return bw

    return make_node(loss.sum(), (logits,), "focal_loss", build)


def smooth_l1(pred, target, beta: float) -> Tensor:
    """Summed smooth L1 of d = pred - target: 0.5 d^2 / beta where |d| < beta,
    |d| - beta / 2 elsewhere; beta is the config's ``smooth_l1_beta``."""
    d = pred.data - np.asarray(target, dtype=pred.dtype)
    a = np.abs(d)
    quad = a < beta
    loss = np.where(quad, d * d * (0.5 / beta), a - 0.5 * beta)

    def build():
        dd = np.where(quad, d / beta, np.sign(d))

        def bw(g):
            return (g * dd,)
        return bw

    return make_node(loss.sum(), (pred,), "smooth_l1", build)


def soft_cross_entropy(logits, target, weights) -> Tensor:
    """sum_i w_i (-sum_d t_id log softmax(x_i)_d) over the last axis, for
    targets of the logits' shape and weights of their leading shape.

    The gradient is w_i (softmax(x_i) sum_d t_id - t_i): w_i (softmax - t) for
    distribution targets. All-zero weights give +0.0 and zero gradients.
    """
    target = np.asarray(target, dtype=logits.dtype)
    weights = np.asarray(weights, dtype=logits.dtype)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    per_row = -(log_p * target).sum(axis=-1)

    def build():
        dx = np.exp(log_p) * target.sum(axis=-1, keepdims=True) - target
        dx *= weights[..., None]

        def bw(g):
            return (g * dx,)
        return bw

    return make_node((per_row * weights).sum(), (logits,), "soft_cross_entropy", build)
