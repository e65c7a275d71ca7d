"""Differentiable operators over Tensor.

Exactly the operator set the detector needs: elementwise arithmetic,
reductions, shape ops, matmul, conv2d, bilinear sampling, normalization,
softmax family, row-blocked multi-head attention, nearest upsampling, and
the stereo correlation volume.
Each op validates shapes up front and registers a backward closure that
accumulates into its parents (fan-out gradients add).
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import DimensionError, Tensor, as_tensor, make_node


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
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g, a.shape), "add")
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g, b.shape), "add")
        return bw

    return make_node(data, (a, b), "add", build)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g, a.shape), "sub")
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(-g, b.shape), "sub")
        return bw

    return make_node(data, (a, b), "sub", build)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g * b.data, a.shape), "mul")
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g * a.data, b.shape), "mul")
        return bw

    return make_node(data, (a, b), "mul", build)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(-g, "neg")
        return bw

    return make_node(-a.data, (a,), "neg", build)


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar (no dtype promotion)."""
    a = as_tensor(a)
    s = float(s)

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g * s, "scale")
        return bw

    return make_node(a.data * s, (a,), "scale", build)


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g / a.data, "log")
        return bw

    return make_node(data, (a,), "log", build)


def pow_const(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    data = a.data ** p

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g * p * a.data ** (p - 1.0), "pow")
        return bw

    return make_node(data, (a,), "pow", build)


def abs_(a) -> Tensor:
    a = as_tensor(a)

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g * np.sign(a.data), "abs")
        return bw

    return make_node(np.abs(a.data), (a,), "abs", build)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values; gradient passes only strictly inside the interval."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)

    def build():
        inside = (a.data > lo) & (a.data < hi)

        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g * inside, "clamp")
        return bw

    return make_node(data, (a,), "clamp", build)


def where(mask: np.ndarray, a, b) -> Tensor:
    """Select per element from a (mask true) or b; mask is a constant."""
    a, b = as_tensor(a), as_tensor(b)
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, a.data, b.data)

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g * mask, a.shape), "where")
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g * ~mask, b.shape), "where")
        return bw

    return make_node(data, (a, b), "where", build)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g * (a.data > 0), "relu")
        return bw

    return make_node(np.maximum(a.data, 0.0), (a,), "relu", build)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g * data * (1.0 - data), "sigmoid")
        return bw

    return make_node(data, (a,), "sigmoid", build)


# ---------------------------------------------------------------------------
# reductions


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def build():
        def bw(g):
            if not a.requires_grad:
                return
            gg = g
            if not keepdims and axis is not None:
                gg = np.expand_dims(gg, axis)
            elif axis is None and not keepdims:
                gg = np.asarray(gg).reshape((1,) * a.ndim)
            a.accumulate_grad(np.broadcast_to(gg, a.shape).copy(), "sum")
        return bw

    return make_node(data, (a,), "sum", build)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g.reshape(a.shape), "reshape")
        return bw

    return make_node(a.data.reshape(shape), (a,), "reshape", build)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)

    def build():
        inv = np.argsort(axes)

        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(np.transpose(g, inv), "transpose")
        return bw

    return make_node(np.transpose(a.data, axes), (a,), "transpose", build)


def concat(tensors, axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)

    def build():
        sizes = [t.shape[axis] for t in ts]
        offsets = np.cumsum([0] + sizes)

        def bw(g):
            for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    t.accumulate_grad(np.ascontiguousarray(g[tuple(idx)]), "concat")
        return bw

    return make_node(data, ts, "concat", build)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Static slice along one axis."""
    a = as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def build():
        def bw(g):
            if a.requires_grad:
                ga = np.zeros_like(a.data)
                ga[idx] = g
                a.accumulate_grad(ga, "narrow")
        return bw

    return make_node(a.data[idx], (a,), "narrow", build)


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0; scatter-adds on the way back."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.int64)

    def build():
        def bw(g):
            if a.requires_grad:
                ga = np.zeros_like(a.data)
                np.add.at(ga, indices, g)
                a.accumulate_grad(ga, "take_rows")
        return bw

    return make_node(a.data[indices], (a,), "take_rows", build)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product of 2-D operands."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner axes differ: {a.shape}[-1] != {b.shape}[-2]"
        )
    data = a.data @ b.data

    def build():
        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g @ b.data.T, "matmul")
            if b.requires_grad:
                b.accumulate_grad(a.data.T @ g, "matmul")
        return bw

    return make_node(data, (a, b), "matmul", build)


def linear(x, w, b) -> Tensor:
    """x @ w + b, the last axis being features."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# softmax family


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def build():
        def bw(g):
            if a.requires_grad:
                dot = (g * data).sum(axis=axis, keepdims=True)
                a.accumulate_grad(data * (g - dot), "softmax")
        return bw

    return make_node(data, (a,), "softmax", build)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def build():
        sm = np.exp(data)

        def bw(g):
            if a.requires_grad:
                a.accumulate_grad(g - sm * g.sum(axis=axis, keepdims=True), "log_softmax")
        return bw

    return make_node(data, (a,), "log_softmax", build)


# ---------------------------------------------------------------------------
# attention

# Query rows per block: one block's scores are (heads, ATTENTION_ROW_BLOCK, m).
ATTENTION_ROW_BLOCK = 128


def _attention_probs(qh_rows: np.ndarray, kt: np.ndarray) -> np.ndarray:
    """Row softmax of (heads, b, d) @ (heads, d, m) scores, in place."""
    p = qh_rows @ kt
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of (n, c) queries over (m, c)
    keys and values, giving the merged (n, c) context: head h reads channels
    [h*d, (h+1)*d) with d = c / heads and weights softmax(q_h k_h^T / sqrt(d)).

    Query rows are processed in blocks of ATTENTION_ROW_BLOCK, so no
    (heads, n, m) score array exists in either pass: backward keeps only the
    head-major (scaled) q, k^T and v copies, recomputes each block's
    probabilities P and uses dS = P * (dP - rowsum(g * out)), as in
    FlashAttention (Dao et al., arXiv 2205.14135).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
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
        p = _attention_probs(qh[:, r0:r1], kt)
        data_h[r0:r1] = (p @ vh).transpose(1, 0, 2)

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
                p = _attention_probs(qh[:, r0:r1], kt)
                g_rows = gh[:, r0:r1]
                dv += p.swapaxes(-1, -2) @ g_rows
                ds = g_rows @ vh.swapaxes(-1, -2)
                ds -= delta[:, r0:r1]
                ds *= p
                dq[:, r0:r1] = ds @ kt.swapaxes(-1, -2)
                dk += ds.swapaxes(-1, -2) @ qh[:, r0:r1]
            if q.requires_grad:
                q.accumulate_grad(merged(dq * s), "attention")
            if k.requires_grad:
                k.accumulate_grad(merged(dk), "attention")
            if v.requires_grad:
                v.accumulate_grad(merged(dv), "attention")
        return bw

    return make_node(data, (q, k, v), "attention", build)


# ---------------------------------------------------------------------------
# normalization


def channel_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-channel affine normalization over all leading (spatial) axes.

    Statistics come from the single sample itself, so the result is
    deterministic and batch-free. The last axis is the channel axis.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise DimensionError(
            f"channel_norm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"channel count {x.shape[-1]}"
        )
    red = tuple(range(x.ndim - 1))
    mu = x.data.mean(axis=red, keepdims=True)
    var = x.data.var(axis=red, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def build():
        n = 1
        for ax in red:
            n *= x.shape[ax]

        def bw(g):
            if gamma.requires_grad:
                gamma.accumulate_grad((g * xhat).sum(axis=red), "channel_norm")
            if beta.requires_grad:
                beta.accumulate_grad(g.sum(axis=red), "channel_norm")
            if x.requires_grad:
                gy = g * gamma.data
                m1 = gy.mean(axis=red, keepdims=True)
                m2 = (gy * xhat).mean(axis=red, keepdims=True)
                x.accumulate_grad(inv * (gy - m1 - xhat * m2), "channel_norm")
        return bw

    return make_node(data, (x, gamma, beta), "channel_norm", build)


# ---------------------------------------------------------------------------
# convolution


def conv_output_extent(n: int, k: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - k) // stride + 1


def _shifted(xp: np.ndarray, i: int, j: int, stride: int, ho: int, wo: int):
    view = xp[i : i + (ho - 1) * stride + 1 : stride,
              j : j + (wo - 1) * stride + 1 : stride, :]
    return view.reshape(ho * wo, xp.shape[2])


def conv2d(x, kernel, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over an (H, W, Cin) input with an (kh, kw, Cin, Cout)
    kernel. Differentiable w.r.t. input, kernel, bias.

    Computed as one GEMM per kernel tap over shifted input views, which keeps
    both directions of the backward pass on the GEMM path as well.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
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
    xp = x.data
    if padding:
        xp = np.pad(xp, ((padding, padding), (padding, padding), (0, 0)))
    kmat = kernel.data
    out = np.zeros((ho * wo, cout), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out += _shifted(xp, i, j, stride, ho, wo) @ kmat[i, j]
    if bias is not None:
        out += bias.data
    out = out.reshape(ho, wo, cout)

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def build():
        def bw(g):
            gmat = g.reshape(ho * wo, cout)
            if bias is not None and bias.requires_grad:
                bias.accumulate_grad(gmat.sum(axis=0), "conv2d")
            if kernel.requires_grad:
                gk = np.empty_like(kernel.data)
                for i in range(kh):
                    for j in range(kw):
                        gk[i, j] = _shifted(xp, i, j, stride, ho, wo).T @ gmat
                kernel.accumulate_grad(gk, "conv2d")
            if x.requires_grad:
                gxp = np.zeros_like(xp)
                for i in range(kh):
                    for j in range(kw):
                        gxp[i : i + (ho - 1) * stride + 1 : stride,
                            j : j + (wo - 1) * stride + 1 : stride, :] += (
                            gmat @ kmat[i, j].T
                        ).reshape(ho, wo, cin)
                if padding:
                    gxp = np.ascontiguousarray(
                        gxp[padding : padding + h, padding : padding + w]
                    )
                x.accumulate_grad(gxp, "conv2d")
        return bw

    return make_node(out, parents, "conv2d", build)


def upsample2x(x) -> Tensor:
    """Nearest-neighbour x2 upsampling of an (H, W, C) map."""
    x = as_tensor(x)
    h, w, c = x.shape
    data = np.repeat(np.repeat(x.data, 2, axis=0), 2, axis=1)

    def build():
        def bw(g):
            if x.requires_grad:
                x.accumulate_grad(g.reshape(h, 2, w, 2, c).sum(axis=(1, 3)), "upsample2x")
        return bw

    return make_node(data, (x,), "upsample2x", build)


# ---------------------------------------------------------------------------
# sampling


def bilinear_sample(feature, points) -> Tensor:
    """Sample (H, W, C) features at continuous (u, v) pixel coordinates (N, 2),
    giving (N, C). With one leading group axis, (G, H, W, C) features and
    (G, N, 2) points give (G, N, C): point (g, n) reads only map g, through a
    row offset of g*H*W into the flattened stack (the same code, no branch).

    Out-of-bounds corners get bilinear weight 0 and contribute exactly zero.
    Backward keeps the corner indices, weights and validity, not the four
    gathered (G*N, C) corner blocks: the point gradient recomputes g . value
    per corner from the map, so the graph holds no per-corner copies.
    Differentiable with respect to the feature map and the point coordinates.
    """
    feature, points = as_tensor(feature), as_tensor(points)
    if (feature.ndim not in (3, 4) or points.ndim != feature.ndim - 1
            or points.shape[:-2] != feature.shape[:-3] or points.shape[-1] != 2):
        raise DimensionError(
            f"bilinear_sample expects (H,W,C) features with (N,2) points or "
            f"(G,H,W,C) with (G,N,2), got {feature.shape} and {points.shape}"
        )
    h, w, c = feature.shape[-3:]
    flat = feature.data.reshape(-1, c)
    pts = points.data.reshape(-1, 2)
    row0 = np.repeat(np.arange(0, flat.shape[0], h * w), points.shape[-2])
    u, v = pts[:, 0], pts[:, 1]
    u0f = np.floor(u)
    v0f = np.floor(v)
    fu = u - u0f
    fv = v - v0f
    u0 = u0f.astype(np.int64)
    v0 = v0f.astype(np.int64)

    corners = []  # (row index, weight with validity folded in, validity)
    data = None
    for du, dv in ((0, 0), (1, 0), (0, 1), (1, 1)):
        ui, vi = u0 + du, v0 + dv
        valid = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
        idx = row0 + np.clip(vi, 0, h - 1) * w + np.clip(ui, 0, w - 1)
        wt = ((fu if du else 1.0 - fu) * (fv if dv else 1.0 - fv) * valid)[:, None]
        if data is None:
            data = wt * flat[idx]
        else:
            data += wt * flat[idx]
        corners.append((idx, wt, valid))
    data = data.reshape(points.shape[:-1] + (c,))

    def build():
        def bw(g):
            g = g.reshape(-1, c)
            if feature.requires_grad:
                # bincount scatter over flat element indices (faster than ufunc.at)
                idx_all = np.concatenate([idx for idx, _, _ in corners])
                contrib = np.concatenate([g * wt for _, wt, _ in corners])
                flat_idx = (idx_all[:, None] * c + np.arange(c)[None, :]).reshape(-1)
                gf = np.bincount(flat_idx, weights=contrib.reshape(-1),
                                 minlength=flat.size).reshape(feature.shape)
                feature.accumulate_grad(gf.astype(feature.dtype, copy=False),
                                        "bilinear_sample")
            if points.requires_grad:
                s00, s10, s01, s11 = ((g * flat[idx]).sum(axis=1) * valid
                                      for idx, _, valid in corners)
                gu = (1.0 - fv) * (s10 - s00) + fv * (s11 - s01)
                gv = (1.0 - fu) * (s01 - s00) + fu * (s11 - s10)
                gp = np.stack([gu, gv], axis=1).reshape(points.shape)
                points.accumulate_grad(gp.astype(points.dtype), "bilinear_sample")
        return bw

    return make_node(data, (feature, points), "bilinear_sample", build)


# ---------------------------------------------------------------------------
# stereo correlation


def correlation_volume(x_left, x_right, n_disparities: int) -> Tensor:
    """Channel-mean correlation cost volume over horizontal shifts.

    out[v, u, d] = mean_c left[v, u, c] * right[v, u - d, c]; positions with
    u - d < 0 contribute exactly zero (no evidence off the frame edge).
    """
    x_left, x_right = as_tensor(x_left), as_tensor(x_right)
    if x_left.shape != x_right.shape:
        raise DimensionError(
            f"correlation_volume inputs differ: {x_left.shape} vs {x_right.shape}"
        )
    h, w, c = x_left.shape
    if n_disparities < 1:
        raise DimensionError(f"correlation_volume needs >= 1 disparity, got {n_disparities}")
    # shifts at or beyond the frame width leave all-zero slices (no evidence)
    out = np.zeros((h, w, n_disparities), dtype=x_left.dtype)
    inv_c = 1.0 / c
    for d in range(min(n_disparities, w)):
        out[:, d:, d] = (x_left.data[:, d:, :] * x_right.data[:, : w - d, :]).sum(axis=2) * inv_c

    def build():
        def bw(g):
            gl = np.zeros_like(x_left.data) if x_left.requires_grad else None
            gr = np.zeros_like(x_right.data) if x_right.requires_grad else None
            for d in range(min(n_disparities, w)):
                seg = g[:, d:, d, None] * inv_c
                if gl is not None:
                    gl[:, d:, :] += seg * x_right.data[:, : w - d, :]
                if gr is not None:
                    gr[:, : w - d, :] += seg * x_left.data[:, d:, :]
            if gl is not None:
                x_left.accumulate_grad(gl, "correlation_volume")
            if gr is not None:
                x_right.accumulate_grad(gr, "correlation_volume")
        return bw

    return make_node(out, (x_left, x_right), "correlation_volume", build)
