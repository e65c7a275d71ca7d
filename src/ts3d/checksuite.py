"""Finite-difference verification suites behind the gradcheck command.

Three scopes: "ops" checks every differentiable operator against central
differences (float64, tolerance 1e-6); "modules" checks composite blocks
(pyramid, positional encoding, attention, losses) at 1e-4 or tighter; and
"end2end" differentiates the full training loss on a two-object toy scene
through selected parameters at every depth of the network.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .config import RunConfig
from .dataset import FrameData
from .decoder import MHSA, DecoderLayer, dape, reference_points
from .detect import DetectionHead, focal_loss, orientation_bce, smooth_l1
from .disphead import softargmax, stereo_focal_loss, block_match_stereo
from .gradcheck import grad_check, rand_tensor
from .model import TS3D
from .spfpn import SPFPN, intra_scale_fuse
from .synth import SynthParams, synth_scene
from .tensor import Tensor


def _probe(shape, seed=99):
    return Tensor(np.random.default_rng(seed).normal(size=shape), dtype=np.float64)


def _weighted(out, probe):
    return ops.sum_(ops.mul(out, probe))


def run_op_checks(seed: int = 0):
    """Returns [(name, max_rel_err, tolerance)]."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, f, inputs, tol=1e-6, eps=1e-6):
        results.append((name, grad_check(f, inputs, eps=eps), tol))

    for tag, (h, w, cin, cout, stride) in (
        ("s1", (5, 6, 3, 4, 1)), ("s2", (7, 6, 2, 3, 2)), ("wide", (4, 9, 4, 2, 1)),
    ):
        x = rand_tensor(rng, (h, w, cin))
        k = rand_tensor(rng, (3, 3, cin, cout))
        b = rand_tensor(rng, (cout,))
        ho = (h + 2 - 3) // stride + 1
        wo = (w + 2 - 3) // stride + 1
        check(
            f"conv2d[{tag}]",
            lambda x_, k_, b_, s=stride, p=_probe((ho, wo, cout)): _weighted(
                ops.conv2d(x_, k_, b_, stride=s, padding=1), p),
            [x, k, b],
        )

    feat = rand_tensor(rng, (6, 8, 3))
    pts = Tensor(rng.uniform(0.3, 4.4, size=(7, 2)), dtype=np.float64, requires_grad=True)
    check("bilinear_sample",
          lambda f_, p_: _weighted(ops.bilinear_sample(f_, p_), _probe((7, 3))),
          [feat, pts])
    gpts = Tensor(rng.uniform(0.3, 4.4, size=(2, 4, 2)), dtype=np.float64, requires_grad=True)
    check("bilinear_sample[grouped]",
          lambda f_, p_: _weighted(ops.bilinear_sample(f_, p_), _probe((2, 4, 3))),
          [rand_tensor(rng, (2, 5, 6, 3)), gpts])

    left = rand_tensor(rng, (3, 9, 4))
    right = rand_tensor(rng, (3, 9, 4))
    check("correlation_volume",
          lambda l, r: _weighted(ops.correlation_volume(l, r, 5), _probe((3, 9, 5))),
          [left, right])

    x2 = rand_tensor(rng, (4, 6))
    check("softmax", lambda a: _weighted(ops.softmax(a, axis=1), _probe((4, 6))), [x2])
    check("log_softmax", lambda a: _weighted(ops.log_softmax(a, axis=1), _probe((4, 6))), [x2])
    check("softargmax", lambda a: _weighted(softargmax(a, axis=-1), _probe((4,))), [x2])

    a = rand_tensor(rng, (3, 4))
    bmat = rand_tensor(rng, (4, 5))
    check("matmul", lambda a_, b_: _weighted(ops.matmul(a_, b_), _probe((3, 5))), [a, bmat])
    bias = rand_tensor(rng, (5,))
    check("linear", lambda a_, w_, b_: _weighted(ops.linear(a_, w_, b_), _probe((3, 5))),
          [a, bmat, bias])

    v = Tensor(np.where(np.abs(z := rng.normal(size=10)) < 0.1, 0.4, z),
               dtype=np.float64, requires_grad=True)
    vpos = rand_tensor(rng, (10,), lo=0.2, hi=1.8)
    check("relu", lambda x_: _weighted(ops.relu(x_), _probe((10,))), [v])
    check("sigmoid", lambda x_: _weighted(ops.sigmoid(x_), _probe((10,))), [v])
    check("log", lambda x_: _weighted(ops.log(x_), _probe((10,))), [vpos])
    check("pow", lambda x_: _weighted(ops.pow_const(x_, 2.0), _probe((10,))), [v])
    check("abs", lambda x_: _weighted(ops.abs_(x_), _probe((10,))), [v])
    w2 = rand_tensor(rng, (10,))
    check("add", lambda x_, y_: _weighted(ops.add(x_, y_), _probe((10,))), [v, w2])
    check("sub", lambda x_, y_: _weighted(ops.sub(x_, y_), _probe((10,))), [v, w2])
    check("mul", lambda x_, y_: _weighted(ops.mul(x_, y_), _probe((10,))), [v, w2])
    mask = rng.uniform(size=10) > 0.5
    check("where", lambda x_, y_: _weighted(ops.where(mask, x_, y_), _probe((10,))), [v, w2])

    x3 = rand_tensor(rng, (3, 4, 2))
    check("concat", lambda x_, y_: _weighted(ops.concat([x_, y_], axis=1), _probe((3, 8, 2))),
          [x3, rand_tensor(rng, (3, 4, 2))])
    check("upsample2x", lambda x_: _weighted(ops.upsample2x(x_), _probe((6, 8, 2))), [x3])
    check("reshape", lambda x_: _weighted(ops.reshape(x_, (6, 4)), _probe((6, 4))), [x3])
    check("transpose", lambda x_: _weighted(ops.transpose(x_, (2, 0, 1)), _probe((2, 3, 4))),
          [x3])
    check("narrow", lambda x_: _weighted(ops.narrow(x_, 1, 1, 2), _probe((3, 2, 2))), [x3])
    check("take_rows",
          lambda x_: _weighted(ops.take_rows(x_, np.array([0, 2, 2])), _probe((3, 4, 2))),
          [x3])
    check("sum", lambda x_: _weighted(ops.sum_(x_, axis=1), _probe((3, 2))), [x3])

    g = rand_tensor(rng, (3,), lo=0.5, hi=1.5)
    be = rand_tensor(rng, (3,))
    check("channel_norm",
          lambda x_, g_, b_: _weighted(ops.channel_norm(x_, g_, b_), _probe((4, 5, 3))),
          [rand_tensor(rng, (4, 5, 3)), g, be])

    # one full row block and a partial one
    n_att = ops.ATTENTION_ROW_BLOCK + 22
    check("attention",
          lambda q_, k_, v_: _weighted(ops.attention(q_, k_, v_, 2), _probe((n_att, 4))),
          [rand_tensor(rng, (n_att, 4)) for _ in range(3)])
    return results


def run_module_checks(seed: int = 0):
    rng = np.random.default_rng(seed)
    results = []

    def check(name, f, inputs, tol, eps=1e-6):
        results.append((name, grad_check(f, inputs, eps=eps), tol))

    # cost-volume pyramid (correlate, fuse, aggregate, project)
    net = SPFPN(rng, bins=(3, 4), c_dec=5)
    l1 = rand_tensor(rng, (4, 6, 3))
    r1 = rand_tensor(rng, (4, 6, 3))
    c2_const = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    probes = [_probe((4, 6, 5), 31), _probe((2, 3, 5), 32)]

    def pyramid(l, r):
        c1 = intra_scale_fuse(ops.correlation_volume(l, r, 3),
                              ops.correlation_volume(l, r, 3))
        keys = net.project_scales(net.cross_scale_aggregate([c1, c2_const]))
        return ops.add(_weighted(keys[0], probes[0]), _weighted(keys[1], probes[1]))

    check("spfpn", pyramid, [l1, r1], tol=1e-4)

    # disparity-aware positional encoding
    logits = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
    check("dape",
          lambda lg: _weighted(dape(lg, c_dec=12).pe_da, _probe((2, 3, 12), 33)),
          [logits], tol=1e-4)

    # self-attention
    attn = MHSA(rng, c_dec=6, heads=2)
    xq = rand_tensor(rng, (4, 6))
    check("mhsa", lambda x_: _weighted(attn.forward(x_), _probe((4, 6), 34)), [xq], tol=1e-5)

    # one full decoder layer
    layer = DecoderLayer(rng, c_dec=4, heads=2, points=2, n_levels=1, ffn_hidden=8)
    layer.cross.offset.w.data[:] = 0.1 * rng.normal(size=layer.cross.offset.w.data.shape)
    layer.cross.weight.w.data[:] = rng.normal(size=layer.cross.weight.w.data.shape)
    refs = reference_points(2, 2, np.float64)
    q0 = rand_tensor(rng, (4, 4))
    f0 = rand_tensor(rng, (2, 2, 4))
    check("decoder_layer",
          lambda q_, f_: _weighted(layer.forward(q_, None, refs, [f_]), _probe((4, 4), 35)),
          [q0, f0], tol=1e-4)

    # detection heads
    head = DetectionHead(rng, c_dec=6, n_classes=1, anchors_per_cell=1)
    head.reg_out.w.data[:] = 0.1 * rng.normal(size=head.reg_out.w.data.shape)
    qh = rand_tensor(rng, (4, 6))

    def head_fn(q_):
        cls, reg = head.forward(q_)
        return ops.add(_weighted(cls, _probe((4, 2), 36)), _weighted(reg, _probe((4, 13), 37)))

    check("detection_head", head_fn, [qh], tol=1e-5)

    # losses
    probs = Tensor(rng.uniform(0.1, 0.9, size=(8,)), dtype=np.float64, requires_grad=True)
    tgt = (rng.uniform(size=8) > 0.6).astype(np.float64)
    check("focal_loss", lambda p: focal_loss(p, tgt), [probs], tol=1e-6)
    reg_in = rand_tensor(rng, (6,))
    reg_target = rng.normal(size=6)
    check("smooth_l1", lambda p: smooth_l1(p, reg_target), [reg_in], tol=1e-5, eps=1e-7)
    orient_in = Tensor(rng.uniform(0.15, 0.85, size=(5,)), dtype=np.float64,
                       requires_grad=True)
    blab = (rng.uniform(size=5) > 0.5).astype(np.float64)
    check("orientation_bce", lambda p: orientation_bce(p, blab), [orient_in], tol=1e-6)
    dl = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
    gt = rng.uniform(0, 3, size=(2, 3))
    msk = np.ones((2, 3), dtype=bool)
    check("stereo_focal_loss", lambda lg: stereo_focal_loss(lg, gt, msk)[0], [dl], tol=1e-6)
    return results


def _toy_frame(seed: int = 5):
    params = SynthParams(width=64, height=32, focal=40.0, baseline=0.5,
                         n_objects=(2, 2), z_range=(4.5, 9.0),
                         w_range=(1.8, 2.2), l_range=(2.5, 3.5))
    frame = synth_scene(seed, params)
    dl, vl, dr, vr = block_match_stereo(frame.left, frame.right, 16, 7)
    return FrameData(frame_id="toy", left=frame.left, right=frame.right,
                     calib=frame.calib, labels=frame.labels, pseudo_disp=dl,
                     pseudo_valid=vl, pseudo_disp_right=dr, pseudo_valid_right=vr)


def run_end2end_check(seed: int = 0):
    """Full training loss on a two-object toy scene, differentiated through
    parameters selected across the network depth."""
    cfg = RunConfig.toy()
    cfg.dtype = "float64"
    cfg.validate()
    frame = _toy_frame()
    assert len(frame.labels) == 2, "toy scene must carry two labeled objects"
    model = TS3D(cfg, rng=np.random.default_rng(seed))
    # a slice of parameters at every depth, kept small for runtime
    layer0 = model.decoder.layers[0]
    layer0.cross.offset.w.data[:] = 0.05 * np.random.default_rng(1).normal(
        size=layer0.cross.offset.w.data.shape)
    selected = [
        ("backbone.stem.conv.w", model.backbone.stem.conv.w),
        ("spfpn.project3.b", model.spfpn.project[2].b),
        ("spfpn.cross2.b", model.spfpn.cross[1].b),
        ("disp_head.up2.b", model.disp_head.up2.b),
        ("query.proj.b", model.query.proj.b),
        ("decoder.ffn.b", layer0.ffn.fc2.b),
        ("decoder.cross.out.b", layer0.cross.out_proj.b),
        ("head.cls_out.w", model.head.cls_out.w),
    ]

    def f(*_):
        loss, _parts = model.train_step_loss(frame)
        return loss

    err = grad_check(f, [p for _, p in selected], eps=1e-6)
    return [("end2end_toy_scene", err, 1e-4)]


def run_scope(scope: str, seed: int = 0):
    if scope == "ops":
        return run_op_checks(seed)
    if scope == "modules":
        return run_module_checks(seed)
    if scope == "end2end":
        return run_end2end_check(seed)
    if scope == "all":
        return run_op_checks(seed) + run_module_checks(seed) + run_end2end_check(seed)
    raise ValueError(f"unknown gradcheck scope '{scope}'")
