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
from .detect import DetectionHead
from .disphead import softargmax, stereo_focal_loss, block_match_stereo
from .gradcheck import flat_concat, grad_check, rand_tensor
from .model import TS3D
from .spfpn import SPFPN, LevelProjection
from .synth import SynthParams, synth_scene
from .tensor import Tensor


def _logits(p):
    """The logits of probabilities ``p``, as a float64 input tensor."""
    return Tensor(np.log(p / (1.0 - p)), dtype=np.float64, requires_grad=True)


def run_op_checks(seed: int):
    """Returns [(name, max_rel_err, tolerance)]."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, f, inputs):
        results.append((name, grad_check(f, inputs, probe=99), 1e-6))

    for tag, (h, w, cin, cout, stride) in (
        ("s1", (5, 6, 3, 4, 1)), ("s2", (7, 6, 2, 3, 2)), ("wide", (4, 9, 4, 2, 1)),
    ):
        check(f"conv2d[{tag}]",
              lambda x_, k_, b_, s=stride: ops.conv2d(x_, k_, b_, stride=s, padding=1),
              [rand_tensor(rng, (h, w, cin)), rand_tensor(rng, (3, 3, cin, cout)),
               rand_tensor(rng, (cout,))])

    feat = rand_tensor(rng, (6, 8, 3))
    pts = Tensor(rng.uniform(0.3, 4.4, size=(7, 2)), dtype=np.float64, requires_grad=True)
    check("bilinear_sample", ops.bilinear_sample, [feat, pts])
    gpts = Tensor(rng.uniform(0.3, 4.4, size=(2, 4, 2)), dtype=np.float64, requires_grad=True)
    check("bilinear_sample[grouped]", ops.bilinear_sample, [rand_tensor(rng, (2, 5, 6, 3)), gpts])

    check("correlation_volume", lambda l, r: ops.correlation_volume(l, r, 5),
          [rand_tensor(rng, (3, 9, 4)), rand_tensor(rng, (3, 9, 4))])

    x2 = rand_tensor(rng, (4, 6))
    check("softmax", ops.softmax, [x2])
    check("softargmax", softargmax, [x2])

    a = rand_tensor(rng, (3, 4))
    bmat = rand_tensor(rng, (4, 5))
    check("matmul", ops.matmul, [a, bmat])
    check("linear", ops.linear, [a, bmat, rand_tensor(rng, (5,))])

    v = Tensor(np.where(np.abs(z := rng.normal(size=10)) < 0.1, 0.4, z),
               dtype=np.float64, requires_grad=True)
    check("relu", ops.relu, [v])
    w2 = rand_tensor(rng, (10,))
    check("add", ops.add, [v, w2])

    x3 = rand_tensor(rng, (3, 4, 2))
    check("concat", lambda x_, y_: ops.concat([x_, y_], axis=1),
          [x3, rand_tensor(rng, (3, 4, 2))])
    check("upsample2x", ops.upsample2x, [x3])
    check("reshape", lambda x_: ops.reshape(x_, (6, 4)), [x3])
    check("narrow", lambda x_: ops.narrow(x_, 1, 1, 2), [x3])
    check("take_rows", lambda x_: ops.take_rows(x_, np.array([0, 2, 2])), [x3])

    g = rand_tensor(rng, (3,), lo=0.5, hi=1.5)
    be = rand_tensor(rng, (3,))
    check("channel_norm", ops.channel_norm, [rand_tensor(rng, (4, 5, 3)), g, be])

    # one full row block and a partial one
    check("attention", lambda q_, k_, v_: ops.attention(q_, k_, v_, 2),
          [rand_tensor(rng, (ops.ATTENTION_ROW_BLOCK + 22, 4)) for _ in range(3)])
    check("scale", lambda x_: ops.scale(x_, -2.5), [v])

    for tag, (h, w, stride, relu) in (("s1-relu", (5, 6, 1, True)),
                                       ("s2-linear", (7, 6, 2, False))):
        check(f"conv_norm_act[{tag}]",
              lambda x_, k_, g_, b_, s=stride, r=relu: ops.conv_norm_act(x_, k_, g_, b_, r, s, 1),
              [rand_tensor(rng, (h, w, 3)), rand_tensor(rng, (3, 3, 3, 4)),
               rand_tensor(rng, (4,), lo=0.5, hi=1.5), rand_tensor(rng, (4,))])
    check("linear[3d]", ops.linear,
          [rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (4, 6)), rand_tensor(rng, (6,))])
    # two levels, two heads, three queries, two points per level
    check("ms_deform_attn", lambda v1, v2, loc, aw: ops.ms_deform_attn([v1, v2], loc, aw),
          [rand_tensor(rng, (3, 4, 6)), rand_tensor(rng, (2, 3, 6)),
           rand_tensor(rng, (3, 2, 2, 2, 2), lo=-0.1, hi=1.1),
           rand_tensor(rng, (3, 2, 2, 2), lo=0.1, hi=1.0)])
    return results


def run_module_checks(seed: int):
    rng = np.random.default_rng(seed)
    results = []

    def check(name, f, inputs, tol, probe=None, eps=1e-6):
        """``probe``: the seed of ``f``'s output probe; None for a scalar ``f``."""
        results.append((name, grad_check(f, inputs, eps=eps, probe=probe), tol))

    # cost-volume pyramid (correlate, fuse, aggregate, project)
    net = SPFPN(rng, bins=(3, 4), c_dec=5, variant="spfpn")
    l1 = rand_tensor(rng, (4, 6, 3))
    r1 = rand_tensor(rng, (4, 6, 3))
    c2_const = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)

    def pyramid(l, r):
        c1 = ops.add(ops.correlation_volume(l, r, 3), ops.correlation_volume(l, r, 3))
        return flat_concat([ops.linear(*level) for level in net.project_scales(
            net.cross_scale_aggregate([c1, c2_const]))])

    check("spfpn", pyramid, [l1, r1], tol=1e-4, probe=31)

    # disparity-aware positional encoding
    logits = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
    check("dape", lambda lg: dape(lg, c_dec=12), [logits], tol=1e-4, probe=33)

    # self-attention
    attn = MHSA(rng, c_dec=6, heads=2)
    check("mhsa", attn.forward, [rand_tensor(rng, (4, 6))], tol=1e-5, probe=34)

    # one full decoder layer
    layer = DecoderLayer(rng, c_dec=4, heads=2, points=2, n_levels=1, ffn_hidden=8)
    layer.cross.offset.w.data[:] = 0.1 * rng.normal(size=layer.cross.offset.w.data.shape)
    layer.cross.weight.w.data[:] = rng.normal(size=layer.cross.weight.w.data.shape)
    refs = reference_points(2, 2, np.float64)
    q0, f0 = rand_tensor(rng, (4, 4)), rand_tensor(rng, (2, 2, 4))
    proj_rng = np.random.default_rng(38)
    kernel0 = Tensor(proj_rng.normal(size=(4, 4)), dtype=np.float64)
    bias0 = Tensor(proj_rng.normal(size=4), dtype=np.float64)
    check("decoder_layer",
          lambda q_, f_: layer.forward(q_, None, refs, [LevelProjection(f_, kernel0, bias0)]),
          [q0, f0], tol=1e-4, probe=35)

    # detection heads
    head = DetectionHead(rng, c_dec=6, n_classes=1, anchors_per_cell=1)
    head.reg_out.w.data[:] = 0.1 * rng.normal(size=head.reg_out.w.data.shape)
    check("detection_head", lambda x_: flat_concat(head.forward(x_)),
          [rand_tensor(rng, (4, 6))], tol=1e-5, probe=36)

    # losses
    cls_in = _logits(rng.uniform(0.1, 0.9, size=(8,)))
    tgt = (rng.uniform(size=8) > 0.6).astype(np.float64)
    check("focal_loss", lambda x: ops.focal_loss(x, tgt, 20.0, 2.0), [cls_in], tol=1e-6)
    reg_in = rand_tensor(rng, (6,))
    reg_target = rng.normal(size=6)
    check("smooth_l1", lambda p: ops.smooth_l1(p, reg_target, 0.04), [reg_in], tol=1e-5, eps=1e-7)
    orient_in = _logits(rng.uniform(0.15, 0.85, size=(5,)))
    blab = (rng.uniform(size=5) > 0.5).astype(np.float64)
    check("focal_loss[orientation]", lambda x: ops.focal_loss(x, blab, alpha=1.0, gamma=1.0),
          [orient_in], tol=1e-6)
    dl = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64, requires_grad=True)
    gt = rng.uniform(0, 3, size=(2, 3))
    msk = np.ones((2, 3), dtype=bool)
    check("stereo_focal_loss", lambda lg: stereo_focal_loss(lg, gt, msk, 0.5)[0], [dl], tol=1e-6)
    return results


def _toy_frame():
    params = SynthParams(width=64, height=32, focal=40.0, baseline=0.5,
                         n_objects=(2, 2), z_range=(4.5, 9.0),
                         w_range=(1.8, 2.2), l_range=(2.5, 3.5))
    frame = synth_scene(5, params)
    dl, vl, dr, vr = block_match_stereo(frame.left, frame.right, 16, 7)
    return FrameData(frame_id="toy", left=frame.left, right=frame.right,
                     calib=frame.calib, labels=frame.labels, pseudo_disp=dl,
                     pseudo_valid=vl, pseudo_disp_right=dr, pseudo_valid_right=vr)


def run_end2end_check(seed: int):
    """Full training loss on a two-object toy scene, differentiated through
    parameters selected across the network depth."""
    cfg = RunConfig.toy()
    cfg.dtype = "float64"
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


def run_scope(scope: str, seed: int):
    if scope == "ops":
        return run_op_checks(seed)
    if scope == "modules":
        return run_module_checks(seed)
    if scope == "end2end":
        return run_end2end_check(seed)
    if scope == "all":
        return run_op_checks(seed) + run_module_checks(seed) + run_end2end_check(seed)
    raise ValueError(f"unknown gradcheck scope '{scope}'")
