"""Full-model integration: wiring, shapes, determinism, encoding modes."""

import hashlib
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ts3d import ops
from ts3d.backbone import Backbone
from ts3d.config import RunConfig
from ts3d.dataset import FrameData, generate_dataset
from ts3d.decoder import DecoderStack, MSDeformCA
from ts3d.detect import DetectionHead
from ts3d.disphead import block_match_stereo
from ts3d.layers import Conv2d, ConvNorm
from ts3d.model import TS3D, build_anchor_templates, dape_similarity_heatmap
from ts3d.synth import SynthParams, synth_scene
from ts3d.tensor import ConfigError, Tensor, no_grad


def _toy_cfg(**kw):
    cfg = RunConfig.toy()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


def _toy_frame(seed=5, params=None, max_disp=16, window=7):
    params = params or SynthParams(width=64, height=32, focal=40.0, baseline=0.5,
                                   n_objects=(2, 2), z_range=(4.5, 9.0),
                                   w_range=(1.8, 2.2), l_range=(2.5, 3.5))
    f = synth_scene(seed, params)
    dl, vl, dr, vr = block_match_stereo(f.left, f.right, max_disp, window)
    return FrameData(frame_id="t", left=f.left, right=f.right, calib=f.calib,
                     labels=f.labels, pseudo_disp=dl, pseudo_valid=vl,
                     pseudo_disp_right=dr, pseudo_valid_right=vr)


def _forward(model, frame):
    with no_grad():
        return model.forward(Tensor(frame.left.astype(model.dtype)),
                             Tensor(frame.right.astype(model.dtype)))


def _last_heads(model, out):
    """The detection heads on the last decoder layer, as ``TS3D.infer`` runs them."""
    with no_grad():
        return model.head.forward(out.queries[-1])


def test_toy_forward_shapes():
    cfg = _toy_cfg()
    model = TS3D(cfg, rng=np.random.default_rng(0))
    frame = _toy_frame()
    out = _forward(model, frame)
    nq = (64 // 16) * (32 // 16)
    assert [q.shape for q in out.queries] == [(nq, cfg.c_dec)] * cfg.n_dec
    assert out.logits_q.shape == (2, 4, cfg.c_disp)
    with no_grad():
        assert model.disp_head.supervision_logits(out.logits_q).shape == (8, 16, cfg.c_disp)
        aggregated, _ = model.spfpn.forward(
            model.backbone.forward(Tensor(frame.left.astype(model.dtype)),
                                   Tensor(frame.right.astype(model.dtype))))
    assert len(aggregated) == 3
    assert [a.shape[-1] for a in aggregated] == model.spfpn.agg_channels
    cls, reg = _last_heads(model, out)
    assert cls.shape == (nq, len(cfg.classes) + 1)
    assert reg.shape == (nq, 13)
    assert out.pe_flat.shape == (nq, cfg.c_dec)


def test_full_scale_query_count_arithmetic():
    cfg = RunConfig.full().validate()
    assert (cfg.width // 16) * (cfg.height // 16) == 1440


def test_forward_deterministic_bitwise():
    cfg = _toy_cfg()
    model = TS3D(cfg, rng=np.random.default_rng(1))
    frame = _toy_frame()
    (cls_a, reg_a), (cls_b, reg_b) = (_last_heads(model, _forward(model, frame))
                                      for _ in range(2))
    assert cls_a.data.tobytes() == cls_b.data.tobytes()
    assert reg_a.data.tobytes() == reg_b.data.tobytes()


def test_seeded_construction_reproducible():
    cfg = _toy_cfg()
    a = TS3D(cfg, rng=np.random.default_rng(3))
    b = TS3D(cfg, rng=np.random.default_rng(3))
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert pa.data.tobytes() == pb.data.tobytes()


@pytest.mark.parametrize("preset", ["toy", "desk"])
def test_float32_model_is_the_float64_model_cast_once(preset):
    models = {}
    for dtype in ("float32", "float64"):
        cfg = getattr(RunConfig, preset)()
        cfg.dtype = dtype
        models[dtype] = TS3D(cfg.validate(), rng=np.random.default_rng(0))
        assert all(p.data.dtype == np.dtype(dtype) for p in models[dtype].parameters())
    cast = models["float64"].astype(np.float32)
    pairs = zip(models["float32"].named_parameters(), cast.named_parameters())
    for (n32, p32), (n64, p64) in pairs:
        assert n32 == n64
        assert p32.data.tobytes() == p64.data.tobytes()


def test_full_model_without_a_dataset_has_the_parameters_of_one_built_from_a_manifest(
        tmp_path):
    cfg = RunConfig.full()
    manifest = generate_dataset(tmp_path, seed=1, n_train=0, n_val=0,
                                params=SynthParams(width=cfg.width, height=cfg.height),
                                n_scales=cfg.anchor_scales)
    built = TS3D(cfg, templates=build_anchor_templates(manifest, cfg),
                 rng=np.random.default_rng(0))
    bare = TS3D(cfg, rng=np.random.default_rng(0))
    assert [(n, p.shape) for n, p in bare.named_parameters()] == \
        [(n, p.shape) for n, p in built.named_parameters()]
    assert bare.head.reg_out.w.shape == (256, 78) and len(bare.anchors) == 8640


def test_model_without_a_dataset_has_the_anchors_of_a_dataset_without_train_frames(
        tmp_path):
    cfg = RunConfig.toy()
    manifest = generate_dataset(tmp_path, seed=2, n_train=0, n_val=1,
                                params=SynthParams(width=cfg.width, height=cfg.height),
                                n_scales=cfg.anchor_scales)
    want = TS3D(cfg, templates=build_anchor_templates(manifest, cfg)).anchors
    got = TS3D(cfg).anchors
    for key in ("boxes", "class_ids", "priors"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    assert (got.per_cell, got.wq, got.hq) == (want.per_cell, want.wq, want.hq)


def test_dape_is_the_depth_channel_into_queries():
    """Same scene through "none" mode twice is identical; through "dape" the
    encoding responds to the disparity logits."""
    frame = _toy_frame()
    cfg_none = _toy_cfg(dape_mode="none")
    model = TS3D(cfg_none, rng=np.random.default_rng(5))
    out_a = _forward(model, frame)
    out_b = _forward(model, frame)
    assert out_a.pe_flat is None
    assert np.array_equal(_last_heads(model, out_a)[0].data,
                          _last_heads(model, out_b)[0].data)

    cfg_dape = _toy_cfg(dape_mode="dape")
    model_d = TS3D(cfg_dape, rng=np.random.default_rng(5))
    out_d = _forward(model_d, frame)
    sine_width = cfg_dape.c_dec - cfg_dape.c_disp
    disp_block = out_d.pe_flat.data[:, sine_width:]
    assert np.allclose(disp_block.sum(axis=1), 1.0, atol=1e-5)


def test_all_encoding_modes_run():
    frame = _toy_frame()
    for mode in ("dape", "sine2d", "onehot", "none"):
        cfg = _toy_cfg(dape_mode=mode)
        model = TS3D(cfg, rng=np.random.default_rng(6))
        out = _forward(model, frame)
        assert _last_heads(model, out)[0].shape[0] == 8


def test_pyramid_variants_run_and_differ():
    frame = _toy_frame()
    outs = {}
    for variant in ("spfpn", "topdown_fpn", "bifpn_like"):
        cfg = _toy_cfg(pyramid_variant=variant)
        model = TS3D(cfg, rng=np.random.default_rng(7))
        outs[variant] = _last_heads(model, _forward(model, frame))[0].data
    assert not np.allclose(outs["spfpn"], outs["topdown_fpn"])


def test_loss_and_gradient_flow_end_to_end():
    cfg = _toy_cfg()
    model = TS3D(cfg, rng=np.random.default_rng(8))
    frame = _toy_frame()
    loss, parts = model.train_step_loss(frame)
    assert np.isfinite(loss.item())
    assert parts["n_pos"] >= len(frame.labels)  # forced matching covers every object
    loss.backward()
    with_grad = sum(1 for p in model.parameters() if p.grad is not None)
    assert with_grad > 0.9 * sum(1 for _ in model.parameters())


def test_intermediate_supervision_structural():
    """Every decoder layer's queries receive gradient from the loss."""
    frame = _toy_frame()
    cfg = _toy_cfg(n_dec=2)
    model = TS3D(cfg, rng=np.random.default_rng(9))
    out = model.forward(Tensor(frame.left.astype(model.dtype)),
                        Tensor(frame.right.astype(model.dtype)))
    # leaf copies of the queries: backward frees interior gradients, and
    # each leaf collects only the gradient of its own layer's head loss
    out = replace(out, queries=[Tensor(q.data, requires_grad=True) for q in out.queries])
    loss, _ = model.compute_loss(out, frame)
    loss.backward()
    assert all(q.grad is not None and np.abs(q.grad).max() > 0
               for q in out.queries)


def test_only_the_loss_builds_auxiliary_heads_and_the_supervision_branch(monkeypatch):
    """``infer`` runs the detection head once and never the stride-4 branch;
    ``compute_loss`` runs one head per decoder layer."""
    frame = _toy_frame()
    model = TS3D(_toy_cfg(n_dec=2), rng=np.random.default_rng(12))
    head_calls, up2_calls = [], []
    head_forward, conv_forward = DetectionHead.forward, Conv2d.forward

    def counted_head_forward(self, q):
        head_calls.append(q)
        return head_forward(self, q)

    def counted_conv_forward(self, x):
        if self is model.disp_head.up2:
            up2_calls.append(x)
        return conv_forward(self, x)

    monkeypatch.setattr(DetectionHead, "forward", counted_head_forward)
    monkeypatch.setattr(Conv2d, "forward", counted_conv_forward)

    model.infer(frame)
    assert (len(head_calls), len(up2_calls)) == (1, 0)

    head_calls.clear()
    model.train_step_loss(frame)
    assert (len(head_calls), len(up2_calls)) == (2, 1)


def test_inference_frees_the_backbone_pyramids_before_the_decoder(monkeypatch):
    """Under no_grad nothing reads the per-view feature maps once the cost
    volumes exist, so none is alive when the decoder runs."""
    frame = _toy_frame()
    model = TS3D(_toy_cfg(), rng=np.random.default_rng(13))
    features, alive_at_decoder = [], []
    backbone_forward, decoder_forward = Backbone.forward, DecoderStack.forward

    def recorded_backbone_forward(self, left, right):
        pyr = backbone_forward(self, left, right)
        features.extend(weakref.ref(t) for maps in vars(pyr).values() for t in maps)
        return pyr

    def checked_decoder_forward(self, *args):
        alive_at_decoder.append(sum(r() is not None for r in features))
        return decoder_forward(self, *args)

    monkeypatch.setattr(Backbone, "forward", recorded_backbone_forward)
    monkeypatch.setattr(DecoderStack, "forward", checked_decoder_forward)
    model.infer(frame)
    assert len(features) == 12
    assert alive_at_decoder == [0]


@pytest.mark.parametrize("key, value", [
    ("heads", 3), ("c_disp", 16), ("pyramid_variant", "fpn"), ("width", 60),
])
def test_model_validates_its_config_on_construction(key, value):
    """A config that was never validated is checked by ``TS3D`` itself, which
    names the key; no module it builds checks the config again."""
    with pytest.raises(ConfigError, match=key):
        TS3D(replace(RunConfig.toy(), **{key: value}), rng=np.random.default_rng(0))


def test_mismatched_resolution_rejected():
    cfg = _toy_cfg()
    model = TS3D(cfg, rng=np.random.default_rng(10))
    bad = Tensor(np.zeros((48, 64, 3), dtype=np.float32))
    with pytest.raises(ConfigError):
        with no_grad():
            model.forward(bad, bad)


def test_heatmap_probe_self_similarity_is_max():
    cfg = _toy_cfg()
    model = TS3D(cfg, rng=np.random.default_rng(11))
    out = _forward(model, _toy_frame())
    sim = dape_similarity_heatmap(out, (1, 1), (2, 4))
    assert sim.shape == (2, 4)
    assert sim.min() >= 0 and sim.max() <= 1.0


def _modules(root):
    yield root
    for child in root._children.values():
        yield from _modules(child)


def _graph_ops(root):
    """Op names of the recorded nodes (those with a backward) reachable from root."""
    ops_seen, seen, stack = Counter(), set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._backward_fn is not None:
                ops_seen[t.op] += 1
            stack.extend(t._parents)
    return ops_seen


def _unfused_conv_norm_forward(self, x):
    y = self.norm.forward(self.conv.forward(x))
    return ops.relu(y) if self.act else y


def test_each_backbone_conv_norm_is_one_graph_node(monkeypatch):
    """The desk training graph holds one conv_norm_act node per ConvNorm and
    view, 26 nodes per view fewer than the conv2d -> channel_norm -> relu chain."""
    cfg = RunConfig.desk()
    model = TS3D(cfg, rng=np.random.default_rng(0))
    frame = _toy_frame(seed=3, params=SynthParams(width=cfg.width, height=cfg.height),
                       max_disp=cfg.resolved_bm_max_disp(), window=cfg.bm_window)
    conv_norms = [m for m in _modules(model) if isinstance(m, ConvNorm)]
    saved_per_view = sum(1 + m.act for m in conv_norms)
    assert (len(conv_norms), saved_per_view) == (16, 26)

    fused_loss, _ = model.train_step_loss(frame)
    fused = _graph_ops(fused_loss)
    monkeypatch.setattr(ConvNorm, "forward", _unfused_conv_norm_forward)
    chain_loss, _ = model.train_step_loss(frame)
    chain = _graph_ops(chain_loss)

    assert fused["conv_norm_act"] == 2 * len(conv_norms)
    assert chain["conv_norm_act"] == 0
    assert sum(chain.values()) - sum(fused.values()) == 2 * saved_per_view
    assert fused_loss.item() == pytest.approx(chain_loss.item(), rel=1e-5)


# SHA-256 of the desk model's "<name> <shape>" lines, one per parameter in
# named_parameters() order, as the unfused backbone defined them.
DESK_PARAMETER_DIGEST = "c39de2cb09124c11c5e305e068a6c9c1fd8d377eb838052a6dad077ab8e474d9"


def test_desk_parameter_names_and_shapes_are_unchanged():
    model = TS3D(RunConfig.desk(), rng=np.random.default_rng(0))
    params = list(model.named_parameters())
    lines = "\n".join(f"{name} {p.shape}" for name, p in params)
    assert len(params) == 140
    assert [(n, p.shape) for n, p in params[:3]] == [
        ("backbone.stem.conv.w", (3, 3, 3, 32)), ("backbone.stem.norm.gamma", (32,)),
        ("backbone.stem.norm.beta", (32,))]
    assert hashlib.sha256(lines.encode()).hexdigest() == DESK_PARAMETER_DIGEST


# The same for the full preset: its (256, 78) regression head has one
# 13-wide output per template, 2 anchor scales x 3 ratios.
FULL_PARAMETER_DIGEST = "b31fa6d90d73396ce94f6c374d8a188f20fb21b59ee48c16e7d0edcdc0cd16bb"


def test_deformable_cross_attention_records_18_nodes_per_layer(monkeypatch):
    """On the desk training graph each MSDeformCA forward records 18 nodes:
    3 for the sampling locations, 4 for the attention weights, 3 per level
    (the folded kernel's matmul, the folded bias's linear, the value map's
    linear), one ms_deform_attn and one linear for the output projection.
    The whole desk training graph records 208 nodes; the focal losses apply
    their sigmoid inside, with no node of its own, and each level's 1x1
    projection bias enters ``ops.linear`` as the conv's own (c_dec,) vector,
    with no reshape node. The parameters keep their names and shapes."""
    cfg = RunConfig.desk()
    model = TS3D(cfg, rng=np.random.default_rng(0))
    frame = _toy_frame(seed=3, params=SynthParams(width=cfg.width, height=cfg.height),
                       max_disp=cfg.resolved_bm_max_disp(), window=cfg.bm_window)
    counts, inside = [], []
    forward, make_node = MSDeformCA.forward, ops.make_node

    def counted_forward(self, *args):
        counts.append(0)
        inside.append(True)
        try:
            return forward(self, *args)
        finally:
            inside.pop()

    def counted_make_node(*args):
        out = make_node(*args)
        if inside and out._backward_fn is not None:
            counts[-1] += 1
        return out

    monkeypatch.setattr(MSDeformCA, "forward", counted_forward)
    monkeypatch.setattr(ops, "make_node", counted_make_node)
    loss, _ = model.train_step_loss(frame)
    assert counts == [18] * cfg.n_dec
    graph = _graph_ops(loss)
    assert graph["ms_deform_attn"] == cfg.n_dec
    assert sum(graph.values()) == 208

    for preset, digest in (("desk", DESK_PARAMETER_DIGEST), ("full", FULL_PARAMETER_DIGEST)):
        params = TS3D(getattr(RunConfig, preset)(), rng=np.random.default_rng(0))
        lines = "\n".join(f"{name} {p.shape}" for name, p in params.named_parameters())
        assert hashlib.sha256(lines.encode()).hexdigest() == digest, preset
