"""Full-model integration: wiring, shapes, determinism, encoding modes."""

import numpy as np
import pytest

from ts3d.config import RunConfig
from ts3d.dataset import FrameData
from ts3d.disphead import block_match_stereo
from ts3d.model import TS3D, dape_similarity_heatmap
from ts3d.synth import SynthParams, synth_scene
from ts3d.tensor import ConfigError, Tensor, no_grad


def _toy_cfg(**kw):
    cfg = RunConfig.toy()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


def _toy_frame(seed=5):
    params = SynthParams(width=64, height=32, focal=40.0, baseline=0.5,
                         n_objects=(2, 2), z_range=(4.5, 9.0),
                         w_range=(1.8, 2.2), l_range=(2.5, 3.5))
    f = synth_scene(seed, params)
    dl, vl, dr, vr = block_match_stereo(f.left, f.right, 16, 7)
    return FrameData(frame_id="t", left=f.left, right=f.right, calib=f.calib,
                     labels=f.labels, pseudo_disp=dl, pseudo_valid=vl,
                     pseudo_disp_right=dr, pseudo_valid_right=vr)


def _forward(model, frame):
    with no_grad():
        return model.forward(Tensor(frame.left.astype(model.dtype)),
                             Tensor(frame.right.astype(model.dtype)))


def test_toy_forward_shapes():
    cfg = _toy_cfg()
    model = TS3D(cfg, rng=np.random.default_rng(0))
    frame = _toy_frame()
    out = _forward(model, frame)
    nq = (64 // 16) * (32 // 16)
    assert out.x_q.shape == (nq, cfg.c_dec)
    assert out.logits_q.shape == (2, 4, cfg.c_disp)
    assert out.logits_sup.shape == (8, 16, cfg.c_disp)
    assert len(out.keys) == 3
    assert all(k.shape[-1] == cfg.c_dec for k in out.keys)
    assert len(out.cls_layers) == cfg.n_dec
    assert out.cls_layers[-1].shape == (nq, len(cfg.classes) + 1)
    assert out.reg_layers[-1].shape == (nq, 13)
    assert out.pe_flat.shape == (nq, cfg.c_dec)
    # regressed disparity is a convex combination of bin indices
    assert out.disparity_map.data.min() >= 0.0
    assert out.disparity_map.data.max() <= cfg.c_disp - 1


def test_full_scale_query_count_arithmetic():
    cfg = RunConfig.full().validate()
    assert (cfg.width // 16) * (cfg.height // 16) == 1440


def test_forward_deterministic_bitwise():
    cfg = _toy_cfg()
    model = TS3D(cfg, rng=np.random.default_rng(1))
    frame = _toy_frame()
    a = _forward(model, frame)
    b = _forward(model, frame)
    assert a.cls_layers[-1].data.tobytes() == b.cls_layers[-1].data.tobytes()
    assert a.reg_layers[-1].data.tobytes() == b.reg_layers[-1].data.tobytes()


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


def test_zero_decoder_layers_supervises_raw_queries():
    cfg = _toy_cfg(n_dec=0)
    model = TS3D(cfg, rng=np.random.default_rng(4))
    out = _forward(model, _toy_frame())
    assert out.layer_queries == []
    assert len(out.cls_layers) == 1  # heads attach directly to the grid queries


def test_dape_is_the_depth_channel_into_queries():
    """Same scene through "none" mode twice is identical; through "dape" the
    encoding responds to the disparity logits."""
    frame = _toy_frame()
    cfg_none = _toy_cfg(dape_mode="none")
    model = TS3D(cfg_none, rng=np.random.default_rng(5))
    out_a = _forward(model, frame)
    out_b = _forward(model, frame)
    assert out_a.pe_flat is None
    assert np.array_equal(out_a.cls_layers[-1].data, out_b.cls_layers[-1].data)

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
        assert out.cls_layers[-1].shape[0] == 8


def test_pyramid_variants_run_and_differ():
    frame = _toy_frame()
    outs = {}
    for variant in ("spfpn", "topdown_fpn", "bifpn_like"):
        cfg = _toy_cfg(pyramid_variant=variant)
        model = TS3D(cfg, rng=np.random.default_rng(7))
        outs[variant] = _forward(model, frame).keys[2].data
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
    """With supervision every decoder layer's queries receive gradient; without
    it only the final layer's path is driven."""
    frame = _toy_frame()
    cfg = _toy_cfg(n_dec=2)
    model = TS3D(cfg, rng=np.random.default_rng(9))
    left = Tensor(frame.left.astype(model.dtype))
    right = Tensor(frame.right.astype(model.dtype))

    def layer_grads(intermediate):
        model.cfg.intermediate_supervision = intermediate
        model.zero_grad()
        out = model.forward(left, right)
        loss, _ = model.compute_loss(out, frame)
        for q in out.layer_queries:
            q.grad = None
        loss.backward()
        return out

    out = layer_grads(True)
    assert all(q.grad is not None and np.abs(q.grad).max() > 0
               for q in out.layer_queries)
    out = layer_grads(False)
    # the first layer still feeds the second, but no head loss attaches to it:
    # its gradient flows only through the next layer, while the last layer's
    # head gradient must be nonzero
    assert out.layer_queries[-1].grad is not None


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
