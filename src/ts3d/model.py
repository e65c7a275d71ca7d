"""Full detector assembly: backbone -> cost-volume pyramid -> disparity head
-> grid queries with positional encoding -> decoder -> detection heads.

``TS3D.forward`` stops at the decoder. The rest is built by whoever reads it:
``compute_loss`` builds the stride-4 disparity logits and one detection head
per decoder layer (auxiliary supervision, as in DETR), and ``infer`` runs the
detection head once, on the last layer's queries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .backbone import Backbone
from .checkpoint import TEMPLATES_ENTRY
from .config import QUERY_STRIDE, SUPERVISION_STRIDE, RunConfig
from .dataset import FrameData, Manifest, estimate_priors
from .decoder import DecoderStack, GridQuery, dape, one_hot_disparity_pe, sine_pe_2d
from .detect import (
    AnchorTemplate,
    DetectionHead,
    build_targets,
    decode_detections,
    generate_anchors,
    layer_detection_loss,
    total_loss,
)
# softargmax is unused here; the benchmark tracer hooks ts3d.model.softargmax.
from .disphead import DisparityHead, softargmax, stereo_focal_loss  # noqa: F401
from .spfpn import SPFPN
from .tensor import ConfigError, Module, Tensor, bind_parameter_names, no_grad


def anchor_templates(priors: dict, cfg: RunConfig) -> list:
    """Class x prior scale x aspect-ratio anchor templates from per-class priors
    (``dataset.estimate_priors``); ratio r makes a 2D box w2d*sqrt(r) by h2d/sqrt(r)."""
    out = []
    for cls_id, name in enumerate(cfg.classes):
        for sc in priors[name]:
            for r in cfg.anchor_ratios:
                s = math.sqrt(r)
                out.append(AnchorTemplate(cls_id, sc["w2d"] * s, sc["h2d"] / s,
                                          sc["z"], sc["w"], sc["h"], sc["l"]))
    return out


def check_dataset(manifest: Manifest, cfg: RunConfig) -> None:
    """A model's dataset has the config's resolution and classes (else ``ConfigError``)."""
    if (manifest.width, manifest.height) != (cfg.width, cfg.height):
        raise ConfigError(f"dataset resolution {manifest.width}x{manifest.height} of "
                          f"{manifest.path} does not match configured {cfg.width}x{cfg.height}")
    if list(cfg.classes) != manifest.classes:
        raise ConfigError(f"classes {list(cfg.classes)} differ from {manifest.classes} of "
                          f"{manifest.path}")


def check_templates(table, classes, source: str) -> np.ndarray:
    """``table`` as a float64 (T, 7) anchor-template table (``TS3D.templates``) whose rows
    each hold a class id in [0, len(classes)), then six finite sizes and priors > 0; else
    ``ValueError`` naming ``source`` and, for a bad size, the row's class. Every table
    that enters a model from outside (manifest priors, a checkpoint) passes here."""
    table = np.asarray(table, dtype=np.float64)
    sizes = table[:, 1:] if table.ndim == 2 and table.shape[1] == 7 else np.empty(0)
    if not (sizes.size and np.isin(table[:, 0], range(len(classes))).all()):
        raise ValueError(f"{source} holds no '{TEMPLATES_ENTRY}' table of rows: a class id "
                         f"in [0, {len(classes)}), then six finite sizes and priors > 0")
    bad = ~((sizes > 0) & (sizes < np.inf)).all(axis=1)
    if bad.any():
        row = int(bad.argmax())
        name = classes[int(table[row, 0])]
        raise ValueError(f"{source}: the anchor template of class '{name}' has sizes and "
                         f"priors {sizes[row].tolist()}, not all finite and > 0")
    return table


def build_anchor_templates(manifest: Manifest, cfg: RunConfig) -> list:
    """The anchor templates of a model trained on a dataset, whose manifest fits the config
    (``check_dataset``) and holds ``cfg.anchor_scales`` valid priors per class (else
    ``ValueError``, see ``check_templates``)."""
    check_dataset(manifest, cfg)
    for name, scales in manifest.priors.items():
        if len(scales) != cfg.anchor_scales:
            raise ValueError(f"{manifest.path} stores {len(scales)} anchor scales for '{name}', "
                             f"configuration expects {cfg.anchor_scales}")
    templates = anchor_templates(manifest.priors, cfg)
    check_templates(templates, cfg.classes, f"the priors of {manifest.path}")
    return templates


@dataclass
class ModelOutputs:
    """What one forward pass produced, and only what its callers read. The
    stride-4 disparity logits (``DisparityHead.supervision_logits``) and the
    detection heads (``DetectionHead.forward``) are built from these by
    ``TS3D.compute_loss`` and ``TS3D.infer``."""

    logits_q: Tensor           # stride-16 disparity logits
    pe_flat: Tensor | None     # (Nq, c_dec) positional encoding
    queries: list              # decoder outputs, one per layer


class TS3D(Module):
    """The detector of ``cfg``, which it validates before it builds any module: a
    config that breaks a constraint raises ``ConfigError`` naming the key here, and
    no module re-checks it. ``templates`` is an anchor-template table that
    ``check_templates`` admits; without one, each class gets the default prior."""

    def __init__(self, cfg: RunConfig, templates=None, rng=None):
        super().__init__()
        self.cfg = cfg.validate()
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        if templates is None:
            templates = anchor_templates(estimate_priors([], cfg.classes, cfg.anchor_scales), cfg)
        self.templates = np.array(templates, dtype=np.float64)  # (T, 7), as a checkpoint stores it
        self.backbone = Backbone(rng, width=cfg.c_bb, blocks_per_stage=cfg.blocks_per_stage)
        self.spfpn = SPFPN(rng, bins=cfg.bins, c_dec=cfg.c_dec, variant=cfg.pyramid_variant)
        c3_channels = self.spfpn.agg_channels[-1]
        self.disp_head = DisparityHead(rng, c3_channels, cfg.c_disp)
        self.query = GridQuery(rng, c3_channels, cfg.c_dec)
        self.decoder = DecoderStack(rng, cfg.n_dec, cfg.c_dec, cfg.heads, cfg.points,
                                    n_levels=len(cfg.bins))
        self.head = DetectionHead(rng, cfg.c_dec, len(cfg.classes),
                                  anchors_per_cell=len(self.templates))
        self.anchors = generate_anchors(cfg.width // QUERY_STRIDE,
                                        cfg.height // QUERY_STRIDE,
                                        QUERY_STRIDE, self.templates)
        bind_parameter_names(self)
        self.dtype = np.dtype(cfg.dtype)
        self.astype(self.dtype)

    # -- forward ---------------------------------------------------------

    def positional_encoding(self, logits_q: Tensor):
        cfg = self.cfg
        hq, wq, _ = logits_q.shape
        if cfg.dape_mode == "dape":
            return dape(logits_q, cfg.c_dec)
        if cfg.dape_mode == "sine2d":
            return Tensor(sine_pe_2d(wq, hq, cfg.c_dec, dtype=self.dtype))
        if cfg.dape_mode == "onehot":
            return one_hot_disparity_pe(logits_q, cfg.c_dec)
        return None

    def forward(self, left: Tensor, right: Tensor) -> ModelOutputs:
        cfg = self.cfg
        if left.shape != (cfg.height, cfg.width, 3) or left.shape != right.shape:
            raise ConfigError(
                f"input extents {left.shape}/{right.shape} do not match the "
                f"configured {cfg.height}x{cfg.width}x3"
            )
        # no local holds the pyramids, so under no_grad they are freed before the decoder
        aggregated, levels = self.spfpn.forward(self.backbone.forward(left, right))
        c3 = aggregated[-1]
        logits_q = self.disp_head.forward(c3)
        x_q, refs = self.query.forward(c3)
        pe = self.positional_encoding(logits_q)
        pe_flat = ops.reshape(pe, (x_q.shape[0], cfg.c_dec)) if pe is not None else None
        queries = self.decoder.forward(x_q, pe_flat, refs, levels)
        return ModelOutputs(logits_q=logits_q, pe_flat=pe_flat, queries=queries)

    # -- training --------------------------------------------------------

    def supervision_pseudo_gt(self, frame: FrameData):
        """Stride-4 pseudo ground truth in bin units, with its validity mask."""
        off = SUPERVISION_STRIDE // 2
        disp = frame.pseudo_disp[off::SUPERVISION_STRIDE, off::SUPERVISION_STRIDE]
        valid = frame.pseudo_valid[off::SUPERVISION_STRIDE, off::SUPERVISION_STRIDE]
        return disp / float(SUPERVISION_STRIDE), valid

    def compute_loss(self, outputs: ModelOutputs, frame: FrameData):
        cfg = self.cfg
        targets = build_targets(
            self.anchors, frame.labels, cfg.classes,
            frame.calib.f, frame.calib.cx, frame.calib.cy,
            tau_fg=cfg.tau_fg, tau_bg=cfg.tau_bg, ensure_matches=cfg.ensure_matches)
        gt_disp, valid = self.supervision_pseudo_gt(frame)
        logits_sup = self.disp_head.supervision_logits(outputs.logits_q)
        disp_loss, n_valid = stereo_focal_loss(logits_sup, gt_disp, valid, sigma=cfg.sigma)
        layer_losses = [
            layer_detection_loss(*self.head.forward(q), targets, alpha=cfg.focal_alpha,
                                 gamma=cfg.focal_gamma, beta=cfg.smooth_l1_beta)
            for q in outputs.queries
        ]
        total = total_loss(layer_losses, disp_loss, targets.n_objects)
        norm = 1.0 / max(targets.n_objects, 1)
        parts = {
            "cls": norm * sum(float(l[0].item()) for l in layer_losses),
            "reg": norm * sum(float(l[1].item()) for l in layer_losses),
            "orient": norm * sum(float(l[2].item()) for l in layer_losses),
            "disp": float(disp_loss.item()),
            "n_pos": int(len(targets.pos_rows)),
            "n_objects": targets.n_objects,
            "n_valid_px": int(n_valid),
        }
        return total, parts

    def train_step_loss(self, frame: FrameData):
        left = Tensor(frame.left.astype(self.dtype, copy=False))
        right = Tensor(frame.right.astype(self.dtype, copy=False))
        outputs = self.forward(left, right)
        return self.compute_loss(outputs, frame)

    # -- inference ---------------------------------------------------------

    def infer(self, frame: FrameData):
        cfg = self.cfg
        with no_grad():
            left = Tensor(frame.left.astype(self.dtype, copy=False))
            right = Tensor(frame.right.astype(self.dtype, copy=False))
            cls, reg = self.head.forward(self.forward(left, right).queries[-1])
        return decode_detections(
            self.anchors, cls, reg, cfg.classes,
            frame.calib.f, frame.calib.cx, frame.calib.cy,
            score_threshold=cfg.score_threshold, iou_threshold=cfg.nms_iou,
        )


def dape_similarity_heatmap(outputs: ModelOutputs, probe_uv, shape_hw) -> np.ndarray:
    """Dot-product similarity of one pixel's positional encoding against all
    pixels, normalized to [0, 1]; emulates attention affinity."""
    hq, wq = shape_hw
    if outputs.pe_flat is None:
        raise ValueError("positional encoding disabled for this run")
    pe = outputs.pe_flat.data.reshape(hq, wq, -1)
    u, v = probe_uv
    probe = pe[v, u]
    sim = (pe * probe).sum(axis=-1)
    lo, hi = sim.min(), sim.max()
    return (sim - lo) / (hi - lo) if hi > lo else np.zeros_like(sim)
