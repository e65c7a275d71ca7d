"""Training loop: augmentation, AdamW with cosine decay, per-step logging,
periodic checkpoints, and exact resume.

The data stream is a function of (seed, position): frame
``k = step * batch_size + b`` is ``train_ids[perm_e[k % n]]`` with ``e = k // n``
and ``perm_e = default_rng((seed, 1, e)).permutation(n)``, augmented with draws
from ``default_rng((seed, 2, k))``. Each step reads its frames from disk and
drops them after the step. There is no frame cache: within one epoch every
frame is read once, so its hit rate is zero, and across a large train split it
would hold every frame in memory. A checkpoint is one ``<tag>.ts3d`` file (see
``checkpoint``) with the parameters and the AdamW step and moments; the config
alone supplies hyperparameters, so resuming needs only the saved step, and
keeps only that many lines of the log (flushed before every checkpoint).
A frame with no valid pseudo-GT pixels at the supervision stride trains with a
zero disparity loss and raises a ``RuntimeWarning`` naming it.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from . import ops
from .augment import augment
from .checkpoint import load_model, save_model
from .config import RunConfig, config_from_text
from .dataset import MANIFEST_NAME, load_frame, read_manifest
from .kitti_io import write_kitti_label
from .model import TS3D, build_anchor_templates
from .optim import AdamW
from .tensor import ConfigError

LAST_CKPT = "ckpt_last"


def save_checkpoint(out_dir, tag, model, opt):
    save_model(os.path.join(out_dir, tag + ".ts3d"), model, opt.state_arrays())


def _format_record(step, lr, parts, total):
    return (
        f"step={step} lr={lr:.6e} cls={parts['cls']:.6f} reg={parts['reg']:.6f} "
        f"orient={parts['orient']:.6f} disp={parts['disp']:.6f} total={total:.6f} "
        f"n_pos={parts['n_pos']}"
    )


def train_run(cfg: RunConfig, data_dir, out_dir, resume: bool = False,
              print_every: int = 50, quiet: bool = False,
              stop_after: int | None = None):
    """Train on the dataset's train split; returns the trained model.

    ``stop_after`` ends the run after that step count (from step 0, not
    shortening the lr schedule); ``ckpt_last`` records the step reached."""
    manifest = read_manifest(os.path.join(data_dir, MANIFEST_NAME))
    train_ids = manifest.splits.get("train", [])
    if not train_ids:
        raise ConfigError(f"dataset at '{data_dir}' has no train split")
    if manifest.width != cfg.width or manifest.height != cfg.height:
        raise ConfigError(
            f"dataset resolution {manifest.width}x{manifest.height} does not match "
            f"configured {cfg.width}x{cfg.height}"
        )
    templates = build_anchor_templates(manifest, cfg)

    os.makedirs(out_dir, exist_ok=True)
    config_path = os.path.join(out_dir, "config.txt")
    if resume:
        if not os.path.exists(config_path):
            raise ConfigError(f"cannot resume: '{config_path}' not found")
        with open(config_path, encoding="utf-8") as fh:
            previous = config_from_text(fh.read())
        mismatched = cfg.diff(previous)
        if mismatched:
            raise ConfigError(
                "resume configuration mismatch on keys: " + ", ".join(sorted(mismatched))
            )
    else:
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(cfg.to_text())

    model = TS3D(cfg, templates=templates, rng=np.random.default_rng(cfg.seed))
    opt = AdamW(list(model.parameters()), base_lr=cfg.lr,
                weight_decay=cfg.weight_decay, total_steps=cfg.total_steps)
    log_path = os.path.join(out_dir, "metrics.log")
    kept_lines = []
    if resume:
        ckpt = os.path.join(out_dir, LAST_CKPT + ".ts3d")
        state = load_model(ckpt, model)
        try:
            opt.load_state_arrays(state)
        except ValueError as exc:
            raise ValueError(f"cannot resume from '{ckpt}': {exc}") from None
        if os.path.exists(log_path):
            with open(log_path, encoding="utf-8") as fh:
                kept_lines = fh.readlines()[: opt.step_count]

    log = open(log_path, "w", encoding="utf-8")
    log.writelines(kept_lines)
    n = len(train_ids)
    end_step = cfg.total_steps if stop_after is None else min(stop_after, cfg.total_steps)
    try:
        for step in range(opt.step_count, end_step):
            model.zero_grad()
            acc = {"cls": 0.0, "reg": 0.0, "orient": 0.0, "disp": 0.0, "n_pos": 0}
            total_val = 0.0
            for b in range(cfg.batch_size):
                k = step * cfg.batch_size + b
                perm = np.random.default_rng((cfg.seed, 1, k // n)).permutation(n)
                fid = train_ids[perm[k % n]]
                frame = load_frame(data_dir, fid, manifest)
                if cfg.augment:
                    frame = augment(frame, np.random.default_rng((cfg.seed, 2, k)),
                                    cfg.flip_probability)
                loss, parts = model.train_step_loss(frame)
                if parts["n_valid_px"] == 0:
                    warnings.warn(f"frame {fid}: no valid pseudo-GT disparity pixels, "
                                  "so its disparity loss is 0", RuntimeWarning)
                ops.scale(loss, 1.0 / cfg.batch_size).backward()
                total_val += loss.item() / cfg.batch_size
                for key in ("cls", "reg", "orient", "disp"):
                    acc[key] += parts[key] / cfg.batch_size
                acc["n_pos"] += parts["n_pos"]
            lr = opt.step()
            record = _format_record(step, lr, acc, total_val)
            log.write(record + "\n")
            if not quiet and (step % print_every == 0 or step == cfg.total_steps - 1):
                print(record, flush=True)
            if cfg.checkpoint_every and opt.step_count % cfg.checkpoint_every == 0:
                log.flush()  # every checkpoint has its log lines on disk
                save_checkpoint(out_dir, f"ckpt_{opt.step_count:06d}", model, opt)
                save_checkpoint(out_dir, LAST_CKPT, model, opt)
        log.flush()
        save_checkpoint(out_dir, LAST_CKPT, model, opt)
    finally:
        log.close()
    return model


# ---------------------------------------------------------------------------
# inference over a split


def run_inference(model: TS3D, data_dir, split, out_dir):
    """Write one KITTI-format detection file (with scores) per split frame."""
    manifest = read_manifest(os.path.join(data_dir, MANIFEST_NAME))
    ids = manifest.splits.get(split, [])
    if not ids:
        raise ConfigError(f"dataset has no '{split}' split")
    os.makedirs(out_dir, exist_ok=True)
    for fid in ids:
        frame = load_frame(data_dir, fid, manifest, with_pseudo=False)
        write_kitti_label(os.path.join(out_dir, fid + ".txt"), model.infer(frame))
    return len(ids)


def load_trained_model(cfg: RunConfig, data_dir, ckpt_path) -> TS3D:
    manifest = read_manifest(os.path.join(data_dir, MANIFEST_NAME))
    model = TS3D(cfg, templates=build_anchor_templates(manifest, cfg),
                 rng=np.random.default_rng(cfg.seed))
    load_model(ckpt_path, model)
    return model
