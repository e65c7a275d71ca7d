"""Training loop: augmentation, AdamW with cosine decay, per-step logging,
periodic checkpoints, and exact resume.

The data stream is a function of (seed, position): frame
``k = step * batch_size + b`` is ``train_ids[perm_e[k % n]]`` with ``e = k // n``
and ``perm_e = default_rng((seed, 1, e)).permutation(n)``, augmented with draws
from ``default_rng((seed, 2, k))``. Each step reads its frames from disk and
drops them after the step. There is no frame cache: within one epoch every
frame is read once, so its hit rate is zero, and across a large train split it
would hold every frame in memory. A checkpoint is one ``<tag>.ts3d`` file (see
``checkpoint``) with the parameters, the anchor templates and the AdamW step and
moments; only a fresh run takes templates from the dataset's priors. The config
alone supplies hyperparameters, so resuming needs only the saved step, and keeps
only that many lines of the log (flushed before every checkpoint); a log with
fewer lines than the saved step cannot be resumed. A frame with no valid
pseudo-GT pixels at the supervision stride trains with a zero disparity loss,
and a frame whose objects of the run's classes match no anchor trains with no
positive; each raises a ``RuntimeWarning`` naming the frame.
"""

from __future__ import annotations

import contextlib
import os
import warnings

import numpy as np

from .augment import augment
from .checkpoint import TEMPLATES_ENTRY, load_arrays, load_model, save_model
from .config import RunConfig, load_config
from .dataset import MANIFEST_NAME, load_frame, read_manifest
from .kitti_io import write_kitti_label
from .model import TS3D, build_anchor_templates, check_dataset, check_templates
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
              print_every: int = 50, quiet: bool = False):
    """Train on the dataset's train split; returns the trained model."""
    manifest = read_manifest(os.path.join(data_dir, MANIFEST_NAME))
    train_ids = manifest.splits.get("train", [])
    if not train_ids:
        raise ConfigError(f"dataset at '{data_dir}' has no train split")
    templates = None if resume else build_anchor_templates(manifest, cfg)

    os.makedirs(out_dir, exist_ok=True)
    config_path = os.path.join(out_dir, "config.txt")
    ckpt = os.path.join(out_dir, LAST_CKPT + ".ts3d")
    if resume:
        if not os.path.exists(config_path):
            raise ConfigError(f"cannot resume: '{config_path}' not found")
        mismatched = cfg.diff(load_config(path=config_path))
        if mismatched:
            raise ConfigError(
                "resume configuration mismatch on keys: " + ", ".join(sorted(mismatched))
            )
        model, state = load_checkpoint(cfg, manifest, ckpt)
    else:
        cfg.save(config_path)
        model = TS3D(cfg, templates=templates)

    opt = AdamW(list(model.parameters()), base_lr=cfg.lr,
                weight_decay=cfg.weight_decay, total_steps=cfg.total_steps)
    log_path = os.path.join(out_dir, "metrics.log")
    kept_lines = []
    if resume:
        try:
            opt.load_state_arrays(state)
        except ValueError as exc:
            raise ValueError(f"cannot resume from '{ckpt}': {exc}") from None
        if os.path.exists(log_path):
            with open(log_path, encoding="utf-8") as fh:
                kept_lines = fh.readlines()[: opt.step_count]
        if len(kept_lines) < opt.step_count:
            held = (f"holds {len(kept_lines)} lines" if os.path.exists(log_path)
                    else "is missing (0 lines)")
            raise ConfigError(f"cannot resume: '{log_path}' {held}, but '{ckpt}' is at "
                              f"step {opt.step_count}; the resumed log would lack steps")

    log = open(log_path, "w", encoding="utf-8")
    log.writelines(kept_lines)
    n = len(train_ids)
    saved = False  # whether the last step wrote ckpt_last
    try:
        for step in range(opt.step_count, cfg.total_steps):
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
                if parts["n_pos"] == 0 < parts["n_objects"]:
                    warnings.warn(f"frame {fid}: {parts['n_objects']} objects of the run's "
                                  "classes but no positive anchor, so its detection "
                                  "loss has no positive", RuntimeWarning)
                # d(batch mean)/d(this frame's loss)
                loss.backward(np.full_like(loss.data, 1.0 / cfg.batch_size))
                total_val += loss.item() / cfg.batch_size
                for key in ("cls", "reg", "orient", "disp"):
                    acc[key] += parts[key] / cfg.batch_size
                acc["n_pos"] += parts["n_pos"]
            lr = opt.step()
            record = _format_record(step, lr, acc, total_val)
            log.write(record + "\n")
            if not quiet and (step % print_every == 0 or step == cfg.total_steps - 1):
                print(record, flush=True)
            saved = bool(cfg.checkpoint_every) and opt.step_count % cfg.checkpoint_every == 0
            if saved:
                log.flush()  # every checkpoint has its log lines on disk
                save_checkpoint(out_dir, f"ckpt_{opt.step_count:06d}", model, opt)
                save_checkpoint(out_dir, LAST_CKPT, model, opt)
        log.flush()
        if not saved:
            save_checkpoint(out_dir, LAST_CKPT, model, opt)
    finally:
        log.close()
    return model


# ---------------------------------------------------------------------------
# inference over a split


def run_inference(model: TS3D, data_dir, split, out_dir):
    """Write one KITTI-format detection file (with scores) per split frame.
    If a frame fails, the files of the frames reached so far are removed."""
    manifest = read_manifest(os.path.join(data_dir, MANIFEST_NAME))
    ids = manifest.splits.get(split, [])
    if not ids:
        raise ConfigError(f"dataset manifest '{manifest.path}' has no '{split}' split")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        for fid in ids:
            frame = load_frame(data_dir, fid, manifest, with_pseudo=False)
            written.append(os.path.join(out_dir, fid + ".txt"))
            write_kitti_label(written[-1], model.infer(frame))
    except BaseException:
        # a partial prediction directory would be scored as a complete one
        for path in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    return len(ids)


def load_checkpoint(cfg: RunConfig, manifest, path):
    """The model saved at ``path``, built with the anchor templates saved in it
    once ``check_templates`` admits them, and its optimizer state. The dataset of ``manifest``
    must fit the config; that is checked before the file is read, once."""
    check_dataset(manifest, cfg)
    arrays = load_arrays(path)
    table = check_templates(arrays.pop(TEMPLATES_ENTRY, np.empty(0)), cfg.classes, f"'{path}'")
    model = TS3D(cfg, templates=table)
    return model, load_model(path, model, arrays)


def load_trained_model(cfg: RunConfig, data_dir, ckpt_path) -> TS3D:
    return load_checkpoint(cfg, read_manifest(os.path.join(data_dir, MANIFEST_NAME)),
                           ckpt_path)[0]
