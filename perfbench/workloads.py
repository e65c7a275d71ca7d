"""The three benchmark workloads: set-up, timed phase and correctness checks.

Every workload drives ``ts3d`` through the entry points its CLI uses
(``generate_dataset``, ``build_pseudo_gt``, ``train_run``,
``load_trained_model`` + ``run_inference``, ``evaluate_directories``) with
configs built by ``load_config`` from a preset plus ``--set``-style overrides.

The timed phase repeats one fixed unit of work (a whole training run, a
validation pass, a fresh dataset) until ``seconds`` have passed, so every
unit of one seed does identical work and per-step counts repeat exactly.
The only hooks in the untraced run are one timestamp per step or frame.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import ts3d.dataset
import ts3d.train
from ts3d.checkpoint import save_model
from ts3d.config import load_config
from ts3d.dataset import (
    MANIFEST_NAME,
    build_pseudo_gt,
    generate_dataset,
    pseudo_gt_paths,
    read_manifest,
)
from ts3d.evalkit import evaluate_directories
from ts3d.kitti_io import read_kitti_label, read_raster_f32, read_raster_mask
from ts3d.model import TS3D, build_anchor_templates
from ts3d.synth import SynthParams, synth_scene
from ts3d.train import LAST_CKPT, load_trained_model, run_inference, train_run

# train-desk: one unit is a whole 16-step train_run over the 16-frame dataset
# (one epoch at batch 1). Checkpoints every 4 steps give the unit as many
# checkpoints per step as the preset's 500 of 2000.
TRAIN_FRAMES = 16
TRAIN_STEPS = 16
TRAIN_CHECKPOINT_EVERY = 4

# infer-full: one unit is a validation pass over 2 full-resolution frames.
# The model is untrained and fixed: weights and anchor priors come from
# MODEL_SEED, not from the workload seed, because a detector's compute does
# not depend on its weights but decode+NMS work does depend on the anchors.
VAL_FRAMES = 2
MODEL_SEED = 0
SCORE_THRESHOLD = "0.001"
EVAL_IOU = {"Car": 0.7}      # the eval command's default for Car

# prep-desk: one unit is a fresh 8-frame dataset, rendered then block-matched.
PREP_FRAMES = 8

# Every unit runs at least twice. Times are the best over the repeats, per
# step or frame: repeats do identical work, so the fastest one is the
# closest to the program's own cost on a machine shared with other load.
MIN_REPEATS = 2

# Known-answer bounds for pseudo-GT against the analytic disparity, pooled
# over one dataset: median absolute error and share of pixels off by > 1 px.
PGT_MEDIAN_PX = 0.5
PGT_BAD_SHARE = 0.05


def config(workload: str):
    if workload == "train-desk":
        return load_config(preset="desk", overrides={
            "total_steps": str(TRAIN_STEPS),
            "checkpoint_every": str(TRAIN_CHECKPOINT_EVERY),
        })
    if workload == "infer-full":
        return load_config(preset="full", overrides={"score_threshold": SCORE_THRESHOLD})
    return load_config(preset="desk")


def synth_params(cfg) -> SynthParams:
    return SynthParams(width=cfg.width, height=cfg.height)


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, work: str, seed: int) -> None:
    """Build everything the timed phase reads, under ``work``."""
    cfg = config(workload)
    if workload == "train-desk":
        data = os.path.join(work, "data")
        generate_dataset(data, seed=seed, n_train=TRAIN_FRAMES, n_val=0,
                         params=synth_params(cfg), n_scales=cfg.anchor_scales)
        build_pseudo_gt(data, max_disp=cfg.resolved_bm_max_disp(), window=cfg.bm_window)
    elif workload == "infer-full":
        # the model's anchor priors come from a one-frame training set
        model_data = os.path.join(work, "model_data")
        manifest = generate_dataset(model_data, seed=MODEL_SEED, n_train=1, n_val=0,
                                    params=synth_params(cfg), n_scales=cfg.anchor_scales)
        model = TS3D(cfg, templates=build_anchor_templates(manifest, cfg),
                     rng=np.random.default_rng(cfg.seed))
        save_model(os.path.join(work, "model.ts3d"), model)
        generate_dataset(os.path.join(work, "data"), seed=seed, n_train=0,
                         n_val=VAL_FRAMES, params=synth_params(cfg),
                         n_scales=cfg.anchor_scales)
    else:
        os.makedirs(work, exist_ok=True)


# ---------------------------------------------------------------------------
# timed phase


def _mark_calls(owner, attr: str, times: list) -> None:
    """Append one timestamp per call of ``owner.attr``."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        times.append(time.perf_counter())
        return fn(*args, **kwargs)

    setattr(owner, attr, wrapper)


def _intervals_ms(marks: list, end: float) -> list:
    stamps = marks + [end]
    return [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]


def _quantile(values, q: int) -> float:
    """The q-th percentile, interpolated linearly between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """Units of work and checks attempted and failed, plus the metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}
        self.checks: list = []
        self.items = 0

    def metric(self, name: str, value: float, unit: str, n: int | None = None,
               repeats: int | None = None) -> None:
        """Record a metric with its sample count ``n`` and the number of
        repeats it is the best of, where it has them."""
        self.metrics[name] = {"value": value, "unit": unit}
        if n is not None:
            self.metrics[name]["n"] = n
        if repeats is not None:
            self.metrics[name]["best_of"] = repeats

    def unit_failed(self, n_items: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += n_items
        self.failed += n_items

    def check(self, name: str, fn, *args) -> None:
        """Run ``fn(*args) -> (ok, detail)``; outputs that cannot be read fail it."""
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics, "checks": self.checks, "items": self.items}


def measure(workload: str, work: str, seed: int, seconds: float) -> Result:
    """Repeat the workload's unit of work for ``seconds``, then check it."""
    cfg = config(workload)
    result = Result()
    {"train-desk": _measure_train, "infer-full": _measure_infer,
     "prep-desk": _measure_prep}[workload](cfg, work, seed, seconds, result)
    return result


def _repeat(unit, n_items: int, seconds: float, result: Result) -> list:
    """Run ``unit(i)`` until ``seconds`` have passed, and at least MIN_REPEATS times.

    A unit returns (per-item milliseconds, {stage: seconds}); a unit that
    raises counts all its items as failed and ends the timed phase.
    """
    repeats = []
    t0 = time.perf_counter()
    while True:
        try:
            repeats.append(unit(len(repeats)))
        except Exception:
            result.unit_failed(n_items)
            break
        result.attempted += n_items
        if time.perf_counter() - t0 >= seconds and len(repeats) >= MIN_REPEATS:
            break
    result.metric("peak_rss_mb", _peak_rss_mb(), "MB")
    result.items = len(repeats) * n_items
    return repeats


def _best(repeats: list):
    """Per-item and per-stage minimum over identical repeats."""
    items = [min(col) for col in zip(*(r[0] for r in repeats))]
    stages = {k: min(r[1][k] for r in repeats) for k in repeats[0][1]}
    return items, stages


def _item_quantiles(result: Result, prefix: str, items: list, k: int) -> None:
    for q in (50, 90):
        result.metric(f"{prefix}_p{q}", _quantile(items, q), "ms", len(items), repeats=k)


def _measure_train(cfg, work, seed, seconds, result):
    data = os.path.join(work, "data")
    step_marks: list = []
    _mark_calls(TS3D, "zero_grad", step_marks)
    runs = []

    def unit(i):
        out = os.path.join(work, f"run{i}")
        first = len(step_marks)
        start = time.perf_counter()
        model = train_run(cfg, data, out, quiet=True)
        end = time.perf_counter()
        runs.append((out, {p.name: p.data.copy() for p in model.parameters()}))
        return _intervals_ms(step_marks[first:], end), {"wall": end - start}

    repeats = _repeat(unit, cfg.total_steps, seconds, result)
    if repeats:
        steps, best = _best(repeats)
        frames = cfg.total_steps * cfg.batch_size
        result.metric("train_frames_per_s", frames / best["wall"], "1/s", repeats=len(repeats))
        _item_quantiles(result, "train_step_ms", steps, len(repeats))
    for out, params in runs:
        result.check("train.log_one_line_per_step", _log_has_lines, out, cfg.total_steps)
        result.check("train.losses_finite", _losses_finite, out)
        result.check("train.ckpt_last_reloads", _reloads, cfg, data, out, params)


def _log_has_lines(out, steps):
    with open(os.path.join(out, "metrics.log"), encoding="utf-8") as fh:
        n = len(fh.read().splitlines())
    return n == steps, f"{n} lines for {steps} steps in {out}"


def _losses_finite(out):
    with open(os.path.join(out, "metrics.log"), encoding="utf-8") as fh:
        for line in fh:
            fields = dict(tok.split("=", 1) for tok in line.split())
            if not all(math.isfinite(float(fields[k]))
                       for k in ("lr", "cls", "reg", "orient", "disp", "total")):
                return False, f"{out}: {line.strip()}"
    return True, out


def _reloads(cfg, data, out, params):
    model = load_trained_model(cfg, data, os.path.join(out, LAST_CKPT + ".ts3d"))
    same = all(np.array_equal(p.data, params[p.name]) for p in model.parameters())
    return same, out


def _measure_infer(cfg, work, seed, seconds, result):
    data = os.path.join(work, "data")
    model = load_trained_model(cfg, os.path.join(work, "model_data"),
                               os.path.join(work, "model.ts3d"))
    frame_marks: list = []
    _mark_calls(ts3d.train, "load_frame", frame_marks)
    passes = []

    def unit(i):
        pred = os.path.join(work, f"pred{i}")
        first = len(frame_marks)
        start = time.perf_counter()
        run_inference(model, data, "val", pred)
        mid = time.perf_counter()
        evaluate_directories(pred, os.path.join(data, "label_2"), list(cfg.classes),
                             EVAL_IOU, mode="bev")
        end = time.perf_counter()
        passes.append(pred)
        return (_intervals_ms(frame_marks[first:], mid),
                {"infer": mid - start, "eval": end - mid, "wall": end - start})

    repeats = _repeat(unit, VAL_FRAMES, seconds, result)
    if repeats:
        frames, best = _best(repeats)
        k = len(repeats)
        result.metric("infer_frames_per_s", VAL_FRAMES / best["infer"], "1/s", repeats=k)
        _item_quantiles(result, "infer_frame_ms", frames, k)
        result.metric("eval_s", best["eval"], "s", repeats=k)
        result.metric("pass_frames_per_s", VAL_FRAMES / best["wall"], "1/s", repeats=k)
    ids = read_manifest(os.path.join(data, MANIFEST_NAME)).splits["val"]
    counts: dict = {}
    for pred in passes:
        result.check("infer.one_label_file_per_frame", _one_file_per_frame, pred, ids)
        for fid in ids:
            result.check("infer.labels_parse_and_repeat", _detections_repeat,
                         pred, fid, counts)
    labels = os.path.join(data, "label_2")
    for mode in ("bev", "3d"):
        result.check(f"eval.gt_as_pred_ap100_{mode}", _gt_scores_ap100, cfg, labels, mode)


def _one_file_per_frame(pred, ids):
    files = sorted(f for f in os.listdir(pred) if f.endswith(".txt"))
    return files == sorted(fid + ".txt" for fid in ids), f"{pred}: {files}"


def _detections_repeat(pred, fid, counts):
    """The frame's label file parses and holds as many detections as in pass 0."""
    n = len(read_kitti_label(os.path.join(pred, fid + ".txt")))
    first = counts.setdefault(fid, n)
    return n == first, f"frame {fid}: {n} detections in {pred}, {first} in the first pass"


def _gt_scores_ap100(cfg, labels, mode):
    """Ground truth scored as predictions must reach AP 100."""
    metrics = evaluate_directories(labels, labels, list(cfg.classes), EVAL_IOU, mode=mode)
    aps = [v for k, v in metrics.items() if k.startswith(f"ap_{mode}_")]
    return aps == [100.0] * len(cfg.classes), f"AP {aps}"


def _measure_prep(cfg, work, seed, seconds, result):
    synth_marks, match_marks = [], []
    _mark_calls(ts3d.dataset, "synth_scene", synth_marks)
    _mark_calls(ts3d.dataset, "block_match_stereo", match_marks)
    rounds = []

    def unit(i):
        root = os.path.join(work, f"round{i}")
        s_first, m_first = len(synth_marks), len(match_marks)
        start = time.perf_counter()
        generate_dataset(root, seed=seed, n_train=PREP_FRAMES, n_val=0,
                         params=synth_params(cfg), n_scales=cfg.anchor_scales)
        mid = time.perf_counter()
        build_pseudo_gt(root, max_disp=cfg.resolved_bm_max_disp(), window=cfg.bm_window)
        end = time.perf_counter()
        rounds.append(root)
        synth_ms = _intervals_ms(synth_marks[s_first:], mid)
        pgt_ms = _intervals_ms(match_marks[m_first:], end)
        return ([a + b for a, b in zip(synth_ms, pgt_ms)],
                {"synth": mid - start, "pgt": end - mid, "wall": end - start})

    repeats = _repeat(unit, PREP_FRAMES, seconds, result)
    if repeats:
        frames, best = _best(repeats)
        k = len(repeats)
        result.metric("synth_frames_per_s", PREP_FRAMES / best["synth"], "1/s", repeats=k)
        result.metric("pseudogt_frames_per_s", PREP_FRAMES / best["pgt"], "1/s", repeats=k)
        result.metric("prep_frames_per_s", PREP_FRAMES / best["wall"], "1/s", repeats=k)
        _item_quantiles(result, "prep_frame_ms", frames, k)
    analytic: dict = {}
    for root in rounds:
        result.check("pseudogt.matches_analytic_disparity", _pseudo_gt_matches,
                     root, cfg, analytic)


def _pseudo_gt_matches(root, cfg, analytic):
    """Pseudo-GT on valid pixels against the renderer's analytic disparity.

    ``analytic`` caches the rendered frames by seed across rounds."""
    manifest = read_manifest(os.path.join(root, MANIFEST_NAME))
    errors = []
    for i, fid in enumerate(manifest.splits["train"]):
        # generate_dataset renders frame i from seed + i * 1000003
        frame_seed = manifest.seed + i * 1000003
        if frame_seed not in analytic:
            analytic[frame_seed] = synth_scene(frame_seed, synth_params(cfg))
        frame = analytic[frame_seed]
        paths = pseudo_gt_paths(root, fid)
        disp = read_raster_f32(paths["disp"], manifest.height, manifest.width)
        valid = read_raster_mask(paths["mask"], manifest.height, manifest.width)
        sel = valid & frame.hit_mask
        errors.append(np.abs(disp[sel] - frame.disparity[sel]))
    err = np.concatenate(errors)
    if not err.size:
        return False, f"{root}: no valid pseudo-GT pixels"
    median = float(np.median(err))
    bad = float((err > 1.0).mean())
    return (median <= PGT_MEDIAN_PX and bad <= PGT_BAD_SHARE,
            f"{root}: median {median:.3f} px, {100 * bad:.2f}% off by > 1 px "
            f"over {err.size} valid pixels")
