"""Training loop determinism, checkpoint resume, and CLI surfaces."""

import os
import shutil
import subprocess
import sys
import types
import warnings
import weakref
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

import ts3d.checkpoint
import ts3d.train
from ts3d.checkpoint import load_arrays, save_model
from ts3d.config import BOUNDS, CHOICES, RunConfig, config_from_text, load_config
from ts3d.dataset import (
    MANIFEST_NAME,
    build_pseudo_gt,
    generate_dataset,
    pseudo_gt_paths,
    read_manifest,
)
from ts3d.evalkit import evaluate_directories
from ts3d.kitti_io import read_kitti_label, write_kitti_label, write_raster_mask
from ts3d.model import TS3D
from ts3d.optim import AdamW, cosine_lr
from ts3d.synth import SynthParams
from ts3d.tensor import ConfigError
from ts3d.train import (
    LAST_CKPT,
    load_trained_model,
    run_inference,
    save_checkpoint,
    train_run,
)

TOY_OVERRIDES = dict(total_steps=6, checkpoint_every=3, batch_size=1)


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("toyset")
    params = SynthParams(width=64, height=32, focal=40.0, baseline=0.5,
                         n_objects=(1, 2), z_range=(4.5, 9.0))
    generate_dataset(root, seed=13, n_train=3, n_val=2, params=params)
    cfg = RunConfig.toy()
    build_pseudo_gt(root, max_disp=cfg.resolved_bm_max_disp(), window=7)
    return root


def _toy_cfg(**kw):
    cfg = RunConfig.toy()
    merged = {**TOY_OVERRIDES, **kw}
    for k, v in merged.items():
        setattr(cfg, k, v)
    return cfg.validate()


def _read_log(out_dir, key="total"):
    totals = []
    with open(os.path.join(out_dir, "metrics.log"), encoding="utf-8") as fh:
        for line in fh:
            fields = dict(kv.split("=", 1) for kv in line.split())
            totals.append(float(fields[key]))
    return totals


def test_training_trajectory_deterministic(toy_dataset, tmp_path):
    train_run(_toy_cfg(), toy_dataset, tmp_path / "a", quiet=True)
    train_run(_toy_cfg(), toy_dataset, tmp_path / "b", quiet=True)
    assert _read_log(tmp_path / "a") == _read_log(tmp_path / "b")


@pytest.mark.parametrize("stop_after", [3, 4])
def test_resume_reproduces_loss_trajectory(toy_dataset, tmp_path, stop_after):
    train_run(_toy_cfg(), toy_dataset, tmp_path / "full", quiet=True)
    full = _read_log(tmp_path / "full")

    split = tmp_path / "split"
    train_run(_toy_cfg(), toy_dataset, split, quiet=True, stop_after=stop_after)
    assert load_arrays(split / "ckpt_last.ts3d")["adamw.step"][0] == stop_after
    train_run(_toy_cfg(), toy_dataset, split, resume=True, quiet=True)
    assert _read_log(split) == full
    # one file per checkpoint tag
    assert sorted(os.listdir(split)) == [
        "ckpt_000003.ts3d", "ckpt_000006.ts3d", "ckpt_last.ts3d", "config.txt", "metrics.log",
    ]


def test_resume_after_crash_writes_the_uninterrupted_log(toy_dataset, tmp_path, monkeypatch):
    cfg = _toy_cfg(checkpoint_every=2)
    train_run(cfg, toy_dataset, tmp_path / "full", quiet=True)

    run = tmp_path / "run"
    step = AdamW.step

    def crashing_step(self):
        if self.step_count == 3:
            raise RuntimeError("simulated crash")
        return step(self)

    monkeypatch.setattr(AdamW, "step", crashing_step)
    with pytest.raises(RuntimeError, match="simulated"):
        train_run(cfg, toy_dataset, run, quiet=True)
    monkeypatch.undo()
    # step 2 was logged after the last checkpoint (step 2 reached)
    assert len(_read_log(run)) == 3
    train_run(cfg, toy_dataset, run, resume=True, quiet=True)
    assert (run / "metrics.log").read_text() == (tmp_path / "full" / "metrics.log").read_text()


@pytest.mark.parametrize("batch_size", [1, 2])
def test_each_frame_graph_is_freed_before_the_next_forward(toy_dataset, tmp_path,
                                                           monkeypatch, batch_size):
    step_loss = TS3D.train_step_loss
    interiors = []

    def checked_step_loss(self, frame):
        assert not interiors or interiors[-1]() is None, "previous frame's graph is still alive"
        loss, parts = step_loss(self, frame)
        interiors.append(weakref.ref(loss._parents[0]))
        return loss, parts

    monkeypatch.setattr(TS3D, "train_step_loss", checked_step_loss)
    train_run(_toy_cfg(total_steps=3, batch_size=batch_size), toy_dataset, tmp_path / "run",
              quiet=True)
    assert len(interiors) == 3 * batch_size


def test_each_step_loads_its_own_frame_and_drops_the_earlier_ones(toy_dataset, tmp_path,
                                                                   monkeypatch):
    """Six steps over three train frames read a frame from disk per step, and
    no step keeps a frame loaded for an earlier one."""
    loaded = []
    load = ts3d.train.load_frame
    step_loss = TS3D.train_step_loss

    def counted_load(*args, **kwargs):
        frame = load(*args, **kwargs)
        loaded.append(weakref.ref(frame))
        return frame

    def checked_step_loss(self, frame):
        assert loaded[-1]() is frame
        assert all(r() is None for r in loaded[:-1]), "an earlier step's frame is still alive"
        return step_loss(self, frame)

    monkeypatch.setattr(ts3d.train, "load_frame", counted_load)
    monkeypatch.setattr(TS3D, "train_step_loss", checked_step_loss)
    cfg = _toy_cfg(augment=False)
    n_train = len(read_manifest(os.path.join(toy_dataset, MANIFEST_NAME)).splits["train"])
    assert cfg.total_steps == 2 * n_train
    train_run(cfg, toy_dataset, tmp_path / "run", quiet=True)
    assert len(loaded) == cfg.total_steps


def test_extending_a_finished_run_follows_new_schedule(toy_dataset, tmp_path):
    run = tmp_path / "run"
    train_run(_toy_cfg(total_steps=3), toy_dataset, run, quiet=True)
    longer = _toy_cfg()
    (run / "config.txt").write_text(longer.to_text())
    train_run(longer, toy_dataset, run, resume=True, quiet=True)
    lrs = _read_log(run, key="lr")
    assert len(lrs) == 6
    for k in (3, 4, 5):
        expected = cosine_lr(k, 6, longer.lr)
        assert expected > 0
        assert lrs[k] == pytest.approx(expected, rel=1e-6)


def test_frame_without_valid_pseudo_gt_warns_and_trains_unchanged(toy_dataset, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(toy_dataset, data)
    manifest = read_manifest(data / MANIFEST_NAME)
    fid = manifest.splits["train"][0]
    paths = pseudo_gt_paths(data, fid)
    for key in ("mask", "mask_right"):  # a flip reads the right view's mask
        write_raster_mask(paths[key], np.zeros((manifest.height, manifest.width), bool))
    with pytest.warns(RuntimeWarning) as record:
        train_run(_toy_cfg(), data, tmp_path / "warned", quiet=True)
    messages = [str(w.message) for w in record if "pseudo-GT" in str(w.message)]
    # 6 steps of batch 1 over 3 train frames: the zeroed frame is drawn twice
    assert len(messages) == 2 and all(fid in m for m in messages)
    assert _read_log(tmp_path / "warned", "disp").count(0.0) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train_run(_toy_cfg(), data, tmp_path / "unwarned", quiet=True)
    for key in ("cls", "reg", "orient", "disp", "total"):
        assert _read_log(tmp_path / "warned", key) == _read_log(tmp_path / "unwarned", key)


def test_failed_save_keeps_previous_checkpoint(toy_dataset, tmp_path, monkeypatch):
    cfg = _toy_cfg(total_steps=1)
    run = tmp_path / "run"
    model = train_run(cfg, toy_dataset, run, quiet=True)
    ckpt = run / (LAST_CKPT + ".ts3d")
    before = ckpt.read_bytes()

    payloads = []

    def crc32_failing_on_third_entry(data, value=0):
        if isinstance(data, np.ndarray):
            payloads.append(data)
            if len(payloads) == 3:
                raise OSError("simulated write failure")
        return zlib.crc32(data, value)

    monkeypatch.setattr(ts3d.checkpoint, "zlib",
                        types.SimpleNamespace(crc32=crc32_failing_on_third_entry))
    for p in model.parameters():
        p.data += 1.0
    opt = AdamW(list(model.parameters()), base_lr=cfg.lr)
    with pytest.raises(OSError, match="simulated"):
        save_checkpoint(str(run), LAST_CKPT, model, opt)
    monkeypatch.undo()

    assert len(payloads) == 3
    assert ckpt.read_bytes() == before
    assert not (run / (LAST_CKPT + ".ts3d.tmp")).exists()
    load_trained_model(cfg, toy_dataset, ckpt)


def test_resume_config_mismatch_lists_keys(toy_dataset, tmp_path):
    train_run(_toy_cfg(), toy_dataset, tmp_path / "run", quiet=True)
    changed = _toy_cfg(c_dec=32, heads=4)
    with pytest.raises(ConfigError) as exc:
        train_run(changed, toy_dataset, tmp_path / "run", resume=True, quiet=True)
    assert "c_dec" in str(exc.value) and "heads" in str(exc.value)


def test_checkpoint_roundtrip_same_losses(toy_dataset, tmp_path):
    from ts3d.dataset import load_frame, read_manifest

    cfg = _toy_cfg()
    model = train_run(cfg, toy_dataset, tmp_path / "run", quiet=True)
    reloaded = load_trained_model(cfg, toy_dataset, tmp_path / "run" / "ckpt_last.ts3d")
    man = read_manifest(os.path.join(toy_dataset, "manifest.txt"))
    frame = load_frame(toy_dataset, "000000", man)
    a, _ = model.train_step_loss(frame)
    b, _ = reloaded.train_step_loss(frame)
    assert a.item() == pytest.approx(b.item(), abs=1e-6)


# ---------------------------------------------------------------------------
# config file semantics


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nc_dec=32\nheads=4\nbins=4,8,12\naugment=false\n")
    cfg = load_config(path=path, preset="toy", overrides={"heads": "2"})
    assert cfg.c_dec == 32
    assert cfg.heads == 2  # command line beats file
    assert cfg.bins == (4, 8, 12)
    assert cfg.augment is False


def test_config_validation_names_constraint():
    with pytest.raises(ConfigError, match="divisible by 16"):
        load_config(preset="toy", overrides={"width": "60"})
    with pytest.raises(ConfigError, match="c_disp"):
        load_config(preset="toy", overrides={"c_disp": "64"})
    with pytest.raises(ConfigError, match="unknown configuration key"):
        load_config(preset="toy", overrides={"not_a_key": "1"})


@pytest.mark.parametrize("key, bad, edge", [
    ("anchor_ratios", "0", "0.5,2"), ("anchor_ratios", "1.0,-2", "1e-3"),
    ("anchor_ratios", "1,inf", "1e3"),
    ("checkpoint_every", "-1", "0"),
    ("nms_iou", "0", "1"), ("nms_iou", "1.5", "1e-3"), ("nms_iou", "nan", "0.4"),
    ("score_threshold", "-0.1", "0"), ("score_threshold", "1.01", "1"),
    ("flip_probability", "-0.5", "0"), ("flip_probability", "2", "1"),
    ("sigma", "0", "1e-3"), ("sigma", "-1", "2"), ("sigma", "inf", "1e3"),
    ("c_bb", "0", "1"), ("c_disp", "0", "4"), ("blocks_per_stage", "-1", "0"),
    ("heads", "0", "1"), ("points", "0", "1"), ("seed", "-1", "0"),
    ("bm_max_disp", "-1", "0"), ("classes", "", "Car"),
])
def test_config_rejects_out_of_range_values_naming_the_key(key, bad, edge):
    with pytest.raises(ConfigError, match=key):
        load_config(preset="toy", overrides={key: bad})
    load_config(preset="toy", overrides={key: edge})  # an accepted value next to it


@pytest.mark.parametrize("key, value", [
    ("lr", "abc"), ("bins", "a,b,c"), ("batch_size", "nan"), ("total_steps", "1.5"),
])
def test_config_value_that_does_not_parse_names_the_key(key, value):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(preset="toy", overrides={key: value})


# a new key must come with a bound, or be listed here as having none
UNBOUNDED_KEYS = ("intermediate_supervision", "ensure_matches", "augment", "classes")


def test_every_config_key_is_bounded_or_listed_as_unbounded_exactly_once():
    named = [k for keys in BOUNDS.values() for k in keys] + list(CHOICES) + list(UNBOUNDED_KEYS)
    assert sorted(named) == sorted(f.name for f in fields(RunConfig))


@pytest.mark.parametrize("key, bad, edge", [
    ("lr", "0", "1e-9"), ("smooth_l1_beta", "0", "1e-3"), ("smooth_l1_beta", "-1", "2"),
    ("weight_decay", "-1e-4", "0"), ("focal_gamma", "-1", "0"), ("focal_alpha", "0", "1e-3"),
    ("tau_fg", "1.5", "1"), ("tau_bg", "-0.1", "0"),
    ("lr", "inf", "1e3"), ("weight_decay", "inf", "1e3"), ("smooth_l1_beta", "inf", "1e3"),
    ("focal_alpha", "inf", "1e3"), ("focal_gamma", "inf", "1e3"),
])
def test_config_rejects_out_of_range_loss_and_optimizer_values_and_nan(key, bad, edge):
    for value in (bad, "nan"):
        with pytest.raises(ConfigError, match=key):
            load_config(preset="toy", overrides={key: value})
    load_config(preset="toy", overrides={key: edge})  # an accepted value next to it


# toy is 64x32: the block-matching window must fit the height and leave a disparity
@pytest.mark.parametrize("window", ["-1", "33", "65"])
def test_config_rejects_a_block_matching_window_that_cannot_fit(window):
    with pytest.raises(ConfigError, match="bm_window"):
        load_config(preset="toy", overrides={"bm_window": window})
    assert load_config(preset="toy", overrides={"bm_window": "31"}).bm_window == 31


@pytest.mark.parametrize("preset", ["full", "desk", "toy"])
def test_config_text_roundtrip_keeps_default_types(preset):
    cfg = load_config(preset=preset)
    back = config_from_text(cfg.to_text())
    assert back.diff(cfg) == []
    for f in fields(RunConfig):
        value = getattr(back, f.name)
        assert type(value) is type(f.default), f.name
        if isinstance(value, tuple):
            assert all(type(x) is type(f.default[0]) for x in value), f.name
    ratios = load_config(preset=preset, overrides={"anchor_ratios": "1"}).anchor_ratios
    assert ratios == (1.0,) and type(ratios[0]) is float
    bins = load_config(preset=preset, overrides={"bins": "3,5,7"}).bins
    assert bins == (3, 5, 7) and all(type(b) is int for b in bins)


def test_resolved_config_written(toy_dataset, tmp_path):
    cfg = _toy_cfg()
    train_run(cfg, toy_dataset, tmp_path / "run", quiet=True)
    text = (tmp_path / "run" / "config.txt").read_text()
    assert config_from_text(text).diff(cfg) == []


# ---------------------------------------------------------------------------
# CLI subprocess smoke (exit codes and wiring)


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cli(*args, cwd):
    # cwd moves to a temporary directory, so the package path must be absolute
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ts3d", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_pipeline_and_exit_codes(tmp_path):
    env_dir = tmp_path
    r = _cli("synth", "--out", "data", "--frames", "2", "--val-frames", "1",
             "--seed", "3", "--preset", "toy", "--objects", "1,2",
             "--z-range", "4,9", cwd=env_dir)
    assert r.returncode == 0, r.stderr
    r = _cli("pseudogt", "--data", "data", "--preset", "toy", cwd=env_dir)
    assert r.returncode == 0, r.stderr
    r = _cli("train", "--data", "data", "--out", "run", "--preset", "toy",
             "--set", "total_steps=2", "--set", "checkpoint_every=2",
             "--quiet", cwd=env_dir)
    assert r.returncode == 0, r.stderr
    r = _cli("infer", "--ckpt", "run/ckpt_last.ts3d", "--data", "data",
             "--split", "val", "--out", "preds", "--preset", "toy", cwd=env_dir)
    assert r.returncode == 0, r.stderr
    r = _cli("eval", "--pred", "preds", "--gt", "data", "--iou", "0.5",
             "--preset", "toy", "--report", "report.txt", cwd=env_dir)
    assert r.returncode == 0, r.stderr
    assert "ap_bev_Car" in r.stdout
    assert (env_dir / "report.txt").exists()
    r = _cli("heatmap", "--ckpt", "run/ckpt_last.ts3d", "--data", "data",
             "--frame", "000000", "--probe", "1,1", "--out", "heat.pgm",
             "--preset", "toy", cwd=env_dir)
    assert r.returncode == 0, r.stderr
    assert (env_dir / "heat.pgm").exists()
    assert (env_dir / "heat_masked.pgm").exists()


def test_cli_usage_error_is_exit_1(tmp_path):
    r = _cli("train", "--nonsense", cwd=tmp_path)
    assert r.returncode == 1


def test_cli_validation_error_is_exit_2(tmp_path):
    r = _cli("train", "--data", "missing", "--out", "run", "--preset", "toy",
             "--set", "width=60", cwd=tmp_path)
    assert r.returncode == 2
    assert "divisible" in r.stderr
    # caught before the first loss divides by it
    r = _cli("train", "--data", "missing", "--out", "run", "--preset", "toy",
             "--set", "smooth_l1_beta=0", cwd=tmp_path)
    assert r.returncode == 2
    assert "smooth_l1_beta" in r.stderr and "Traceback" not in r.stderr


def test_cli_train_on_a_manifest_without_seed_is_exit_2(toy_dataset, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(toy_dataset, data)
    manifest = data / MANIFEST_NAME
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if not ln.startswith("seed=")))
    r = _cli("train", "--data", str(data), "--out", "run", "--preset", "toy",
             "--set", "total_steps=1", "--set", "checkpoint_every=1", "--quiet", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert str(manifest) in r.stderr and "'seed='" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_gradcheck_rejects_a_negative_seed(tmp_path):
    r = _cli("gradcheck", "--scope", "ops", "--seed=-1", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "--seed" in r.stderr and "Traceback" not in r.stderr
    assert "PASS" not in r.stdout


def test_cli_gradcheck_ops_smoke(tmp_path):
    r = _cli("gradcheck", "--scope", "all", cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PASS" in r.stdout and "FAIL" not in r.stdout
    n_checks = r.stdout.count("PASS ")
    assert f"{n_checks}/{n_checks} checks passed" in r.stdout
    assert "PASS end2end_toy_scene" in r.stdout


@pytest.mark.parametrize("window", ["33", "-1"])
def test_cli_pseudogt_rejects_a_window_taller_than_the_image(toy_dataset, tmp_path, window):
    before = {p: p.read_bytes() for p in (toy_dataset / "disp").iterdir()}
    r = _cli("pseudogt", "--data", str(toy_dataset), "--preset", "toy",
             "--set", f"bm_window={window}", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "bm_window" in r.stderr and "Traceback" not in r.stderr
    assert {p: p.read_bytes() for p in (toy_dataset / "disp").iterdir()} == before


def test_cli_eval_default_iou_is_documented_and_used(toy_dataset, tmp_path):
    preds = tmp_path / "preds"
    preds.mkdir()
    for fid in read_manifest(toy_dataset / MANIFEST_NAME).splits["val"]:
        labels = read_kitti_label(toy_dataset / "label_2" / (fid + ".txt"))
        write_kitti_label(preds / (fid + ".txt"), [replace(lb, score=0.9) for lb in labels])
    r = _cli("eval", "--pred", str(preds), "--gt", str(toy_dataset), "--preset", "toy",
             cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "ap_bev_Car_iou0.7=100.0" in r.stdout.splitlines()
    help_text = _cli("eval", "--help", cwd=tmp_path).stdout
    assert "default 0.7" in " ".join(help_text.split())


def test_cli_infer_truncated_checkpoint_is_exit_2(toy_dataset, tmp_path):
    train_run(_toy_cfg(total_steps=1), toy_dataset, tmp_path / "run", quiet=True)
    ckpt = tmp_path / "run" / "ckpt_last.ts3d"
    ckpt.write_bytes(ckpt.read_bytes()[:-1])
    r = _cli("infer", "--ckpt", str(ckpt), "--data", str(toy_dataset), "--split", "val",
             "--out", "preds", "--preset", "toy", cwd=tmp_path)
    assert r.returncode == 2
    assert str(ckpt) in r.stderr


def test_cli_resume_from_parameters_only_checkpoint_is_exit_2(toy_dataset, tmp_path):
    run = tmp_path / "run"
    model = train_run(_toy_cfg(total_steps=1), toy_dataset, run, quiet=True)
    ckpt = run / (LAST_CKPT + ".ts3d")
    save_model(ckpt, model)  # parameters only, no optimizer state
    r = _cli("train", "--data", str(toy_dataset), "--out", str(run), "--preset", "toy",
             "--set", "total_steps=1", "--set", "checkpoint_every=3", "--resume", "--quiet",
             cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert str(ckpt) in r.stderr
    assert "optimizer state" in r.stderr


@pytest.fixture(scope="module")
def toy_ckpt(toy_dataset, tmp_path_factory):
    run = tmp_path_factory.mktemp("toyrun")
    train_run(_toy_cfg(total_steps=1), toy_dataset, run, quiet=True)
    return run / (LAST_CKPT + ".ts3d")


def test_cli_infer_mismatched_config_names_checkpoint(toy_ckpt, toy_dataset, tmp_path):
    r = _cli("infer", "--ckpt", str(toy_ckpt), "--data", str(toy_dataset), "--split", "val",
             "--out", "preds", "--preset", "toy", "--set", "c_dec=32", "--set", "heads=4",
             cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert str(toy_ckpt) in r.stderr and "shape mismatch" in r.stderr


@pytest.mark.parametrize("command", ["train", "infer"])
def test_cli_classes_must_match_the_manifest(toy_ckpt, toy_dataset, tmp_path, command):
    inputs = {"train": ("--out", "run", "--set", "total_steps=1", "--quiet"),
              "infer": ("--ckpt", str(toy_ckpt), "--out", "preds")}
    r = _cli(command, "--data", str(toy_dataset), *inputs[command], "--preset", "toy",
             "--set", "classes=Pedestrian", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "['Pedestrian']" in r.stderr and "['Car']" in r.stderr
    assert "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


# the toy query grid is 4x2 (64x32 pixels at stride 16) with c_disp = 8
@pytest.mark.parametrize("flag, value", [
    ("--probe", "9,0"), ("--probe", "0,2"), ("--probe", "-1,0"), ("--probe", "1"),
    ("--bin", "-3"), ("--bin", "8"),
])
def test_cli_heatmap_rejects_out_of_range_probe_and_bin(toy_ckpt, toy_dataset, tmp_path,
                                                        flag, value):
    opts = {"--probe": "1,1", flag: value}
    r = _cli("heatmap", "--ckpt", str(toy_ckpt), "--data", str(toy_dataset),
             "--frame", "000000", "--out", "heat.pgm", "--preset", "toy",
             *(f"{k}={v}" for k, v in opts.items()), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert flag in r.stderr and "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_synth_takes_anchor_scales_from_the_config(tmp_path):
    scales = ("--preset", "toy", "--set", "anchor_scales=2")
    r = _cli("synth", "--out", "data", "--frames", "2", "--seed", "3", "--objects", "1,2",
             "--z-range", "4,9", *scales, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = _cli("pseudogt", "--data", "data", *scales, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = _cli("train", "--data", "data", "--out", "run", *scales, "--set", "total_steps=1",
             "--set", "checkpoint_every=1", "--quiet", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    manifest = (tmp_path / "data" / MANIFEST_NAME).read_text()
    assert "prior.Car.1.z=" in manifest


def test_cli_class_without_training_labels_gets_a_prior_per_anchor_scale(tmp_path):
    scales = ("--preset", "toy", "--set", "anchor_scales=2")
    r = _cli("synth", "--out", "data", "--frames", "1", "--objects", "0,0", *scales,
             cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = _cli("pseudogt", "--data", "data", *scales, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = _cli("train", "--data", "data", "--out", "run", *scales, "--set", "total_steps=1",
             "--set", "checkpoint_every=1", "--quiet", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    manifest = (tmp_path / "data" / MANIFEST_NAME).read_text()
    assert "prior.Car.1.z=" in manifest


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--print-every", "0"), ("train", "--print-every", "-3"),
    ("eval", "--iou", "0"), ("eval", "--iou", "-0.2"), ("eval", "--iou", "1.5"),
    ("eval", "--iou", "nan"),
])
def test_cli_rejects_bad_print_every_and_iou_before_any_work(toy_dataset, tmp_path, command,
                                                             flag, value):
    inputs = {"train": ("--data", str(toy_dataset), "--out", "run",
                        "--set", "total_steps=1", "--set", "checkpoint_every=1"),
              "eval": ("--pred", str(toy_dataset / "label_2"), "--gt", str(toy_dataset))}
    r = _cli(command, *inputs[command], "--preset", "toy", f"{flag}={value}", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert flag in r.stderr and "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [
    ("--objects", "3"), ("--objects", "4,1"), ("--objects", "-1,2"), ("--objects", "a,b"),
    ("--z-range", "30,4"), ("--z-range", "0,9"), ("--z-range", "4"),
    ("--frames", "-2"), ("--val-frames", "-1"), ("--seed", "-1"),
])
def test_cli_synth_rejects_bad_flags_before_writing(tmp_path, flag, value):
    r = _cli("synth", "--out", "data", "--preset", "toy", f"{flag}={value}", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert flag in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "data").exists()


def test_toy_training_fits_the_frame_it_is_shown(tmp_path):
    """Learning gate: 100 steps on one toy frame cut the loss 20x, halve the
    disparity loss, and detect both of the frame's objects at bev IoU 0.5."""
    data = tmp_path / "data"
    params = SynthParams(width=64, height=32, focal=40.0, baseline=0.5,
                         n_objects=(1, 2), z_range=(4.5, 9.0))
    generate_dataset(data, seed=13, n_train=1, n_val=0, params=params)
    cfg = _toy_cfg(total_steps=100, lr=3e-3, augment=False, checkpoint_every=0,
                   score_threshold=0.05)
    build_pseudo_gt(data, max_disp=cfg.resolved_bm_max_disp(), window=7)
    model = train_run(cfg, data, tmp_path / "run", quiet=True)
    total = _read_log(tmp_path / "run")
    disp = _read_log(tmp_path / "run", key="disp")
    assert len(total) == 100
    assert total[-1] * 20 <= total[0]
    assert disp[-1] * 2 <= disp[0]
    run_inference(model, data, "train", tmp_path / "pred")
    metrics = evaluate_directories(tmp_path / "pred", data / "label_2", ["Car"], {"Car": 0.5})
    assert metrics["ap_bev_Car_iou0.5"] == 100
