"""Command-line entry point.

Subcommands: synth, pseudogt, train, infer, eval, gradcheck, heatmap.
Exit codes: 0 success, 1 usage error, 2 configuration/validation failure or a
path that cannot be read or written, 3 numerical failure (NaN or a failed
gradient check).

The TS3D_THREADS environment variable caps worker parallelism, including the
BLAS thread pools; importing ts3d applies it, before numpy is first imported.

Under glibc, importing ts3d raises malloc's trim and mmap thresholds, so freed
temporaries stay mapped for the next step or frame instead of faulting in again.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checksuite import run_scope
from .config import QUERY_STRIDE, check_interval, load_config
from .dataset import MANIFEST_NAME, build_pseudo_gt, generate_dataset, load_frame, read_manifest
from .evalkit import evaluate_directories, write_report
from .kitti_io import write_pgm
from .model import check_dataset, dape_similarity_heatmap
from .synth import SynthParams
from .tensor import ConfigError, NumericalError, Tensor, no_grad
from .train import load_trained_model, run_inference, train_run


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _pair(values) -> str:
    """A SynthParams range default as the LO,HI text of its synth flag."""
    return ",".join(f"{x:g}" for x in values)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ts3d", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--preset", default="desk", choices=("full", "desk", "toy"),
                       help="built-in defaults to start from (default desk)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a single config key")

    p = sub.add_parser("synth", help="generate a synthetic stereo dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=8, help="training frames")
    p.add_argument("--val-frames", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objects", default=_pair(SynthParams.n_objects),
                   help="min,max objects per frame (default %(default)s)")
    p.add_argument("--z-range", default=_pair(SynthParams.z_range),
                   help="min,max object distance in m (default %(default)s)")
    add_config_args(p)

    p = sub.add_parser("pseudogt", help="cache block-matching disparity for a dataset")
    p.add_argument("--data", required=True)
    add_config_args(p)

    p = sub.add_parser("train", help="train on a dataset's train split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--print-every", type=int, default=50)
    p.add_argument("--quiet", action="store_true")
    add_config_args(p)

    p = sub.add_parser("infer", help="run detection over a split and write results")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--out", required=True)
    add_config_args(p)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True, help="dataset root or label directory")
    p.add_argument("--iou", type=float, default=0.7,
                   help="IoU threshold for every class (default 0.7, the KITTI Car "
                        "threshold)")
    p.add_argument("--mode", default="bev", choices=("bev", "3d"))
    p.add_argument("--min-height", type=float, default=0.0,
                   help="difficulty gate: minimum 2D box height in ground truth")
    p.add_argument("--report", default=None, help="also write metric=value lines here")
    add_config_args(p)

    p = sub.add_parser("gradcheck", help="finite-difference verification suites")
    p.add_argument("--scope", default="all", choices=("ops", "modules", "end2end", "all"))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("heatmap", help="dump positional-encoding similarity maps")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--probe", required=True, metavar="U,V",
                   help="probe pixel on the stride-16 query grid")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--bin", type=int, default=None,
                   help="also dump this disparity bin of the encoding")
    add_config_args(p)
    return parser


def _parse_overrides(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got '{item}'")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _load_cfg(args):
    return load_config(path=args.config, preset=args.preset,
                       overrides=_parse_overrides(args.overrides))


def _range_flag(flag, text, cast, interval):
    """LO,HI from a synth flag, both in ``interval``; ConfigError naming the flag."""
    try:
        lo, hi = (cast(x) for x in text.split(","))
    except ValueError:
        lo = hi = None
    if lo is None or lo > hi:
        raise ConfigError(f"{flag} {text} is invalid: need LO,HI with LO <= HI")
    for x in (lo, hi):
        check_interval(flag, x, interval)
    return lo, hi


def _cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    for flag, n in (("--frames", args.frames), ("--val-frames", args.val_frames),
                    ("--seed", args.seed)):
        check_interval(flag, n, "[0, inf)")
    objects = _range_flag("--objects", args.objects, int, "[0, inf)")
    z_range = _range_flag("--z-range", args.z_range, float, "(0, inf)")
    params = SynthParams(width=cfg.width, height=cfg.height, n_objects=objects,
                         z_range=z_range)
    manifest = generate_dataset(args.out, seed=args.seed, n_train=args.frames,
                                n_val=args.val_frames, params=params,
                                n_scales=cfg.anchor_scales)
    n = sum(len(v) for v in manifest.splits.values())
    print(f"wrote {n} frames to {args.out} "
          f"(train={len(manifest.splits['train'])}, val={len(manifest.splits['val'])})")
    return 0


def _cmd_pseudogt(args) -> int:
    cfg = _load_cfg(args)
    check_dataset(read_manifest(os.path.join(args.data, MANIFEST_NAME)), cfg)
    n = build_pseudo_gt(args.data, max_disp=cfg.resolved_bm_max_disp(),
                        window=cfg.bm_window)
    print(f"cached pseudo ground truth for {n} frames under {args.data}/disp")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    check_interval("--print-every", args.print_every, "[1, inf)")
    train_run(cfg, args.data, args.out, resume=args.resume,
              print_every=args.print_every, quiet=args.quiet)
    print(f"training complete; checkpoints in {args.out}")
    return 0


def _cmd_infer(args) -> int:
    cfg = _load_cfg(args)
    model = load_trained_model(cfg, args.data, args.ckpt)
    n = run_inference(model, args.data, args.split, args.out)
    print(f"wrote detections for {n} frames to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    check_interval("--iou", args.iou, "(0, 1]")
    check_interval("--min-height", args.min_height, "[0, inf)")
    gt_dir = args.gt
    label_sub = os.path.join(gt_dir, "label_2")
    if os.path.isdir(label_sub):
        gt_dir = label_sub
    thresholds = {name: args.iou for name in cfg.classes}
    metrics = evaluate_directories(args.pred, gt_dir, list(cfg.classes), thresholds,
                                   mode=args.mode, min_box_height=args.min_height)
    for k, v in metrics.items():
        print(f"{k}={v}")
    if args.report:
        write_report(args.report, metrics)
    return 0


def _cmd_gradcheck(args) -> int:
    check_interval("--seed", args.seed, "[0, inf)")
    results = run_scope(args.scope, seed=args.seed)
    failed = 0
    for name, err, tol in results:
        ok = err < tol
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: max_rel_err={err:.3e} tol={tol:.0e}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


def _cmd_heatmap(args) -> int:
    cfg = _load_cfg(args)
    try:
        u, v = (int(x) for x in args.probe.split(","))
    except ValueError:
        raise ConfigError(f"--probe expects two integers U,V, got '{args.probe}'") from None
    hq, wq = cfg.height // QUERY_STRIDE, cfg.width // QUERY_STRIDE
    check_interval("--probe U", u, f"[0, {wq})")
    check_interval("--probe V", v, f"[0, {hq})")
    if args.bin is not None:
        if cfg.dape_mode not in ("dape", "onehot"):
            raise ConfigError(f"--bin needs an encoding with disparity bins (dape_mode dape "
                              f"or onehot), got dape_mode={cfg.dape_mode}")
        check_interval("--bin", args.bin, f"[0, {cfg.c_disp})")
    if cfg.dape_mode == "none":
        raise ConfigError("heatmap needs a positional encoding, got dape_mode=none")
    model = load_trained_model(cfg, args.data, args.ckpt)
    manifest = read_manifest(os.path.join(args.data, MANIFEST_NAME))
    frame = load_frame(args.data, args.frame, manifest, with_pseudo=False)
    with no_grad():
        outputs = model.forward(Tensor(frame.left.astype(model.dtype)),
                                Tensor(frame.right.astype(model.dtype)))
    sim = dape_similarity_heatmap(outputs, (u, v), (hq, wq))
    up = np.repeat(np.repeat(sim, QUERY_STRIDE, axis=0), QUERY_STRIDE, axis=1)
    write_pgm(args.out, up)
    masked = frame.left.mean(axis=-1) * up
    root, ext = os.path.splitext(args.out)
    write_pgm(root + "_masked" + ext, masked)
    if args.bin is not None:
        pe = outputs.pe_flat.data.reshape(hq, wq, -1)
        write_pgm(root + f"_bin{args.bin}" + ext, pe[:, :, cfg.c_dec - cfg.c_disp + args.bin])
    print(f"wrote heatmaps next to {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "pseudogt": _cmd_pseudogt,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "heatmap": _cmd_heatmap,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
