"""Command-line entry point.

Subcommands: synth, pseudogt, train, infer, eval, gradcheck, heatmap.
Exit codes: 0 success, 1 usage error, 2 configuration/validation failure,
3 numerical failure (NaN or a failed gradient check).

The TS3D_THREADS environment variable caps worker parallelism, including the
BLAS thread pools, and is applied before numpy is first imported.
"""

from __future__ import annotations

import argparse
import os
import sys


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _apply_thread_cap():
    cap = os.environ.get("TS3D_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


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
    p.add_argument("--objects", default="1,4", help="min,max objects per frame")
    p.add_argument("--z-range", default="4,30", help="min,max object distance (m)")
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
    from .config import load_config

    return load_config(path=args.config, preset=args.preset,
                       overrides=_parse_overrides(args.overrides))


def _range_flag(flag, text, cast, interval):
    """LO,HI from a synth flag, both in ``interval``; ConfigError naming the flag."""
    from .config import check_interval
    from .tensor import ConfigError

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
    from .config import check_interval
    from .dataset import generate_dataset
    from .synth import SynthParams

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
    from .dataset import build_pseudo_gt

    cfg = _load_cfg(args)
    n = build_pseudo_gt(args.data, max_disp=cfg.resolved_bm_max_disp(),
                        window=cfg.bm_window)
    print(f"cached pseudo ground truth for {n} frames under {args.data}/disp")
    return 0


def _cmd_train(args) -> int:
    from .config import check_interval
    from .train import train_run

    cfg = _load_cfg(args)
    check_interval("--print-every", args.print_every, "[1, inf)")
    train_run(cfg, args.data, args.out, resume=args.resume,
              print_every=args.print_every, quiet=args.quiet)
    print(f"training complete; checkpoints in {args.out}")
    return 0


def _cmd_infer(args) -> int:
    from .train import load_trained_model, run_inference

    cfg = _load_cfg(args)
    model = load_trained_model(cfg, args.data, args.ckpt)
    n = run_inference(model, args.data, args.split, args.out)
    print(f"wrote detections for {n} frames to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    from .config import check_interval
    from .evalkit import evaluate_directories, write_report

    cfg = _load_cfg(args)
    check_interval("--iou", args.iou, "(0, 1]")
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
    from .checksuite import run_scope
    from .config import check_interval

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
    import numpy as np

    from .config import check_interval
    from .dataset import MANIFEST_NAME, load_frame, read_manifest
    from .kitti_io import write_pgm
    from .model import QUERY_STRIDE, dape_similarity_heatmap
    from .tensor import ConfigError, Tensor, no_grad
    from .train import load_trained_model

    cfg = _load_cfg(args)
    try:
        u, v = (int(x) for x in args.probe.split(","))
    except ValueError:
        raise ConfigError(f"--probe expects two integers U,V, got '{args.probe}'") from None
    hq, wq = cfg.height // QUERY_STRIDE, cfg.width // QUERY_STRIDE
    check_interval("--probe U", u, f"[0, {wq})")
    check_interval("--probe V", v, f"[0, {hq})")
    if args.bin is not None:
        check_interval("--bin", args.bin, f"[0, {cfg.c_disp})")
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
    _apply_thread_cap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    from .tensor import ConfigError, NumericalError

    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
