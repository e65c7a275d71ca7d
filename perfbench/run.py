"""ts3d benchmark: one workload, its end-to-end or per-layer metrics, its checks.

    python3 perfbench/run.py --workload {train-desk,infer-full,prep-desk} \\
        --seed N --seconds S --trace {0,1}

Set-up runs SETUP_REPEATS times, each in a fresh process, and ``setup_s`` is
their median. The timed phase then runs in one more process. With
``--trace 1`` the whole sequence runs twice, untraced and traced, and the
output holds every per-layer metric plus the tracing overhead on each
end-to-end metric. Human-readable lines come first; the last line of
standard output is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("train-desk", "infer-full", "prep-desk")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0

# End-to-end metric -> the workload metric it reports, per workload
# (None: the metric has the same name on every workload).
END_TO_END = {
    "frames_per_s": {"train-desk": "train_frames_per_s",
                     "infer-full": "pass_frames_per_s",
                     "prep-desk": "prep_frames_per_s"},
    "frame_ms_p50": {"train-desk": "train_step_ms_p50",
                     "infer-full": "infer_frame_ms_p50",
                     "prep-desk": "prep_frame_ms_p50"},
    "frame_ms_p90": {"train-desk": "train_step_ms_p90",
                     "infer-full": "infer_frame_ms_p90",
                     "prep-desk": "prep_frame_ms_p90"},
    "setup_s": None,
    "peak_rss_mb": None,
}


class RunError(Exception):
    pass


def _worker(role: str, args, work: Path, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--trace", str(int(traced))]
    if role == "measure":
        cmd += ["--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left for the {role} phase")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{role} phase exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise RunError(f"{role} phase exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{role} phase printed no result")
    return json.loads(lines[-1])


def _run_pass(args, traced: bool, deadline: float) -> dict:
    """Set up SETUP_REPEATS times, then run the timed phase once."""
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}" / "data"
    setups = [_worker("setup", args, work, traced, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    measured = _worker("measure", args, work, traced, deadline)
    shutil.rmtree(work, ignore_errors=True)
    metrics = measured["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                          "n": len(setups)}
    try:
        measured["end_to_end"] = {
            name: metrics[source[args.workload] if source else name]
            for name, source in END_TO_END.items()
        }
    except KeyError as exc:
        raise RunError(f"no unit of work completed, so {exc} was not measured") from None
    return measured


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _print_report(args, plain: dict, traced: dict | None, overhead: dict) -> None:
    env = dict(plain["env"], nproc=os.cpu_count(), python=platform.python_version(),
               commit=_git_commit())
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for name, m in plain["metrics"].items():
        samples = ", ".join(f"{k}={m[k]}" for k in ("n", "best_of") if k in m)
        samples = f"  ({samples})" if samples else ""
        print(f"  {name:24s} {m['value']:14.4f} {m['unit']}{samples}")
    attempted, failed = plain["attempted"], plain["failed"]
    print(f"  {'error_rate':24s} {failed / max(attempted, 1):14.4f} "
          f"({failed} failed of {attempted} steps, frames and checks)")
    for check in plain["checks"]:
        if not check["ok"]:
            print(f"  FAILED check {check['name']}: {check['detail']}")
    passed = sum(c["ok"] for c in plain["checks"])
    print(f"  checks passed: {passed} of {len(plain['checks'])}")
    if traced is not None:
        print(f"per-layer metrics, self time per step or frame (spans: {traced['spans']})")
        for name, m in dict(traced["layers"], **overhead).items():
            print(f"  {name:32s} {m['value']:16.4f} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ts3d" / "__init__.py").is_file():
        print(f"error: no ts3d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        plain = _run_pass(args, traced=False, deadline=deadline)
        traced = _run_pass(args, traced=True, deadline=deadline) if args.trace else None
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if traced is None:
        runs, overhead = [plain], {}
        metrics = plain["end_to_end"]
    else:
        runs = [plain, traced]
        overhead = {
            f"trace_overhead.{name}": {"value": traced["end_to_end"][name]["value"]
                                       - m["value"], "unit": m["unit"]}
            for name, m in plain["end_to_end"].items()
        }
        metrics = dict(traced["layers"], **overhead)
    _print_report(args, plain, traced, overhead)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    results = WORK_ROOT / f"{args.workload}-seed{args.seed}" / "result.json"
    results.write_text(json.dumps({"plain": plain, "traced": traced, "result": record},
                                  indent=1))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
