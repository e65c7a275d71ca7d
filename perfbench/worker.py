"""One benchmark phase in a process of its own; prints one JSON line.

    python3 perfbench/worker.py setup   --workload W --seed N --work DIR [--trace 1]
    python3 perfbench/worker.py measure --workload W --seed N --work DIR --seconds S [--trace 1]

``setup`` rebuilds DIR and reports its own wall time, ``import ts3d``
included. ``measure`` runs the timed phase over what ``setup`` left in DIR,
so its peak RSS covers the timed phase and not the set-up. With
``--trace 1`` the span tracer is installed before any work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_CAP = "2"

# BLAS and OpenMP read these once, when numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": THREAD_CAP}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ts3d

    if Path(ts3d.__file__).resolve().parent != src / "ts3d":
        print(f"error: imported ts3d from {ts3d.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    if args.role == "setup":
        shutil.rmtree(args.work, ignore_errors=True)
        workloads.setup(args.workload, args.work, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    result = workloads.measure(args.workload, args.work, args.seed, args.seconds)
    out = result.as_dict()
    out["env"] = _environment()
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(max(result.items, 1))
        spans = Path(args.work).parent / "spans.tsv"
        tracer.write_spans(spans)
        out["spans"] = str(spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
