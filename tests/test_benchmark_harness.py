"""The benchmark harness under perfbench/ still hooks into the source tree.

perfbench's own tests run every workload (minutes); this only checks that
its tracer finds every function, method and op it wraps, and that every
workload in BENCHMARK.json builds a config that validates, so a rename or
deletion of a hooked name, or a validation rule that rejects a benchmark's
config, fails here rather than in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_installs_against_the_source_tree():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    code = ("import json, tracer, workloads\ntracer.Tracer().install()\n"
            "for w in json.load(open('BENCHMARK.json'))['workloads']:\n"
            "    workloads.config(w['name'])\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, cwd=ROOT)
    assert r.returncode == 0, r.stderr
