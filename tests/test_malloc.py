"""Importing ts3d keeps freed heap memory mapped, so repeated forwards do not
page-fault their temporaries in again, and applies the TS3D_THREADS cap."""

import os
import platform
import subprocess
import sys
import types

import pytest

from ts3d import _keep_freed_heap_mapped

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs in a fresh process, so the heap state other tests leave cannot hide a
# regression; prints the mean minor page faults of a warm no-grad forward.
_FAULTS_PER_FORWARD = """
import resource
import numpy as np
import ts3d
from ts3d.config import RunConfig
from ts3d.model import TS3D
from ts3d.tensor import Tensor, no_grad

cfg = RunConfig.desk().validate()
model = TS3D(cfg, rng=np.random.default_rng(0))
rng = np.random.default_rng(1)
left, right = (Tensor(rng.random((cfg.height, cfg.width, 3), dtype=model.dtype))
               for _ in range(2))

def forward():
    with no_grad():
        model.forward(left, right)

forward()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    forward()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_a_warm_desk_forward_does_not_fault_its_temporaries_in_again():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", _FAULTS_PER_FORWARD], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    # about 1000 with glibc's default thresholds, single digits with ts3d's
    assert float(r.stdout.split()[-1]) < 100


def test_a_library_without_mallopt_is_left_alone():
    assert _keep_freed_heap_mapped(types.SimpleNamespace()) is None


_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("cap, preset, expected", [
    ("1", {"OPENBLAS_NUM_THREADS": "3"}, ["1", "3", "1", "1"]),
    (None, {}, [None] * 4),
])
def test_importing_ts3d_fills_the_unset_thread_pool_variables_from_the_cap(cap, preset,
                                                                           expected):
    env = {k: v for k, v in os.environ.items() if k not in _POOL_VARS + ("TS3D_THREADS",)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.update(preset)
    if cap is not None:
        env["TS3D_THREADS"] = cap
    script = f"import os, ts3d; print([os.environ.get(v) for v in {_POOL_VARS!r}])"
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == repr(expected)
