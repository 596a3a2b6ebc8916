"""``import repro`` runs numpy's BLAS on one thread unless told otherwise."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: a fresh interpreter whose first import is ``repro``; prints the BLAS
#: setting and the process's thread count after a BLAS call
PROBE = (
    "import os, repro, numpy as np\n"
    "a = np.ones((4000, 64)); a.T @ a\n"
    "tasks = '/proc/self/task'\n"
    "n = len(os.listdir(tasks)) if os.path.isdir(tasks) else -1\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'], n)\n"
)


def _probe(blas_threads: str | None) -> tuple[str, int]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.split()
    return out[0], int(out[1])


def test_import_sets_one_blas_thread():
    setting, threads = _probe(None)
    assert setting == "1"
    if threads == -1:
        pytest.skip("no /proc/self/task to count threads on this platform")
    # the main thread alone: OpenBLAS started no worker
    assert threads == 1


def test_environment_choice_is_kept():
    assert _probe("3")[0] == "3"
