"""Process set-up that has to happen before ``numpy`` is imported.

Imported first by every entry point in this directory.  An unpinned
OpenBLAS pool on the 2-core box turns a 3.9 ms ``train_on(1024)`` into an
80 ms median (threads spinning against the benchmark's own thread), which
would swamp every host-time bound, so the BLAS pools are pinned to one
thread here — the only place it can be done — and ``src/`` is put on the
import path so the one benchmark command needs no ``PYTHONPATH``.
"""

import os
import sys
from pathlib import Path

__all__ = ["BENCH_DIR", "REPO_ROOT"]

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
