"""Process set-up shared by the benchmark entry points.

Import this module before numpy: it pins the BLAS thread pools to one
thread (the baseline host has two cores and the benchmark is a single
caller) and puts the checkout's ``src`` directory first on ``sys.path`` so
that ``loopcs`` is always the copy under test, never an installed one.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# scratch space for CLI outputs and span dumps; listed in .gitignore
OUT_DIR = ROOT / ".perfbench"

EXIT_NO_PROGRAM = 2


def import_loopcs():
    """Import ``loopcs`` from ``<checkout>/src`` or exit with EXIT_NO_PROGRAM."""
    if not (SRC / "loopcs" / "__init__.py").is_file():
        print(f"perfbench: no loopcs package under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import loopcs
    if Path(loopcs.__file__).resolve().parent != SRC / "loopcs":
        print(f"perfbench: imported loopcs from {loopcs.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return loopcs


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_info() -> dict:
    """Hardware and library versions the figures were taken on."""
    import numpy
    import scipy
    model = platform.processor()
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(5):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, size = _read(base + "level").strip(), _read(base + "size").strip()
        if level in ("2", "3") and size:
            caches[f"l{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_per_core": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
