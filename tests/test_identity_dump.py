"""tools/identity_dump.py: deterministic bytes, and fingerprints that see
every bit of a result."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identity_dump.py"


def _tool():
    spec = importlib.util.spec_from_file_location("identity_dump", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_write_identical_bytes(tmp_path):
    dumps = []
    for n in (1, 2):
        out = tmp_path / f"dump{n}.txt"
        subprocess.run([sys.executable, str(TOOL), str(ROOT), str(out), "--quick"],
                       check=True, capture_output=True, cwd=tmp_path)
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1]
    lines = dumps[0].decode().splitlines()
    assert len(lines) > 50 and len(set(lines)) == len(lines)
    # the quick corpus covers densities, report fields, scale bounds, copies
    # of metrics, sweep rows, parsed trees and the CLI
    for item in ("family a=2 | density grid 8192 |", "family a=8 | report.integral |",
                 "round | scale_bounds |", "round | pickled scale_jets |",
                 "sweep (2, 8) row 1 | report.samples_evaluated |",
                 "family a=8 | deep-copied certificate |", "tree ",
                 "cli sweep --a 2,8 --samples 16", "| file density_a8.csv |",
                 "cli compute --family paper --a 16 --samples 16 | stdout |",
                 "cli compute --lambda 2+sin(sin(64*alpha)) --mu 1 --nu 2-cos(alpha) "
                 "--samples 16 | stdout |"):
        assert any(item in line for line in lines), item


def test_fingerprints_see_signs_of_zeros_dtypes_and_shapes():
    fingerprint = _tool().fingerprint
    assert fingerprint(0.0) != fingerprint(-0.0)
    assert fingerprint(np.array([0.0, 1.0])) != fingerprint(np.array([-0.0, 1.0]))
    assert fingerprint(np.float64(0.5)) != fingerprint(np.array([0.5]))
    assert fingerprint(np.zeros(4)) != fingerprint(np.zeros((2, 2)))
    assert fingerprint(np.zeros(2)) != fingerprint(np.zeros(2, complex))
    assert fingerprint((1.0, None)) == fingerprint((1.0, None))
    assert fingerprint(ValueError("x")) == "raises ValueError: x"
