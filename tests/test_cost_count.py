"""tools/cost_count.py: the numpy work of fixed stages, against the table
checked in beside it.

The table is a record, not a speed bound: a change that moves a count
updates tools/cost_counts.txt and says why in CHANGES.md.  The ufunc
counts depend on the code only and must match exactly, in two runs.
tracemalloc peaks move by a few hundred bytes between processes (in steps
of ~57 bytes, with the hash seed fixed too), so a peak must stay within
PEAK_TOLERANCE of the table's.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cost_count.py"
TABLE = ROOT / "tools" / "cost_counts.txt"
PEAK = "tracemalloc peak bytes"
PEAK_TOLERANCE = 0.05


def _table(text: str) -> dict:
    rows = {}
    for line in text.splitlines():
        stage, key, value = line.split(" | ")
        rows[stage, key] = int(value)
    return rows


def test_two_runs_match_the_checked_in_table(tmp_path):
    want = _table(TABLE.read_text())
    runs = []
    for n in (1, 2):
        out = tmp_path / f"counts{n}.txt"
        subprocess.run([sys.executable, str(TOOL), str(ROOT), str(out)],
                       check=True, capture_output=True, cwd=tmp_path)
        runs.append(_table(out.read_text()))
    for got in runs:
        assert got.keys() == want.keys()
        assert {k: v for k, v in got.items() if k[1] != PEAK} == \
               {k: v for k, v in want.items() if k[1] != PEAK}
        for key, peak in want.items():
            if key[1] == PEAK:
                assert abs(got[key] - peak) <= PEAK_TOLERANCE * peak, key
    # the stages the table records
    stages = {stage for stage, _ in want}
    assert stages == {"cs_class a=2", "cs_class a=8", "cs_class a=32", "cs_class a=4096",
                      "sweep (2, 8, 32)", "builtin_family(8)", "density block a=8",
                      "custom_cli seed 1 slot 0"}
