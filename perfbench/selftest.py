"""Self-test of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
  1. in short mode every workload prints exactly the metrics BENCHMARK.json
     names, with their units, and all its operations pass their checks;
  2. two traced short runs with the same seed give identical per-op counts;
  3. references shifted by 1e-3 (relative) make every operation fail, so
     the failed fraction is 1;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import common
import run

WORKLOADS = ("paper_sweep", "custom_cli", "density_grid")
SEED = 7
CORRUPTION = 1e-3  # relative shift, 1000x the tolerance of the integral checks


def _corrupt(ref):
    shift = lambda r: r + CORRUPTION * max(abs(r), 1.0)
    return tuple(map(shift, ref)) if isinstance(ref, tuple) else shift(ref)


def _run(trace: int, workload: str, cwd=common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> dict:
    counts = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(_run(trace, workload))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, result
            if trace:
                counts[workload] = {k: v["value"] for k, v in result["metrics"].items()
                                    if v["unit"] == "count"}
        print(f"ok   {workload}: every metric present, every operation correct")
    return counts


def check_counts_repeat(counts: dict) -> None:
    for workload in WORKLOADS:
        again = _result(_run(1, workload))["metrics"]
        for name, value in counts[workload].items():
            assert again[name]["value"] == value, f"{workload} {name} changed"
        print(f"ok   {workload}: traced per-op counts repeat exactly")


def check_corrupted_references() -> None:
    common.import_loopcs()
    import workloads
    out_dir = common.OUT_DIR / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            wl = workloads.WORKLOADS[name](SEED, out_dir)
            refs = [_corrupt(ref) for ref in wl.references()]
            phase = run.run_phase(wl, refs, 0.0, len(wl.cycle))
            frac = len(phase.failures) / len(phase.times)
            assert frac == 1.0, f"{name}: failed_frac {frac} with corrupted references"
            print(f"ok   {name}: corrupted references give failed_frac 1")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def check_bare_directory() -> None:
    bare = common.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(0, "paper_sweep", cwd=bare)
        assert proc.returncode != 0, "ran without the program"
        assert '"metrics"' not in proc.stdout, "printed a result without the program"
        print(f"ok   bare directory: exit code {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    check_counts_repeat(check_metrics(spec))
    check_corrupted_references()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
