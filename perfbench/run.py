"""loopcs benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; ``loopcs`` is imported from ``src/``.  The
run measures set-up time in fresh interpreters, builds the workload's
inputs and their references, runs one warm-up operation, then runs whole
cycles of operations in a closed loop until ``--seconds`` have passed and
at least MIN_OPS operations are timed.  Every operation's output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` half the time is measured
untraced and half traced, and the JSON object holds the per-layer metrics
of the traced half plus the tracing overhead; the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  ``--short`` runs one
cycle per phase and one set-up probe, for the self-test only.

Exit codes: 0 for a finished run (correct or not, as the JSON says),
2 when the checkout holds no ``src/loopcs``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common  # first: pins BLAS threads before numpy is imported
import numpy as np
import tracing

SETUP_PROBES = 3
MIN_OPS = 50           # keeps at least ten operations beyond op_ms_p80
TAIL_PERCENTILE = 80
PROBE_TIMEOUT_S = 120

# The 2-vCPU KVM guest the baseline was taken on changes speed by up to 1.6x
# within seconds to minutes (other tenants share its cores), and interpreter and
# numpy work slow down together: raw op times of whole runs spread by up to
# 22% across ten seeds.  So a fixed kernel that never touches loopcs is timed
# right before each operation, and the run's latency figures are scaled by
# its host speed, CAL_REF_S / median kernel time.  A change in the program
# moves scaled and raw figures alike; a change in the host's speed mostly
# cancels.  The raw figures are printed next to the scaled ones.
CAL_REF_S = 5.5e-3     # kernel time on that guest in its fast state
_CAL_A = np.random.default_rng(0).random((1024, 4, 4, 4))
_CAL_B = np.random.default_rng(1).random((1024, 4, 4))


def calibrate() -> float:
    """Seconds the fixed speed kernel takes: small einsums and interpreter work."""
    start = time.perf_counter()
    for _ in range(4):
        np.einsum("...alk,...kb->...abl", _CAL_A, _CAL_B)
        acc = 0.0
        for i in range(3000):
            acc += (i * 0.5) % 3.0
    return time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> dict:
    """Time one fresh interpreter from spawn to ready (inputs built)."""
    cmd = [sys.executable, str(common.BENCH_DIR / "probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=common.ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        try:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return {"setup_s": ready, **json.loads(line)}


class Phase:
    """Latencies, failures and counters of one timed loop."""

    def __init__(self):
        self.times = []      # wall seconds per operation
        self.cal = []        # speed-kernel seconds before each operation
        self.failures = []
        self.results = 0
        self.counters = {}

    def record(self, seconds: float, cal: float, failure: str | None, results: int,
               counters: dict):
        self.times.append(seconds)
        self.cal.append(cal)
        if failure:
            self.failures.append(failure)
        self.results += results
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    @property
    def speed(self) -> float:
        """Host speed during the loop, relative to the reference fast state."""
        return CAL_REF_S / statistics.median(self.cal)

    @property
    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.times) * self.speed

    def latency(self, speed: float) -> dict:
        """p50, tail and throughput, with times scaled by ``speed``."""
        tail = statistics.quantiles(self.times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
        return {"op_ms_p50": (1e3 * statistics.median(self.times) * speed, "ms"),
                f"op_ms_p{TAIL_PERCENTILE}": (1e3 * tail * speed, "ms"),
                "results_per_s": (self.results / sum(self.times) / speed, "1/s")}


def run_op(wl, item, ref, tracer=None):
    """Speed kernel, then one operation, timed, then checked.

    Returns the arguments of Phase.record.
    """
    cal = calibrate()
    start = time.perf_counter()
    span = tracer.open("op") if tracer else None
    try:
        out = wl.run(item)
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - start, cal, f"raised {exc!r}", 0, {}
    finally:
        if tracer:
            tracer.close(span)
    elapsed = time.perf_counter() - start
    try:
        return (elapsed, cal, wl.check(item, out, ref), wl.results(item),
                wl.counters(item, out))
    except Exception as exc:  # so is one whose output cannot be checked
        return elapsed, cal, f"check raised {exc!r}", 0, {}


def run_phase(wl, refs, seconds: float, min_ops: int, tracer=None) -> Phase:
    """Whole cycles in a closed loop until both limits are reached."""
    phase = Phase()
    gc.collect()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(phase.times) < min_ops:
        for item, ref in zip(wl.cycle, refs):
            phase.record(*run_op(wl, item, ref, tracer))
    return phase


def end_to_end(phase: Phase, probes: list) -> dict:
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        **phase.latency(phase.speed),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced: Phase, untraced: Phase, probes: list) -> dict:
    ops = len(traced.times)
    spans = tracer.per_op(ops)
    metrics = {name: (spans[name], unit) for name, unit in tracing.SPAN_METRICS}
    evaluated = spans["chern_simons.density.samples"]
    returned = traced.counters.get("samples_returned", 0) / ops
    metrics["chern_simons.density.useful_ratio"] = (
        returned / evaluated if evaluated else 0.0, "ratio")
    metrics["cli.bytes_written"] = (traced.counters.get("cli.bytes_written", 0) / ops, "B")
    metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    metrics["setup.inputs_s"] = (statistics.median(p["inputs_s"] for p in probes), "s")
    metrics["trace.op_ms_p50"] = (traced.p50_ms, "ms")
    metrics["trace.overhead_ms"] = (traced.p50_ms - untraced.p50_ms, "ms")
    metrics["host.cal_ms"] = (1e3 * statistics.median(traced.cal), "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_sweep", "custom_cli", "density_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one cycle per phase, one set-up probe (self-test)")
    args = parser.parse_args(argv)

    common.import_loopcs()
    import workloads

    info = common.machine_info()
    probes = [probe_setup(args.workload, args.seed)
              for _ in range(1 if args.short else SETUP_PROBES)]
    common.OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=common.OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        refs = wl.references()
        warm = Phase()
        warm.record(*run_op(wl, wl.cycle[0], refs[0]))
        min_ops = len(wl.cycle) if args.short else MIN_OPS
        if args.trace:
            half = 0.0 if args.short else args.seconds / 2.0
            untraced = run_phase(wl, refs, half, len(wl.cycle))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(wl, refs, half, len(wl.cycle), tracer)
            finally:
                tracer.uninstall()
            phases = [warm, untraced, traced]
            metrics = per_layer(tracer, traced, untraced, probes)
            tracer.dump(common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            for name in tracer.missing:
                print(f"perfbench: {name} not found, its span metrics read 0",
                      file=sys.stderr)
        else:
            timed = run_phase(wl, refs, 0.0 if args.short else args.seconds, min_ops)
            phases = [warm, timed]
            metrics = end_to_end(timed, probes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(len(p.times) for p in phases)
    failures = [f for p in phases for f in p.failures]
    for why in failures[:5]:
        print(f"perfbench: failed: {why}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller, {len(wl.cycle)} inputs per cycle, "
          f"results are {wl.result_kind}")
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"{'ops_timed':<40} {attempted - len(warm.times):>14}")
    print(f"{'failed_frac':<40} {len(failures) / attempted:>14.6g}")
    timed = phases[-1]
    print(f"{'host_speed':<40} {timed.speed:>14.6g}")
    for name, (value, unit) in timed.latency(1.0).items():
        print(f"{'raw_' + name:<40} {value:>14.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
