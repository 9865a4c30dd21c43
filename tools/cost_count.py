"""Count the numpy work of a loopcs checkout on a fixed corpus, per stage.

    python tools/cost_count.py CHECKOUT [OUT]

Imports loopcs from CHECKOUT/src, never an installed copy, runs each stage
below and prints (or writes to OUT) one line per stage and ufunc: the
numpy ufunc calls of one run of the stage by ufunc (a reduction such as
``.sum()`` counts as ``add.reduce``), their total, and the tracemalloc peak
of the run in bytes.  The counts depend on the code only, not on the
host, so two checkouts can be compared where wall time cannot; they are
counts, never times.  Runs offline, with numpy only.

Stages, each run once to fill the caches a warm run finds, then measured:

- ``cs_class a=A``: cs_class of the built-in family at a in {2, 8, 32,
  4096}, the metric built beforehand;
- ``sweep (2, 8, 32)``: one sweep call, its three metrics included (a
  sweep that builds no metric for its rows builds none here either);
- ``builtin_family(8)``: the constructor of the built-in family at a = 8;
- ``density block a=8``: cs_density of the family at a = 8 on one
  4096-point block of uniform alphas, as the blocked grid path runs it;
- ``custom_cli seed 1 slot 0``: one in-process ``loopcs compute`` of the
  first custom_cli item of seed 1 (perfbench/workloads.py next to this
  script), its report and density CSV written to a temporary directory.

How the ufuncs are counted: while a stage runs, np.linspace, np.arange,
np.empty and np.zeros return a subclass of ndarray whose
``__array_ufunc__`` counts every ufunc call that has one of its arrays as
an operand, and np.asarray and np.broadcast_to keep that subclass.  Every
grid the class path samples, and everything computed from it, is such an
array; a ufunc whose operands are all built otherwise (say from
np.array of Python numbers) is not counted.  The peaks come from a second,
separate run of each stage without the subclass.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"

FAMILY = (2, 8, 32, 4096)
SWEEP = (2, 8, 32)
BLOCK_POINTS = 4096
PEAK_RUNS = 5

COUNTS = collections.Counter()


class Counted(np.ndarray):
    """An ndarray that counts the ufunc calls it takes part in."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        COUNTS[ufunc.__name__ if method == "__call__" else f"{ufunc.__name__}.{method}"] += 1
        inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, Counted) else x
                                  for x in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        if type(result) is tuple:
            return tuple(_counted(x) for x in result)
        return _counted(result)


def _counted(x):
    return x.view(Counted) if type(x) is np.ndarray else x


SOURCES = ("linspace", "arange", "empty", "zeros")


@contextlib.contextmanager
def counting():
    """Grid sources return Counted arrays, and asarray and broadcast_to keep
    them, until the block ends."""
    saved = {name: getattr(np, name) for name in (*SOURCES, "asarray", "broadcast_to")}
    for name in SOURCES:
        setattr(np, name, lambda *a, _make=saved[name], **k: _counted(_make(*a, **k)))
    np.asarray = np.asanyarray
    np.broadcast_to = lambda x, shape, subok=True: saved["broadcast_to"](x, shape, subok=subok)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(np, name, fn)


def import_checkout(checkout: Path):
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import loopcs
    import loopcs.cli
    if Path(loopcs.__file__).resolve().parent != src / "loopcs":
        sys.exit(f"cost_count: imported loopcs from {loopcs.__file__}, not {src}")
    return loopcs


def custom_argv(seed: int, slot: int) -> list:
    """The argv of custom_cli's item slot of seed, writing to relative paths."""
    sys.path.insert(1, str(PERFBENCH))
    import workloads
    lam, mu, nu, s, n = workloads.CustomCli(seed, Path(".")).cycle[slot]
    return ["compute", "--family", "custom", "--lambda", lam, "--mu", mu, "--nu", nu,
            "--s", s, "--samples", str(n), "--report-out", "report.json",
            "--density-out", "density.csv"]


def stages(loopcs) -> list:
    """(name, zero-argument callable) of every stage, inputs built."""
    cfg = loopcs.CSConfig()
    out = []
    for a in FAMILY:
        m = loopcs.builtin_family(a)
        out.append((f"cs_class a={a}", lambda m=m: loopcs.cs_class(m, cfg)))
    out.append((f"sweep {SWEEP}", lambda: loopcs.sweep(SWEEP, cfg)))
    out.append(("builtin_family(8)", lambda: loopcs.builtin_family(8)))
    m8 = loopcs.builtin_family(8)
    out.append(("density block a=8",
                lambda: loopcs.cs_density(
                    m8, cfg, np.linspace(0.0, 2.0 * np.pi, BLOCK_POINTS + 1)[:BLOCK_POINTS])))
    argv = custom_argv(1, 0)

    def compute():
        with contextlib.redirect_stdout(io.StringIO()):
            code = loopcs.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"loopcs compute exited {code}")

    out.append(("custom_cli seed 1 slot 0", compute))
    return out


def peak_bytes(run) -> int:
    """The least tracemalloc peak of PEAK_RUNS runs, above what was
    allocated before each, with no garbage collection during a run."""
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(PEAK_RUNS):
            gc.collect()
            gc.disable()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                gc.enable()
    finally:
        tracemalloc.stop()
    return min(peaks)


def measure(loopcs) -> list:
    lines = []
    for name, run in stages(loopcs):
        with counting():
            run()   # fills the caches, so the measured run is a warm one
            COUNTS.clear()
            run()
            counts = dict(COUNTS)
        run()
        peak = peak_bytes(run)
        lines.append(f"{name} | ufunc calls | {sum(counts.values())}")
        lines += [f"{name} | {ufunc} | {k}" for ufunc, k in sorted(counts.items())]
        lines.append(f"{name} | tracemalloc peak bytes | {peak}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="repository whose src/loopcs is counted")
    p.add_argument("out", type=Path, nargs="?", help="table to write (default: print)")
    args = p.parse_args(argv)
    loopcs = import_checkout(args.checkout)
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            text = "\n".join(measure(loopcs)) + "\n"
        finally:
            os.chdir(home)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
