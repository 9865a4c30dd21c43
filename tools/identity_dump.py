"""Fingerprint the numbers and output bytes of a loopcs checkout on a fixed corpus.

    python tools/identity_dump.py CHECKOUT OUT [--quick]

Imports loopcs from CHECKOUT/src, never an installed copy, evaluates the
corpus below and writes OUT, one line per item.  Two checkouts compute
bit-identical densities, report fields and CLI outputs on the corpus
exactly when their dumps compare equal under ``cmp``; ``diff`` names the
items that differ.  Runs offline, with numpy only.

Corpus:

- metrics: the built-in family for a in {1, 2, 3, 8, 32, 256, 4096, -3},
  the 24 custom_cli metrics of seeds 1-3 (perfbench/workloads.py next to
  this script, so both checkouts see the same corpus), the round metric
  and a rational metric; per metric its certificate and scale_bounds, and
  the certificate, scale_bounds and scale jets on a 65-point grid of a
  pickled-and-reloaded copy and of a deep copy;
- cs_density of each metric on uniform grids of 2, 65, 4097, 8192 and
  2^15+1 points over [0, 2*pi], on a scalar, a 0-d and a 2-D alpha, and on
  complex alpha on and off the real axis;
- every cs_class report field, the report grid and its densities included,
  and the report's repr;
- every report field of sweep over the built-in family's a above, over
  the benchmark's A_POOL and over a = 1..1000, each sweep as one call, and
  each row's metric (its certificate and scale_bounds), read after the
  sweep has returned;
- the repr of the parsed tree of each of the 696 custom_cli expressions
  of seeds 1-29;
- CLI exit code, stdout, stderr and output bytes of ``compute`` (paper and
  custom metrics, a report grid smaller than 64 samples per period, an a
  too large for a float, a harmonic K = 4096 at the default N, a nested
  argument at N = 16 and a metric with no period certificate) and
  ``sweep`` (also with an a whose -a*a overflows), with and without
  --report-out and --density-out, run in a fresh directory under relative
  file names.

An array is written as its dtype, shape and the SHA-256 of its bytes, so
signed zeros count; a float as float.hex; an evaluation that raises as
its exception type and message.  --quick takes a small corpus (a few
metrics, grids, trees and CLI runs) for a fast self-check.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import os
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"

FAMILY = (1, 2, 3, 8, 32, 256, 4096, -3)
CUSTOM_SEEDS = (1, 2, 3)
TREE_SEEDS = tuple(range(1, 30))
RATIONAL = ("(1.5+0.3*sin(alpha))/(2+cos(2*alpha))", "2+sin(3*alpha)^2",
            "1/(1.7-0.4*cos(alpha))")
GRID_SIZES = (2, 65, 4097, 8192, 2 ** 15 + 1)


def fingerprint(x) -> str:
    """Deterministic text of a result: arrays by digest, floats by hex."""
    if isinstance(x, BaseException):
        return f"raises {type(x).__name__}: {x}"
    if isinstance(x, np.ndarray) or isinstance(x, np.generic):
        a = np.asarray(x)
        digest = hashlib.sha256(a.tobytes()).hexdigest()
        return f"{type(x).__name__} {a.dtype.str} {a.shape} {digest}"
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return repr(x)
    if isinstance(x, float):
        return f"float {x.hex()}"
    if isinstance(x, complex):
        return f"complex {x.real.hex()} {x.imag.hex()}"
    if isinstance(x, bytes):
        return f"bytes {len(x)} {hashlib.sha256(x).hexdigest()}"
    if isinstance(x, tuple):
        return "(" + ", ".join(fingerprint(y) for y in x) + ")"
    raise TypeError(f"no fingerprint for {type(x).__name__}")


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # the error is part of the behaviour
        return exc


def import_checkout(checkout: Path):
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import loopcs
    import loopcs.cli
    if Path(loopcs.__file__).resolve().parent != src / "loopcs":
        sys.exit(f"identity_dump: imported loopcs from {loopcs.__file__}, not {src}")
    return loopcs


def workloads():
    """perfbench/workloads.py next to this script."""
    sys.path.insert(1, str(PERFBENCH))
    import workloads
    return workloads


def custom_items(seeds) -> list:
    """(lam, mu, nu, s, n) of the custom_cli cycles of the given seeds."""
    return [item for seed in seeds
            for item in workloads().CustomCli(seed, Path(".")).cycle]


def corpus(loopcs, quick: bool):
    """(name, metric factory, CSConfig) triples and the alpha grids."""
    cfg = loopcs.CSConfig()
    metrics = [(f"family a={a}", lambda a=a: loopcs.builtin_family(a), cfg)
               for a in ((2, 8) if quick else FAMILY)]
    items = custom_items(CUSTOM_SEEDS[:1])[:2] if quick else custom_items(CUSTOM_SEEDS)
    for n, (lam, mu, nu, s, samples) in enumerate(items):
        exprs = (lam, mu, nu)
        metrics.append((f"custom {n} {exprs}",
                        lambda exprs=exprs: loopcs.cli.parse_metric_exprs(*exprs),
                        loopcs.CSConfig(s=float(s),
                                        quadrature=loopcs.QuadratureSpec(n=samples))))
    metrics.append(("round", loopcs.round_metric, cfg))
    metrics.append((f"rational {RATIONAL}",
                    lambda: loopcs.cli.parse_metric_exprs(*RATIONAL), cfg))
    sizes = GRID_SIZES[:4] if quick else GRID_SIZES
    grids = [(f"grid {n}", np.linspace(0.0, 2.0 * np.pi, n)) for n in sizes]
    line = np.linspace(0.0, 2.0 * np.pi, 65)
    grids += [("scalar 0.7", 0.7), ("0-d 0.7", np.array(0.7)),
              ("2-D 8x8", np.linspace(0.0, 2.0 * np.pi, 64).reshape(8, 8)),
              ("complex 65 +0.01j", line + 0.01j), ("complex 65 +0j", line + 0j)]
    return metrics, grids


def metric_lines(loopcs, metrics, grids):
    for name, build, cfg in metrics:
        m = attempt(build)
        if isinstance(m, Exception):
            yield f"{name} | metric | {fingerprint(m)}"
            continue
        yield f"{name} | certificate | {fingerprint(m.certificate)}"
        yield f"{name} | scale_bounds | {fingerprint(m.scale_bounds)}"
        yield from copy_lines(name, m)
        for grid_name, alpha in grids:
            f = attempt(loopcs.cs_density, m, cfg, alpha)
            yield f"{name} | density {grid_name} | {fingerprint(f)}"
        report = attempt(loopcs.cs_class, m, cfg)
        if isinstance(report, Exception):
            yield f"{name} | cs_class | {fingerprint(report)}"
            continue
        yield from report_lines(name, report)


def report_lines(name, report):
    for field in ("integral", "class_value", "mod_z", "distance_to_integers",
                  "nontrivial", "verdict", "s", "a", "max_imag", "quadrature_n",
                  "samples_evaluated", "alphas", "densities"):
        yield f"{name} | report.{field} | {fingerprint(getattr(report, field))}"
    yield f"{name} | report repr | {fingerprint(repr(report).encode())}"


def sweep_lines(loopcs, quick: bool):
    sweeps = ((2, 8),) if quick else (FAMILY, workloads().A_POOL, range(1, 1001))
    for a_values in sweeps:
        name = f"sweep {a_values}"
        reports = attempt(loopcs.sweep, a_values)
        if isinstance(reports, Exception):
            yield f"{name} | {fingerprint(reports)}"
            continue
        for n, report in enumerate(reports):
            # the metric first: a sweep may build it only when it is read
            yield f"{name} row {n} | metric certificate | {fingerprint(report.metric.certificate)}"
            yield (f"{name} row {n} | metric scale_bounds | "
                   f"{fingerprint(report.metric.scale_bounds)}")
            yield from report_lines(f"{name} row {n}", report)


COPIES = (("pickled", lambda m: pickle.loads(pickle.dumps(m))), ("deep-copied", copy.deepcopy))
JET_GRID = np.linspace(0.0, 2.0 * np.pi, 65)


def copy_lines(name, m):
    for how, duplicate in COPIES:
        twin = attempt(duplicate, m)
        if isinstance(twin, Exception):
            yield f"{name} | {how} | {fingerprint(twin)}"
            continue
        yield f"{name} | {how} certificate | {fingerprint(twin.certificate)}"
        yield f"{name} | {how} scale_bounds | {fingerprint(twin.scale_bounds)}"
        jets = attempt(twin.scale_jets, JET_GRID)
        if not isinstance(jets, Exception):
            jets = tuple((j.v, j.d1, j.d2) for j in jets)
        yield f"{name} | {how} scale_jets | {fingerprint(jets)}"


def tree_lines(loopcs, quick: bool):
    items = custom_items(TREE_SEEDS[:1])[:2] if quick else custom_items(TREE_SEEDS)
    for lam, mu, nu, _, _ in items:
        for src in (lam, mu, nu):
            tree = attempt(loopcs.parse_expression, src)
            text = fingerprint(tree) if isinstance(tree, Exception) else repr(tree)
            yield f"tree {src} | {text}"


def cli_runs(quick: bool) -> list:
    outs = ["--report-out", "report.json", "--density-out", "density.csv"]
    runs = [["compute", "--family", "paper", "--a", "2"],
            ["compute", "--family", "paper", "--a", "2", *outs],
            ["sweep", "--a", "2,8", "--samples", "16", *outs],
            # a report grid below 64 samples per period of the family
            ["compute", "--family", "paper", "--a", "16", "--samples", "16"],
            # a nested argument, sin(64 alpha) = 0 on every report-grid point
            ["compute", "--lambda", "2+sin(sin(64*alpha))", "--mu", "1", "--nu",
             "2-cos(alpha)", "--samples", "16"]]
    if quick:
        return runs
    runs += [["compute", "--family", "paper", "--a", str(a), *outs] for a in (8, 32, 4096, -3)]
    # an a too large for a float
    runs += [["compute", "--family", "paper", "--a", str(10 ** 400)]]
    # a harmonic K at the default report grid's N, and a metric whose
    # trees give no period
    runs += [["compute", "--lambda", "2+sin(alpha)+0.1*cos(4096*alpha)", "--mu", "1",
              "--nu", "2-cos(alpha)"],
             ["compute", "--lambda", "2+alpha^2-alpha^2", "--mu", "1", "--nu", "2-cos(alpha)"]]
    # an a whose -a*a overflows: the density is not finite
    runs += [["sweep", "--a", f"2,{10 ** 200}"]]
    runs += [["sweep", "--a", "1,2,3,8", *outs], ["sweep", "--a", "2,4,8"],
             ["sweep", "--a", "2,4,8", "--report-out", "report.json"],
             ["sweep", "--a", "2,4,8", "--density-out", "density.csv"]]
    for lam, mu, nu, s, n in custom_items(CUSTOM_SEEDS):
        runs.append(["compute", "--family", "custom", "--lambda", lam, "--mu", mu,
                     "--nu", nu, "--s", s, "--samples", str(n), *outs])
    runs += [["compute", "--family", "custom", "--lambda", "0.5+cos(alpha)", "--mu", "1",
              "--nu", "1"],
             ["compute", "--family", "custom", "--lambda", RATIONAL[0], "--mu", RATIONAL[1],
              "--nu", RATIONAL[2], *outs]]
    return runs


def cli_lines(loopcs, quick: bool):
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in cli_runs(quick):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = attempt(loopcs.cli.main, argv)
                name = " ".join(argv)
                yield f"cli {name} | exit | {fingerprint(code)}"
                yield f"cli {name} | stdout | {stdout.getvalue()!r}"
                yield f"cli {name} | stderr | {stderr.getvalue()!r}"
                for path in sorted(Path(".").iterdir()):
                    yield f"cli {name} | file {path.name} | {fingerprint(path.read_bytes())}"
                    path.unlink()
        finally:
            os.chdir(home)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="repository whose src/loopcs is fingerprinted")
    p.add_argument("out", type=Path, help="dump file to write")
    p.add_argument("--quick", action="store_true", help="small corpus")
    args = p.parse_args(argv)
    loopcs = import_checkout(args.checkout)
    metrics, grids = corpus(loopcs, args.quick)
    lines = [*metric_lines(loopcs, metrics, grids), *sweep_lines(loopcs, args.quick),
             *tree_lines(loopcs, args.quick), *cli_lines(loopcs, args.quick)]
    args.out.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} items written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
