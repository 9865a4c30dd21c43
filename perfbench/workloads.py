"""The three workloads: seeded inputs, one operation, and its correctness check.

Each workload is a closed loop with a single caller: the next operation
starts only after the previous one has returned.  Inputs depend on the seed
alone and are built before timing starts.  They form a short cycle that the
benchmark repeats whole, so every run of a workload sees the same mix of
input shapes; the seed changes values, not the mix.

Import this module after ``common.import_loopcs()``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import loopcs
import loopcs.cli

A_POOL = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)

# Circle integrals of the built-in family, copied from
# tests/test_chern_simons.py.  Provenance there: an independent symbolic
# derivation (sympy expression trees for the full Christoffel/symbol/trace
# chain), integrated with mpmath quadrature to 30 digits.
PINNED_INTEGRALS = {
    2: -26.0686813921976406,
    3: -32.3825332294523161,
    8: -100.991657755131744,
}

REL_TOL = 1e-6          # integral agreement, relative to max(|reference|, 1)
REF_POINTS = 2 ** 15    # periodic trapezoid of the set-up references
REF_CHUNK = 4096        # keeps the reference pass out of peak_rss_mb
GRID_POINTS = 2 ** 15 + 1


def trapezoid_reference(metric) -> float:
    """Plain periodic trapezoid of cs_density at REF_POINTS points.

    Deliberately independent of loopcs.quadrature: the rule is exponentially
    accurate for smooth periodic integrands, so at 2^15 points it is exact to
    rounding for every input these workloads generate.
    """
    cfg = loopcs.CSConfig()
    h = 2.0 * math.pi / REF_POINTS
    total = 0.0
    for start in range(0, REF_POINTS, REF_CHUNK):
        alpha = h * np.arange(start, start + REF_CHUNK, dtype=float)
        total += float(np.sum(loopcs.cs_density(metric, cfg, alpha)))
    return h * total


def integral_mismatch(got: float, want: float) -> str | None:
    if abs(got - want) <= REL_TOL * max(abs(want), 1.0):
        return None
    return f"integral {got!r} differs from reference {want!r}"


def expected_verdict(integral: float, s: float = 1.0, tol: float = 1e-3) -> str:
    value = s / 4.0 * integral
    mod_z = value - math.floor(value)
    return "nontrivial" if min(mod_z, 1.0 - mod_z) > tol else "indeterminate"


class Workload:
    """A cycle of inputs, the operation on one input, and its check."""

    name = ""
    result_kind = ""   # what one result is, for results_per_s

    def __init__(self, seed: int, out_dir: Path):
        self.cycle = self._build(np.random.default_rng(seed))
        self.out_dir = out_dir

    def _build(self, rng) -> list:
        raise NotImplementedError

    def references(self) -> list:
        """One reference integral (or tuple of them) per cycle item."""
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out, ref) -> str | None:
        """None if the output is correct, otherwise the reason it is not."""
        raise NotImplementedError

    def results(self, item) -> int:
        """Results one operation returns to its caller."""
        raise NotImplementedError

    def counters(self, item, out) -> dict:
        """Per-operation counts that only the benchmark can see."""
        return {}


def _references_by_a(a_values) -> dict:
    return {a: PINNED_INTEGRALS.get(a) or trapezoid_reference(loopcs.builtin_family(a))
            for a in sorted(set(a_values))}


class PaperSweep(Workload):
    """``sweep`` over 3 distinct ``a`` of the built-in family, s=1, N=4096."""

    name = "paper_sweep"
    result_kind = "class values"
    BATCHES = 5

    def _build(self, rng):
        return [tuple(int(a) for a in rng.choice(A_POOL, 3, replace=False))
                for _ in range(self.BATCHES)]

    def references(self):
        by_a = _references_by_a(a for batch in self.cycle for a in batch)
        return [tuple(by_a[a] for a in batch) for batch in self.cycle]

    def run(self, batch):
        return loopcs.sweep(batch, loopcs.CSConfig())

    def check(self, batch, reports, refs):
        if len(reports) != len(batch):
            return f"{len(reports)} reports for {len(batch)} values of a"
        for a, report, ref in zip(batch, reports, refs):
            if report.a != a:
                return f"report for a={report.a} where a={a} was asked"
            why = integral_mismatch(report.integral, ref)
            if why:
                return f"a={a}: {why}"
            if not math.isclose(report.class_value, report.integral / 4.0,
                                rel_tol=1e-12, abs_tol=1e-12):
                return f"a={a}: class value {report.class_value!r} != integral/4"
            if report.verdict != expected_verdict(ref):
                return f"a={a}: verdict {report.verdict!r}, expected {expected_verdict(ref)!r}"
        return None

    def results(self, batch):
        return len(batch)

    def counters(self, batch, reports):
        return {"samples_returned": sum(r.densities.size for r in reports)}


def _trig_poly(rng, terms: int) -> str:
    """1-3 trig terms of frequency 1-4 over a constant that dominates them."""
    parts, amplitude = [], 0.0
    for _ in range(terms):
        c = round(float(rng.uniform(0.1, 0.5)), 3)
        k = int(rng.integers(1, 5))
        fn = str(rng.choice(("sin", "cos")))
        sign = str(rng.choice(("+", "-")))
        parts.append(f" {sign} {c:.3f}*{fn}({'alpha' if k == 1 else f'{k}*alpha'})")
        amplitude += c
    const = round(amplitude + float(rng.uniform(0.5, 1.5)), 3)
    return f"{const:.3f}" + "".join(parts)


def _bounded_denominator(rng) -> str:
    """d0 + d1*cos(k*alpha) with d0 - |d1| >= 1."""
    d0 = round(float(rng.uniform(1.5, 2.5)), 3)
    d1 = round(float(rng.uniform(0.1, 0.5)), 3)
    k = int(rng.integers(1, 5))
    return f"{d0:.3f} {rng.choice(('+', '-'))} {d1:.3f}*cos({k}*alpha)"


class CustomCli(Workload):
    """In-process ``loopcs compute --family custom`` with report and CSV output.

    The shape of each slot in the cycle (terms per scale function, which
    slots have a rational factor, which use n=1024) is fixed, so the op-time
    mix does not depend on the seed; the seed draws coefficients,
    frequencies, signs and s.  Two of eight slots at n=1024 put the median
    inside the n=4096 mode of the bimodal op time, where it is stable.
    """

    name = "custom_cli"
    result_kind = "class values"
    SLOTS = 8
    SHORT_SLOTS = (1, 4)   # one plain slot, one with a rational factor

    def _build(self, rng):
        cycle = []
        for i in range(self.SLOTS):
            exprs = []
            for j in range(3):
                e = _trig_poly(rng, 1 + (i + j) % 3)
                if i % 2 == 0 and j == i % 3:
                    e = f"({e})/({_bounded_denominator(rng)})"
                exprs.append(e)
            s = str(rng.choice(("0.75", "1", "2")))
            cycle.append((*exprs, s, 1024 if i in self.SHORT_SLOTS else 4096))
        return cycle

    def references(self):
        return [trapezoid_reference(loopcs.BergerMetric(
                    *(loopcs.parse_expression(e) for e in item[:3])))
                for item in self.cycle]

    def _paths(self):
        return self.out_dir / "report.json", self.out_dir / "density.csv"

    def run(self, item):
        lam, mu, nu, s, n = item
        report, density = self._paths()
        argv = ["compute", "--family", "custom", "--lambda", lam, "--mu", mu,
                "--nu", nu, "--s", s, "--samples", str(n),
                "--report-out", str(report), "--density-out", str(density)]
        with contextlib.redirect_stdout(io.StringIO()):
            return loopcs.cli.main(argv)

    def check(self, item, code, ref):
        n = item[4]
        if code != 0:
            return f"exit code {code}"
        report_path, density_path = self._paths()
        report = json.loads(report_path.read_text())
        why = integral_mismatch(report["integral"], ref)
        if why:
            return why
        if report["quadrature_n"] != n:
            return f"quadrature_n {report['quadrature_n']} != {n}"
        with open(density_path, newline="") as fh:
            lines = fh.read().splitlines()
        if lines[:1] != ["alpha,f"] or len(lines) != n + 2:
            return f"density CSV has {len(lines)} lines, expected header + {n + 1}"
        return None

    def results(self, item):
        return 1

    def counters(self, item, code):
        return {"samples_returned": item[4] + 1,
                "cli.bytes_written": sum(p.stat().st_size for p in self._paths())}


class DensityGrid(Workload):
    """``cs_density`` of the built-in family on a uniform 2^15+1 point grid."""

    name = "density_grid"
    result_kind = "density samples"
    VALUES = 5

    def _build(self, rng):
        self.grid = np.linspace(0.0, 2.0 * math.pi, GRID_POINTS)
        self.cfg = loopcs.CSConfig()
        return [(int(a), loopcs.builtin_family(int(a)))
                for a in rng.choice(A_POOL, self.VALUES, replace=False)]

    def references(self):
        by_a = _references_by_a(a for a, _ in self.cycle)
        return [by_a[a] for a, _ in self.cycle]

    def run(self, item):
        return loopcs.cs_density(item[1], self.cfg, self.grid)

    def check(self, item, f, ref):
        f = np.asarray(f)
        if f.shape != self.grid.shape:
            return f"density shape {f.shape}, expected {self.grid.shape}"
        if not np.all(np.isfinite(f)):
            return "density has non-finite samples"
        h = 2.0 * math.pi / (GRID_POINTS - 1)
        return integral_mismatch(h * (float(np.sum(f)) - 0.5 * (f[0] + f[-1])), ref)

    def results(self, item):
        return GRID_POINTS

    def counters(self, item, f):
        return {"samples_returned": int(np.size(f))}


WORKLOADS = {w.name: w for w in (PaperSweep, CustomCli, DensityGrid)}
