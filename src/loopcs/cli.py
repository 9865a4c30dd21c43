"""Command-line front end: compute, sweep and verify.

Exit codes: 0 success, 1 configuration error (bad flags or config file,
an s outside (1/2, 2**1023), a non-finite ladder tolerance, an
integrality tolerance outside (0, 1/2), an a too large for a float, a
metric that is not positive, not provably 2*pi-periodic or has a pole,
or an output file that cannot be written), 2 expression parse error
(including a constant power that overflows a float), 3 numerical error
(quadrature non-convergence, a first ladder level past 2**20 samples, a
non-finite density, a class value (s/4) * integral that overflows a
float, or a constant chain with an imaginary part), 4 invariant-suite
failure.

The density CSV holds every value exactly as '%.17g' % value prints it,
formatted in numpy for up to 2**16 rows at a time (_format_g17).  The
argument parser is built on the first main() call and reused by later
calls in the same process.

Both output files are written in place over any old file (_overwrite):
from offset 0, then cut at the new end, never truncated to zero first.
The CLI calls no fsync and promises no durability; the outputs can be
regenerated, and a run that does not exit 0 leaves them undefined.  A
run killed mid-write leaves the new file's prefix followed by the old
file's tail.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .chern_simons import (CSConfig, CSReport, NonFiniteClassError, NonFiniteDensityError,
                           ResidueConventionError, cs_class, reduce_mod_z, sweep)
from .expressions import EvalDomainError, ParseError, parse_expression
from .geometry import BergerMetric, builtin_family
from .quadrature import (MAX_SAMPLES, QuadratureConvergenceError, QuadratureSpec,
                         circle_grid)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

# what a config-file value may be: the JSON types its flag accepts (a bool
# is no integer); sweep's "a" may also be the comma-separated list string
_INTEGER = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_STRING = ((str,), "a string")
_CONFIG_KEYS = {"family": _STRING, "a": _INTEGER, "lambda": _STRING, "mu": _STRING,
                "nu": _STRING, "s": _NUMBER, "samples": _INTEGER, "tol": _NUMBER,
                "int_tol": _NUMBER, "density_out": _STRING, "report_out": _STRING,
                "seed": _INTEGER}
_SWEEP_A = ((int, str), "an integer or a comma-separated string")


class ConfigError(ValueError):
    pass


def parse_metric_exprs(lam_src: str, mu_src: str, nu_src: str, a: int = 1) -> BergerMetric:
    """Build a metric from three expression strings (grammar of
    loopcs.expressions); positivity and periodicity are checked by
    BergerMetric."""
    return BergerMetric(parse_expression(lam_src), parse_expression(mu_src),
                        parse_expression(nu_src), a=a)


def _add_common(p: argparse.ArgumentParser):
    default = CSConfig()
    p.add_argument("--s", type=float, default=None,
                   help=f"Sobolev exponent, above 1/2 and below 2**1023 (default {default.s})")
    p.add_argument("--samples", type=int, default=None,
                   help=f"report grid N, even, from 16 to {MAX_SAMPLES}: the "
                        f"density CSV has N+1 rows (default {default.quadrature.n}); "
                        "the integral's samples come from the metric alone (see README)")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute tolerance on |T_N - T_N/2| of the trapezoid "
                        f"ladder (default {default.quadrature.tol})")
    p.add_argument("--int-tol", dest="int_tol", type=float, default=None,
                   help=f"integrality tolerance for the verdict, above 0 and below "
                        f"1/2 (default {default.integrality_tol})")
    p.add_argument("--density-out", dest="density_out", default=None,
                   help="write density samples as CSV (header alpha,f)")
    p.add_argument("--report-out", dest="report_out", default=None,
                   help="write the JSON report here")
    p.add_argument("--config", default=None,
                   help="JSON file supplying defaults for any flag")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parse_args leaves it as it
    was, and each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="loopcs",
        description="Wodzicki-Chern-Simons class of loop-space Levi-Civita "
                    "connections over S^3 x S^1 (Berger-type metric families)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="one metric, one report")
    p_compute.add_argument("--family", choices=("paper", "custom"), default=None,
                           help="'paper' = the built-in oscillating family "
                                "(needs --a); 'custom' = give --lambda/--mu/--nu")
    p_compute.add_argument("--a", type=int, default=None, help="family parameter")
    p_compute.add_argument("--lambda", dest="lam", default=None, metavar="EXPR")
    p_compute.add_argument("--mu", default=None, metavar="EXPR")
    p_compute.add_argument("--nu", default=None, metavar="EXPR")
    _add_common(p_compute)

    p_sweep = sub.add_parser("sweep", help="built-in family across several a")
    p_sweep.add_argument("--a", default=None,
                         help="comma-separated nonzero integers, e.g. 2,4,8")
    _add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="run the full invariant suite")
    p_verify.add_argument("--seed", type=int, default=None, help="suite seed")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            sweep_a = (args.command, key) == ("sweep", "a")
            types, kind = _SWEEP_A if sweep_a else _CONFIG_KEYS[key]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"config key {key!r} must be {kind}, not {value!r}")
        merged.update(data)
    flag_names = {"lam": "lambda"}
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[flag_names.get(key, key)] = value
    return merged


def _csconfig(opts: dict) -> CSConfig:
    default = CSConfig()
    try:
        quad = QuadratureSpec(n=int(opts.get("samples", default.quadrature.n)),
                              tol=float(opts.get("tol", default.quadrature.tol)))
        return CSConfig(s=float(opts.get("s", default.s)), quadrature=quad,
                        integrality_tol=float(opts.get("int_tol", default.integrality_tol)))
    except OverflowError:   # a config-file integer too large for a float
        raise ConfigError("config numbers must fit in a float") from None


def _metric_from_opts(opts: dict) -> tuple[BergerMetric, int | None]:
    exprs = [opts.get(k) for k in ("lambda", "mu", "nu")]
    family = opts.get("family")
    if family is None:
        family = "custom" if any(exprs) else "paper"
    if family not in ("paper", "custom"):
        raise ConfigError(f"family must be 'paper' or 'custom', not {family!r}")
    if family == "paper":
        if any(exprs):
            raise ConfigError("--lambda/--mu/--nu conflict with --family paper; "
                              "exactly one metric source is allowed")
        if opts.get("a") is None:
            raise ConfigError("--family paper needs --a")
        a = int(opts["a"])
        return builtin_family(a), a
    if not all(exprs):
        raise ConfigError("custom metrics need all of --lambda, --mu, --nu")
    a = int(opts.get("a", 1))
    return parse_metric_exprs(*exprs, a=a), (a if opts.get("a") is not None else None)


def _report_json(report: CSReport, a: int | None) -> dict:
    return {
        "integral": report.integral,
        "class_value": report.class_value,
        "mod_z": report.mod_z,
        "nontrivial": report.nontrivial,
        "verdict": report.verdict,
        "s": report.s,
        "a": a,
        "max_imag": report.max_imag,
        "quadrature_n": report.quadrature_n,
        "samples_evaluated": report.samples_evaluated,
        # how the metric was accepted: its frequency certificate (g, K) and
        # the enclosures that proved its scales positive, null when the
        # constructor's grid decided
        "certificate": report.metric.certificate,
        "scale_bounds": report.metric.scale_bounds,
    }


def _overwrite(path: str, chunks: Iterable[bytes]) -> None:
    """Write chunks over the file at path from offset 0, creating it if
    need be (mode 0o666 less the umask, as open() does), then cut a regular
    file's stale tail.  Unlike open(path, "wb") this never truncates the
    file to zero first: ext4 starts writing back a file truncated to zero
    when it is closed, which costs more than the write itself.  The inode,
    its permission bits and links are kept; a special file (/dev/null, a
    FIFO) is written and never truncated.  An OSError becomes a
    ConfigError naming the path."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as fh:
            fh.writelines(chunks)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write_report(path: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _overwrite(path, (text.encode("ascii"),))


# '%.17g' % v in numpy, byte for byte.  A finite v with 1e-4 <= |v| < 1e17
# prints in fixed notation: its exponent e = floor(log10|v|) lies in
# [-4, 16], so 10**(16 - e) is an exact double, and Dekker's TwoProduct
# gives |v| * 10**(16 - e) exactly as p + err.  p is an even integer of at
# least 2**53, so N = p + rint(err) is the correctly rounded (ties to even)
# 17-digit integer that dtoa prints.  N never reaches 10**17: the largest
# double below 10**(e+1) is at least 8 units of the 17th digit below it.
# Zero takes the same route (N = 0, e = 0); everything else, including
# nan and inf, is formatted by '%.17g' one value at a time.
_G17_WIDTH = 24   # sign, '0.', three zeros, 17 digits and a point


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of _format_g17, built on first use:
    - 10**k for k in 0..20, all exact doubles;
    - '0000' ... '9999' as words of four ASCII digits;
    - row j: the trailing zeros of N when its j-th 4-digit group after the
      leading digit is the last nonzero one (99 for a zero group);
    - per key (e + 4, sign, L), L the characters from column 6 on once
      trailing zeros (and a bare point) are dropped: the characters that do
      not come from N's digits, and where digit j lands, column 6 + j
      ("take") or, past the point, 7 + j ("shift")."""
    g = np.arange(10000, dtype=np.int16)
    digits4 = g[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48
    tz = (g % 10 == 0).astype(np.int16) + (g % 100 == 0) + (g % 1000 == 0)
    tz[0] = 99
    e = np.arange(-4, 17, dtype=np.int8)[:, None, None, None]
    neg = np.arange(2, dtype=np.int8)[None, :, None, None] == 1
    length = np.arange(19, dtype=np.int8)[None, None, :, None]
    col = np.arange(_G17_WIDTH, dtype=np.int8)
    j = col - 6
    small = e < 0
    const = (np.uint8(45) * ((col == 0) & neg)
             + np.uint8(48) * (small & ((col == 1) | ((col >= 3) & (col < 2 - e))))
             + np.uint8(46) * (small & (col == 2))
             + np.uint8(46) * (~small & (j == e + 1) & (j < length)))
    body = (j >= 0) & (j < length)
    take = body & (small | (j <= e))
    shift = body & ~small & (j > e + 1)
    return (10.0 ** np.arange(21),
            digits4.astype(np.uint8).view(np.uint32).ravel(),
            tz + np.array([12, 8, 4, 0], np.int16)[:, None],
            *(np.broadcast_to(t, const.shape).reshape(-1, _G17_WIDTH).astype(np.uint8)
              for t in (const, take, shift)))


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(a * b) and err with a * b = p + err exactly (Dekker, with
    Veltkamp's split at 2**27 + 1)."""
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _format_g17(values: np.ndarray) -> np.ndarray:
    """Row i holds the ASCII codes of '%.17g' % values[i], with NUL bytes
    between and after them; deleting the NULs gives the text."""
    pow10, digits4, trailing_zeros, layout_const, layout_take, layout_shift = _g17_tables()
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 16)
    p, err = _two_product(a, pow10[16 - e])
    # log10 may be one off next to a power of ten: place p + err in [1e16, 1e17)
    off = (((p > 1e17) | ((p == 1e17) & (err >= 0))).view(np.int8)
           - ((p < 1e16) | ((p == 1e16) & (err < 0))).view(np.int8))
    if off.any():
        e += off
        p, err = _two_product(a, pow10[16 - e])
    big = p.astype(np.int64) + np.rint(err).astype(np.int64)
    big[~fixed] = 0
    e[~fixed] = 0
    # N as its leading digit and four 4-digit groups
    hi = big // 100000000
    lo = (big - hi * 100000000).astype(np.int32)
    hi = hi.astype(np.int32)
    groups = np.empty((n, 5), np.int32)
    groups[:, 0] = hi // 100000000
    mid = hi // 10000
    groups[:, 1] = mid - groups[:, 0] * 10000
    groups[:, 2] = hi - mid * 10000
    groups[:, 3] = lo // 10000
    groups[:, 4] = lo - groups[:, 3] * 10000
    zeros = np.minimum.reduce([trailing_zeros[j].take(groups[:, j + 1]) for j in range(4)])
    digits = np.maximum(17 - np.minimum(zeros, 16), e + 1)
    length = digits + ((e >= 0) & (digits > e + 1))
    key = ((e + 4) * 2 + np.signbit(v)) * 19 + length
    ascii_digits = digits4.take(groups).view(np.uint8)[:, 3:]
    take = np.zeros((n, _G17_WIDTH), np.uint8)
    take[:, 6:23] = ascii_digits
    shift = np.zeros((n, _G17_WIDTH), np.uint8)
    shift[:, 7:] = ascii_digits
    rows = layout_const.take(key, axis=0)
    rows += take * layout_take.take(key, axis=0)
    rows += shift * layout_shift.take(key, axis=0)
    for i in np.flatnonzero(~fixed & (v != 0)).tolist():
        text = b"%.17g" % v[i]
        rows[i] = 0
        rows[i, :len(text)] = np.frombuffer(text, np.uint8)
    return rows


# The density CSV is formatted and written in blocks of this many rows, so
# that a large grid's CSV is never held whole.  A grid of one block keeps
# its formatted alpha column for later reports; a larger one does not.
_CSV_BLOCK = 2 ** 16


def _alpha_column(alphas: np.ndarray) -> np.ndarray:
    """alphas formatted by _format_g17, each row ending in a comma."""
    rows = np.empty((alphas.size, _G17_WIDTH + 1), np.uint8)
    rows[:, :-1] = _format_g17(alphas)
    rows[:, -1] = ord(",")
    return rows


@functools.lru_cache(maxsize=4)
def _grid_alpha_column(n: int) -> np.ndarray:
    """The alpha column of circle_grid(n), kept for later reports."""
    rows = _alpha_column(circle_grid(n))
    rows.flags.writeable = False   # shared by every report on the grid
    return rows


def _csv_rows(alpha_rows: np.ndarray, densities: np.ndarray) -> bytes:
    """CSV rows from a formatted alpha column and the densities beside it."""
    rows = np.empty((len(alpha_rows), 2 * _G17_WIDTH + 3), np.uint8)
    rows[:, :_G17_WIDTH + 1] = alpha_rows
    rows[:, _G17_WIDTH + 1:-2] = _format_g17(densities)
    rows[:, -2:] = (13, 10)
    return rows.tobytes().translate(None, b"\0")


def _density_csv(report: CSReport) -> Iterator[bytes]:
    """The report grid as CSV bytes, in blocks, as csv.writer gives them
    with every value written as '%.17g': CRLF row endings (RFC 4180),
    nothing quoted.  Reading report.densities may evaluate the grid, and so
    raise; callers read it before they write any output."""
    yield b"alpha,f\r\n"
    n = report.quadrature_n
    for start in range(0, n + 1, _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        alpha = (_grid_alpha_column(n) if n < _CSV_BLOCK
                 else _alpha_column(report.alphas[block]))
        yield _csv_rows(alpha, report.densities[block])


def _write_density_csv(path: str, report: CSReport) -> None:
    _overwrite(path, _density_csv(report))


def _check_out_paths(opts: dict) -> None:
    density, rep = opts.get("density_out"), opts.get("report_out")
    if density and rep and Path(density) == Path(rep):
        raise ConfigError("density and report output paths must be distinct")


def _shown_mod_z(report: CSReport) -> float:
    # mod_z just below 1 rounds to "1.000000" at six digits; show that as 0
    return reduce_mod_z(round(report.mod_z, 6))


def _summary_line(report: CSReport, a: int | None) -> str:
    label = f"a={a}" if a is not None else "custom"
    return (f"{label}: integral {report.integral:.6f}, class {report.class_value:.6f}, "
            f"mod Z {_shown_mod_z(report):.6f}, {report.verdict}")


def _run_compute(opts: dict) -> int:
    _check_out_paths(opts)
    metric, a = _metric_from_opts(opts)
    report = cs_class(metric, _csconfig(opts))
    if opts.get("density_out"):
        report.densities   # the one step that can raise: before any output
    if opts.get("report_out"):
        _write_report(opts["report_out"], _report_json(report, a))
    if opts.get("density_out"):
        _write_density_csv(opts["density_out"], report)
    print(_summary_line(report, a))
    return EXIT_OK


def _suffixed(path: str, a: int) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_a{a}{p.suffix}"))


def _run_sweep(opts: dict) -> int:
    _check_out_paths(opts)
    if opts.get("a") is None:
        raise ConfigError("sweep needs --a with a comma-separated list")
    try:
        a_values = [int(tok) for tok in str(opts["a"]).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse --a list {opts['a']!r}")
    if not a_values:
        raise ConfigError("--a needs nonzero integers")
    reports = sweep(a_values, _csconfig(opts))
    if opts.get("density_out"):
        for report in reports:   # every grid before any output; one CSV at a time after
            report.densities
    print(f"{'a':>4}  {'integral':>14}  {'class':>12}  {'mod Z':>10}  verdict")
    for a, report in zip(a_values, reports):
        print(f"{a:>4}  {report.integral:>14.6f}  {report.class_value:>12.6f}  "
              f"{_shown_mod_z(report):>10.6f}  {report.verdict}")
        if opts.get("report_out"):
            _write_report(_suffixed(opts["report_out"], a), _report_json(report, a))
        if opts.get("density_out"):
            _write_density_csv(_suffixed(opts["density_out"], a), report)
    return EXIT_OK


def _run_verify(opts: dict) -> int:
    # imported here: the suite loads the reference routes, which compute
    # and sweep never need
    from .verify import run_all
    results = run_all(seed=int(opts["seed"])) if "seed" in opts else run_all()
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _merge_config(args)
        if args.command == "compute":
            return _run_compute(opts)
        if args.command == "sweep":
            return _run_sweep(opts)
        return _run_verify(opts)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (QuadratureConvergenceError, NonFiniteDensityError, NonFiniteClassError,
            ResidueConventionError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
