"""Command-line front end: compute, sweep and verify.

Exit codes: 0 success, 1 configuration error (bad flags or config file,
a non-finite s or tolerance, or a metric that is not positive, not
periodic or has a pole), 2 expression
parse error (including a constant power that overflows a float), 3
numerical error (quadrature non-convergence, a non-finite density, or a
constant chain with an imaginary part), 4 invariant-suite failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .chern_simons import (CSConfig, CSReport, NonFiniteDensityError,
                           ResidueConventionError, cs_class, reduce_mod_z, sweep)
from .expressions import EvalDomainError, ParseError, parse_expression
from .geometry import BergerMetric, builtin_family
from .quadrature import (MAX_SAMPLES, QuadratureConvergenceError, QuadratureSpec,
                         circle_grid)
from .verify import run_all

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
                   help=f"Sobolev exponent (> 1/2, default {default.s})")
    p.add_argument("--samples", type=int, default=None,
                   help=f"report grid N, even, from 16 to {MAX_SAMPLES}: the "
                        f"density CSV has N+1 rows (default {default.quadrature.n}); "
                        "also the first ladder level of a metric whose trees "
                        "give no period (see README)")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute tolerance on |T_N - T_N/2| of the trapezoid "
                        f"ladder (default {default.quadrature.tol})")
    p.add_argument("--int-tol", dest="int_tol", type=float, default=None,
                   help=f"integrality tolerance for the verdict (default "
                        f"{default.integrality_tol})")
    p.add_argument("--density-out", dest="density_out", default=None,
                   help="write density samples as CSV (header alpha,f)")
    p.add_argument("--report-out", dest="report_out", default=None,
                   help="write the JSON report here")
    p.add_argument("--config", default=None,
                   help="JSON file supplying defaults for any flag")


def _build_parser() -> argparse.ArgumentParser:
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
        if a == 0:
            raise ConfigError("family parameter a must be nonzero")
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
    }


def _write_report(path: str, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@functools.lru_cache(maxsize=4)
def _density_csv_template(n: int) -> str:
    """Header and alpha column of the density CSV on circle_grid(n), with a
    %.17g slot per density value: formatting floats is most of the cost of
    the CSV, and every report with the same grid shares this half."""
    return "alpha,f\r\n" + "".join(f"{alpha:.17g},%.17g\r\n"
                                    for alpha in circle_grid(n).tolist())


def _density_csv(report: CSReport) -> str:
    """The report grid as CSV text, with the bytes csv.writer gives: CRLF
    row endings (RFC 4180), nothing quoted.  Reading report.densities may
    evaluate the grid, and so raise; callers form the text before they
    write any output."""
    return _density_csv_template(report.quadrature_n) % tuple(report.densities.tolist())


def _write_density_csv(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


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
    csv_text = _density_csv(report) if opts.get("density_out") else None
    if opts.get("report_out"):
        _write_report(opts["report_out"], _report_json(report, a))
    if csv_text is not None:
        _write_density_csv(opts["density_out"], csv_text)
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
    if not a_values or any(a == 0 for a in a_values):
        raise ConfigError("--a needs nonzero integers")
    reports = sweep(a_values, _csconfig(opts))
    csv_texts = [_density_csv(r) if opts.get("density_out") else None for r in reports]
    print(f"{'a':>4}  {'integral':>14}  {'class':>12}  {'mod Z':>10}  verdict")
    for a, report, csv_text in zip(a_values, reports, csv_texts):
        print(f"{a:>4}  {report.integral:>14.6f}  {report.class_value:>12.6f}  "
              f"{_shown_mod_z(report):>10.6f}  {report.verdict}")
        if opts.get("report_out"):
            _write_report(_suffixed(opts["report_out"], a), _report_json(report, a))
        if csv_text is not None:
            _write_density_csv(_suffixed(opts["density_out"], a), csv_text)
    return EXIT_OK


def _run_verify(opts: dict) -> int:
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
    except (QuadratureConvergenceError, NonFiniteDensityError,
            ResidueConventionError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
