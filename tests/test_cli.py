import csv
import functools
import io
import json
import math
import os
import subprocess
import stat
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopcs.cli
from loopcs.chern_simons import CSConfig, ResidueConventionError, cs_class
from loopcs.cli import main
from loopcs.expressions import parse_expression
from loopcs.geometry import BergerMetric, builtin_family
from loopcs.quadrature import MAX_SAMPLES, QuadratureConvergenceError, QuadratureSpec

A2_INTEGRAL = -26.0686813921976406


def run(args):
    return main(args)


def test_compute_builtin_family(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    density_path = tmp_path / "density.csv"
    code = run(["compute", "--family", "paper", "--a", "2", "--s", "1",
                "--report-out", str(report_path), "--density-out", str(density_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "nontrivial" in out

    report = json.loads(report_path.read_text())
    assert abs(report["integral"] - A2_INTEGRAL) < 5e-3 * abs(A2_INTEGRAL)
    assert report["nontrivial"] is True
    assert report["a"] == 2
    assert report["s"] == 1.0
    assert report["quadrature_n"] == 4096
    assert report["max_imag"] < 1e-10
    assert set(report) == {"integral", "class_value", "mod_z", "nontrivial", "verdict",
                           "s", "a", "max_imag", "quadrature_n", "samples_evaluated",
                           "certificate", "scale_bounds"}

    lines = density_path.read_text().splitlines()
    assert lines[0] == "alpha,f"
    assert len(lines) == 4096 + 2  # header + N+1 grid rows
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 7.5) < 1e-12


def test_outputs_are_byte_stable(tmp_path):
    args = ["compute", "--family", "paper", "--a", "2",
            "--report-out", str(tmp_path / "r.json"),
            "--density-out", str(tmp_path / "d.csv")]
    assert run(args) == 0
    first = ((tmp_path / "r.json").read_bytes(), (tmp_path / "d.csv").read_bytes())
    assert run(args) == 0
    second = ((tmp_path / "r.json").read_bytes(), (tmp_path / "d.csv").read_bytes())
    assert first == second


def _csv_writer_bytes(report):
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["alpha", "f"])
    for alpha, f in zip(report.alphas, report.densities):
        writer.writerow([f"{alpha:.17g}", f"{f:.17g}"])
    return want.getvalue().encode()


def test_density_csv_bytes_match_csv_writer(tmp_path):
    custom = ("0.00001*sin(alpha)+2", "1", "3-cos(2*alpha)^2")
    tiny = ("1+0.0000001*sin(alpha)", "1", "1")
    cases = [(["--family", "paper", "--a", "2"], builtin_family(2), 4096),
             (["--lambda", custom[0], "--mu", custom[1], "--nu", custom[2]],
              BergerMetric(*(parse_expression(x) for x in custom)), 4096),
             # the round metric: every density sample is 0
             (["--lambda", "1", "--mu", "1", "--nu", "1"],
              BergerMetric(*(parse_expression("1"),) * 3), 4096),
             # densities below 1e-4 print in exponent notation
             (["--lambda", tiny[0], "--mu", tiny[1], "--nu", tiny[2]],
              BergerMetric(*(parse_expression(x) for x in tiny)), 4096),
             # alpha = 2*pi/65536 < 1e-4 prints in exponent notation too
             (["--family", "paper", "--a", "2"], builtin_family(2), 65536)]
    for flags, m, n in cases:
        path = tmp_path / "d.csv"
        assert run(["compute", *flags, "--samples", str(n), "--density-out", str(path)]) == 0
        report = cs_class(m, CSConfig(quadrature=QuadratureSpec(n=n)))
        assert path.read_bytes() == _csv_writer_bytes(report)
    assert path.read_bytes().count(b"e-05,") == 1
    assert run(["compute", *cases[3][0], "--density-out", str(path)]) == 0
    assert path.read_bytes().count(b"e-") > 4000   # all but the zeros of sin


def _g17(values):
    rows = loopcs.cli._format_g17(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"") for row in rows]


def _g17_reference(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(min_value=-1e18, max_value=1e18)),
                min_size=1, max_size=40))
def test_format_g17_matches_percent_format(values):
    assert _g17(values) == _g17_reference(values)


def _neighbours(x, k=8):
    """x and the k doubles on either side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def _ties(rng, per_exponent=50):
    """Doubles v with v * 10**(16 - e) exactly halfway between two integers,
    e = floor(log10 v) in [-4, 15]: v = c / 2**(s + 1), c odd, s = 16 - e."""
    out = []
    for s in range(1, 21):
        scale = 2 ** (s + 1)
        lo = -(-10 ** 16 * scale // 10 ** s)
        hi = min(2 ** 53, 10 ** 17 * scale // 10 ** s)
        for c in rng.integers(lo, hi, per_exponent).tolist():
            out.append((c | 1) / scale)
    return out


def test_format_g17_edges():
    rng = np.random.default_rng(13)
    values = [v for k in range(-6, 19) for v in _neighbours(10.0 ** k)]
    values += [v for x in (1e-4, 1e17, 2.0 ** 53) for v in _neighbours(x, 20)]
    values += _ties(rng)
    values += rng.integers(2 ** 53, 10 ** 17, 2000).astype(np.float64).tolist()
    values += [0.0, 5e-324, 2.2250738585072014e-308, math.nextafter(0.0, 1.0) * 3,
               1.7976931348623157e308, math.inf, math.nan]
    values += (10.0 ** rng.uniform(-6, 18, 5000)).tolist()
    values += rng.integers(0, 2 ** 63, 5000, dtype=np.int64).view(np.float64).tolist()
    values = np.array(values)
    values = np.concatenate([values, -values])
    assert _g17(values) == _g17_reference(values)


def test_compute_custom_round_metric(tmp_path):
    report_path = tmp_path / "round.json"
    code = run(["compute", "--lambda", "1", "--mu", "1", "--nu", "1",
                "--report-out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["integral"] == 0.0
    assert report["nontrivial"] is False
    assert report["a"] is None


def test_summary_mod_z_stays_below_one(capsys):
    # the class is -8.7e-17 and mod_z 0.9999999999999999, which rounds up
    # to 1.000000 at six digits
    scale = "2+sin(alpha)"
    assert run(["compute", "--lambda", scale, "--mu", scale, "--nu", scale]) == 0
    assert "mod Z 0.000000" in capsys.readouterr().out


def test_parse_error_exit_code(capsys):
    assert run(["compute", "--lambda", "1", "--mu", "sin(alpha", "--nu", "1"]) == 2
    err = capsys.readouterr().err
    assert "offset 9" in err and "')'" in err
    # a constant power that overflows a float fails at its exponent
    for scale, offset in (("10^400", 3), ("(10^200)^2", 9)):
        assert run(["compute", "--lambda", scale, "--mu", "1", "--nu", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("parse error:")
        assert f"offset {offset}" in err[0]


def test_config_errors():
    assert run(["compute", "--family", "paper"]) == 1                    # missing --a
    assert run(["compute", "--family", "paper", "--a", "2", "--mu", "1"]) == 1
    assert run(["compute", "--family", "custom", "--lambda", "1"]) == 1  # missing mu, nu
    assert run(["compute", "--family", "paper", "--a", "0"]) == 1
    assert run(["compute", "--lambda", "1", "--mu", "1", "--nu", "cos(alpha)"]) == 1


@pytest.mark.parametrize("argv", [["compute", "--family", "paper", "--a", "0"],
                                  ["sweep", "--a", "2,0"], ["sweep", "--a", ","]])
def test_zero_or_no_family_parameter_is_one_error_line(capsys, argv):
    # builtin_family rejects a = 0 and sweep builds every metric before it
    # prints, so the run writes one error line and nothing else
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


def test_bad_metrics_exit_codes(capsys):
    cases = [
        (["--lambda", "1+0.1*alpha", "--mu", "1", "--nu", "2-cos(alpha)"], 1, "error:"),
        (["--lambda", "1", "--mu", "2+sin(alpha)/a", "--nu", "1", "--a", "0"], 1, "error:"),
        (["--lambda", "1", "--mu", "2+sin(alpha)/(1-cos(alpha))^2", "--nu", "1"],
         1, "error:"),
        (["--lambda", "(2+sin(alpha))^300", "--mu", "1", "--nu", "1"],
         3, "numerical error:"),
        # lam = cos(1024 alpha): 1 on the constructor's 1025-point grid, but
        # not positive at about half of the 4097 report-grid samples
        (["--lambda", "1-2*sin(512*alpha)^2", "--mu", "1", "--nu", "1"], 1, "error:"),
        # ... and 1 on every point of a 1025-point grid; the integral's
        # samples per period of the harmonic see it
        (["--lambda", "1-2*sin(512*alpha)^2", "--mu", "1", "--nu", "1",
          "--samples", "1024"], 1, "error:"),
    ]
    for metric_args, code, prefix in cases:
        assert run(["compute", *metric_args]) == code, metric_args
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(prefix), err


def test_overflowing_parameter_power_is_not_finite(capsys):
    # a^400 at a = 8 folds to inf: one error line, not an OverflowError
    assert run(["compute", "--lambda", "a^400", "--mu", "1", "--nu", "1", "--a", "8"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: lam is not finite on [0, 2*pi)"]


def test_nan_scale_does_not_hide_a_negative_one(capsys):
    # lam = a^400 - a^400 folds to nan at a = 8; mu is negative at alpha = 0.
    # The positivity test must still see mu, not stop at the nan lam
    assert run(["compute", "--lambda", "a^400-a^400", "--mu", "1-2*cos(alpha)^2",
                "--nu", "1", "--a", "8"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: mu is not positive at alpha=0.000000"]


@pytest.mark.parametrize("flags", [["--s", "inf"], ["--s", "nan"], ["--int-tol", "inf"],
                                   ["--int-tol", "nan"], ["--tol", "inf"],
                                   ["--tol", "nan"]])
def test_non_finite_config_values_rejected(capsys, flags):
    # inf s used to surface as an inconsistent constant chain (exit 3), an
    # infinite integrality tolerance made every verdict "indeterminate", and
    # an infinite ladder tolerance accepted estimates it never compared
    assert run(["compute", "--family", "paper", "--a", "2", *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("flags, message", [
    (["--s", "1e308"], "error: Sobolev exponent s must be above 1/2 and below 2**1023"),
    (["--s", repr(2.0 ** 1023)], "error: Sobolev exponent s must be above 1/2 and below 2**1023"),
    (["--int-tol", "0.5"], "error: integrality tolerance must be above 0 and below 1/2"),
    (["--int-tol", "0.6"], "error: integrality tolerance must be above 0 and below 1/2"),
])
def test_out_of_range_config_values_rejected(capsys, flags, message):
    # s = 1e308 used to exit 3 with a NaN constant chain (2 i s overflows);
    # --int-tol 0.6 called every class "indeterminate"
    assert run(["compute", "--family", "paper", "--a", "2", *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_int_tol_just_below_one_half_decides(capsys):
    # mod Z 0.482830 is 0.48 from the integers: within 0.49, beyond 0.48
    for tol, verdict in (("0.49", "indeterminate"), ("0.48", "nontrivial")):
        assert run(["compute", "--family", "paper", "--a", "2", "--int-tol", tol]) == 0
        assert capsys.readouterr().out.endswith(f"mod Z 0.482830, {verdict}\n")


@pytest.mark.parametrize("command", [["compute", "--family", "paper", "--a", "2", "--s", "8.98e307"],
                                     ["sweep", "--a", "2,8", "--s", "5e307"]])
def test_overflowing_class_value_is_one_numerical_error(capsys, command):
    # s is accepted, but (s/4) * integral overflows to -inf; it used to end in
    # an OverflowError traceback from reduce_mod_z
    assert run(command) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "numerical error: class value (s/4) * integral overflows a float"), err


def test_config_number_too_large_for_a_float(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"s": 1' + "0" * 400 + "}")
    assert run(["compute", "--family", "paper", "--a", "2", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_samples_capped(tmp_path, capsys, source):
    cfg = tmp_path / "cfg.json"
    for samples, code in ((MAX_SAMPLES, 0), (MAX_SAMPLES + 2, 1), (10 ** 11, 1),
                          (10 ** 400, 1)):
        if source == "flag":
            args = ["--samples", str(samples)]
        else:
            cfg.write_text(json.dumps({"samples": samples}))
            args = ["--config", str(cfg)]
        assert run(["compute", "--family", "paper", "--a", "2", *args]) == code
        err = capsys.readouterr().err.splitlines()
        assert err == ([] if code == 0 else [f"error: sample count must be at most "
                                              f"2**20 = {MAX_SAMPLES}"])


@pytest.mark.parametrize("default", [
    CSConfig(),
    CSConfig(s=2.5, quadrature=QuadratureSpec(n=512, tol=1e-6), integrality_tol=0.01),
], ids=["library", "changed"])
def test_help_names_the_library_defaults(capsys, monkeypatch, default):
    monkeypatch.setattr(loopcs.cli, "CSConfig", lambda: default)
    # a parser of this test's own: the shared one was built with the library's
    monkeypatch.setattr(loopcs.cli, "_build_parser",
                        functools.cache(loopcs.cli._build_parser.__wrapped__))
    with pytest.raises(SystemExit):
        main(["compute", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for value in (default.s, default.quadrature.n, default.quadrature.tol,
                  default.integrality_tol):
        assert f"default {value})" in text, value
    assert f"from 16 to {MAX_SAMPLES}" in text


def test_certified_metrics_accepted(capsys):
    # periodic scales whose jets at 0 and 2*pi differ by rounding in
    # 2*pi times the frequency
    for scale in ("2+sin(3000*alpha)", "2+cos(4096*alpha)"):
        assert run(["compute", "--lambda", scale, "--mu", "2", "--nu", "3"]) == 0
    capsys.readouterr()
    # a multiple of the report grid's N: every grid sample has the same phase
    assert run(["compute", "--family", "paper", "--a", "4096"]) == 0
    out = capsys.readouterr().out
    assert "integral -20911657.889618" in out and "mod Z 0.527595" in out


def test_report_counts_integral_samples(tmp_path):
    path = tmp_path / "r.json"
    assert run(["compute", "--family", "paper", "--a", "2", "--report-out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["samples_evaluated"] == 65
    assert report["quadrature_n"] == 4096


def test_report_says_how_the_metric_was_accepted(tmp_path):
    path = tmp_path / "r.json"
    # certified and proved positive by its scale bounds
    assert run(["compute", "--family", "paper", "--a", "8", "--report-out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["certificate"] == [8, 8]
    m = builtin_family(8)
    assert report["scale_bounds"] == [list(b) for b in m.scale_bounds]
    assert report["scale_bounds"][0] == [1.0, 1.0]
    # certified, but only the grid could decide positivity
    assert run(["compute", "--lambda", "1.5+sin(alpha)-0.8*sin(alpha)", "--mu", "1",
                "--nu", "2+cos(3*alpha)", "--report-out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert (report["certificate"], report["scale_bounds"]) == ([1, 3], None)
    # uncertified: the grid checks periodicity as well
    assert run(["compute", "--lambda", "2+sin(sin(alpha))", "--mu", "1", "--nu", "1",
                "--report-out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert (report["certificate"], report["scale_bounds"]) == (None, None)


def test_grid_failure_leaves_no_output(tmp_path, capsys, monkeypatch):
    import loopcs.chern_simons

    # the report grid is read after the integral: make only that read fail
    monkeypatch.setattr(loopcs.chern_simons, "circle_grid",
                        lambda n: np.full(n + 1, np.nan))
    report, density = tmp_path / "r.json", tmp_path / "d.csv"
    outputs = ["--report-out", str(report), "--density-out", str(density)]
    assert run(["compute", "--family", "paper", "--a", "2", *outputs]) == 3
    assert run(["sweep", "--a", "2,3", *outputs]) == 3
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("numerical error:") == 2


def test_large_grid_alpha_column_is_not_cached(tmp_path):
    cache = loopcs.cli._grid_alpha_column
    cache.cache_clear()
    path = tmp_path / "d.csv"
    # 2**16 rows are one block: a grid of 2**16 - 1 points keeps its alpha column
    for n, cached in ((2 ** 16, 0), (2 ** 16 + 2, 0), (2 ** 16 - 2, 1)):
        assert run(["compute", "--family", "paper", "--a", "2", "--samples", str(n),
                    "--density-out", str(path)]) == 0
        assert cache.cache_info().currsize == cached
        report = cs_class(builtin_family(2), CSConfig(quadrature=QuadratureSpec(n=n)))
        assert path.read_bytes() == _csv_writer_bytes(report)
    cache.cache_clear()


def test_sweep_writes_each_csv_before_forming_the_next(tmp_path, monkeypatch):
    formed = []
    density_csv = loopcs.cli._density_csv

    def recording(report):
        formed.append((report.a, {p.name: p.stat().st_size for p in tmp_path.iterdir()}))
        yield from density_csv(report)

    monkeypatch.setattr(loopcs.cli, "_density_csv", recording)
    assert run(["sweep", "--a", "2,3,8", "--density-out", str(tmp_path / "d.csv")]) == 0
    size = {a: (tmp_path / f"d_a{a}.csv").stat().st_size for a in (2, 3, 8)}
    # each CSV is formed while its own file is open and empty, after the
    # earlier ones are complete
    assert formed == [(2, {"d_a2.csv": 0}),
                      (3, {"d_a2.csv": size[2], "d_a3.csv": 0}),
                      (8, {"d_a2.csv": size[2], "d_a3.csv": size[3], "d_a8.csv": 0})]
    for a in (2, 3, 8):
        report = cs_class(builtin_family(a))
        assert (tmp_path / f"d_a{a}.csv").read_bytes() == _csv_writer_bytes(report)


def _report(path):
    return json.loads(Path(path).read_text())


def test_parser_reuse_keeps_no_flags(tmp_path, capsys):
    # one parser serves every main() call in a process: no call's flags may
    # reach the next one
    r = tmp_path / "r.json"
    paper = ["--family", "paper", "--a", "2", "--report-out", str(r)]
    assert run(["compute", *paper, "--s", "2", "--samples", "1024"]) == 0
    assert (_report(r)["s"], _report(r)["quadrature_n"]) == (2.0, 1024)
    assert run(["compute", *paper]) == 0
    assert (_report(r)["s"], _report(r)["quadrature_n"]) == (1.0, 4096)

    assert run(["compute", "--lambda", "2+sin(alpha)", "--mu", "1", "--nu", "1",
                "--a", "3", "--report-out", str(r)]) == 0
    assert run(["sweep", "--a", "2,4", "--report-out", str(r)]) == 0
    for a in (2, 4):
        report = _report(tmp_path / f"r_a{a}.json")
        assert (report["a"], report["s"]) == (a, 1.0)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "paper", "a": 8}))
    assert run(["compute", *paper, "--s", "3", "--tol", "1e-6"]) == 0
    assert run(["compute", "--config", str(cfg), "--report-out", str(r)]) == 0
    assert (_report(r)["a"], _report(r)["s"]) == (8, 1.0)
    cfg.write_text(json.dumps({"family": "paper", "a": 8, "s": 2.5}))
    assert run(["compute", "--config", str(cfg), "--report-out", str(r)]) == 0
    assert _report(r)["s"] == 2.5
    capsys.readouterr()


def test_distinct_output_paths(tmp_path):
    same = str(tmp_path / "out.txt")
    code = run(["compute", "--family", "paper", "--a", "2",
                "--report-out", same, "--density-out", same])
    assert code == 1


@pytest.mark.parametrize("command", [["compute", "--family", "paper", "--a", "2"],
                                     ["sweep", "--a", "2,4"]])
@pytest.mark.parametrize("flag", ["--density-out", "--report-out"])
def test_unwritable_output_exits_config(tmp_path, capsys, command, flag):
    name = "out_a2.txt" if command[0] == "sweep" else "out.txt"   # sweep's file for a = 2
    (tmp_path / "dir" / name).mkdir(parents=True)   # a directory where the file goes
    for parent, why in ((tmp_path / "missing", "No such file or directory"),
                        (tmp_path / "dir", "Is a directory")):
        assert run([*command, flag, str(parent / "out.txt")]) == 1
        assert capsys.readouterr().err == f"error: cannot write {str(parent / name)!r}: {why}\n"


_CUSTOM_A8 = ["compute", "--lambda", "2+sin(alpha)", "--mu", "1-0.5*cos(alpha)^2",
              "--nu", "1.5+cos(3*alpha)", "--a", "8"]


def _compute_outputs(tmp_path, name, samples="16"):
    """Report and CSV bytes of one run writing to fresh files."""
    report, density = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    assert run([*_CUSTOM_A8, "--samples", samples,
                "--report-out", str(report), "--density-out", str(density)]) == 0
    return report.read_bytes(), density.read_bytes()


def test_outputs_written_over_longer_files_equal_fresh_ones(tmp_path, capsys):
    fresh = {n: _compute_outputs(tmp_path, f"fresh{n}", n) for n in ("16", "4096")}
    report, density = tmp_path / "r.json", tmp_path / "d.csv"
    outputs = ["--report-out", str(report), "--density-out", str(density)]
    # a 17-row CSV and its report over a 4097-row CSV and a long report,
    # then back
    report.write_bytes(b"x" * 10000)
    for n in ("4096", "16", "4096", "16"):
        assert run([*_CUSTOM_A8, "--samples", n, *outputs]) == 0
        assert (report.read_bytes(), density.read_bytes()) == fresh[n]
    capsys.readouterr()


def test_outputs_keep_the_inode_mode_and_links(tmp_path, capsys):
    fresh_report, fresh_density = _compute_outputs(tmp_path, "fresh")
    report, density = tmp_path / "r.json", tmp_path / "d.csv"
    for path in (report, density):
        path.write_bytes(b"old contents\n" * 1000)
        path.chmod(0o604)
    before = {p: p.stat().st_ino for p in (report, density)}
    target, hard, link = tmp_path / "target.csv", tmp_path / "hard.csv", tmp_path / "link.csv"
    target.write_bytes(b"old\n" * 1000)
    os.link(target, hard)
    link.symlink_to(target)
    assert run([*_CUSTOM_A8, "--samples", "16", "--report-out", str(report),
                "--density-out", str(density)]) == 0
    assert run([*_CUSTOM_A8, "--samples", "16", "--density-out", str(link)]) == 0
    assert (report.read_bytes(), density.read_bytes()) == (fresh_report, fresh_density)
    for path in (report, density):
        assert path.stat().st_ino == before[path]
        assert stat.S_IMODE(path.stat().st_mode) == 0o604
    # the symlink is written through, and the hard link sees the new bytes
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == hard.read_bytes() == fresh_density
    capsys.readouterr()


def test_new_output_mode_follows_the_umask(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "by_open", "wb"):
            pass
        assert run([*_CUSTOM_A8, "--samples", "16",
                    "--report-out", str(tmp_path / "r.json")]) == 0
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "by_open").stat().st_mode)
    assert mode == 0o640
    assert stat.S_IMODE((tmp_path / "r.json").stat().st_mode) == mode
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--density-out", "--report-out"])
def test_outputs_to_devnull(capsys, flag):
    assert run(["compute", "--family", "paper", "--a", "2", flag, os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("lam", ["2+sin(alpha+a^400)", "2+cos(a^400*alpha)"])
def test_non_finite_scale_prints_one_line_and_no_warning(capsys, lam):
    # numpy reports the inf/NaN arithmetic through warnings; none may reach
    # stderr before the one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["compute", "--lambda", lam, "--mu", "1", "--nu", "1", "--a", "8"])
    assert code == 1
    assert capsys.readouterr().err == "error: lam is not finite on [0, 2*pi)\n"


def test_sweep(tmp_path, capsys):
    report_path = tmp_path / "sweep.json"
    code = run(["sweep", "--a", "2,4,8", "--s", "1", "--report-out", str(report_path)])
    assert code == 0
    table = capsys.readouterr().out
    assert "verdict" in table and "nontrivial" in table
    for a in (2, 4, 8):
        payload = json.loads((tmp_path / f"sweep_a{a}.json").read_text())
        assert payload["a"] == a
    a8 = json.loads((tmp_path / "sweep_a8.json").read_text())
    assert abs(a8["integral"] - (-100.992)) < 5e-3 * 100.992
    assert run(["sweep", "--a", "2,0"]) == 1
    assert run(["sweep", "--a", "nope"]) == 1
    assert run(["sweep"]) == 1


def test_numerical_nonconvergence_exit_code(capsys, monkeypatch):
    import loopcs.cli

    for error in (QuadratureConvergenceError("did not converge", last=1.0, previous=2.0),
                  ResidueConventionError("density has imaginary residue")):
        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(loopcs.cli, "cs_class", explode)
        code = run(["compute", "--family", "paper", "--a", "2"])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err


def test_real_connection_constant_exits_numerical(capsys, monkeypatch):
    import loopcs.chern_simons

    monkeypatch.setattr(loopcs.chern_simons, "CONNECTION_TRACE_CONSTANT", 1.0)
    code = run(["compute", "--family", "paper", "--a", "2"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:")


def test_python_dash_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "loopcs", "compute", "--family", "paper",
                           "--a", "2"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "nontrivial" in proc.stdout


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "paper", "a": 3, "s": 2.0}))
    report_path = tmp_path / "r.json"
    code = run(["compute", "--config", str(cfg), "--report-out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["a"] == 3 and report["s"] == 2.0
    # explicit flags override config values
    code = run(["compute", "--config", str(cfg), "--s", "1.0",
                "--report-out", str(report_path)])
    assert code == 0
    assert json.loads(report_path.read_text())["s"] == 1.0
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(["compute", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("command, data", [
    ("compute", {"samples": None}),
    ("compute", {"a": [2]}),
    ("compute", {"a": 2.7}),
    ("compute", {"a": "2"}),
    ("compute", {"seed": True}),
    ("compute", {"s": "1"}),
    ("compute", {"tol": None}),
    ("compute", {"int_tol": [1e-3]}),
    ("compute", {"lambda": 1}),
    ("compute", {"report_out": False}),
    ("compute", {"family": "round", "lambda": "1", "mu": "1", "nu": "1"}),
    ("compute", 2),
    ("sweep", {"a": 2.5}),
    ("sweep", {"a": ["2", "3"]}),
])
def test_config_value_types(tmp_path, capsys, command, data):
    # a config value must be what its flag accepts: one error line, exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    args = [command, "--config", str(cfg)] + (["--a", "2"] if command == "compute" else [])
    assert run(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_sweep_config_a_forms(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for value in (2, "2,3"):
        cfg.write_text(json.dumps({"a": value, "samples": 64, "s": 2}))
        assert run(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["a", "2", "a", "2", "3"]


def test_verify_subcommand(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
