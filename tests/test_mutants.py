"""The verify suite's mutation table.

Each row of MUTANTS changes the program at run time, through monkeypatch
and never by editing a file, and names the checks of loopcs.verify that
fail under it (by function name, without the ``check_`` prefix);
verify.run_check counts a check that raises as failed.  A mutation goes
wherever the program binds what it replaces (replace): a function that
other modules import by name, a method in its class, and the dispatch
tables the compiler fills at import (_CONSTANT_OPS, _JET_OPS, _RULES).
A compiled program's ops are data, (op function, constants, input
registers), and the compiler reads each op function from its module when
it emits the op, so a program compiled under a row runs the mutant too.

The tests ask every named check to fail under its row and every check
of ALL_CHECKS to have a witness: a row under which the whole suite runs
and that check alone fails.  A check that fails only where another one
fails does not earn its place.  A check that fails by raising TypeError
or AttributeError does not count: the harness, not the check, broke.  A row that names no check is a hole in the suite; its
probe shows that the mutation changes a number the program computes.

Run as a script for the whole matrix, every row against every check:

    PYTHONPATH=src python tests/test_mutants.py [REV ...]

Each git revision REV adds the checks of src/loopcs/verify.py at that
revision as further columns, run on the same rows.  A cell reads X where
the check fails and . where it passes; a cell of this tree's suite
carries a ! where it disagrees with the row.
"""
import dataclasses
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import loopcs.chern_simons as chern_simons
import loopcs.expressions as expressions
import loopcs.forms as forms
import loopcs.geometry as geometry
import loopcs.oracle as oracle
from loopcs import verify
# the originals: replace rebinds names in loopcs modules only
from loopcs.chern_simons import (CSConfig, _class_report, _class_reports, _constant_chain,
                                 _ladder_start, cs_class, cs_density, reduce_mod_z)
from loopcs.expressions import Alpha, Cos, Mul, Num, ParamA, Sin, Sub, _Compiler, _lift, derivative
from loopcs.forms import MatrixForm, ScalarForm, merge_sign
from loopcs.geometry import builtin_family, family_members
from loopcs.jets import Jet2
from loopcs.quadrature import QuadratureSpec, integrate_circle

ROOT = Path(__file__).resolve().parent.parent


def replace(mp, original, mutant):
    """Bind mutant wherever a loopcs module binds original: as a module
    global, in a class that module defines, or as a value of a dict the
    module holds."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "loopcs":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                mp.setattr(module, key, mutant)
                bound += 1
            elif isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        mp.setattr(value, attr, mutant)
                        bound += 1
            elif type(value) is dict and key != "__builtins__":
                for entry, member in list(value.items()):
                    if member is original:
                        mp.setitem(value, entry, mutant)
                        bound += 1
    assert bound, f"{original!r} is bound nowhere"


def wrap(original, after):
    """A mutant that runs original, then changes its result with after."""
    def mutant(*args, **kwargs):
        return after(original(*args, **kwargs))
    return lambda mp: replace(mp, original, mutant)


# -- class path: kernel, constant chain, class value, reduction

def swapped_triple(lam, mu, nu):
    # the loop of bitwise_references.cyclic_connection_trace with the first
    # cyclic triple written (1, 3, 2)
    s = (lam, mu, nu)
    cyclic = [(0, 2, 1), (1, 2, 0), (2, 0, 1)]
    X = [x.d1 / x.v for x in s]
    Xjk = [X[j] + X[k] for i, j, k in cyclic]
    P = [s[j].v * s[k].v / s[i].v for i, j, k in cyclic]
    dP = [P[i] * (Xjk[i] - X[i]) for i, j, k in cyclic]
    Y = [2 * (P[j] - P[k]) for i, j, k in cyclic]
    total = 0
    for i, j, k in cyclic:
        a = 2 * (Xjk[i] * P[i] + dP[j] + dP[k])
        b = s[i].d2 / s[i].v - 2 * X[i] * X[i]
        total += (X[j] * X[k] - Y[j] * Y[k]) * a + (Y[j] * X[k] - X[j] * Y[k]) * b
    return total / 4


def density_plus_one(m, cfg, alpha):
    # f = kappa + T_conn in place of kappa * T_conn, for kappa = 1
    return cs_density(m, cfg, alpha) + 1.0


def class_value_s_times_integral(report):
    value = report.s * report.integral
    return dataclasses.replace(report, class_value=value, mod_z=reduce_mod_z(value))


def truncating_mod_z(value):
    return value - int(value)


def ladder_over_half_period(certificate):
    g, n = _ladder_start(certificate)
    return 2 * g, n


def first_level_capped_at_n(rows, periods, n, cfg):
    # the ladder starts at no more than the report grid's N samples
    return _class_reports(rows, periods, min(n, cfg.quadrature.n), cfg)


# -- quadrature

# an integrand of several rows returns (rows, n + 1) samples and takes the
# rows still refining on a doubling (integrate_circle); these pass them on

def end_weights_one(f, spec=QuadratureSpec()):
    # the ladder with weight h, not h/2, on alpha = 0 and 2 pi
    def doubled_ends(x, *live):
        y = np.array(f(x, *live), dtype=float)
        if x[0] == 0.0:
            y[..., [0, -1]] *= 2.0
        return y
    return integrate_circle(doubled_ends, spec)


def midpoints_at_a_quarter(f, spec=QuadratureSpec()):
    # each doubling samples (i + 1/4) h, not (i + 1/2) h
    return integrate_circle(
        lambda x, *live: f(x, *live) if x[0] == 0.0 else f(x - 0.5 * x[0], *live), spec)


# -- compiler and jets

# the unpatched methods, which a mutant calls through
_trig, _pow = _Compiler.trig, Jet2.__pow__


def drifting_lines(mp):
    # both op functions of a line k alpha + c: with c, and through 0
    replace(mp, expressions._line, lambda k, c, x: k * x + c + 1e-3 * x)
    replace(mp, expressions._slope, lambda k, x: k * x + 1e-3 * x)


def shifted_cos_pair(x):
    return np.sin(x), np.cos(x + 1e-3)


def exchanged_trig(self, e):
    return _trig(self, (Cos if type(e) is Sin else Sin)(e.arg))


def product_d2_once(self, other):
    # u'v' once, not twice, in (uv)''
    o = Jet2._coerce(other)
    return Jet2(self.v * o.v, self.d1 * o.v + self.v * o.d1,
                self.d2 * o.v + self.d1 * o.d1 + self.v * o.d2)


def quotient_q1_once(self, other):
    o = Jet2._coerce(other)
    q0 = self.v / o.v
    q1 = (self.d1 - q0 * o.d1) / o.v
    return Jet2(q0, q1, (self.d2 - q1 * o.d1 - q0 * o.d2) / o.v)


def power_k_squared(self, k):
    # k^2 u^(k-2) u'^2 in place of k (k - 1) u^(k-2) u'^2
    if k in (0, 1):
        return _pow(self, k)
    vk2 = self.v ** (k - 2.0)
    vk1 = vk2 * self.v
    return Jet2(vk1 * self.v, k * vk1 * self.d1,
                k * k * vk2 * self.d1 * self.d1 + k * vk1 * self.d2)


def cos_derivative_unsigned(e):
    if type(e) is Cos:
        return Sin(e.arg) * expressions.derivative(e.arg)
    return derivative(e)


def rows_of_row_zero(a_values):
    # every member's row binds the first member's a; each keeps its own a
    # and certificate
    members = family_members(a_values)
    return [(a, members[0][1], certificate) for a, _, certificate in members]


def reciprocal_of_abs(x, y):
    # the template forms y / a as y / |a|
    return _lift(lambda p, q: p / abs(q))(y, x)


# -- oracle

def koszul_signs_swapped(m, alpha):
    c = oracle.structure_constants(m, alpha)

    def koszul(x):
        return 0.5 * (x + np.einsum("...ijk->...kij", x) - np.einsum("...jki->...kij", x))

    return oracle.Jet1(koszul(c.v), koszul(c.d1))


def flip_c213(c):
    for part in (c.v, c.d1):
        part[..., 1, 0, 2] *= -1.0
        part[..., 1, 2, 0] *= -1.0
    return c


def scaled_gamma312(table):
    for part in (table.v, table.d1):
        part[..., 2, 0, 1] *= 1.0 + 1e-9
    return table


def scaled_psi1(form):
    form.coeff((1,))[...] *= 1.0 + 1e-9
    return form


def asymmetric_sigma0(s0):
    # the psi^3 entry U loses its symmetric partner by one part in 1e12
    s0.coeff((3,))[..., 1, 0] *= 1.0 + 1e-12
    return s0


def unsymmetrized_leading_order(m, alpha):
    g = oracle.christoffel_table(m, alpha).v
    s0 = MatrixForm(1, {(p + 1,): g[..., p] for p in range(4)}, g.shape[:-3])
    return forms.evaluate3(forms.trace(forms.wedge(forms.wedge(s0, s0), s0)))


# -- forms

forms_wedge, forms_mul = MatrixForm.wedge, forms._Form.__mul__


def _transposed(f):
    return MatrixForm(f.degree, {i: np.swapaxes(f.coeff(i), -1, -2) for i in f.indices()},
                      f.batch_shape)


def wedge_right_by_left(self, other):
    return _transposed(forms_wedge(_transposed(self), _transposed(other)))


def trace_of_superdiagonal(self):
    return ScalarForm(self.degree, {i: np.trace(self.coeff(i), offset=1, axis1=-2, axis2=-1)
                                    for i in self.indices()}, self.batch_shape)


def sum_subtracts(self, other):
    # where both operands hold an index, the right one is subtracted
    out = dict(other._coeffs)
    for i, v in self._coeffs.items():
        out[i] = v - out[i] if i in out else v
    return type(self)(self.degree, out, self.batch_shape or other.batch_shape)


def unsigned_scalar(self, scalar):
    return forms_mul(self, abs(scalar))


def unsigned_merge(left, right):
    merged = merge_sign(left, right)
    return None if merged is None else (merged[0], 1)


# (row, mutation applied to a monkeypatch, checks that fail)
MUTANTS = [
    ("connection_trace scaled by 1 + 1e-9",
     wrap(chern_simons.connection_trace, lambda t: t * (1.0 + 1e-9)), ("density_traces_oracle",)),
    ("connection_trace's first cyclic triple written (1, 3, 2)",
     lambda mp: replace(mp, chern_simons.connection_trace, swapped_triple),
     ("density_traces_oracle",)),
    ("kappa's residue convention +4 pi",
     lambda mp: mp.setattr(chern_simons, "RESIDUE_CONVENTION", 4.0 * math.pi),
     ("density_traces_oracle", "density_reality")),
    ("kappa(s) without its 1/s",
     lambda mp: replace(mp, _constant_chain,
                        lambda s: _constant_chain(s) * s),
     ("s_linearity", "density_reality")),
    ("C_conn with a real part of 1e-11 relative",
     lambda mp: mp.setattr(chern_simons, "CONNECTION_TRACE_CONSTANT",
                           chern_simons.CONNECTION_TRACE_CONSTANT * (1.0 + 1e-11j)),
     ("density_reality",)),
    ("cs_density kappa + T_conn",
     lambda mp: replace(mp, cs_density, density_plus_one),
     ("density_traces_oracle",)),
    ("class value s * integral",
     wrap(_class_report, class_value_s_times_integral), ("s_linearity",)),
    ("reduce_mod_z by truncation",
     lambda mp: replace(mp, reduce_mod_z, truncating_mod_z), ("s_linearity",)),
    ("certificate period from the largest frequency",
     lambda mp: mp.setattr(geometry, "math", types.SimpleNamespace(gcd=lambda *k: max(k))),
     ("quadrature_stability",)),
    ("ladder over half the certified period",
     lambda mp: replace(mp, _ladder_start, ladder_over_half_period),
     ("s_linearity", "quadrature_stability")),
    ("first level capped at the report grid's N",
     lambda mp: replace(mp, _class_reports, first_level_capped_at_n),
     ("quadrature_stability",)),
    ("trapezoid weight h on the end points",
     lambda mp: replace(mp, integrate_circle, end_weights_one),
     ("quadrature_exactness", "s_linearity", "quadrature_stability")),
    ("ladder midpoints at (i + 1/4) h",
     lambda mp: replace(mp, integrate_circle, midpoints_at_a_quarter),
     ("quadrature_exactness",)),
    ("family nu = 2.1 - cos(a alpha)",
     lambda mp: mp.setattr(geometry, "_NU", Sub(Num(2.1), Cos(Mul(ParamA(), Alpha())))), ()),
    ("compiled line k alpha + c + 1e-3 alpha", drifting_lines,
     ("jet_finite_differences", "quadrature_stability")),
    ("trig pair's cos at x + 1e-3",
     lambda mp: replace(mp, expressions._sin_cos, shifted_cos_pair),
     ("jet_finite_differences",)),
    ("trig rule with sin and cos exchanged",
     lambda mp: replace(mp, _trig, exchanged_trig), ("density_traces_oracle",)),
    ("constant product leaves d2 unscaled",
     lambda mp: replace(mp, expressions._times, lambda c, j: Jet2(j.v * c, j.d1 * c, j.d2)),
     ("jet_finite_differences", "density_traces_oracle")),
    ("c - jet keeps the derivatives' sign",
     lambda mp: replace(mp, expressions._subtracted_from,
                        lambda c, j: Jet2(c - j.v, j.d1, j.d2)),
     ("density_traces_oracle",)),
    ("every row binds row 0's a",
     lambda mp: replace(mp, family_members, rows_of_row_zero), ("sweep_rows",)),
    ("the family's 1/a bound as 1/|a|",
     lambda mp: mp.setattr(expressions._OfA, "__rtruediv__", reciprocal_of_abs),
     ("sweep_rows",)),
    ("jet product with u'v' once in d2",
     lambda mp: replace(mp, Jet2.__mul__, product_d2_once), ("density_traces_oracle",)),
    ("jet quotient with q1 once in q2",
     lambda mp: replace(mp, Jet2.__truediv__, quotient_q1_once),
     ("jet_finite_differences", "density_traces_oracle")),
    ("jet power with k^2 for k(k - 1)",
     lambda mp: replace(mp, _pow, power_k_squared),
     ("jet_finite_differences", "density_traces_oracle")),
    ("symbolic derivative of cos without its sign",
     lambda mp: replace(mp, derivative, cos_derivative_unsigned),
     ("density_traces_oracle",)),
    ("log-rates scaled by 1 + 1e-9",
     wrap(oracle.log_rate_jets, lambda rates: tuple(r * (1.0 + 1e-9) for r in rates)),
     ("density_traces_oracle",)),
    ("structure constant c^2_13 with its sign flipped",
     wrap(oracle.structure_constants, flip_c213), ("christoffel_oracle",)),
    ("Koszul formula with its last two signs swapped",
     lambda mp: replace(mp, oracle.christoffel_koszul, koszul_signs_swapped),
     ("christoffel_oracle",)),
    ("Christoffel entry gamma^3_12 scaled by 1 + 1e-9",
     wrap(oracle.christoffel_table, scaled_gamma312),
     ("christoffel_oracle", "density_traces_oracle")),
    ("sigma_0 entry U asymmetric by 1e-12",
     wrap(oracle.sigma0_connection, asymmetric_sigma0),
     ("density_traces_oracle", "leading_order_vanishing")),
    ("sigma_-1 psi^1 coefficient scaled by 1 + 1e-9",
     wrap(oracle.sigma_minus1_connection_beta, scaled_psi1),
     ("sigma_minus1_routes", "density_traces_oracle")),
    ("sigma_-1 loop route entry (1, 2) off by 1e-9",
     wrap(oracle.sigma_minus1_connection_dot, lambda out: out + 1e-9 * np.eye(4, k=1)),
     ("sigma_minus1_routes",)),
    ("leading-order trace of the unsymmetrized table",
     lambda mp: replace(mp, oracle.leading_order_density, unsymmetrized_leading_order),
     ("leading_order_vanishing",)),
    ("merge_sign always +1",
     lambda mp: replace(mp, merge_sign, unsigned_merge),
     ("trace_cyclicity", "density_traces_oracle", "leading_order_vanishing")),
    ("wedge multiplies right by left",
     lambda mp: replace(mp, MatrixForm.wedge, wedge_right_by_left), ("density_traces_oracle",)),
    ("trace of the superdiagonal",
     lambda mp: replace(mp, MatrixForm.trace, trace_of_superdiagonal),
     ("trace_cyclicity", "density_traces_oracle")),
    ("evaluate3 reads psi^1 psi^2 psi^4",
     lambda mp: replace(mp, forms.evaluate3, lambda a: a.coeff((1, 2, 4))),
     ("density_traces_oracle",)),
    ("form sum subtracts on shared indices",
     lambda mp: replace(mp, forms._Form.__add__, sum_subtracts), ("trace_cyclicity",)),
    ("scalar times form drops the scalar's sign",
     lambda mp: replace(mp, forms._Form.__mul__, unsigned_scalar), ("trace_cyclicity",)),
]

# what a mutation that no check fails changes: it is live, and a hole
HOLES = {
    "family nu = 2.1 - cos(a alpha)": lambda: cs_class(builtin_family(2)).integral,
}


def _name(check):
    return check.__name__.removeprefix("check_")


CHECKS = {_name(check): check for check in verify.ALL_CHECKS}


def _fresh_caches():
    # a metric's rate program and the family's template are cached by
    # their trees: a program compiled under a mutation must not outlive
    # it, nor one compiled before it serve it
    oracle._rate_program.cache_clear()
    expressions.compile_template.cache_clear()


def run_row(apply, checks):
    """verify.run_check of each check under the mutation apply."""
    _fresh_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            apply(mp)
            return [verify.run_check(check) for check in checks]
    finally:
        _fresh_caches()


# an exception of the harness itself (a mutant called with arguments it
# does not take, a stand-in module without an attribute the program
# reads) fails a check without showing that the check sees the mutation
HARNESS_ERRORS = ("raised TypeError", "raised AttributeError")


def failing(apply, checks):
    """The names of the checks that fail under the mutation apply."""
    results = run_row(apply, checks)
    harness = [(r.name, r.detail) for r in results if r.detail.startswith(HARNESS_ERRORS)]
    assert not harness, harness
    return {_name(check) for check, r in zip(checks, results) if not r.passed}


# each check's witness: the first row that names it alone
WITNESSES = {fails[0]: name for name, _, fails in reversed(MUTANTS) if len(fails) == 1}


@pytest.mark.parametrize("apply, fails", [pytest.param(apply, fails, id=name)
                                           for name, apply, fails in MUTANTS
                                           if fails and name not in WITNESSES.values()])
def test_mutant_fails_its_checks(apply, fails):
    assert failing(apply, [CHECKS[name] for name in fails]) == set(fails)


@pytest.mark.parametrize("check, apply", [pytest.param(fails[0], apply, id=name)
                                           for name, apply, fails in MUTANTS
                                           if name in WITNESSES.values()])
def test_witness_fails_its_check_alone(check, apply):
    # the whole suite runs: every other check passes under the witness
    assert failing(apply, verify.ALL_CHECKS) == {check}


def test_every_check_is_the_only_check_some_row_fails():
    named = {name for _, _, fails in MUTANTS for name in fails}
    assert named <= set(CHECKS)
    assert set(WITNESSES) == set(CHECKS)


def test_holes_are_live():
    holes = [(name, apply) for name, apply, fails in MUTANTS if not fails]
    assert [name for name, _ in holes] == list(HOLES)
    for name, apply in holes:
        probe = HOLES[name]
        before = probe()
        with pytest.MonkeyPatch.context() as mp:
            apply(mp)
            after = probe()
        assert after != before, name


def _suite_at(rev: str):
    """The verify module of a git revision, loaded into the loopcs package."""
    source = subprocess.run(["git", "show", f"{rev}:src/loopcs/verify.py"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout
    module = types.ModuleType(f"loopcs.verify_at_{rev}")
    module.__package__ = "loopcs"
    sys.modules[module.__name__] = module
    exec(compile(source, f"{rev}:src/loopcs/verify.py", "exec"), module.__dict__)
    return module


def print_matrix(revs):
    suites = [(rev, _suite_at(rev).ALL_CHECKS) for rev in revs]
    suites.append(("this tree", verify.ALL_CHECKS))
    columns = [(label, check) for label, checks in suites for check in checks]
    for i, (label, check) in enumerate(columns):
        print(f"{i:>3}  {label}: {_name(check)}")
    print()
    print(" " * 58 + "".join(f"{i:>3}" for i in range(len(columns))))
    for name, apply, fails in MUTANTS:
        results = run_row(apply, [check for _, check in columns])
        cells = []
        for (label, check), r in zip(columns, results):
            mark = "X" if not r.passed else "."
            # the rows name checks of this tree only
            agrees = label != "this tree" or (not r.passed) == (_name(check) in fails)
            cells.append(f"{mark}{' ' if agrees else '!'}".rjust(3))
        print(f"{name[:57]:<58}" + "".join(cells))


if __name__ == "__main__":
    print_matrix(sys.argv[1:])
