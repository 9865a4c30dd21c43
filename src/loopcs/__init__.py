"""Wodzicki-Chern-Simons classes on the loop space of S^3 x S^1.

A numerical laboratory for the first secondary characteristic class of the
Sobolev H^s Levi-Civita connection on the frame bundle of L(S^3 x S^1),
built from the Wodzicki residue of its pseudodifferential symbols.  The
pipeline: exact-derivative scalar calculus on the circle -> Berger-type
metrics and their scale jets -> the connection-trace density -> circle
integral, (s/4)-normalized class value, mod-Z reduction and a
nontriviality verdict.  This package exports that class path; the
reference routes it is checked against (dense Christoffel tables,
connection symbols, matrix-valued exterior algebra) live in
loopcs.oracle and loopcs.forms, and the invariant suite in loopcs.verify.
"""
from .jets import Jet2
from .expressions import (Expr, EvalDomainError, ParseError, derivative,
                          evaluate, parse_expression)
from .quadrature import (QuadratureConvergenceError, QuadratureSpec,
                         integrate_circle)
from .geometry import BergerMetric, builtin_family, round_metric
from .chern_simons import (CSConfig, CSReport, RESIDUE_CONVENTION,
                           ResidueConventionError, connection_trace, cs_class,
                           cs_density, sweep)

__version__ = "0.1.0"

__all__ = [
    "Jet2",
    "Expr", "EvalDomainError", "ParseError", "derivative", "evaluate",
    "parse_expression",
    "QuadratureConvergenceError", "QuadratureSpec", "integrate_circle",
    "BergerMetric", "builtin_family", "round_metric",
    "CSConfig", "CSReport", "RESIDUE_CONVENTION", "ResidueConventionError",
    "connection_trace", "cs_class", "cs_density", "sweep",
]
