"""Wodzicki-Chern-Simons classes on the loop space of S^3 x S^1.

A numerical laboratory for the first secondary characteristic class of the
Sobolev H^s Levi-Civita connection on the frame bundle of L(S^3 x S^1),
built from the Wodzicki residue of its pseudodifferential symbols.  The
pipeline: exact-derivative scalar calculus on the circle -> frame geometry
of Berger-type metrics -> connection symbols -> matrix-valued exterior
algebra -> circle integral, (s/4)-normalized class value, mod-Z reduction
and a nontriviality verdict.
"""
from .jets import Jet1, Jet2
from .expressions import (Expr, EvalDomainError, ParseError, derivative,
                          evaluate, parse_expression)
from .quadrature import (QuadratureConvergenceError, QuadratureSpec,
                         integrate_circle)
from .geometry import (BergerMetric, ChristoffelCoefficients, ChristoffelTable,
                       CoefficientSet, StructureConstants, builtin_family,
                       christoffel_coefficients, christoffel_koszul,
                       christoffel_table, coefficient_set, round_metric,
                       structure_constants)
from .forms import MatrixForm, ScalarForm, evaluate3, trace, wedge
from .symbols import (sigma0_connection, sigma0_from_christoffel,
                      sigma_minus1_connection_beta, sigma_minus1_connection_dot)
from .chern_simons import (CSConfig, CSReport, RESIDUE_CONVENTION,
                           ResidueConventionError, connection_trace, cs_class,
                           cs_density, leading_order_density, sweep)

__version__ = "0.1.0"

__all__ = [
    "Jet1", "Jet2",
    "Expr", "EvalDomainError", "ParseError", "derivative", "evaluate",
    "parse_expression",
    "QuadratureConvergenceError", "QuadratureSpec", "integrate_circle",
    "BergerMetric", "ChristoffelCoefficients", "ChristoffelTable",
    "CoefficientSet", "StructureConstants", "builtin_family",
    "christoffel_coefficients", "christoffel_koszul", "christoffel_table",
    "coefficient_set", "round_metric", "structure_constants",
    "MatrixForm", "ScalarForm", "evaluate3", "trace", "wedge",
    "sigma0_connection", "sigma0_from_christoffel",
    "sigma_minus1_connection_beta", "sigma_minus1_connection_dot",
    "CSConfig", "CSReport", "RESIDUE_CONVENTION", "ResidueConventionError",
    "connection_trace", "cs_class", "cs_density", "leading_order_density",
    "sweep",
]
