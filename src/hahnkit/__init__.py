"""Exact Hahn polynomials in one, two, and d variables.

Every identity the package checks is decided exactly, on integers, rationals
and radical scalars, to a literal zero residual.  Floating point is output
only: the float overlap matrices and chain factors are rounded from exact
values, and no check's verdict reads them.
"""
from .numeric import (
    Rat,
    Rational,
    RationalMatrix,
    RadicalScalar,
    binomial_general,
    factorial,
    format_rational,
    multinomial,
    parse_rational,
    pfq_terminating,
    pochhammer,
)

__all__ = [
    "Rat",
    "Rational",
    "RationalMatrix",
    "RadicalScalar",
    "binomial_general",
    "factorial",
    "format_rational",
    "multinomial",
    "parse_rational",
    "pfq_terminating",
    "pochhammer",
]

__version__ = "0.1.0"
