"""Exact and floating-point Hahn polynomials in one, two, and d variables.

The package keeps two parallel planes: an exact one built on rationals and
radical scalars, where identities are checked to literal zero residual, and a
floating-point one for the orthonormal overlap matrices, checked to tight
tolerances.
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
