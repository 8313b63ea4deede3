"""Exact Jacobi and Laguerre polynomials and their structure relations.

Polynomials are ascending tuples of rational coefficients, multiplied and
added by numeric's univariate helpers; the Laguerre addition formula
expands both sides as numeric's bivariate dicts keyed by exponent pairs.
Relations are checked as coefficient identities, never pointwise: both
sides are expanded exactly and compared coefficient by coefficient, and
they must agree everywhere.
"""
from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

from .numeric import (
    Rat,
    _poly2_mul,
    _poly2_sum,
    _poly_add,
    _poly_mul,
    _poly_trim,
    factorial,
    format_rational,
    pochhammer,
)
from .reports import CheckResult, VerificationReport
from .simplex import cleared

PolyCoeffs = tuple

_POLY_ZERO = (Rat(0),)


def poly_deriv(p: Sequence) -> PolyCoeffs:
    if len(p) <= 1:
        return _POLY_ZERO
    return _poly_trim(tuple(Rat(i) * p[i] for i in range(1, len(p))))


def poly_equal(p: Sequence, q: Sequence) -> bool:
    n = max(len(p), len(q))
    return all(
        (p[i] if i < len(p) else 0) == (q[i] if i < len(q) else 0) for i in range(n)
    )


def jacobi_cleared(n: int, alpha, beta) -> tuple:
    """The coefficients of the degree-n Jacobi polynomial in z as integers
    over one denominator, (den, coefficients), trailing zeros trimmed.

    Expanded from a form polynomial in both parameters, so the raising
    relations may shift alpha or beta down to -1 and below without hitting a
    division: sum_j (-n)_j (n+a+b+1)_j (a+j+1)_{n-j} / (n! j!) ((1-z)/2)^j.
    With a = A/q and b = B/q, term j times den = q^n 2^n n! is

        (-1)^j C(n, j) 2^(n-j) prefix_j suffix_j (1 - z)^j,

    with the prefix prod_{i<j} (q(n+1+i) + A + B) = q^j (n+a+b+1)_j and the
    suffix prod_{j<=i<n} (A + q(i+1)) = q^(n-j) (a+j+1)_{n-j}, built as
    simplex.hahn_coefficients builds its own; the powers of 1 - z are summed
    by Horner's rule.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    q, (A, B) = cleared(Rat(alpha), Rat(beta))
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * (A + q * (i + 1))
    terms, prefix = [], 1
    for j in range(n + 1):
        terms.append((-1) ** j * math.comb(n, j) * prefix * suffix[j] << (n - j))
        prefix *= q * (n + 1 + j) + A + B
    total = (0,)
    for term in reversed(terms):
        total = _poly_add(_poly_mul(total, (1, -1)), (term,))
    return q**n * 2**n * math.factorial(n), total


def jacobi_coeffs(n: int, alpha, beta) -> PolyCoeffs:
    """Coefficients of the degree-n Jacobi polynomial in z, as rationals:
    jacobi_cleared's integers over its denominator."""
    den, coeffs = jacobi_cleared(n, alpha, beta)
    return tuple(Rat(c, den) for c in coeffs)


def laguerre_coeffs(n: int, alpha) -> PolyCoeffs:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    alpha = Rat(alpha)
    return _poly_trim(
        tuple(
            Rat(-1) ** j * pochhammer(alpha + j + 1, n - j) / (factorial(n - j) * factorial(j))
            for j in range(n + 1)
        )
    )


def _jacobi_relation_sides(relation: str, n: int, alpha, beta):
    a, b = Rat(alpha), Rat(beta)
    p = jacobi_coeffs(n, a, b)
    dp = poly_deriv(p)
    ddp = poly_deriv(dp)
    if relation == "jacobi-lower-1":
        lhs = dp
        rhs = jacobi_coeffs(n - 1, a + 1, b + 1) if n >= 1 else _POLY_ZERO
        rhs = tuple((n + a + b + 1) / 2 * c for c in rhs)
    elif relation == "jacobi-lower-2":
        lhs = _poly_add(_poly_mul((Rat(-1), Rat(1)), ddp), tuple((a + 1) * c for c in dp))
        rhs = jacobi_coeffs(n - 1, a, b + 2) if n >= 1 else _POLY_ZERO
        rhs = tuple((n + a) * (n + a + b + 1) / 2 * c for c in rhs)
    elif relation == "jacobi-raise-1":
        lhs = _poly_add(
            _poly_mul((Rat(1), Rat(0), Rat(-1)), dp),
            _poly_mul((b - a, -(a + b)), p),
        )
        rhs = tuple(Rat(-2) * (n + 1) * c for c in jacobi_coeffs(n + 1, a - 1, b - 1))
    elif relation == "jacobi-raise-2":
        lhs = _poly_add(
            _poly_add(
                _poly_mul(_poly_mul((Rat(1), Rat(1)), (Rat(-1), Rat(0), Rat(1))), ddp),
                _poly_mul(_poly_mul((Rat(1), Rat(1)), (1 + a - 2 * b, 1 + a + 2 * b)), dp),
            ),
            _poly_mul((b * (2 + a - b), b * (a + b)), p),
        )
        rhs = tuple(Rat(2) * (n + 1) * (n + b) * c for c in jacobi_coeffs(n + 1, a, b - 2))
    else:
        raise ValueError(f"unknown relation: {relation}")
    return _poly_trim(lhs), _poly_trim(rhs)


def _laguerre_relation_sides(relation: str, n: int, alpha):
    a = Rat(alpha)
    p = laguerre_coeffs(n, a)
    dp = poly_deriv(p)
    if relation == "laguerre-lower":
        lhs = dp
        rhs = laguerre_coeffs(n - 1, a + 1) if n >= 1 else _POLY_ZERO
        rhs = tuple(-c for c in rhs)
    elif relation == "laguerre-raise":
        lhs = _poly_add(_poly_mul((Rat(0), Rat(1)), dp), _poly_mul((a, Rat(-1)), p))
        rhs = tuple(Rat(n + 1) * c for c in laguerre_coeffs(n + 1, a - 1))
    else:
        raise ValueError(f"unknown relation: {relation}")
    return _poly_trim(lhs), _poly_trim(rhs)


_RELATIONS = (
    "jacobi-lower-1",
    "jacobi-lower-2",
    "jacobi-raise-1",
    "jacobi-raise-2",
    "laguerre-lower",
    "laguerre-raise",
    "laguerre-addition",
)

RELATION_NAMES = _RELATIONS


def verify_classical(relation: str, n: int, alpha, beta=0) -> VerificationReport:
    """Check one structure relation as an exact coefficient identity.

    laguerre-addition expands L_n^(a+b+1)(x+y) against the convolution
    sum_{l+k=n} L_l^(a)(x) L_k^(b)(y) as bivariate polynomials.
    """
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation: {relation}")
    params = {
        "relation": relation,
        "n": n,
        "alpha": format_rational(alpha),
        "beta": format_rational(beta),
    }

    if relation == "laguerre-addition":
        a, b = Rat(alpha), Rat(beta)
        # L_n^(a+b+1)(x + y) = sum_j c_j (x + y)^j
        coeffs = laguerre_coeffs(n, a + b + 1)
        powers = accumulate([{(1, 0): 1, (0, 1): 1}] * (len(coeffs) - 1), _poly2_mul, initial={(0, 0): 1})
        lhs = _poly2_sum(coeffs, powers)
        rhs = _poly2_sum(
            [1] * (n + 1),
            [
                _poly2_mul(
                    {(i, 0): c for i, c in enumerate(laguerre_coeffs(ell, a))},
                    {(0, k): c for k, c in enumerate(laguerre_coeffs(n - ell, b))},
                )
                for ell in range(n + 1)
            ],
        )
        bad = next((g for g in sorted(lhs.keys() | rhs.keys()) if lhs.get(g, 0) != rhs.get(g, 0)), None)
        if bad is None:
            check = CheckResult.exact_pass(relation)
        else:
            left, right = lhs.get(bad, 0), rhs.get(bad, 0)
            check = CheckResult.failure(
                relation,
                residual=f"{abs(float(left - right)):.17g}",
                indices=list(bad),
                lhs=format_rational(left),
                rhs=format_rational(right),
            )
        return VerificationReport(suite="classical", params=params, checks=(check,))

    if relation.startswith("jacobi"):
        lhs, rhs = _jacobi_relation_sides(relation, n, alpha, beta)
    else:
        lhs, rhs = _laguerre_relation_sides(relation, n, alpha)

    if poly_equal(lhs, rhs):
        check = CheckResult.exact_pass(relation)
    else:
        top = max(len(lhs), len(rhs))
        get = lambda p, i: p[i] if i < len(p) else Rat(0)
        bad = next(i for i in range(top) if get(lhs, i) != get(rhs, i))
        check = CheckResult.failure(
            relation,
            residual=f"{abs(float(get(lhs, bad) - get(rhs, bad))):.17g}",
            indices=[bad],
            lhs=format_rational(get(lhs, bad)),
            rhs=format_rational(get(rhs, bad)),
        )
    return VerificationReport(suite="classical", params=params, checks=(check,))
