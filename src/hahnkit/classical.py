"""Exact Jacobi and Laguerre polynomials and their structure relations.

Polynomials are ascending tuples of rational coefficients, multiplied and
added by numeric's univariate helpers; the Laguerre addition formula
expands both sides as the simplex layer's sparse dicts (sparse_mul,
sparse_sum), x^i y^k keyed by one int, with integer coefficients over one
common denominator.  Relations are
checked as coefficient identities, never pointwise: both sides are
expanded exactly and compared coefficient by coefficient, and they must
agree everywhere.
"""
from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

from .numeric import (
    Rat,
    _poly_add,
    _poly_mul,
    _poly_trim,
    factorial,
    format_rational,
    pochhammer,
)
from .reports import CheckResult, VerificationReport
from .simplex import cleared, jacobi_cleared, sparse_mul, sparse_sum

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
        # L_n^(a+b+1)(x + y) = sum_j c_j (x + y)^j against the convolution;
        # each coefficient list is cleared to integers over its denominator
        # (simplex.cleared), and both sides are compared times one scale.
        # x^i y^k is keyed i + (n+1) k: no exponent passes n.
        base = n + 1
        den, coeffs = cleared(*laguerre_coeffs(n, a + b + 1))
        products = []
        for ell in range(n + 1):
            d1, first = cleared(*laguerre_coeffs(ell, a))
            d2, second = cleared(*laguerre_coeffs(n - ell, b))
            products.append((d1 * d2, sparse_mul(dict(enumerate(first)), {base * k: c for k, c in enumerate(second)})))
        scale = math.lcm(den, *(d for d, _ in products))
        powers = accumulate([{1: 1, base: 1}] * (len(coeffs) - 1), sparse_mul, initial={0: 1})
        lhs = sparse_sum([c * (scale // den) for c in coeffs], powers)
        rhs = sparse_sum([scale // d for d, _ in products], [poly for _, poly in products])
        wrong = (key for key in lhs.keys() | rhs.keys() if lhs.get(key, 0) != rhs.get(key, 0))
        bad = min(wrong, key=lambda key: (key % base, key // base), default=None)
        check = None if bad is None else CheckResult.mismatch(
            relation, [bad % base, bad // base], Rat(lhs.get(bad, 0), scale), Rat(rhs.get(bad, 0), scale)
        )
    else:
        if relation.startswith("jacobi"):
            lhs, rhs = _jacobi_relation_sides(relation, n, alpha, beta)
        else:
            lhs, rhs = _laguerre_relation_sides(relation, n, alpha)
        get = lambda p, i: p[i] if i < len(p) else Rat(0)
        differ = (i for i in range(max(len(lhs), len(rhs))) if get(lhs, i) != get(rhs, i))
        bad = None if poly_equal(lhs, rhs) else next(differ)
        check = None if bad is None else CheckResult.mismatch(relation, [bad], get(lhs, bad), get(rhs, bad))
    return VerificationReport(suite="classical", params=params, checks=(check or CheckResult.exact_pass(relation),))
