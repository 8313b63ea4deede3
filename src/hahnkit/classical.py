"""Exact Jacobi and Laguerre polynomials and their structure relations.

Polynomials are the simplex layer's sparse dicts, {power: coefficient}
with rational coefficients, multiplied and summed by sparse_mul and
sparse_sum; the Laguerre addition formula keys x^i y^k by one int and
keeps integer coefficients over one common denominator.  Relations are
checked as coefficient identities, never pointwise: both sides are
expanded exactly and compared coefficient by coefficient, and they must
agree everywhere; a failure names the first differing key.
"""
from __future__ import annotations

import math
from itertools import accumulate

from .numeric import Rat, factorial, format_rational, pochhammer
from .reports import CheckResult, VerificationReport
from .simplex import cleared, jacobi_cleared, sparse_mul, sparse_sum

# The largest degree whose seven relations fit in 60 s on the fractions
# backend with a peak of at most 2 GB, timed in one fresh process per
# degree (cost curve in the README, laguerre-addition nearly all of it);
# verify_classical refuses a larger degree.
MAX_CLASSICAL_DEGREE = 380


def poly_deriv(p: dict) -> dict:
    return {i - 1: i * c for i, c in p.items() if i}


def jacobi_coeffs(n: int, alpha, beta) -> dict:
    """Coefficients of the degree-n Jacobi polynomial in z, as rationals:
    jacobi_cleared's integers over its denominator."""
    den, coeffs = jacobi_cleared(n, alpha, beta)
    return {i: Rat(c, den) for i, c in coeffs.items()}


def laguerre_coeffs(n: int, alpha) -> dict:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    alpha = Rat(alpha)
    terms = ((j, pochhammer(alpha + j + 1, n - j) / (factorial(n - j) * factorial(j))) for j in range(n + 1))
    return {j: (-1) ** j * c for j, c in terms if c}


def _jacobi_relation_sides(relation: str, n: int, alpha, beta):
    a, b = Rat(alpha), Rat(beta)
    p = jacobi_coeffs(n, a, b)
    dp = poly_deriv(p)
    ddp = poly_deriv(dp)
    if relation == "jacobi-lower-1":
        lhs = dp
        rhs = sparse_sum([(n + a + b + 1) / 2], [jacobi_coeffs(n - 1, a + 1, b + 1)]) if n >= 1 else {}
    elif relation == "jacobi-lower-2":
        lhs = sparse_sum([1, a + 1], [sparse_mul({0: -1, 1: 1}, ddp), dp])
        rhs = sparse_sum([(n + a) * (n + a + b + 1) / 2], [jacobi_coeffs(n - 1, a, b + 2)]) if n >= 1 else {}
    elif relation == "jacobi-raise-1":
        lhs = sparse_sum([1, 1], [sparse_mul({0: 1, 2: -1}, dp), sparse_mul({0: b - a, 1: -(a + b)}, p)])
        rhs = sparse_sum([-2 * (n + 1)], [jacobi_coeffs(n + 1, a - 1, b - 1)])
    elif relation == "jacobi-raise-2":
        lhs = sparse_sum([1, 1, 1], [
            sparse_mul(sparse_mul({0: 1, 1: 1}, {0: -1, 2: 1}), ddp),
            sparse_mul(sparse_mul({0: 1, 1: 1}, {0: 1 + a - 2 * b, 1: 1 + a + 2 * b}), dp),
            sparse_mul({0: b * (2 + a - b), 1: b * (a + b)}, p),
        ])
        rhs = sparse_sum([2 * (n + 1) * (n + b)], [jacobi_coeffs(n + 1, a, b - 2)])
    else:
        raise ValueError(f"unknown relation: {relation}")
    return lhs, rhs


def _laguerre_relation_sides(relation: str, n: int, alpha):
    a = Rat(alpha)
    p = laguerre_coeffs(n, a)
    dp = poly_deriv(p)
    if relation == "laguerre-lower":
        lhs = dp
        rhs = sparse_sum([-1], [laguerre_coeffs(n - 1, a + 1)]) if n >= 1 else {}
    elif relation == "laguerre-raise":
        lhs = sparse_sum([1, 1], [sparse_mul({1: 1}, dp), sparse_mul({0: a, 1: -1}, p)])
        rhs = sparse_sum([n + 1], [laguerre_coeffs(n + 1, a - 1)])
    else:
        raise ValueError(f"unknown relation: {relation}")
    return lhs, rhs


def _laguerre_cleared(n: int, alpha) -> tuple:
    """laguerre_coeffs as (den, {power: int}) over one denominator."""
    coeffs = laguerre_coeffs(n, alpha)
    den, nums = cleared(*coeffs.values())
    return den, dict(zip(coeffs, nums))


def _laguerre_addition_sides(n: int, a, b):
    """L_n^(a+b+1)(x + y) = sum_j c_j (x + y)^j against the convolution
    sum_{l+k=n} L_l^(a)(x) L_k^(b)(y), each side on ints over one scale,
    the lcm of the n + 2 denominators (simplex.cleared).  x^i y^k is keyed
    i + (n+1) k: no exponent passes n.  Each product of the convolution is
    folded into the right side as it is made, so one is alive at a time.
    Returns (lhs, rhs, scale, base)."""
    base = n + 1
    den, coeffs = _laguerre_cleared(n, a + b + 1)
    pairs = [(_laguerre_cleared(ell, a), _laguerre_cleared(n - ell, b)) for ell in range(base)]
    scale = math.lcm(den, *(d1 * d2 for (d1, _), (d2, _) in pairs))
    powers = accumulate([{1: 1, base: 1}] * n, sparse_mul, initial={0: 1})
    lhs = sparse_sum([coeffs.get(j, 0) * (scale // den) for j in range(base)], powers)
    rhs = sparse_sum(
        [scale // (d1 * d2) for (d1, _), (d2, _) in pairs],
        (sparse_mul(first, {base * k: c for k, c in second.items()}) for (_, first), (_, second) in pairs),
    )
    return lhs, rhs, scale, base


def _first_difference(lhs: dict, rhs: dict, order):
    """The first key, by order, at which two sparse polynomials differ (a
    missing key reads 0), or None."""
    wrong = (key for key in lhs.keys() | rhs.keys() if lhs.get(key, 0) != rhs.get(key, 0))
    return min(wrong, key=order, default=None)


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
    sum_{l+k=n} L_l^(a)(x) L_k^(b)(y) as bivariate polynomials.  A failure
    names the lowest differing power, (x, y) powers x-major for
    laguerre-addition.
    """
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation: {relation}")
    if n > MAX_CLASSICAL_DEGREE:
        raise ValueError(f"the classical relations at degree {n} are refused; the cap is {MAX_CLASSICAL_DEGREE}")
    params = {
        "relation": relation,
        "n": n,
        "alpha": format_rational(alpha),
        "beta": format_rational(beta),
    }
    scale, split = 1, lambda key: (key,)
    if relation == "laguerre-addition":
        lhs, rhs, scale, base = _laguerre_addition_sides(n, Rat(alpha), Rat(beta))
        split = lambda key: (key % base, key // base)
    elif relation.startswith("jacobi"):
        lhs, rhs = _jacobi_relation_sides(relation, n, alpha, beta)
    else:
        lhs, rhs = _laguerre_relation_sides(relation, n, alpha)
    bad = _first_difference(lhs, rhs, split)
    check = None if bad is None else CheckResult.mismatch(
        relation, list(split(bad)), Rat(lhs.get(bad, 0)) / scale, Rat(rhs.get(bad, 0)) / scale
    )
    return VerificationReport(suite="classical", params=params, checks=(check or CheckResult.exact_pass(relation),))
