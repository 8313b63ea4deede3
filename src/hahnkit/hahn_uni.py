"""Univariate Hahn polynomials on the grid {0, ..., N}.

Evaluation, hypergeometric-distribution weight, norm, and mechanical checks
of orthogonality and the two generating functions, all in exact arithmetic.

Values, weight, norm and Gram sums are the d = 1 case of the simplex layer
(hahnkit.simplex): eval_total for one value, the d = 1 ChainTable's rows for
a whole grid, simplex_weight, the closed-form chain norm (chain_norm, which
hahn_norm makes one rational), the Gram check of every d (gram_pieces and
gram_mismatch) and, for dual-genfun, the generating function of every d
(genfun_mismatch).  Every check compares integers crosswise, after showing
its scale nonzero, and makes a rational only to report a failure; genfun
takes each t^n coefficient of its 1F1 product as one convolution sum of
the two series' integer coefficients, each over its own denominator.
verify_uni refuses a level above MAX_UNI_LEVEL.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .numeric import Rat, format_rational, nonzero, rising
from .reports import CheckResult, VerificationReport, _guarded
from .simplex import (
    ChainTable,
    chain_norm,
    cleared,
    eval_total,
    genfun_mismatch,
    gram_mismatch,
    gram_pieces,
    simplex_weight,
)

# The largest level whose three checks fit in criterion 03's 60 s budget on
# the fractions backend, timed in one fresh process per level (cost curve in
# CHANGES.md); verify_uni refuses a level above it.
MAX_UNI_LEVEL = 180


class _UniFields(NamedTuple):
    alpha: object
    beta: object
    N: int


class UniParams(_UniFields):
    """(alpha, beta, N), the parameters coerced to rationals and checked."""

    __slots__ = ()

    def __new__(cls, alpha, beta, N):
        self = super().__new__(cls, Rat(alpha), Rat(beta), N)
        if not isinstance(N, int) or N < 0:
            raise ValueError("N must be a nonnegative integer")
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError("parameters must exceed -1")
        return self

    def echo(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "N": self.N,
        }


def hahn_eval(n: int, x, p: UniParams):
    """h_n(x) for 0 <= n <= N; x may sit off the grid (polynomial extension).

    One call of the kernel: nothing is cached, so a sweep over the grid
    should read the rows of the d = 1 ChainTable instead.
    """
    if not 0 <= n <= p.N:
        raise ValueError(f"degree {n} outside 0..{p.N}")
    return eval_total(n, Rat(x), p.alpha, p.beta, p.N)


def hahn_weight(x: int, p: UniParams):
    """The hypergeometric-distribution weight C(N, x) (a+1)_x (b+1)_{N-x} / (a+b+2)_N:
    simplex_weight at d = 1."""
    if not 0 <= x <= p.N:
        raise ValueError(f"grid point {x} outside 0..{p.N}")
    nums, den = simplex_weight((p.alpha, p.beta), p.N)
    return Rat(nums[x], den)


def hahn_norm(n: int, p: UniParams):
    """Norm of h_n under the weight: simplex.chain_norm at d = 1 as one rational."""
    if not 0 <= n <= p.N:
        raise ValueError(f"degree {n} outside 0..{p.N}")
    return Rat(*chain_norm(cleared(p.alpha, p.beta), (n,), p.N))


def _check_orthogonality(p: UniParams) -> CheckResult:
    """The Gram sums of the d = 1 chain table under the cleared weight
    against the closed-form norms (simplex.gram_mismatch)."""
    bad = gram_mismatch(*gram_pieces((p.alpha, p.beta), p.N))
    return CheckResult.exact_pass("orthogonality") if bad is None else CheckResult.mismatch("orthogonality", *bad)


def _check_genfun(p: UniParams) -> CheckResult:
    """1F1(-x; a+1; -t) 1F1(x-N; b+1; t) against sum_n h_n t^n / ((a+1)_n (b+1)_n n!).

    With a = A/q, b = B/q, r_j = q^j (a+1)_j and s_j = q^j (b+1)_j, the t^j
    coefficients of the two 1F1 are C(x, j) q^j / r_j and
    (-1)^j C(N-x, j) q^j / s_j, integers over r_x and s_{N-x}.  The right
    side's t^n coefficient is t_{n,x} q^(2n) / (d_n r_n s_n n!).  Both are
    compared multiplied crosswise; rationals are made only to report a
    failure.
    """
    N = p.N
    q, (A, B) = cleared(p.alpha, p.beta)
    r = [rising(A + q, j, q) for j in range(N + 1)]
    s = [rising(B + q, j, q) for j in range(N + 1)]
    table = ChainTable((p.alpha, p.beta))
    rows = [table.row((n,), N) for n in range(N + 1)]
    scales = [
        nonzero(table.den((n,)) * r[n] * s[n] * math.factorial(n), "the scale d_n r_n s_n n!")
        for n in range(N + 1)
    ]
    for x in range(N + 1):
        left_one = tuple(math.comb(x, j) * q**j * (r[x] // r[j]) for j in range(x + 1))
        left_two = tuple(
            (-1) ** j * math.comb(N - x, j) * q**j * (s[N - x] // s[j]) for j in range(N - x + 1)
        )
        lhs_den = r[x] * s[N - x]
        for n, nums in enumerate(rows):
            left = sum(left_one[j] * left_two[n - j] for j in range(max(0, n + x - N), min(n, x) + 1))
            right = nums[x] * q ** (2 * n)
            if left * scales[n] != right * lhs_den:
                return CheckResult.mismatch("genfun", [x, n], Rat(left, lhs_den), Rat(right, scales[n]))
    return CheckResult.exact_pass("genfun")


def _check_dual_genfun(p: UniParams) -> CheckResult:
    """(-N)_n n! (1+t)^N P_n((1-t)/(1+t)) against sum_x C(N,x) h_n(x) t^x: the
    generating function at d = 1 (simplex.genfun_mismatch), reported at its
    first failing (n, x)."""
    bad = genfun_mismatch((p.alpha, p.beta), p.N)
    if bad is None:
        return CheckResult.exact_pass("dual-genfun")
    (n,), (x,), left, right = bad
    return CheckResult.mismatch("dual-genfun", [n, x], left, right)


_CHECKS = {
    "orthogonality": _check_orthogonality,
    "genfun": _check_genfun,
    "dual-genfun": _check_dual_genfun,
}

UNI_CHECK_NAMES = tuple(_CHECKS)


def verify_uni(check: str, p: UniParams) -> VerificationReport:
    if check not in _CHECKS:
        raise ValueError(f"unknown check: {check}")
    if p.N > MAX_UNI_LEVEL:
        raise ValueError(f"the uni checks at level {p.N} are refused; the cap is {MAX_UNI_LEVEL}")
    return VerificationReport(suite="uni", params=p.echo(), checks=(_guarded(check, _CHECKS[check], p),))
