"""Hahn polynomials in d variables on the simplex i_1 + ... + i_d <= N.

The d-variable family is a chain of univariate Hahn factors: factor k sees
the partial sum of the first k grid coordinates, shifted by the partial sum
of the first k-1 degrees, at an effective level that again depends on both.
The values, the weight, the norm, the Gram sums and the generating function
come from the simplex layer (hahnkit.simplex), which serves every d; this
module adds the parameter checks, single-point evaluators and the
d-variable suite.

The suite runs two exact checks, in MV_CHECK_NAMES order, refused above
MAX_GRAM_POINTS.  orthogonality: every off-diagonal integer Gram sum is
zero and every diagonal one the closed-form norm (simplex.chain_norm), by
the Gram check of every d (simplex.gram_mismatch).  genfun: the generating
function of simplex.genfun_mismatch, one Jacobi factor per variable, whose
d = 1 and d = 2 cases are hahn_uni's dual-genfun and hahn_bi's genfun; a
failure names the degree tuple and grid point.  mv_lambda stays the
weighted sum of squares, the independent route the closed form is tested
against.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .numeric import Rat, format_rational
from .reports import CheckResult, VerificationReport, _guarded
from .simplex import (
    ChainTable,
    genfun_mismatch,
    gram_entries,
    gram_mismatch,
    gram_pieces,
    simplex_points,
    simplex_weight,
)

MAX_DIMENSION = 6
MAX_LEVEL = 12
# The largest simplex the d-variable checks take: the Gram sums cost about
# the cube of the point count.  The whole suite on the fractions backend took
# 5.3 s at 495 points (d = 4, N = 8), 21 s at 924 (d = 6, N = 6) and 40 s at
# 1001 (d = 4, N = 10); the cube puts criterion 03's 60 s near 1150 points,
# so the cap stays at the d = 4, N = 10 simplex.
MAX_GRAM_POINTS = 1001


class _MultiFields(NamedTuple):
    alphas: tuple
    N: int


class MultiParams(_MultiFields):
    """(alphas, N), the d + 1 parameters coerced to rationals and checked."""

    __slots__ = ()

    def __new__(cls, alphas, N):
        alphas = tuple(Rat(a) for a in alphas)
        self = super().__new__(cls, alphas, N)
        if len(alphas) < 2:
            raise ValueError("need at least two parameters (d >= 1)")
        if self.d > MAX_DIMENSION:
            raise ValueError(f"dimension capped at {MAX_DIMENSION} for exact sweeps")
        if not isinstance(N, int) or N < 0:
            raise ValueError("N must be a nonnegative integer")
        if N > MAX_LEVEL:
            raise ValueError(f"level capped at {MAX_LEVEL} for exact sweeps")
        if min(alphas) <= -1:
            raise ValueError("parameters must exceed -1")
        return self

    @property
    def d(self) -> int:
        return len(self.alphas) - 1

    def echo(self) -> dict:
        return {
            "alphas": [format_rational(a) for a in self.alphas],
            "N": self.N,
            "d": self.d,
        }


def _require_index(entries, p: MultiParams, what: str) -> tuple[int, ...]:
    entries = tuple(entries)
    ok = len(entries) == p.d and all(isinstance(e, int) and e >= 0 for e in entries)
    if not ok or sum(entries) > p.N:
        raise ValueError(f"{what} {entries!r} off the simplex of level {p.N}, d={p.d}")
    return entries


def mv_weight(i, p: MultiParams):
    """Multivariate hypergeometric weight at one grid point: simplex_weight."""
    pts = _require_index(i, p, "grid point")
    nums, den = simplex_weight(p.alphas, p.N)
    return Rat(nums[tuple(simplex_points(p.N, p.d)).index(pts)], den)


def mv_p_eval(n, i, p: MultiParams):
    """Chain product of d univariate Hahn factors, exact rational value."""
    degs = _require_index(n, p, "degree tuple")
    pts = _require_index(i, p, "grid point")
    table = ChainTable(p.alphas)
    return Rat(table.num(degs, pts, p.N), table.den(degs))


def mv_lambda(n, p: MultiParams):
    """Normalization sum_i w_i P_n(i)^2 as the Gram sum itself, not the
    closed form (simplex.chain_norm) that the orthogonality check reads."""
    degs = _require_index(n, p, "degree tuple")
    table = ChainTable(p.alphas)
    _, _, acc, scale = next(gram_entries(simplex_weight(p.alphas, p.N), (table.row(degs, p.N),), (table.den(degs),)))
    return Rat(acc, scale)


def _check_orthogonality(p: MultiParams) -> CheckResult:
    """Every Gram sum against the closed-form norm (simplex.gram_mismatch):
    a failure names its two degree tuples."""
    bad = gram_mismatch(*gram_pieces(p.alphas, p.N))
    if bad is None:
        return CheckResult.exact_pass("orthogonality")
    (a, b), lhs, rhs = bad
    degs = tuple(simplex_points(p.N, p.d))
    return CheckResult.mismatch("orthogonality", {"degrees": [list(degs[a]), list(degs[b])]}, lhs, rhs)


def _check_genfun(p: MultiParams) -> CheckResult:
    """The generating function (simplex.genfun_mismatch), reported at its
    first failing degree tuple and grid point."""
    bad = genfun_mismatch(p.alphas, p.N)
    if bad is None:
        return CheckResult.exact_pass("genfun")
    degs, pts, left, right = bad
    return CheckResult.mismatch("genfun", {"degree": list(degs), "point": list(pts)}, left, right)


_CHECKS = {"orthogonality": _check_orthogonality, "genfun": _check_genfun}

MV_CHECK_NAMES = tuple(_CHECKS)


def verify_mv_check(check: str, p: MultiParams) -> VerificationReport:
    """One check of the d-variable suite, refused above MAX_GRAM_POINTS."""
    if check not in _CHECKS:
        raise ValueError(f"unknown check: {check}")
    size = math.comb(p.N + p.d, p.d)
    if size > MAX_GRAM_POINTS:
        raise ValueError(f"the {check} check over {size} simplex points is refused; the cap is {MAX_GRAM_POINTS}")
    return VerificationReport(suite="mv", params=p.echo(), checks=(_guarded(check, _CHECKS[check], p),))


def verify_mv(p: MultiParams) -> VerificationReport:
    """Every check of the d-variable suite, in MV_CHECK_NAMES order."""
    checks = tuple(c for name in MV_CHECK_NAMES for c in verify_mv_check(name, p).checks)
    return VerificationReport(suite="mv", params=p.echo(), checks=checks)
