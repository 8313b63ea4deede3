"""Hahn polynomials in d variables on the simplex i_1 + ... + i_d <= N.

The d-variable family is a chain of univariate Hahn factors: factor k sees
the partial sum of the first k grid coordinates, shifted by the partial sum
of the first k-1 degrees, at an effective level that again depends on both.
The values, the weight and the Gram sums come from the simplex layer
(hahnkit.simplex), which serves every d; this module adds the parameter
checks, single-point evaluators and the d-variable suite.

No closed form is offered for the normalization: Lambda is the weighted
sum of squares by definition.  Orthogonality is checked as literal identity
on the integer Gram sums (gram_entries): every off-diagonal sum is zero,
and every diagonal entry, a Lambda, is positive.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .numeric import Rat, format_rational
from .reports import CheckResult, VerificationReport
from .simplex import ChainTable, gram_entries, simplex_points, simplex_weight

MAX_DIMENSION = 6
MAX_LEVEL = 12
# The largest simplex verify_mv takes: the Gram sums cost about the cube of
# the point count, 49 s at 1001 points on the fractions backend.
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
    """Normalization sum_i w_i P_n(i)^2; positive by construction."""
    degs = _require_index(n, p, "degree tuple")
    table = ChainTable(p.alphas)
    _, _, acc, scale = next(gram_entries(simplex_weight(p.alphas, p.N), (table.row(degs, p.N),), (table.den(degs),)))
    return Rat(acc, scale)


def verify_mv(p: MultiParams) -> VerificationReport:
    """Exact Gram diagonality of the full family on the level-N simplex.

    Off the diagonal each Gram entry must be exactly 0; on it each entry must
    be positive, so the weights and values in use define a true norm.  Both
    are decided on the integer sums; a rational is made only for a report.
    A diagonal failure reports the entry against 0 with residual
    "nonpositive".  A simplex of more than MAX_GRAM_POINTS points is refused.
    """
    size = math.comb(p.N + p.d, p.d)
    if size > MAX_GRAM_POINTS:
        raise ValueError(f"the Gram check over {size} simplex points is refused; the cap is {MAX_GRAM_POINTS}")
    table = ChainTable(p.alphas)
    idx = table.points(p.N)
    rows, dens = [table.row(d, p.N) for d in idx], [table.den(d) for d in idx]
    check = CheckResult.exact_pass("orthogonality")
    for a, b, acc, scale in gram_entries(simplex_weight(p.alphas, p.N), rows, dens):
        if a != b or acc * scale <= 0:
            entry = format_rational(Rat(acc, scale))
            indices = {"degrees": [list(idx[a]), list(idx[b])]}
            check = CheckResult.failure("orthogonality", "nonpositive" if a == b else entry, indices, entry, "0")
            break
    return VerificationReport(suite="mv", params=p.echo(), checks=(check,))
