"""Hahn polynomials in d variables on the simplex i_1 + ... + i_d <= N.

The d-variable family is a chain of univariate Hahn factors: factor k sees
the partial sum of the first k grid coordinates, shifted by the partial sum
of the first k-1 degrees, at an effective level that again depends on both.
One integer table (ChainTable) evaluates the chain for every d; the
bivariate module's P values are its d = 2 rows over (-level)_{m+n}.

No closed form is offered for the normalization: Lambda is the weighted
sum of squares by definition.  Orthogonality is checked as literal rational
identity on integer Gram sums (gram_entries, shared with the bivariate
check): every off-diagonal entry is zero, and every diagonal entry, a
Lambda, is positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .hahn_uni import _cleared, _coefficients, _denominator, _point_sum
from .numeric import Rat, binomial_general, format_rational
from .reports import CheckResult, VerificationReport

MAX_DIMENSION = 6
MAX_LEVEL = 12
# The largest simplex verify_mv takes: the Gram sums cost about the cube of
# the point count, 49 s at 1001 points on the fractions backend.
MAX_GRAM_POINTS = 1001


@dataclass(frozen=True)
class MultiParams:
    alphas: tuple
    N: int

    def __post_init__(self):
        alphas = tuple(Rat(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 2:
            raise ValueError("need at least two parameters (d >= 1)")
        if self.d > MAX_DIMENSION:
            raise ValueError(f"dimension capped at {MAX_DIMENSION} for exact sweeps")
        if not isinstance(self.N, int) or self.N < 0:
            raise ValueError("N must be a nonnegative integer")
        if self.N > MAX_LEVEL:
            raise ValueError(f"level capped at {MAX_LEVEL} for exact sweeps")
        if min(alphas) <= -1:
            raise ValueError("parameters must exceed -1")
        # partial[k] = alpha_1 + ... + alpha_k, partial[0] = 0
        object.__setattr__(self, "apartial", tuple(accumulate(alphas, initial=Rat(0))))

    @property
    def d(self) -> int:
        return len(self.alphas) - 1

    @property
    def asum(self):
        return self.apartial[-1]

    def echo(self) -> dict:
        return {
            "alphas": [format_rational(a) for a in self.alphas],
            "N": self.N,
            "d": self.d,
        }


def simplex_points(N: int, d: int):
    """Tuples of d nonnegative integers summing to at most N.

    Last coordinate major, consistent with grid_points/degree_pairs at d=2.
    Serves for grid points and degree tuples alike; the implicit final
    component N - sum is never stored.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if d == 1:
        for i in range(N + 1):
            yield (i,)
        return
    for last in range(N + 1):
        for head in simplex_points(N - last, d - 1):
            yield head + (last,)


class ChainTable:
    """Chain values at one parameter tuple, as integers, filled as they are read.

    Factor k (from 1) is h_{n_k}(|i_<=k| - |n_<k|) with parameters
    (2|n_<k| + alpha_1 + ... + alpha_k + k - 1, alpha_{k+1}) and level
    |i_<=k+1| - |n_<k|, where |i_<=d+1| is the level the value is read at;
    arguments and levels can leave the classical range.  The tuple is
    cleared to one denominator Q, and factor k built with the univariate
    kernel: a coefficient list once per (k, n_k, |n_<k|, level_k), one
    integer per point of that list and |i_<=k|, shared by every degree tuple
    with the same prefix.  num(degs, pts, level) / den(degs) is the value.
    """

    def __init__(self, alphas):
        self.d = len(alphas) - 1
        self.Q, cleared = _cleared(*alphas)
        self._partial = list(accumulate(cleared, initial=0))
        self._beta = cleared[1:]
        self._coeffs, self._factors, self._points, self._rows = {}, {}, {}, {}

    def points(self, level: int) -> tuple:
        if level not in self._points:
            self._points[level] = tuple(simplex_points(level, self.d))
        return self._points[level]

    def den(self, degs) -> int:
        return math.prod(_denominator(n, self.Q) for n in degs)

    def num(self, degs, pts, level: int) -> int:
        Q, factors, last = self.Q, self._factors, self.d - 1
        out, isum, nsum = 1, 0, 0
        for k, n in enumerate(degs):
            isum += pts[k]
            top = level if k == last else isum + pts[k + 1]
            key = (k, n, nsum, top, isum)
            value = factors.get(key)
            if value is None:
                coeffs = self._coeffs.get(key[:4])
                if coeffs is None:
                    alpha = Q * (2 * nsum + k) + self._partial[k + 1]
                    coeffs = self._coeffs[key[:4]] = _coefficients(n, Q, alpha, self._beta[k], Q * (top - nsum))
                value = factors[key] = _point_sum(coeffs, Q, Q * (isum - nsum))
            out *= value
            nsum += n
        return out

    def row(self, degs, level: int) -> tuple:
        """The numerators of degree tuple degs over simplex_points(level, d)."""
        if (degs, level) not in self._rows:
            self._rows[(degs, level)] = tuple(self.num(degs, pts, level) for pts in self.points(level))
        return self._rows[(degs, level)]


def gram_entries(weights, rows, dens):
    """Gram entries of values rows[a][g] / dens[a] under weights w_g, a <= b.

    With w_g = omega_g / W, entry (a, b) sums omega_g rows[a][g] rows[b][g]
    over ints and becomes one rational by one division by W dens[a] dens[b].
    Yields (a, b, entry) for every diagonal and every nonzero off-diagonal
    entry, a major and b minor.
    """
    W, omega = _cleared(*weights)
    for a, row in enumerate(rows):
        weighted = [o * r for o, r in zip(omega, row)]
        for b in range(a, len(rows)):
            acc = sum(map(mul, weighted, rows[b]))
            if a == b or acc:
                yield a, b, Rat(acc, W * dens[a] * dens[b])


def _require_index(entries, p: MultiParams, what: str) -> tuple[int, ...]:
    entries = tuple(entries)
    ok = len(entries) == p.d and all(isinstance(e, int) and e >= 0 for e in entries)
    if not ok or sum(entries) > p.N:
        raise ValueError(f"{what} {entries!r} off the simplex of level {p.N}, d={p.d}")
    return entries


def mv_weight(i, p: MultiParams):
    """Multivariate hypergeometric weight, product of generalized binomials."""
    parts = _require_index(i, p, "grid point")
    full = parts + (p.N - sum(parts),)
    out = Rat(1)
    for i_k, a_k in zip(full, p.alphas):
        out *= binomial_general(a_k + i_k, i_k)
    return out / binomial_general(p.asum + p.N + p.d, p.N)


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
    weights = [mv_weight(g, p) for g in table.points(p.N)]
    _, _, value = next(gram_entries(weights, (table.row(degs, p.N),), (table.den(degs),)))
    return value


def verify_mv(p: MultiParams) -> VerificationReport:
    """Exact Gram diagonality of the full family on the level-N simplex.

    Off the diagonal each Gram entry must be exactly 0; on it each entry must
    be positive, so the weights and values in use define a true norm.  A
    diagonal failure reports the entry against 0 with residual "nonpositive".
    A simplex of more than MAX_GRAM_POINTS points is refused.
    """
    size = math.comb(p.N + p.d, p.d)
    if size > MAX_GRAM_POINTS:
        raise ValueError(f"the Gram check over {size} simplex points is refused; the cap is {MAX_GRAM_POINTS}")
    table = ChainTable(p.alphas)
    idx = table.points(p.N)
    rows, dens = [table.row(d, p.N) for d in idx], [table.den(d) for d in idx]
    check = CheckResult.exact_pass("orthogonality")
    for a, b, entry in gram_entries([mv_weight(g, p) for g in idx], rows, dens):
        if a != b or entry <= 0:
            residual = "nonpositive" if a == b else format_rational(entry)
            indices = {"degrees": [list(idx[a]), list(idx[b])]}
            check = CheckResult.failure("orthogonality", residual, indices, format_rational(entry), "0")
            break
    return VerificationReport(suite="mv", params=p.echo(), checks=(check,))
