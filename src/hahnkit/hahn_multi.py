"""Hahn polynomials in d variables on the simplex i_1 + ... + i_d <= N.

The d-variable family is a chain of univariate Hahn factors: factor k sees
the partial sum of the first k grid coordinates, shifted by the partial sum
of the first k-1 degrees, at an effective level that again depends on both.
For d = 1 and d = 2 the chain collapses to the objects of the univariate
and bivariate modules, and the tests pin those reductions exactly.

No closed form is offered for the normalization: Lambda is the weighted
sum of squares by definition.  Orthogonality is checked as literal rational
identity: every off-diagonal Gram entry is zero, and every diagonal entry,
a Lambda, is positive.
"""
from __future__ import annotations

from dataclasses import dataclass

from .hahn_uni import eval_total
from .numeric import Rat, binomial_general, format_rational
from .reports import CheckResult, VerificationReport

MAX_DIMENSION = 6
MAX_LEVEL = 12


@dataclass(frozen=True)
class MultiParams:
    alphas: tuple
    N: int
    d: int | None = None

    def __post_init__(self):
        alphas = tuple(Rat(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 2:
            raise ValueError("need at least two parameters (d >= 1)")
        d = len(alphas) - 1
        if self.d is None:
            object.__setattr__(self, "d", d)
        elif self.d != d:
            raise ValueError("d must match len(alphas) - 1")
        if d > MAX_DIMENSION:
            raise ValueError(f"dimension capped at {MAX_DIMENSION} for exact sweeps")
        if not isinstance(self.N, int) or self.N < 0:
            raise ValueError("N must be a nonnegative integer")
        if self.N > MAX_LEVEL:
            raise ValueError(f"level capped at {MAX_LEVEL} for exact sweeps")
        if min(alphas) <= -1:
            raise ValueError("parameters must exceed -1")
        # partial[k] = alpha_1 + ... + alpha_k, partial[0] = 0
        partial = [Rat(0)]
        for a in alphas:
            partial.append(partial[-1] + a)
        object.__setattr__(self, "apartial", tuple(partial))

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
    """Chain product of d univariate Hahn factors, exact rational value.

    Factor k evaluates degree n_k at |i_k| - |n_{k-1}| with parameters
    (2|n_{k-1}| + |alpha_k| + k - 1, alpha_{k+1}) and level
    |i_{k+1}| - |n_{k-1}|, where |i_{d+1}| = N.  Arguments and levels can
    leave the classical range, which is why the total evaluator is used.
    """
    degs = _require_index(n, p, "degree tuple")
    pts = _require_index(i, p, "grid point")
    return _chain(degs, pts, p)


def _chain(degs: tuple, pts: tuple, p: MultiParams):
    isum = 0
    nsum = 0
    out = Rat(1)
    for k in range(1, p.d + 1):
        isum += pts[k - 1]
        a_k = 2 * nsum + p.apartial[k] + (k - 1)
        level = (isum + pts[k] if k < p.d else p.N) - nsum
        out *= eval_total(degs[k - 1], isum - nsum, a_k, p.alphas[k], level)
        nsum += degs[k - 1]
    return out


def mv_lambda(n, p: MultiParams):
    """Normalization sum_i w_i P_n(i)^2; positive by construction."""
    degs = _require_index(n, p, "degree tuple")
    acc = Rat(0)
    for g in simplex_points(p.N, p.d):
        acc += mv_weight(g, p) * _chain(degs, g, p) ** 2
    return acc


def verify_mv(p: MultiParams) -> VerificationReport:
    """Exact Gram diagonality of the full family on the level-N simplex.

    Off the diagonal each Gram entry must be exactly 0; on it each entry must
    be positive, so the weights and values in use define a true norm.  A
    diagonal failure reports the entry against 0 with residual "nonpositive".
    """
    name = "orthogonality"
    idx = tuple(simplex_points(p.N, p.d))
    w = [mv_weight(g, p) for g in idx]
    vals = {d: [_chain(d, g, p) for g in idx] for d in idx}
    check = None
    for a, d in enumerate(idx):
        for d2 in idx[a:]:
            acc = Rat(0)
            for wg, x, y in zip(w, vals[d], vals[d2]):
                acc += wg * x * y
            if (acc <= 0) if d == d2 else (acc != 0):
                residual = "nonpositive" if d == d2 else format_rational(acc)
                indices = {"degrees": [list(d), list(d2)]}
                check = CheckResult.failure(name, residual, indices, format_rational(acc), "0")
                break
        if check is not None:
            break
    if check is None:
        check = CheckResult.exact_pass(name)
    return VerificationReport(suite="mv", params=p.echo(), checks=(check,))
