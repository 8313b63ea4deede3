"""Bivariate Hahn polynomials on the triangular lattice i + k <= N.

Three normalizations coexist.  P carries rational values and satisfies
every appendix-style identity with rational coefficients, so those checks
demand literal zero.  H = P/(m! n!) is a relabeling.  The orthonormal
Q = (h.h)/sqrt(Lambda) obeys ladder, structure, recurrence, and difference
relations whose coefficients carry square roots; those are checked in
floating point at 1e-10 because sums of mixed radicands are not closed.

Rational relation coefficients can hit removable 0/0 at special parameter
points (2m + a12 = 0 and friends).  The nine-point recurrences and the
level-raising structure relations are therefore checked cleared of their
denominators, as polynomial identities in the parameters: along the line
(alpha1 + t, alpha2 + 3t, alpha3 + 5t) the residual is a polynomial in t of
a degree D computed from the coefficient formulas, so vanishing at the
D + 1 rational points t = 0..D proves it vanishes identically, which
subsumes the base-point identity t = 0.  Float coefficients take the
directional limit along the same line through a formal infinitesimal; the
direction is fixed per relation so all its coefficients extend consistently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .classical import jacobi_coeffs
from .hahn_uni import eval_total
from .numeric import (
    BiPoly,
    EpsFrac,
    Rat,
    RadicalScalar,
    factorial,
    format_rational,
    multinomial,
    pochhammer,
)
from .reports import CheckResult, VerificationReport

FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class BiParams:
    alpha1: object
    alpha2: object
    alpha3: object
    N: int

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3"):
            object.__setattr__(self, name, Rat(getattr(self, name)))
        if not isinstance(self.N, int) or self.N < 0:
            raise ValueError("N must be a nonnegative integer")
        if min(self.alpha1, self.alpha2, self.alpha3) <= -1:
            raise ValueError("parameters must exceed -1")
        object.__setattr__(self, "a12", self.alpha1 + self.alpha2)
        object.__setattr__(self, "a123", self.alpha1 + self.alpha2 + self.alpha3)

    def echo(self) -> dict:
        return {
            "alpha1": format_rational(self.alpha1),
            "alpha2": format_rational(self.alpha2),
            "alpha3": format_rational(self.alpha3),
            "N": self.N,
        }


def grid_points(N: int):
    """Simplex points (i, k) with i + k <= N, colex: k major, i minor."""
    for k in range(N + 1):
        for i in range(N - k + 1):
            yield (i, k)


def degree_pairs(N: int):
    """Degree pairs (m, n) with m + n <= N, same colex ordering as the grid."""
    for n in range(N + 1):
        for m in range(N - n + 1):
            yield (m, n)


def _require_pair(pair, N: int, what: str) -> tuple[int, int]:
    a, b = pair
    if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0 or a + b > N:
        raise ValueError(f"{what} {pair!r} off the simplex of level {N}")
    return a, b


# ---------------------------------------------------------------------------
# weight, amplitude, and the three polynomial normalizations


def weight2(g, p: BiParams):
    """Simplex weight w_{i,k;N}; a negative-multinomial style distribution."""
    i, k = _require_pair(g, p.N, "grid point")
    return (
        multinomial(p.N, [i, k])
        * pochhammer(p.alpha1 + 1, i)
        * pochhammer(p.alpha2 + 1, k)
        * pochhammer(p.alpha3 + 1, p.N - i - k)
        / pochhammer(p.a123 + 3, p.N)
    )


def amplitude(g, p: BiParams) -> RadicalScalar:
    """W = sqrt(w); the entrywise scale between Q values and overlap entries."""
    return RadicalScalar.sqrt(weight2(g, p))


def _chain(m: int, n: int, i, k, a1, a2, a3, level):
    """Nested product h_m(i; a1, a2; i+k) h_n(i+k-m; 2m+a1+a2+1, a3; level-m).

    The inner level i+k depends on the grid point, which is what makes the
    product a genuine bivariate polynomial of total degree m + n.
    """
    first = eval_total(m, i, a1, a2, i + k)
    second = eval_total(n, i + k - m, 2 * m + a1 + a2 + 1, a3, level - m)
    return first * second


@lru_cache(maxsize=200_000)
def _chain_cached(m, n, i, k, a1, a2, a3, level):
    return _chain(m, n, i, k, a1, a2, a3, level)


def p2_eval(d, g, p: BiParams):
    """Unnormalized bivariate value, prefactor 1/(-N)_{m+n}."""
    m, n = _require_pair(d, p.N, "degree pair")
    i, k = _require_pair(g, p.N, "grid point")
    hh = _chain_cached(m, n, i, k, p.alpha1, p.alpha2, p.alpha3, p.N)
    return hh / pochhammer(-p.N, m + n)


def h2_eval(d, g, p: BiParams):
    """The factorial-rescaled normalization; read-only alias of P/(m! n!)."""
    m, n = _require_pair(d, p.N, "degree pair")
    return p2_eval(d, g, p) / (factorial(m) * factorial(n))


def _lambda_core(m: int, n: int, a1, a2, a3, N: int):
    # Cancellation-safe arrangement: every ratio (a)_{2m}/(a)_m collapsed to
    # (a+m)_m, so nothing here divides by a quantity that can vanish.
    s = a1 + a2
    sig = s + a3
    return (
        pochhammer(a1 + 1, m)
        * pochhammer(a2 + 1, m)
        * pochhammer(a3 + 1, n)
        * pochhammer(m + s + 1, m)
        * pochhammer(2 * m + s + 2, n)
        * pochhammer(2 * m + n + sig + 2, n)
        * pochhammer(2 * m + 2 * n + sig + 3, N - m - n)
        / pochhammer(sig + 3, N)
    )


def lambda2(d, p: BiParams):
    """Norm of P_{m,n} under the simplex weight."""
    m, n = _require_pair(d, p.N, "degree pair")
    return (
        factorial(m)
        * factorial(n)
        * factorial(p.N - m - n)
        / factorial(p.N)
        * _lambda_core(m, n, p.alpha1, p.alpha2, p.alpha3, p.N)
    )


@lru_cache(maxsize=100_000)
def _big_lambda_cached(m, n, a1, a2, a3, N):
    return (
        factorial(N)
        * factorial(m)
        * factorial(n)
        / factorial(N - m - n)
        * _lambda_core(m, n, a1, a2, a3, N)
    )


def bigLambda(d, p: BiParams):
    """Squared norm of the bare product chain; equals lambda2 * ((-N)_{m+n})^2."""
    m, n = _require_pair(d, p.N, "degree pair")
    return _big_lambda_cached(m, n, p.alpha1, p.alpha2, p.alpha3, p.N)


def q2_eval(d, g, p: BiParams) -> RadicalScalar:
    """Orthonormal value (h.h)/sqrt(Lambda), exact radical form."""
    m, n = _require_pair(d, p.N, "degree pair")
    i, k = _require_pair(g, p.N, "grid point")
    hh = _chain_cached(m, n, i, k, p.alpha1, p.alpha2, p.alpha3, p.N)
    return RadicalScalar(hh, 1 / bigLambda(d, p))


@lru_cache(maxsize=200_000)
def _q_float(m, n, i, k, a1, a2, a3, level) -> float:
    hh = _chain_cached(m, n, i, k, a1, a2, a3, level)
    return float(hh) / math.sqrt(float(_big_lambda_cached(m, n, a1, a2, a3, level)))


# ---------------------------------------------------------------------------
# overlap matrices


@dataclass(frozen=True)
class OverlapMatrix:
    """Interbasis expansion coefficients W * Q on the full simplex.

    Rows run over grid points, columns over degree pairs, both in the colex
    order of grid_points/degree_pairs; the matrix is square of side
    (N+1)(N+2)/2.  In squared mode each entry is the exact rational
    w (h.h)^2 / Lambda carrying the sign of the entry itself, so column
    sums of absolute values reproduce the float column norms exactly.
    """

    params: BiParams
    mode: str
    rows: tuple
    cols: tuple
    entries: tuple

    @property
    def side(self) -> int:
        return len(self.rows)


def overlap2(p: BiParams, mode: str = "float") -> OverlapMatrix:
    if mode not in ("float", "radical", "squared"):
        raise ValueError(f"unknown overlap mode {mode!r}")
    rows = tuple(grid_points(p.N))
    cols = tuple(degree_pairs(p.N))
    inv_lambda = {
        d: 1 / _big_lambda_cached(d[0], d[1], p.alpha1, p.alpha2, p.alpha3, p.N)
        for d in cols
    }
    entries = []
    for i, k in rows:
        w = weight2((i, k), p)
        line = []
        for m, n in cols:
            hh = _chain_cached(m, n, i, k, p.alpha1, p.alpha2, p.alpha3, p.N)
            value = RadicalScalar(hh, w * inv_lambda[(m, n)])
            if mode == "float":
                line.append(float(value))
            elif mode == "radical":
                line.append(value)
            else:
                line.append(value.signed_square())
        entries.append(tuple(line))
    return OverlapMatrix(params=p, mode=mode, rows=rows, cols=cols, entries=tuple(entries))


# ---------------------------------------------------------------------------
# shared sweep machinery


class _PTable:
    """Memoized P values at one parameter triple, for one sweep."""

    def __init__(self, a1, a2, a3):
        self.a1, self.a2, self.a3 = a1, a2, a3
        self._memo = {}

    def value(self, m, n, i, k, level):
        key = (m, n, i, k, level)
        out = self._memo.get(key)
        if out is None:
            out = _chain(m, n, i, k, self.a1, self.a2, self.a3, level) / pochhammer(
                -level, m + n
            )
            self._memo[key] = out
        return out


def _on_simplex(a: int, b: int, level: int) -> bool:
    return a >= 0 and b >= 0 and a + b <= level


def _eps_params(p: BiParams):
    # Slopes 1, 3, 5: no integer combination of parameter sums that appears
    # in a denominator has zero slope, so perturbed denominators never
    # degenerate to the zero polynomial.
    return (
        EpsFrac.linear(p.alpha1, 1),
        EpsFrac.linear(p.alpha2, 3),
        EpsFrac.linear(p.alpha3, 5),
    )


def _sweep_points(p: BiParams, D: int) -> list:
    """The triples (alpha1 + t, alpha2 + 3t, alpha3 + 5t) for t = 0..D: the
    line of _eps_params, sampled at D + 1 rational points."""
    return [(p.alpha1 + t, p.alpha2 + 3 * t, p.alpha3 + 5 * t) for t in range(D + 1)]


class _Degree:
    """Degree stand-in for a parameter in a coefficient formula.

    Along the sweep line every parameter has degree 1 in t and an integer
    degree 0; a sum has degree at most the larger of its terms', a product
    the sum of its factors'.  Run through a formula, it yields an upper bound
    on the degree of the formula's value in t.
    """

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d

    def __add__(self, other):
        return _Degree(max(self.d, _deg(other)))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _Degree(self.d + _deg(other))

    __rmul__ = __mul__


def _deg(value) -> int:
    return value.d if isinstance(value, _Degree) else 0


def _sweep_degree(coeff_fn, targets, m: int, n: int, N: int) -> int:
    """D_{m,n}: a bound on the degree in t of every quantity the sweep of
    instance (m, n) tests.

    P_{m',n'} has degree at most m' + n' in t: each eval_total factor of the
    chain has degree in the parameters equal to its own index.  So the
    cleared residual has degree at most deg(denom) + m + n on the left and
    deg(cf) + m' + n' per target on the right, and an off-simplex coefficient,
    which must vanish by itself, at most deg(cf).
    """
    x = _Degree(1)
    coeffs, denom = coeff_fn(m, n, N, x, x, x)
    return max(
        _deg(denom) + m + n,
        *(_deg(cf) + max(m + dm + n + dn, 0) for (dm, dn), cf in zip(targets, coeffs)),
    )


def _swept_coeffs(coeff_fn, points, m: int, n: int, N: int, swap: bool) -> list:
    """coeff_fn's (coeffs, denom) at each sample point; swap exchanges the
    first two parameters, as the second-variable forms of a relation do."""
    return [
        coeff_fn(m, n, N, a2, a1, a3) if swap else coeff_fn(m, n, N, a1, a2, a3)
        for a1, a2, a3 in points
    ]


def _at(indices: dict, t: int) -> dict:
    """Indices of a failure at sample point t; the base point adds nothing."""
    return {**indices, "t": t} if t else indices


def _exact_fail(name, indices, lhs, rhs) -> CheckResult:
    return CheckResult.failure(name, "nonzero", indices, format_rational(lhs), format_rational(rhs))


class _FloatTally:
    """Running max of scale-normalized residuals for one float check."""

    def __init__(self, name: str):
        self.name = name
        self.worst = 0.0
        self.counterexample = None

    def record(self, lhs: float, rhs: float, indices) -> None:
        scaled = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))
        if scaled > self.worst:
            self.worst = scaled
            self.counterexample = (indices, lhs, rhs)

    def result(self) -> CheckResult:
        if self.worst <= FLOAT_TOL:
            return CheckResult.float_pass(self.name, self.worst)
        indices, lhs, rhs = self.counterexample
        return CheckResult.failure(
            self.name, f"{self.worst:.17g}", indices, f"{lhs:.17g}", f"{rhs:.17g}"
        )


# ---------------------------------------------------------------------------
# exact checks on the P plane


def _check_orthogonality(p: BiParams) -> list[CheckResult]:
    name = "orthogonality"
    degs = tuple(degree_pairs(p.N))
    pts = tuple(grid_points(p.N))
    w = {g: weight2(g, p) for g in pts}
    vals = {(d, g): p2_eval(d, g, p) for d in degs for g in pts}
    for a, d in enumerate(degs):
        for d2 in degs[a:]:
            acc = Rat(0)
            for g in pts:
                acc += w[g] * vals[(d, g)] * vals[(d2, g)]
            expected = lambda2(d, p) if d == d2 else Rat(0)
            if acc != expected:
                return [
                    CheckResult.failure(
                        name,
                        format_rational(acc - expected),
                        {"degrees": [d, d2]},
                        format_rational(acc),
                        format_rational(expected),
                    )
                ]
    return [CheckResult.exact_pass(name)]


def _check_symmetry(p: BiParams) -> list[CheckResult]:
    name = "symmetry"
    swapped = BiParams(p.alpha2, p.alpha1, p.alpha3, p.N)
    for d in degree_pairs(p.N):
        m = d[0]
        sign = Rat(-1) ** m
        for i, k in grid_points(p.N):
            lhs = p2_eval(d, (i, k), p)
            rhs = sign * p2_eval(d, (k, i), swapped)
            if lhs != rhs:
                return [_exact_fail(name, {"degree": d, "point": (i, k)}, lhs, rhs)]
    return [CheckResult.exact_pass(name)]


# Targets of the nine-point recurrences, in display order; the variable-i
# relation uses all-plus signs on the first six and minus on the last three,
# the variable-k relation alternates as printed.
_REC_TARGETS = ((1, 0), (0, 1), (-1, 2), (-1, 1), (0, 0), (1, -1), (1, -2), (0, -1), (-1, 0))
_REC_SIGNS = {"x1": (1, 1, 1, 1, 1, 1, -1, -1, -1), "x2": (-1, 1, -1, -1, 1, -1, 1, -1, 1)}


def _rec_coeffs_cleared(m: int, n: int, N: int, a1, a2, a3):
    """Nine recurrence coefficients scaled by the common denominator.

    Returns (coeffs, D) with D = prod of the six linear denominator factors;
    each entry is the printed coefficient times D, assembled without any
    division so each stays polynomial in the parameters.
    """
    s = a1 + a2
    sig = s + a3
    u0, u1, u2 = 2 * m + s, 2 * m + s + 1, 2 * m + s + 2
    v1, v2, v3 = 2 * m + 2 * n + sig + 1, 2 * m + 2 * n + sig + 2, 2 * m + 2 * n + sig + 3
    bell = 2 * m * m + 2 * m * (s + 1) + (a1 + 1) * s  # the only nonfactorable numerator
    big = N + m + n + sig + 2
    coeff_a = (m + s + 1) * (2 * m + n + sig + 2) * (2 * m + n + sig + 3) * (m + n - N) * u0 * v1
    coeff_b = (2 * m + n + sig + 2) * bell * (m + n - N) * u1 * v1
    coeff_c = m * (m + a1) * (m + a2) * (m + n - N) * u2 * v1
    coeff_d = m * (m + a1) * (m + a2) * (2 * m + n + s + 1) * (2 * N + sig + 3) * u2 * v2
    coeff_e = (
        n * (m + a1 + 1) * (m + s + 1) * (n + a3) * big * u0 * v3
        + m * (m + a2) * (n + 1) * (n + a3 + 1) * (N - m - n) * u2 * v1
        + m * (m + a2) * (2 * m + n + s + 1) * (2 * m + n + sig + 1) * big * u2 * v3
        + (m + a1 + 1) * (m + s + 1) * (2 * m + n + s + 2) * (2 * m + n + sig + 2) * (N - m - n) * u0 * v1
    )
    coeff_f = n * (n + a3) * (m + s + 1) * (2 * m + n + sig + 2) * (2 * N + sig + 3) * u0 * v2
    coeff_g = n * (n - 1) * (n + a3) * (n + a3 - 1) * (m + s + 1) * big * u0 * v3
    coeff_h = n * (n + a3) * bell * (2 * m + n + s + 1) * big * u1 * v3
    coeff_i = m * (m + a1) * (m + a2) * (2 * m + n + s) * (2 * m + n + s + 1) * big * u2 * v3
    coeffs = (coeff_a, coeff_b, coeff_c, coeff_d, coeff_e, coeff_f, coeff_g, coeff_h, coeff_i)
    return coeffs, u0 * u1 * u2 * v1 * v2 * v3


def _check_recurrence(p: BiParams, which: str) -> list[CheckResult]:
    name = f"recurrence-{which}"
    N = p.N
    bounds = {d: _sweep_degree(_rec_coeffs_cleared, _REC_TARGETS, *d, N) for d in degree_pairs(N)}
    points = _sweep_points(p, max(bounds.values()))
    tables = [_PTable(*pt) for pt in points]
    signs = _REC_SIGNS[which]
    for m, n in degree_pairs(N):
        cleared = _swept_coeffs(
            _rec_coeffs_cleared, points[: bounds[(m, n)] + 1], m, n, N, which == "x2"
        )
        live = []
        for idx, (dm, dn) in enumerate(_REC_TARGETS):
            mm, nn = m + dm, n + dn
            if _on_simplex(mm, nn, N):
                live.append((idx, mm, nn))
                continue
            for t, (coeffs, _) in enumerate(cleared):
                if coeffs[idx] != 0:
                    indices = {"degree": (m, n), "point": (0, 0), "target": (mm, nn)}
                    return [_exact_fail(name, _at(indices, t), coeffs[idx], Rat(0))]
        folded = [(tuple(sg * cf for sg, cf in zip(signs, coeffs)), denom) for coeffs, denom in cleared]
        for i, k in grid_points(N):
            x = i if which == "x1" else k
            for t, (coeffs, denom) in enumerate(folded):
                table = tables[t]
                lhs = table.value(m, n, i, k, N) * denom * x
                acc = None
                for idx, mm, nn in live:
                    term = table.value(mm, nn, i, k, N) * coeffs[idx]
                    acc = term if acc is None else acc + term
                if lhs != acc:
                    return [_exact_fail(name, _at({"degree": (m, n), "point": (i, k)}, t), lhs, acc)]
    return [CheckResult.exact_pass(name)]


def _check_diff_l1(p: BiParams) -> list[CheckResult]:
    name = "diff-L1"
    a1, a2 = p.alpha1, p.alpha2
    table = _PTable(a1, a2, p.alpha3)
    N = p.N
    for m, n in degree_pairs(N):
        eig = -m * (m + p.a12 + 1)
        for i, k in grid_points(N):
            y1 = i * (k + a2 + 1)
            y2 = k * (i + a1 + 1)
            acc = -(y1 + y2) * table.value(m, n, i, k, N)
            if i >= 1:
                acc += y1 * table.value(m, n, i - 1, k + 1, N)
            if k >= 1:
                acc += y2 * table.value(m, n, i + 1, k - 1, N)
            if acc != eig * table.value(m, n, i, k, N):
                return [
                    _exact_fail(
                        name, {"degree": (m, n), "point": (i, k)}, acc, eig * table.value(m, n, i, k, N)
                    )
                ]
    return [CheckResult.exact_pass(name)]


def _l2_shift_coeffs(i, k, a1, a2, a3, N):
    """The six off-diagonal coefficients of the second difference operator,
    keyed by grid displacement."""
    return {
        (1, 0): (i + a1 + 1) * (N - i - k),
        (0, 1): (k + a2 + 1) * (N - i - k),
        (-1, 0): i * (N - i - k + a3 + 1),
        (0, -1): k * (N - i - k + a3 + 1),
        (1, -1): k * (i + a1 + 1),
        (-1, 1): i * (k + a2 + 1),
    }


def _check_diff_l2(p: BiParams) -> list[CheckResult]:
    name = "diff-L2"
    table = _PTable(p.alpha1, p.alpha2, p.alpha3)
    N = p.N
    for m, n in degree_pairs(N):
        eig = -(m + n) * (m + n + p.a123 + 2)
        for i, k in grid_points(N):
            omega = _l2_shift_coeffs(i, k, p.alpha1, p.alpha2, p.alpha3, N)
            acc = -sum(omega.values()) * table.value(m, n, i, k, N)
            for (di, dk), cf in omega.items():
                if _on_simplex(i + di, k + dk, N):
                    acc += cf * table.value(m, n, i + di, k + dk, N)
                elif cf != 0:
                    return [
                        _exact_fail(name, {"point": (i, k), "shift": (di, dk)}, cf, Rat(0))
                    ]
            if acc != eig * table.value(m, n, i, k, N):
                return [
                    _exact_fail(
                        name, {"degree": (m, n), "point": (i, k)}, acc, eig * table.value(m, n, i, k, N)
                    )
                ]
    return [CheckResult.exact_pass(name)]


def _check_forward_shift_m(p: BiParams) -> list[CheckResult]:
    name = "forward-shift-m"
    N = p.N
    a1, a2 = p.alpha1, p.alpha2
    base = _PTable(a1, a2, p.alpha3)
    up = _PTable(a1 + 1, a2 + 1, p.alpha3)  # both first parameters move
    for m, n in degree_pairs(N):
        if m + n > N - 1:
            continue
        for i, k in grid_points(N):
            lhs = -N * base.value(m + 1, n, i, k, N)
            acc = Rat(0)
            if i >= 1:
                acc += i * (k + a2 + 1) * up.value(m, n, i - 1, k, N - 1)
            if k >= 1:
                acc -= k * (i + a1 + 1) * up.value(m, n, i, k - 1, N - 1)
            if lhs != acc:
                return [_exact_fail(name, {"degree": (m, n), "point": (i, k)}, lhs, acc)]
    return [CheckResult.exact_pass(name)]


def _check_forward_shift_n(p: BiParams) -> list[CheckResult]:
    name = "forward-shift-n"
    N = p.N
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    base = _PTable(a1, a2, a3)
    up = _PTable(a1, a2, a3 + 2)  # third parameter jumps by two
    for m, n in degree_pairs(N):
        if m + n > N - 1:
            continue
        for i, k in grid_points(N):
            lhs = -N * (n + a3 + 2) * base.value(m, n + 1, i, k, N)
            r = N - i - k
            acc = Rat(0)
            if r >= 2:
                acc += (i + a1 + 1) * r * (r - 1) * up.value(m, n, i + 1, k, N - 1)
                acc += (k + a2 + 1) * r * (r - 1) * up.value(m, n, i, k + 1, N - 1)
            if i >= 1:
                acc += i * (r + a3 + 1) * (r + a3 + 2) * up.value(m, n, i - 1, k, N - 1)
            if k >= 1:
                acc += k * (r + a3 + 1) * (r + a3 + 2) * up.value(m, n, i, k - 1, N - 1)
            if r >= 1:
                acc -= r * (r + a3 + 1) * (2 * i + 2 * k + p.a12 + 2) * up.value(m, n, i, k, N - 1)
            if lhs != acc:
                return [_exact_fail(name, {"degree": (m, n), "point": (i, k)}, lhs, acc)]
    return [CheckResult.exact_pass(name)]


def _check_backward_shift_m(p: BiParams) -> list[CheckResult]:
    name = "backward-shift-m"
    N = p.N
    base = _PTable(p.alpha1, p.alpha2, p.alpha3)
    up = _PTable(p.alpha1 + 1, p.alpha2 + 1, p.alpha3)
    for m, n in degree_pairs(N):
        for i, k in grid_points(N):
            # m = 0 keeps the sweep honest: the right side must cancel.
            lhs = Rat(0)
            if m >= 1:
                lhs = -m * (m + p.a12 + 1) / (N + 1) * up.value(m - 1, n, i, k, N)
            rhs = base.value(m, n, i + 1, k, N + 1) - base.value(m, n, i, k + 1, N + 1)
            if lhs != rhs:
                return [_exact_fail(name, {"degree": (m, n), "point": (i, k)}, lhs, rhs)]
    return [CheckResult.exact_pass(name)]


def _check_backward_shift_n(p: BiParams) -> list[CheckResult]:
    name = "backward-shift-n"
    N = p.N
    a1, a2 = p.alpha1, p.alpha2
    base = _PTable(a1, a2, p.alpha3)
    up = _PTable(a1, a2, p.alpha3 + 2)
    for m, n in degree_pairs(N):
        for i, k in grid_points(N):
            lhs = Rat(0)
            if n >= 1:
                lhs = (
                    -n
                    * (2 * m + n + p.a12 + 1)
                    * (2 * m + n + p.a123 + 2)
                    / (N + 1)
                    * up.value(m, n - 1, i, k, N)
                )
            rhs = (
                (i + a1 + 1) * base.value(m, n, i + 1, k, N + 1)
                + (k + a2 + 1) * base.value(m, n, i, k + 1, N + 1)
                - (2 * i + 2 * k + p.a12 + 2) * base.value(m, n, i, k, N + 1)
            )
            if i >= 1:
                rhs += i * base.value(m, n, i - 1, k, N + 1)
            if k >= 1:
                rhs += k * base.value(m, n, i, k - 1, N + 1)
            if lhs != rhs:
                return [_exact_fail(name, {"degree": (m, n), "point": (i, k)}, lhs, rhs)]
    return [CheckResult.exact_pass(name)]


def _structure_raise_terms(m, n, N, a1, a2, a3):
    """Unsigned level-raising structure coefficients times D1, in target
    order (m,n), (m-1,n), (m,n-1), (m-1,n+1)."""
    s = a1 + a2
    sig = s + a3
    d1a, d1b = 2 * m + s + 1, 2 * m + 2 * n + sig + 2
    big = N + m + n + sig + 2
    return (
        (m + s + 1) * (2 * m + n + sig + 2) * (N - m - n),
        m * (m + a2) * (2 * m + n + s + 1) * big,
        n * (n + a3) * (m + s + 1) * big,
        m * (m + a2) * (N - m - n),
    ), d1a * d1b


_STRUCT_RAISE_TARGETS = ((0, 0), (-1, 0), (0, -1), (-1, 1))
_STRUCT_LOWER_TARGETS = ((0, 0), (1, 0), (0, 1), (1, -1))
# Swapping the roles of the two grid variables sends P to (-1)^m times its
# parameter-swapped twin, so every target that moves m by one flips sign.
_STRUCT_RAISE_SIGNS = {"i": (1, -1, -1, 1), "k": (1, 1, -1, -1)}


def _sweep_raise(xvar: str, N: int, bounds: dict, points: list, base_tables: list):
    """First failure of the level-raising relation in grid variable xvar over
    the sample points, or None."""
    name = f"structure[raise-{xvar}]"
    signs = _STRUCT_RAISE_SIGNS[xvar]
    shift = (1, 0) if xvar == "i" else (0, 1)
    shift_tables = [_PTable(a1 + shift[0], a2 + shift[1], a3) for a1, a2, a3 in points]
    for m, n in degree_pairs(N - 1):
        cleared = _swept_coeffs(
            _structure_raise_terms, points[: bounds[(m, n)] + 1], m, n, N, xvar == "k"
        )
        folded = [(tuple(sg * cf for sg, cf in zip(signs, terms)), denom) for terms, denom in cleared]
        live = []
        for idx, (dm, dn) in enumerate(_STRUCT_RAISE_TARGETS):
            mm, nn = m + dm, n + dn
            if _on_simplex(mm, nn, N - 1):
                live.append((idx, mm, nn))
                continue
            for t, (terms, _) in enumerate(folded):
                if terms[idx] != 0:
                    return _exact_fail(name, _at({"degree": (m, n), "target": (mm, nn)}, t), terms[idx], Rat(0))
        for i, k in grid_points(N - 1):
            gi, gk = (i + 1, k) if xvar == "i" else (i, k + 1)
            for t, (terms, denom) in enumerate(folded):
                lhs = N * base_tables[t].value(m, n, gi, gk, N) * denom
                acc = None
                for idx, mm, nn in live:
                    term = shift_tables[t].value(mm, nn, i, k, N - 1) * terms[idx]
                    acc = term if acc is None else acc + term
                if lhs != acc:
                    return _exact_fail(name, _at({"degree": (m, n), "point": (i, k)}, t), lhs, acc)
    return None


def _check_structure(p: BiParams) -> list[CheckResult]:
    """All four level-shift structure relations; the raising pair is swept
    over the sample points (its denominator can vanish), the lowering pair
    is denominator-safe and runs at the base point."""
    out = []
    N = p.N
    bounds = {
        d: _sweep_degree(_structure_raise_terms, _STRUCT_RAISE_TARGETS, *d, N)
        for d in degree_pairs(N - 1)
    }
    points = _sweep_points(p, max(bounds.values(), default=0))
    base_tables = [_PTable(*pt) for pt in points]
    for xvar in ("i", "k"):
        failure = _sweep_raise(xvar, N, bounds, points, base_tables)
        out.append(failure or CheckResult.exact_pass(f"structure[raise-{xvar}]"))

    base = _PTable(p.alpha1, p.alpha2, p.alpha3)
    for tag, aux, shift_table, xvar in (
        ("lower-i", p.alpha1, _PTable(p.alpha1 + 1, p.alpha2, p.alpha3), "i"),
        ("lower-k", p.alpha2, _PTable(p.alpha1, p.alpha2 + 1, p.alpha3), "k"),
    ):
        name = f"structure[{tag}]"
        failure = None
        if N == 0:
            out.append(CheckResult.exact_pass(name))
            continue
        s, sig = p.a12, p.a123
        for m, n in degree_pairs(N):
            if m + n > N - 1 or failure:
                continue
            d2 = (2 * m + s + 2) * (2 * m + 2 * n + sig + 3)  # never vanishes
            flip = 1 if xvar == "i" else -1
            terms = (
                (m + aux + 1) * (2 * m + n + s + 2),
                -flip * (2 * m + n + sig + 3),
                -(m + aux + 1),
                flip * n * (n + p.alpha3),
            )
            for i, k in grid_points(N):
                x = i if xvar == "i" else k
                if x == 0:
                    lhs = Rat(0)
                else:
                    gi, gk = (i - 1, k) if xvar == "i" else (i, k - 1)
                    lhs = Rat(x, N) * shift_table.value(m, n, gi, gk, N - 1)
                acc = Rat(0)
                for (dm, dn), cf in zip(_STRUCT_LOWER_TARGETS, terms):
                    mm, nn = m + dm, n + dn
                    if _on_simplex(mm, nn, N):
                        acc += cf * base.value(mm, nn, i, k, N)
                    elif cf != 0:
                        failure = _exact_fail(
                            name, {"degree": (m, n), "target": (mm, nn)}, cf, Rat(0)
                        )
                        break
                if failure is None and lhs * d2 != acc:
                    failure = _exact_fail(name, {"degree": (m, n), "point": (i, k)}, lhs * d2, acc)
                if failure:
                    break
        out.append(failure or CheckResult.exact_pass(name))
    return out


def _check_genfun(p: BiParams) -> list[CheckResult]:
    """Bivariate generating function, cleared of denominators: both sides are
    polynomials in (z1, z2) compared coefficientwise."""
    name = "genfun"
    N = p.N
    z1 = BiPoly.monomial(1, 0)
    z2 = BiPoly.monomial(0, 1)
    one = BiPoly.constant(1)
    diff = z2 - z1
    plus = z1 + z2
    inner_lo = one - z1 - z2
    inner_hi = one + z1 + z2
    for m, n in degree_pairs(N):
        first = BiPoly.zero()
        for idx, c in enumerate(jacobi_coeffs(m, p.alpha1, p.alpha2)):
            first = first + diff**idx * plus ** (m - idx) * c
        second = BiPoly.zero()
        for idx, c in enumerate(jacobi_coeffs(n, 2 * m + p.a12 + 1, p.alpha3)):
            second = second + inner_lo**idx * inner_hi ** (N - m - idx) * c
        lhs = first * second
        rhs = BiPoly.zero()
        scale = factorial(m) * factorial(n)
        for i, k in grid_points(N):
            coeff = multinomial(N, [i, k]) * p2_eval((m, n), (i, k), p) / scale
            rhs = rhs + BiPoly.monomial(i, k, coeff)
        if lhs != rhs:
            return [
                CheckResult.failure(
                    name,
                    "nonzero",
                    {"degree": (m, n)},
                    "cleared product form",
                    "grid expansion",
                )
            ]
    return [CheckResult.exact_pass(name)]


# ---------------------------------------------------------------------------
# float checks on the orthonormal plane

# Coefficient evaluation below returns (sign, squared magnitude) pairs with
# the squared magnitude exact; a removable 0/0 in a radicand is resolved by
# the infinitesimal limit, and a bracket that vanishes while its radicand
# diverges is folded in as sign * sqrt(radicand * bracket^2).


def _sq(sign: int, squared) -> float:
    if squared < 0:
        raise ArithmeticError("negative squared coefficient; transcription error")
    return sign * math.sqrt(float(squared))


def _coef_alpha(m, n, N, a1, a2, a3):
    s = a1 + a2
    sig = s + a3
    rad = (
        (m + a1 + 1)
        * (m + s + 1)
        * (n + 2 * m + s + 2)
        * (n + 2 * m + sig + 2)
        * (N - m - n)
        / ((2 * m + s + 1) * (2 * m + s + 2) * (2 * n + 2 * m + sig + 2) * (2 * n + 2 * m + sig + 3))
    )
    return 1, rad.limit()


def _coef_beta(m, n, N, a1, a2, a3):
    s = a1 + a2
    sig = s + a3
    rad = (
        m
        * (m + a2)
        * (n + 2 * m + s + 1)
        * (n + 2 * m + sig + 1)
        * (N + m + n + sig + 2)
        / ((2 * m + s) * (2 * m + s + 1) * (2 * n + 2 * m + sig + 1) * (2 * n + 2 * m + sig + 2))
    )
    return 1, rad.limit()


def _coef_gamma(m, n, N, a1, a2, a3):
    # Denominator offsets sig+1, sig+2 (not sig+2, sig+3): forced by the
    # grouped/explicit consistency b_{m,n} = alpha_{m,n-1} gamma_{m,n}
    # + beta_{m,n} delta_{m,n}, and confirmed by solving the expansion
    # numerically at generic parameters.
    s = a1 + a2
    sig = s + a3
    rad = (
        n
        * (n + a3)
        * (m + a1 + 1)
        * (m + s + 1)
        * (N + m + n + sig + 2)
        / ((2 * m + s + 1) * (2 * m + s + 2) * (2 * n + 2 * m + sig + 1) * (2 * n + 2 * m + sig + 2))
    )
    return 1, rad.limit()


def _coef_delta(m, n, N, a1, a2, a3):
    s = a1 + a2
    sig = s + a3
    rad = (
        m
        * n
        * (m + a2)
        * (n + a3)
        * (N - m - n + 1)
        / ((2 * m + s) * (2 * m + s + 1) * (2 * n + 2 * m + sig) * (2 * n + 2 * m + sig + 1))
    )
    return 1, rad.limit()


def _check_normalized_structure(p: BiParams) -> list[CheckResult]:
    out = []
    N = p.N
    shifted = {
        "i": (p.alpha1 + 1, p.alpha2, p.alpha3),
        "k": (p.alpha1, p.alpha2 + 1, p.alpha3),
    }
    base = (p.alpha1, p.alpha2, p.alpha3)
    for var in ("i", "k"):
        eps = _eps_params(p)
        carg = eps if var == "i" else (eps[1], eps[0], eps[2])
        signs = (1, 1, 1, 1) if var == "i" else (1, -1, 1, -1)
        aux = p.alpha1 if var == "i" else p.alpha2
        prefactor = math.sqrt(float(N * (aux + 1) / (p.a123 + 3))) if N else 0.0

        # forward: value at a raised grid point expands over one level down
        tally = _FloatTally(f"normalized-structure-float[forward-{var}]")
        for m, n in degree_pairs(N):
            coefs = (
                _coef_alpha(m, n, N, *carg),
                _coef_beta(m, n, N, *carg),
                _coef_gamma(m, n, N, *carg),
                _coef_delta(m, n + 1, N, *carg),
            )
            targets = ((m, n), (m - 1, n), (m, n - 1), (m - 1, n + 1))
            for i, k in grid_points(N):
                if i + k > N - 1:
                    continue
                gi, gk = (i + 1, k) if var == "i" else (i, k + 1)
                lhs = prefactor * _q_float(m, n, gi, gk, *base, N)
                rhs = 0.0
                for (mm, nn), sign, (csign, csq) in zip(targets, signs, coefs):
                    if not _on_simplex(mm, nn, N - 1):
                        assert csq == 0, "inadmissible target with nonzero coefficient"
                        continue
                    rhs += sign * _sq(csign, csq) * _q_float(mm, nn, i, k, *shifted[var], N - 1)
                tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
        out.append(tally.result())

        # backward: value at a lowered grid point one level down expands upward
        tally = _FloatTally(f"normalized-structure-float[backward-{var}]")
        for m, n in degree_pairs(N):
            if m + n > N - 1:
                continue
            coefs = (
                _coef_alpha(m, n, N, *carg),
                _coef_beta(m + 1, n, N, *carg),
                _coef_gamma(m, n + 1, N, *carg),
                _coef_delta(m + 1, n, N, *carg),
            )
            targets = ((m, n), (m + 1, n), (m, n + 1), (m + 1, n - 1))
            for i, k in grid_points(N):
                x = i if var == "i" else k
                if x == 0:
                    lhs = 0.0
                else:
                    gi, gk = (i - 1, k) if var == "i" else (i, k - 1)
                    lhs = x / prefactor * _q_float(m, n, gi, gk, *shifted[var], N - 1)
                rhs = 0.0
                for (mm, nn), sign, (csign, csq) in zip(targets, signs, coefs):
                    if not _on_simplex(mm, nn, N):
                        assert csq == 0, "inadmissible target with nonzero coefficient"
                        continue
                    rhs += sign * _sq(csign, csq) * _q_float(mm, nn, i, k, *base, N)
                tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
        out.append(tally.result())
    return out


def _coef_rec_a(m, n, N, a1, a2, a3):
    s = a1 + a2
    sig = s + a3
    rad = (
        m
        * (m + a1)
        * (m + a2)
        * (m + s)
        * (n + 2 * m + s)
        * (n + 2 * m + s + 1)
        * (n + 2 * m + sig)
        * (n + 2 * m + sig + 1)
        * (N + m + n + sig + 2)
        * (N - m - n + 1)
        / (
            (2 * m + s - 1)
            * (2 * m + s) ** 2
            * (2 * m + s + 1)
            * (2 * n + 2 * m + sig)
            * (2 * n + 2 * m + sig + 1) ** 2
            * (2 * n + 2 * m + sig + 2)
        )
    )
    return 1, rad.limit()


def _coef_rec_c(m, n, N, a1, a2, a3):
    s = a1 + a2
    sig = s + a3
    rad = (
        m
        * n
        * (n - 1)
        * (m + a1)
        * (m + a2)
        * (m + s)
        * (n + a3 - 1)
        * (n + a3)
        * (N + m + n + sig + 1)
        * (N - m - n + 2)
        / (
            (2 * m + s - 1)
            * (2 * m + s) ** 2
            * (2 * m + s + 1)
            * (2 * n + 2 * m + sig - 2)
            * (2 * n + 2 * m + sig - 1) ** 2
            * (2 * n + 2 * m + sig)
        )
    )
    return 1, rad.limit()


def _coef_rec_b(m, n, N, a1, a2, a3):
    s = a1 + a2
    sig = s + a3
    rad = (
        n
        * (n + a3)
        * (n + 2 * m + s + 1)
        * (n + 2 * m + sig + 1)
        * (N + m + n + sig + 2)
        * (N - m - n + 1)
        / (
            (2 * m + s + 1) ** 2
            * (2 * m + 2 * n + sig)
            * (2 * m + 2 * n + sig + 1) ** 2
            * (2 * m + 2 * n + sig + 2)
        )
    )
    bracket = m * (m + a2) / (2 * m + s) + (m + a1 + 1) * (m + s + 1) / (2 * m + s + 2)
    return bracket.sign_at_zero(), (rad * bracket * bracket).limit()


def _coef_rec_d(m, n, N, a1, a2, a3):
    s = a1 + a2
    sig = s + a3
    rad = (
        m
        * n
        * (m + a1)
        * (m + a2)
        * (m + s)
        * (n + a3)
        * (n + 2 * m + s)
        * (n + 2 * m + sig)
        / ((2 * m + s - 1) * (2 * m + s) ** 2 * (2 * m + s + 1))
    )
    bracket = (2 * N + sig + 3) / ((2 * n + 2 * m + sig - 1) * (2 * n + 2 * m + sig + 1))
    return bracket.sign_at_zero(), (rad * bracket * bracket).limit()


def _coef_rec_e(m, n, N, a1, a2, a3):
    s = a1 + a2
    sig = s + a3
    big = N + m + n + sig + 2
    value = (
        (m + a1 + 1) * (m + s + 1) * n * (n + a3) * big
        / ((2 * m + s + 1) * (2 * m + s + 2) * (2 * n + 2 * m + sig + 1) * (2 * n + 2 * m + sig + 2))
        + m * (m + a2) * (n + 1) * (n + a3 + 1) * (N - m - n)
        / ((2 * m + s) * (2 * m + s + 1) * (2 * n + 2 * m + sig + 2) * (2 * n + 2 * m + sig + 3))
        + m * (m + a2) * (n + 2 * m + s + 1) * (n + 2 * m + sig + 1) * big
        / ((2 * m + s) * (2 * m + s + 1) * (2 * m + 2 * n + sig + 1) * (2 * m + 2 * n + sig + 2))
        + (m + a1 + 1) * (m + s + 1) * (n + 2 * m + s + 2) * (n + 2 * m + sig + 2) * (N - m - n)
        / ((2 * m + s + 1) * (2 * m + s + 2) * (2 * n + 2 * m + sig + 2) * (2 * n + 2 * m + sig + 3))
    )
    return float(value.limit())


# Nine-point targets paired with their explicit coefficient evaluators;
# (dm, dn, evaluator, index displacement applied to (m, n) before evaluating).
_NINE_POINT = (
    ((1, 0), _coef_rec_a, (1, 0)),
    ((-1, 0), _coef_rec_a, (0, 0)),
    ((0, 1), _coef_rec_b, (0, 1)),
    ((0, -1), _coef_rec_b, (0, 0)),
    ((-1, 2), _coef_rec_c, (0, 2)),
    ((1, -2), _coef_rec_c, (1, 0)),
    ((1, -1), _coef_rec_d, (1, 0)),
    ((-1, 1), _coef_rec_d, (0, 1)),
)
_NINE_SIGNS = {"i": (1, 1, 1, 1, 1, 1, 1, 1), "k": (-1, -1, 1, 1, -1, -1, -1, -1)}


def _check_normalized_recurrence(p: BiParams) -> list[CheckResult]:
    out = []
    N = p.N
    base = (p.alpha1, p.alpha2, p.alpha3)
    for var in ("i", "k"):
        eps = _eps_params(p)
        carg = eps if var == "i" else (eps[1], eps[0], eps[2])
        signs = _NINE_SIGNS[var]
        tally = _FloatTally(f"normalized-recurrence-float[{var}]")
        for m, n in degree_pairs(N):
            coefs = []
            for (dm, dn), fn, (em, en) in _NINE_POINT:
                mm, nn = m + dm, n + dn
                if not _on_simplex(mm, nn, N):
                    csign, csq = fn(m + em, n + en, N, *carg)
                    assert csq == 0, "inadmissible target with nonzero coefficient"
                    coefs.append(None)
                else:
                    coefs.append(fn(m + em, n + en, N, *carg))
            diag = _coef_rec_e(m, n, N, *carg)
            for i, k in grid_points(N):
                x = i if var == "i" else k
                center = _q_float(m, n, i, k, *base, N)
                lhs = x * center
                rhs = diag * center
                for ((dm, dn), _, _), sign, cs in zip(_NINE_POINT, signs, coefs):
                    if cs is None:
                        continue
                    rhs += sign * _sq(*cs) * _q_float(m + dm, n + dn, i, k, *base, N)
                tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
        out.append(tally.result())
    return out


def _check_normalized_difference(p: BiParams) -> list[CheckResult]:
    N = p.N
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    base = (a1, a2, a3)

    tally = _FloatTally("normalized-difference-float[first]")
    for m, n in degree_pairs(N):
        eig = float(m * (m + p.a12 + 1))
        for i, k in grid_points(N):
            y1 = float(i * (k + a2 + 1))
            y2 = float(k * (i + a1 + 1))
            lhs = eig * _q_float(m, n, i, k, *base, N)
            rhs = (y1 + y2) * _q_float(m, n, i, k, *base, N)
            if i >= 1:
                rhs -= y1 * _q_float(m, n, i - 1, k + 1, *base, N)
            if k >= 1:
                rhs -= y2 * _q_float(m, n, i + 1, k - 1, *base, N)
            tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
    first = tally.result()

    tally = _FloatTally("normalized-difference-float[second]")
    for m, n in degree_pairs(N):
        eig = -(m + n) * (m + n + p.a123 + 2)
        for i, k in grid_points(N):
            kappa = (
                i * (a2 + a3)
                + k * (a1 + a3)
                + (N - i - k) * p.a12
                - 2 * (i * i + k * k + i * k - i * N - k * N - N)
            )
            lhs = float(eig) * _q_float(m, n, i, k, *base, N)
            rhs = -float(kappa) * _q_float(m, n, i, k, *base, N)
            omega = _l2_shift_coeffs(i, k, a1, a2, a3, N)
            for (di, dk), cf in omega.items():
                if _on_simplex(i + di, k + dk, N):
                    rhs += float(cf) * _q_float(m, n, i + di, k + dk, *base, N)
                else:
                    assert cf == 0
            tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
    return [first, tally.result()]


def _check_normalized_lowering(p: BiParams) -> list[CheckResult]:
    """The four contiguity ladders of the orthonormal family; their
    coefficients have strictly positive denominators, so plain square roots
    suffice."""
    out = []
    N = p.N
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    s, sig = p.a12, p.a123
    base = (a1, a2, a3)

    tally = _FloatTally("normalized-lowering-float[raise-m]")
    for m, n in degree_pairs(N):
        if m + n > N - 1:
            continue
        c = math.sqrt(
            float(N * (a1 + 1) * (a2 + 1) * (N + sig + 3) * (m + 1) * (m + s + 2) / ((sig + 3) * (sig + 4)))
        )
        for i, k in grid_points(N):
            lhs = c * _q_float(m + 1, n, i, k, *base, N)
            rhs = 0.0
            if i >= 1:
                rhs += float(i * (k + a2 + 1)) * _q_float(m, n, i - 1, k, a1 + 1, a2 + 1, a3, N - 1)
            if k >= 1:
                rhs -= float(k * (i + a1 + 1)) * _q_float(m, n, i, k - 1, a1 + 1, a2 + 1, a3, N - 1)
            tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
    out.append(tally.result())

    tally = _FloatTally("normalized-lowering-float[raise-n]")
    for m, n in degree_pairs(N):
        if m + n > N - 1:
            continue
        d = math.sqrt(
            float(
                N
                * (N + sig + 3)
                * (a3 + 1)
                * (a3 + 2)
                * (n + 1)
                * (n + a3 + 2)
                * (n + 2 * m + s + 2)
                * (n + 2 * m + sig + 3)
                / ((sig + 3) * (sig + 4))
            )
        )
        for i, k in grid_points(N):
            r = N - i - k
            lhs = d * _q_float(m, n + 1, i, k, *base, N)
            rhs = 0.0
            if r >= 2:
                rhs += float((i + a1 + 1) * r * (r - 1)) * _q_float(m, n, i + 1, k, a1, a2, a3 + 2, N - 1)
                rhs += float((k + a2 + 1) * r * (r - 1)) * _q_float(m, n, i, k + 1, a1, a2, a3 + 2, N - 1)
            if i >= 1:
                rhs += float(i * (r + a3 + 1) * (r + a3 + 2)) * _q_float(m, n, i - 1, k, a1, a2, a3 + 2, N - 1)
            if k >= 1:
                rhs += float(k * (r + a3 + 1) * (r + a3 + 2)) * _q_float(m, n, i, k - 1, a1, a2, a3 + 2, N - 1)
            if r >= 1:
                rhs -= float(r * (r + a3 + 1) * (2 * i + 2 * k + s + 2)) * _q_float(
                    m, n, i, k, a1, a2, a3 + 2, N - 1
                )
            tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
    out.append(tally.result())

    tally = _FloatTally("normalized-lowering-float[lower-m]")
    for m, n in degree_pairs(N):
        e = math.sqrt(
            float(m * (m + s + 1) * (sig + 3) * (sig + 4) / ((a1 + 1) * (a2 + 1) * (N + 1) * (N + sig + 4)))
        )
        for i, k in grid_points(N):
            lhs = e * _q_float(m - 1, n, i, k, a1 + 1, a2 + 1, a3, N) if m >= 1 else 0.0
            rhs = _q_float(m, n, i + 1, k, *base, N + 1) - _q_float(m, n, i, k + 1, *base, N + 1)
            tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
    out.append(tally.result())

    tally = _FloatTally("normalized-lowering-float[lower-n]")
    for m, n in degree_pairs(N):
        f = math.sqrt(
            float(
                n
                * (n + a3 + 1)
                * (n + 2 * m + s + 1)
                * (n + 2 * m + sig + 2)
                * (sig + 3)
                * (sig + 4)
                / ((a3 + 1) * (a3 + 2) * (N + 1) * (N + sig + 4))
            )
        )
        for i, k in grid_points(N):
            lhs = f * _q_float(m, n - 1, i, k, a1, a2, a3 + 2, N) if n >= 1 else 0.0
            rhs = (
                float(i + a1 + 1) * _q_float(m, n, i + 1, k, *base, N + 1)
                + float(k + a2 + 1) * _q_float(m, n, i, k + 1, *base, N + 1)
                - float(2 * i + 2 * k + s + 2) * _q_float(m, n, i, k, *base, N + 1)
            )
            if i >= 1:
                rhs += i * _q_float(m, n, i - 1, k, *base, N + 1)
            if k >= 1:
                rhs += k * _q_float(m, n, i, k - 1, *base, N + 1)
            tally.record(lhs, rhs, {"degree": (m, n), "point": (i, k)})
    out.append(tally.result())
    return out


_BI_CHECKS = {
    "orthogonality": _check_orthogonality,
    "symmetry": _check_symmetry,
    "recurrence-x1": lambda p: _check_recurrence(p, "x1"),
    "recurrence-x2": lambda p: _check_recurrence(p, "x2"),
    "diff-L1": _check_diff_l1,
    "diff-L2": _check_diff_l2,
    "forward-shift-m": _check_forward_shift_m,
    "forward-shift-n": _check_forward_shift_n,
    "backward-shift-m": _check_backward_shift_m,
    "backward-shift-n": _check_backward_shift_n,
    "structure": _check_structure,
    "genfun": _check_genfun,
    "normalized-structure-float": _check_normalized_structure,
    "normalized-recurrence-float": _check_normalized_recurrence,
    "normalized-difference-float": _check_normalized_difference,
    "normalized-lowering-float": _check_normalized_lowering,
}

BI_CHECK_NAMES = tuple(_BI_CHECKS)


def verify_bi(check: str, p: BiParams) -> VerificationReport:
    try:
        fn = _BI_CHECKS[check]
    except KeyError:
        raise ValueError(f"unknown check {check!r}; expected one of {BI_CHECK_NAMES}") from None
    return VerificationReport(suite="bi", params=p.echo(), checks=tuple(fn(p)))
