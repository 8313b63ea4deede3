"""Bivariate Hahn polynomials on the triangular lattice i + k <= N.

Three normalizations coexist.  P carries rational values and satisfies
every appendix-style identity with rational coefficients, so those checks
demand literal zero.  H = P/(m! n!) is a relabeling.  The orthonormal
Q = (h.h)/sqrt(Lambda) obeys ladder, structure, recurrence, and difference
relations whose coefficients carry square roots; those are checked in
floating point at 1e-10 because sums of mixed radicands are not closed.

Relations are data.  Each shift, recurrence, difference and structure
relation is one row (_Relation): its degree and grid domains as level
offsets, and its lhs and rhs terms, each a coefficient times the value at
a shifted degree, grid point, parameter triple and level.  One exact
runner checks the rows on the P plane to literal zero, one float runner
those on the Q plane at 1e-10.  Both read values from tables (_Values), one
per parameter triple, that a check fills as it reads and drops when it
ends.  A term whose target leaves the simplex must have a zero
coefficient; that proof obligation is checked like the residual, and a
nonzero coefficient is reported as a failure naming the target.

The exact plane runs on Python ints.  A table holds the P values of a
degree pair and level as integer numerators, the d = 2 rows of the simplex
layer's ChainTable, over one denominator sigma, made once per degree pair
and level; grid points and degree pairs both run in simplex_points(N, 2)
order, and the weight is simplex_weight's.  Orthogonality (gram_entries)
and symmetry compare integer sums and make rationals only to report a
failure.  Every scale a comparison is multiplied by is shown nonzero first,
since a zero one would make any identity hold.

The exact relation runner walks sample points outermost: for each t it
builds that point's tables, decides every instance (m, n) whose sweep
reaches t, and drops them, so one sample point's tables are alive at a
time.  A coefficient is a per-degree share times a per-point share, each an
integer pair (numerator, denominator) made on the triple cleared to its
denominator q: the per-point shares once per sample point, over one
denominator per term, the per-degree ones once per instance.  Each side of
an instance is then one int, sum_j W_j pack(X_j row_j): the integer weight
W_j of term j times the packed product of its per-point integers X_j and
its table row, pack(v) = sum_g v_g 2^(B g) with one slot of width B per
grid point.  If every slot of the difference of the two sides is below
2^(B-1) in size, the sides are equal exactly when every grid point agrees:
the lowest nonzero slot g would leave a nonzero multiple of 2^(B g) smaller
in size than 2^(B g + B-1).  A slot sums T terms, each below
2^(bits(W) + bits(X row)), so B is chosen above max(bits(W) + bits(X row))
+ bits(T); that bound is checked for every instance before its sides are
compared, and a slot too narrow is a reported failure, not an assert.  A
failing instance's slots are decoded to name its first grid point, and the
first failure in the order degree pair, grid point, sample point (an
off-simplex obligation before the residual of its instance) is reported.

Rational relation coefficients can hit removable 0/0 at special parameter
points (2m + a12 = 0 and friends).  The nine-point recurrences and the
level-raising structure relations are therefore checked cleared of their
denominators, as polynomial identities in the parameters: along the line
(alpha1 + t, alpha2 + 3t, alpha3 + 5t) the residual is a polynomial in t of
a degree D computed from the coefficient formulas, so vanishing at the
D + 1 rational points t = 0..D proves it vanishes identically, which
subsumes the base-point identity t = 0.  Float coefficients take the
limit t -> 0+ along the same line.  Their formulas return factors linear in
the parameters, so two exact evaluations, at t = 0 and t = 1, give each
factor's value and slope, and from those the limit.

The coefficient formulas run on Python ints as well.  Each takes (m, n, N,
a1, a2, a3, q), every constant carrying the unit q, so every value it
returns is homogeneous of some degree k in its seven arguments.  Run on the
triple cleared to its denominator Q, with m, n, N and q times Q, it gives
Q^k times the value, an integer.  Each k is read off a run on a stand-in
(_Homogeneous), which also refuses a constant that lost its q.  A swept
coefficient is then one integer pair, and each summand of a float limit
the integer pair of its factors and slopes (slope at t = 1: A_j + c_j Q)
and its power of Q.  The summands add as integer pairs, and the float is
one int true division (and a square root for a root coefficient): Python
rounds an int quotient correctly, as float() of the rational does, so it is
the same float.  The powers of Q and the refusal of a factor that is not
affine depend only on the stand-in outputs and are read once per formula
and check; the shape check (_aligned) runs on every call.  Every other
Q-plane coefficient, and Lambda under each Q value's root, is an integer
pair on the cleared triple too, divided once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import truediv
from typing import Callable, NamedTuple

from .classical import jacobi_cleared
from .numeric import (
    Rat,
    RadicalScalar,
    _poly2_mul,
    _poly2_sum,
    factorial,
    format_rational,
    multinomial,
    nonzero,
    rising,
)
from .reports import CheckResult, VerificationReport, _guarded
from .simplex import ChainTable, cleared, gram_entries, simplex_points, simplex_weight

# The largest level whose sixteen checks fit in criterion 03's 60 s budget
# on the fractions backend (cost curve in BENCH_15.json); verify_bi refuses
# a level above it.
MAX_BI_LEVEL = 25


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


def _require_pair(pair, N: int, what: str) -> tuple[int, int]:
    a, b = pair
    if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0 or a + b > N:
        raise ValueError(f"{what} {pair!r} off the simplex of level {N}")
    return a, b


# ---------------------------------------------------------------------------
# weight, amplitude, and the three polynomial normalizations


def weight2(g, p: BiParams):
    """Simplex weight w_{i,k;N}; a negative-multinomial style distribution,

        N! / (i! k! (N-i-k)!) (a1+1)_i (a2+1)_k (a3+1)_{N-i-k} / (a1+a2+a3+3)_N,

    simplex_weight at d = 2.
    """
    i, k = _require_pair(g, p.N, "grid point")
    nums, den = simplex_weight((p.alpha1, p.alpha2, p.alpha3), p.N)
    return Rat(nums[_index(i, k, p.N)], den)


def amplitude(g, p: BiParams) -> RadicalScalar:
    """W = sqrt(w); the entrywise scale between Q values and overlap entries."""
    return RadicalScalar.sqrt(weight2(g, p))


def p2_eval(d, g, p: BiParams):
    """Unnormalized bivariate value, prefactor 1/(-N)_{m+n}."""
    m, n = _require_pair(d, p.N, "degree pair")
    i, k = _require_pair(g, p.N, "grid point")
    return _Values(p.alpha1, p.alpha2, p.alpha3).p(m, n, i, k, p.N)


def h2_eval(d, g, p: BiParams):
    """The factorial-rescaled normalization; read-only alias of P/(m! n!)."""
    m, n = _require_pair(d, p.N, "degree pair")
    return p2_eval(d, g, p) / (factorial(m) * factorial(n))


def _lambda_core(m: int, n: int, triple: tuple, N: int) -> tuple[int, int]:
    """(a1+1)_m (a2+1)_m (a3+1)_n (m+s+1)_m (2m+s+2)_n (2m+n+sig+2)_n
    (2m+2n+sig+3)_{N-m-n} / (sig+3)_N, with s = a1+a2 and sig = s+a3, as
    one integer numerator and denominator.

    Cancellation-safe arrangement: every ratio (a)_{2m}/(a)_m collapsed to
    (a+m)_m, so nothing here divides by a quantity that can vanish.  triple
    is the parameter triple already cleared to one denominator q, (q, (A1,
    A2, A3)) as simplex.cleared gives it; the rising products above carry
    q^(2m+2n+N) and the one below q^N, so q^(2m+2n) is left below.
    """
    q, (A1, A2, A3) = triple
    S = A1 + A2
    T = S + A3
    num = (
        rising(A1 + q, m, q)
        * rising(A2 + q, m, q)
        * rising(A3 + q, n, q)
        * rising(S + (m + 1) * q, m, q)
        * rising(S + (2 * m + 2) * q, n, q)
        * rising(T + (2 * m + n + 2) * q, n, q)
        * rising(T + (2 * m + 2 * n + 3) * q, N - m - n, q)
    )
    return num, q ** (2 * (m + n)) * rising(T + 3 * q, N, q)


def lambda2(d, p: BiParams):
    """Norm of P_{m,n} under the simplex weight."""
    m, n = _require_pair(d, p.N, "degree pair")
    num, den = _lambda_core(m, n, cleared(p.alpha1, p.alpha2, p.alpha3), p.N)
    f = math.factorial
    return Rat(f(m) * f(n) * f(p.N - m - n) * num, f(p.N) * den)


def _big_lambda(m: int, n: int, triple: tuple, N: int) -> tuple[int, int]:
    """bigLambda as one integer numerator and denominator, on the cleared
    triple (q, (A1, A2, A3))."""
    num, den = _lambda_core(m, n, triple, N)
    f = math.factorial
    return math.perm(N, m + n) * f(m) * f(n) * num, den


def bigLambda(d, p: BiParams):
    """Squared norm of the bare product chain; equals lambda2 * ((-N)_{m+n})^2."""
    m, n = _require_pair(d, p.N, "degree pair")
    return Rat(*_big_lambda(m, n, cleared(p.alpha1, p.alpha2, p.alpha3), p.N))


def q2_eval(d, g, p: BiParams) -> RadicalScalar:
    """Orthonormal value (h.h)/sqrt(Lambda), exact radical form."""
    m, n = _require_pair(d, p.N, "degree pair")
    i, k = _require_pair(g, p.N, "grid point")
    chains = ChainTable((p.alpha1, p.alpha2, p.alpha3))
    hh = Rat(chains.num((m, n), (i, k), p.N), chains.den((m, n)))
    return RadicalScalar(hh, 1 / bigLambda(d, p))


class _Values:
    """Values of the family at one parameter triple, filled as they are read.

    The chain is the nested product h_m(i; a1, a2; i+k) h_n(i+k-m;
    2m+a1+a2+1, a3; level-m), the d = 2 ChainTable: a genuine bivariate
    polynomial of total degree m + n, as the inner level i+k depends on the
    grid point.  P is the same integers over sigma = chains.den
    (-level)_{m+n}.  row holds them over a whole grid, p makes a single
    rational, and qrow divides a row into the float Q values.
    """

    def __init__(self, a1, a2, a3):
        self.a1, self.a2, self.a3 = a1, a2, a3
        self.triple = cleared(a1, a2, a3)
        self.chains = ChainTable((a1, a2, a3))
        self._qrows, self._dens = {}, {}

    def den(self, m, n, level) -> int:
        """sigma: the P values of degree pair (m, n) at level are row / sigma;
        made once per degree pair and level."""
        key = (m, n, level)
        sigma = self._dens.get(key)
        if sigma is None:
            sigma = self._dens[key] = nonzero(
                self.chains.den((m, n)) * rising(-level, m + n), "the denominator of a P value"
            )
        return sigma

    def row(self, m, n, level) -> tuple:
        """The P numerators of degree pair (m, n) over simplex_points(level, 2)."""
        return self.chains.row((m, n), level)

    def p(self, m, n, i, k, level):
        return Rat(self.chains.num((m, n), (i, k), level), self.den(m, n, level))

    def qrow(self, m, n, level) -> tuple:
        """The float Q values of degree pair (m, n) over simplex_points(level, 2).

        An int quotient is correctly rounded, as float() of the reduced
        rational is, so each value, and Lambda under its root, is the same
        float."""
        key = (m, n, level)
        out = self._qrows.get(key)
        if out is None:
            root = math.sqrt(truediv(*_big_lambda(m, n, self.triple, level)))
            den = self.chains.den((m, n))
            out = self._qrows[key] = tuple(v / den / root for v in self.row(m, n, level))
        return out


# ---------------------------------------------------------------------------
# overlap matrices


@dataclass(frozen=True)
class OverlapMatrix:
    """Interbasis expansion coefficients W * Q on the full simplex.

    Rows run over grid points, columns over degree pairs, both in the colex
    order of simplex_points(N, 2); the matrix is square of side
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
    rows = cols = tuple(simplex_points(p.N, 2))
    chains = ChainTable((p.alpha1, p.alpha2, p.alpha3))
    values = [(chains.row(d, p.N), chains.den(d)) for d in cols]
    weights, W = simplex_weight((p.alpha1, p.alpha2, p.alpha3), p.N)
    if mode == "float":
        # (row / den) sqrt(omega Lambda_den / (W Lambda_num)) by int true
        # divisions, each rounded as float() of the reduced rational is, so
        # every entry is float() of the radical one; a zero entry is +0.0
        triple = cleared(p.alpha1, p.alpha2, p.alpha3)
        norms = [(lam_den, W * lam_num) for lam_num, lam_den in (_big_lambda(*d, triple, p.N) for d in cols)]
        entries = tuple(
            tuple(
                row[g] / den * math.sqrt(omega * lam_den / scale) if row[g] and omega else 0.0
                for (row, den), (lam_den, scale) in zip(values, norms)
            )
            for g, omega in enumerate(weights)
        )
        return OverlapMatrix(params=p, mode=mode, rows=rows, cols=cols, entries=entries)
    inv_lambda = [1 / bigLambda(d, p) for d in cols]
    entries = []
    for g, omega in enumerate(weights):
        w = Rat(omega, W)
        line = []
        for (row, den), inv in zip(values, inv_lambda):
            value = RadicalScalar(Rat(row[g], den), w * inv)
            line.append(value if mode == "radical" else value.signed_square())
        entries.append(tuple(line))
    return OverlapMatrix(params=p, mode=mode, rows=rows, cols=cols, entries=tuple(entries))


# ---------------------------------------------------------------------------
# the three checks that are not linear relations


def _check_orthogonality(p: BiParams) -> CheckResult:
    """The integer Gram sums of the P numerators (gram_entries): an
    off-diagonal sum must be the integer 0, a diagonal entry acc / scale
    lambda2, compared crosswise."""
    name = "orthogonality"
    degs = tuple(simplex_points(p.N, 2))
    table = _Values(p.alpha1, p.alpha2, p.alpha3)
    rows, dens = [table.row(*d, p.N) for d in degs], [table.den(*d, p.N) for d in degs]
    for a, b, acc, scale in gram_entries(simplex_weight((p.alpha1, p.alpha2, p.alpha3), p.N), rows, dens):
        want = lambda2(degs[a], p) if a == b else Rat(0)
        if acc * int(want.denominator) != int(want.numerator) * scale:
            got = Rat(acc, scale)
            lhs, rhs = format_rational(got), format_rational(want)
            return CheckResult.failure(name, format_rational(got - want), {"degrees": [degs[a], degs[b]]}, lhs, rhs)
    return CheckResult.exact_pass(name)


def _check_symmetry(p: BiParams) -> CheckResult:
    """P at (i, k) against (-1)^m times the parameter-swapped P at (k, i).
    Both triples clear to the same Q, so the two values share their
    denominator and the numerators are compared."""
    name = "symmetry"
    table = _Values(p.alpha1, p.alpha2, p.alpha3)
    swapped = _Values(p.alpha2, p.alpha1, p.alpha3)
    for m, n in simplex_points(p.N, 2):
        sign, den = (-1) ** m, table.den(m, n, p.N)
        lhs, rhs = table.row(m, n, p.N), swapped.row(m, n, p.N)
        for g, (i, k) in enumerate(simplex_points(p.N, 2)):
            twin = sign * rhs[_index(k, i, p.N)]
            if lhs[g] != twin:
                return _exact_fail(name, {"degree": (m, n), "point": (i, k)}, Rat(lhs[g], den), Rat(twin, den))
    return CheckResult.exact_pass(name)


def _check_genfun(p: BiParams) -> list[CheckResult]:
    """Bivariate generating function, cleared of denominators: both sides are
    polynomials in (z1, z2) compared coefficientwise.

    The left side is a product of two sums whose Jacobi coefficients are
    cleared to integers over d1 and d2, the right side the P numerators over
    sigma m! n!; so the integer grids are compared multiplied crosswise."""
    name = "genfun"
    N = p.N
    # the powers 0..N of z2 - z1, z1 + z2, 1 - z1 - z2 and 1 + z1 + z2
    diff, plus, inner_lo, inner_hi = (
        list(accumulate([base] * N, _poly2_mul, initial={(0, 0): 1}))
        for base in (
            {(1, 0): -1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1},
            {(0, 0): 1, (1, 0): -1, (0, 1): -1}, {(0, 0): 1, (1, 0): 1, (0, 1): 1},
        )
    )
    table = _Values(p.alpha1, p.alpha2, p.alpha3)
    points = tuple(simplex_points(N, 2))
    multinomials = [multinomial(N, g) for g in points]
    firsts = {}  # per m: d1, the first sum, and the products the second sums over
    for m, n in simplex_points(N, 2):
        if m not in firsts:
            d1, coeffs = jacobi_cleared(m, p.alpha1, p.alpha2)
            first = _poly2_sum(coeffs, [_poly2_mul(diff[idx], plus[m - idx]) for idx in range(m + 1)])
            firsts[m] = d1, first, [_poly2_mul(inner_lo[idx], inner_hi[N - m - idx]) for idx in range(N - m + 1)]
        d1, first, bases = firsts[m]
        d2, coeffs = jacobi_cleared(n, 2 * m + p.a12 + 1, p.alpha3)
        lhs = _poly2_mul(first, _poly2_sum(coeffs, bases))
        row, den = table.row(m, n, N), table.den(m, n, N) * math.factorial(m) * math.factorial(n)
        if any(lhs.get(g, 0) * den != d1 * d2 * w * v for g, w, v in zip(points, multinomials, row)):
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
# sweep lines and their degree bound


# Slopes 1, 3, 5: no integer combination of parameter sums that appears in a
# denominator has zero slope, so no denominator factor is constant zero
# along the line.
_SLOPES = (1, 3, 5)


def _sweep_points(p: BiParams, D: int, start: int = 0) -> list:
    """The triples (alpha1 + t, alpha2 + 3t, alpha3 + 5t) for t = start..D."""
    base = (p.alpha1, p.alpha2, p.alpha3)
    return [tuple(a + c * t for a, c in zip(base, _SLOPES)) for t in range(start, D + 1)]


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


class _Homogeneous:
    """Degree stand-in for every argument (m, n, N, a1, a2, a3, q) of a
    coefficient formula.

    Each constant of a formula carries the unit q, so every value it returns
    is homogeneous of some degree k in its seven arguments.  Run on the
    triple cleared to its denominator Q, with m, n, N and q times Q too, it
    gives Q^k times its value at q = 1, an integer.  Run on this stand-in
    with every argument of degree 1, it gives each k.  A sum of terms of two
    degrees, such as a constant that lost its q, raises; an int is a pure
    number of degree 0 and may only be a factor.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def __add__(self, other):
        if _units(other) != self.k:
            raise ArithmeticError("a coefficient formula is not homogeneous: a constant lacks its unit q")
        return self

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _Homogeneous(self.k + _units(other))

    __rmul__ = __mul__


def _units(value) -> int:
    return value.k if isinstance(value, _Homogeneous) else 0


def _aligned(*parts):
    """zip of the same formula's output on the stand-ins and on numbers,
    which must have one shape: a formula may not branch on its arguments."""
    if len({len(part) for part in parts}) > 1:
        raise ArithmeticError("a coefficient formula's shape depends on its arguments")
    return zip(*parts)


# ---------------------------------------------------------------------------
# coefficient formulas of the exact relations

# Targets of the nine-point recurrences, in display order; the variable-i
# relation uses all-plus signs on the first six and minus on the last three,
# the variable-k relation alternates as printed.
_REC_TARGETS = ((1, 0), (0, 1), (-1, 2), (-1, 1), (0, 0), (1, -1), (1, -2), (0, -1), (-1, 0))
_REC_SIGNS = {"x1": (1, 1, 1, 1, 1, 1, -1, -1, -1), "x2": (-1, 1, -1, -1, 1, -1, 1, -1, 1)}


def _rec_coeffs_cleared(m: int, n: int, N: int, a1, a2, a3, q):
    """Nine recurrence coefficients scaled by the common denominator.

    Returns (coeffs, D) with D = prod of the six linear denominator factors;
    each entry is the printed coefficient times D, assembled without any
    division so each stays polynomial in the parameters.
    """
    s = a1 + a2
    sig = s + a3
    u0, u1, u2 = 2 * m + s, 2 * m + s + q, 2 * m + s + 2 * q
    v1, v2, v3 = 2 * m + 2 * n + sig + q, 2 * m + 2 * n + sig + 2 * q, 2 * m + 2 * n + sig + 3 * q
    bell = 2 * m * m + 2 * m * (s + q) + (a1 + q) * s  # the only nonfactorable numerator
    big = N + m + n + sig + 2 * q
    coeff_a = (m + s + q) * (2 * m + n + sig + 2 * q) * (2 * m + n + sig + 3 * q) * (m + n - N) * u0 * v1
    coeff_b = (2 * m + n + sig + 2 * q) * bell * (m + n - N) * u1 * v1
    coeff_c = m * (m + a1) * (m + a2) * (m + n - N) * u2 * v1
    coeff_d = m * (m + a1) * (m + a2) * (2 * m + n + s + q) * (2 * N + sig + 3 * q) * u2 * v2
    coeff_e = (
        n * (m + a1 + q) * (m + s + q) * (n + a3) * big * u0 * v3
        + m * (m + a2) * (n + q) * (n + a3 + q) * (N - m - n) * u2 * v1
        + m * (m + a2) * (2 * m + n + s + q) * (2 * m + n + sig + q) * big * u2 * v3
        + (m + a1 + q) * (m + s + q) * (2 * m + n + s + 2 * q) * (2 * m + n + sig + 2 * q) * (N - m - n) * u0 * v1
    )
    coeff_f = n * (n + a3) * (m + s + q) * (2 * m + n + sig + 2 * q) * (2 * N + sig + 3 * q) * u0 * v2
    coeff_g = n * (n - q) * (n + a3) * (n + a3 - q) * (m + s + q) * big * u0 * v3
    coeff_h = n * (n + a3) * bell * (2 * m + n + s + q) * big * u1 * v3
    coeff_i = m * (m + a1) * (m + a2) * (2 * m + n + s) * (2 * m + n + s + q) * big * u2 * v3
    coeffs = (coeff_a, coeff_b, coeff_c, coeff_d, coeff_e, coeff_f, coeff_g, coeff_h, coeff_i)
    return coeffs, u0 * u1 * u2 * v1 * v2 * v3


def _l2_shift_coeffs(i, k, A1, A2, A3, N, q):
    """q times the six off-diagonal coefficients of the second difference
    operator, keyed by grid displacement, on the triple cleared to its
    denominator q."""
    r = N - i - k
    return {
        (1, 0): ((i + 1) * q + A1) * r,
        (0, 1): ((k + 1) * q + A2) * r,
        (-1, 0): i * ((r + 1) * q + A3),
        (0, -1): k * ((r + 1) * q + A3),
        (1, -1): k * ((i + 1) * q + A1),
        (-1, 1): i * ((k + 1) * q + A2),
    }


def _structure_raise_terms(m, n, N, a1, a2, a3, q):
    """Unsigned level-raising structure coefficients times D1, in target
    order (m,n), (m-1,n), (m,n-1), (m-1,n+1)."""
    s = a1 + a2
    sig = s + a3
    d1a, d1b = 2 * m + s + q, 2 * m + 2 * n + sig + 2 * q
    big = N + m + n + sig + 2 * q
    return (
        (m + s + q) * (2 * m + n + sig + 2 * q) * (N - m - n),
        m * (m + a2) * (2 * m + n + s + q) * big,
        n * (n + a3) * (m + s + q) * big,
        m * (m + a2) * (N - m - n),
    ), d1a * d1b


_STRUCT_RAISE_TARGETS = ((0, 0), (-1, 0), (0, -1), (-1, 1))
_STRUCT_LOWER_TARGETS = ((0, 0), (1, 0), (0, 1), (1, -1))
# Swapping the roles of the two grid variables sends P to (-1)^m times its
# parameter-swapped twin, so every target that moves m by one flips sign.
_STRUCT_RAISE_SIGNS = {"i": (1, -1, -1, 1), "k": (1, 1, -1, -1)}


# ---------------------------------------------------------------------------
# coefficient formulas of the orthonormal relations

# Each orthonormal coefficient formula returns a tuple of values, each given
# by its factors, all linear in (m, n, N, alpha, q): a value is a tuple of
# summands, each a pair (numerator factors, denominator factors), and a
# square is a repeated factor.  The square-root coefficients return
# (radicand, bracket) and stand for sign(bracket) * sqrt(radicand *
# bracket^2): a bracket that vanishes while its radicand diverges is folded
# in.  A removable 0/0 is resolved by the limit along the sweep line (_leads).

_UNIT = (((), ()),)  # the bracket of a plain square root


def _root(numerators: tuple, denominators: tuple, bracket=_UNIT):
    """(radicand, bracket) of a coefficient whose radicand is one product."""
    return ((numerators, denominators),), bracket


def _coef_alpha(m, n, N, a1, a2, a3, q):
    s = a1 + a2
    sig = s + a3
    return _root(
        (m + a1 + q, m + s + q, n + 2 * m + s + 2 * q, n + 2 * m + sig + 2 * q, N - m - n),
        (2 * m + s + q, 2 * m + s + 2 * q, 2 * n + 2 * m + sig + 2 * q, 2 * n + 2 * m + sig + 3 * q),
    )


def _coef_beta(m, n, N, a1, a2, a3, q):
    s = a1 + a2
    sig = s + a3
    return _root(
        (m, m + a2, n + 2 * m + s + q, n + 2 * m + sig + q, N + m + n + sig + 2 * q),
        (2 * m + s, 2 * m + s + q, 2 * n + 2 * m + sig + q, 2 * n + 2 * m + sig + 2 * q),
    )


def _coef_gamma(m, n, N, a1, a2, a3, q):
    # Denominator offsets sig+1, sig+2 (not sig+2, sig+3): forced by the
    # grouped/explicit consistency b_{m,n} = alpha_{m,n-1} gamma_{m,n}
    # + beta_{m,n} delta_{m,n}, and confirmed by solving the expansion
    # numerically at generic parameters.
    s = a1 + a2
    sig = s + a3
    return _root(
        (n, n + a3, m + a1 + q, m + s + q, N + m + n + sig + 2 * q),
        (2 * m + s + q, 2 * m + s + 2 * q, 2 * n + 2 * m + sig + q, 2 * n + 2 * m + sig + 2 * q),
    )


def _coef_delta(m, n, N, a1, a2, a3, q):
    s = a1 + a2
    sig = s + a3
    return _root(
        (m, n, m + a2, n + a3, N - m - n + q),
        (2 * m + s, 2 * m + s + q, 2 * n + 2 * m + sig, 2 * n + 2 * m + sig + q),
    )


def _coef_rec_a(m, n, N, a1, a2, a3, q):
    s = a1 + a2
    sig = s + a3
    return _root(
        (
            m, m + a1, m + a2, m + s, n + 2 * m + s, n + 2 * m + s + q, n + 2 * m + sig,
            n + 2 * m + sig + q, N + m + n + sig + 2 * q, N - m - n + q,
        ),
        (
            2 * m + s - q, 2 * m + s, 2 * m + s, 2 * m + s + q,
            2 * n + 2 * m + sig, 2 * n + 2 * m + sig + q, 2 * n + 2 * m + sig + q, 2 * n + 2 * m + sig + 2 * q,
        ),
    )


def _coef_rec_c(m, n, N, a1, a2, a3, q):
    s = a1 + a2
    sig = s + a3
    return _root(
        (m, n, n - q, m + a1, m + a2, m + s, n + a3 - q, n + a3, N + m + n + sig + q, N - m - n + 2 * q),
        (
            2 * m + s - q, 2 * m + s, 2 * m + s, 2 * m + s + q,
            2 * n + 2 * m + sig - 2 * q, 2 * n + 2 * m + sig - q, 2 * n + 2 * m + sig - q, 2 * n + 2 * m + sig,
        ),
    )


def _coef_rec_b(m, n, N, a1, a2, a3, q):
    s = a1 + a2
    sig = s + a3
    bracket = (
        ((m, m + a2), (2 * m + s,)),
        ((m + a1 + q, m + s + q), (2 * m + s + 2 * q,)),
    )
    return _root(
        (n, n + a3, n + 2 * m + s + q, n + 2 * m + sig + q, N + m + n + sig + 2 * q, N - m - n + q),
        (
            2 * m + s + q, 2 * m + s + q,
            2 * m + 2 * n + sig, 2 * m + 2 * n + sig + q, 2 * m + 2 * n + sig + q, 2 * m + 2 * n + sig + 2 * q,
        ),
        bracket,
    )


def _coef_rec_d(m, n, N, a1, a2, a3, q):
    s = a1 + a2
    sig = s + a3
    bracket = (((2 * N + sig + 3 * q,), (2 * n + 2 * m + sig - q, 2 * n + 2 * m + sig + q)),)
    return _root(
        (m, n, m + a1, m + a2, m + s, n + a3, n + 2 * m + s, n + 2 * m + sig),
        (2 * m + s - q, 2 * m + s, 2 * m + s, 2 * m + s + q),
        bracket,
    )


def _coef_rec_e(m, n, N, a1, a2, a3, q):
    """The diagonal recurrence coefficient itself: one value, of four summands."""
    s = a1 + a2
    sig = s + a3
    big = N + m + n + sig + 2 * q
    value = (
        (
            (m + a1 + q, m + s + q, n, n + a3, big),
            (2 * m + s + q, 2 * m + s + 2 * q, 2 * n + 2 * m + sig + q, 2 * n + 2 * m + sig + 2 * q),
        ),
        (
            (m, m + a2, n + q, n + a3 + q, N - m - n),
            (2 * m + s, 2 * m + s + q, 2 * n + 2 * m + sig + 2 * q, 2 * n + 2 * m + sig + 3 * q),
        ),
        (
            (m, m + a2, n + 2 * m + s + q, n + 2 * m + sig + q, big),
            (2 * m + s, 2 * m + s + q, 2 * m + 2 * n + sig + q, 2 * m + 2 * n + sig + 2 * q),
        ),
        (
            (m + a1 + q, m + s + q, n + 2 * m + s + 2 * q, n + 2 * m + sig + 2 * q, N - m - n),
            (2 * m + s + q, 2 * m + s + 2 * q, 2 * n + 2 * m + sig + 2 * q, 2 * n + 2 * m + sig + 3 * q),
        ),
    )
    return (value,)


def _product(low: tuple, high: tuple):
    """Lowest-order term (c, order) of a product of affine integer factors,
    each given at t = 0 and t = 1."""
    coef, order = 1, 0
    for f0, f1 in zip(low, high):
        if f0:
            coef *= f0
        else:
            coef, order = coef * (f1 - f0), order + 1
    return coef, order


def _summand_powers(probe, units, q: int) -> list:
    """Per value of a float formula, per summand, the pair (q^max(k, 0),
    q^max(-k, 0)) that turns its two integer factor products into its
    numerator and denominator: k is the units of its denominator factors
    less those of its numerator factors.

    Read off the formula's stand-in outputs alone, so made once per formula
    and check.  Each factor must be affine along the sweep line (degree at
    most 1 on the _Degree stand-in), or the two-point limit is unsound.
    """
    out = []
    for value in _aligned(probe, units):
        powers = []
        for summand, unit in _aligned(*value):
            if any(_deg(f) > 1 for factors in summand for f in factors):
                raise ArithmeticError("a coefficient factor is not affine along the sweep line")
            k = sum(map(_units, unit[1])) - sum(map(_units, unit[0]))
            powers.append((q ** max(k, 0), q ** max(-k, 0)))
        out.append(powers)
    return out


def _leads(powers, low, high) -> list:
    """The lowest-order term c * eps^order of each summand of a value at the
    parameters t = eps of the sweep line, as eps -> 0+, as integer triples
    (num, den, order) with c = num / den and den > 0.

    low and high are the value at t = 0 and t = 1 with the triple cleared to
    its denominator q, powers its summands' (_summand_powers).  A factor f
    affine in t is f(0) + l eps with l = f(1) - f(0): it gives f(0), or l
    and one order when f(0) = 0, as an integer q^k times too large for a
    factor of degree k.  So each summand is its two integer products, each
    times its power of q.  A summand with a numerator factor that vanishes
    identically is dropped.
    """
    out = []
    for (up, down), lo, hi in _aligned(powers, low, high):
        (num, order), (den, lower) = _product(lo[0], hi[0]), _product(lo[1], hi[1])
        if not den:
            raise ArithmeticError("a denominator factor vanishes identically")
        if num:
            if den < 0:
                num, den = -num, -den
            out.append((num * up, den * down, order - lower))
    return out


def _sum(pairs) -> tuple:
    """The sum of rationals given as integer pairs (num, den), den > 0, as
    one such pair; not reduced."""
    num, den = 0, 1
    for a, b in pairs:
        num, den = (num + a, den) if b == den else (num * b + a * den, den * b)
    return num, den


def _limit(leads) -> tuple:
    """The value at eps = 0 of a sum with the given lowest-order terms, as
    an integer pair (num, den) with den > 0."""
    if any(order < 0 for *_, order in leads):
        raise ArithmeticError("pole at the evaluation point; identity is ill-formed here")
    return _sum((num, den) for num, den, order in leads if order == 0)


def _signed_square(radicand, bracket) -> tuple:
    """(sign, squared) of sign(bracket) * sqrt(radicand * bracket^2) at
    eps = 0, from the lowest-order terms of both; squared an integer pair
    (num, den) with den > 0.  The lowest-order part of the bracket decides
    its sign; if it is zero, nothing here can."""
    low = min((order for *_, order in bracket), default=0)
    bn, bd = _sum((num, den) for num, den, order in bracket if order == low)
    if not bn:
        raise ArithmeticError("the bracket vanishes at its lowest order; its sign is undecided")
    rn, rd = _limit([(num, den, order + 2 * low) for num, den, order in radicand])
    return (1 if bn > 0 else -1), (rn * bn * bn, rd * bd * bd)


def _sq(sign: int, squared: tuple) -> float:
    """sign * sqrt(num / den) of an integer pair with den > 0; the int
    quotient is correctly rounded, as float() of the rational is."""
    num, den = squared
    if num < 0:
        raise ArithmeticError("negative squared coefficient; transcription error")
    return sign * math.sqrt(num / den)


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


# ---------------------------------------------------------------------------
# relations as rows


class _Term(NamedTuple):
    """sign times scale(d) times factor(x) times the value at degree pair
    (m, n) + degree, grid point (i, k) + point, the parameters shifted by
    params and level N + level.

    d and x are the row's per-degree and per-point coefficient parts; scale
    and factor read this term's share of each, and a share left None is 1.
    On the P plane a share is an exact rational as an integer pair
    (numerator, denominator), on the Q plane a float.
    """

    scale: Callable | None = None
    factor: Callable | None = None
    sign: int = 1
    degree: tuple = (0, 0)
    point: tuple = (0, 0)
    params: tuple = (0, 0, 0)
    level: int = 0

    def coef(self, d, x):
        """The coefficient as one number: on the P plane a rational, made
        for a report only."""
        value = self.sign
        for share, part in ((self.scale, d), (self.factor, x)):
            if share is not None:
                v = share(part)
                value = value * (Rat(*v) if isinstance(v, tuple) else v)
        return value


class _Relation(NamedTuple):
    """lhs = rhs at every degree pair of level N + degrees and every grid
    point of level N + grid.

    per_degree(c, m, n) and per_point(c, i, k) make the coefficient parts
    that depend on the degree pair alone or the grid point alone, once
    each; c is an _At.  Plane "P" rows are exact: their parts are integer
    pairs made on the triple cleared to its denominator (c.q, c.scaled).
    Plane "Q" rows are float.  A swept row has its denominators cleared and
    is checked at the D + 1 points of the sweep line; every other row at the
    base point.
    """

    name: str
    plane: str
    degrees: int
    grid: int
    lhs: tuple
    rhs: tuple
    per_degree: Callable = lambda c, m, n: None
    per_point: Callable = lambda c, i, k: None
    swept: bool = False


def _itself(part):
    return part


def _pick(j: int) -> Callable:
    """The share at position j of a tuple of coefficient parts."""
    return lambda part: part[j]


def _degree_terms(targets, params=(0, 0, 0), level=0) -> tuple:
    """Terms at shifted degree pairs; term j's coefficient is d[j]."""
    return tuple(_Term(_pick(j), degree=dg, params=params, level=level) for j, dg in enumerate(targets))


def _point_terms(points, params=(0, 0, 0), level=0) -> tuple:
    """Terms at shifted grid points; term j's coefficient is x[j]."""
    return tuple(_Term(factor=_pick(j), point=g, params=params, level=level) for j, g in enumerate(points))


def _floats(point_part):
    """The float Q-plane form of a P-plane per-point part: each pair's int
    quotient, correctly rounded as float() of the rational is."""
    return lambda c, i, k: tuple(num / den for num, den in point_part(c, i, k))


def _first_difference(c, i, k):
    """The two off-diagonal coefficients of the first difference operator,
    then its diagonal, each over q."""
    q, (A1, A2, _) = c.q, c.scaled
    y1, y2 = i * ((k + 1) * q + A2), k * ((i + 1) * q + A1)
    return (y1, q), (y2, q), (-(y1 + y2), q)


def _ladder_n(c, i, k):
    q, (A1, A2, A3) = c.q, c.scaled
    r = c.N - i - k
    up = (r + 1) * q + A3  # q (r + a3 + 1)
    return (
        (((i + 1) * q + A1) * r * (r - 1), q),
        (((k + 1) * q + A2) * r * (r - 1), q),
        (i * up * (up + q), q * q),
        (k * up * (up + q), q * q),
        (-(r * up * ((2 * i + 2 * k + 2) * q + A1 + A2)), q * q),
    )


def _lowering_n(c, i, k):
    q, (A1, A2, _) = c.q, c.scaled
    return ((i + 1) * q + A1, q), ((k + 1) * q + A2, q), (-((2 * i + 2 * k + 2) * q + A1 + A2), q), (i, 1), (k, 1)


_L2_SHIFTS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1))


def _second_difference(c, i, k):
    """The diagonal, then the six off-diagonal coefficients of the second
    difference operator, each over q."""
    q = c.q
    omega = _l2_shift_coeffs(i, k, *c.scaled, c.N, q)
    return ((-sum(omega.values()), q),) + tuple((omega[s], q) for s in _L2_SHIFTS)


_UP_M = (1, 1, 0)  # both first parameters move
_UP_N = (0, 0, 2)  # the third parameter jumps by two
_LADDER_M = (
    _Term(factor=_pick(0), point=(-1, 0), params=_UP_M, level=-1),
    _Term(factor=_pick(1), sign=-1, point=(0, -1), params=_UP_M, level=-1),
)
_LADDER_N = _point_terms(((1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)), _UP_N, -1)
_LOWER_M = (_Term(point=(1, 0), level=1), _Term(sign=-1, point=(0, 1), level=1))
_LOWER_N = _point_terms(((1, 0), (0, 1), (0, 0), (-1, 0), (0, -1)), level=1)
_SECOND_DIFFERENCE = _point_terms(((0, 0),) + _L2_SHIFTS)


def _grid_variable(second: bool) -> Callable:
    """The per-point part i, or k for the second-variable forms, as a pair."""
    return (lambda c, i, k: (k, 1)) if second else (lambda c, i, k: (i, 1))


def _recurrence(which: str) -> _Relation:
    second = which == "x2"
    return _Relation(
        f"recurrence-{which}", "P", 0, 0,
        lhs=(_Term(_pick(-1), _itself),), rhs=_degree_terms(_REC_TARGETS),
        per_degree=lambda c, m, n: c.cleared(_rec_coeffs_cleared, m, n, second, _REC_SIGNS[which]),
        per_point=_grid_variable(second), swept=True,
    )


def _structure(var: str, raising: bool) -> _Relation:
    second = var == "k"
    shift, step = ((0, 1, 0), (0, 1)) if second else ((1, 0, 0), (1, 0))
    if raising:
        return _Relation(
            f"structure[raise-{var}]", "P", -1, -1,
            lhs=(_Term(_pick(-1), _itself, point=step),),
            rhs=_degree_terms(_STRUCT_RAISE_TARGETS, shift, -1),
            per_degree=lambda c, m, n: c.cleared(_structure_raise_terms, m, n, second, _STRUCT_RAISE_SIGNS[var]),
            per_point=lambda c, i, k: (c.N, 1), swept=True,
        )
    flip = -1 if second else 1

    def per_degree(c, m, n):
        q, (A1, A2, A3) = c.q, c.scaled
        aux = (m + 1) * q + (A2 if second else A1)  # q (m + aux + 1)
        return (
            (aux * ((2 * m + n + 2) * q + A1 + A2), q * q),
            (-flip * ((2 * m + n + 3) * q + A1 + A2 + A3), q),
            (-aux, q),
            (flip * n * (n * q + A3), q),
            # (2m + s + 2) (2m + 2n + sig + 3) / N; never vanishes
            (((2 * m + 2) * q + A1 + A2) * ((2 * m + 2 * n + 3) * q + A1 + A2 + A3), q * q * c.N),
        )

    return _Relation(
        f"structure[lower-{var}]", "P", -1, 0,
        lhs=(_Term(_pick(-1), _itself, point=(-step[0], -step[1]), params=shift, level=-1),),
        rhs=_degree_terms(_STRUCT_LOWER_TARGETS), per_degree=per_degree, per_point=_grid_variable(second),
    )


def _prefactor(c, second: bool) -> float:
    """sqrt(N (a + 1) / (sig + 3)), a = a2 for the second-variable forms and
    a1 otherwise, from the cleared triple; made once per check."""
    key = ("prefactor", second, c.scaled)
    value = c.memo.get(key)
    if value is None:
        q, (A1, A2, A3) = c.q, c.scaled
        value = math.sqrt(c.N * ((A2 if second else A1) + q) / (A1 + A2 + A3 + 3 * q)) if c.N else 0.0
        c.memo[key] = value
    return value


def _normalized_structure(var: str, forward: bool) -> _Relation:
    """Forward: the value at a raised grid point expands over one level down.
    Backward: the value at a lowered grid point one level down expands upward."""
    second = var == "k"
    signs = (1, -1, 1, -1) if second else (1, 1, 1, 1)
    shift, step = ((0, 1, 0), (0, 1)) if second else ((1, 0, 0), (1, 0))
    # the degree shifts at which alpha, beta, gamma and delta are taken
    shifts = ((0, 0), (0, 0), (0, 0), (0, 1)) if forward else ((0, 0), (1, 0), (0, 1), (1, 0))

    def per_degree(c, m, n):
        fns = (_coef_alpha, _coef_beta, _coef_gamma, _coef_delta)
        signed = tuple(sg * c.root(fn, m + dm, n + dn, second) for sg, fn, (dm, dn) in zip(signs, fns, shifts))
        return signed + (_prefactor(c, second),) if forward else signed

    if forward:
        return _Relation(
            f"normalized-structure-float[forward-{var}]", "Q", 0, -1,
            lhs=(_Term(_pick(-1), point=step),),
            rhs=_degree_terms(((0, 0), (-1, 0), (0, -1), (-1, 1)), shift, -1), per_degree=per_degree,
        )
    return _Relation(
        f"normalized-structure-float[backward-{var}]", "Q", -1, 0,
        lhs=(_Term(factor=_itself, point=(-step[0], -step[1]), params=shift, level=-1),),
        rhs=_degree_terms(((0, 0), (1, 0), (0, 1), (1, -1))), per_degree=per_degree,
        per_point=lambda c, i, k: (k if second else i) / _prefactor(c, second),
    )


def _normalized_recurrence(var: str) -> _Relation:
    second = var == "k"
    return _Relation(
        f"normalized-recurrence-float[{var}]", "Q", 0, 0,
        lhs=(_Term(factor=_itself),), rhs=_degree_terms(((0, 0),) + tuple(tg for tg, _, _ in _NINE_POINT)),
        per_degree=lambda c, m, n: (c.limit(_coef_rec_e, m, n, second),) + tuple(
            sg * c.root(fn, m + em, n + en, second)
            for sg, (_, fn, (em, en)) in zip(_NINE_SIGNS[var], _NINE_POINT)
        ),
        per_point=lambda c, i, k: k if second else i,
    )


def _l1_eigenvalue(c, m, n):
    """-m (m + s + 1), over q."""
    q, (A1, A2, _) = c.q, c.scaled
    return -m * ((m + 1) * q + A1 + A2), q


def _l2_eigenvalue(c, m, n):
    """-(m + n) (m + n + sig + 2), over q."""
    return -(m + n) * ((m + n + 2) * c.q + sum(c.scaled)), c.q


# The per-degree parts of the four normalized lowering rows: the squares of
# the ratios of the Q normalizations, each an integer pair on the cleared
# triple, with S = A1 + A2 and T = S + A3 (q s and q sig).


def _raise_m_square(c, m, n):
    """N (a1+1) (a2+1) (N+sig+3) (m+1) (m+s+2) / ((sig+3) (sig+4))."""
    q, (A1, A2, A3), N = c.q, c.scaled, c.N
    S, T = A1 + A2, A1 + A2 + A3
    return (
        N * (A1 + q) * (A2 + q) * ((N + 3) * q + T) * (m + 1) * ((m + 2) * q + S),
        q * q * (T + 3 * q) * (T + 4 * q),
    )


def _raise_n_square(c, m, n):
    """N (N+sig+3) (a3+1) (a3+2) (n+1) (n+a3+2) (n+2m+s+2) (n+2m+sig+3)
    / ((sig+3) (sig+4))."""
    q, (A1, A2, A3), N = c.q, c.scaled, c.N
    S, T = A1 + A2, A1 + A2 + A3
    return (
        N * ((N + 3) * q + T) * (A3 + q) * (A3 + 2 * q) * (n + 1) * ((n + 2) * q + A3)
        * ((n + 2 * m + 2) * q + S) * ((n + 2 * m + 3) * q + T),
        q**4 * (T + 3 * q) * (T + 4 * q),
    )


def _lower_m_square(c, m, n):
    """m (m+s+1) (sig+3) (sig+4) / ((a1+1) (a2+1) (N+1) (N+sig+4))."""
    q, (A1, A2, A3), N = c.q, c.scaled, c.N
    S, T = A1 + A2, A1 + A2 + A3
    return (
        m * ((m + 1) * q + S) * (T + 3 * q) * (T + 4 * q),
        (A1 + q) * (A2 + q) * (N + 1) * ((N + 4) * q + T),
    )


def _lower_n_square(c, m, n):
    """n (n+a3+1) (n+2m+s+1) (n+2m+sig+2) (sig+3) (sig+4)
    / ((a3+1) (a3+2) (N+1) (N+sig+4))."""
    q, (A1, A2, A3), N = c.q, c.scaled, c.N
    S, T = A1 + A2, A1 + A2 + A3
    return (
        n * ((n + 1) * q + A3) * ((n + 2 * m + 1) * q + S) * ((n + 2 * m + 2) * q + T)
        * (T + 3 * q) * (T + 4 * q),
        q * q * (A3 + q) * (A3 + 2 * q) * (N + 1) * ((N + 4) * q + T),
    )


def _negated(num: int, den: int) -> float:
    """-num / den, negated on the integers, so a zero stays +0.0."""
    return -num / den


def _root_of(square) -> Callable:
    """The per-degree part sqrt(num / den) of a square given as a pair."""
    return lambda c, m, n: _sq(1, square(c, m, n))


# The 24 relation rows, in report order.  m = 0 and n = 0 keep the backward
# sweeps honest: there the right side must cancel by itself.
_RELATIONS = {row.name: row for row in (
    _recurrence("x1"),
    _recurrence("x2"),
    _Relation(
        "diff-L1", "P", 0, 0,
        lhs=(_Term(factor=_pick(2)),) + _point_terms(((-1, 1), (1, -1))), rhs=(_Term(_itself),),
        per_degree=_l1_eigenvalue, per_point=_first_difference,
    ),
    _Relation(
        "diff-L2", "P", 0, 0, lhs=_SECOND_DIFFERENCE, rhs=(_Term(_itself),),
        per_degree=_l2_eigenvalue, per_point=_second_difference,
    ),
    _Relation(
        "forward-shift-m", "P", -1, 0, lhs=(_Term(_itself, degree=(1, 0)),), rhs=_LADDER_M,
        per_degree=lambda c, m, n: (-c.N, 1), per_point=_first_difference,
    ),
    _Relation(
        "forward-shift-n", "P", -1, 0, lhs=(_Term(_itself, degree=(0, 1)),), rhs=_LADDER_N,
        per_degree=lambda c, m, n: (-c.N * ((n + 2) * c.q + c.scaled[2]), c.q), per_point=_ladder_n,
    ),
    _Relation(
        "backward-shift-m", "P", 0, 0, lhs=(_Term(_itself, degree=(-1, 0), params=_UP_M),), rhs=_LOWER_M,
        per_degree=lambda c, m, n: (_l1_eigenvalue(c, m, n)[0], c.q * (c.N + 1)),
    ),
    _Relation(
        "backward-shift-n", "P", 0, 0, lhs=(_Term(_itself, degree=(0, -1), params=_UP_N),), rhs=_LOWER_N,
        per_degree=lambda c, m, n: (
            -n * ((2 * m + n + 1) * c.q + c.scaled[0] + c.scaled[1]) * ((2 * m + n + 2) * c.q + sum(c.scaled)),
            c.q * c.q * (c.N + 1),
        ),
        per_point=_lowering_n,
    ),
    _structure("i", True),
    _structure("k", True),
    _structure("i", False),
    _structure("k", False),
    _normalized_structure("i", True),
    _normalized_structure("i", False),
    _normalized_structure("k", True),
    _normalized_structure("k", False),
    _normalized_recurrence("i"),
    _normalized_recurrence("k"),
    _Relation(
        "normalized-difference-float[first]", "Q", 0, 0, lhs=(_Term(_itself),),
        rhs=(_Term(factor=lambda x: x[0] + x[1]), _Term(factor=_pick(0), sign=-1, point=(-1, 1)),
             _Term(factor=_pick(1), sign=-1, point=(1, -1))),
        per_degree=lambda c, m, n: _negated(*_l1_eigenvalue(c, m, n)), per_point=_floats(_first_difference),
    ),
    _Relation(
        "normalized-difference-float[second]", "Q", 0, 0, lhs=(_Term(_itself),), rhs=_SECOND_DIFFERENCE,
        per_degree=lambda c, m, n: truediv(*_l2_eigenvalue(c, m, n)), per_point=_floats(_second_difference),
    ),
    _Relation(
        "normalized-lowering-float[raise-m]", "Q", -1, 0, lhs=(_Term(_itself, degree=(1, 0)),), rhs=_LADDER_M,
        per_degree=_root_of(_raise_m_square), per_point=_floats(_first_difference),
    ),
    _Relation(
        "normalized-lowering-float[raise-n]", "Q", -1, 0, lhs=(_Term(_itself, degree=(0, 1)),), rhs=_LADDER_N,
        per_degree=_root_of(_raise_n_square), per_point=_floats(_ladder_n),
    ),
    _Relation(
        "normalized-lowering-float[lower-m]", "Q", 0, 0, lhs=(_Term(_itself, degree=(-1, 0), params=_UP_M),),
        rhs=_LOWER_M, per_degree=_root_of(_lower_m_square),
    ),
    _Relation(
        "normalized-lowering-float[lower-n]", "Q", 0, 0, lhs=(_Term(_itself, degree=(0, -1), params=_UP_N),),
        rhs=_LOWER_N, per_degree=_root_of(_lower_n_square), per_point=_floats(_lowering_n),
    ),
)}


# ---------------------------------------------------------------------------
# the two runners: exact and float


class _Check:
    """What one verify_bi call shares among its rows: the points of its
    sweep line, the value tables of one sample point, and a memo of the
    coefficient formulas' units and float limits, each made once and
    dropped with the call."""

    def __init__(self, p: BiParams):
        self.p = p
        self.q, self.base = cleared(p.alpha1, p.alpha2, p.alpha3)
        self.points = []
        self.sample, self.tables = None, {}
        self.memo = {}
        self.line = (self.scaled(0), self.scaled(1))

    def scaled(self, t: int) -> tuple:
        """The triple at point t of the sweep line times its denominator q."""
        return tuple(A + c * self.q * t for A, c in zip(self.base, _SLOPES))

    def at(self, t: int) -> "_At":
        start = len(self.points)
        for u, point in enumerate(_sweep_points(self.p, t, start), start):
            self.points.append(_At(self.p.N, point, self.q, self.scaled(u), self.line, self.memo))
        return self.points[t]

    def values(self, t: int, params: tuple) -> _Values:
        """The table at sample point t's triple shifted by params.  The
        tables of another sample point are dropped first, so those of one
        sample point at most are alive."""
        if t != self.sample:
            self.sample, self.tables = t, {}
        table = self.tables.get(params)
        if table is None:
            table = self.tables[params] = _Values(*(a + s for a, s in zip(self.at(t).triple(False), params)))
        return table


def _swapped(triple: tuple, swap: bool) -> tuple:
    """The triple with its first two parameters exchanged if swap, as the
    second-variable forms of a relation take it."""
    a, b, c = triple
    return (b, a, c) if swap else triple


class _At:
    """The level and parameter triple at one point of a check's sweep line,
    the same triple times its denominator q (integers), the first two such
    integer triples of the line and the check's memo.  On the _Degree
    stand-in, q is the int 1.  It holds no reference to the check, so a
    check's tables are freed as soon as the check returns."""

    def __init__(self, N, triple, q=1, scaled=None, line=None, memo=None):
        self.N = N
        self.a1, self.a2, self.a3 = triple
        self.q, self.scaled = q, scaled or triple
        self.line, self.memo = line, memo

    def triple(self, swap: bool) -> tuple:
        return _swapped((self.a1, self.a2, self.a3), swap)

    def stand_ins(self, fn) -> tuple:
        """fn run on the _Degree stand-in (q = 1, m = n = 0) and on the
        _Homogeneous one, once per check: the degree in t and the units of
        every value, summand and factor it returns.  Neither depends on m or
        n, since a formula may not branch on its arguments (_aligned)."""
        if fn not in self.memo:
            x, h = _Degree(1), _Homogeneous(1)
            self.memo[fn] = fn(0, 0, self.N, x, x, x, 1), fn(h, h, h, h, h, h, h)
        return self.memo[fn]

    def cleared(self, fn, m, n, swap: bool, signs: tuple) -> tuple:
        """The coefficients (coeffs, D) an exact formula fn gives at (m, n)
        and this point, with signs folded in, then D: one integer pair
        (numerator, denominator) each.

        fn runs on integers, (m, n, N) times q and the scaled triple, so a
        value of degree k (units) is q^k times its own: its pair is (value,
        q^k), each q^k made once per check.  At q = 1, an integer triple or
        the _Degree stand-in, every denominator is 1.
        """
        q = self.q
        coeffs, den = fn(m * q, n * q, self.N * q, *_swapped(self.scaled, swap), q)
        if q == 1:
            return tuple((sg * cf, 1) for sg, cf in zip(signs, coeffs)) + ((den, 1),)
        key = (fn, "powers")
        powers = self.memo.get(key)
        if powers is None:
            units, unit = self.stand_ins(fn)[1]
            powers = self.memo[key] = [q ** _units(k) for k in units], q ** _units(unit)
        signed = ((sg * cf, power) for sg, cf, power in _aligned(signs, coeffs, powers[0]))
        return (*signed, (den, powers[1]))

    def leads(self, fn, m, n, swap: bool) -> list:
        """The lowest-order terms (_leads) of each value fn returns at (m, n)
        along the sweep line.  The summands' powers of q, and the refusal of
        a factor that is not affine, come from the stand-ins once per check;
        a refusal is not memoized, so every call raises it again."""
        key = (fn, "summands")
        powers = self.memo.get(key)
        if powers is None:
            powers = self.memo[key] = _summand_powers(*self.stand_ins(fn), self.q)
        q = self.q
        low, high = (fn(m * q, n * q, self.N * q, *_swapped(ints, swap), q) for ints in self.line)
        return [_leads(*value) for value in _aligned(powers, low, high)]

    def root(self, fn, m, n, swap: bool) -> float:
        """A square-root coefficient, fn giving (radicand, bracket); made
        once per check."""
        key = (fn, m, n, swap)
        if key not in self.memo:
            self.memo[key] = _sq(*_signed_square(*self.leads(fn, m, n, swap)))
        return self.memo[key]

    def limit(self, fn, m, n, swap: bool) -> float:
        """A plain coefficient, fn giving one value; made once per check."""
        key = (fn, m, n, swap)
        if key not in self.memo:
            self.memo[key] = truediv(*_limit(*self.leads(fn, m, n, swap)))
        return self.memo[key]


def _sweep_degrees(row: _Relation, degrees, N: int) -> list:
    """D_{m,n} for every degree pair (m, n) of degrees: a bound on the
    degree in t of every quantity the sweep of instance (m, n) tests.

    P_{m',n'} has degree at most m' + n' in t: each eval_total factor of the
    chain has degree in the parameters equal to its own index.  So a term
    has degree at most deg(coefficient) + m' + n', and an off-simplex
    coefficient, which must vanish by itself, at most deg(coefficient).  A
    coefficient's degree, read on the _Degree stand-in, does not depend on
    the values of m and n (_aligned forbids a formula that branches), so it
    is read once per row, at m = n = 0.
    """
    x = _Degree(1)
    at = _At(N, (x, x, x))
    d, point = row.per_degree(at, 0, 0), row.per_point(at, 0, 0)
    terms = [
        (sum(_deg(share(part)[0]) for share, part in ((t.scale, d), (t.factor, point)) if share is not None), t.degree)
        for t in row.lhs + row.rhs
    ]
    return [max(deg + max(m + dm + n + dn, 0) for deg, (dm, dn) in terms) for m, n in degrees]


def _index(i: int, k: int, level: int) -> int:
    """The position of (i, k) in simplex_points(level, 2), or -1 off the simplex."""
    if i < 0 or k < 0 or i + k > level:
        return -1
    return k * (level + 1) - k * (k - 1) // 2 + i


def _indices(m, n, i, k, t, target=None) -> dict:
    indices = {"degree": (m, n), "point": (i, k)}
    if target is not None:
        indices["target"] = target
    if t:
        indices["t"] = t
    return indices


def _exact_fail(name, indices, lhs, rhs) -> CheckResult:
    return CheckResult.failure(name, "nonzero", indices, format_rational(lhs), format_rational(rhs))


def _target(term: _Term, mm: int, nn: int, point: tuple) -> dict:
    return {"degree": (mm, nn), "point": (point[0] + term.point[0], point[1] + term.point[1])}


class _Reader(NamedTuple):
    """What the terms of a row that read one parameter shift, level, grid
    displacement and per-point share have in common: the target of each grid
    point (where, None when it is the grid point itself), and the grid
    points whose target is off the simplex (outside)."""

    params: tuple
    level: int
    factor: Callable | None
    where: list | None
    outside: list


def _readers(row: _Relation, grid: tuple, N: int) -> tuple:
    """The row's readers, and its terms as (side, term, reader index)."""
    readers, index, terms = [], {}, []
    for side, part in enumerate((row.lhs, row.rhs)):
        for term in part:
            key = (term.params, N + term.level, term.point, term.factor)
            if key not in index:
                level = N + term.level
                where = [_index(i + term.point[0], k + term.point[1], level) for i, k in grid]
                outside = [g for g, w in enumerate(where) if w < 0]
                identity = level == N + row.grid and term.point == (0, 0)
                index[key] = len(readers)
                readers.append(_Reader(term.params, level, term.factor, None if identity else where, outside))
            terms.append((side, term, index[key]))
    return readers, terms


def _exact_check(row: _Relation, check: _Check) -> CheckResult:
    """The first failure of a P row in the canonical order: degree pair,
    then grid point, then sample point, and of one instance the off-simplex
    obligation before the residual.

    Sample points run outermost: each builds its tables, decides every
    degree pair whose sweep reaches it (_sample), and drops them.  An
    ArithmeticError counts as a failure of its degree pair ahead of that
    pair's grid points, where the pair-major walk would have met it; once a
    failure is known, only the degree pairs up to its own are walked on.
    """
    N = check.p.N
    grid = tuple(simplex_points(N + row.grid, 2))
    degrees = tuple(simplex_points(N + row.degrees, 2))
    tops = _sweep_degrees(row, degrees, N) if row.swept else [0] * len(degrees)
    readers, terms = _readers(row, grid, N)
    first = None  # ((degree pair, grid point, sample point), CheckResult or ArithmeticError)
    for t in range(max(tops, default=-1) + 1):
        live = [j for j, top in enumerate(tops) if top >= t and (first is None or j <= first[0][0])]
        if not live:
            break
        for event in _sample(row, check, t, grid, degrees, live, readers, terms):
            if first is None or event[0] < first[0]:
                first = event
    if first is None:
        return CheckResult.exact_pass(row.name)
    if isinstance(first[1], ArithmeticError):
        raise first[1]
    return first[1]


class _Slots:
    """count signed slots of nb bytes in one int: pack(v) = sum_g v_g 2^(B g)
    with B = 8 nb, for every |v_g| < 2^(B-1)."""

    def __init__(self, nb: int, count: int):
        self.nb, self.width = nb, 8 * nb
        self.half = 1 << (self.width - 1)
        self.bias = int.from_bytes((bytes(nb - 1) + b"\x80") * count, "little")  # half in every slot

    def pack(self, values) -> int:
        """Each v_g + half is a slot's unsigned bytes; the bias comes off once."""
        half, nb = self.half, self.nb
        return int.from_bytes(b"".join([(v + half).to_bytes(nb, "little") for v in values]), "little") - self.bias

    def first(self, lhs: int, rhs: int):
        """(g, lhs_g, rhs_g) at the first slot where two packed sums differ,
        or None.  With the bias on, every slot is an unsigned digit, so the
        lowest differing bit lies in that slot."""
        lhs, rhs = lhs + self.bias, rhs + self.bias
        differ = lhs ^ rhs
        if not differ:
            return None
        width = self.width
        g = ((differ & -differ).bit_length() - 1) // width
        mask = (1 << width) - 1
        return g, ((lhs >> (width * g)) & mask) - self.half, ((rhs >> (width * g)) & mask) - self.half


def _slot_bytes(bits: int) -> int:
    """Bytes per packed slot for sums below 2^bits in size: the fewest
    whole bytes B / 8 with bits < B."""
    return bits // 8 + 1


def _sample(row, check, t, grid, degrees, live, readers, terms) -> list:
    """The failures at sample point t of the live degree pairs, as (key,
    CheckResult or ArithmeticError) with key (degree pair, grid point, t).

    Every part is an integer.  A reader's per-point shares are cleared over
    one denominator e; a term of an instance is then a/b times X_g/e times
    the value row_g/sigma, and with the instance's scale S, the lcm of every
    b e sigma, S times each side at grid point g is the integer sum over its
    terms of W X_g row_g, W = a S / (b e sigma).  Each side is packed into
    one int, sum_j W_j pack(X_j row_j); the slot width B is the sample
    point's largest bound bits (_weigh) plus one, in whole bytes, and each
    instance's bound is checked against it before its sides are compared
    (the proof is in the module docstring).  A failing instance's slots are
    decoded only to name its first grid point and both sides there.
    """
    try:
        at = check.at(t)
        xs = [row.per_point(at, i, k) for i, k in grid]
        shares = [_cleared_shares(reader, xs) for reader in readers]
        tables = [check.values(t, reader.params) for reader in readers]
    except ArithmeticError as err:
        return [((live[0], -2, t), err.with_traceback(None))]
    plan = [  # per term: what its reads at this sample point need
        (side, term.sign, term.scale, *term.degree, r, readers[r].level, tables[r], *shares[r][1:])
        for side, term, r in terms
    ]
    events, weighed, products = [], [], {}
    for j in live:
        if events and j > events[0][0][0]:
            break
        try:
            weighed.append(_weigh(row, at, degrees[j], plan, readers, shares, tables, products) + (j,))
        except ArithmeticError as err:
            events.append(((j, -1, t), err.with_traceback(None)))  # its frames would keep the tables alive
    if not weighed:
        return events
    slots = _Slots(_slot_bytes(max(bits for _, bits, *_ in weighed)), len(grid))
    packs = {}
    for parts, bits, scale, off, d, j in weighed:
        if events and j > events[0][0][0]:
            break
        m, n = degrees[j]
        if bits >= slots.width:
            events.append(((j, -1, t), ArithmeticError(
                f"a packed slot of {slots.width} bits is too narrow for sums of {bits} bits;"
                " the comparison would be unsound"
            )))
            continue
        sides = [0, 0]
        for side, weight, key in parts:
            packed = packs.get(key)
            if packed is None:
                packed = packs[key] = slots.pack(products[key][0])
            sides[side] += weight * packed
        differ = slots.first(*sides)
        if off is not None and (differ is None or off[0] <= differ[0]):
            g, idx, mm, nn = off
            term = terms[idx][1]
            report = _exact_fail(row.name, _indices(m, n, *grid[g], t, _target(term, mm, nn, grid[g])),
                                 term.coef(d, xs[g]), 0)
        elif differ is not None:
            g, lhs, rhs = differ
            report = _exact_fail(row.name, _indices(m, n, *grid[g], t), Rat(lhs, scale), Rat(rhs, scale))
        else:
            continue
        events.append(((j, g, t), report))
        events.sort(key=lambda event: event[0])
    return events


def _cleared_shares(reader: _Reader, xs: list) -> tuple:
    """A reader's per-point shares at one sample point, cleared over one
    denominator e, as (X, e, the first grid point whose share is not 0, the
    first such grid point whose target is off the simplex); X is None for
    a share of 1 everywhere."""
    if reader.factor is None:
        return None, 1, 0 if xs else None, reader.outside[0] if reader.outside else None
    pairs = [reader.factor(x) for x in xs]
    e = math.lcm(*(den for _, den in pairs))
    X = [num if den == e else num * (e // den) for num, den in pairs]
    nonzeros = [g for g, v in enumerate(X) if v]
    outside = set(reader.outside)
    return X, e, next(iter(nonzeros), None), next((g for g in nonzeros if g in outside), None)


def _weigh(row, at, degree, plan, readers, shares, tables, products) -> tuple:
    """One instance's integer weights at a sample point, as (parts, bits,
    scale, off, d): each term on the simplex as (side, W, product key), the
    slot bound bits, the scale S, the first grid point (g, term, target
    degree pair) at which a term whose target is off the simplex has a
    nonzero coefficient, or None, and the per-degree part d.  The products X
    row of every key are filled into products as they are first read."""
    m, n = degree
    d = row.per_degree(at, m, n)
    reads, dens, off = [], [], None
    for idx, (side, sign, share, dm, dn, r, level, table, e, anywhere, outside) in enumerate(plan):
        a, b = (1, 1) if share is None else share(d)
        mm, nn = m + dm, n + dn
        if 0 <= mm and 0 <= nn and mm + nn <= level:
            den = b * e * table.den(mm, nn, level)
            dens.append(den)
            reads.append((side, sign * a, den, (r, mm, nn)))
            bad = outside
        else:
            bad = anywhere
        if a and bad is not None and (off is None or bad < off[0]):
            off = (bad, idx, mm, nn)
    scale = nonzero(math.lcm(*dens), "the common denominator of an instance")
    parts, bits = [], 0
    for side, a, den, key in reads:
        weight = a * (scale // den)
        if not weight:
            continue
        if key not in products:
            r, mm, nn = key
            reader, X = readers[r], shares[r][0]
            values = tables[r].row(mm, nn, reader.level)
            if reader.where is not None:
                values = (*values, 0)
                values = [values[w] for w in reader.where]
            if X is not None:
                values = [x * v for x, v in zip(X, values)]
            products[key] = values, max(map(abs, values), default=0).bit_length()
        parts.append((side, weight, key))
        bits = max(bits, weight.bit_length() + products[key][1])
    return parts, bits + len(parts).bit_length(), scale, off, d


def _float_check(row: _Relation, check: _Check) -> CheckResult:
    """The largest scale-normalized residual |lhs - rhs| / (1 + max(|lhs|,
    |rhs|)) over every instance at the base point, degree pair outermost,
    then grid point.  A term whose target is off the simplex while its
    coefficient is not zero fails first, at the first such grid point."""
    N = check.p.N
    worst, example = 0.0, (0, 0, 0, 0, 0.0, 0.0)
    degrees = tuple(simplex_points(N + row.degrees, 2))
    if degrees:  # the per-point parts are made only for a row with instances
        at = check.at(0)
        grid = tuple(simplex_points(N + row.grid, 2))
        xs = [row.per_point(at, i, k) for i, k in grid]
        readers, terms = _readers(row, grid, N)
        tables = [check.values(0, reader.params) for reader in readers]
        factors = [None if reader.factor is None else [reader.factor(x) for x in xs] for reader in readers]
    for m, n in degrees:
        d = row.per_degree(at, m, n)
        sides, off = [[None] * len(grid), [None] * len(grid)], {}
        for side, term, r in terms:
            weight = term.sign if term.scale is None else term.sign * term.scale(d)
            weights = [weight] * len(grid) if factors[r] is None else [weight * f for f in factors[r]]
            reader = readers[r]
            mm, nn = m + term.degree[0], n + term.degree[1]
            if 0 <= mm and 0 <= nn and mm + nn <= reader.level:
                values = (*tables[r].qrow(mm, nn, reader.level), None)
                values, outside = (values[:-1] if reader.where is None else [values[w] for w in reader.where]), reader.outside
            else:
                values, outside = [None] * len(grid), range(len(grid))
            for g in outside:
                if weights[g] and g not in off:
                    off[g] = (weights[g], _target(term, mm, nn, grid[g]))
            sides[side] = _add(sides[side], [None if v is None else w * v for w, v in zip(weights, values)])
        lhs, rhs = ([0.0 if v is None else v for v in side] for side in sides)
        for g, (i, k) in enumerate(grid):
            if g in off:
                return CheckResult.failure(row.name, "nonzero", _indices(m, n, i, k, 0, off[g][1]), f"{off[g][0]:.17g}", "0")
            scaled = abs(lhs[g] - rhs[g]) / (1.0 + max(abs(lhs[g]), abs(rhs[g])))
            if scaled > worst:
                worst, example = scaled, (m, n, i, k, lhs[g], rhs[g])
    m, n, i, k, lhs, rhs = example
    return CheckResult.float_verdict(row.name, worst, _indices(m, n, i, k, 0), lhs, rhs)


def _add(total: list, part: list) -> list:
    """Pointwise sum of two lists of side sums, None being the empty sum."""
    return [b if a is None else a if b is None else a + b for a, b in zip(total, part)]


def _relations(check_name: str):
    """The check that runs, in order, every row named check_name or check_name[...]."""

    def run(p: BiParams) -> list[CheckResult]:
        check = _Check(p)
        rows = [row for name, row in _RELATIONS.items() if name.split("[")[0] == check_name]
        return [
            _guarded(row.name, _exact_check if row.plane == "P" else _float_check, row, check) for row in rows
        ]

    return run


# Relation checks in row order, the exact ones before genfun as they always were.
_RELATION_CHECKS = {name.split("[")[0]: row.plane for name, row in _RELATIONS.items()}
_BI_CHECKS = {
    "orthogonality": lambda p: [_guarded("orthogonality", _check_orthogonality, p)],
    "symmetry": lambda p: [_guarded("symmetry", _check_symmetry, p)],
    **{name: _relations(name) for name, plane in _RELATION_CHECKS.items() if plane == "P"},
    "genfun": _check_genfun,
    **{name: _relations(name) for name, plane in _RELATION_CHECKS.items() if plane == "Q"},
}

BI_CHECK_NAMES = tuple(_BI_CHECKS)


def verify_bi(check: str, p: BiParams) -> VerificationReport:
    try:
        fn = _BI_CHECKS[check]
    except KeyError:
        raise ValueError(f"unknown check {check!r}; expected one of {BI_CHECK_NAMES}") from None
    if p.N > MAX_BI_LEVEL:
        raise ValueError(f"the bi checks at level {p.N} are refused; the cap is {MAX_BI_LEVEL}")
    return VerificationReport(suite="bi", params=p.echo(), checks=tuple(fn(p)))
