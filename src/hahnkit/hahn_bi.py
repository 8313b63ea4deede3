"""Bivariate Hahn polynomials on the triangular lattice i + k <= N.

Three normalizations coexist.  P carries rational values and satisfies
every appendix-style identity with rational coefficients.  H = P/(m! n!)
is a relabeling.  The orthonormal Q = (h.h)/sqrt(Lambda) obeys ladder,
structure, recurrence, and difference relations whose coefficients carry
square roots.  Every relation, on either plane, is checked to literal zero.

Relations are data.  Each shift, recurrence, difference and structure
relation is one row (_Relation): its degree and grid domains as level
offsets, and its lhs and rhs terms, each a coefficient times the value at
a shifted degree, grid point, parameter triple and level.  One runner
checks every row, those on the P plane and those on the Q plane.  It reads
values from tables (_Values), one per parameter triple, that a check makes
as it reads and drops when it ends.  A term whose target leaves the
simplex must have a zero coefficient; that proof obligation is checked like
the residual, and a nonzero coefficient is reported as a failure naming
the target.

The checks run on Python ints.  A table gives the P values of a degree
pair and level as integer numerators, the d = 2 rows of the simplex
layer's ChainTable, over one denominator sigma made once per degree pair
and level; grid points and degree pairs both run in simplex_points(N, 2)
order, a position in it is read from simplex_positions (a target off the
simplex is no key), a point or degree pair passed in is checked by
require_point, and the weight is simplex_weight's.  Orthogonality (the
Gram check of every d, simplex.gram_mismatch, against the closed-form norm
simplex.chain_norm) and symmetry compare integers and make rationals only
to report a failure.  Every scale a comparison is multiplied by is shown
nonzero first, since a zero one would make any identity hold.

The relation runner walks sample points outermost, all rows of a check
together: at each t, every row whose sweep reaches t decides its instances
(m, n) there in row order, on that point's tables, each built once for all
the rows; after each row's pass, the tables no later pass at t reads are
dropped, so at most one sample point's tables are alive, and only those
still to be read.  A table keeps no rows: a pass makes each row it reads
once, at its first read there, together with every read of it that the
pass's readers on that table and level still need, and drops the row at
once; each read lives until the last instance that reads it, and a later
pass that reads the row makes it again.  A coefficient is a per-degree
share times a per-point share, each an integer pair (numerator,
denominator) made on the triple cleared to its denominator q: the
per-point shares once per sample point, over one denominator per term,
the per-degree ones once per instance.
Each side of an instance is then an integer vector, one entry per grid
point, sum_j W_j (X_j row_j): the integer weight W_j of term j times the
products of its per-point integers X_j and its table row, read straight
from the row.  The runner compares the two vectors entry by entry.  Python
ints are exact at any size, so the sides agree exactly when every grid
point does, and the comparison needs no bound of its own.  A failing
instance names its first differing grid point, and the first failure in
the order degree pair, grid point, sample point (an off-simplex obligation
before the residual of its instance) is reported.

A Q-plane term is a rational times a square root.  Its per-degree share is
a signed square (sign, (num, den)), standing for sign sqrt(num / den), its
per-point share an integer pair as on the P plane, and its value the table
row over the chain denominator times sqrt(1 / Lambda) (_Values.norm, with
Lambda from simplex.chain_norm).  So a term of an instance is r_g sqrt(R):
r_g rational at grid point g, and the radicand R = num Lambda_den / (den
Lambda_num) fixed by the instance alone.  Square roots of rationals from distinct square classes are
linearly independent over the rationals (Besicovitch 1940), so a side sum
vanishes exactly when its sum over each class does.  The runner therefore
partitions an instance's terms by square class: R and S share one when
R / S is the square of a rational, which two isqrts of the reduced
quotient decide, with no factoring.  Each term is rescaled to its class
representative by the rational sqrt(R / S), and each class is weighed
and compared as a P instance is.  A P term has R = 1, so a P instance is
one class.  A failure names the radicand of its class, and the class's two
sides at the first failing grid point in units of its square root.

Rational relation coefficients can hit removable 0/0 at special parameter
points (2m + a12 = 0 and friends).  The nine-point recurrences and the
level-raising structure relations are therefore checked cleared of their
denominators, as polynomial identities in the parameters: along the line
(alpha1 + t, alpha2 + 3t, alpha3 + 5t) the residual is a polynomial in t of
a degree D computed from the coefficient formulas, so vanishing at the
D + 1 rational points t = 0..D proves it vanishes identically, which
subsumes the base-point identity t = 0.  The Q-plane root coefficients
take the limit t -> 0+ along the same line.  Their formulas return factors
linear in the parameters, so two exact evaluations, at t = 0 and t = 1,
give each factor's value and slope, and from those the limit.

The coefficient formulas run on Python ints as well.  Each takes (m, n, N,
a1, a2, a3, q), every constant carrying the unit q, so every value it
returns is homogeneous of some degree k in its seven arguments.  Run on the
triple cleared to its denominator Q, with m, n, N and q times Q, it gives
Q^k times the value, an integer.  Each k is read off a run on a stand-in
(_Homogeneous), which also refuses a constant that lost its q.  A swept
coefficient is then one integer pair, and each summand of a limit the
integer pair of its factors and slopes (slope at t = 1: A_j + c_j Q) and
its power of Q.  The summands add as integer pairs, so a limit is one
integer pair and a root coefficient the signed square of one.  The powers
of Q and the refusal of a factor that is not affine depend only on the
stand-in outputs and are read once per formula and check; the shape check
(_aligned) runs on every call.  Every other Q-plane coefficient, and Lambda
under each Q value's root, is an integer pair on the cleared triple too.
"""
from __future__ import annotations

import math
from collections import Counter
from operator import mul
from typing import Callable, NamedTuple

from .numeric import (
    Rat,
    RadicalScalar,
    factorial,
    format_rational,
    nonzero,
    rising,
)
from .reports import CheckResult, VerificationReport, _guarded
from .simplex import (
    ChainTable,
    chain_norm,
    cleared,
    genfun_mismatch,
    gram_mismatch,
    gram_pieces,
    overlap_floats,
    overlap_squares,
    require_point,
    simplex_points,
    simplex_positions,
    simplex_weight,
)

# The largest level whose sixteen checks fit in criterion 03's 60 s budget
# on the fractions backend, timed in one fresh process per level (cost curve
# in the README); verify_bi refuses a level above it.  Time sets it, not
# memory: with each chain-table row dropped once its pass has made its reads,
# the suite peaks near 42 MB at 30 and 44 MB at 31.
MAX_BI_LEVEL = 30

# The largest level at which the float and the exact overlap (overlap2) and
# the chain factors with their product (oracle.chain_matrices) each fit in
# 60 s on the fractions backend with a peak of at most 2 GB, timed in one
# fresh process per level and command (cost curve in the README); both
# refuse a level above it before any table is built.
MAX_OVERLAP_LEVEL = 62


class _BiFields(NamedTuple):
    alpha1: object
    alpha2: object
    alpha3: object
    N: int


class BiParams(_BiFields):
    """(alpha1, alpha2, alpha3, N), the parameters coerced to rationals and
    checked."""

    __slots__ = ()

    def __new__(cls, alpha1, alpha2, alpha3, N):
        self = super().__new__(cls, Rat(alpha1), Rat(alpha2), Rat(alpha3), N)
        if not isinstance(N, int) or N < 0:
            raise ValueError("N must be a nonnegative integer")
        if min(self.alpha1, self.alpha2, self.alpha3) <= -1:
            raise ValueError("parameters must exceed -1")
        return self

    @property
    def a12(self):
        return self.alpha1 + self.alpha2

    @property
    def a123(self):
        return self.alpha1 + self.alpha2 + self.alpha3

    def echo(self) -> dict:
        return {
            "alpha1": format_rational(self.alpha1),
            "alpha2": format_rational(self.alpha2),
            "alpha3": format_rational(self.alpha3),
            "N": self.N,
        }


# ---------------------------------------------------------------------------
# weight and the three polynomial normalizations


def weight2(g, p: BiParams):
    """Simplex weight w_{i,k;N}; a negative-multinomial style distribution,

        N! / (i! k! (N-i-k)!) (a1+1)_i (a2+1)_k (a3+1)_{N-i-k} / (a1+a2+a3+3)_N,

    simplex_weight at d = 2.
    """
    point = require_point(g, p.N, 2, "grid point")
    nums, den = simplex_weight((p.alpha1, p.alpha2, p.alpha3), p.N)
    return Rat(nums[simplex_positions(p.N, 2)[point]], den)


def p2_eval(d, g, p: BiParams):
    """Unnormalized bivariate value, prefactor 1/(-N)_{m+n}."""
    m, n = require_point(d, p.N, 2, "degree pair")
    i, k = require_point(g, p.N, 2, "grid point")
    return _Values(p.alpha1, p.alpha2, p.alpha3).p(m, n, i, k, p.N)


def h2_eval(d, g, p: BiParams):
    """The factorial-rescaled normalization; read-only alias of P/(m! n!)."""
    m, n = require_point(d, p.N, 2, "degree pair")
    return p2_eval(d, g, p) / (factorial(m) * factorial(n))


def lambda2(d, p: BiParams):
    """Norm of P_{m,n} under the simplex weight: bigLambda / ((-N)_{m+n})^2."""
    return bigLambda(d, p) / rising(-p.N, sum(d)) ** 2


def bigLambda(d, p: BiParams):
    """Squared norm of the bare product chain: simplex.chain_norm at d = 2."""
    m, n = require_point(d, p.N, 2, "degree pair")
    return Rat(*chain_norm(cleared(p.alpha1, p.alpha2, p.alpha3), (m, n), p.N))


def q2_eval(d, g, p: BiParams) -> RadicalScalar:
    """Orthonormal value (h.h)/sqrt(Lambda), exact radical form."""
    m, n = require_point(d, p.N, 2, "degree pair")
    i, k = require_point(g, p.N, 2, "grid point")
    chains = ChainTable((p.alpha1, p.alpha2, p.alpha3))
    hh = Rat(chains.num((m, n), (i, k), p.N), chains.den((m, n)))
    return RadicalScalar(hh, 1 / bigLambda(d, p))


class _Values:
    """Values of the family at one parameter triple, made as they are read.

    The chain is the nested product h_m(i; a1, a2; i+k) h_n(i+k-m;
    2m+a1+a2+1, a3; level-m), the d = 2 ChainTable: a genuine bivariate
    polynomial of total degree m + n, as the inner level i+k depends on the
    grid point.  P is the same integers over sigma = chains.den
    (-level)_{m+n}.  row makes them over a whole grid on each call (the
    chain table keeps its heads and lines, not its rows), p makes a single
    rational, and norm gives what turns a row into the Q values.  triple is
    the chain table's cleared triple.
    """

    def __init__(self, a1, a2, a3):
        self.a1, self.a2, self.a3 = a1, a2, a3
        self.chains = ChainTable((a1, a2, a3))
        self.triple = self.chains.cleared
        self._dens, self._norms = {}, {}

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
        """The P numerators of degree pair (m, n) over simplex_points(level, 2),
        made on each call."""
        return self.chains.row((m, n), level)

    def p(self, m, n, i, k, level):
        return Rat(self.chains.num((m, n), (i, k), level), self.den(m, n, level))

    def norm(self, m, n, level) -> tuple:
        """(den, (num, lam)): the Q values of degree pair (m, n) at level are
        row / den times sqrt(num / lam), 1 / bigLambda as an integer pair;
        made once per degree pair and level."""
        key = (m, n, level)
        out = self._norms.get(key)
        if out is None:
            lam, num = chain_norm(self.triple, (m, n), level)
            out = self._norms[key] = (
                nonzero(self.chains.den((m, n)), "the denominator of a Q value"),
                (num, nonzero(lam, "the norm under a Q value's root")),
            )
        return out


# ---------------------------------------------------------------------------
# overlap matrices


class OverlapMatrix(NamedTuple):
    """Interbasis expansion coefficients sqrt(w) Q on the full simplex.

    Rows run over grid points, columns over degree pairs, both in the colex
    order of simplex_points(N, 2); the matrix is square of side
    (N+1)(N+2)/2.  In float mode the entries are simplex.overlap_floats at
    d = 2.  In squared mode each entry is the exact rational w (h.h)^2 /
    Lambda carrying the sign of the entry itself (simplex.overlap_squares),
    so column sums of absolute values reproduce the float column norms
    exactly.
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
    """The overlap matrix at d = 2, "float" or "squared" (OverlapMatrix); a
    level above MAX_OVERLAP_LEVEL is refused before any table is built."""
    if mode not in ("float", "squared"):
        raise ValueError(f"unknown overlap mode {mode!r}")
    if p.N > MAX_OVERLAP_LEVEL:
        raise ValueError(f"the overlap at level {p.N} is refused; the cap is {MAX_OVERLAP_LEVEL}")
    pieces = gram_pieces((p.alpha1, p.alpha2, p.alpha3), p.N)
    if mode == "float":
        columns = overlap_floats(*pieces)
    else:
        columns = [[Rat(num, den) for num in nums] for nums, den in overlap_squares(*pieces)]
    rows = cols = tuple(simplex_points(p.N, 2))
    return OverlapMatrix(params=p, mode=mode, rows=rows, cols=cols, entries=tuple(zip(*columns)))


# ---------------------------------------------------------------------------
# the three checks that are not linear relations


def _check_orthogonality(p: BiParams) -> CheckResult:
    """The Gram check of every d (simplex.gram_mismatch) at d = 2, reported
    on P = chain / (-N)_{m+n}: each side of entry (a, b) over
    (-N)_{|a|} (-N)_{|b|}, so a diagonal one's rhs is lambda2."""
    bad = gram_mismatch(*gram_pieces((p.alpha1, p.alpha2, p.alpha3), p.N))
    if bad is None:
        return CheckResult.exact_pass("orthogonality")
    (a, b), lhs, rhs = bad
    degs = tuple(simplex_points(p.N, 2))
    scale = rising(-p.N, sum(degs[a])) * rising(-p.N, sum(degs[b]))
    return CheckResult.mismatch("orthogonality", {"degrees": [degs[a], degs[b]]}, lhs / scale, rhs / scale)


def _check_symmetry(p: BiParams) -> CheckResult:
    """P at (i, k) against (-1)^m times the parameter-swapped P at (k, i).
    Both triples clear to the same Q, so the two values share their
    denominator and the numerators are compared."""
    name = "symmetry"
    table = _Values(p.alpha1, p.alpha2, p.alpha3)
    swapped = _Values(p.alpha2, p.alpha1, p.alpha3)
    positions = simplex_positions(p.N, 2)
    for m, n in positions:
        sign, den = (-1) ** m, table.den(m, n, p.N)
        lhs, rhs = table.row(m, n, p.N), swapped.row(m, n, p.N)
        for (i, k), g in positions.items():
            twin = sign * rhs[positions[k, i]]
            if lhs[g] != twin:
                indices = {"degree": (m, n), "point": (i, k)}
                return CheckResult.mismatch(name, indices, Rat(lhs[g], den), Rat(twin, den))
    return CheckResult.exact_pass(name)


def _check_genfun(p: BiParams) -> list[CheckResult]:
    """The generating function at d = 2 (simplex.genfun_mismatch), reported
    at its first failing degree pair and grid point."""
    bad = genfun_mismatch((p.alpha1, p.alpha2, p.alpha3), p.N)
    if bad is None:
        return [CheckResult.exact_pass("genfun")]
    degree, point, lhs, rhs = bad
    return [CheckResult.mismatch("genfun", {"degree": degree, "point": point}, lhs, rhs)]


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
    """Per value of a root or limit formula, per summand, the pair
    (q^max(k, 0), q^max(-k, 0)) that turns its two integer factor products
    into its numerator and denominator: k is the units of its denominator
    factors less those of its numerator factors.

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


def _squared(pair: tuple) -> tuple:
    """A rational (num, den), den > 0, as the signed square (sign, (num^2,
    den^2)) that a Q-row per-degree share is."""
    num, den = pair
    return (num > 0) - (num < 0), (num * num, den * den)


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
    A share is an exact rational as an integer pair (numerator,
    denominator), except a per-degree share on the Q plane: a signed square
    (sign, (num, den)), sign sqrt(num / den).
    """

    scale: Callable | None = None
    factor: Callable | None = None
    sign: int = 1
    degree: tuple = (0, 0)
    point: tuple = (0, 0)
    params: tuple = (0, 0, 0)
    level: int = 0

    def coef(self, d, x):
        """The coefficient as one number, a rational or, from a signed
        square, a RadicalScalar; made for a report only."""
        value = self.sign
        for share, part in ((self.scale, d), (self.factor, x)):
            if share is not None:
                a, b = share(part)
                value = value * (RadicalScalar(a, Rat(*b)) if isinstance(b, tuple) else Rat(a, b))
        return value


class _Relation(NamedTuple):
    """lhs = rhs at every degree pair of level N + degrees and every grid
    point of level N + grid.

    per_degree(c, m, n) and per_point(c, i, k) make the coefficient parts
    that depend on the degree pair alone or the grid point alone, once
    each; c is an _At.  The parts are made on the triple cleared to its
    denominator (c.q, c.scaled).  Plane "P" rows relate P values, plane "Q"
    rows Q values, with per-degree shares that are signed squares.  A swept
    row has its denominators cleared and is checked at the D + 1 points of
    the sweep line; every other row at the base point.
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


def _degree_terms(targets, params=(0, 0, 0), level=0, signs=None) -> tuple:
    """Terms at shifted degree pairs; term j's coefficient is signs[j] d[j]."""
    signs = signs or (1,) * len(targets)
    pairs = enumerate(zip(signs, targets))
    return tuple(_Term(_pick(j), sign=sg, degree=dg, params=params, level=level) for j, (sg, dg) in pairs)


def _point_terms(points, params=(0, 0, 0), level=0) -> tuple:
    """Terms at shifted grid points; term j's coefficient is x[j]."""
    return tuple(_Term(factor=_pick(j), point=g, params=params, level=level) for j, g in enumerate(points))


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


def _normalized_structure(var: str, forward: bool) -> _Relation:
    """Forward: the value at a raised grid point expands over one level down.
    Backward: the value at a lowered grid point one level down expands upward."""
    second = var == "k"
    signs = (1, -1, 1, -1) if second else (1, 1, 1, 1)
    shift, step = ((0, 1, 0), (0, 1)) if second else ((1, 0, 0), (1, 0))
    # the degree shifts at which alpha, beta, gamma and delta are taken
    shifts = ((0, 0), (0, 0), (0, 0), (0, 1)) if forward else ((0, 0), (1, 0), (0, 1), (1, 0))

    def per_degree(c, m, n):
        """The four signed amplitudes, then the square of the prefactor
        sqrt(N (a + 1) / (sig + 3)), a = a2 for the second-variable forms and
        a1 otherwise, or of its inverse for the backward forms."""
        fns = (_coef_alpha, _coef_beta, _coef_gamma, _coef_delta)
        amplitudes = tuple(c.root(fn, m + dm, n + dn, second) for fn, (dm, dn) in zip(fns, shifts))
        q, (A1, A2, A3) = c.q, c.scaled
        prefactor = (c.N * ((A2 if second else A1) + q), A1 + A2 + A3 + 3 * q)
        return amplitudes + ((1, prefactor if forward else prefactor[::-1]),)

    if forward:
        return _Relation(
            f"normalized-structure-float[forward-{var}]", "Q", 0, -1,
            lhs=(_Term(_pick(-1), point=step),),
            rhs=_degree_terms(((0, 0), (-1, 0), (0, -1), (-1, 1)), shift, -1, signs), per_degree=per_degree,
        )
    return _Relation(
        f"normalized-structure-float[backward-{var}]", "Q", -1, 0,
        lhs=(_Term(_pick(-1), _itself, point=(-step[0], -step[1]), params=shift, level=-1),),
        rhs=_degree_terms(((0, 0), (1, 0), (0, 1), (1, -1)), signs=signs), per_degree=per_degree,
        per_point=_grid_variable(second),
    )


def _normalized_recurrence(var: str) -> _Relation:
    second = var == "k"
    return _Relation(
        f"normalized-recurrence-float[{var}]", "Q", 0, 0,
        lhs=(_Term(factor=_itself),),
        rhs=_degree_terms(((0, 0),) + tuple(tg for tg, _, _ in _NINE_POINT), signs=(1,) + _NINE_SIGNS[var]),
        per_degree=lambda c, m, n: (_squared(c.limit(_coef_rec_e, m, n, second)),) + tuple(
            c.root(fn, m + em, n + en, second) for _, fn, (em, en) in _NINE_POINT
        ),
        per_point=_grid_variable(second),
    )


def _l1_eigenvalue(c, m, n):
    """-m (m + s + 1), over q."""
    q, (A1, A2, _) = c.q, c.scaled
    return -m * ((m + 1) * q + A1 + A2), q


def _l2_eigenvalue(c, m, n):
    """-(m + n) (m + n + sig + 2), over q."""
    return -(m + n) * ((m + n + 2) * c.q + sum(c.scaled)), c.q


# The per-degree parts of the four normalized lowering rows are the square
# roots of these squares of the ratios of the Q normalizations, each an
# integer pair on the cleared triple, with S = A1 + A2 and T = S + A3 (q s
# and q sig).


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


# The 24 relation rows, in report order, the last six the Q-plane twins
# added below.  m = 0 and n = 0 keep the backward sweeps honest: there the
# right side must cancel by itself.
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
)}


# The Q-plane twins of both difference rows and the four shift rows: the
# same terms on Q values, their per-degree shares signed squares.
_RELATIONS.update({
    twin: _RELATIONS[name]._replace(name=twin, plane="Q", per_degree=share)
    for name, twin, share in (
        ("diff-L1", "normalized-difference-float[first]", lambda c, m, n: _squared(_l1_eigenvalue(c, m, n))),
        ("diff-L2", "normalized-difference-float[second]", lambda c, m, n: _squared(_l2_eigenvalue(c, m, n))),
        ("forward-shift-m", "normalized-lowering-float[raise-m]", lambda c, m, n: (1, _raise_m_square(c, m, n))),
        ("forward-shift-n", "normalized-lowering-float[raise-n]", lambda c, m, n: (1, _raise_n_square(c, m, n))),
        ("backward-shift-m", "normalized-lowering-float[lower-m]", lambda c, m, n: (1, _lower_m_square(c, m, n))),
        ("backward-shift-n", "normalized-lowering-float[lower-n]", lambda c, m, n: (1, _lower_n_square(c, m, n))),
    )
})


# ---------------------------------------------------------------------------
# the relation runner


class _Check:
    """What one verify_bi call shares among its rows: the points of its
    sweep line, the value tables of one sample point, and a memo of the
    coefficient formulas' units and roots, each made once and dropped with
    the call."""

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
        """The table at sample point t's triple shifted by params, made once
        per sample point and shift while kept.  The tables of another sample
        point are dropped first, so those of one sample point at most are
        alive."""
        if t != self.sample:
            self.sample, self.tables = t, {}
        table = self.tables.get(params)
        if table is None:
            table = self.tables[params] = _Values(*(a + s for a, s in zip(self.at(t).triple(False), params)))
        return table

    def keep(self, shifts: set) -> None:
        """Drop the tables of this sample point whose parameter shift is not
        in shifts, the ones no later pass here reads."""
        self.tables = {params: table for params, table in self.tables.items() if params in shifts}


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

    def root(self, fn, m, n, swap: bool) -> tuple:
        """A square-root coefficient as its signed square (sign, (num,
        den)), fn giving (radicand, bracket); made once per check."""
        key = (fn, m, n, swap)
        if key not in self.memo:
            self.memo[key] = _signed_square(*self.leads(fn, m, n, swap))
        return self.memo[key]

    def limit(self, fn, m, n, swap: bool) -> tuple:
        """A plain coefficient as an integer pair (num, den), fn giving one
        value; each is read once per check, so it is not kept."""
        return _limit(*self.leads(fn, m, n, swap))


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


def _indices(m, n, i, k, t, target=None) -> dict:
    indices = {"degree": (m, n), "point": (i, k)}
    if target is not None:
        indices["target"] = target
    if t:
        indices["t"] = t
    return indices


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
                positions = simplex_positions(level, 2)
                where = [positions.get((i + term.point[0], k + term.point[1]), -1) for i, k in grid]
                outside = [g for g, w in enumerate(where) if w < 0]
                identity = level == N + row.grid and term.point == (0, 0)
                index[key] = len(readers)
                readers.append(_Reader(term.params, level, term.factor, None if identity else where, outside))
            terms.append((side, term, index[key]))
    return readers, terms


def _walk(row: _Relation, check: _Check):
    """One row's walk over the sample points, a generator that _run_rows
    drives: before each pass it yields the set of parameter shifts the pass
    reads, and it returns the row's first failure in the canonical order
    (degree pair, then grid point, then sample point, and of one instance
    the off-simplex obligation before the residual), or its pass.

    The pass at sample point t decides every degree pair whose sweep
    reaches t (_sample).  An ArithmeticError counts as a failure of its
    degree pair ahead of that pair's grid points, where the pair-major walk
    would have met it; once a failure is known, only the degree pairs up to
    its own are walked on.
    """
    N = check.p.N
    grid = tuple(simplex_points(N + row.grid, 2))
    degrees = tuple(simplex_points(N + row.degrees, 2))
    tops = _sweep_degrees(row, degrees, N) if row.swept else [0] * len(degrees)
    readers, terms = _readers(row, grid, N)
    shifts = {reader.params for reader in readers}
    first = None  # ((degree pair, grid point, sample point), CheckResult or ArithmeticError)
    for t in range(max(tops, default=-1) + 1):
        live = [j for j, top in enumerate(tops) if top >= t and (first is None or j <= first[0][0])]
        if not live:
            break
        yield shifts
        for event in _sample(row, check, t, grid, degrees, live, readers, terms):
            if first is None or event[0] < first[0]:
                first = event
    if first is None:
        return CheckResult.exact_pass(row.name)
    if isinstance(first[1], ArithmeticError):
        raise first[1]
    return first[1]


def _run_rows(rows: list, check: _Check) -> list[CheckResult]:
    """The rows of one check walked over the sample points together: at
    each sample point, every row whose walk goes on makes its pass there in
    row order, on tables built once for all of them, and after each pass
    the tables no later pass at that point reads are dropped.  Each row's
    result is its walk's, or the failure _guarded makes of an
    ArithmeticError, as if the row ran alone."""
    walks = [_walk(row, check) for row in rows]
    steps = [_guarded(row.name, _step, walk) for row, walk in zip(rows, walks)]
    while True:
        pending = [j for j, step in enumerate(steps) if not isinstance(step, CheckResult)]
        if not pending:
            return steps
        reads = [steps[j] for j in pending]
        for later, j in enumerate(pending, 1):
            steps[j] = _guarded(rows[j].name, _step, walks[j])
            check.keep(set().union(*reads[later:]))


def _step(walk):
    """The shifts walk's next pass reads, or its result once it ends."""
    try:
        return next(walk)
    except StopIteration as end:
        return end.value


def _sample(row, check, t, grid, degrees, live, readers, terms) -> list:
    """The failures at sample point t of the live degree pairs, as (key,
    CheckResult or ArithmeticError) with key (degree pair, grid point, t).

    Every part is an integer.  A reader's per-point shares are cleared over
    one denominator e; a term of an instance is then a/b times X_g/e times
    the value row_g/sigma, times the square root of its class's radicand
    (_weigh), and with the scale S of its class, the lcm of every b e sigma
    there, S times the class's part of each side at grid point g is the
    integer sum over its terms of W X_g row_g, W = a S / (b e sigma).  Each
    side of a class is that sum as an integer vector, one entry per grid
    point: sum_j W_j (X_j row_j).  A table row is made at its first read in
    this pass, once, with every read X_j row_j of it (_read) that a reader
    on its table and level still has uses for, and is dropped at once;
    each read is dropped after the last instance that reads it.  The two
    vectors are compared entry by entry; of an instance, the class that
    differs at the first grid point, the first such in term order, is
    reported, with both sides there.
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
    events, weighed = [], []
    for j in live:
        if events and j > events[0][0][0]:
            break
        try:
            weighed.append(_weigh(row, at, degrees[j], plan) + (j,))
        except ArithmeticError as err:
            events.append(((j, -1, t), err.with_traceback(None)))  # its frames would keep the tables alive
    uses = Counter(key for classes, *_ in weighed for _, _, parts in classes for _, _, key in parts)
    twins = {}  # the readers of one table and level
    for r, reader in enumerate(readers):
        twins.setdefault((reader.params, reader.level), []).append(r)
    reads, zero = {}, [0] * len(grid)  # the reads an instance still to come reads
    for classes, off, d, j in weighed:
        if events and j > events[0][0][0]:
            break
        m, n = degrees[j]
        differ = None
        for radicand, scale, parts in classes:
            sides = [None, None]
            for side, weight, key in parts:
                if key not in reads:  # the row's first read in this pass: make every read of it still to come
                    r, mm, nn = key
                    made = tables[r].row(mm, nn, readers[r].level)
                    for twin in twins[readers[r].params, readers[r].level]:
                        if uses[twin, mm, nn]:
                            reads[twin, mm, nn] = _read(made, readers[twin].where, shares[twin][0])
                    del made
                read = reads[key]
                uses[key] -= 1
                if not uses[key]:
                    del reads[key]
                acc = sides[side]
                sides[side] = [weight * v for v in read] if acc is None else [s + weight * v for s, v in zip(acc, read)]
            lhs, rhs = (vector or zero for vector in sides)
            if lhs != rhs:
                g = next(g for g, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                if differ is None or g < differ[0]:
                    differ = (g, lhs[g], rhs[g], Rat(*radicand), scale)
        if off is not None and (differ is None or off[0] <= differ[0]):
            g, idx, mm, nn = off
            term = terms[idx][1]
            lhs, rhs, radicand = term.coef(d, xs[g]), 0, 1
            if isinstance(lhs, RadicalScalar):
                lhs, radicand = lhs.coeff, lhs.radicand
            indices = _indices(m, n, *grid[g], t, _target(term, mm, nn, grid[g]))
        elif differ is not None:
            g, lhs, rhs, radicand, scale = differ
            indices, lhs, rhs = _indices(m, n, *grid[g], t), Rat(lhs, scale), Rat(rhs, scale)
        else:
            continue
        if row.plane == "Q":  # the two sides are in units of sqrt(radicand)
            indices["radicand"] = format_rational(radicand)
        events.append(((j, g, t), CheckResult.mismatch(row.name, indices, lhs, rhs)))
        events.sort(key=lambda event: event[0])
    return events


def _read(row, where, X):
    """X_g row[where_g] at every grid point g, straight from a table row, with
    row[-1] read as 0 (a target off the simplex); where is None for the row
    itself and X None for a factor 1."""
    if where is not None:
        row = [*map((*row, 0).__getitem__, where)]
    return row if X is None else [*map(mul, X, row)]


def _cleared_shares(reader: _Reader, xs: list) -> tuple:
    """A reader's per-point shares at one sample point, cleared over one
    denominator e, as (X, e, the first grid point whose share is not 0, the
    first such grid point whose target is off the simplex); X is None for a
    share of 1 everywhere."""
    if reader.factor is None:
        return None, 1, 0 if xs else None, reader.outside[0] if reader.outside else None
    pairs = [reader.factor(x) for x in xs]
    e = math.lcm(*(den for _, den in pairs))
    X = [num if den == e else num * (e // den) for num, den in pairs]
    nonzeros = [g for g, v in enumerate(X) if v]
    outside = set(reader.outside)
    return X, e, next(iter(nonzeros), None), next((g for g in nonzeros if g in outside), None)


def _weigh(row, at, degree, plan) -> tuple:
    """One instance's integer weights at a sample point, as (classes, off,
    d): each square class as (radicand, scale S, parts), its terms on the
    simplex with a coefficient not 0 as (side, W, read key); the first grid
    point (g, term, target degree pair) at which a term whose target is off
    the simplex has a nonzero coefficient, or None; and the per-degree part
    d.

    A P term's radicand is 1.  A Q term's is its per-degree square times
    1 / bigLambda of its target (_Values.norm), and its weight takes the
    sign of the square; a negative square is refused.
    """
    m, n = degree
    d = row.per_degree(at, m, n)
    q_plane = row.plane == "Q"
    classes, off = [], None
    for idx, (side, sign, share, dm, dn, r, level, table, e, anywhere, outside) in enumerate(plan):
        if share is None:
            a, b, radicand = 1, 1, (1, 1)
        elif q_plane:
            (a, radicand), b = share(d), 1
            if min(radicand) < 0:
                raise ArithmeticError("negative squared coefficient; transcription error")
            a *= radicand[0] != 0
        else:
            (a, b), radicand = share(d), (1, 1)
        mm, nn = m + dm, n + dn
        if 0 <= mm and 0 <= nn and mm + nn <= level:
            if q_plane:
                den, (num, lam) = table.norm(mm, nn, level)
                radicand = (radicand[0] * num, radicand[1] * lam)
            else:
                den = table.den(mm, nn, level)
            if a:
                _join(classes, radicand, (side, sign * a, nonzero(b * e * den, "the denominator of a term"), (r, mm, nn)))
            bad = outside
        else:
            bad = anywhere
        if a and bad is not None and (off is None or bad < off[0]):
            off = (bad, idx, mm, nn)
    out = []
    for radicand, reads in classes:
        scale = math.lcm(*(den for _, _, den, _ in reads))
        out.append((radicand, scale, [(side, a * (scale // den), key) for side, a, den, key in reads]))
    return out, off, d


def _join(classes: list, radicand: tuple, read: tuple) -> None:
    """Put read (side, a, den, key), a term a / den times sqrt(radicand),
    into its square class among classes [(representative, reads)]: the
    first whose representative R has radicand / R the square of a rational
    u / v, rescaled to a u / (den v) times sqrt(R), or a new class."""
    for rep, reads in classes:
        ratio = _root_ratio(radicand, rep)
        if ratio is not None:
            side, a, den, key = read
            reads.append((side, a * ratio[0], den * ratio[1], key))
            return
    classes.append((radicand, [read]))


def _root_ratio(r: tuple, s: tuple):
    """sqrt(r / s) as a reduced integer pair (u, v) when r / s is the square
    of a rational, else None; r and s are positive rationals as integer
    pairs.  The reduced quotient is such a square exactly when its
    numerator and denominator are squares of integers."""
    if r == s:
        return 1, 1
    num, den = r[0] * s[1], r[1] * s[0]
    g = math.gcd(num, den)
    num, den = num // g, den // g
    u, v = math.isqrt(num), math.isqrt(den)
    return (u, v) if u * u == num and v * v == den else None


def _relations(check_name: str):
    """The check that runs, in order, every row named check_name or check_name[...]."""

    def run(p: BiParams) -> list[CheckResult]:
        rows = [row for name, row in _RELATIONS.items() if name.split("[")[0] == check_name]
        return _run_rows(rows, _Check(p))

    return run


# Relation checks in row order, the P-plane ones before genfun and the Q-plane
# ones after it, as they always were.
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
