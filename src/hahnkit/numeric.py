"""Exact arithmetic substrate.

Rationals, radical scalars r*sqrt(s), combinatorial factors, terminating
hypergeometric sums and fraction-free kernels.  Rationals are the only
exact number type; the package's one polynomial form, sparse dicts in any
number of variables, is simplex's (sparse_mul, sparse_sum).

Everything in this module is pure and immutable.  The rational backend is
gmpy2.mpq when importable and fractions.Fraction otherwise; both keep
fractions reduced with a positive denominator, which is all the rest of the
package assumes.
"""
from __future__ import annotations

import decimal
import math
import re
from typing import Iterable, Sequence, Union

try:
    from gmpy2 import mpq as _rat_backend
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _rat_backend

RatLike = Union[int, str, "Rational"]


def Rat(numerator: RatLike = 0, denominator: int | None = None):
    """Build a reduced rational from an int, a 'p/q' string, or a rational."""
    if denominator is None:
        return _rat_backend(numerator)
    return _rat_backend(numerator, denominator)


# Concrete backend class, usable in isinstance checks and annotations.
Rational = type(_rat_backend(0))

_ZERO = Rat(0)
_ONE = Rat(1)

_RATIONAL_TEXT = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Rational:
    """Parse 'p' or 'p/q' (q > 0, sign on the numerator only).

    Decimal notation is rejected on purpose: accepting floats would silently
    break the exactness contract of every caller.
    """
    text = text.strip()
    if not _RATIONAL_TEXT.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Rat(text)


def _digits(n) -> str:
    """The decimal digits of an integer of any length: through decimal, as
    str() of an int refuses beyond sys.get_int_max_str_digits(), a limit
    that stays in force for parsing input."""
    return str(decimal.Decimal(int(n)))


def format_rational(value) -> str:
    value = Rat(value)
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def rising(x: int, n: int, q: int = 1) -> int:
    """The integer rising product x (x+q) (x+2q) ... (x+(n-1)q), for q >= 1;
    the empty product is 1.

    At q = 1 it is the Pochhammer symbol (x)_n of an integer x.  For a
    rational a = x/q it is q^n (a)_n: the n rational factors of a rising
    factorial, cleared by their one denominator.
    """
    return math.prod(range(x, x + n * q, q))


def nonzero(scale: int, what: str) -> int:
    """scale, once it is shown nonzero: an identity multiplied through by a
    zero scale holds vacuously, so a zero one is a failure, not a pass."""
    if not scale:
        raise ArithmeticError(f"{what} vanishes; the cleared comparison would hold vacuously")
    return scale


def pochhammer(a, n: int):
    """Rising factorial a(a+1)...(a+n-1); empty product is 1.

    With a = p/q in lowest terms, (a)_n = rising(p, n, q) / q^n: the n
    factors multiply as Python ints and one rational is made at the end.
    """
    if n < 0:
        raise ValueError("pochhammer needs a nonnegative length")
    a = Rat(a)
    q = int(a.denominator)
    return Rat(rising(int(a.numerator), n, q), q**n)


def factorial(n: int):
    if n < 0:
        raise ValueError("negative factorial")
    return Rat(math.factorial(n))


def multinomial(N: int, parts: Sequence[int]):
    """N! / (parts! * residual!) with the residual N - sum(parts) implicit."""
    parts = list(parts)
    if N < 0 or any(p < 0 for p in parts):
        raise ValueError("multinomial arguments must be nonnegative")
    residual = N - sum(parts)
    if residual < 0:
        raise ValueError("parts exceed N")
    out = math.factorial(N)
    for p in parts:
        out //= math.factorial(p)
    out //= math.factorial(residual)
    return Rat(out)


def binomial_general(a, k: int):
    """C(a, k) for rational a and integer k >= 0, as (a-k+1)_k / k!."""
    if k < 0:
        raise ValueError("negative lower index")
    return pochhammer(Rat(a) - k + 1, k) / factorial(k)


def _nonpos_int(value) -> int | None:
    """Return x >= 0 when value is the nonpositive integer -x, else None."""
    if value.denominator != 1 or value.numerator > 0:
        return None
    return -int(value.numerator)


def pfq_terminating(numerators: Iterable, denominators: Iterable, arg):
    """Terminating generalized hypergeometric sum sum_j prod(num)_j / prod(den)_j * arg^j / j!.

    Truncates at the smallest x with a numerator equal to -x.  A nonpositive
    integer denominator -N is cancelled against an unused nonpositive integer
    numerator -x with x <= N: the pair enters each term as the telescoping
    ratio prod_{r<j} (x-r)/(N-r), which equals the written Pochhammer ratio
    wherever the latter is defined and is 0 once j > x.  A denominator whose
    Pochhammer vanishes inside the truncated range with no such partner makes
    the sum undefined and is rejected.

    The package evaluates Hahn values by the division-free kernel
    simplex.eval_total, not through this sum; the tests hold that kernel
    against the prefactored 3F2 computed here, an independent route.
    """
    nums = [Rat(a) for a in numerators]
    dens = [Rat(b) for b in denominators]
    arg = Rat(arg)

    stops = [x for a in nums if (x := _nonpos_int(a)) is not None]
    if not stops:
        raise ValueError("series does not terminate: no nonpositive integer numerator")
    top = min(stops)

    # Pair integer denominators with cancelling numerators.  Deterministic
    # choice: largest eligible x first, so the ratio stays nonzero longest.
    num_pool = sorted(
        (i for i, a in enumerate(nums) if _nonpos_int(a) is not None),
        key=lambda i: -(_nonpos_int(nums[i]) or 0),
    )
    pairs: list[tuple[int, int]] = []  # (x, N) with x <= N
    free_nums = list(nums)
    free_dens = []
    for b in dens:
        N_b = _nonpos_int(b)
        partner = None
        if N_b is not None:
            for i in num_pool:
                if free_nums[i] is not None and (_nonpos_int(nums[i]) or 0) <= N_b:
                    partner = i
                    break
        if partner is not None:
            pairs.append(((_nonpos_int(nums[partner]) or 0), N_b))
            free_nums[partner] = None
        elif N_b is not None and N_b < top:
            raise ZeroDivisionError(
                "denominator Pochhammer vanishes inside the sum with no cancelling numerator"
            )
        else:
            free_dens.append(b)
    free_nums = [a for a in free_nums if a is not None]

    total = _ZERO
    term = _ONE
    j = 0
    while True:
        total = total + term
        if j == top:
            break
        for a in free_nums:
            term = term * (a + j)
        for b in free_dens:
            term = term / (b + j)
        for x, N_b in pairs:
            if j >= x:
                term = _ZERO
            else:
                term = term * Rat(x - j, N_b - j)
        term = term * arg / (j + 1)
        if term == 0:
            break  # a vanished factor propagates through every later term
        j += 1
    return total


class RadicalScalar:
    """Exact value coeff*sqrt(radicand) with rational parts, radicand >= 0.

    Radicands are not reduced to squarefree form; equality is the sign test
    plus equality of the squared values.  Closed under multiplication only.
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand):
        coeff = Rat(coeff)
        radicand = Rat(radicand)
        if radicand < 0:
            raise ValueError("negative radicand")
        if coeff == 0 or radicand == 0:
            coeff = _ZERO
            radicand = _ZERO
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("RadicalScalar is immutable")

    @classmethod
    def of_rational(cls, value) -> "RadicalScalar":
        return cls(value, _ONE)

    @classmethod
    def sqrt(cls, radicand) -> "RadicalScalar":
        return cls(_ONE, radicand)

    def sign(self) -> int:
        if self.coeff > 0:
            return 1
        if self.coeff < 0:
            return -1
        return 0

    def squared(self):
        return self.coeff * self.coeff * self.radicand

    def signed_square(self):
        """The square carrying the sign of the value; injective on values."""
        return self.sign() * self.squared()

    def __mul__(self, other):
        if isinstance(other, RadicalScalar):
            return RadicalScalar(self.coeff * other.coeff, self.radicand * other.radicand)
        return RadicalScalar(self.coeff * Rat(other), self.radicand)

    __rmul__ = __mul__

    def __neg__(self):
        return RadicalScalar(-self.coeff, self.radicand)

    def __eq__(self, other):
        if not isinstance(other, RadicalScalar):
            if Rat(other) == 0:
                return self.coeff == 0
            other = RadicalScalar.of_rational(other)
        return self.sign() == other.sign() and self.squared() == other.squared()

    def __hash__(self):
        return hash((self.sign(), self.squared()))

    def __float__(self):
        return float(self.coeff) * math.sqrt(float(self.radicand))

    def __repr__(self):
        return f"RadicalScalar({format_rational(self.coeff)}, {format_rational(self.radicand)})"


class RationalMatrix:
    """Immutable rectangular matrix over the rationals."""

    __slots__ = ("data",)

    def __init__(self, rows):
        # an entry that is already the backend's rational is kept as it is
        data = tuple(tuple(c if isinstance(c, Rational) else Rat(c) for c in row) for row in rows)
        if not data or any(len(r) != len(data[0]) for r in data):
            raise ValueError("rows must be rectangular and nonempty")
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0])

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        raise TypeError("RationalMatrix is not hashable")

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RationalMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor) -> "RationalMatrix":
        factor = Rat(factor)
        return RationalMatrix([[factor * a for a in row] for row in self.data])

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """The product, as sums of the rows of other; zero factors are skipped."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for row in self.data:
            acc = [_ZERO] * other.cols
            for a, orow in zip(row, other.data):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return RationalMatrix(out)

    def nullspace(self) -> list[tuple]:
        """Exact kernel basis, each vector scaled to first nonzero entry 1.

        Rows are scaled integer, then reduced by one-step Bareiss elimination
        so intermediate entries stay integer and bounded.  Nothing in the
        package calls it: it stays as the tests' independent finder of the
        oracle's eigenvectors, and the benchmark traces it.
        """
        rows, cols = self.rows, self.cols
        A: list[list[int]] = []
        for row in self.data:
            scale = math.lcm(*(int(x.denominator) for x in row)) if row else 1
            A.append([int(x.numerator) * (scale // int(x.denominator)) for x in row])

        piv_cols: list[int] = []
        r = 0
        prev = 1
        for c in range(cols):
            p = next((i for i in range(r, rows) if A[i][c] != 0), None)
            if p is None:
                continue
            A[r], A[p] = A[p], A[r]
            pivot = A[r][c]
            # update every lower row, zero factors included: the Bareiss
            # divisibility invariant needs the pivot/prev rescaling everywhere
            for i in range(r + 1, rows):
                factor = A[i][c]
                for j in range(c + 1, cols):
                    A[i][j] = (pivot * A[i][j] - factor * A[r][j]) // prev
                A[i][c] = 0
            prev = pivot
            piv_cols.append(c)
            r += 1
            if r == rows:
                break

        free_cols = [c for c in range(cols) if c not in piv_cols]
        basis: list[tuple] = []
        for f in free_cols:
            v = [_ZERO] * cols
            v[f] = _ONE
            for t in reversed(range(len(piv_cols))):
                pc = piv_cols[t]
                s = sum((Rat(A[t][j]) * v[j] for j in range(pc + 1, cols)), _ZERO)
                v[pc] = -s / A[t][pc]
            lead = next(x for x in v if x != 0)
            basis.append(tuple(x / lead for x in v))
        return basis

